"""Integer/rational polynomial arithmetic and the number-theory helpers."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bftorus.config
import bftorus.polyring
from bftorus.errors import BudgetExceeded, NotMonic
from bftorus.numberfield import NumberField
from bftorus.polyring import (
    IntPoly,
    RatPoly,
    _factor_degrees_mod,
    _factor_pattern_mod,
    _gf_mul,
    _gf_radical,
    _gf_repeated_part,
    _is_prime,
    discriminant,
    factorint,
    format_poly,
    is_irreducible,
    parse_int_poly,
    parse_rat_poly,
    square_part,
)

from util import (
    P_CUBIC,
    P_QUAD,
    _poly_mul,
    oracle_box_irreducible,
    oracle_gf_radical,
    oracle_irreducible,
    oracle_repeated_part,
    oracle_resultant,
    poly_gcd,
    poly_xgcd,
)


P = IntPoly(P_CUBIC)  # x^3 - 23x^2 + 7x - 1
PHI16 = IntPoly([1, 0, 0, 0, 0, 0, 0, 0, 1])  # x^8 + 1


class TestArithmetic:
    def test_ring_ops(self):
        a = IntPoly([1, 2])
        b = IntPoly([3, 0, 1])
        assert a + b == IntPoly([4, 2, 1])
        assert a * b == IntPoly([3, 6, 1, 2])
        assert (a - a).is_zero()
        assert a(5) == 11

    def test_degree_and_leading(self):
        assert P.degree == 3
        assert P.leading() == 1
        assert IntPoly([]).degree == -1
        assert IntPoly([0, 0]).is_zero()

    def test_normalization_strips_leading_zeros(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])

    def test_derivative(self):
        assert P.derivative() == IntPoly([7, -46, 3])
        assert IntPoly([5]).derivative().is_zero()

    def test_cyclic(self):
        # x^k - 1, the polynomial behind the k-periodic point groups
        assert IntPoly.cyclic(3) == IntPoly([-1, 0, 0, 1])
        assert IntPoly.cyclic(1) == IntPoly([-1, 1])

    def test_rat_divmod(self):
        a = RatPoly([Fraction(1), Fraction(0), Fraction(1)])  # x^2 + 1
        b = RatPoly([Fraction(1), Fraction(1)])  # x + 1
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_rat_is_integral_and_conversion(self):
        assert RatPoly([Fraction(2), Fraction(4, 2)]).is_integral()
        assert not RatPoly([Fraction(1, 2)]).is_integral()
        assert RatPoly([Fraction(3), Fraction(1)]).to_int_poly() == IntPoly([3, 1])


def test_poly_mod():
    # x^5 = 4x in Q[x]/(x^2 - 2)
    r = RatPoly([0, 0, 0, 0, 0, 1]) % IntPoly([-2, 0, 1])
    assert r == RatPoly([Fraction(0), Fraction(4)])


def test_poly_gcd_and_xgcd():
    a = RatPoly([Fraction(-1), Fraction(0), Fraction(1)])  # (x-1)(x+1)
    b = RatPoly([Fraction(-1), Fraction(1)])
    g = poly_gcd(a, b)
    assert g == b.monic()
    g2, s, t = poly_xgcd(a, b)
    assert s * a + t * b == g2


def test_resultant_of_linear_factors():
    # Res(x - s, x - t) = s - t
    assert oracle_resultant(IntPoly([-3, 1]), IntPoly([-11, 1])) == -8
    assert oracle_resultant(IntPoly([11, 1]), IntPoly([-2, 1])) == -13


def test_resultant_multiplicative(rng):
    for _ in range(20):
        a = IntPoly([rng.randint(-5, 5) for _ in range(3)] + [1])
        b = IntPoly([rng.randint(-5, 5) for _ in range(2)] + [1])
        c = IntPoly([rng.randint(-5, 5) for _ in range(2)] + [1])
        assert oracle_resultant(a, b * c) == oracle_resultant(a, b) * oracle_resultant(a, c)


class TestDiscriminant:
    def test_goldens(self):
        assert discriminant(IntPoly(P_QUAD)) == 1152
        assert discriminant(P) == -21248
        assert discriminant(IntPoly([-1, 0, 1])) == 4

    def test_quadratic_formula(self, rng):
        # disc(x^2 + bx + c) = b^2 - 4c
        for _ in range(100):
            b = rng.randint(-40, 40)
            c = rng.randint(-40, 40)
            assert discriminant(IntPoly([c, b, 1])) == b * b - 4 * c

    def test_requires_monic(self):
        with pytest.raises(NotMonic):
            discriminant(IntPoly([1, 1, 2]))

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            discriminant(IntPoly([4, 1]))


class TestSquarePart:
    @pytest.mark.parametrize(
        "d,expected",
        [
            (1152, (24, 2)),
            (-21248, (16, -83)),
            (7, (1, 7)),
            (-1, (1, -1)),
            (36, (6, 1)),
        ],
    )
    def test_goldens(self, d, expected):
        assert square_part(d) == expected

    def test_reassembly(self, rng):
        for _ in range(60):
            d = rng.randint(1, 10**6) * rng.choice([1, -1])
            f, delta = square_part(d)
            assert f * f * delta == d
            # Delta square-free: no prime appears twice
            assert all(e == 1 for e in factorint(abs(delta)).values())

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            square_part(0)


def test_factorint_basics():
    assert factorint(1) == {}
    assert factorint(2**10 * 83) == {2: 10, 83: 1}
    n = 1152
    fac = factorint(n)
    prod = 1
    for p, e in fac.items():
        prod *= p**e
    assert prod == n


class TestIrreducibility:
    def test_goldens(self):
        assert is_irreducible(P)
        assert not is_irreducible(IntPoly([-1, 0, 1]))
        assert is_irreducible(IntPoly([1, -7, 0, -7, 1]))
        assert is_irreducible(IntPoly(P_QUAD))

    def test_linear_always(self):
        assert is_irreducible(IntPoly([9, 1]))

    def test_zero_constant_term(self):
        assert not is_irreducible(IntPoly([0, 5, 1]))

    def test_vs_brute_force(self, rng):
        # exhaustive monic-factor search is the independent referee
        for _ in range(120):
            n = rng.randint(2, 4)
            coeffs = [rng.randint(-50, 50) for _ in range(n)] + [1]
            p = IntPoly(coeffs)
            assert is_irreducible(p) == oracle_irreducible(coeffs)

    def test_requires_monic(self):
        with pytest.raises(NotMonic):
            is_irreducible(IntPoly([1, 0, 2]))

    def test_no_rational_gcd(self):
        # the library has no gcd over Q: repeated factors are read mod ℓ
        assert not hasattr(bftorus.polyring, "poly_gcd")
        assert not is_irreducible(IntPoly([1, 0, 2, 0, 1]))  # (x^2+1)^2
        assert not is_irreducible(IntPoly([4, -4, 1]))  # (x-2)^2
        assert is_irreducible(IntPoly([1, -7, 0, -7, 1]))
        assert is_irreducible(P)

    def test_search_budget(self, monkeypatch):
        # x^8+1 (the 16th cyclotomic polynomial) is reducible mod every
        # prime, so only the factor search can settle it; Kronecker's
        # method needs about a hundred values, so a budget of 50 runs out.
        monkeypatch.setattr(bftorus.polyring, "IRREDUCIBILITY_SEARCH_BUDGET", 50)
        with pytest.raises(BudgetExceeded, match="x\\^8\\+1"):
            is_irreducible(PHI16)

    def test_too_few_factored_values_exceed_the_budget(self):
        # x^32+1 leaves degree 16 open mod every prime, but only 7 of its
        # values at |x| <= 32 (those at |x| <= 3) factor by trial division
        # up to 10^4 with a proven prime cofactor.
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="x\\^32\\+1"):
            is_irreducible(IntPoly([1] + [0] * 31 + [1]))
        assert time.perf_counter() - start < 2

    def test_root_test_with_a_large_constant_term(self):
        # p(0) = 10^14+31 is prime: no integer root, read off roots
        # modulo a small prime rather than off the divisors of p(0)
        start = time.perf_counter()
        assert is_irreducible(IntPoly([10**14 + 31, 1, 0, 0, 1]))
        assert time.perf_counter() - start < 0.1
        assert not is_irreducible(IntPoly([-(10**14 + 31), 10**14 + 30, 1]))  # root 1

    def test_constant_term_with_two_large_prime_factors(self):
        # both above the trial-division bound 10^4
        start = time.perf_counter()
        assert is_irreducible(IntPoly([10007 * 10009, 1, 0, 1]))
        assert time.perf_counter() - start < 0.1
        # (x - 10007)(x^2 + x + 10009)
        assert not is_irreducible(IntPoly(_poly_mul([-10007, 1], [10009, 1, 1])))

    def test_root_test_does_not_factor_the_constant_term(self, monkeypatch):
        # p(0) = p·q with p ≈ 10^15 and q ≈ 3·10^15 prime, which
        # Pollard-Brent needs tens of seconds to split
        def refuse(*args, **kwargs):
            raise AssertionError("the root test factored p(0)")

        monkeypatch.setattr(bftorus.polyring, "factorint", refuse)
        big_p, big_q = (next(m for m in itertools.count(x) if _is_prime(m))
                        for x in (10**15, 3 * 10**15))
        start = time.perf_counter()
        assert is_irreducible(IntPoly([big_p * big_q, 1, 0, 1]))
        assert is_irreducible(IntPoly([10007 * 10009, 1, 0, 1]))
        # (x + big_p)(x^2 - big_p·x + big_q), a root far beyond p(0)'s
        # trial division
        assert not is_irreducible(IntPoly(_poly_mul([big_p, 1], [big_q, -big_p, 1])))
        assert time.perf_counter() - start < 0.1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-(10**12), 10**12),
        st.lists(st.integers(-50, 50), min_size=1, max_size=3),
    )
    def test_root_test_finds_every_integer_root(self, root, cofactor):
        # (x - root)·h, h monic: reducible whatever the size of the root;
        # a double root when h(root) = 0 as well
        p = IntPoly(_poly_mul([-root, 1], cofactor + [1]))
        if p.coeffs[0]:
            assert not is_irreducible(p)

    def test_repeated_factor_without_a_simple_root_mod_small_primes(self):
        # (x - 1)^2·(x + 2): every prime sees the double root 1, so the
        # product of the primes passes Hadamard's bound on disc(p) = 0
        assert bftorus.polyring._root_or_repeated_factor(IntPoly(_poly_mul([1, -2, 1], [2, 1])))
        assert not bftorus.polyring._root_or_repeated_factor(IntPoly([1, 7, -23, 1]))

    def test_factor_degrees_start_at_two_after_the_root_test(self, monkeypatch):
        # x^4+x+1 mod 3 is (x-1)(x^3+x^2+x+2): with no rational root the
        # degree pattern {1, 3} leaves no factor of degree 2, so the first
        # prime decides
        calls = []
        patterns = bftorus.polyring._factor_pattern_mod
        monkeypatch.setattr(bftorus.polyring, "_factor_pattern_mod",
                            lambda p, q, disc: calls.append(q) or patterns(p, q, disc))
        assert is_irreducible(IntPoly([1, 1, 0, 0, 1]))
        assert calls == [3]

    def test_degree_five_and_below_need_no_distinct_degree_factorisation(self, monkeypatch, rng):
        # a root count and a Legendre symbol fix every pattern when the
        # rootless part has degree <= 5; x^4+1 and (x^2-4x+15)(x^2+3x-16)
        # run through every sieve prime and reach Kronecker's search
        def refuse(p, q):
            raise AssertionError(f"{p} reached _factor_degrees_mod at {q}")

        monkeypatch.setattr(bftorus.config, "_DEBUG_ASSERTS", False)
        monkeypatch.setattr(bftorus.polyring, "_factor_degrees_mod", refuse)
        assert is_irreducible(IntPoly([1, 1, 0, 0, 1]))
        assert is_irreducible(IntPoly([1, 0, 0, 0, 1]))
        assert not is_irreducible(IntPoly(_poly_mul([15, -4, 1], [-16, 3, 1])))
        for _ in range(200):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.choice((4, 5)))] + [1]
            is_irreducible(IntPoly(coeffs))

    def test_stickelberger_needs_the_signed_discriminant(self, monkeypatch):
        # (x^2-2)(x^4-3x^3-4x^2-2x+3) is (x-2)(x^2+1)(x^3+x^2+2) mod 3.
        # Res(p, p') = -disc(p) in degree 6, and 3 ≡ 3 mod 4, so the
        # unsigned resultant flips Stickelberger's parity to (x-2)·(quintic),
        # which would leave no factor of degree 2..4 and call p irreducible.
        monkeypatch.setattr(bftorus.config, "_DEBUG_ASSERTS", False)  # -disc on purpose
        p = IntPoly(_poly_mul([-2, 0, 1], [3, -2, -4, -3, 1]))
        disc = discriminant(p)
        assert disc == -oracle_resultant(p, p.derivative())
        assert _factor_degrees_mod(p, 3) == [1, 2, 3]
        assert _factor_pattern_mod(p, 3, disc) == [1, 2, 3]
        assert _factor_pattern_mod(p, 3, -disc) == [1, 5]
        assert not is_irreducible(p)

    def test_reducible_mod_every_prime_yet_irreducible(self):
        # The coefficient box would hold about 4·10^7 quartics for x^8+1.
        assert is_irreducible(PHI16)
        assert is_irreducible(IntPoly([1] + [0] * 15 + [1]))  # x^16+1
        assert is_irreducible(IntPoly([1, 0, 0, 0, -1, 0, 0, 0, 1]))  # x^8-x^4+1

    def test_split_beyond_the_coefficient_box_budget(self):
        # (x^2-4x+15)(x^2+3x-16): the char poly of a 4x4 matrix with
        # entries in [-4, 4], whose box search ran past 50,000 candidates.
        coeffs = _poly_mul([15, -4, 1], [-16, 3, 1])
        assert coeffs == [-240, 109, -13, -1, 1]
        assert not is_irreducible(IntPoly(coeffs))


def _monic(degree):
    return st.lists(st.integers(-5, 5), min_size=degree, max_size=degree).map(
        lambda c: c + [1]
    )


# f^2, f^2·g and x·f at degrees 2..6: reducible, with a repeated factor
# or the root 0, which is what the early exits must catch.
SQUARES = st.integers(1, 3).flatmap(_monic).map(lambda f: _poly_mul(f, f))
SQUARES_TIMES = st.integers(1, 2).flatmap(
    lambda d: st.tuples(_monic(d), st.integers(1, 6 - 2 * d).flatmap(_monic))
).map(lambda fg: _poly_mul(_poly_mul(fg[0], fg[0]), fg[1]))
ZERO_ROOT = st.integers(1, 5).flatmap(_monic).map(lambda f: [0] + f)


@settings(max_examples=200, deadline=None)
@given(st.one_of(SQUARES, SQUARES_TIMES, ZERO_ROOT))
def test_repeated_factor_or_zero_root_against_oracle(coeffs):
    assert 2 <= len(coeffs) - 1 <= 6
    assert is_irreducible(IntPoly(coeffs)) == oracle_irreducible(coeffs)


# Products of a monic quadratic and a monic factor of degree 2..3, and
# random monic polynomials of degree 4..5, without the root 0; small
# coefficients keep the box search affordable.
PRODUCTS = st.tuples(_monic(2), st.integers(2, 3).flatmap(_monic)).map(
    lambda fg: _poly_mul(*fg)
)
RANDOM = st.integers(4, 5).flatmap(_monic)


@settings(max_examples=60, deadline=None)
@given(st.one_of(PRODUCTS, RANDOM).filter(lambda c: c[0] != 0))
def test_kronecker_against_the_coefficient_box(coeffs):
    assert is_irreducible(IntPoly(coeffs)) == oracle_box_irreducible(coeffs)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 7).flatmap(lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)),
    st.sampled_from([q for q in range(3, 60, 2) if _is_prime(q)]),
)
def test_factor_pattern_against_distinct_degrees(coeffs, q):
    # the root count and Stickelberger's parity give the same multiset of
    # factor degrees as distinct-degree factorisation, at odd q ∤ disc(p)
    p = IntPoly(coeffs + [1])
    disc = discriminant(p)
    assume(disc % q)
    assert _factor_pattern_mod(p, q, disc) == _factor_degrees_mod(p, q)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
def test_hankel_discriminant_against_the_resultant(coeffs):
    p = IntPoly(coeffs + [1])
    n = p.degree
    assert discriminant(p) == (-1) ** (n * (n - 1) // 2) * oracle_resultant(p, p.derivative())


@st.composite
def powers_mod_small_primes(draw):
    """(f, ℓ): a monic product of random monic factors mod ℓ, each to a
    multiplicity among 1, 2, ℓ, ℓ + 1 and 2ℓ, so that repeated factors
    and ℓ-th powers (f' = 0) occur."""
    ell = draw(st.sampled_from((2, 3, 5, 7)))
    f = [1]
    for _ in range(draw(st.integers(0, 3))):
        g = draw(st.lists(st.integers(0, ell - 1), min_size=1, max_size=3)) + [1]
        for _ in range(draw(st.sampled_from((1, 2, ell, ell + 1, 2 * ell)))):
            f = _gf_mul(f, g, ell)
    return f, ell


@settings(max_examples=200, deadline=None)
@given(powers_mod_small_primes())
def test_gf_radical_against_distinct_degrees(case):
    f, ell = case
    assert _gf_radical(f, ell) == oracle_gf_radical(f, ell)


def _gf_power(f, e, q):
    out = [1]
    for _ in range(e):
        out = _gf_mul(out, f, q)
    return out


@st.composite
def monic_mod_small_primes(draw):
    """(f, q): a monic f of degree 1-8 with coefficients in [0, q)."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 8))
    return draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)) + [1], q


@settings(max_examples=300, deadline=None)
@given(monic_mod_small_primes())
@example(([1, 0, 1, 0, 1], 2))  # g(x^2) for g = x^2+x+1: f' = 0
@example(([2, 0, 0, 1, 0, 0, 1], 3))  # g(x^3) for g = x^2+x+2: f' = 0
@example((_gf_mul(_gf_power([1, 1], 3, 3), _gf_power([2, 1], 4, 3), 3), 3))  # (x+1)^3·(x+2)^4
@example((_gf_mul(_gf_power([1, 1], 2, 2), _gf_power([0, 1], 3, 2), 2), 2))  # (x+1)^2·x^3
@example(([1, 0, 2, 0, 1], 3))  # (x^2+1)^2 mod 3
@example((_gf_power([5, 1], 7, 7), 7))  # (x-2)^7 mod 7
@example((_gf_power([3, 1], 5, 5), 5))  # (x-2)^5 mod 5
@example(([0, 4, 0, 1], 5))  # x(x-1)(x+1): squarefree
def test_gf_repeated_part_against_distinct_degrees(case):
    # rad(gcd(f, f')) is gcd(t, h) for t the radical of f and h = f/t
    f, q = case
    got = _gf_repeated_part(f, q)
    assert got == oracle_repeated_part(f, q)
    if f == [0, 4, 0, 1]:
        assert got == [1]


class TestParsing:
    def test_int_poly(self):
        assert parse_int_poly("x^3 - 23*x^2 + 7*x - 1") == P
        assert parse_int_poly("x-1") == IntPoly([-1, 1])
        assert parse_int_poly("7") == IntPoly([7])

    def test_implicit_multiplication(self):
        assert parse_int_poly("2x^2+3x") == IntPoly([0, 3, 2])

    def test_rat_poly(self):
        g = parse_rat_poly("(1/8)x^3 + (1/2)x^2 + (1/2)x + (5/8)")
        assert g == RatPoly(
            [Fraction(5, 8), Fraction(1, 2), Fraction(1, 2), Fraction(1, 8)]
        )

    @pytest.mark.parametrize("parse", [parse_int_poly, parse_rat_poly])
    @pytest.mark.parametrize("text", ["1/0x", "1/0x^2+1", "x^2+(3/0)"])
    def test_zero_denominator_is_a_value_error(self, parse, text):
        with pytest.raises(ValueError, match="zero denominator in polynomial term"):
            parse(text)

    def test_zero_denominator_in_a_field_element(self):
        with pytest.raises(ValueError, match="zero denominator"):
            NumberField(P).parse("1/0b+1")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_int_poly("x^^2")
        with pytest.raises(ValueError):
            parse_int_poly("y+1")
        with pytest.raises(ValueError):
            parse_int_poly("")

    def test_format_round_trip(self, rng):
        for _ in range(40):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
            p = IntPoly(coeffs)
            assert parse_int_poly(format_poly(list(p.coeffs))) == p

    def test_format_spot_checks(self):
        assert format_poly([0, 4]) == "4x"
        assert format_poly([-1, 7, -23, 1]) == "x^3-23x^2+7x-1"
        assert format_poly([]) == "0"
