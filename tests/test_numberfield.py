"""Field arithmetic in Q[x]/(p), traces/norms, and integrality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftorus.errors import ReduciblePolynomial, ZeroInverse
from bftorus.exactmat import char_poly
from bftorus.ideals import FractionalIdeal
from bftorus.invariants import ideal_to_matrix
from bftorus.numberfield import NumberField, multiplication_matrix
from bftorus.polyring import IntPoly, RatPoly, parse_int_poly, poly_xgcd, resultant

from util import I7_COLS, P_CUBIC, random_admissible_poly


@pytest.fixture(scope="module")
def K():
    return NumberField("x^3 - 23*x^2 + 7*x - 1")


@pytest.fixture(scope="module")
def Q2():
    return NumberField("x^2 - 2")


def test_rejects_reducible():
    with pytest.raises(ReduciblePolynomial):
        NumberField("x^2 - 1")


def test_rejects_nonmonic():
    with pytest.raises(Exception):
        NumberField("2*x^2 - 1")


def test_construction_from_poly_object(K):
    same = NumberField(IntPoly(P_CUBIC))
    assert same == K
    assert same.n == 3


class TestArithmetic:
    def test_beta_times_inverse(self, K):
        b = K.beta()
        assert b * b.inverse() == K.one()

    def test_square_in_quadratic_field(self, Q2):
        # (1 + b)^2 = 3 + 2b when b^2 = 2
        b = Q2.beta()
        assert (1 + b) ** 2 == Q2.element([3, 2])

    def test_division(self, K):
        b = K.beta()
        x = (b * b - 3) / (b + 2)
        assert x * (b + 2) == b * b - 3

    def test_zero_inverse_raises(self, K):
        with pytest.raises(ZeroInverse):
            K.zero().inverse()

    def test_mixed_field_error(self, K, Q2):
        with pytest.raises(Exception):
            K.beta() + Q2.beta()

    def test_pow_negative(self, K):
        b = K.beta()
        assert b ** (-2) == (b * b).inverse()

    def test_rational_detection(self, K):
        assert K.element([Fraction(3, 4), 0, 0]).is_rational()
        assert K.element([Fraction(3, 4), 0, 0]).as_fraction() == Fraction(3, 4)
        assert not K.beta().is_rational()

    def test_parse(self, K):
        e = K.parse("(1/2)b^2 + (1/2)")
        assert e == K.element([Fraction(1, 2), 0, Fraction(1, 2)])


class TestMultiplicationMatrix:
    def test_power_basis_gives_companion(self, K):
        m = multiplication_matrix(K.beta())
        assert m == [
            [0, 0, 1],
            [1, 0, -7],
            [0, 1, 23],
        ]

    def test_integral_basis_golden(self, K):
        # mult-by-beta on the ideal basis (8, b+7, b^2+7) through
        # ideal_to_matrix: char poly p — the dictionary's matrix side,
        # reproduced by hand
        ideal = FractionalIdeal(K, 1, I7_COLS)
        rows = ideal_to_matrix(ideal)
        assert rows == [[-7, -7, -20], [8, 7, 0], [0, 1, 23]]
        assert char_poly(rows) == IntPoly(P_CUBIC)

    def test_identity_element(self, K):
        m = multiplication_matrix(K.one())
        n = K.n
        assert m == [[int(i == j) for j in range(n)] for i in range(n)]


# Eisenstein at 2 (every lower coefficient even, the constant 2 mod 4),
# so irreducible: fields of degree 1..5.
EISENSTEIN = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.sampled_from([-6, -2, 2, 6]),
        st.lists(st.integers(-3, 3).map(lambda c: 2 * c), min_size=n - 1, max_size=n - 1),
    )
).map(lambda t: [t[0], *t[1], 1])
FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(EISENSTEIN, st.data())
def test_inverse_against_xgcd(coeffs, data):
    field = NumberField(IntPoly(coeffs))
    n = field.n
    z = field.element(data.draw(st.lists(FRACTIONS, min_size=n, max_size=n)))
    if z.is_zero():
        with pytest.raises(ZeroInverse):
            z.inverse()
        return
    # s·z + t·p = d, d a nonzero constant, so 1/z = s/d mod p
    d, s, _ = poly_xgcd(RatPoly(z.coords), field.p)
    assert d.degree == 0
    assert z.inverse() == field.from_poly(s * (1 / d.coeffs[0]))
    assert z * z.inverse() == field.one()


class TestTraceAndNorm:
    def test_goldens(self, K):
        b = K.beta()
        assert b.trace() == 23
        assert b.norm() == 1
        assert (b + 1).norm() == 32  # = -p(-1)
        assert K.one().trace() == K.n

    def test_norm_multiplicative(self, K, rng):
        for _ in range(25):
            x = K.element([Fraction(rng.randint(-9, 9)) for _ in range(3)])
            y = K.element([Fraction(rng.randint(-9, 9)) for _ in range(3)])
            assert (x * y).norm() == x.norm() * y.norm()

    def test_trace_additive(self, K, rng):
        for _ in range(25):
            x = K.element([Fraction(rng.randint(-9, 9)) for _ in range(3)])
            y = K.element([Fraction(rng.randint(-9, 9)) for _ in range(3)])
            assert (x + y).trace() == x.trace() + y.trace()

    def test_norm_of_poly_value_is_resultant(self, K, rng):
        # N(g(b)) = Res(p, g) for monic p — the bridge between group
        # orders and determinants
        p = IntPoly(P_CUBIC)
        for _ in range(20):
            gi = IntPoly(random_admissible_poly(rng, 3))
            val = K.from_poly(gi)
            assert val.norm() == Fraction(resultant(p, gi))


class TestIntegrality:
    def test_beta_is_unit(self, K):
        # p(0) = -1 so beta is an algebraic unit
        assert K.beta().is_unit()
        assert K.beta().is_integral()

    def test_half_shift(self, K):
        assert K.element([Fraction(1, 2), Fraction(1, 2), 0]).is_integral()
        assert not K.element([Fraction(1, 2), 0, 0]).is_integral()

    def test_integer_is_integral_not_unit(self, K):
        two = K.element([2, 0, 0])
        assert two.is_integral()
        assert not two.is_unit()

    def test_minimal_polynomial_of_beta(self, K):
        assert K.beta().minimal_polynomial() == IntPoly(P_CUBIC)

    def test_minimal_polynomial_of_rational(self, K):
        mp = K.element([5, 0, 0]).minimal_polynomial()
        assert mp == IntPoly([-5, 1])

    def test_minpoly_integrality_agreement(self, Q2):
        # in a quadratic field every irrational element has min poly of
        # degree 2, and integrality matches integer coefficients
        e = Q2.element([Fraction(1, 2), Fraction(3, 2)])
        mp = e.minimal_polynomial()
        assert mp.degree == 2
        integral_coeffs = all(Fraction(c).denominator == 1 for c in mp.coeffs)
        assert e.is_integral() == integral_coeffs


def test_integral_closure_sampling(K, rng):
    # sums and products of integral elements stay integral
    pool = [
        K.beta(),
        K.element([Fraction(1, 2), Fraction(1, 2), 0]),
        K.element([3, 0, 0]),
        K.beta() * K.beta(),
    ]
    for _ in range(20):
        x = rng.choice(pool)
        y = rng.choice(pool)
        assert (x + y).is_integral()
        assert (x * y).is_integral()
