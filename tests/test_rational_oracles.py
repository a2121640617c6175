"""Rational results from integer kernels, against Fraction oracles.

``rational_inverse`` (in util, over the library's ``_integer_inverse``)
is B_0 = Σ c_(t+1)·A^t over -p(0), read off the power table,
``eval_poly_at_matrix`` evaluates the remainder of d·g by p on the
same table and divides by d, and the char poly of an element is the
rescaled integer char poly of its multiplication matrix.  The oracles in
util redo each in Fraction arithmetic: Gauss-Jordan for the inverse,
Fraction Horner for g(A), and the first linear dependence among the
powers of an element for the minimal polynomial, whose power of degree
n the char poly must be.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftorus.errors import NonIntegralResult, SingularMatrix
from bftorus.exactmat import char_poly, eval_poly_at_matrix
from bftorus.numberfield import NumberField, multiplication_matrix
from bftorus.polyring import IntPoly, RatPoly

from util import (
    oracle_eval_poly,
    oracle_inverse,
    oracle_irreducible,
    oracle_minimal_polynomial,
    oracle_rational_det,
    rational_inverse,
)

SEEDS = st.integers(0, 2**32 - 1)


def _random_matrix(rng, n, span):
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(0, 5))
def test_rational_inverse_against_gauss_jordan(seed, n):
    rng = random.Random(seed)
    # Small entries make singular matrices common at every size.
    a = _random_matrix(rng, n, rng.choice((1, 2, 9)))
    if n and oracle_rational_det(a) == 0:
        with pytest.raises(SingularMatrix):
            rational_inverse(a)
    else:
        inv = rational_inverse(a)
        assert inv == oracle_inverse(a)
        assert all(type(e) is Fraction for row in inv for e in row)


def test_rational_inverse_of_empty_matrix():
    assert rational_inverse([]) == []


def _check_eval(coeffs, a):
    want = oracle_eval_poly(coeffs, a)
    if any(e.denominator != 1 for row in want for e in row):
        with pytest.raises(NonIntegralResult):
            eval_poly_at_matrix(RatPoly(coeffs), a)
    else:
        assert eval_poly_at_matrix(RatPoly(coeffs), a) == want


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(1, 4))
def test_eval_poly_at_matrix_against_fraction_horner(seed, n):
    rng = random.Random(seed)
    a = _random_matrix(rng, n, 5)
    # A random rational g: g(A) is rarely integral.
    g = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4))) for _ in range(rng.randint(0, 6))]
    _check_eval(g, a)
    # (chi_A·u)/m + v has denominators, yet g(A) = v(A) is integral.
    m = rng.choice((2, 3, 5))
    u = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
    v = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
    g = RatPoly((char_poly(a) * u).coeffs) * Fraction(1, m) + v
    assert eval_poly_at_matrix(g, a) == oracle_eval_poly(v.coeffs, a)
    _check_eval(g.coeffs, a)


def _check_minimal_polynomial(z):
    # chi = det(x·I - M(z)) = det(d·x·I - M(d·z))/d^n is m^(n/deg m)
    want = oracle_minimal_polynomial(z)
    n = z.field.n
    d = math.lcm(*(c.denominator for c in z.coords))
    rows = [[int(e) for e in row] for row in multiplication_matrix(z * d)]
    chi = RatPoly([Fraction(c, d ** (n - k)) for k, c in enumerate(char_poly(rows).coeffs)])
    power = RatPoly([1])
    for _ in range(n // (len(want) - 1)):
        power = power * RatPoly(want)
    assert chi == power
    # z is integral exactly when chi is (Gauss's lemma)
    assert chi.is_integral() == all(c.denominator == 1 for c in want)


def _random_field(rng, n):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
        if coeffs[0] and oracle_irreducible(coeffs):
            return NumberField(IntPoly(coeffs))


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(2, 4))
def test_minimal_polynomial_with_denominators(seed, n):
    rng = random.Random(seed)
    field = _random_field(rng, n)
    _check_minimal_polynomial(field.element([_random_rational(rng) for _ in range(n)]))
    _check_minimal_polynomial(field.element([_random_rational(rng)] + [0] * (n - 1)))


# b = sqrt(2) + sqrt(3) for x^4 - 10x^2 + 1; its three quadratic
# subfields are generated by b^2 = 5 + 2·sqrt(6), sqrt(2) = (b^3 - 9b)/2
# and sqrt(3) = (11b - b^3)/2.
BIQUADRATIC = NumberField(IntPoly([1, 0, -10, 0, 1]))
SUBFIELD_GENERATORS = [
    (0, 0, 1, 0),
    (0, Fraction(-9, 2), 0, Fraction(1, 2)),
    (0, Fraction(11, 2), 0, Fraction(-1, 2)),
]


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_minimal_polynomial_in_proper_subfields(seed):
    # The char poly is the square of the minimal polynomial here.
    rng = random.Random(seed)
    s = BIQUADRATIC.element(rng.choice(SUBFIELD_GENERATORS))
    z = s * _random_rational(rng) + _random_rational(rng)
    assert len(oracle_minimal_polynomial(z)) - 1 == (1 if z.is_rational() else 2)
    _check_minimal_polynomial(z)
    # An even quartic x^4 + a·x^2 + c has the subfield Q(b^2).
    while True:
        coeffs = [rng.randint(-9, 9), 0, rng.randint(-9, 9), 0, 1]
        if coeffs[0] and oracle_irreducible(coeffs):
            break
    field = NumberField(IntPoly(coeffs))
    z = field.element([_random_rational(rng), 0, _random_rational(rng), 0])
    _check_minimal_polynomial(z)
