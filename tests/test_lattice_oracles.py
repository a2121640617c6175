"""The integer lattice path against Fraction-arithmetic oracles.

``colon``, ``coefficient_ring``, ``ideal_to_matrix``, ``trace_dual``,
``order_discriminant`` and the Bareiss determinant of a multiplication
matrix run on the integer kernels; the oracles in util redo each in Fraction arithmetic by a
different route (a dual row lattice for the colon, a basis solve for
the beta action, the Gauss-Jordan inverse of the trace Gram matrix of
field products, the trace Gram determinant, the determinant of the
rational multiplication matrix).  The dual lattice under the dot
product, which ``colon``, ``intersect`` and the rings of the b-action
share, is checked against the Faddeev-LeVerrier inverse, its size
reduction against ``hnf_cols``, its adjugate recurrence against a
Fraction inverse, and its count of ``hnf_cols`` calls is pinned;
``ZLattice._canonical`` is checked against the validating constructor.
Inputs are seeded: ideals of random irreducible matrices, random
lattices with denominators, and every node of the order lattices of
random fields, n = 2..4; the trace dual also in n = 1..6, over
discriminants of both signs.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftorus import config, ideals
from bftorus.errors import (
    BudgetExceeded,
    NonIntegralResult,
    NotASublattice,
    NotFullRank,
    ReduciblePolynomial,
)
from bftorus.ideals import (
    Order,
    ZLattice,
    _adjugate_columns,
    _dual_lattice,
    _size_reduced,
    _trace_dual_lattice,
    _zbeta_colon,
    coefficient_ring,
    colon,
    lattice_from_generators,
    trace_dual,
    zbeta,
)
from bftorus.invariants import ideal_to_matrix, matrix_to_ideal
from bftorus.numberfield import NumberField, multiplication_matrix
from bftorus.kernels import det_bareiss, hnf_cols
from bftorus.orders import conductor, enumerate_order_lattice, order_discriminant
from bftorus.polyring import IntPoly, discriminant, square_part

from util import (
    P_CUBIC,
    P_QUAD,
    CallCounter,
    oracle_char_poly,
    oracle_colon,
    oracle_dual_lattice,
    oracle_ideal_to_matrix,
    oracle_inverse,
    oracle_irreducible,
    oracle_norm,
    oracle_trace_dual,
    oracle_trace_gram_det,
)

SEEDS = st.integers(0, 2**32 - 1)
DEGREES = st.integers(2, 4)

# Largest square part F of disc(p) per degree for the order-lattice
# property: the enumerator walks every transversal of index d^(n-1)
# for d | F.
MAX_F = {2: 60, 3: 16, 4: 4}


def _irreducible_matrix(rng, n):
    while True:
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        p = oracle_char_poly(a)
        if p[0] and oracle_irreducible(p):
            return a


def _random_field(rng, n):
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
        if coeffs[0] and oracle_irreducible(coeffs):
            return NumberField(IntPoly(coeffs))


def _random_lattice(rng, field):
    n = field.n
    while True:
        cols = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if oracle_char_poly(cols)[0]:  # nonsingular
            return ZLattice(field, rng.randint(1, 6), cols)


def _lattice_with_denominator(rng, field, stable):
    """A random lattice with denominator > 1, b-stable exactly when
    ``stable`` (as the oracle's b-action decides)."""
    while True:
        lattice = _random_lattice(rng, field)
        if stable:
            gens = lattice.basis_elements()
            lattice = lattice_from_generators(field, gens, module_closure=True)
        if lattice.denom > 1 and (oracle_ideal_to_matrix(lattice) is not None) == stable:
            return lattice


def _sublattice(rng, lattice):
    """The lattice spanned by random nonsingular integer combinations of
    the basis of ``lattice``, so contained in it."""
    n = lattice.n
    while True:
        combos = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if oracle_char_poly(combos)[0]:
            cols = [
                [sum(c[k] * lattice.cols[k][r] for k in range(n)) for r in range(n)]
                for c in combos
            ]
            return ZLattice(lattice.field, lattice.denom, cols)


def _non_maximal_field(rng, n):
    """A random field of degree n whose Z[b] is not maximal, with a
    small index bound F."""
    while True:
        field = _random_field(rng, n)
        big_f, _ = square_part(discriminant(field.p))
        if 2 <= big_f <= MAX_F[n]:
            lattice = enumerate_order_lattice(field)
            if len(lattice.nodes) > 1:
                return field, lattice


def _check_colons(pairs):
    for big, small in pairs:
        assert colon(big, small) == oracle_colon(big, small)


def _check_dictionary(lattice):
    expected = oracle_ideal_to_matrix(lattice)
    if expected is None:
        with pytest.raises(NonIntegralResult):
            ideal_to_matrix(lattice)
    else:
        assert ideal_to_matrix(lattice) == expected


@settings(max_examples=40, deadline=None)
@given(SEEDS, DEGREES)
def test_matrix_ideals_against_oracles(seed, n):
    ideal = matrix_to_ideal(_irreducible_matrix(random.Random(seed), n))
    zb = zbeta(ideal.field)
    ring = coefficient_ring(ideal)
    assert isinstance(ring, Order)
    assert ring == oracle_colon(ideal, ideal)
    _check_colons([(zb, ideal), (ring, ideal), (ideal, ring), (ideal, zb)])
    for lattice in (ideal, ring):
        _check_dictionary(lattice)
        assert trace_dual(lattice) == oracle_trace_dual(lattice)


@settings(max_examples=40, deadline=None)
@given(SEEDS, DEGREES)
def test_zbeta_colon_against_the_general_colon(seed, n):
    rng = random.Random(seed)
    ideal = matrix_to_ideal(_irreducible_matrix(rng, n))
    field = ideal.field
    lattices = [ideal, coefficient_ring(ideal), _lattice_with_denominator(rng, field, True)]
    lattices += _non_maximal_field(rng, n)[1].nodes
    # ``colon`` forms its duals by the same size reduction; the Fraction
    # oracle shares no code with either.
    for lattice in lattices:
        got = _zbeta_colon(lattice)
        assert got == colon(zbeta(lattice.field), lattice)
        assert got == oracle_colon(zbeta(lattice.field), lattice)
    with pytest.raises(NotASublattice):
        _zbeta_colon(_lattice_with_denominator(rng, field, False))


@settings(max_examples=40, deadline=None)
@given(SEEDS, DEGREES)
def test_random_lattices_against_oracles(seed, n):
    # Random lattices with denominators are rarely b-stable, so this
    # covers the NonIntegralResult side of ideal_to_matrix as well.
    rng = random.Random(seed)
    field = _random_field(rng, n)
    first, second = _random_lattice(rng, field), _random_lattice(rng, field)
    _check_colons([(first, second), (second, first), (first, first)])
    _check_dictionary(first)
    # trace_dual itself requires an ideal; the lattice step does not.
    assert _trace_dual_lattice(first) == oracle_trace_dual(first)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 6), st.booleans())
def test_trace_dual_against_oracle_in_degrees_1_to_6(seed, n, negative):
    # The power-sum Hankel matrix G has det G = disc(p), whose sign
    # ``negative`` picks for n >= 2; the lattice is random, its
    # Z[b]-module closure b-stable.
    rng = random.Random(seed)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
        if coeffs[0] and (n == 1 or (discriminant(IntPoly(coeffs)) < 0) == negative):
            try:
                field = NumberField(IntPoly(coeffs))
                break
            except (ReduciblePolynomial, BudgetExceeded):
                pass
    lattice = _random_lattice(rng, field)
    ideal = lattice_from_generators(field, lattice.basis_elements(), module_closure=True)
    assert _trace_dual_lattice(lattice) == oracle_trace_dual(lattice)
    assert trace_dual(ideal) == oracle_trace_dual(ideal)


@settings(max_examples=60, deadline=None)
@given(SEEDS, DEGREES, st.booleans(), st.booleans())
def test_colon_against_oracle(seed, n, m_stable, n_inside):
    # M b-stable or not; N inside M or not; both with denominators.
    rng = random.Random(seed)
    field = _random_field(rng, n)
    big = _lattice_with_denominator(rng, field, m_stable)
    if n_inside:
        small = _sublattice(rng, big)
    else:
        small = _lattice_with_denominator(rng, field, rng.random() < 0.5)
        while big.contains_lattice(small):
            small = _lattice_with_denominator(rng, field, rng.random() < 0.5)
    assert colon(big, small) == oracle_colon(big, small)
    assert colon(small, big) == oracle_colon(small, big)


@settings(max_examples=60, deadline=None)
@given(SEEDS, DEGREES)
def test_coefficient_ring_against_oracle(seed, n):
    rng = random.Random(seed)
    field = _random_field(rng, n)
    ideal = _lattice_with_denominator(rng, field, True)
    ring = coefficient_ring(ideal)
    assert isinstance(ring, Order)
    assert ring == oracle_colon(ideal, ideal)
    # A lattice that is not b-stable has no coefficient ring over Z[b].
    with pytest.raises(NotASublattice, match="not stable under multiplication by b"):
        coefficient_ring(_lattice_with_denominator(rng, field, False))


def _check_order_lattice(field, lattice):
    zb = zbeta(field)
    top = max(lattice.nodes, key=lambda r: zb.index_in(r))
    for node in lattice.nodes:
        assert order_discriminant(node) == oracle_trace_gram_det(node)
        _check_dictionary(node)
        if node != top:
            assert coefficient_ring(node) == node == oracle_colon(node, node)
            _check_colons([(zb, node), (node, zb), (top, node)])


@settings(max_examples=15, deadline=None)
@given(SEEDS, DEGREES)
def test_order_lattice_nodes_against_oracles(seed, n):
    _check_order_lattice(*_non_maximal_field(random.Random(seed), n))


@pytest.mark.parametrize("coeffs", [P_QUAD, P_CUBIC, [-12, 0, 0, 1]])
def test_worked_order_lattices_against_oracles(coeffs):
    field = NumberField(IntPoly(coeffs))
    _check_order_lattice(field, enumerate_order_lattice(field))


@settings(max_examples=60, deadline=None)
@given(SEEDS, DEGREES)
def test_norm_with_denominators(seed, n):
    rng = random.Random(seed)
    field = _random_field(rng, n)
    z = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)])
    # N(z) = det M(d·z)/d^n, d the common denominator, by Bareiss
    d = math.lcm(*(c.denominator for c in z.coords))
    rows = [[int(e) for e in row] for row in multiplication_matrix(z * d)]
    assert Fraction(det_bareiss(rows), d**n) == oracle_norm(z)



@settings(max_examples=90, deadline=None)
@given(SEEDS, DEGREES, st.integers(0, 3), st.integers(1, 6), st.booleans(),
       st.sampled_from(["random", "lower", "upper"]))
def test_dual_lattice_against_faddeev_leverrier(seed, n, extra, scale, deficient, shape):
    # n + extra generators; ``deficient`` draws them from a hyperplane.
    # The triangular shapes are n columns: a lower-triangular basis, or
    # its canonical (upper) HNF, with a zero column when ``deficient``.
    rng = random.Random(seed)
    field = _random_field(rng, n)
    if shape == "random":
        basis = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n - deficient)]
        combos = [[rng.randint(-3, 3) for _ in basis] for _ in range(n + extra)]
        vecs = [[sum(c * b[r] for c, b in zip(cs, basis)) for r in range(n)] for cs in combos]
    else:
        vecs = [[0] * j + [rng.randint(1, 9)] + [rng.randint(-99, 99) for _ in range(n - 1 - j)]
                for j in range(n)]
        if shape == "upper":
            vecs = hnf_cols(vecs)
        if deficient:
            vecs[rng.randrange(n)] = [0] * n
    try:
        expected = oracle_dual_lattice(field, vecs, scale)
    except (NotFullRank, ValueError):  # the span has rank below n
        with pytest.raises(NotFullRank, match="span rank"):
            _dual_lattice(field, vecs, scale)
        return
    assert not deficient
    assert _dual_lattice(field, vecs, scale) == expected


def _upper_triangular(n):
    """Upper-triangular columns with positive pivots up to 2^64 and
    entries above them of both signs up to 2^64."""
    big = 2**64
    return st.tuples(
        st.lists(st.integers(1, big), min_size=n, max_size=n),
        st.lists(st.integers(-big, big), min_size=n * n, max_size=n * n),
    ).map(lambda pe: [[pe[1][n * j + r] if r < j else pe[0][j] * (r == j) for r in range(n)]
                      for j in range(n)])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(_upper_triangular))
def test_size_reduction_is_the_hnf(cols):
    assert _size_reduced([list(c) for c in cols]) == hnf_cols(cols)


def _column_sets(n):
    """n upper-triangular columns, or 1 to n + 2 small combinations of
    ``rank`` ≤ n random vectors with entries up to 2^64: a span of rank
    below n where ``rank`` < n or the columns are too few."""
    big = 2**64
    general = st.tuples(st.integers(0, n), st.integers(1, n + 2), st.randoms()).map(
        lambda t: _in_rank(n, *t, big))
    return st.one_of(_upper_triangular(n), general)


def _in_rank(n, rank, count, rng, big):
    basis = [[rng.randint(-big, big) for _ in range(n)] for _ in range(rank)]
    return [[sum(rng.randint(-3, 3) * b[r] for b in basis) for r in range(n)]
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(_column_sets), st.integers(1, 2**64))
def test_canonical_is_the_validating_constructor(cols, denom):
    # the fast path gives ZLattice(...) in denom, cols and class, and
    # NotFullRank where the columns span less than Qⁿ
    n = len(cols[0])
    field = NumberField(IntPoly([-2] + [0] * (n - 1) + [1]))
    try:
        expected = ZLattice(field, denom, cols)
    except NotFullRank:
        with pytest.raises(NotFullRank, match="span rank"):
            ZLattice._canonical(field, denom, [list(c) for c in cols])
        return
    got = ZLattice._canonical(field, denom, [list(c) for c in cols])
    assert type(got) is ZLattice
    assert (got.denom, got.cols) == (expected.denom, expected.cols)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(_upper_triangular))
def test_adjugate_recurrence_is_delta_times_the_inverse(cols):
    # on the HNF of random upper-triangular columns, pivots up to 2^64:
    # the rows of X = δ·H⁻¹ against a Fraction Gauss-Jordan inverse
    h = hnf_cols(cols)
    n = len(h)
    delta, x = _adjugate_columns(h)
    assert delta == math.prod(h[i][i] for i in range(n))
    inverse = oracle_inverse([[c[i] for c in h] for i in range(n)])
    assert x == [[delta * e for e in row] for row in inverse]
    assert all(type(e) is int for row in x for e in row)


def test_one_hnf_per_dual_and_none_for_the_conductor(monkeypatch):
    # One ``hnf_cols`` (of the reversed coordinates) per dual, none for
    # (Z[b] : R): the duals come out upper triangular, and the size
    # reduction alone makes them canonical.
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    counter = CallCounter(ideals.hnf_cols)
    monkeypatch.setattr(ideals, "hnf_cols", counter)

    def calls(fn, *args):
        counter.calls = 0
        fn(*args)
        return counter.calls

    rng = random.Random(7)
    for n in (2, 3, 4):
        a = _irreducible_matrix(rng, n)
        ideal = matrix_to_ideal(a)
        vecs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n + 2)]
        assert calls(matrix_to_ideal, a) == 1
        assert calls(trace_dual, ideal) == 1
        assert calls(_dual_lattice, ideal.field, vecs) == 1
        field, lattice = _non_maximal_field(rng, n)
        for node in lattice.nodes:
            assert calls(coefficient_ring, node) == (node != zbeta(field))
            assert calls(conductor, node) == 0
        assert calls(coefficient_ring, ideal) <= 1


@pytest.mark.parametrize("vecs", [[[1, 0, 0], [2, 0, 0], [0, 1, 0]], [[0, 0, 0]], []])
def test_dual_lattice_of_a_rank_deficient_span(vecs):
    with pytest.raises(NotFullRank, match="span rank"):
        _dual_lattice(NumberField("x^3-2"), vecs)
