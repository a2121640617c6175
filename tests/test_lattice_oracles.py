"""The integer lattice path against Fraction-arithmetic oracles.

``colon``, ``coefficient_ring``, ``ideal_to_matrix``, ``trace_dual``,
``order_discriminant`` and ``FieldElement.norm`` run on the integer
kernels; the oracles in util redo each in Fraction arithmetic by a
different route (a dual row lattice for the colon, a basis solve for
the beta action, the Gauss-Jordan inverse of the trace Gram matrix of
field products, the trace Gram determinant, the determinant of the
rational multiplication matrix).  The dual lattice under the dot
product, which ``colon``, ``intersect`` and the rings of the b-action
share, is checked against the Faddeev-LeVerrier inverse.  Inputs are seeded: ideals of random
irreducible matrices, random lattices with denominators, and every
node of the order lattices of random fields, n = 2..4.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftorus.errors import NonIntegralResult, NotASublattice, NotFullRank
from bftorus.ideals import (
    Order,
    ZLattice,
    _dual_lattice,
    _trace_dual_lattice,
    coefficient_ring,
    colon,
    lattice_from_generators,
    trace_dual,
    zbeta,
    zbeta_colon,
)
from bftorus.invariants import ideal_to_matrix, matrix_to_ideal
from bftorus.numberfield import NumberField
from bftorus.orders import enumerate_order_lattice, order_discriminant
from bftorus.polyring import IntPoly, discriminant, square_part

from util import (
    P_CUBIC,
    P_QUAD,
    oracle_char_poly,
    oracle_colon,
    oracle_dual_lattice,
    oracle_ideal_to_matrix,
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
    for lattice in lattices:
        assert zbeta_colon(lattice) == colon(zbeta(lattice.field), lattice)
    with pytest.raises(NotASublattice):
        zbeta_colon(_lattice_with_denominator(rng, field, False))


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
    assert z.norm() == oracle_norm(z)



@settings(max_examples=60, deadline=None)
@given(SEEDS, DEGREES, st.integers(0, 3), st.integers(1, 6), st.booleans())
def test_dual_lattice_against_faddeev_leverrier(seed, n, extra, scale, deficient):
    # n + extra generators; ``deficient`` draws them from a hyperplane
    rng = random.Random(seed)
    field = _random_field(rng, n)
    basis = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n - deficient)]
    combos = [[rng.randint(-3, 3) for _ in basis] for _ in range(n + extra)]
    vecs = [[sum(c * b[r] for c, b in zip(cs, basis)) for r in range(n)] for cs in combos]
    try:
        expected = oracle_dual_lattice(field, vecs, scale)
    except (NotFullRank, ValueError):  # the span has rank below n
        with pytest.raises(NotFullRank, match="span rank"):
            _dual_lattice(field, vecs, scale)
        return
    assert not deficient
    assert _dual_lattice(field, vecs, scale) == expected


@pytest.mark.parametrize("vecs", [[[1, 0, 0], [2, 0, 0], [0, 1, 0]], [[0, 0, 0]], []])
def test_dual_lattice_of_a_rank_deficient_span(vecs):
    with pytest.raises(NotFullRank, match="span rank"):
        _dual_lattice(NumberField("x^3-2"), vecs)
