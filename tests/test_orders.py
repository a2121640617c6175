"""Enumerating every order between Z[b] and the maximal order.

Two worked examples anchor the expectations:

* p = x^2 - 34x + 1 (disc 1152 = 24^2 * 2): six orders, one for each
  divisor k of 12, namely Z + Z*(k/12)(b - 17), with Z[b] at the bottom
  covered by two nodes.
* p = x^3 - 23x^2 + 7x - 1 (disc -21248 = -16^2 * 83): six orders again
  but a different shape — a diamond in the middle and a single cover of
  Z[b].

The transversal walk of ``util.oracle_order_lattice`` checks the
prime-by-prime enumeration on random fields of small F, and two fields
out of the walk's reach check the time it takes.  Round 2 from
Dedekind's order up to the index bound is checked against the fixed
point from Z[b] (``util.oracle_local_maximal``), and the walk over
cyclic subgroups against the walk over every element
(``util.oracle_local_orders``).
"""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bftorus.config as config
import bftorus.ideals as ideals
import bftorus.orders as orders
from bftorus.errors import BudgetExceeded
from bftorus.ideals import (
    Order,
    ZLattice,
    coefficient_ring,
    colon,
    lattice_from_generators,
    zbeta,
)
from bftorus.numberfield import NumberField
from bftorus.orders import (
    _dedekind_order,
    _index_primes,
    _local_maximal,
    _local_orders,
    _radical,
    conductor,
    enumerate_order_lattice,
    maximal_order,
    non_invertible_primes,
    order_discriminant,
)
from bftorus.polyring import IntPoly, discriminant, factorint, is_irreducible, square_part

from util import (
    J7_COLS,
    P_CUBIC,
    P_QUAD,
    oracle_local_maximal,
    oracle_local_orders,
    oracle_order_lattice,
)

# b = 2^12·sqrt(3): O_2/Z[b] is cyclic of order 2^12, so its 4,096
# elements make 13 cyclic subgroups and the orders form a chain.
CYCLIC_4096 = f"x^2-{3 * 4**12}"


@pytest.fixture(scope="module")
def K2():
    return NumberField(IntPoly(P_QUAD))


@pytest.fixture(scope="module")
def K3():
    return NumberField(IntPoly(P_CUBIC))


class TestQuadraticExample:
    def test_six_nodes_sorted_by_index(self, K2):
        lat = enumerate_order_lattice(K2)
        zb = zbeta(K2)
        assert [zb.index_in(node) for node in lat.nodes] == [1, 2, 3, 4, 6, 12]
        assert lat.min_index == 1
        assert lat.max_index == 12

    def test_nodes_are_the_expected_lattices(self, K2):
        # the order of index 12/k over Z[b] is Z + Z*(k/12)(b - 17)
        lat = enumerate_order_lattice(K2)
        zb = zbeta(K2)
        by_index = {zb.index_in(node): node for node in lat.nodes}
        for k in (1, 2, 3, 4, 6, 12):
            gen = (K2.beta() - 17) * Fraction(k, 12)
            expected = lattice_from_generators(K2, [K2.one(), gen])
            node = by_index[12 // k]
            assert ZLattice(K2, node.denom, node.cols) == expected

    def test_covering_relations(self, K2):
        lat = enumerate_order_lattice(K2)
        assert lat.edges == [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
        # Z[b] sits at the bottom with exactly two covers
        assert sum(1 for a, _ in lat.edges if a == 0) == 2

    def test_maximal_order(self, K2):
        mo = maximal_order(K2)
        lat = enumerate_order_lattice(K2)
        assert mo == lat.nodes[-1]
        assert [str(e) for e in mo.basis_elements()] == ["1", "(1/12)b+(7/12)"]

    def test_discriminants(self, K2):
        zb = zbeta(K2)
        assert order_discriminant(zb) == 1152
        assert order_discriminant(maximal_order(K2)) == 8
        # disc(p) = [O_K : Z[b]]^2 * disc(O_K)
        assert 12**2 * 8 == 1152


class TestCubicExample:
    def test_six_nodes_sorted_by_index(self, K3):
        lat = enumerate_order_lattice(K3)
        zb = zbeta(K3)
        assert [zb.index_in(node) for node in lat.nodes] == [1, 2, 4, 4, 8, 16]

    def test_node_bases(self, K3):
        lat = enumerate_order_lattice(K3)
        got = [[str(e) for e in node.basis_elements()] for node in lat.nodes]
        assert got == [
            ["1", "b", "b^2"],
            ["1", "b", "(1/2)b^2+(1/2)"],
            ["1", "b", "(1/4)b^2+(1/2)b+(1/4)"],
            ["1", "b", "(1/4)b^2+(3/4)"],
            ["1", "(1/2)b+(1/2)", "(1/4)b^2+(3/4)"],
            ["1", "(1/2)b+(1/2)", "(1/8)b^2+(7/8)"],
        ]

    def test_diamond_with_single_bottom_cover(self, K3):
        lat = enumerate_order_lattice(K3)
        assert lat.edges == [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
        assert sum(1 for a, _ in lat.edges if a == 0) == 1

    def test_discriminants(self, K3):
        assert order_discriminant(zbeta(K3)) == -21248
        assert order_discriminant(maximal_order(K3)) == -83
        assert 16**2 * 83 == 21248

    def test_edges_are_real_covers(self, K3):
        lat = enumerate_order_lattice(K3)
        for a, b in lat.edges:
            sub, sup = lat.nodes[a], lat.nodes[b]
            assert sup.contains_lattice(sub)
            assert sub != sup
            # nothing strictly between
            for c, node in enumerate(lat.nodes):
                if c in (a, b):
                    continue
                between = node.contains_lattice(sub) and sup.contains_lattice(node)
                assert not (between and node != sub and node != sup)


class TestConductor:
    def test_of_zbeta_is_zbeta(self, K3):
        zb = zbeta(K3)
        assert conductor(zb) == zb.as_ideal()

    @pytest.mark.parametrize("which", ["quadratic", "cubic"])
    def test_coefficient_ring_recovers_the_order(self, which, K2, K3):
        field = K2 if which == "quadratic" else K3
        for node in enumerate_order_lattice(field).nodes:
            c = conductor(node)
            assert coefficient_ring(c) == node


class TestNonInvertiblePrimes:
    def test_cubic_has_exactly_the_known_prime(self, K3):
        primes = non_invertible_primes(K3)
        assert len(primes) == 1
        assert ZLattice(K3, primes[0].denom, primes[0].cols) == ZLattice(
            K3, 1, J7_COLS
        )

    def test_quadratic_has_two(self, K2):
        primes = non_invertible_primes(K2)
        got = sorted([str(e) for e in q.basis_elements()] for q in primes)
        assert got == [["2", "b+1"], ["3", "b+1"]]

    def test_maximal_zbeta_has_none(self):
        K = NumberField("x^2 - x - 1")  # disc 5, square-free
        assert non_invertible_primes(K) == []


def test_square_free_discriminant_collapses_the_lattice():
    K = NumberField("x^2 - x - 1")
    lat = enumerate_order_lattice(K)
    assert len(lat.nodes) == 1
    assert lat.edges == []
    assert lat.nodes[0] == zbeta(K)
    assert maximal_order(K) == zbeta(K)


def test_quadratic_lattice_matches_divisors_of_the_conductor(rng):
    # for n = 2 the order lattice is isomorphic to the divisor lattice
    # of [O_K : Z[b]]: one node per divisor, edges where the quotient is
    # prime
    seen = 0
    while seen < 20:
        b = rng.randint(-15, 15)
        c = rng.randint(-15, 15)
        p = IntPoly([c, b, 1])
        if not is_irreducible(p):
            continue
        seen += 1
        K = NumberField(p)
        lat = enumerate_order_lattice(K)
        zb = zbeta(K)
        indexes = [zb.index_in(node) for node in lat.nodes]
        f = lat.max_index
        divisors = sorted(d for d in range(1, f + 1) if f % d == 0)
        assert indexes == divisors
        expected_edges = sorted(
            (i, j)
            for i, di in enumerate(indexes)
            for j, dj in enumerate(indexes)
            if dj % di == 0 and _is_prime(dj // di)
        )
        assert sorted(lat.edges) == expected_edges
        # and the discriminant bookkeeping holds along the way
        assert discriminant(p) == f * f * order_discriminant(maximal_order(K))


def _is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@st.composite
def small_index_fields(draw):
    """Quadratic and cubic fields with F <= 16, quartic ones with F <= 8,
    where disc(p) = F^2 * Delta with Delta square-free."""
    n = draw(st.sampled_from((2, 3, 4)))
    span = {2: 40, 3: 16, 4: 8}[n]
    coeffs = draw(st.lists(st.integers(-span, span), min_size=n, max_size=n))
    p = IntPoly(coeffs + [1])
    assume(coeffs[0] != 0 and is_irreducible(p))
    assume(square_part(discriminant(p))[0] <= (8 if n == 4 else 16))
    return NumberField(p)


@settings(max_examples=60, deadline=None)
@given(small_index_fields())
@example(NumberField("x^2+40x+40"))  # F = 12, index 6
@example(NumberField("x^3+12x^2-15x+18"))  # F = 12, index 12
@example(NumberField("x^3-12x^2+3x-9"))  # F = 15, index 15
@example(NumberField("x^4-3x^3+5x^2+10x-4"))  # F = 6, index 6
@example(NumberField("x^3+3x^2+6x-7"))  # F = 15, Z[b] already 3-maximal
def test_lattice_matches_the_transversal_walk(field):
    lat = enumerate_order_lattice(field)
    nodes, edges, min_index, max_index = oracle_order_lattice(field)
    assert lat.nodes == nodes
    assert lat.edges == edges
    assert (lat.min_index, lat.max_index) == (min_index, max_index)
    assert maximal_order(field) == nodes[-1]


@pytest.mark.parametrize(
    "poly, disc_zk",
    [
        ("x^3-3x^2-24x-1", 81),  # F = 3^5; the walk took 189 s
        ("x^4-4x^3-2x^2+12x+1", 2048),  # F = 2^8; about 8.7e14 candidates
    ],
)
def test_hard_fields_within_two_seconds(poly, disc_zk):
    start = time.perf_counter()
    field = NumberField(poly)
    lat = enumerate_order_lattice(field)
    top = maximal_order(field)
    elapsed = time.perf_counter() - start
    assert len(lat.nodes) == 4
    assert lat.edges == [(0, 1), (1, 2), (2, 3)]
    # the Order constructor re-runs the b-action and ring-closure checks
    assert all(Order(field, r.denom, r.cols) == r for r in lat.nodes)
    assert top == lat.nodes[-1]
    assert order_discriminant(top) == disc_zk
    assert elapsed < 2.0


@st.composite
def monic_fields(draw):
    """Fields of monic irreducible p of degree 2-5, coefficients in [-12, 12]."""
    n = draw(st.integers(2, 5))
    coeffs = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
    p = IntPoly(coeffs + [1])
    assume(coeffs[0] != 0 and is_irreducible(p))
    return NumberField(p)


HIGH_INDEX_FIELDS = ("x^3-3x^2-24x-1", "x^4-4x^3-2x^2+12x+1", CYCLIC_4096, "x^5-48")


@settings(max_examples=60, deadline=None)
@given(monic_fields())
@example(NumberField(HIGH_INDEX_FIELDS[0]))
@example(NumberField(HIGH_INDEX_FIELDS[1]))
@example(NumberField(HIGH_INDEX_FIELDS[2]))
@example(NumberField(HIGH_INDEX_FIELDS[3]))
def test_round2_from_the_dedekind_order_reaches_the_fixed_point(field):
    # every ℓ | F: the primes Dedekind's criterion clears keep O_ℓ = Z[b]
    seeded = {ell: _local_maximal(field, ell, v, u) for ell, v, u in _index_primes(field)}
    for ell in factorint(square_part(discriminant(field.p))[0]):
        assert seeded.get(ell, zbeta(field)) == oracle_local_maximal(field, ell)


@settings(max_examples=60, deadline=None)
@given(monic_fields())
@example(NumberField(HIGH_INDEX_FIELDS[0]))
@example(NumberField(HIGH_INDEX_FIELDS[1]))
@example(NumberField(HIGH_INDEX_FIELDS[3]))
def test_dedekind_order_is_an_order_of_index_ell_to_the_gcd_degree(field):
    zb = zbeta(field)
    for ell, _v, u in _index_primes(field):
        o1 = _dedekind_order(field, ell, u)
        # the Order constructor re-runs the b-action and ring-closure checks
        assert Order(field, o1.denom, o1.cols) == o1
        # deg U = n - deg gcd(f, t, h)
        assert zb.index_in(o1) == ell ** (field.n + 1 - len(u))
        rad = _radical(zb, ell)
        assert colon(rad, rad) == o1  # the first Round 2 step


def test_debug_check_catches_round2_stopped_short(monkeypatch):
    field = NumberField(CYCLIC_4096)
    [(ell, v, u)] = _index_primes(field)
    top = oracle_local_maximal(field, ell)
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    # v = 0 claims Dedekind's order already has the largest index
    assert _local_maximal(field, ell, 0, u) == _dedekind_order(field, ell, u) != top
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
    with pytest.raises(AssertionError, match="Round 2 stopped"):
        _local_maximal(field, ell, 0, u)
    assert _local_maximal(field, ell, v, u) == top


@settings(max_examples=60, deadline=None)
@given(small_index_fields())
@example(NumberField("x^3+12x^2-15x+18"))  # F = 12, index 12
@example(NumberField("x^4-3x^3+5x^2+10x-4"))  # F = 6, index 6
@example(NumberField("x^4-4x^3-2x^2+12x+1"))  # O_2/Z[b] of order 2^8
# local orders that are no Z[b][g], only joins of two
@example(NumberField("x^4-112x^3+14x^2-60x+128"))
@example(NumberField("x^4+6x^3+16x^2-96x-16"))
def test_local_orders_match_the_per_element_walk(field):
    for prime in _index_primes(field):
        top = _local_maximal(field, *prime)
        got = _local_orders(top)
        assert len(set(got)) == len(got)
        assert set(got) == oracle_local_orders(top)


def test_local_walk_budget(monkeypatch):
    # x^2-3·4^16: 65,536 elements stay within the default budget
    lat = enumerate_order_lattice(NumberField(f"x^2-{3 * 4**16}"))
    assert len(lat.nodes) == 17
    monkeypatch.setattr(orders, "LOCAL_ORDERS_BUDGET", 2**11)
    field = NumberField(CYCLIC_4096)
    with pytest.raises(BudgetExceeded, match="4096 elements"):
        enumerate_order_lattice(field)
    monkeypatch.setattr(orders, "LOCAL_ORDERS_BUDGET", 2**12)
    assert len(enumerate_order_lattice(field).nodes) == 13


def test_debug_check_catches_a_wrong_conductor(monkeypatch, K3):
    lat = enumerate_order_lattice(K3)
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
    assert [conductor(r) for r in lat.nodes] == [colon(zbeta(K3), r) for r in lat.nodes]
    monkeypatch.setattr(ideals, "colon", lambda m, n_lat: zbeta(K3))
    with pytest.raises(AssertionError, match="Euler"):
        conductor(lat.nodes[-1])


def test_cyclic_local_group_within_a_tenth_of_a_second():
    field = NumberField(CYCLIC_4096)
    start = time.perf_counter()
    lat = enumerate_order_lattice(field)
    elapsed = time.perf_counter() - start
    assert [zbeta(field).index_in(r) for r in lat.nodes] == [2**k for k in range(13)]
    assert lat.edges == [(k, k + 1) for k in range(12)]
    assert elapsed < 0.1
