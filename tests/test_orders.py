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
out of the walk's reach check the time it takes.  The tops that
``_index_primes`` hands each prime, from Ore's basis or by Round 2 up
to the index bound, are checked against the fixed point from Z[b]
(``util.oracle_local_maximal``), where p mod ℓ has one repeated factor
x - a and where its repeated part has degree 2, and the walk over
minimal over-orders, with its covers, against the walk over every
element and pairwise joins (``util.oracle_local_orders``) and the
containment oracle (``util.oracle_hasse_edges``).  The kernels mod ℓ
by elimination over F_ℓ are checked against the Smith-form kernel
(``util.kernel_mod_m``).  Ore's basis, where p is ℓ-regular or its
count reaches v_ℓ(F), is checked against the fixed point from Z[b] and
against the quotients of ``util.oracle_ore_quotients``, which lie in
O_ℓ at irregular primes too; Round 2's seed O₁ at the other irregular
primes against the first Round 2 step from Z[b] and against Dedekind's
order from the route that forms every polynomial
(``util.oracle_dedekind``).  Guard tests count the radicals, Round 2
runs, rings R[g], Hermite forms and duals that the lattice forms.
"""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bftorus.config as config
import bftorus.ideals as ideals
import bftorus.kernels as kernels
import bftorus.orders as orders
import bftorus.polyring as polyring
from bftorus.errors import BudgetExceeded
from bftorus.ideals import (
    FractionalIdeal,
    Order,
    ZLattice,
    coefficient_ring,
    colon,
    lattice_from_generators,
    zbeta,
)
from bftorus.numberfield import NumberField
from bftorus.orders import (
    _index_primes,
    _kernel_mod_prime,
    _local_maximal,
    _local_orders,
    _ore_order,
    _radical,
    conductor,
    enumerate_order_lattice,
    maximal_order,
    non_invertible_primes,
    order_discriminant,
)
from bftorus.polyring import (
    IntPoly, discriminant, factorint, is_irreducible, square_part,
)

from util import (
    CallCounter,
    count_validations,
    J7_COLS,
    NON_GORENSTEIN_FIELDS,
    P_CUBIC,
    P_QUAD,
    _oracle_contains,
    _poly_mul,
    kernel_mod_m,
    oracle_dedekind,
    oracle_hasse_edges,
    oracle_local_maximal,
    oracle_local_orders,
    oracle_order_lattice,
    oracle_ore_quotients,
    oracle_repeated_part,
)

# b = 2^12·sqrt(3): O_2/Z[b] is cyclic of order 2^12, so the orders form
# a chain of 13, each covered by one ring.
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


def _valuations(field):
    """{ℓ: v_ℓ(F)} for disc(p) = F²·Δ, Δ square-free."""
    return factorint(square_part(field.disc)[0])


def _repeated_root(p, ell):
    """a when gcd(t, h) = x - a mod ℓ, the one repeated factor, else None."""
    repeated = oracle_repeated_part(p.coeffs, ell)
    return -repeated[0] % ell if len(repeated) == 2 else None


def _dedekind_order(field, ell):
    """Z[b] + (U(b)/ℓ)·Z[b] for U = ``util.oracle_dedekind``, lifted."""
    u = oracle_dedekind(field.p, ell)
    gen = field.element([Fraction(c, ell) for c in u] + [0] * (field.n - len(u)))
    return lattice_from_generators(field, [field.one(), gen], module_closure=True)


@settings(max_examples=60, deadline=None)
@given(monic_fields())
@example(NumberField(HIGH_INDEX_FIELDS[0]))
@example(NumberField(HIGH_INDEX_FIELDS[1]))
@example(NumberField(HIGH_INDEX_FIELDS[2]))
@example(NumberField(HIGH_INDEX_FIELDS[3]))
@example(NumberField("x^3+19x^2+29x+1"))  # Ore's top at 5, irregular, by the index bound
def test_round2_from_the_dedekind_order_reaches_the_fixed_point(field):
    # every ℓ | F: the top _index_primes hands ℓ, Z[b] where it hands none;
    # Round 2 up to ℓ^v_ℓ(F) from Z[b], whose first step is Dedekind's
    # order, and from the seed of _ore_order where that is no top
    tops = dict(_index_primes(field))
    zb = zbeta(field)
    for ell, v in _valuations(field).items():
        top = oracle_local_maximal(field, ell)
        assert tops.get(ell, zb) == top
        assert _local_maximal(zb, ell, v) == top
        a = _repeated_root(field.p, ell)
        if a is not None:
            seed, done = _ore_order(field, ell, a, v)
            assert (seed if done else _local_maximal(seed, ell, v)) == top


# b = 9·(2·3^2)^(1/3): 3-regular, a side of slope -8/3, index 3^7
ORE_REGULAR = f"x^3-{2 * 3**8}"


@st.composite
def ore_fields(draw):
    """Fields of p = (x - a)^e·g + Σ_(k<e) ℓ^(s_k)·c_k·(x - a)^k of degree
    2-5, ℓ = 2, 3, 5, 0 ≤ a < ℓ, g monic: t_k = ℓ^(s_k)·c_k for k < e, so
    the Newton polygon of p(x + a) at ℓ has sides of every slope."""
    n = draw(st.integers(2, 5))
    ell = draw(st.sampled_from((2, 3, 5)))
    a = draw(st.integers(0, ell - 1))
    e = draw(st.integers(2, n))
    t = [ell ** draw(st.integers(1, 5)) * draw(st.integers(-3, 3)) for _ in range(e)]
    t += draw(st.lists(st.integers(-3, 3), min_size=n - e, max_size=n - e)) + [1]  # g(x + a)
    coeffs = [sum(c * math.comb(k, i) * (-a) ** (k - i) for k, c in enumerate(t) if k >= i)
              for i in range(n + 1)]  # p(x) = Σ t_k·(x - a)^k
    p = IntPoly(coeffs)
    assume(coeffs[0] != 0 and is_irreducible(p))
    return NumberField(p)


@settings(max_examples=60, deadline=None)
@given(ore_fields())
@example(NumberField(HIGH_INDEX_FIELDS[0]))
@example(NumberField(HIGH_INDEX_FIELDS[1]))
@example(NumberField(HIGH_INDEX_FIELDS[2]))
@example(NumberField(HIGH_INDEX_FIELDS[3]))
@example(NumberField(ORE_REGULAR))
@example(NumberField("x^3-23x^2+7x-1"))
@example(NumberField("x^3-14x^2+29x-1"))
@example(NumberField("x^4-48"))
def test_ore_index_is_the_local_index(field):
    # where _ore_order hands a top it is O_ℓ, with the oracle's quotients;
    # at every prime the quotients q_j(b)/ℓ^⌊N(j)⌋ lie in O_ℓ
    n = field.n
    for ell, v in _valuations(field).items():
        a = _repeated_root(field.p, ell)
        if a is None:
            continue
        top = oracle_local_maximal(field, ell)
        quotients = oracle_ore_quotients(field.p, ell, a)
        scale = ell ** max(f for _, f in quotients)
        span = ZLattice(field, scale, [[scale * (r == i) for r in range(n)] for i in range(n)] + [
            [c * scale // ell**f for c in q] + [0] * (n - len(q)) for q, f in quotients])
        assert _oracle_contains(top, span)
        ore, done = _ore_order(field, ell, a, v)
        if done:
            assert ore == span == top
    if str(field.p) == ORE_REGULAR:
        assert zbeta(field).index_in(_ore_order(field, 3, 0, _valuations(field)[3])[0]) == 3**7


@settings(max_examples=60, deadline=None)
@given(ore_fields())
@example(NumberField(HIGH_INDEX_FIELDS[0]))
@example(NumberField(HIGH_INDEX_FIELDS[2]))
@example(NumberField(HIGH_INDEX_FIELDS[3]))
@example(NumberField("x^3-23x^2+7x-1"))
@example(NumberField("x^3-14x^2+29x-1"))
@example(NumberField("x^4-48"))
def test_dedekind_order_is_an_order_of_index_ell_to_the_gcd_degree(field):
    # wherever _ore_order hands no top, its seed O₁ = Z[b] + Z·q_1(b)/ℓ is
    # an order of index ℓ, as gcd(f, t, h) = x - a, the first Round 2
    # step from Z[b] and Dedekind's order from every polynomial formed
    zb = zbeta(field)
    for ell, v in _valuations(field).items():
        a = _repeated_root(field.p, ell)
        if a is None:
            continue
        seed, done = _ore_order(field, ell, a, v)
        if done:
            continue
        # the Order constructor re-runs the b-action and ring-closure checks
        assert Order(field, seed.denom, seed.cols) == seed
        assert zb.index_in(seed) == ell
        rad = _radical(zb, ell)
        assert colon(rad, rad) == seed == _dedekind_order(field, ell)


def test_debug_check_catches_round2_stopped_short(monkeypatch):
    field = NumberField(CYCLIC_4096)  # (y+1)^2 at 2, irregular: Round 2 runs
    [(ell, top)] = _index_primes(field)
    assert top == oracle_local_maximal(field, ell)
    seed, done = _ore_order(field, ell, _repeated_root(field.p, ell), _valuations(field)[ell])
    assert not done
    round2 = orders._local_maximal
    # v = 0 claims the seed already has the largest index
    monkeypatch.setattr(orders, "_local_maximal", lambda order, ell, v: round2(order, ell, 0))
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    assert _index_primes(field) == [(ell, seed)]
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
    with pytest.raises(AssertionError, match="one more Round 2 step"):
        _index_primes(field)


@pytest.mark.parametrize("poly, ell, index", [
    ("x^3-23x^2+7x-1", 2, 2**4),  # (y+1)^2; the polygon counts 3
    ("x^3-14x^2+29x-1", 3, 3**2),  # y^2+y+1 = (y-1)^2 mod 3; counts 1
    ("x^4-48", 2, 2**6),  # y^4+1 = (y+1)^4 mod 2; counts 6, by chance exact
])
def test_ore_index_refuses_irregular_polygons(poly, ell, index):
    # a residual polynomial with a repeated root leaves the count a lower
    # bound only, so below v_ℓ(F) no basis may come from it: Round 2 runs
    # from a seed of index ℓ that is no top
    field = NumberField(poly)
    top = oracle_local_maximal(field, ell)
    assert zbeta(field).index_in(top) == index
    seed, done = _ore_order(field, ell, _repeated_root(field.p, ell), _valuations(field)[ell])
    assert not done
    assert zbeta(field).index_in(seed) == ell and seed != top


def test_ore_basis_needs_no_hermite_form(monkeypatch):
    # Ore's basis and the seed O₁ are upper triangular with positive
    # pivots, so ``Order._canonical`` only size-reduces them
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    counter = CallCounter(ideals.hnf_cols)
    monkeypatch.setattr(ideals, "hnf_cols", counter)
    for poly, ell, a, index, top in [(ORE_REGULAR, 3, 0, 3**7, True), ("x^5-48", 2, 0, 2**6, True),
                                     ("x^3-19x^2+3x-1", 2, 1, 2**3, True),
                                     ("x^3-23x^2+7x-1", 2, 1, 2, False)]:
        field = NumberField(poly)
        order, done = _ore_order(field, ell, a, _valuations(field)[ell])
        assert (zbeta(field).index_in(order), done) == (index, top)
    assert counter.calls == 0


@pytest.mark.parametrize("poly, radical, adjoin, local_maximal", [
    ("x^3-21x^2-3x-1", 0, 0, 0),  # Ore's index is 0
    ("x^3-19x^2+3x-1", 0, 4, 0),
    (ORE_REGULAR, 0, 27, 0),
    ("x^3-23x^2+7x-1", 2, 8, 1),  # irregular at 2: Round 2 runs
    # irregular at 5, (y+2)^2 mod 5, yet the count 1 is v_5(F): Ore's
    # basis is O_5 by the index bound
    ("x^3+19x^2+29x+1", 0, 0, 0),
])
def test_round2_and_the_walk_form_no_ring_whose_answer_is_known(monkeypatch, poly, radical,
                                                                adjoin, local_maximal):
    # Ore's basis is O_ℓ where p is ℓ-regular or its count reaches v_ℓ(F),
    # with no Round 2, and lines with some ℓ·g^j ∉ R form no ring R[g];
    # 1, 6 and 5, 48 at the bound v_ℓ(F) and with every line formed
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    counters = {name: CallCounter(getattr(orders, name))
                for name in ("_radical", "_adjoin", "_local_maximal")}
    for name, counter in counters.items():
        monkeypatch.setattr(orders, name, counter)
    enumerate_order_lattice(NumberField(poly))
    assert [c.calls for c in counters.values()] == [radical, adjoin, local_maximal]


def test_debug_check_catches_an_ore_basis_below_o_ell(monkeypatch):
    field = NumberField(ORE_REGULAR)  # Eisenstein at 2, Ore's index 0 there
    [(ell, top)] = _index_primes(field)
    rad = _radical(zbeta(field), ell)
    short = colon(rad, rad)  # the first Round 2 step
    assert zbeta(field).index_in(short) < zbeta(field).index_in(top)
    ore = orders._ore_order
    for wrong in (short, zbeta(field)):  # an order below O_ℓ, and Ore's index 0
        monkeypatch.setattr(orders, "_ore_order", lambda f, l, a, v: (
            (wrong, True) if l == ell else ore(f, l, a, v)))
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
        assert _index_primes(field) == ([(ell, wrong)] if wrong != zbeta(field) else [])
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
        with pytest.raises(AssertionError, match="one more Round 2 step"):
            _index_primes(field)


# (ℓ, g) for the monic quadratics g, irreducible mod ℓ, coefficients in [0, ℓ)
IRREDUCIBLE_QUADRATICS = [(ell, [c, b, 1]) for ell in (2, 3, 5)
                          for b in range(ell) for c in range(ell)
                          if all((c + b * x + x * x) % ell for x in range(ell))]


@st.composite
def square_factor_fields(draw):
    """Fields of p = g^e·h + ℓ^s·r of degree 4-6, ℓ = 2, 3, 5, g monic and
    irreducible of degree 2 mod ℓ, e ≥ 2, h monic, deg r < deg p: the
    repeated part of p mod ℓ is g, of degree 2, where Round 2 runs from
    Z[b]."""
    ell, g = draw(st.sampled_from(IRREDUCIBLE_QUADRATICS))
    n = draw(st.integers(4, 6))
    e = draw(st.integers(2, n // 2))
    base = draw(st.lists(st.integers(-3, 3), min_size=n - 2 * e, max_size=n - 2 * e)) + [1]
    for _ in range(e):
        base = _poly_mul(base, g)
    s = draw(st.integers(1, 3))
    r = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    p = IntPoly([c + ell**s * x for c, x in zip(base, r)] + [1])
    assume(p.coeffs[0] != 0 and is_irreducible(p))
    return NumberField(p)


@settings(max_examples=40, deadline=None)
@given(square_factor_fields())
@example(NumberField("x^4+2x^3+3x^2+2x+9"))  # (x^2+x+1)^2 mod 2, Z[b] not 2-maximal
@example(NumberField("x^4-2x^2-32"))  # (x^2+1)^2 mod 3 and 11, Z[b] 3- and 11-maximal
def test_square_repeated_factors_reach_the_fixed_point(field):
    tops = dict(_index_primes(field))
    for ell in _valuations(field):
        assert tops.get(ell, zbeta(field)) == oracle_local_maximal(field, ell)
    if str(field.p) == "x^4+2x^3+3x^2+2x+9":
        assert len(oracle_repeated_part(field.p.coeffs, 2)) == 3 and 2 in tops
    if str(field.p) == "x^4-2x^2-32":
        assert [len(oracle_repeated_part(field.p.coeffs, ell)) for ell in (3, 11)] == [3, 3]
        assert not {3, 11} & set(tops)


def test_square_repeated_factor_at_a_large_prime_within_half_a_second():
    # (x^2+1)^2 mod ℓ = 1000003, where x^2+1 is irreducible: Round 2
    # runs from Z[b] at ℓ
    ell = 1000003
    start = time.perf_counter()
    field = NumberField(f"x^4+2x^2+{ell**2}x+1")
    top = maximal_order(field)
    elapsed = time.perf_counter() - start
    assert len(oracle_repeated_part(field.p.coeffs, ell)) == 3
    assert zbeta(field).index_in(top) == ell**2  # F = ℓ^2
    assert elapsed < 0.5


def test_conductor_of_zbeta_forms_no_dual(monkeypatch, K3):
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    counter = CallCounter(ideals._adjugate_columns)
    monkeypatch.setattr(ideals, "_adjugate_columns", counter)
    assert conductor(zbeta(K3)) == zbeta(K3)
    assert counter.calls == 0


def test_large_index_prime_within_half_a_second():
    # b = 1000003^(4/3)·2^(1/3): Ore's index at ℓ = 1000003 is ℓ^3, read
    # with a = 0 off gcd(t, h); a search over the residues mod ℓ would not
    # finish in time
    ell = 1000003
    start = time.perf_counter()
    field = NumberField(f"x^3-{2 * ell**4}")
    top = maximal_order(field)
    elapsed = time.perf_counter() - start
    assert zbeta(field).index_in(top) == 3 * ell**3  # and 3 at ℓ = 3
    assert elapsed < 0.5


@settings(max_examples=60, deadline=None)
@given(small_index_fields())
@example(NumberField("x^3+12x^2-15x+18"))  # F = 12, index 12
@example(NumberField("x^4-3x^3+5x^2+10x-4"))  # F = 6, index 6
@example(NumberField("x^4-4x^3-2x^2+12x+1"))  # O_2/Z[b] of order 2^8
# local orders that are no Z[b][g], only joins of two
@example(NumberField("x^4-112x^3+14x^2-60x+128"))
@example(NumberField("x^4+6x^3+16x^2-96x-16"))
@example(NumberField(f"x^3-{2 * 3**8}"))  # 14 local orders at 3
def test_local_orders_match_the_per_element_walk(field):
    zb = zbeta(field)
    for ell, top in _index_primes(field):
        got, ups, index = _local_orders(top, ell)
        assert got[:2] == [zb, top]
        assert len(set(got)) == len(got)
        assert set(got) == oracle_local_orders(top)
        assert index == [zb.index_in(r) for r in got]
        assert sorted((i, j) for i, up in enumerate(ups) for j in up) == oracle_hasse_edges(got)


@st.composite
def multi_prime_cubics(draw):
    """p(x) = m³·g(x/m) for a monic cubic g with small coefficients, so
    b = m·γ with g(γ) = 0, and Z[b] has index m³ in Z[γ]: each prime of
    m = 2^i·3^j·5^k divides the index, and F, a multiple of m³, is
    beyond the transversal walk."""
    m = draw(st.sampled_from((6, 10, 12, 15, 18, 20, 30)))
    g = draw(st.lists(st.integers(-6, 6), min_size=3, max_size=3))
    p = IntPoly([g[0] * m**3, g[1] * m**2, g[2] * m, 1])
    assume(g[0] != 0 and is_irreducible(p))
    return NumberField(p)


@settings(max_examples=20, deadline=None)
@given(multi_prime_cubics())
@example(NumberField("x^4+126x^3-168x^2-198x-81"))  # 6 × 9 local orders
@example(NumberField("x^3-144x^2-84x-16"))
def test_product_poset_covers_match_the_containment_oracle(field):
    lat = enumerate_order_lattice(field)
    assert len(_index_primes(field)) >= 2
    assert lat.edges == oracle_hasse_edges(lat.nodes)
    indices = [zbeta(field).index_in(r) for r in lat.nodes]
    assert (lat.min_index, lat.max_index) == (min(indices), max(indices)) == (1, indices[-1])


def test_debug_check_catches_a_dropped_local_cover(monkeypatch, K2):
    walk = orders._local_orders

    def drop_one_cover(top, ell):
        found, ups, index = walk(top, ell)
        ups[0].pop()  # Z[b] loses one of its covers
        return found, ups, index

    edges = enumerate_order_lattice(K2).edges
    monkeypatch.setattr(orders, "_local_orders", drop_one_cover)
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    assert enumerate_order_lattice(K2).edges != edges
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
    with pytest.raises(AssertionError, match="reduction of containment"):
        enumerate_order_lattice(K2)


def test_degree_one_field_has_one_order_of_discriminant_one():
    field = NumberField("x-3")
    lat = enumerate_order_lattice(field)
    assert lat.nodes == [zbeta(field)]
    assert order_discriminant(lat.nodes[0]) == 1  # det[[Tr 1]]


def test_local_walk_budget(monkeypatch):
    # x^2-3·4^21: a chain of 22 orders, one ring per order below the top
    lat = enumerate_order_lattice(NumberField(f"x^2-{3 * 4**21}"))
    assert len(lat.nodes) == 22
    # b = 211·2^(1/4): O_211/Z[b] is Z/211 + Z/211^2 + Z/211^3, whose
    # 211-torsion has 1 + 211 + 211^2 = 44,733 lines at Z[b] alone
    formed = []
    monkeypatch.setattr(orders, "_adjoin", lambda *args: formed.append(args))
    with pytest.raises(BudgetExceeded, match="44733 lines"):
        enumerate_order_lattice(NumberField(f"x^4-{2 * 211**4}"))
    assert formed == []
    monkeypatch.undo()
    # the budget counts the lines of every order the walk visits
    field = NumberField(CYCLIC_4096)
    monkeypatch.setattr(orders, "LOCAL_ORDERS_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match="11 lines"):
        enumerate_order_lattice(field)
    monkeypatch.setattr(orders, "LOCAL_ORDERS_BUDGET", 11)
    assert len(enumerate_order_lattice(field).nodes) == 13


def test_index_two_to_the_forty_is_a_chain_of_41_orders():
    # beyond the element walk: O_2/Z[b] is cyclic of order 2^40
    field = NumberField(f"x^2-{3 * 4**40}")
    lat = enumerate_order_lattice(field)
    assert [zbeta(field).index_in(r) for r in lat.nodes] == [2**k for k in range(41)]
    assert lat.edges == [(k, k + 1) for k in range(40)]


def test_debug_check_catches_a_second_maximal_node(monkeypatch, K3):
    walk = orders._local_orders

    def cut_the_top(top, ell):
        found, _, index = walk(top, ell)
        # K3's local orders at 2 have indices 1, 2, 4, 4, 8, 16: cut above
        # 4, leaving the two orders of index 4 maximal (covers dropped)
        keep = [i for i in range(len(found)) if index[i] <= 4]
        return [found[i] for i in keep], [set() for _ in keep], [index[i] for i in keep]

    monkeypatch.setattr(orders, "_local_orders", cut_the_top)
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    assert [zbeta(K3).index_in(r) for r in enumerate_order_lattice(K3).nodes] == [1, 2, 4, 4]
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
    with pytest.raises(AssertionError, match="no unique maximal node"):
        enumerate_order_lattice(K3)


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


@st.composite
def matrices_mod_prime(draw):
    """(A, ℓ): an n×n integer matrix, n = 1..6, that is zero, of full rank
    mod ℓ, or of rank r < n mod ℓ as a product of n×r and r×n factors."""
    ell = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("zero", "full", "deficient")))
    if kind == "zero":
        return [[ell * draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)], ell
    entries = st.integers(-2 * ell, 2 * ell)
    if kind == "full":
        a = [[draw(entries) for _ in range(n)] for _ in range(n)]
        assume(len(kernel_mod_m(a, ell)) == 0)
        return a, ell
    r = draw(st.integers(0, n - 1))
    left = [[draw(entries) for _ in range(r)] for _ in range(n)]
    right = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return [[sum(x * right[k][j] for k, x in enumerate(row)) for j in range(n)] for row in left], ell


@settings(max_examples=150, deadline=None)
@given(matrices_mod_prime())
@example(([[0]], 2))
@example(([[1, 2], [2, 4]], 5))
def test_kernel_mod_prime_against_the_smith_oracle(case):
    a, ell = case
    n = len(a)
    basis = _kernel_mod_prime(a, ell)
    assert len(basis) == len(kernel_mod_m(a, ell))
    for vec in basis:
        assert len(vec) == n and all(0 <= e < ell for e in vec)
        assert all(sum(x * y for x, y in zip(row, vec)) % ell == 0 for row in a)
    # independent mod ℓ: the matrix with the basis as its first columns
    # has rank len(basis), so a kernel of dimension n - len(basis)
    padded = [[vec[i] for vec in basis] + [0] * (n - len(basis)) for i in range(n)]
    assert len(kernel_mod_m(padded, ell)) == n - len(basis)


def _seeded_cubics(count):
    """Irreducible cubics with F <= 64, disc(p) = F²·Δ, at least one of
    whose primes ℓ leaves Z[b] below the ℓ-maximal order."""
    rng = random.Random(0xBF21)
    found = []
    while len(found) < count:
        p = IntPoly([rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(-20, 20),
                     rng.randint(-9, 9), 1])
        if not is_irreducible(p):
            continue
        big_f = square_part(discriminant(p))[0]
        if big_f <= 64 and any(len(oracle_dedekind(p, ell)) <= 3 for ell in factorint(big_f)):
            found.append(str(p))
    return found


@pytest.mark.parametrize("poly", ["x^4-2x^2-32", "x^4-72", "x^5-48"])
def test_lattice_and_maximal_order_skip_revalidation(monkeypatch, poly):
    # Ore's bases, Round 2's radicals and rings, the rings R[g] of the walk
    # and the sums of local orders are formed by ``_canonical``: no
    # b-action or ring-closure check of a constructor runs
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    field = NumberField(poly)
    calls = count_validations(monkeypatch)
    lat = enumerate_order_lattice(field)
    top = maximal_order(field)
    assert calls == []
    assert len(lat.nodes) > 2 and top == lat.nodes[-1]
    assert all(type(r) is Order for r in lat.nodes + [top])


@pytest.mark.parametrize("poly", NON_GORENSTEIN_FIELDS + tuple(_seeded_cubics(6)))
def test_lattice_forms_no_smith_form_and_one_discriminant(monkeypatch, poly):
    # Every kernel mod ℓ is an elimination over F_ℓ, and disc(p) = det G
    # is computed once per field from its one trace Gram matrix G: when a
    # quartic is built, when a cubic first reads it.  The lattice factors
    # disc(p) once, with no square_part, and every Z[b] it holds is the
    # field's one zbeta.
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    expected = discriminant(polyring.parse_int_poly(poly))
    counters = {"snf_rows": CallCounter(kernels.snf_rows),
                "_trace_gram": CallCounter(polyring._trace_gram),
                "factorint": CallCounter(polyring.factorint),
                "square_part": CallCounter(polyring.square_part)}
    # every binding of these names in the package, as the imports copy them
    for module in [m for name, m in sys.modules.items() if name.startswith("bftorus")]:
        for name, counter in counters.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counter)
    field = NumberField(poly)
    assert counters["_trace_gram"].calls == (field.n >= 4)
    assert field.disc == expected
    assert counters["_trace_gram"].calls == 1
    for counter in counters.values():
        counter.calls = 0
    lat = enumerate_order_lattice(field)
    assert len(lat.nodes) > 1 and lat.nodes[0] is zbeta(field)
    for node in lat.nodes:
        conductor(node)
        order_discriminant(node)
    assert {name: c.calls for name, c in counters.items()} == {
        "snf_rows": 0, "_trace_gram": 0, "factorint": 1, "square_part": 0}
    zb_conductor = conductor(zbeta(field))
    assert type(zb_conductor) is FractionalIdeal and zb_conductor == zbeta(field)
