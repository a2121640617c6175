"""Acceptance battery: one test per numbered criterion.

Each criterion reproduces a worked example exactly or cross-checks the
library against the independent oracles in util.py on a seeded random
corpus.  Criteria with a stated time budget assert it.  Run with -v (or
-s to see the ACCEPTANCE lines) — every criterion reports exactly one
pass/fail.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from bftorus.ideals import (
    AbelianGroup,
    FractionalIdeal,
    ZLattice,
    coefficient_ring,
    colon,
    fractional_ideal,
    is_invertible,
    lattice_from_generators,
    quotient_group,
    trace_dual,
    zbeta,
)
from bftorus.invariants import (
    bf_certify,
    bf_group,
    bf_k,
    bf_refute,
    matrix_to_ideal,
    periodic_structure,
    pi1_presentation,
    suspension_h1,
)
from bftorus.numberfield import NumberField
from bftorus.orders import enumerate_order_lattice, maximal_order, order_discriminant
from bftorus.polyring import IntPoly

from util import (
    BF48_TORSION,
    EX1_A,
    EX1_B,
    EX1_C,
    EX2_M,
    EX2_MP,
    I7_COLS,
    J7_COLS,
    enumerate_periodic_points,
    mat_mul,
    oracle_abelianization,
    oracle_char_poly,
    oracle_det,
    oracle_group,
    oracle_invariant_factors,
    oracle_irreducible,
    random_admissible_poly,
    random_similar_pair,
    random_unit_irreducible_matrix,
    subgroup_from_generators,
)

CUBIC_FIELD = "x^3 - 23*x^2 + 7*x - 1"


def _poly_at_matrix(g, a):
    """g(A) with plain integer arithmetic (oracle side)."""
    n = len(a)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    out = [[g[0] * power[i][j] for j in range(n)] for i in range(n)]
    for c in g[1:]:
        power = mat_mul(power, a)
        for i in range(n):
            for j in range(n):
                out[i][j] += c * power[i][j]
    return out


@pytest.fixture(scope="module")
def corpus():
    """100 torus automorphisms (n = 2, 3, 4 in equal measure, entries in
    [-6, 6], irreducible char poly) with 5 admissible g each."""
    rng = random.Random(0xBF)
    out = []
    for i in range(100):
        a, p = random_unit_irreducible_matrix(rng, sizes=((2,), (3,), (4,))[i % 3])
        gs = [random_admissible_poly(rng, len(a)) for _ in range(5)]
        out.append((a, p, gs))
    return out


def test_criterion_01_cubic_triple_bf_groups():
    t0 = time.perf_counter()
    assert str(bf_group(EX1_A, "x-1")) == "Z16"
    assert str(bf_group(EX1_B, "x-1")) == "Z2+Z8"
    assert str(bf_group(EX1_C, "x-1")) == "Z2+Z8"
    assert str(bf_group(EX1_B, "x+1")) == "Z2+Z16"
    assert str(bf_group(EX1_C, "x+1")) == "Z4+Z8"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE 1 PASS (%.2fs)" % elapsed)


def test_criterion_02_quartic_pair_bf48_and_distinguishing_g():
    t0 = time.perf_counter()
    assert bf_k(EX2_M, 48).torsion == BF48_TORSION
    assert bf_k(EX2_MP, 48).torsion == BF48_TORSION
    g = [5, 4, 4, 1]  # x^3 + 4x^2 + 4x + 5
    assert str(bf_group(EX2_M, g)) == "Z4+Z8+Z8+Z64"
    assert str(bf_group(EX2_MP, g)) == "Z8+Z8+Z8+Z32"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print("ACCEPTANCE 2 PASS (%.2fs)" % elapsed)


def test_criterion_03_order_lattices():
    # quadratic: six orders Z + Z*(k/12)(b - 17), two covers of Z[b]
    t0 = time.perf_counter()
    K2 = NumberField("x^2 - 34*x + 1")
    lat = enumerate_order_lattice(K2)
    zb = zbeta(K2)
    assert [zb.index_in(node) for node in lat.nodes] == [1, 2, 3, 4, 6, 12]
    by_index = {zb.index_in(node): node for node in lat.nodes}
    for k in (1, 2, 3, 4, 6, 12):
        gen = (K2.beta() - 17) * Fraction(k, 12)
        expected = lattice_from_generators(K2, [K2.one(), gen])
        node = by_index[12 // k]
        assert ZLattice(K2, node.denom, node.cols) == expected
    assert lat.edges == [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    assert order_discriminant(maximal_order(K2)) == 8
    t_quad = time.perf_counter() - t0
    assert t_quad < 60.0

    # cubic: six orders in a diamond with a single cover of Z[b]
    t0 = time.perf_counter()
    K3 = NumberField(CUBIC_FIELD)
    lat = enumerate_order_lattice(K3)
    zb = zbeta(K3)
    assert [zb.index_in(node) for node in lat.nodes] == [1, 2, 4, 4, 8, 16]
    got = [[str(e) for e in node.basis_elements()] for node in lat.nodes]
    assert got == [
        ["1", "b", "b^2"],
        ["1", "b", "(1/2)b^2+(1/2)"],
        ["1", "b", "(1/4)b^2+(1/2)b+(1/4)"],
        ["1", "b", "(1/4)b^2+(3/4)"],
        ["1", "(1/2)b+(1/2)", "(1/4)b^2+(3/4)"],
        ["1", "(1/2)b+(1/2)", "(1/8)b^2+(7/8)"],
    ]
    assert lat.edges == [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
    assert order_discriminant(maximal_order(K3)) == -83
    t_cubic = time.perf_counter() - t0
    assert t_cubic < 60.0
    print("ACCEPTANCE 3 PASS (%.2fs + %.2fs)" % (t_quad, t_cubic))


def test_criterion_04_coefficient_rings_and_inverses():
    t0 = time.perf_counter()
    rings = [coefficient_ring(matrix_to_ideal(a)) for a in (EX1_A, EX1_B, EX1_C)]
    got = [[str(e) for e in r.basis_elements()] for r in rings]
    assert got == [
        ["1", "b", "b^2"],
        ["1", "b", "(1/2)b^2+(1/2)"],
        ["1", "b", "(1/4)b^2+(3/4)"],
    ]

    K = NumberField(CUBIC_FIELD)
    ideal_i = FractionalIdeal(K, 1, I7_COLS)
    ideal_j = FractionalIdeal(K, 1, J7_COLS)
    ring = coefficient_ring(ideal_i)
    assert coefficient_ring(ideal_j) == ring
    assert is_invertible(ideal_i, ring)
    assert not is_invertible(ideal_j, ring)
    inv_i = colon(ring, ideal_i)
    inv_j = colon(ring, ideal_j)
    assert [str(e) for e in inv_i.basis_elements()] == [
        "1",
        "(1/2)b+(1/2)",
        "(1/16)b^2+(1/8)b+(9/16)",
    ]
    assert [str(e) for e in inv_j.basis_elements()] == [
        "1",
        "(1/2)b+(1/2)",
        "(1/4)b^2+(3/4)",
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print("ACCEPTANCE 4 PASS (%.2fs)" % elapsed)


def test_criterion_05_cross_representation_identity(corpus):
    t0 = time.perf_counter()
    for a, _, gs in corpus:
        ideal = matrix_to_ideal(a)
        K = ideal.field
        for g in gs:
            gb = K.from_poly(IntPoly(g))
            assert bf_group(a, g) == quotient_group(ideal, ideal.scaled(gb))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print("ACCEPTANCE 5 PASS (%.2fs)" % elapsed)


def test_criterion_06_norm_identity(corpus):
    t0 = time.perf_counter()
    for a, _, gs in corpus:
        ideal = matrix_to_ideal(a)
        K = ideal.field
        for g in gs:
            gb = K.from_poly(IntPoly(g))
            order = bf_group(a, g).order()
            assert order == abs(gb.norm())
            assert order == abs(oracle_det(_poly_at_matrix(g, a)))
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE 6 PASS (%.2fs)" % elapsed)


def test_criterion_07_trace_dual_vs_colon():
    t0 = time.perf_counter()
    K = NumberField(CUBIC_FIELD)
    zb = zbeta(K)
    pprime = K.from_poly([7, -46, 3])
    targets = [
        FractionalIdeal(K, 1, I7_COLS),
        FractionalIdeal(K, 1, J7_COLS),
        FractionalIdeal(K, zb.denom, zb.cols),
    ]
    rng = random.Random(0xBF + 7)
    while len(targets) < 53:
        gens = [K.element([rng.randint(-6, 6) for _ in range(3)]) for _ in range(2)]
        if all(g.is_rational() for g in gens):
            continue
        targets.append(fractional_ideal(K, gens, module_closure=True))
    for L in targets:
        lhs = trace_dual(L).scaled(pprime)
        rhs = colon(zb, L)
        assert ZLattice(K, lhs.denom, lhs.cols) == ZLattice(K, rhs.denom, rhs.cols)
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE 7 PASS (%.2fs)" % elapsed)


def test_criterion_08_periodic_points_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(0xBF + 8)
    mats = []
    while len(mats) < 20:
        a, p = random_unit_irreducible_matrix(rng, sizes=(2,), span=4)
        if p[1] ** 2 - 4 * p[0] <= 0:  # eigenvalues not real: not hyperbolic
            continue
        mats.append(a)

    pairs = 0
    for a in mats:
        power = a
        for k in range(1, 5):
            if k > 1:
                power = mat_mul(power, a)
            m = [[power[i][j] - int(i == j) for j in range(2)] for i in range(2)]
            det = abs(oracle_det(m))
            assert det != 0  # hyperbolic, so no root of unity eigenvalue
            if det > 10**4:
                continue
            diag = oracle_invariant_factors(m)
            d1, dn = diag[0], diag[-1]
            ps = periodic_structure(a, k)
            # SNF-predicted group against the minor-gcd oracle
            assert ps.group == oracle_group(m)
            # brute force on the (1/dn)-grid finds exactly |BF_k| points,
            # and the reported generators span all of them
            pts = enumerate_periodic_points(a, k, dn)
            assert len(pts) == ps.group.order() == det
            assert subgroup_from_generators(ps.generators, dn) == pts
            # T_{d1} subset Per_k: the whole (1/d1)-grid is k-periodic
            full_grid = set(itertools.product(range(d1), repeat=2))
            assert enumerate_periodic_points(a, k, d1) == full_grid
            # Per_k subset T_{dn}: every periodic point lives on the
            # (1/det)-grid; check each lands on the (1/dn)-subgrid
            everything = enumerate_periodic_points(a, k, det)
            assert len(everything) == det
            assert all(c % d1 == 0 for tup in everything for c in tup)
            pairs += 1
    assert pairs >= 20
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE 8 PASS (%.2fs, %d matrix/k pairs)" % (elapsed, pairs))


def test_criterion_09_certification_soundness():
    t0 = time.perf_counter()
    rng = random.Random(0xBF + 9)
    done = 0
    while done < 50:
        a, b = random_similar_pair(rng)
        if not oracle_irreducible(oracle_char_poly(a)):
            continue
        done += 1
        r = bf_refute(a, b, bound=4)
        assert r.kind == "inconclusive"
        c = bf_certify(a, b)
        assert c.kind in ("BF-certified", "strong-BF-certified", "inconclusive")

    # the worked triple is pairwise distinguished, with explicit witnesses
    for x, y in ((EX1_A, EX1_B), (EX1_A, EX1_C), (EX1_B, EX1_C)):
        r = bf_refute(x, y)
        assert r.kind == "BF-distinguished"
        assert r.witness
        c = bf_certify(x, y)
        assert c.kind == "not-L-equivalent"
        assert c.witness
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE 9 PASS (%.2fs)" % elapsed)


def test_criterion_10_suspension_homology(corpus):
    t0 = time.perf_counter()
    for a, _, _ in corpus:
        bf = bf_group(a, "x-1")
        assert suspension_h1(a) == AbelianGroup(bf.free_rank + 1, bf.torsion)
    # symbolic check: abelianizing the fundamental-group presentation,
    # both by the library and by the independent word oracle
    for a, _, _ in corpus[:10]:
        pres = pi1_presentation(a)
        h1 = suspension_h1(a)
        assert pres.abelianization() == h1
        assert oracle_abelianization(pres) == h1
    elapsed = time.perf_counter() - t0
    print("ACCEPTANCE 10 PASS (%.2fs)" % elapsed)
