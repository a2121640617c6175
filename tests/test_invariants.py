"""End-to-end invariants: BF groups, the dictionary, verdicts, the flow."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftorus.config import debug_asserts_enabled, set_debug_asserts
from bftorus.errors import (
    CharPolyMismatch,
    DegeneratePeriod,
    NonIntegralResult,
    ReduciblePolynomial,
)
from bftorus.exactmat import char_poly, char_poly_adjugate, det, eval_poly_at_matrix
from bftorus.ideals import (
    AbelianGroup,
    FractionalIdeal,
    ZLattice,
    coefficient_ring,
    fractional_ideal,
    quotient_group,
    zbeta,
)
from bftorus.invariants import (
    BFProfile,
    EquivalenceVerdict,
    _row_eigenvector,
    bf_certify,
    bf_group,
    bf_k,
    bf_refute,
    conjugate_mod,
    flow_invariant_pair,
    ideal_to_matrix,
    l_equivalent,
    matrix_to_ideal,
    periodic_structure,
    pi1_presentation,
    strong_bf_refute,
    suspension_h1,
)
from bftorus.numberfield import FieldElement, NumberField
from bftorus.polyring import IntPoly, RatPoly, is_irreducible, parse_rat_poly

from util import (
    EX1_A,
    EX1_B,
    EX1_C,
    EX2_M,
    EX2_MP,
    BF48_TORSION,
    I7_COLS,
    J7_COLS,
    P_CUBIC,
    R7_COLS,
    R7_DENOM,
    companion,
    enumerate_periodic_points,
    mat_mul,
    mat_pow,
    oracle_abelianization,
    oracle_char_poly,
    oracle_det,
    oracle_irreducible,
    oracle_row_eigenvector,
    random_admissible_poly,
    random_similar_pair,
    random_unimodular_pair,
    random_unit_irreducible_matrix,
    subgroup_from_generators,
)


def random_irreducible_matrix(rng, n, span=4):
    """Random n x n integer A with irreducible char poly.  The library's
    irreducibility test only filters inputs here: the oracle in util
    stops at degree 4."""
    while True:
        a = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        if is_irreducible(char_poly(a)):
            return a


class TestBFGroups:
    def test_worked_cubic_example(self):
        assert str(bf_group(EX1_A, "x-1")) == "Z16"
        assert str(bf_group(EX1_B, "x-1")) == "Z2+Z8"
        assert str(bf_group(EX1_C, "x-1")) == "Z2+Z8"
        assert str(bf_group(EX1_B, "x+1")) == "Z2+Z16"
        assert str(bf_group(EX1_C, "x+1")) == "Z4+Z8"

    def test_quartic_power_torsion(self):
        assert tuple(bf_k(EX2_M, 48).torsion) == BF48_TORSION
        assert tuple(bf_k(EX2_MP, 48).torsion) == BF48_TORSION

    def test_quartic_pair_distinguished_by_rational_g(self):
        g = parse_rat_poly("x^3+4*x^2+4*x+5")
        assert str(bf_group(EX2_M, g)) == "Z4+Z8+Z8+Z64"
        assert str(bf_group(EX2_MP, g)) == "Z8+Z8+Z8+Z32"

    def test_accepts_strings_lists_and_polys(self):
        a = EX1_A
        assert bf_group(a, "x-1") == bf_group(a, [-1, 1])
        assert bf_group(a, "x-1") == bf_group(a, IntPoly([-1, 1]))

    def test_free_rank_for_singular_g_of_a(self):
        # g = char poly: g(A) = 0 by Cayley-Hamilton, quotient is Z^n
        g = IntPoly(P_CUBIC)
        q = bf_group(EX1_A, g)
        assert q == AbelianGroup(3)

    def test_non_integral_g_raises(self):
        with pytest.raises(NonIntegralResult):
            bf_group(EX1_A, parse_rat_poly("(1/2)x"))

    def test_bf_k_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bf_k(EX1_A, 0)

    def test_order_equals_det(self, rng):
        for _ in range(30):
            a, _ = random_unit_irreducible_matrix(rng)
            g = IntPoly(random_admissible_poly(rng, len(a)))
            q = bf_group(a, g)
            assert q.order() == abs(det(eval_poly_at_matrix(g, a)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 3))
    def test_similarity_invariance(self, seed, n, den):
        # BF_g(A) and the integrality of g(A) depend only on the
        # conjugacy class of A, for any g over Q
        rng = random.Random(seed)
        a, b = random_similar_pair(rng, sizes=(n,), span=4)
        g = RatPoly([Fraction(c, den) for c in random_admissible_poly(rng, n + 1)])
        groups = []
        for m in (a, b):
            try:
                groups.append(bf_group(m, g))
            except NonIntegralResult:
                groups.append("non-integral")
        assert groups[0] == groups[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 60))
    def test_bf_k_matches_bf_group_of_cyclic(self, seed, irreducible, k):
        # Products of elementary matrices often have a root of unity as
        # eigenvalue, so A^k - I is singular and the group has free rank.
        rng = random.Random(seed)
        if irreducible:
            a, _ = random_unit_irreducible_matrix(rng)
        else:
            a, _ = random_unimodular_pair(rng, rng.choice((2, 3, 4)))
        assert bf_k(a, k) == bf_group(a, IntPoly.cyclic(k))

    def test_bf_k_large_power_order(self):
        m = mat_pow(EX2_M, 400)
        for i in range(4):
            m[i][i] -= 1
        assert bf_k(EX2_M, 400).order() == abs(oracle_det(m))

    def test_debug_check_on_diagonal(self):
        saved = debug_asserts_enabled()
        set_debug_asserts(True)
        try:
            assert bf_k(EX2_M, 48).torsion == BF48_TORSION
            assert bf_group(EX1_A, "x^2").free_rank == 0
            assert bf_group([[1, 0], [0, 2]], "x-1").free_rank == 1
            assert bf_k([[1, 1], [0, 1]], 3).free_rank == 1
        finally:
            set_debug_asserts(saved)


class TestBFProfile:
    def test_caches_by_reduction(self):
        prof = BFProfile(EX1_A)
        g1 = prof.group("x-1")
        assert "x-1" in prof
        # p + (x - 1) reduces to the same key as x - 1
        g2 = prof.group([-2, 8, -23, 1])
        assert g1 == g2
        assert len(prof) == 1


class TestDictionary:
    def test_companion_gives_power_basis(self):
        ideal = matrix_to_ideal(EX1_A)
        K = ideal.field
        assert ZLattice(K, ideal.denom, ideal.cols) == ZLattice(
            K, 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_ring_matrix_gives_its_ring(self):
        # B is multiplication by beta on (1, b, (b^2+1)/2), and the
        # normalized eigenvector span recovers exactly that lattice
        ideal = matrix_to_ideal(EX1_B)
        K = ideal.field
        assert ZLattice(K, ideal.denom, ideal.cols) == ZLattice(K, R7_DENOM, R7_COLS)

    def test_third_matrix_lattice_and_ring(self):
        ideal = matrix_to_ideal(EX1_C)
        assert [str(e) for e in ideal.basis_elements()] == [
            "1",
            "b",
            "(1/8)b^2+(7/8)",
        ]
        ring = coefficient_ring(ideal)
        assert [str(e) for e in ring.basis_elements()] == [
            "1",
            "b",
            "(1/4)b^2+(3/4)",
        ]

    def test_coefficient_rings_of_the_triple(self):
        rings = [
            [str(e) for e in coefficient_ring(matrix_to_ideal(m)).basis_elements()]
            for m in (EX1_A, EX1_B, EX1_C)
        ]
        assert rings == [
            ["1", "b", "b^2"],
            ["1", "b", "(1/2)b^2+(1/2)"],
            ["1", "b", "(1/4)b^2+(3/4)"],
        ]

    def test_ideal_to_matrix_goldens(self):
        K = NumberField(IntPoly(P_CUBIC))
        assert ideal_to_matrix(FractionalIdeal(K, 1, I7_COLS)) == [
            [-7, -7, -20],
            [8, 7, 0],
            [0, 1, 23],
        ]
        assert ideal_to_matrix(FractionalIdeal(K, 1, J7_COLS)) == [
            [-1, -1, -8],
            [2, 1, -6],
            [0, 1, 23],
        ]
        assert ideal_to_matrix(zbeta(K).as_ideal()) == [
            [0, 0, 1],
            [1, 0, -7],
            [0, 1, 23],
        ]

    def test_round_trips_up_to_normalization(self):
        K = NumberField(IntPoly(P_CUBIC))
        I = FractionalIdeal(K, 1, I7_COLS)
        J = FractionalIdeal(K, 1, J7_COLS)
        assert matrix_to_ideal(ideal_to_matrix(I)) == I.scaled(Fraction(1, 8))
        assert matrix_to_ideal(ideal_to_matrix(J)) == J.scaled(Fraction(1, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    def test_round_trips_on_random_conjugates(self, seed, n):
        rng = random.Random(seed)
        ideal = matrix_to_ideal(random_irreducible_matrix(rng, n))
        m = ideal_to_matrix(ideal)
        assert matrix_to_ideal(m) == ideal
        p, q = random_unimodular_pair(rng, n)
        b = mat_mul(mat_mul(p, m), q)
        # h·M = b·h for the basis h of the ideal, so w = h·P⁻¹ is a row
        # eigenvector of B = P·M·P⁻¹ whose entries span the ideal.  The
        # eigenvectors of B form one K-line, and matrix_to_ideal divides
        # its eigenvector by the first entry, then meets Q in Z.
        field = ideal.field
        h = ideal.basis_elements()
        w = [sum((h[i] * q[i][j] for i in range(n)), field.zero()) for j in range(n)]
        v = oracle_row_eigenvector(field, b)
        assert all(v[j] * w[0] == w[j] * v[0] for j in range(n))
        expected = ideal.scaled(w[0].inverse())
        expected = expected.scaled(Fraction(expected.denom, expected.cols[0][0]))
        got = matrix_to_ideal(b)
        assert got == expected
        assert matrix_to_ideal(ideal_to_matrix(got)) == got
        assert char_poly(ideal_to_matrix(got)) == char_poly(b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_adjugate_row_matches_elimination(self, seed, n):
        a = random_irreducible_matrix(random.Random(seed), n)
        p, adj = char_poly_adjugate(a)
        field = NumberField(p)
        v = [field.element(c) for c in _row_eigenvector(field, a, adj)]
        w = oracle_row_eigenvector(field, a)
        # one K-line of row eigenvectors
        assert all(v[j] * w[0] == w[j] * v[0] for j in range(n))
        # so the ideal normalized from the oracle's vector is the same
        inv = w[0].inverse()
        raw = fractional_ideal(field, [z * inv for z in w])
        first = Fraction(raw.cols[0][0], raw.denom)
        assert matrix_to_ideal(a) == (raw if first == 1 else raw.scaled(1 / first))

    def test_debug_check_on_eigenvector(self):
        saved = debug_asserts_enabled()
        set_debug_asserts(True)
        try:
            assert [str(e) for e in matrix_to_ideal(EX1_C).basis_elements()] == [
                "1",
                "b",
                "(1/8)b^2+(7/8)",
            ]
            assert l_equivalent(EX1_A, EX1_B).kind == "not-L-equivalent"
            assert l_equivalent(EX2_M, EX2_MP).kind == "not-L-equivalent"
            assert bf_refute(EX1_B, EX1_C).witness == "x^2-1"
            assert bf_refute(EX2_M, EX2_MP).groups == {"A": "non-integral", "B": "Z4"}
            # the check is live: EX1_B shares EX1_A's char poly, but its
            # adjugate row is not an eigenvector of EX1_A
            _, adj_b = char_poly_adjugate(EX1_B)
            with pytest.raises(AssertionError, match="v.A != beta.v"):
                _row_eigenvector(NumberField(IntPoly(P_CUBIC)), EX1_A, adj_b)
        finally:
            set_debug_asserts(saved)

    def test_matrix_to_ideal_builds_no_field_element(self, monkeypatch):
        built = []
        init = FieldElement.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        saved = debug_asserts_enabled()
        set_debug_asserts(False)
        monkeypatch.setattr(FieldElement, "__init__", counting)
        try:
            for a in (EX1_A, EX1_C, EX2_M):
                matrix_to_ideal(a)
        finally:
            set_debug_asserts(saved)
        assert built == []

    def test_unstable_lattice_rejected(self):
        K = NumberField(IntPoly(P_CUBIC))
        with pytest.raises(NonIntegralResult):
            ideal_to_matrix(ZLattice(K, 1, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]))

    def test_reducible_char_poly_rejected(self):
        with pytest.raises(ReduciblePolynomial):
            matrix_to_ideal([[1, 0], [0, 2]])

    def test_cross_representation_identity(self, rng):
        # BF_g(A) == I/g(beta)I for the associated ideal — the heart of
        # the dictionary
        for _ in range(12):
            a, _ = random_unit_irreducible_matrix(rng, sizes=(2, 3))
            ideal = matrix_to_ideal(a)
            K = ideal.field
            g = IntPoly(random_admissible_poly(rng, len(a)))
            gb = K.from_poly(g)
            assert bf_group(a, g) == quotient_group(ideal, ideal.scaled(gb))
            assert abs(gb.norm()) == bf_group(a, g).order()


class TestPeriodicPoints:
    def test_fixed_points_of_the_cubic(self):
        ps = periodic_structure(EX1_A, 1)
        assert ps.k == 1
        assert str(ps.group) == "Z16"
        assert len(ps.generators) == 3
        # generator orders follow the invariant factors (1, 1, 16)
        assert ps.generators[0] == (0, 0, 0)
        assert ps.generators[1] == (0, 0, 0)
        assert any(c != 0 for c in ps.generators[2])

    def test_against_brute_force_grid(self, rng):
        for _ in range(12):
            a = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            k = rng.randint(1, 3)
            try:
                ps = periodic_structure(a, k)
            except DegeneratePeriod:
                continue
            if ps.group.order() > 400:
                continue
            denom = 1
            for gen in ps.generators:
                for c in gen:
                    denom = denom * c.denominator // __import__("math").gcd(
                        denom, c.denominator
                    )
            brute = enumerate_periodic_points(a, k, denom)
            spanned = subgroup_from_generators(ps.generators, denom)
            assert spanned == brute
            assert len(brute) == ps.group.order()

    def test_degenerate_period_raises(self):
        with pytest.raises(DegeneratePeriod):
            periodic_structure([[0, -1], [1, 0]], 4)  # A^4 = I

    def test_group_matches_bf_k(self, rng):
        for _ in range(10):
            a, _ = random_unit_irreducible_matrix(rng, sizes=(2, 3))
            k = rng.randint(1, 4)
            try:
                ps = periodic_structure(a, k)
            except DegeneratePeriod:
                continue
            assert ps.group == bf_k(a, k)


class TestVerdicts:
    def test_refute_the_cubic_triple(self):
        v = bf_refute(EX1_A, EX1_B)
        assert v.kind == "BF-distinguished"
        assert v.witness == "x-1"
        assert v.groups == {"A": "Z16", "B": "Z2+Z8"}

        v = bf_refute(EX1_B, EX1_C)
        assert v.kind == "BF-distinguished"
        assert v.witness == "x^2-1"
        assert v.groups == {"A": "Z2+Z8+Z32", "B": "Z4+Z8+Z16"}

        v = bf_refute(EX1_A, EX1_C)
        assert v.kind == "BF-distinguished"
        assert v.witness == "x-1"

    def test_refute_quartic_through_integrality(self):
        v = bf_refute(EX2_M, EX2_MP)
        assert v.kind == "BF-distinguished"
        assert v.witness == "(1/8)x^3+(1/2)x^2+(1/2)x+(5/8)"
        assert v.groups == {"A": "non-integral", "B": "Z4"}

    def test_refute_reducible_char_poly(self):
        # p = (x-1)^2: no coefficient-ring candidates, x - 1 already splits
        v = bf_refute([[1, 0], [0, 1]], [[1, 1], [0, 1]], bound=2)
        assert v.kind == "BF-distinguished"
        assert v.witness == "x-1"
        assert v.groups == {"A": "Z^2", "B": "Z"}

    def test_distinguished_verdicts_rederive_through_horner(self, rng):
        # Every witness, parsed back, gives the recorded groups through
        # the public Horner path, and the two sides differ.
        distinguished = 0
        for _ in range(40):
            n = rng.choice((2, 3, 4))
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            b = companion(oracle_char_poly(a))
            v = bf_refute(a, b, bound=2)
            if v.kind == "inconclusive":
                continue
            assert v.kind == "BF-distinguished"
            distinguished += 1
            groups = {}
            for side, m in (("A", a), ("B", b)):
                try:
                    groups[side] = str(bf_group(m, v.witness))
                except NonIntegralResult:
                    groups[side] = "non-integral"
            assert groups == v.groups
            assert groups["A"] != groups["B"]
        assert distinguished >= 5

    def test_refute_is_deterministic(self):
        assert bf_refute(EX1_B, EX1_C) == bf_refute(EX1_B, EX1_C)

    def test_l_equivalence(self):
        assert l_equivalent(EX1_A, EX1_B).kind == "not-L-equivalent"
        assert l_equivalent(EX1_B, EX1_B).kind == "L-equivalent"

    def test_certify_cascade(self):
        # different rings: negative certificate
        assert bf_certify(EX1_A, EX1_B).kind == "not-L-equivalent"
        assert bf_certify(EX1_B, EX1_C).kind == "not-L-equivalent"
        # a matrix against itself: principal ideal, invertible
        assert bf_certify(EX1_A, EX1_A).kind == "strong-BF-certified"
        # square-free discriminant with unit constant term
        v = bf_certify([[0, 1], [1, 1]], [[1, 1], [1, 0]])
        assert v.kind == "BF-certified"
        assert "square-free" in v.witness
        # quartic pair: ring mismatch detected without any search
        assert bf_certify(EX2_M, EX2_MP).kind == "not-L-equivalent"

    def test_certify_requires_irreducible(self):
        with pytest.raises(ReduciblePolynomial):
            bf_certify([[1, 0], [0, 2]], [[1, 0], [0, 2]])

    def test_char_poly_mismatch(self):
        with pytest.raises(CharPolyMismatch):
            bf_refute(EX1_A, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_refute_bound_validation(self):
        with pytest.raises(ValueError):
            bf_refute(EX1_A, EX1_B, bound=0)

    def test_similar_pairs_never_refuted_or_denied(self, rng):
        done = 0
        while done < 10:
            a, b = random_similar_pair(rng)
            if not oracle_irreducible(oracle_char_poly(a)):
                continue
            done += 1
            r = bf_refute(a, b, bound=3)
            assert r.kind == "inconclusive"
            assert r.bound == 3
            c = bf_certify(a, b)
            assert c.kind in ("BF-certified", "strong-BF-certified", "inconclusive")

    def test_strong_refute_lifts_plain_refutation(self):
        v = strong_bf_refute(EX1_A, EX1_B)
        assert v.kind == "strong-BF-refuted"
        assert v.witness == "x-1"

    def test_strong_refute_conjugacy_oracle(self):
        # multiplication by beta on Z[b] vs on the maximal order of
        # Q(sqrt(2)) via x^2-34x+1: BF_1 differs, and conjugacy mod 4
        # fails independently
        comp = [[0, 1], [-1, 34]]
        omat = [[16, 24], [12, 16]]
        assert not conjugate_mod(comp, omat, 4)
        assert conjugate_mod(comp, comp, 4)

    def test_conjugate_mod_respects_similarity(self, rng):
        for _ in range(5):
            a, b = random_similar_pair(rng, sizes=(2,))
            for m in (2, 3, 4):
                assert conjugate_mod(a, b, m)

    def test_verdict_objects(self):
        v = EquivalenceVerdict("inconclusive", bound=4)
        assert not v.conclusive
        assert v.to_json_dict() == {"verdict": "inconclusive", "bound": 4}
        with pytest.raises(ValueError):
            EquivalenceVerdict("maybe")
        with pytest.raises(ValueError):
            EquivalenceVerdict("inconclusive")  # missing bound
        with pytest.raises(ValueError):
            EquivalenceVerdict("BF-distinguished")  # missing witness
        with pytest.raises(AttributeError):
            v.kind = "BF-certified"

    def test_verdict_json_golden(self):
        v = bf_refute(EX1_A, EX1_B)
        assert v.to_json_dict() == {
            "verdict": "BF-distinguished",
            "witness": "x-1",
            "groups": {"A": "Z16", "B": "Z2+Z8"},
        }


class TestSuspension:
    def test_h1_golden(self):
        assert suspension_h1(EX1_A) == AbelianGroup(1, [16])

    def test_flow_invariant_pair(self):
        d, g = flow_invariant_pair(EX1_A)
        assert d == -16
        assert g == AbelianGroup(0, [16])

    def test_h1_is_z_plus_bf1(self, rng):
        for _ in range(15):
            a, _ = random_unit_irreducible_matrix(rng)
            base = bf_group(a, "x-1")
            got = suspension_h1(a)
            assert got.free_rank == base.free_rank + 1
            assert got.torsion == base.torsion

    def test_pi1_presentation_shape(self):
        pres = pi1_presentation(EX1_A)
        assert pres.generators == ["x0", "x1", "x2", "x3"]
        assert "x0*x3*x0^-1 = x1*x2^-7*x3^23" in pres.relations
        assert str(pres).startswith("<x0, x1, x2, x3 | ")

    def test_pi1_abelianization_matches_h1(self, rng):
        for _ in range(10):
            a, _ = random_unit_irreducible_matrix(rng, sizes=(2, 3))
            pres = pi1_presentation(a)
            assert pres.abelianization() == suspension_h1(a)

    def test_pi1_abelianization_against_word_oracle(self, rng):
        # re-derive the abelianization from the emitted words alone
        for _ in range(8):
            a, _ = random_unit_irreducible_matrix(rng, sizes=(2, 3))
            pres = pi1_presentation(a)
            assert oracle_abelianization(pres) == pres.abelianization()


@pytest.mark.parametrize(
    "call",
    [
        lambda: bf_k([[2, 1], [1, 1]], 2.7),
        lambda: periodic_structure([[2, 1], [1, 1]], 2.0),
        lambda: bf_refute([[2, 1], [1, 1]], [[1, 1], [1, 2]], bound=2.9),
        lambda: strong_bf_refute([[2, 1], [1, 1]], [[1, 1], [1, 2]], bound=Fraction(2)),
        lambda: conjugate_mod([[2, 1], [1, 1]], [[1, 1], [1, 2]], 4.0),
    ],
    ids=["bf_k", "periodic_structure", "bf_refute", "strong_bf_refute", "conjugate_mod"],
)
def test_non_integer_counts_rejected(call):
    # never truncated: bf_k(A, 2.7) must not answer for k = 2
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("engine", [bf_certify, l_equivalent])
def test_one_irreducibility_test_per_verdict(engine, monkeypatch):
    import bftorus.config as config
    import bftorus.numberfield as numberfield

    # the debug cross-check of _matrix_ring builds more fields on purpose
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    calls = []
    real = numberfield.is_irreducible
    monkeypatch.setattr(numberfield, "is_irreducible", lambda p: calls.append(p) or real(p))
    assert engine(EX1_B, EX1_C).kind == "not-L-equivalent"
    assert len(calls) == 1
