"""Fractional ideals: canonical lattices, colon quotients, duals, quotient groups.

The worked three-dimensional example (p = x^3 - 23x^2 + 7x - 1) supplies
most of the fixed expectations: the ideal I = <8, b+7, b^2+7> is invertible
over its coefficient ring R = Z + Zb + Z(b^2+1)/2 while J = <2, b+1, b^2+1>
is not, and the two colon inverses land on lattices that can be written
down exactly.
"""

import sys
from fractions import Fraction

import pytest

import bftorus.config as config
import bftorus.exactmat as exactmat
import bftorus.ideals as ideals
from bftorus.errors import NotASublattice, NotFullRank
from bftorus.ideals import (
    AbelianGroup,
    FractionalIdeal,
    Order,
    ZLattice,
    coefficient_ring,
    colon,
    fractional_ideal,
    intersect,
    is_divisorial,
    is_invertible,
    lattice_from_generators,
    lattice_sum,
    product,
    quotient_group,
    trace_dual,
    zbeta,
)
from bftorus.numberfield import NumberField
from bftorus.orders import enumerate_order_lattice
from bftorus.polyring import IntPoly

from util import (
    I7_COLS, J7_COLS, NON_GORENSTEIN_FIELDS, P_QUAD, R7_COLS, R7_DENOM, CallCounter,
    count_validations, oracle_norm,
)


@pytest.fixture(scope="module")
def K():
    return NumberField("x^3 - 23*x^2 + 7*x - 1")


@pytest.fixture(scope="module")
def zb(K):
    return zbeta(K)


@pytest.fixture(scope="module")
def I(K):
    return FractionalIdeal(K, 1, I7_COLS)


@pytest.fixture(scope="module")
def J(K):
    return FractionalIdeal(K, 1, J7_COLS)


@pytest.fixture(scope="module")
def R(K):
    return Order(K, R7_DENOM, R7_COLS)


def ideal_of(lattice):
    return FractionalIdeal(lattice.field, lattice.denom, lattice.cols)


class TestAbelianGroup:
    def test_invariant_factor_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, [3, 4])  # 3 does not divide 4
        with pytest.raises(ValueError):
            AbelianGroup(0, [1, 2])

    def test_from_diagonal(self):
        g = AbelianGroup.from_diagonal([1, 2, 0, 8])
        assert g.free_rank == 1
        assert g.torsion == (2, 8)

    def test_rendering(self):
        assert str(AbelianGroup(0, [16])) == "Z16"
        assert str(AbelianGroup(0, [2, 8])) == "Z2+Z8"
        assert str(AbelianGroup(1)) == "Z"
        assert str(AbelianGroup(3, [5])) == "Z^3+Z5"
        assert str(AbelianGroup()) == "0"

    def test_order(self):
        assert AbelianGroup(0, [2, 8]).order() == 16
        assert AbelianGroup(1, [2]).order() is None
        assert AbelianGroup().order() == 1

    def test_immutable_and_hashable(self):
        g = AbelianGroup(0, [4])
        with pytest.raises(AttributeError):
            g.free_rank = 2
        assert hash(g) == hash(AbelianGroup(0, [4]))


class TestLatticeConstruction:
    def test_power_basis_generators(self, K, zb):
        L = lattice_from_generators(K, [K.one(), K.beta(), K.beta() ** 2])
        assert L.denom == 1
        assert L == ZLattice(K, 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert L == ZLattice(K, zb.denom, zb.cols)

    def test_canonical_form_is_insensitive_to_presentation(self, K, I):
        # same lattice, redundant and scrambled generators
        gens = [
            K.element([8, 0, 0]),
            K.element([7, 1, 0]),
            K.element([7, 0, 1]),
            K.element([15, 1, 0]),  # sum of the first two
        ]
        L = lattice_from_generators(K, gens)
        assert L == ZLattice(K, I.denom, I.cols)

    def test_module_closure(self, K, zb):
        # <2, b+1> as a Z[b]-module is the prime above 2 with b^2+1 included
        L = fractional_ideal(
            K, [K.element([2, 0, 0]), K.element([1, 1, 0])], module_closure=True
        )
        assert L.contains_element(K.element([1, 0, 1]))

    def test_rank_deficient_rejected(self, K):
        with pytest.raises(NotFullRank):
            lattice_from_generators(K, [K.one(), K.element([3, 0, 0])])

    @pytest.mark.parametrize("bad", [1.9, 2.0, "2", Fraction(2), Fraction(1, 2)])
    def test_non_integer_denominator_or_entry_rejected(self, K, bad):
        # never truncated: ZLattice(K, "2", [[1.9, 0, 0], ...]) is no lattice
        with pytest.raises(TypeError):
            ZLattice(K, bad, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(TypeError):
            ZLattice(K, 1, [[bad, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_order_must_contain_one_and_close(self, K):
        with pytest.raises(NotASublattice):
            Order(K, 1, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])  # misses 1, not b-stable

    def test_ideal_must_be_beta_stable(self, K):
        with pytest.raises(NotASublattice, match="not stable under multiplication by b"):
            FractionalIdeal(K, 1, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])

    def test_order_must_contain_one(self, K):
        # 2·Z[b] is b-stable and closed under multiplication, but misses 1
        with pytest.raises(NotASublattice, match="must contain 1"):
            Order(K, 1, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])

    @pytest.mark.parametrize(
        "coeffs, denom, cols",
        [
            # Z + Z·w, w = (b - 17)/24 in Q[x]/(x^2 - 34x + 1): w^2 = 1/2
            (P_QUAD, 24, [[24, 0], [-17, 1]]),
            # Z + Z·w, w = (b + 2)/7 in Q[x]/(x^2 + 3): 7·w^2 is not
            # integral, so the product already fails the divisibility test
            ([3, 0, 1], 7, [[7, 0], [2, 1]]),
        ],
    )
    def test_order_must_be_closed(self, coeffs, denom, cols):
        # each lattice is a Z[b]-module containing 1, but w^2 escapes it
        field = NumberField(IntPoly(coeffs))
        FractionalIdeal(field, denom, cols)
        with pytest.raises(NotASublattice, match="not closed under multiplication"):
            Order(field, denom, cols)

    def test_index_in(self, K, zb, R):
        assert zb.index_in(R) == 2
        assert ideal_of(zb).scaled(6).index_in(zb) == 6**3

    def test_json_round_trip(self, K, I):
        data = I.to_json_dict()
        assert sorted(data.keys()) == ["basis_columns", "denom", "field"]
        back = ZLattice.from_json_dict(data)
        assert back == ZLattice(K, I.denom, I.cols)

    def test_scaled_by_rational(self, K, I):
        half = I.scaled(Fraction(1, 2))
        assert half.scaled(2) == ZLattice(K, I.denom, I.cols)


class TestColon:
    def test_inverse_of_I_over_its_ring(self, K, I, R):
        inv = colon(R, I)
        assert [str(e) for e in inv.basis_elements()] == [
            "1",
            "(1/2)b+(1/2)",
            "(1/16)b^2+(1/8)b+(9/16)",
        ]

    def test_inverse_of_J_over_its_ring(self, K, J, R):
        # J^-1 = (R : J) is itself a strictly bigger order
        inv = colon(R, J)
        assert [str(e) for e in inv.basis_elements()] == [
            "1",
            "(1/2)b+(1/2)",
            "(1/4)b^2+(3/4)",
        ]
        assert inv.contains_lattice(R)
        c = coefficient_ring(ideal_of(inv))
        assert ZLattice(K, c.denom, c.cols) == ZLattice(K, inv.denom, inv.cols)

    def test_colon_self_contains_zbeta(self, K, zb, I, J):
        for L in (I, J):
            e = colon(L, L)
            assert e.contains_lattice(zb)

    def test_multiplying_by_zbeta_fixes_ideals(self, K, zb, I):
        assert product(I, ideal_of(zb)) == I

    def test_conductor_identity(self, K, zb, I, R):
        # I * (Z[b] : I) equals the conductor (Z[b] : R) of its ring
        inv = colon(zb, I)
        left = product(I, ideal_of(inv))
        cond = colon(zb, R.as_ideal())
        assert ZLattice(K, left.denom, left.cols) == ZLattice(K, cond.denom, cond.cols)

    def test_colon_chain_collapses(self, K, zb, I, J):
        # (Z[b] : I·(Z[b]:I)) = C((Z[b]:I)) = C(I)
        for L in (I, J):
            inv = colon(zb, L)
            left = colon(zb, product(L, ideal_of(inv)))
            mid = coefficient_ring(ideal_of(inv))
            right = coefficient_ring(L)
            assert ZLattice(K, left.denom, left.cols) == ZLattice(K, mid.denom, mid.cols)
            assert mid == right


class TestCoefficientRing:
    def test_of_zbeta(self, K, zb):
        assert coefficient_ring(ideal_of(zb)) == zb

    def test_of_the_example_ideals(self, I, J, R):
        assert coefficient_ring(I) == R
        assert coefficient_ring(J) == R

    def test_j_inverse_is_its_own_ring(self, K, zb, J):
        inv = colon(zb, J)
        c = coefficient_ring(ideal_of(inv))
        assert ZLattice(K, c.denom, c.cols) == ZLattice(K, inv.denom, inv.cols)

    def test_always_an_order(self, K, rng):
        for _ in range(10):
            gens = [
                K.element([rng.randint(-6, 6) for _ in range(3)]) for _ in range(2)
            ]
            if all(g.is_zero() for g in gens):
                continue
            L = fractional_ideal(K, gens, module_closure=True)
            ring = coefficient_ring(L)
            assert isinstance(ring, Order)
            assert ring.contains_element(K.one())


class TestInvertibility:
    def test_example_pair(self, I, J, R, zb):
        assert is_invertible(I, R)
        assert not is_invertible(I, zb)
        assert not is_invertible(J, zb)
        assert not is_invertible(J, R)

    def test_product_with_inverse_hits_the_ring(self, K, I, R):
        inv = colon(R, I)
        assert product(I, ideal_of(inv)) == R.as_ideal()

    def test_j_falls_short_of_its_ring(self, K, J, R):
        inv = colon(R, J)
        got = product(J, ideal_of(inv))
        ring_lattice = R.as_ideal()
        assert ring_lattice.contains_lattice(got)
        assert got != ring_lattice

    def test_principal_always_invertible(self, K, R, rng):
        for _ in range(10):
            coords = [rng.randint(-5, 5) for _ in range(3)]
            if not any(coords):
                continue
            z = K.element(coords)
            assert is_invertible(R.as_ideal().scaled(z), R)

    def test_divisoriality(self, I, J, R, zb):
        # every fractional Z[b]-ideal is divisorial over Z[b] ...
        assert is_divisorial(I, zb)
        assert is_divisorial(J, zb)
        # ... but J is not divisorial over its own coefficient ring
        assert not is_divisorial(J, R)

    @pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
    @pytest.mark.parametrize("poly", ("x^2-12",) + NON_GORENSTEIN_FIELDS)
    def test_orders_over_every_order(self, poly, debug, monkeypatch):
        # An order S is an R-module only when R ⊆ S, so it is invertible
        # over R only when S = R, though S·(R:S) = R for every S ⊊ R.
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", debug)
        nodes = enumerate_order_lattice(NumberField(poly)).nodes
        for s in nodes:
            for r in nodes:
                assert is_invertible(s, r) == (s == r)

    def test_zbeta_ring_needs_no_power_evaluation(self, K, zb, monkeypatch):
        # Z[b] ⊆ C(I) for every b-stable I, so R ⊆ C(I) forms no C(I)
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
        counter = CallCounter(ideals._power_ring)
        monkeypatch.setattr(ideals, "_power_ring", counter)
        principal = ideal_of(zb.scaled(K.element([2, 1, 0])))
        assert principal != zb and is_invertible(principal, zb)
        assert counter.calls == 0
        assert coefficient_ring(principal) == zb

    @pytest.mark.parametrize("poly", ("x^2-12",) + NON_GORENSTEIN_FIELDS)
    def test_containment_reads_the_kept_coefficient_ring(self, poly, monkeypatch):
        # coefficient_ring(I) then is_invertible(I, C(I)): C(I) is formed
        # once, kept by I's b-action, and no g(X) is evaluated
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
        counters = {"_power_ring": CallCounter(ideals._power_ring),
                    "eval_at_power_table": CallCounter(exactmat.eval_at_power_table)}
        for module in [m for name, m in sys.modules.items() if name.startswith("bftorus")]:
            for name, counter in counters.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counter)
        for node in enumerate_order_lattice(NumberField(poly)).nodes:
            ideal = FractionalIdeal(node.field, node.denom, node.cols)  # a fresh slot
            for counter in counters.values():
                counter.calls = 0
            ring = coefficient_ring(ideal)
            assert ring == node and is_invertible(ideal, ring)
            assert {name: c.calls for name, c in counters.items()} == {
                "_power_ring": 1, "eval_at_power_table": 0}

    def test_lattice_that_is_not_b_stable_raises(self):
        # span{1, 2b} in Q(b), b² = 12, over Z[b] and over Z[√3] = Z[b/2]
        field = NumberField("x^2-12")
        lattice = ZLattice(field, 1, [[1, 0], [0, 2]])
        for ring in (zbeta(field), Order(field, 2, [[2, 0], [0, 1]])):
            with pytest.raises(NotASublattice, match="not stable under multiplication by b"):
                is_invertible(lattice, ring)


class TestTraceDual:
    def test_dual_of_zbeta(self, K, zb):
        # Z[b]^* = (1/p'(b)) Z[b]
        dual = trace_dual(ideal_of(zb))
        pprime = K.from_poly([7, -46, 3])
        assert dual.scaled(pprime) == ideal_of(zb)

    def test_dual_pairing_is_integral(self, K, zb):
        dual = trace_dual(ideal_of(zb))
        for x in dual.basis_elements():
            for y in zb.basis_elements():
                t = (x * y).trace()
                assert t.denominator == 1

    def test_prop10_dual_vs_colon(self, K, zb, I, J):
        # p'(b) I^* = (Z[b] : I)
        pprime = K.from_poly([7, -46, 3])
        for L in (I, J):
            lhs = trace_dual(L).scaled(pprime)
            rhs = colon(zb, L)
            assert ZLattice(K, lhs.denom, lhs.cols) == ZLattice(K, rhs.denom, rhs.cols)

    def test_double_dual_fixed_points(self, I, J, zb):
        assert trace_dual(trace_dual(I)) == I
        assert trace_dual(trace_dual(J)) == J
        assert trace_dual(trace_dual(ideal_of(zb))) == ideal_of(zb)


class TestQuotientGroup:
    def test_trivial_self_quotient(self, I):
        assert quotient_group(I, I).is_trivial()

    def test_scalar_quotient_of_zbeta(self, zb):
        q = quotient_group(ideal_of(zb), ideal_of(zb).scaled(5))
        assert q == AbelianGroup(0, [5, 5, 5])

    def test_requires_containment(self, I, R):
        with pytest.raises(NotASublattice):
            quotient_group(I, R.as_ideal())

    def test_order_equals_norm(self, K, I, rng):
        for _ in range(40):
            coords = [rng.randint(-5, 5) for _ in range(3)]
            if not any(coords):
                continue
            alpha = K.element(coords)
            q = quotient_group(I, I.scaled(alpha))
            assert q.order() == abs(oracle_norm(alpha))

    def test_unit_scaling_gives_trivial_quotient(self, K, I):
        # beta is a unit (p(0) = -1), so I/(b I) has order |N(b)| = 1
        assert quotient_group(I, I.scaled(K.beta())).is_trivial()

    def test_first_and_last_invariants_match_the_ring(self, K, I, R, rng):
        # For alpha in R = C(I), the chains of I/alpha I and R/alpha R
        # agree at both ends (all n invariant factors, counting ones).
        def chain(q, n):
            t = list(q.torsion)
            return [1] * (n - len(t)) + t

        trials = 0
        while trials < 25:
            coords = [rng.randint(-4, 4) for _ in range(3)]
            alpha = sum(
                (c * e for c, e in zip(coords, R.basis_elements())), K.zero()
            )
            if alpha.is_zero():
                continue
            trials += 1
            ki = chain(quotient_group(I, I.scaled(alpha)), 3)
            li = chain(quotient_group(R.as_ideal(), R.as_ideal().scaled(alpha)), 3)
            assert ki[0] == li[0]
            assert ki[-1] == li[-1]


class TestLibraryBuiltLattices:
    # Lattices formed from the library's own integers take one canonical
    # path, ZLattice._canonical, with no re-validation; under debug
    # assertions each is rebuilt through the validating constructor.
    def test_products_sums_and_duals_skip_revalidation(self, I, J, R, monkeypatch):
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
        calls = count_validations(monkeypatch)
        out = [product(I, J), lattice_sum(I, J), trace_dual(I), intersect(I, J), product(R, J)]
        assert calls == []
        assert [type(x) for x in out] == [FractionalIdeal] * 5
        assert type(lattice_sum(ZLattice(I.field, 1, I7_COLS), J)) is ZLattice

    def test_debug_assertions_rebuild_through_the_constructor(self, I, J, monkeypatch):
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
        calls = count_validations(monkeypatch)
        product(I, J)
        assert calls == [FractionalIdeal]

    def test_debug_check_catches_a_false_proof(self, monkeypatch):
        # span{1, (1 + b)/2} in Q(√2) is not b-stable, so it is no order
        field = NumberField("x^2-2")
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
        assert Order._canonical(field, 2, [[2, 0], [1, 1]]).cols == ((2, 0), (1, 1))
        monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
        with pytest.raises(NotASublattice, match="not stable"):
            Order._canonical(field, 2, [[2, 0], [1, 1]])


class TestLatticeOps:
    def test_sum_is_least_upper_bound(self, I, J):
        s = lattice_sum(I, J)
        assert s.contains_lattice(I)
        assert s.contains_lattice(J)

    def test_intersection_is_greatest_lower_bound(self, I, J):
        t = intersect(I, J)
        assert I.contains_lattice(t)
        assert J.contains_lattice(t)

    def test_modular_inclusion(self, I, J):
        # (I + J)(I ∩ J) ⊆ I J
        lhs = product(ideal_of(lattice_sum(I, J)), ideal_of(intersect(I, J)))
        assert product(I, J).contains_lattice(lhs)

    def test_product_with_principal(self, K, I):
        z = K.element([2, 1, 0])
        assert product(I, ideal_of(ZLattice(K, 1, I7_COLS)).scaled(z)) == product(
            I, ideal_of(ZLattice(K, 1, I7_COLS))
        ).scaled(z)

    def test_containment_via_index(self, K, zb):
        big = ideal_of(zb)
        small = big.scaled(3)
        assert small.index_in(big) == 27
        with pytest.raises(NotASublattice):
            big.index_in(small)

