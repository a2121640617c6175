"""Coefficient rings and invertibility from Krylov determinants.

``ideals._power_ring`` reads the ring {g : g(X) integral} modulo
m = gcd_j det K_(e_j), K_u = [u, X·u, ..., X^(n-1)·u], and
``ideals._locally_cyclic`` answers [R : I·(R:I)] = 1 when the indices
|det K_u| / [R : Z[b]] have gcd 1.  These tests check the ring against
the plain dual of every entry vector (``util.oracle_power_ring``) and
every "locally cyclic" answer, and every index of
``ideals._invertibility_index``, against the exact index from the
Fraction colon (``util.oracle_invertibility_index``).  The ideal of A
carries A's ``ideals._Action`` in its slot: it must answer as a fresh
ideal with the same basis, solve for its b-action at most once, and
form each det K_(e_j) once for both the ring and the index.
"""

import functools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bftorus.config as config
import bftorus.exactmat as exactmat
import bftorus.ideals as ideals
import bftorus.invariants as inv
from bftorus.errors import BudgetExceeded
from bftorus.exactmat import char_poly
from bftorus.ideals import (
    FractionalIdeal,
    _Action,
    _invertibility_index,
    _locally_cyclic,
    _power_ring,
    coefficient_ring,
    is_invertible,
    trace_dual,
    zbeta,
)
from bftorus.invariants import bf_refute, ideal_to_matrix, l_equivalent, matrix_to_ideal
from bftorus.numberfield import NumberField
from bftorus.orders import enumerate_order_lattice
from bftorus.polyring import is_irreducible

from util import (
    EX1_B,
    EX2_M,
    I48,
    NON_GORENSTEIN_FIELDS,
    R48,
    CallCounter,
    mat_mul,
    noninvertible_ideal,
    oracle_bf_refute,
    oracle_invertibility_index,
    oracle_power_ring,
    power_table,
    random_unimodular_pair,
    random_unit_irreducible_matrix,
)


def _index(ideal, ring):
    """``_invertibility_index`` of an ideal over an order R inside C(I),
    from the powers of its b-action matrix."""
    return _invertibility_index(_Action(power_table(ideal_to_matrix(ideal))), ring, lambda: ideal)


def _random_matrix(rng, n):
    """A matrix with irreducible char poly and one entry scaled by 2..4,
    which often leaves Z[b] below the coefficient ring."""
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        a[rng.randrange(n)][rng.randrange(n)] *= rng.randint(2, 4)
        p = char_poly(a)
        try:
            if p.coeffs[0] and is_irreducible(p):
                return a, NumberField(p)
        except BudgetExceeded:
            pass


@pytest.fixture(params=[False, True], ids=["plain", "debug"])
def debug_mode(request, monkeypatch):
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", request.param)
    return request.param


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_krylov_ring_is_the_plain_dual(seed, n):
    a, field = _random_matrix(random.Random(seed), n)
    table = power_table(a)
    ring = _power_ring(field, _Action(table))
    expected = oracle_power_ring(field, table)
    assert (ring.denom, ring.cols) == (expected.denom, expected.cols)
    transposed = _power_ring(field, _Action(power_table([list(c) for c in zip(*a)])))
    assert transposed == ring


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_locally_cyclic_means_invertible(seed, n):
    a, field = _random_matrix(random.Random(seed), n)
    action = _Action(power_table(a))
    ring = _power_ring(field, action)
    ideal = matrix_to_ideal(a)
    exact = oracle_invertibility_index(ideal, ring)
    if _locally_cyclic(action, ring):
        assert exact == 1
    assert _index(ideal, ring) == exact


def test_r48_is_cyclic_and_i48_is_not(debug_mode):
    field = NumberField("x^4-48")
    for a, cyclic, index in ((R48, True, 1), (I48, False, 2)):
        action = _Action(power_table(a))
        ring = _power_ring(field, action)
        assert ring != zbeta(field)
        assert [str(z) for z in ring.basis_elements()] == ["1", "b", "(1/2)b^2", "(1/4)b^3"]
        assert _locally_cyclic(action, ring) is cyclic
        ideal = matrix_to_ideal(a)
        assert _index(ideal, ring) == index
        assert oracle_invertibility_index(ideal, ring) == index


@functools.lru_cache(maxsize=None)
def _orders(poly):
    return enumerate_order_lattice(NumberField(poly)).nodes


@pytest.mark.parametrize("poly", ["x^4-48", "x^3-54", "x^2-12"])
def test_index_over_orders_that_are_not_the_ring(poly, debug_mode):
    # [R : S·(R:S)] for every pair of orders with R inside C(S) = S; the
    # pairs with R not inside S are is_invertible's (test_ideals).
    nodes = _orders(poly)
    for s in nodes:
        for r in nodes:
            if s.contains_lattice(r):
                ideal = s.as_ideal()
                assert _index(ideal, r) == oracle_invertibility_index(ideal, r)


def test_bf_refute_answers_locally_cyclic_pairs_without_the_ideals(monkeypatch):
    # R48 and a conjugate: both ideals are R itself up to scaling, R is
    # not Z[b], and F > 1, so only the Krylov test stands between the
    # pair and a colon.
    rng = random.Random(48)
    p, q = random_unimodular_pair(rng, 4)
    b = mat_mul(mat_mul(p, R48), q)
    expected = oracle_bf_refute(R48, b, 2)
    assert expected.kind == "inconclusive"
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    calls = []
    real = inv._ideal_in
    monkeypatch.setattr(inv, "_ideal_in", lambda *args: calls.append(args) or real(*args))
    assert bf_refute(R48, b, 2) == expected
    assert calls == []


def test_ring_of_the_ideal_is_unchanged_by_the_modulus(debug_mode):
    # coefficient_ring shares _power_ring; its debug check compares with
    # colon(I, I)
    field = NumberField("x^4-48")
    for node in _orders("x^4-48"):
        assert coefficient_ring(node.as_ideal()) == node
        assert _power_ring(field, _Action(power_table(ideal_to_matrix(node)))) == node


@functools.lru_cache(maxsize=None)
def _non_gorenstein_orders(poly):
    return [r for r in _orders(poly) if not is_invertible(trace_dual(r.as_ideal()), r)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((None,) + NON_GORENSTEIN_FIELDS))
def test_the_carried_action_answers_as_a_fresh_ideal(seed, poly):
    # I = matrix_to_ideal(A) carries A's power table; J, the same lattice
    # built by the validating constructor, carries no table.  A is a
    # random unit matrix, or the b-action of a non-invertible ideal over a
    # non-Gorenstein order, where is_invertible goes on to the colon.
    rng = random.Random(seed)
    if poly is None:
        a, _ = random_unit_irreducible_matrix(rng, sizes=(2, 3, 4))
    else:
        a = ideal_to_matrix(noninvertible_ideal(rng, rng.choice(_non_gorenstein_orders(poly))))
    i = matrix_to_ideal(a)
    j = FractionalIdeal(i.field, i.denom, i.cols)
    assert (i, hash(i), i.to_json_dict(), repr(i)) == (j, hash(j), j.to_json_dict(), repr(j))
    ring = coefficient_ring(i)
    assert ring == coefficient_ring(j)
    zb = zbeta(i.field)
    assert is_invertible(i, ring) == is_invertible(j, ring)
    assert is_invertible(i, zb) == is_invertible(j, zb)
    assert ideal_to_matrix(i) == ideal_to_matrix(j)
    assert trace_dual(i) == trace_dual(j)


def _conjugate(a, seed):
    p, q = random_unimodular_pair(random.Random(seed), len(a))
    return mat_mul(mat_mul(p, a), q)


@pytest.mark.parametrize("a", [R48, I48, EX1_B, EX2_M], ids=["R48", "I48", "EX1_B", "EX2_M"])
def test_dictionary_sequence_solves_for_the_b_action_once(a, monkeypatch):
    # the six calls of the benchmark's dictionary task: only
    # ideal_to_matrix solves for the b-action on the canonical basis, and
    # every power table but the matrices' own is A's, handed over
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    solves = CallCounter(ideals._beta_action)
    monkeypatch.setattr(ideals, "_beta_action", solves)
    callers = []
    real = exactmat._power_table

    def counting(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(m)

    for module in (exactmat, ideals):
        monkeypatch.setattr(module, "_power_table", counting)
    b = _conjugate(a, 7)
    ideal = matrix_to_ideal(a)
    ring = coefficient_ring(ideal)
    is_invertible(ideal, ring)
    trace_dual(ideal)
    assert ideal_to_matrix(ideal) == ideal_to_matrix(FractionalIdeal(ideal.field, ideal.denom, ideal.cols))
    assert l_equivalent(a, b).kind == "L-equivalent"
    # the fresh ideal's ideal_to_matrix is its _validate's solve
    assert solves.calls == 2
    assert callers == ["powers_and_char_poly"] * 3


@pytest.mark.parametrize("poly", NON_GORENSTEIN_FIELDS)
def test_ring_and_index_share_their_krylov_determinants(poly, monkeypatch):
    # coefficient_ring(I) then is_invertible(I, C(I)) forms no Krylov
    # determinant twice, for ideals that carry A's table and for those
    # that form their own
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    formed = []
    real = ideals.det_bareiss
    monkeypatch.setattr(ideals, "det_bareiss", lambda rows: formed.append(
        tuple(map(tuple, rows))) or real(rows))
    rng = random.Random(poly)
    for order in _orders(poly):
        for ideal in (order.as_ideal(), noninvertible_ideal(rng, order)):
            for lattice in (ideal, matrix_to_ideal(ideal_to_matrix(ideal))):
                formed.clear()
                ring = coefficient_ring(lattice)
                is_invertible(lattice, ring)
                assert formed and len(set(formed)) == len(formed)
