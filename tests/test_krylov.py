"""Coefficient rings and invertibility from Krylov determinants.

``ideals._power_ring`` reads the ring {g : g(X) integral} modulo
m = gcd_j det K_(e_j), K_u = [u, X·u, ..., X^(n-1)·u], and
``ideals._locally_cyclic`` answers [R : I·(R:I)] = 1 when the indices
|det K_u| / [R : Z[b]] have gcd 1.  These tests check the ring against
the plain dual of every entry vector (``util.oracle_power_ring``) and
every "locally cyclic" answer against the exact index from the Fraction
colon (``util.oracle_invertibility_index``).
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bftorus.config as config
import bftorus.invariants as inv
from bftorus.errors import BudgetExceeded
from bftorus.exactmat import char_poly, power_table
from bftorus.ideals import (
    _invertibility_index,
    _locally_cyclic,
    _power_ring,
    coefficient_ring,
    zbeta,
)
from bftorus.invariants import bf_refute, ideal_to_matrix, matrix_to_ideal
from bftorus.numberfield import NumberField
from bftorus.orders import enumerate_order_lattice
from bftorus.polyring import is_irreducible

from util import (
    I48,
    R48,
    mat_mul,
    oracle_bf_refute,
    oracle_invertibility_index,
    oracle_power_ring,
    random_unimodular_pair,
)


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
    ring = _power_ring(field, table)
    expected = oracle_power_ring(field, table)
    assert (ring.denom, ring.cols) == (expected.denom, expected.cols)
    transposed = _power_ring(field, power_table([list(c) for c in zip(*a)]))
    assert transposed == ring


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_locally_cyclic_means_invertible(seed, n):
    a, field = _random_matrix(random.Random(seed), n)
    table = power_table(a)
    ring = _power_ring(field, table)
    ideal = matrix_to_ideal(a)
    exact = oracle_invertibility_index(ideal, ring)
    if _locally_cyclic(table, ring):
        assert exact == 1
    assert _invertibility_index(ideal, ring) == exact


def test_r48_is_cyclic_and_i48_is_not(debug_mode):
    field = NumberField("x^4-48")
    for a, cyclic, index in ((R48, True, 1), (I48, False, 2)):
        table = power_table(a)
        ring = _power_ring(field, table)
        assert ring != zbeta(field)
        assert [str(z) for z in ring.basis_elements()] == ["1", "b", "(1/2)b^2", "(1/4)b^3"]
        assert _locally_cyclic(table, ring) is cyclic
        ideal = matrix_to_ideal(a)
        assert _invertibility_index(ideal, ring) == index
        assert oracle_invertibility_index(ideal, ring) == index


@functools.lru_cache(maxsize=None)
def _orders(poly):
    return enumerate_order_lattice(NumberField(poly)).nodes


@pytest.mark.parametrize("poly", ["x^4-48", "x^3-54", "x^2-12"])
def test_index_over_orders_that_are_not_the_ring(poly, debug_mode):
    # [R : S·(R:S)] for every pair of orders: where R is not inside C(S)
    # = S, the Krylov indices mean nothing and the exact path answers.
    nodes = _orders(poly)
    for s in nodes:
        for r in nodes:
            ideal = s.as_ideal()
            assert _invertibility_index(ideal, r) == oracle_invertibility_index(ideal, r)


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
        assert _power_ring(field, power_table(ideal_to_matrix(node))) == node
