"""bf_refute's pruned search against the unpruned oracle.

bf_refute skips the integral candidates g with gcd(det g(A), F) = 1,
F the square part of disc(p), answers at once when F = 1, and reads
the coefficient rings off the powers of A.  When both rings are one R,
F' = [R : I·(R:I)]·[R : J·(R:J)] takes the place of F, and F' = 1
answers at once.  These tests check that the verdict, witness, groups
and bound are those of ``util.oracle_bf_refute``, which evaluates every
candidate and takes the rings from the ideals, and that the skipped
work really is skipped.
"""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bftorus.config as config
import bftorus.invariants as inv
import bftorus.polyring as polyring
from bftorus.errors import BudgetExceeded, FactorizationIncomplete
from bftorus.ideals import (
    _invertibility_index,
    coefficient_ring,
    lattice_sum,
    trace_dual,
    zbeta,
)
from bftorus.invariants import (
    bf_certify,
    bf_refute,
    ideal_to_matrix,
    l_equivalent,
    strong_bf_refute,
)
from bftorus.numberfield import NumberField
from bftorus.orders import enumerate_order_lattice
from bftorus.polyring import is_irreducible

from util import (
    EX1_A,
    EX1_B,
    EX1_C,
    EX2_M,
    EX2_MP,
    I48,
    R48,
    companion,
    mat_mul,
    oracle_bf_refute,
    oracle_char_poly,
    random_unimodular_pair,
)

# (p, k) with p | x^k - 1, constant first: x^k - 1 is a candidate at
# bound k, and there g(A) = 0 on both sides.
CYCLOTOMIC = (
    ([1, 0, 1], 4),  # x^2+1, F = 2
    ([1, 1, 1], 3),  # x^2+x+1, F = 1
    ([1, -1, 1], 6),  # x^2-x+1, F = 1
    ([-1, 0, 0, 1], 3),  # x^3-1, reducible
    ([1, 1, 1, 1], 4),  # (x+1)(x^2+1), reducible
    ([-1, 0, 0, 0, 1], 4),  # x^4-1, reducible
)

# x^2-10x+34, disc = -36 = 6^2 * (-1): F = 6.  det(A - I) = 25 is prime
# to F, so x-1 is skipped; x^2-1 distinguishes.
F6_A = [[5, -3], [3, 5]]
F6_B = [[0, 1], [-34, 10]]

# x^2-x-1, disc = 5: F = 1.
F1_A = [[0, 1], [1, 1]]
F1_B = [[1, 1], [1, 0]]


def _transpose(a):
    return [list(c) for c in zip(*a)]


def _conjugate(rng, a):
    p, q = random_unimodular_pair(rng, len(a))
    return mat_mul(mat_mul(p, a), q)


def _pair(rng, kind, n):
    """(A, B, bound) with a common char poly, of the named kind."""
    if kind == "cyclotomic":
        p, k = rng.choice(CYCLOTOMIC)
        a = _conjugate(rng, companion(p))
        return a, rng.choice((companion(p), _transpose(a))), k
    a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    bound = rng.randint(1, 2)
    if kind == "reducible":
        a[n - 1][: n - 1] = [0] * (n - 1)  # block triangular: p has a linear factor
    if kind in ("companion", "reducible"):
        return a, companion(oracle_char_poly(a)), bound
    if kind == "transpose":
        return a, _transpose(a), bound
    return a, _conjugate(rng, a), bound


class _Counter:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(("companion", "transpose", "conjugate", "reducible", "cyclotomic")),
    st.integers(2, 4),
)
# char poly (x^2-4x+15)(x^2+3x-16), which the former coefficient-box
# factor search could not split within its budget
@example(seed=546868963, kind="companion", n=4)
def test_matches_unpruned_search(seed, kind, n):
    a, b, bound = _pair(random.Random(seed), kind, n)
    assert bf_refute(a, b, bound) == oracle_bf_refute(a, b, bound)


def test_worked_examples_match_unpruned_search():
    for a, b in ((EX1_A, EX1_B), (EX1_B, EX1_C), (EX1_A, EX1_C), (EX2_M, EX2_MP)):
        assert bf_refute(a, b, 2) == oracle_bf_refute(a, b, 2)


def test_factorization_fallback_keeps_verdicts(monkeypatch):
    rng = random.Random(0xBF7)
    pairs = [(F6_A, F6_B), (F1_A, F1_B), (EX1_B, EX1_C), (EX2_M, EX2_MP)]
    pairs += [_pair(rng, kind, 3)[:2] for kind in ("companion", "transpose") * 6]
    before = [bf_refute(a, b, 2) for a, b in pairs]

    def refuse(d):
        raise FactorizationIncomplete(f"cannot factor {d}")

    failing = _Counter(refuse)
    monkeypatch.setattr(inv, "square_part", failing)
    assert [bf_refute(a, b, 2) for a, b in pairs] == before
    assert failing.calls >= 4  # every irreducible pair took the |disc| path
    assert bf_refute(F1_A, F1_B, 2) == oracle_bf_refute(F1_A, F1_B, 2)


def test_irreducibility_budget_is_not_a_factorization_fallback(monkeypatch):
    # The budgeted irreducibility search of x^8+1 gives up (it needs
    # about a hundred factor values); that must reach the caller, not
    # pass for a reducible p or a failed factoring.
    monkeypatch.setattr(polyring, "IRREDUCIBILITY_SEARCH_BUDGET", 50)
    phi16 = companion([1, 0, 0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(BudgetExceeded):
        bf_refute(phi16, phi16, 1)


def test_shell_budget(monkeypatch):
    # (x-1)(x-2) is reducible, so every shell candidate is evaluated, and
    # a matrix never separates from itself.  The shells up to bound 3
    # hold 8 + 16 + 24 points.
    a = [[1, 1], [0, 2]]
    monkeypatch.setattr(inv, "REFUTE_SHELL_BUDGET", 48)
    assert bf_refute(a, a, 3) == oracle_bf_refute(a, a, 3)
    monkeypatch.setattr(inv, "REFUTE_SHELL_BUDGET", 47)
    with pytest.raises(BudgetExceeded, match="bound 3"):
        bf_refute(a, a, 3)
    # The witness x of this reducible pair is (0, 1), the fifth point of
    # the first shell: found with a budget of five, not with four.
    a, b = [[-2, -4], [0, -4]], [[0, 1], [-8, -6]]
    expected = oracle_bf_refute(a, b, 2)
    assert expected.witness == "x"
    monkeypatch.setattr(inv, "REFUTE_SHELL_BUDGET", 5)
    assert bf_refute(a, b, 2) == expected
    monkeypatch.setattr(inv, "REFUTE_SHELL_BUDGET", 4)
    with pytest.raises(BudgetExceeded):
        bf_refute(a, b, 2)
    # witnesses ahead of the shells need no budget at all
    monkeypatch.setattr(inv, "REFUTE_SHELL_BUDGET", 0)
    for x, y in ((EX1_A, EX1_B), (EX1_B, EX1_C), (EX2_M, EX2_MP), (R48, I48)):
        assert bf_refute(x, y, 4) == oracle_bf_refute(x, y, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shells_in_lexicographic_order(n):
    for radius in (1, 2, 3):
        cube = itertools.product(range(-radius, radius + 1), repeat=n)
        assert list(inv._shell(radius, n)) == [t for t in cube if max(map(abs, t)) == radius]


def test_square_free_discriminant_answers_at_once(monkeypatch):
    counters = {}
    for name in ("coefficient_ring", "matrix_to_ideal", "_matrix_ring", "snf_diag"):
        counters[name] = _Counter(getattr(inv, name))
        monkeypatch.setattr(inv, name, counters[name])
    rng = random.Random(0xBF1)
    for b in (F1_B, _transpose(F1_A), _conjugate(rng, F1_A)):
        v = bf_refute(F1_A, b, 3)
        assert v.kind == "inconclusive" and v.bound == 3
        assert strong_bf_refute(F1_A, b, 3).kind == "inconclusive"
    assert {name: c.calls for name, c in counters.items()} == dict.fromkeys(counters, 0)


def test_witness_after_a_skipped_candidate(monkeypatch):
    expected = oracle_bf_refute(F6_A, F6_B, 4)
    smith = _Counter(inv.snf_diag)
    monkeypatch.setattr(inv, "snf_diag", smith)
    v = bf_refute(F6_A, F6_B)
    assert v == expected
    assert v.witness == "x^2-1"
    assert v.groups == {"A": "Z15+Z75", "B": "Z5+Z225"}
    # second on the list, after x-1; only the witness took Smith forms
    p = inv.char_poly(F6_A)
    field = inv.NumberField(p)
    rings = [inv._matrix_ring(field, inv.power_table(m)) for m in (F6_A, F6_B)]
    listed = inv._refutation_candidates(p, rings, 4)
    assert [inv.format_poly(c) for _, _, c in listed][:2] == ["x-1", "x^2-1"]
    assert smith.calls == 2


@pytest.mark.parametrize("a", [F6_A, EX1_B])
def test_strong_refute_follows_the_pruned_search(a):
    b = companion(oracle_char_poly(a))
    first = oracle_bf_refute(a, b, 2)
    assert first.kind == "BF-distinguished"
    v = strong_bf_refute(a, b, 2)
    assert (v.kind, v.witness, v.groups) == ("strong-BF-refuted", first.witness, first.groups)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_ring_from_powers_is_the_coefficient_ring(seed, n):
    rng = random.Random(seed)
    while True:
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        p = inv.char_poly(a)
        if is_irreducible(p):
            break
    ring = inv._matrix_ring(inv.NumberField(p), inv.power_table(a))
    expected = inv.coefficient_ring(inv.matrix_to_ideal(a))
    assert (ring.denom, ring.cols) == (expected.denom, expected.cols)


# ---------------------------------------------------------------------
# equal coefficient rings

# Fields with a non-Gorenstein order: its trace dual has the same
# coefficient ring and is not invertible over it.
NON_GORENSTEIN_FIELDS = ("x^4-48", "x^4-8", "x^3-54", "x^3-3x^2-24x-1")


@functools.lru_cache(maxsize=None)
def _non_gorenstein_orders(poly):
    field = NumberField(poly)
    out = []
    for ring in enumerate_order_lattice(field).nodes:
        if _invertibility_index(trace_dual(ring.as_ideal()), ring) > 1:
            out.append(ring)
    assert out
    return out


def _noninvertible_ideal(rng, ring):
    """The trace dual of ``ring``, or a random two-generated ideal
    alpha·R + gamma·R whose ring is R and which is not invertible."""
    ideal = ring.as_ideal()
    els = ring.basis_elements()

    def element():
        return sum((e * rng.randint(-3, 3) for e in els), ring.field.zero())

    for _ in range(rng.randint(0, 20)):
        a, c = element(), element()
        if a.is_zero() or c.is_zero():
            continue
        got = lattice_sum(ideal.scaled(a), ideal.scaled(c)).as_ideal()
        if coefficient_ring(got) == ring and _invertibility_index(got, ring) > 1:
            return got
    return trace_dual(ideal)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(NON_GORENSTEIN_FIELDS),
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.booleans(),
)
def test_equal_rings_with_a_noninvertible_ideal(poly, seed, bound, swap):
    rng = random.Random(seed)
    ring = rng.choice(_non_gorenstein_orders(poly))
    a = _conjugate(rng, ideal_to_matrix(ring))
    b = _conjugate(rng, ideal_to_matrix(_noninvertible_ideal(rng, ring)))
    if swap:
        a, b = b, a
    expected = oracle_bf_refute(a, b, bound)
    smith = _Counter(inv.snf_diag)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inv, "snf_diag", smith)
        assert bf_refute(a, b, bound) == expected
    assert smith.calls > 0  # F' > 1: the search ran


@functools.lru_cache(maxsize=None)
def _orders(poly):
    return enumerate_order_lattice(NumberField(poly)).nodes


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(NON_GORENSTEIN_FIELDS + ("x^2-34x+1", "x^3-23x^2+7x-1")),
    st.integers(0, 2**32 - 1),
)
def test_certificates_are_never_refuted(poly, seed):
    # two conjugated ideals over one random order R: R itself, its trace
    # dual or a random two-generated ideal, invertible or not
    rng = random.Random(seed)
    ring = rng.choice(_orders(poly))
    a, b = (
        _conjugate(rng, ideal_to_matrix(rng.choice((ring, _noninvertible_ideal(rng, ring)))))
        for _ in range(2)
    )
    verdict = bf_certify(a, b)
    if verdict.kind in ("BF-certified", "strong-BF-certified"):
        assert oracle_bf_refute(a, b, 2).kind == "inconclusive"


def test_equal_rings_with_a_noninvertible_ideal_are_searched():
    assert l_equivalent(R48, I48).kind == "L-equivalent"
    v = bf_refute(R48, I48, 2)
    assert v == oracle_bf_refute(R48, I48, 2)
    assert (v.kind, v.witness) == ("BF-distinguished", "(1/2)x^2")
    assert v.groups == {"A": "Z2+Z6+Z12", "B": "Z12+Z12"}


@pytest.mark.parametrize("p", [[34, -10, 1], [-48, 0, 0, 0, 1], [-54, 0, 0, 1]])
def test_zbeta_rings_answer_without_a_search(monkeypatch, p):
    # A companion matrix and the transpose of a conjugate of it: both
    # ideals have the ring Z[b], and F > 1.
    rng = random.Random(0xBF10)
    a = companion(p)
    b = _transpose(_conjugate(rng, a))
    field = NumberField(inv.char_poly(a))
    assert inv._index_multiple(inv.char_poly(a)) > 1
    assert inv._matrix_ring(field, inv.power_table(b)) == zbeta(field)
    expected = oracle_bf_refute(a, b, 3)
    # debug checks rerun the full search and form the ideals on purpose
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", False)
    counters = {name: _Counter(getattr(inv, name)) for name in ("snf_diag", "_ideal_in")}
    for name, counter in counters.items():
        monkeypatch.setattr(inv, name, counter)
    v = bf_refute(a, b, 3)
    assert v == expected and v.kind == "inconclusive"
    assert {name: c.calls for name, c in counters.items()} == dict.fromkeys(counters, 0)
