"""Exact integer matrix operations: SNF/HNF wrappers, char poly, dets,
and everything read off one power table, against the former algorithms
(Faddeev-LeVerrier, Horner, repeated squaring) kept as oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bftorus.config as config
import bftorus.exactmat as exactmat
from bftorus.errors import NonIntegralResult, SingularMatrix
from bftorus.exactmat import (
    _adjugate_b0,
    _integer_inverse,
    char_poly,
    det,
    eval_at_power_table,
    eval_poly_at_matrix,
    hermite_normal_form,
    identity_matrix,
    kernel_mod_m,
    mat_pow,
    mat_vec,
    power_table,
    powers_and_char_poly,
    rational_inverse,
    smith_normal_form,
    transpose,
)
from bftorus.polyring import IntPoly, RatPoly

from util import (
    EX1_A,
    P_CUBIC,
    mat_mul,
    oracle_adjugate,
    oracle_char_poly,
    oracle_det,
    oracle_faddeev_leverrier,
    oracle_horner,
    oracle_inverse,
    oracle_mat_pow_squaring,
    random_unimodular_pair,
)
from util import mat_pow as oracle_mat_pow


def test_snf_of_a_minus_identity():
    a = [[EX1_A[i][j] - (i == j) for j in range(3)] for i in range(3)]
    snf = smith_normal_form(a)
    assert snf.diagonal == [1, 1, 16]
    assert mat_mul(mat_mul(snf.U, a), snf.V) == snf.D


def test_snf_of_zero_matrix():
    d, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]
    assert u == [[1, 0], [0, 1]]
    assert v == [[1, 0], [0, 1]]


def test_snf_random_roundtrip(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        snf = smith_normal_form(a)
        assert mat_mul(mat_mul(snf.U, a), snf.V) == snf.D
        prod = 1
        for x in snf.diagonal:
            prod *= x
        assert prod == abs(oracle_det(a))


def test_det_of_worked_matrix():
    # (-1)^3 * p(0) with p(0) = -1
    assert det(EX1_A) == 1
    assert det([[2, 0], [0, 3]]) == 6


def test_hnf_of_identity():
    h = hermite_normal_form(identity_matrix(4))
    assert h.H == identity_matrix(4)
    assert h.T == identity_matrix(4)


def test_kernel_mod_2_of_zero_matrix():
    basis = kernel_mod_m([[0, 0], [0, 0]], 2)
    assert len(basis) == 2


def test_kernel_mod_m_members(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.choice((2, 3, 4, 5, 6))
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        for vec in kernel_mod_m(a, m):
            image = mat_vec(a, vec)
            assert all(e % m == 0 for e in image)


def test_char_poly_against_cofactor_expansion(rng):
    assert char_poly(EX1_A).coeffs == tuple(P_CUBIC)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        assert list(char_poly(a).coeffs) == oracle_char_poly(a)


def test_char_poly_similarity_invariant(rng):
    for _ in range(25):
        n = rng.randint(2, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        p, pinv = random_unimodular_pair(rng, n)
        b = mat_mul(mat_mul(p, a), pinv)
        assert char_poly(a) == char_poly(b)


def test_cayley_hamilton(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        z = eval_poly_at_matrix(char_poly(a), a)
        assert z == [[0] * n for _ in range(n)]


def test_char_poly_adjugate_against_cofactors(rng):
    # adj(xI - A) = sum_k x^k B_k; at x = 0 that is adj(-A) = (-1)^(n-1) adj(A).
    for _ in range(25):
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        p, adj = oracle_faddeev_leverrier(a)
        assert p == oracle_char_poly(a)
        assert len(adj) == n and adj[n - 1] == identity_matrix(n)
        sign = (-1) ** (n - 1)
        assert adj[0] == [[sign * e for e in row] for row in oracle_adjugate(a)]
        for k in range(1, n):
            step = mat_mul(a, adj[k])
            for i in range(n):
                step[i][i] += p[k]
            assert step == adj[k - 1]
        # the library reads p and B_0 = adj(-A) off the power table
        table, got = powers_and_char_poly(a)
        assert list(got.coeffs) == p
        assert _adjugate_b0(table, got) == adj[0]


def test_power_table_matches_horner(rng):
    from fractions import Fraction

    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        table = power_table(a)
        d = rng.choice((1, 1, 2, 3, 4))
        r = tuple(rng.randint(-9, 9) * rng.choice((1, d)) for _ in range(n))
        g = RatPoly([Fraction(c, d) for c in r])
        try:
            want = oracle_horner(g.coeffs, a)
        except NonIntegralResult:
            with pytest.raises(NonIntegralResult):
                eval_at_power_table(table, d, r)
            with pytest.raises(NonIntegralResult):
                eval_poly_at_matrix(g, a)
            continue
        assert eval_at_power_table(table, d, r) == want
        assert eval_poly_at_matrix(g, a) == want


def test_eval_poly_rational_coefficients():
    from fractions import Fraction

    half_x = RatPoly([0, Fraction(1, 2)])
    assert eval_poly_at_matrix(half_x, [[2, 4], [6, 8]]) == [[1, 2], [3, 4]]
    with pytest.raises(NonIntegralResult):
        eval_poly_at_matrix(half_x, [[1, 0], [0, 2]])


def test_eval_poly_constant_and_identity():
    a = [[3, 1], [0, 2]]
    assert eval_poly_at_matrix(IntPoly([5]), a) == [[5, 0], [0, 5]]
    assert eval_poly_at_matrix(IntPoly([0, 1]), a) == a


def test_rational_inverse():
    inv = rational_inverse([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]]
    with pytest.raises(SingularMatrix):
        rational_inverse([[1, 2], [2, 4]])


def test_rational_inverse_random(rng):
    from fractions import Fraction

    for _ in range(20):
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if oracle_det(a) == 0:
            continue
        inv = rational_inverse(a)
        prod = [
            [sum(Fraction(a[i][t]) * inv[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_mat_pow_and_transpose():
    a = [[1, 1], [0, 1]]
    assert mat_pow(a, 5) == [[1, 5], [0, 1]]
    assert mat_pow(a, 0) == [[1, 0], [0, 1]]
    assert transpose([[1, 2], [3, 4]]) == [[1, 3], [2, 4]]


@pytest.mark.parametrize("entry", [1.9, 2.0, "2", Fraction(2), Fraction(3, 2)])
def test_non_integer_entries_rejected(entry):
    # never truncated: det([[1.9, 0], [0, 2.7]]) must not be 2
    m = [[entry, 0], [0, 1]]
    with pytest.raises(TypeError):
        det(m)
    with pytest.raises(TypeError):
        power_table(m)
    with pytest.raises(TypeError):
        eval_poly_at_matrix(RatPoly([0, 1]), m)


@pytest.mark.parametrize("m", [4.0, 2.5, "4", Fraction(4)])
def test_kernel_mod_m_rejects_non_integer_modulus(m):
    with pytest.raises(TypeError):
        kernel_mod_m([[1, 2], [3, 4]], m)


# ---------------------------------------------------------------------
# one power table: properties against the former algorithms

SEEDS = st.integers(0, 2**32 - 1)


def _sample(rng, n):
    """A random n x n matrix, often singular, nilpotent or with a
    reducible char poly: block triangular, strictly upper triangular,
    or with a repeated row."""
    a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 1 and n > 1:
        a[-1] = list(a[0])
    elif kind == 2:
        a = [[e if j > i else 0 for j, e in enumerate(row)] for i, row in enumerate(a)]
    elif kind == 3 and n > 1:
        k = rng.randint(1, n - 1)
        for i in range(k, n):
            a[i][:k] = [0] * k
    return a


@pytest.fixture(params=[False, True], ids=["plain", "debug"])
def debug_mode(request, monkeypatch):
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", request.param)


@settings(max_examples=120, deadline=None)
@given(SEEDS, st.integers(0, 6))
def test_newton_char_poly_against_cofactors(seed, n):
    a = _sample(random.Random(seed), n)
    want = oracle_char_poly(a) if n else [1]
    assert list(char_poly(a).coeffs) == want
    if n:
        assert oracle_faddeev_leverrier(a)[0] == want


@pytest.mark.parametrize("n", range(7))
def test_char_poly_with_cayley_hamilton_check(n, debug_mode):
    rng = random.Random(n)
    for _ in range(10):
        a = _sample(rng, n)
        assert list(char_poly(a).coeffs) == (oracle_char_poly(a) if n else [1])


def test_cayley_hamilton_check_is_live(monkeypatch):
    # a char poly whose x coefficient is off by one gives B_0 + I, and
    # A·(B_0 + I) = -c_0·I + A is caught
    monkeypatch.setattr(config, "_DEBUG_ASSERTS", True)
    monkeypatch.setattr(exactmat, "IntPoly", lambda c: IntPoly([c[0], c[1] + 1, *c[2:]]))
    with pytest.raises(AssertionError, match=r"p\(A\) != 0"):
        char_poly(EX1_A)


@settings(max_examples=120, deadline=None)
@given(SEEDS, st.integers(0, 5), st.integers(0, 40))
def test_mat_pow_against_oracles(seed, n, k):
    a = _sample(random.Random(seed), n)
    got = mat_pow(a, k)
    assert got == oracle_mat_pow(a, k)
    assert got == oracle_mat_pow_squaring(a, k)


def test_mat_pow_edge_cases():
    assert mat_pow([], 0) == mat_pow([], 7) == []
    assert mat_pow([[3]], 0) == [[1]] and mat_pow([[-3]], 5) == [[-243]]
    assert mat_pow([[0]], 0) == [[1]] and mat_pow([[0]], 3) == [[0]]
    assert mat_pow([[0, 1], [0, 0]], 0) == [[1, 0], [0, 1]]
    assert mat_pow([[0, 1], [0, 0]], 2) == [[0, 0], [0, 0]]
    a = [[2, 1, 0], [1, 1, 1], [0, 1, -1]]
    assert mat_pow(a, 300) == oracle_mat_pow_squaring(a, 300)
    with pytest.raises(ValueError, match="negative matrix power"):
        mat_pow(a, -1)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 5))
def test_integer_inverse_against_gauss_jordan(seed, n):
    rng = random.Random(seed)
    a = random_unimodular_pair(rng, n)[0] if n > 1 and rng.random() < 0.5 else _sample(rng, n)
    if n and oracle_det(a) == 0:
        with pytest.raises(SingularMatrix):
            _integer_inverse(a)
        return
    m, d = _integer_inverse(a)
    assert all(type(e) is int for row in m for e in row) and d != 0
    assert [[Fraction(e, d) for e in row] for row in m] == oracle_inverse(a)
    if n:
        p, adj = oracle_faddeev_leverrier(a)
        assert (m, d) == (adj[0], -p[0])


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 5))
def test_eval_poly_at_matrix_against_horner(seed, n):
    rng = random.Random(seed)
    a = _sample(rng, n)
    coeffs = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(0, 9))]
    try:
        want = oracle_horner(coeffs, a)
    except NonIntegralResult:
        with pytest.raises(NonIntegralResult, match="evaluated at the matrix is not integral"):
            eval_poly_at_matrix(RatPoly(coeffs), a)
    else:
        assert eval_poly_at_matrix(RatPoly(coeffs), a) == want
