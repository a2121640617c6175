"""Exact integer matrix operations: SNF/HNF wrappers, char poly, dets."""

from fractions import Fraction

import pytest

from bftorus.errors import NonIntegralResult, SingularMatrix
from bftorus.exactmat import (
    char_poly,
    char_poly_adjugate,
    det,
    eval_at_power_table,
    eval_poly_at_matrix,
    hermite_normal_form,
    identity_matrix,
    kernel_mod_m,
    mat_pow,
    mat_vec,
    power_table,
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
    random_unimodular_pair,
)


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
        p, adj = char_poly_adjugate(a)
        assert list(p.coeffs) == oracle_char_poly(a)
        assert len(adj) == n and adj[n - 1] == identity_matrix(n)
        sign = (-1) ** (n - 1)
        assert adj[0] == [[sign * e for e in row] for row in oracle_adjugate(a)]
        for k in range(1, n):
            step = mat_mul(a, adj[k])
            for i in range(n):
                step[i][i] += p.coeffs[k]
            assert step == adj[k - 1]


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
            want = eval_poly_at_matrix(g, a)
        except NonIntegralResult:
            with pytest.raises(NonIntegralResult):
                eval_at_power_table(table, d, r)
            continue
        assert eval_at_power_table(table, d, r) == want


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
