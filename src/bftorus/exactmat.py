"""Exact integer matrix layer.

Matrices are plain lists of rows with ``int`` entries (arbitrary
precision; nothing here ever overflows or rounds).  They act on column
vectors from the left.  The two normal-form results carry their
unimodular transforms so callers can recover generators, not just
diagonal data.  A rational result (an inverse, g(A) for rational g) is
formed as an integer matrix over one denominator.
"""

import math
import operator
from fractions import Fraction
from typing import List, NamedTuple

from .config import debug_asserts_enabled
from .errors import NonIntegralResult, SingularMatrix
from .kernels import det_bareiss, hnf_cols, mat_mul_rows, snf_rows
from .polyring import IntPoly, RatPoly

IntMatrix = List[List[int]]


class SmithDecomposition(NamedTuple):
    D: IntMatrix
    U: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self):
        return [self.D[i][i] for i in range(len(self.D))]


class HermiteBasis(NamedTuple):
    H: IntMatrix
    T: IntMatrix


def copy_matrix(a) -> IntMatrix:
    """Validated copy: square, integer entries."""
    rows = [[int(e) for e in row] for row in a]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


def identity_matrix(n) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_vec(a, v):
    return [sum(e * x for e, x in zip(row, v)) for row in a]


def mat_pow(a, k) -> IntMatrix:
    """A**k for k >= 0 by repeated squaring."""
    if k < 0:
        raise ValueError("negative matrix power")
    n = len(a)
    out = identity_matrix(n)
    base = copy_matrix(a)
    while k:
        if k & 1:
            out = mat_mul_rows(out, base)
        k >>= 1
        if k:
            base = mat_mul_rows(base, base)
    return out


def det(a) -> int:
    return det_bareiss(copy_matrix(a))


def char_poly_adjugate(a):
    """(p, [B_0, ..., B_{n-1}]) with p = det(xI - A) and
    adj(xI - A) = sum_k x^k B_k, by the Faddeev-LeVerrier recurrence.

    B_{n-1} = I and B_{k-1} = A.B_k + c_k.I, where c_k is the x^k
    coefficient of p; everything is integer and the trace divisions are
    exact.  With debug assertions enabled the Cayley-Hamilton identity
    p(A) = 0 is verified on every call.
    """
    a = copy_matrix(a)
    n = len(a)
    if n == 0:
        return IntPoly([1]), []
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = identity_matrix(n)
    adj = [m]
    for k in range(1, n + 1):
        am = mat_mul_rows(a, m)
        tr = sum(am[i][i] for i in range(n))
        c, rem = divmod(-tr, k)
        if rem:
            raise AssertionError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = c
        for i in range(n):
            am[i][i] += c
        m = am
        adj.append(m)
    p = IntPoly(coeffs)
    if debug_asserts_enabled():
        z = eval_poly_at_matrix(p, a)
        assert all(all(e == 0 for e in row) for row in z), "p(A) != 0"
    # adj holds B_{n-1}, ..., B_0 and then A.B_0 + c_0.I = p(A) = 0.
    return p, adj[n - 1::-1]


def char_poly(a) -> IntPoly:
    """det(xI - A), all integer (see ``char_poly_adjugate``)."""
    return char_poly_adjugate(a)[0]


def _integer_inverse(a):
    """(M, D) with A⁻¹ = M/D, M integral: with p and B_0 = adj(-A) from
    ``char_poly_adjugate``, (-A)·B_0 = p(0)·I, so M = B_0 and D = -p(0).
    SingularMatrix when det A = 0."""
    p, adj = char_poly_adjugate(a)
    if not p.coeffs[0]:
        raise SingularMatrix("matrix is singular over Q")
    return (adj[0] if adj else []), -p.coeffs[0]


def rational_inverse(a):
    """Exact inverse as a Fraction matrix; SingularMatrix on det = 0."""
    m, d = _integer_inverse(a)
    return [[Fraction(e, d) for e in row] for row in m]


def _divided(m, d):
    """m/d entrywise for a positive integer d, or None on a remainder."""
    if d == 1:
        return m
    if any(e % d for row in m for e in row):
        return None
    return [[e // d for e in row] for row in m]


def eval_poly_at_matrix(g, a) -> IntMatrix:
    """g(A) for g over Q, exact; NonIntegralResult unless g(A) is integral.

    With d the least common denominator of g, Horner forms (d·g)(A) in
    integers and every entry must then be divisible by d.  Integrality
    of g(A) depends only on the conjugacy class of A, so a failure here
    is meaningful: g lies outside the ring of polynomials that are
    integral on this class.
    """
    a = copy_matrix(a)
    n = len(a)
    if not isinstance(g, RatPoly):
        g = g.to_rat() if isinstance(g, IntPoly) else RatPoly(g)
    d = math.lcm(*(c.denominator for c in g.coeffs))
    out = [[0] * n for _ in range(n)]
    for c in reversed(g.coeffs):
        out = mat_mul_rows(out, a)
        ci = c.numerator * (d // c.denominator)
        for i in range(n):
            out[i][i] += ci
    out = _divided(out, d)
    if out is None:
        raise NonIntegralResult(f"{g} evaluated at the matrix is not integral")
    return out


def power_table(a):
    """Entry (i, j) holds the tuple (A^0[i][j], ..., A^(n-1)[i][j]).

    By Cayley-Hamilton every g(A) is a polynomial in A of degree < n,
    so with the powers formed once, each g(A) is an integer linear
    combination of them (see ``eval_at_power_table``).
    """
    a = copy_matrix(a)
    n = len(a)
    powers = [identity_matrix(n), a][:n]
    while len(powers) < n:
        powers.append(mat_mul_rows(powers[-1], a))
    return [[tuple(pk[i][j] for pk in powers) for j in range(n)] for i in range(n)]


def eval_at_power_table(table, d, r) -> IntMatrix:
    """g(A) = (sum_k r_k A^k)/d from ``table = power_table(A)``.

    ``d`` is a positive integer and ``r`` an integer vector of length n;
    NonIntegralResult when some entry is not divisible by d.
    """
    out = _divided([[sum(map(operator.mul, r, e)) for e in row] for row in table], d)
    if out is None:
        raise NonIntegralResult("g(A) is not integral")
    return out


def smith_normal_form(a) -> SmithDecomposition:
    """U·A·V = D with d1 | d2 | ... | dn, d_i >= 0, U and V unimodular."""
    a = copy_matrix(a)
    n = len(a)
    diag, u, v = snf_rows(a)
    d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    if debug_asserts_enabled():
        assert mat_mul_rows(mat_mul_rows(u, a), v) == d, "U*A*V != D"
        assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1
        for i in range(n - 1):
            assert diag[i] >= 0 and (diag[i] == 0) <= (diag[i + 1] == 0)
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
    return SmithDecomposition(d, u, v)


def hermite_normal_form(a) -> HermiteBasis:
    """Column Hermite form A·T = H (zero columns leftmost, positive
    pivots, entries right of each pivot reduced into [0, pivot))."""
    a = copy_matrix(a)
    cols = [list(col) for col in zip(*a)] if a else []
    h, t = hnf_cols(cols, transform=True)
    hm = [list(row) for row in zip(*h)] if h else []
    tm = [list(row) for row in zip(*t)] if t else []
    if debug_asserts_enabled():
        assert mat_mul_rows(a, tm) == hm, "A*T != H"
        assert abs(det_bareiss(tm)) == 1
    return HermiteBasis(hm, tm)


def kernel_mod_m(a, m):
    """Generators of {x in (Z/m)^n : A·x = 0 mod m}.

    Computed from the Smith form: with U·A·V = D the kernel is spanned
    by the columns of V scaled by m/gcd(d_i, m).  Vectors that vanish
    mod m are dropped; the empty list means the kernel is trivial.
    """
    a = copy_matrix(a)
    m = int(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return []
    n = len(a)
    diag, _, v = snf_rows(a)
    out = []
    for i in range(n):
        scale = m // math.gcd(diag[i], m)
        vec = [v[r][i] * scale % m for r in range(n)]
        if any(vec):
            out.append(vec)
    return out
