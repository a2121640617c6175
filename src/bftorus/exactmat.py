"""Exact integer matrix layer.

Matrices are plain lists of rows with ``int`` entries (arbitrary
precision; nothing here ever overflows or rounds).  They act on column
vectors from the left.  The Smith form carries its unimodular
transforms so callers can recover generators, not just diagonal data.

Everything polynomial in A comes from one power table of A, the powers
A^0..A^(n-1) (``_power_table``).  By Cayley-Hamilton g(A) = r(A) for
r = g mod p, so the char poly p is read off the traces of the powers
(Newton's identities), A⁻¹ is a combination of them over p(0), A^k is
(x^k mod p)(A), and a rational g(A) is an integer matrix over one
denominator.
"""

import operator
from typing import List, NamedTuple

from .config import debug_asserts_enabled
from .errors import NonIntegralResult, SingularMatrix
from .kernels import det_bareiss, mat_mul_rows, snf_rows
from .polyring import IntPoly, RatPoly, _cleared, _int_divmod_monic

IntMatrix = List[List[int]]


class SmithDecomposition(NamedTuple):
    D: IntMatrix
    U: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self):
        return [self.D[i][i] for i in range(len(self.D))]


def copy_matrix(a) -> IntMatrix:
    """Validated copy: square, integer entries (``operator.index``, so a
    float, string or Fraction entry raises TypeError, never truncates)."""
    rows = [[operator.index(e) for e in row] for row in a]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


def identity_matrix(n) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det(a) -> int:
    return det_bareiss(copy_matrix(a))


def _power_table(a):
    """The power table of a matrix ``copy_matrix`` has already validated:
    entry (i, j) holds the tuple (A^0[i][j], ..., A^(n-1)[i][j]), the only
    place the powers of a matrix are formed.  By Cayley-Hamilton each g(A)
    is r(A) for r = g mod p, an integer combination of the entries
    (``eval_at_power_table``)."""
    powers = [identity_matrix(len(a)), a][:len(a)]
    while len(powers) < len(a):
        powers.append(mat_mul_rows(powers[-1], a))
    return [list(zip(*rows)) for rows in zip(*powers)]


def eval_at_power_table(table, d, r) -> IntMatrix:
    """g(A) = (sum_k r_k A^k)/d from ``table``, the power table of A, for a
    positive integer d and integers r_0..r_(n-1) (missing ones are 0);
    NonIntegralResult when some entry is not divisible by d."""
    out = [[sum(map(operator.mul, r, e)) for e in row] for row in table]
    if d == 1:
        return out
    if any(e % d for row in out for e in row):
        raise NonIntegralResult("g(A) is not integral")
    return [[e // d for e in row] for row in out]


def _adjugate_b0(table, p):
    """B_0 = sum_t c_(t+1)·A^t for p = sum_t c_t·x^t the char poly of A:
    A·B_0 = p(A) - c_0·I = -c_0·I, so B_0 = adj(-A)."""
    return eval_at_power_table(table, 1, p.coeffs[1:])


def powers_and_char_poly(a):
    """(the power table of A, det(xI - A)), the char poly read off the table.

    Newton's identities give the coefficients c_k of p from the power
    sums s_k = tr A^k: k·c_(n-k) = -sum_(i=1..k) c_(n-k+i)·s_i, with
    c_n = 1, every division exact.  The table holds s_1..s_(n-1), and
    s_n = tr(A^(n-1)·A) = sum_(i,j) A^(n-1)[i][j]·A[j][i] needs no
    further product.  With debug assertions enabled Cayley-Hamilton is
    verified as A·B_0 = -c_0·I (see ``_adjugate_b0``).
    """
    a = copy_matrix(a)
    n = len(a)
    table = _power_table(a)
    s = [sum(t) for t in zip(*(table[i][i] for i in range(n)))]
    s.append(sum(e[n - 1] * x for row, col in zip(table, zip(*a)) for e, x in zip(row, col)))
    c = [0] * n + [1]
    for k in range(1, n + 1):
        c[n - k], rem = divmod(-sum(c[n - k + i] * s[i] for i in range(1, k + 1)), k)
        if rem:
            raise AssertionError("Newton's identities: division was not exact")
    p = IntPoly(c)
    if debug_asserts_enabled():
        want = [[-c[0] * (i == j) for j in range(n)] for i in range(n)]
        assert mat_mul_rows(a, _adjugate_b0(table, p)) == want, "p(A) != 0"
    return table, p


def char_poly(a) -> IntPoly:
    """det(xI - A), all integer (see ``powers_and_char_poly``)."""
    return powers_and_char_poly(a)[1]


def _integer_inverse(a):
    """(M, D) with A⁻¹ = M/D, M integral: M = B_0 and D = -p(0), as
    A·B_0 = -p(0)·I (``_adjugate_b0``).  SingularMatrix when det A = 0."""
    table, p = powers_and_char_poly(a)
    if not p.coeffs[0]:
        raise SingularMatrix("matrix is singular over Q")
    return _adjugate_b0(table, p), -p.coeffs[0]


def _x_power_mod(k, p):
    """x^k mod the monic integer p (coefficients constant first), by
    squaring: each step squares a polynomial of degree < deg p, and a set
    bit of k shifts the square by one degree before the reduction."""
    n = len(p) - 1
    r = [1] if n else []
    for bit in bin(k)[2:]:
        shift = bit == "1"
        sq = [0] * (2 * n)
        for i, ri in enumerate(r):
            if ri:
                sq[2 * i + shift] += ri * ri
                for j in range(i + 1, len(r)):
                    sq[i + j + shift] += 2 * ri * r[j]
        r = _int_divmod_monic(sq, p)[1]
    return r


def mat_pow(a, k) -> IntMatrix:
    """A^k for k >= 0 as r(A), r = x^k mod p (Cayley-Hamilton): the
    squarings act on the n coefficients of r, not on n² matrix entries."""
    k = operator.index(k)
    if k < 0:
        raise ValueError("negative matrix power")
    table, p = powers_and_char_poly(a)
    return eval_at_power_table(table, 1, _x_power_mod(k, p.coeffs))


def eval_poly_at_matrix(g, a) -> IntMatrix:
    """g(A) for g over Q, exact; NonIntegralResult unless g(A) is integral.

    With d the least common denominator of g, (d·g)(A) = r(A) for the
    integer remainder r of d·g by the monic p, and every entry of r(A)
    must then be divisible by d.  Integrality of g(A) depends only on
    the conjugacy class of A, so a failure here is meaningful: g lies
    outside the ring of polynomials that are integral on this class.
    """
    table, p = powers_and_char_poly(a)
    if not isinstance(g, RatPoly):
        g = g.to_rat() if isinstance(g, IntPoly) else RatPoly(g)
    d, dg = _cleared(g.coeffs)
    try:
        return eval_at_power_table(table, d, _int_divmod_monic(dg, p.coeffs)[1])
    except NonIntegralResult:
        raise NonIntegralResult(f"{g} evaluated at the matrix is not integral") from None


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

