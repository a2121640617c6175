"""Exact arithmetic the benchmark uses to build and to check its inputs.

Nothing here imports bftorus.  The inputs must not depend on the code
being timed, so that two commits time identical inputs, and the output
checks must not trust that code.  The algorithms are deliberately the
plain textbook ones (fraction elimination, principal minors, rational
roots), which are slow but transparently correct at benchmark sizes.

Matrices are lists of rows.  Polynomials are coefficient lists,
constant term first.  A number-field element is a list of ``Fraction``
coordinates over the power basis of Q[x]/(p).
"""

import itertools
import math
from fractions import Fraction


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def mat_pow(a, k):
    """A^k for k >= 0, by repeated squaring."""
    out, sq = identity(len(a)), a
    while k:
        if k & 1:
            out = mat_mul(out, sq)
        k >>= 1
        if k:
            sq = mat_mul(sq, sq)
    return out


def entry_bits(rows):
    return max(abs(e).bit_length() for row in rows for e in row)


def least_power(a, bits, limit=4096):
    """The least k with an entry of A^k of at least ``bits`` bits, or None
    when k would exceed ``limit``.  Entry size grows with k for a matrix
    with an eigenvalue off the unit circle, so a binary search applies."""
    hi = 1
    while entry_bits(mat_pow(a, hi)) < bits:
        hi *= 2
        if hi > limit:
            return None
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if entry_bits(mat_pow(a, mid)) >= bits:
            hi = mid
        else:
            lo = mid
    return hi


def leibniz_det(rows):
    """Determinant of a small integer matrix as a signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def char_poly(rows):
    """det(xI - A) from sums of principal minors: the coefficient of
    x^(n-k) is (-1)^k times the sum of the k x k principal minors."""
    n = len(rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        total = 0
        for sel in itertools.combinations(range(n), k):
            total += leibniz_det([[rows[i][j] for j in sel] for i in sel])
        coeffs[n - k] = (-1) ** k * total
    return coeffs


def poly_eval(p, x):
    return sum(c * x**i for i, c in enumerate(p))


def _divisors(m):
    m = abs(m)
    return [d for d in range(1, m + 1) if m % d == 0]


def is_irreducible(p):
    """Irreducibility over Q of a monic integer polynomial of degree 2..4.

    A root is an integer dividing p(0).  A rootless quartic can only
    split as (x^2 + bx + c)(x^2 + dx + e) with ce = p(0); for each such
    c, e the remaining coefficient equations fix b and d.
    """
    n = len(p) - 1
    if p[n] != 1 or not 2 <= n <= 4:
        raise ValueError("oracle handles monic polynomials of degree 2..4")
    if p[0] == 0:
        return False
    if any(poly_eval(p, s * d) == 0 for d in _divisors(p[0]) for s in (1, -1)):
        return False
    if n < 4:
        return True
    c0, c1, c2, c3 = p[0], p[1], p[2], p[3]
    for c in (s * d for d in _divisors(c0) for s in (1, -1)):
        e = c0 // c
        if c != e:
            # b + d = c3 and be + cd = c1 give b(e - c) = c1 - c*c3
            num = c1 - c * c3
            if num % (e - c) == 0:
                b = num // (e - c)
                if c + e + b * (c3 - b) == c2:
                    return False
        elif c * c3 == c1:
            # b + d = c3, bd = c2 - 2c: b, d are the roots of t^2 - c3 t + bd
            disc = c3 * c3 - 4 * (c2 - 2 * c)
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                return False
    return True


def cubic_discriminant(p):
    """Discriminant of the monic cubic x^3 + a x^2 + b x + c."""
    c, b, a, _ = p
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


def square_part(m):
    """The largest F with F^2 dividing m (m nonzero), by trial division."""
    m = abs(m)
    out = 1
    q = 2
    while q * q <= m:
        while m % (q * q) == 0:
            m //= q * q
            out *= q
        while m % q == 0:
            m //= q
        q += 1
    return out


def random_unimodular_pair(rng, n, steps):
    """(P, P^-1), both integral, from ``steps`` elementary row operations."""
    p = identity(n)
    q = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # row_i += c*row_j in P; the inverse subtracts column i times c
        # from column j of Q.
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return p, q


# ---------------------------------------------------------------------
# number-field arithmetic over the power basis

def nf_mul(x, y, p):
    """x * y in Q[t]/(p) for monic p."""
    n = len(p) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        lead = prod[k]
        if lead:
            # t^k = t^(k-n) * t^n and t^n = -sum p_i t^i
            for i in range(n):
                prod[k - n + i] -= lead * p[i]
    return prod[:n]


def nf_trace(x, p):
    """Tr(x) in Q[t]/(p): the trace of multiplication by x on the power
    basis, i.e. the sum over i of the t^i coordinate of x * t^i."""
    n = len(p) - 1
    return sum(nf_mul(x, [int(j == i) for j in range(n)], p)[i] for i in range(n))


def lattice_basis(denom, cols):
    """Field elements of a lattice given as (denominator, integer columns)."""
    return [[Fraction(e, denom) for e in col] for col in cols]


def in_span(basis, v):
    """True when v is an integer combination of the (independent) basis."""
    n = len(v)
    aug = [[basis[j][i] for j in range(len(basis))] + [Fraction(v[i])] for i in range(n)]
    k = len(basis)
    row = 0
    for c in range(k):
        piv = next((r for r in range(row, n) if aug[r][c]), None)
        if piv is None:
            raise ValueError("basis vectors are dependent")
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][c]
        aug[row] = [e * inv for e in aug[row]]
        for r in range(n):
            if r != row and aug[r][c]:
                f = aug[r][c]
                aug[r] = [e - f * g for e, g in zip(aug[r], aug[row])]
        row += 1
    if any(aug[r][k] for r in range(k, n)):
        return False
    return all(aug[r][k].denominator == 1 for r in range(k))
