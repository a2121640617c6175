"""Small exact rational linear algebra helpers (Fraction matrices).

Everything here is row-major: a matrix is a list of rows whose entries
are ``fractions.Fraction`` (plain ints are accepted and upgraded).
They serve the genuinely rational inputs: ``rref``, ``inverse``
(rational matrix inverses and the trace-dual Gram), ``express``
(minimal polynomials) and ``mat_mul`` (g(A) for rational g).  Lattice
linear algebra - colon, orders, the dictionary, norms and
discriminants - runs on the integer kernels in ``kernels``.
"""

from fractions import Fraction

from .errors import SingularMatrix


def identity(n):
    one = Fraction(1)
    zero = Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        ai = a[i]
        row = [Fraction(0)] * m
        for t in range(k):
            e = ai[t]
            if e:
                bt = b[t]
                for j in range(m):
                    row[j] += e * bt[j]
        out.append(row)
    return out


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    a = [[Fraction(e) for e in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [e * inv for e in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                ar = a[r]
                a[i] = [e - f * g for e, g in zip(a[i], ar)]
        pivots.append(c)
        r += 1
    return a, pivots


def inverse(rows):
    """Inverse of a square Fraction matrix; raises SingularMatrix."""
    n = len(rows)
    aug = [[Fraction(e) for e in row] + identity(n)[i] for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular over Q")
    return [row[n:] for row in red]


def express(cols, target):
    """Write ``target`` as a rational combination of the given column
    vectors, or return None when it is outside their span.

    ``cols`` is a list of k columns of length n (k <= n allowed); the
    result is a list of k Fractions.
    """
    k = len(cols)
    n = len(target)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    red, pivots = rref(aug)
    if k in pivots:
        return None  # inconsistent: pivot in the augmented column
    sol = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        sol[c] = red[r][k]
    # Consistency for dependent columns: verify the combination.
    for i in range(n):
        s = Fraction(0)
        for j in range(k):
            if sol[j]:
                s += sol[j] * cols[j][i]
        if s != target[i]:
            return None
    return sol
