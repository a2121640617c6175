"""Shared test data and independent oracles.

The worked matrices and lattices live here once, so every test file
agrees on them.  The oracles deliberately avoid the library's own
kernels: determinants come from fraction Gaussian elimination,
characteristic polynomials from cofactor expansion over coefficient
lists, invariant factors from gcds of k x k minors, periodic points
from brute-force grid enumeration.  Slow but transparently correct at
the sizes the tests use.
"""

import itertools
import math
import random
from fractions import Fraction

from bftorus.ideals import AbelianGroup, lattice_from_generators

# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

# Three torus automorphisms sharing p(x) = x^3 - 23x^2 + 7x - 1 but
# distinguished by Bowen-Franks data.
P_CUBIC = [-1, 7, -23, 1]
EX1_A = [[0, 1, 0], [0, 0, 1], [1, -7, 23]]
EX1_B = [[0, -1, -11], [1, 0, -3], [0, 2, 23]]
EX1_C = [[0, 1, 0], [1, 0, 4], [6, -2, 23]]

# A strongly BF-equivalent quartic pair, p(x) = x^4 - 7x^3 - 7x + 1;
# every BF_g with integral g(A) agrees, yet they are not conjugate.
P_QUARTIC = [1, -7, 0, -7, 1]
EX2_M = [[-1, -1, -1, -4], [4, 1, 3, 8], [0, 1, 0, 0], [0, 0, 1, 7]]
EX2_MP = [[-5, -4, -5, -12], [8, 5, 7, 12], [0, 1, 0, 0], [0, 0, 1, 7]]
BF48_TORSION = (448, 1344, 130401445122840192, 130401445122840192)

# Ideals over the cubic field: I = <8, beta+7, beta^2+7> is invertible
# over its coefficient ring R = <1, beta, (beta^2+1)/2>, J = <2, beta+1,
# beta^2+1> is not.
I7_COLS = [[8, 0, 0], [7, 1, 0], [7, 0, 1]]
J7_COLS = [[2, 0, 0], [1, 1, 0], [1, 0, 1]]
R7_DENOM, R7_COLS = 2, [[2, 0, 0], [0, 2, 0], [1, 0, 1]]

P_QUAD = [1, -34, 1]  # x^2 - 34x + 1, discriminant 24^2 * 2


def companion(p):
    """Companion matrix (in the bottom-row convention) of monic p."""
    n = len(p) - 1
    a = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = 1
    a[n - 1] = [-c for c in p[:n]]
    return a


# ---------------------------------------------------------------------------
# independent linear-algebra oracles
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]


def mat_pow(a, k):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def oracle_rational_det(rows):
    """Determinant via fraction Gaussian elimination, as a Fraction."""
    n = len(rows)
    a = [[Fraction(e) for e in r] for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return det


def oracle_det(rows):
    """Determinant of an integer matrix via fraction Gaussian elimination."""
    det = oracle_rational_det(rows)
    assert det.denominator == 1
    return det.numerator


def oracle_inverse(rows):
    """Inverse of a nonsingular square matrix by Fraction Gauss-Jordan."""
    n = len(rows)
    a = [[Fraction(e) for e in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [e * inv for e in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [e - f * g for e, g in zip(a[r], a[c])]
    return [r[n:] for r in a]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def oracle_char_poly(rows):
    """det(xI - A) by cofactor expansion over coefficient lists.

    Returns the coefficient list, constant term first (monic).
    """
    n = len(rows)
    entries = [
        [[-rows[i][j], 1] if i == j else [-rows[i][j]] for j in range(n)]
        for i in range(n)
    ]

    def det(rsel, csel):
        if len(rsel) == 1:
            return entries[rsel[0]][csel[0]]
        acc = [0]
        i = rsel[0]
        for t, j in enumerate(csel):
            minor = det(rsel[1:], csel[:t] + csel[t + 1 :])
            term = _poly_mul(entries[i][j], minor)
            if t % 2:
                term = [-c for c in term]
            acc = _poly_add(acc, term)
        return acc

    out = det(tuple(range(n)), tuple(range(n)))
    out = out + [0] * (n + 1 - len(out))
    assert out[n] == 1
    return out


def oracle_invariant_factors(rows):
    """Invariant factors via gcds of k x k minors (works for any shape).

    Returns the full diagonal (length min(shape)), zeros for the rank
    deficiency; d_k = gcd of k-minors, s_k = d_k / d_{k-1}.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    kmax = min(nr, nc)
    out = []
    prev = 1
    for k in range(1, kmax + 1):
        g = 0
        for rsel in itertools.combinations(range(nr), k):
            for csel in itertools.combinations(range(nc), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(oracle_det(sub)))
        if g == 0:
            out.extend([0] * (kmax + 1 - k))
            break
        out.append(g // prev)
        prev = g
    return out


def oracle_group(rows):
    """Z^rows / (column span) as an AbelianGroup, via minor gcds."""
    diag = oracle_invariant_factors(rows)
    free = len(rows) - sum(1 for d in diag if d != 0)
    tors = sorted(d for d in diag if d > 1)
    return AbelianGroup(free, tors)


def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def oracle_irreducible(coeffs):
    """Exact irreducibility over Q for monic integer polys, degree <= 4.

    Degrees 2-3 reduce to the rational root theorem; a rootless quartic
    factors only as two monic quadratics, found by enumerating divisor
    pairs of the constant term.
    """
    deg = len(coeffs) - 1
    assert coeffs[deg] == 1 and deg >= 1
    if deg == 1:
        return True
    c0 = coeffs[0]
    if c0 == 0:
        return False
    for d in _divisors(c0):
        for r in (d, -d):
            if sum(c * r**i for i, c in enumerate(coeffs)) == 0:
                return False
    if deg <= 3:
        return True
    if deg == 4:
        # (x^2 + bx + c)(x^2 + dx + e) against x^4 + c3 x^3 + c2 x^2 + c1 x + c0
        c1, c2, c3 = coeffs[1], coeffs[2], coeffs[3]
        for c in _divisors(c0):
            for c_signed in (c, -c):
                if c0 % c_signed:
                    continue
                e = c0 // c_signed
                if e != c_signed:
                    num = c1 - c_signed * c3
                    den = e - c_signed
                    if num % den == 0:
                        b = num // den
                        d = c3 - b
                        if c_signed + e + b * d == c2:
                            return False
                else:
                    # symmetric case: b + d = c3, bd = c2 - 2c
                    if c_signed * c3 == c1:
                        disc = c3 * c3 - 4 * (c2 - 2 * c_signed)
                        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                            return False
        return True
    raise ValueError("oracle only handles degree <= 4")


def oracle_adjugate(rows):
    """adj(A) from cofactors: adj(A)[i][j] = (-1)^(i+j) det(A minus row j, col i)."""
    n = len(rows)
    if n == 1:
        return [[1]]
    return [
        [
            (-1) ** (i + j)
            * oracle_det([r[:i] + r[i + 1 :] for t, r in enumerate(rows) if t != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# the row eigenvector over K, by elimination
# ---------------------------------------------------------------------------


def oracle_row_eigenvector(field, a):
    """A nonzero v (entries in the NumberField ``field``) with v.A = beta.v.

    Gaussian elimination over K on A^t - beta.I, whose kernel is a line
    when p is irreducible.
    """
    n = field.n
    beta = field.beta()
    one = field.one()
    zero = field.zero()
    rows = [
        [a[j][i] * one - (beta if i == j else zero) for j in range(n)]
        for i in range(n)
    ]
    pivots = []
    rank = 0
    for c in range(n):
        pivot_row = next((i for i in range(rank, n) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [e * inv for e in rows[rank]]
        for i in range(n):
            if i != rank and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [rows[i][j] - f * rows[rank][j] for j in range(n)]
        pivots.append(c)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1, "eigenvector kernel should be one-dimensional"
    v = [zero] * n
    v[free[0]] = one
    for idx, c in enumerate(pivots):
        v[c] = -rows[idx][free[0]]
    return v


# ---------------------------------------------------------------------------
# Fraction-arithmetic oracles: the lattice layer, g(A), minimal polynomials
# ---------------------------------------------------------------------------


def _transpose(rows):
    return [list(r) for r in zip(*rows)]


def oracle_mult_rows(z):
    """Matrix of multiplication by the field element z on the power
    basis, column k being the coordinates of z·b^k (field products)."""
    field = z.field
    n = field.n
    unit = [[int(i == k) for i in range(n)] for k in range(n)]
    return _transpose([(z * field.element(e)).coords for e in unit])


def oracle_norm(z):
    """N(z) as the Fraction determinant of multiplication by z."""
    return oracle_rational_det(oracle_mult_rows(z))


def _basis_rows(lattice):
    """The lattice basis as a Fraction matrix, basis vectors as columns."""
    return _transpose([[Fraction(e, lattice.denom) for e in c] for c in lattice.cols])


def oracle_ideal_to_matrix(lattice):
    """Multiplication by beta on the lattice basis by a Fraction solve,
    B·M = Mult(beta)·B; None when M is not integral."""
    basis = _basis_rows(lattice)
    image = mat_mul(oracle_mult_rows(lattice.field.beta()), basis)
    m = mat_mul(oracle_inverse(basis), image)
    if any(e.denominator != 1 for row in m for e in row):
        return None
    return [[int(e) for e in row] for row in m]


def oracle_trace_gram_det(lattice):
    """det of the trace Gram matrix Tr(v_i·v_j) of the lattice basis."""
    basis = lattice.basis_elements()
    return oracle_rational_det([[(u * v).trace() for v in basis] for u in basis])


def _row_basis(vectors, n):
    """n integer rows spanning the same Z-module as the given integer
    rows (of rank n), by Euclid's algorithm down each column in turn."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for c in range(n):
        while True:
            live = [r for r in rows if r[c]]
            if len(live) <= 1:
                break
            piv = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not piv:
                    q = r[c] // piv[c]
                    r[:] = [x - q * y for x, y in zip(r, piv)]
            rows = [r for r in rows if any(r)]
        (piv,) = [r for r in rows if r[c]]
        basis.append(piv)
        rows = [r for r in rows if r is not piv]
    return basis


def oracle_colon(m, n_lat):
    """(M : N) = {z : z·N ⊆ M} as a dual lattice, in Fraction arithmetic.

    z·nu lies in M exactly when B_M⁻¹·Mult(nu)·y is integral (y the
    coordinates of z).  The rows of all these conditions, scaled by a
    common denominator den, span a row lattice W; then (M : N) is
    {y : W·y ∈ den·Zⁿ} = den·W⁻¹·Zⁿ.
    """
    field = m.field
    n = field.n
    b_inv = oracle_inverse(_basis_rows(m))
    conditions = []
    for nu in n_lat.basis_elements():
        conditions.extend(mat_mul(b_inv, oracle_mult_rows(nu)))
    den = math.lcm(*(e.denominator for row in conditions for e in row))
    w = _row_basis([[int(e * den) for e in row] for row in conditions], n)
    w_inv = oracle_inverse(w)
    gens = [field.element([den * w_inv[i][j] for i in range(n)]) for j in range(n)]
    return lattice_from_generators(field, gens)


def oracle_trace_dual(lattice):
    """The trace dual from field products: w_j = Σ_k (G⁻¹)_kj v_k with G
    the Gram matrix Tr(v_i·v_j) of the basis v, inverted by Fraction
    Gauss-Jordan."""
    basis = lattice.basis_elements()
    g_inv = oracle_inverse([[(u * v).trace() for v in basis] for u in basis])
    n = len(basis)
    field = lattice.field
    dual = []
    for j in range(n):
        w = field.zero()
        for k in range(n):
            w = w + basis[k] * g_inv[k][j]
        dual.append(w)
    return lattice_from_generators(field, dual)


def _express(vectors, target):
    """Fractions x with Σ x_j·vectors[j] = target for linearly independent
    vectors, or None when target lies outside their span (Gauss-Jordan on
    the augmented matrix)."""
    k = len(vectors)
    rows = [[Fraction(v[i]) for v in vectors] + [Fraction(t)] for i, t in enumerate(target)]
    r = 0
    for c in range(k + 1):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if c == k:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [e / rows[r][c] for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [e - f * g for e, g in zip(rows[i], rows[r])]
        r += 1
    return [rows[j][k] for j in range(k)]


def oracle_minimal_polynomial(z):
    """Monic minimal polynomial of z, constant first, as Fractions: the
    first power z^k that is a rational combination of 1, z, ..., z^(k-1)."""
    powers = [z.field.one()]
    while True:
        cur = powers[-1] * z
        combo = _express([w.coords for w in powers], cur.coords)
        if combo is not None:
            return [-c for c in combo] + [Fraction(1)]
        powers.append(cur)


def oracle_eval_poly(coeffs, a):
    """g(A) as a Fraction matrix by Horner, g given by its coefficients
    (constant first)."""
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = mat_mul(out, a) if n else out
        for i in range(n):
            out[i][i] += Fraction(c)
    return out


# ---------------------------------------------------------------------------
# periodic-point brute force
# ---------------------------------------------------------------------------


def enumerate_periodic_points(a, k, denominator):
    """All x in (1/denominator)Z^n mod 1 with A^k x = x mod 1."""
    n = len(a)
    ak = mat_pow(a, k)
    pts = set()
    for tup in itertools.product(range(denominator), repeat=n):
        if all(
            (sum(ak[i][j] * tup[j] for j in range(n)) - tup[i]) % denominator == 0
            for i in range(n)
        ):
            pts.add(tup)
    return pts


def subgroup_from_generators(gens, denominator):
    """Closure of the given torus points under addition mod 1, scaled to
    the (1/denominator)-grid."""
    scaled = []
    for gen in gens:
        vec = tuple(int(Fraction(c) * denominator) % denominator for c in gen)
        assert all(Fraction(c) * denominator == int(Fraction(c) * denominator) for c in gen)
        scaled.append(vec)
    n = len(scaled[0]) if scaled else 0
    seen = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier:
        base = frontier.pop()
        for vec in scaled:
            nxt = tuple((b + v) % denominator for b, v in zip(base, vec))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# group-presentation word oracle
# ---------------------------------------------------------------------------


def _word_exponents(word, gens):
    counts = dict.fromkeys(gens, 0)
    word = word.strip()
    if word == "1":
        return [0] * len(gens)
    for factor in word.split("*"):
        name, _, exp = factor.partition("^")
        counts[name] += int(exp) if exp else 1
    return [counts[g] for g in gens]


def oracle_abelianization(presentation):
    """Abelianize a finite presentation by exponent-sum rows + minor gcds."""
    gens = list(presentation.generators)
    rows = []
    for rel in presentation.relations:
        lhs, rhs = rel.split(" = ")
        lv = _word_exponents(lhs, gens)
        rv = _word_exponents(rhs, gens)
        rows.append([x - y for x, y in zip(lv, rv)])
    diag = oracle_invariant_factors(rows)
    rank = sum(1 for d in diag if d != 0)
    tors = sorted(d for d in diag if d > 1)
    return AbelianGroup(len(gens) - rank, tors)


# ---------------------------------------------------------------------------
# randomized samplers
# ---------------------------------------------------------------------------


def random_unit_irreducible_matrix(rng, sizes=(2, 3, 4), span=6):
    """Random A with entries in [-span, span], irreducible char poly and
    p(0) = +-1 (so A is a torus automorphism)."""
    while True:
        n = rng.choice(sizes)
        a = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        p = oracle_char_poly(a)
        if abs(p[0]) != 1:
            continue
        if not oracle_irreducible(p):
            continue
        return a, p


def random_admissible_poly(rng, n, span=4):
    """Nonzero integer polynomial of degree < n (so g(beta) != 0)."""
    while True:
        g = [rng.randint(-span, span) for _ in range(rng.randint(1, n))]
        if any(g):
            return g


def random_unimodular_pair(rng, n, steps=8):
    """(P, P^-1), both integral, built from elementary operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # row_i += c * row_j in P; the inverse takes row_i -= c * row_j,
        # which composes on the other side of Q.
        for t in range(n):
            p[i][t] += c * p[j][t]
        for t in range(n):
            q[t][j] -= c * q[t][i]
    return p, q


def random_similar_pair(rng, sizes=(2, 3), span=5):
    """(A, PAP^-1) with P unimodular; both integral."""
    n = rng.choice(sizes)
    a = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    p, pinv = random_unimodular_pair(rng, n)
    return a, mat_mul(mat_mul(p, a), pinv)
