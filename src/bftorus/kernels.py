"""Integer linear-algebra kernels, in pure Python.

These are the hot loops of the whole package: Hermite and Smith normal
forms, fraction-free determinants, and triangular back-substitution,
all over arbitrary-precision Python integers.

Conventions
-----------
* Matrices passed to ``hnf_cols`` / ``solve_upper_cols`` are lists of
  *columns*; matrices passed to ``snf_rows`` / ``snf_diag`` /
  ``det_bareiss`` / ``mat_mul_rows`` are lists of *rows*.  All entries
  are ints.
* Column Hermite form: zero columns leftmost, then an echelon block
  whose pivots walk down and to the right, pivots positive, and every
  entry to the right of a pivot reduced into ``[0, pivot)``.  For a
  nonsingular square input this is exactly the upper-triangular
  positive-diagonal normal form.
* Smith form: non-negative diagonal ``d1 | d2 | ... | dr, 0, ..., 0``.
  ``snf_rows`` also returns the unimodular transforms, whose entries
  can grow far beyond those of the input; ``snf_diag`` returns the
  diagonal alone and is what the Bowen-Franks groups are computed with.
  For a nonsingular input it eliminates modulo m, the gcd of the
  determinant and four (n-1)-minors that one Bareiss pass leaves
  behind; m is a multiple of d1⋯d(n-1), so the first n-1 entries
  survive the reduction and the last is |det|/(d1⋯d(n-1)).
"""

import math


def _xgcd(a, b):
    """Extended gcd: returns (g, s, t) with g = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _bezout(a, b):
    """(g, s, t) with g = s*a + t*b = gcd(a, b) > 0, for nonzero a, b.

    Uses the C-level gcd and modular inverse in place of the Python
    loop of ``_xgcd``.  ``snf_rows`` keeps ``_xgcd``: its particular
    coefficients fix the transforms it returns.
    """
    g = math.gcd(a, b)
    x = a // g
    y = b // g
    s = pow(x, -1, y)
    return g, s, (1 - s * x) // y


def mat_mul_rows(a, b):
    """Product of two row-major integer matrices (lists of rows)."""
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        ai = a[i]
        row = [0] * m
        for t in range(k):
            e = ai[t]
            if e:
                bt = b[t]
                for j in range(m):
                    row[j] += e * bt[j]
        out.append(row)
    return out


def hnf_cols(cols, transform=False):
    """Column Hermite normal form.

    Takes a list of m columns (each of length n) and returns
    ``(h, t)`` where ``h`` is the list of m transformed columns and
    ``t`` is a list of m columns of the m-by-m unimodular transform
    (``A·T = H`` column-wise), or None when ``transform`` is false.

    Zero columns end up leftmost; the nonzero columns form the echelon
    block described in the module docstring.
    """
    m = len(cols)
    h = [list(c) for c in cols]
    if m == 0:
        return h, ([] if transform else None)
    n = len(h[0])
    t = None
    if transform:
        t = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    c = m - 1
    for i in range(n - 1, -1, -1):
        if c < 0:
            break
        # Gcd out row i across the still-active columns 0..c.
        while True:
            piv = -1
            best = 0
            for j in range(c + 1):
                e = h[j][i]
                if e:
                    e = -e if e < 0 else e
                    if piv < 0 or e < best:
                        best = e
                        piv = j
            if piv < 0:
                break
            done = True
            p = h[piv][i]
            for j in range(c + 1):
                if j == piv:
                    continue
                e = h[j][i]
                if e:
                    q = e // p
                    if q:
                        hj, hp = h[j], h[piv]
                        for r in range(n):
                            hj[r] -= q * hp[r]
                        if transform:
                            tj, tp = t[j], t[piv]
                            for r in range(m):
                                tj[r] -= q * tp[r]
                    if h[j][i]:
                        done = False
            if done:
                break
        if piv < 0:
            continue  # row i is identically zero on the active columns
        if piv != c:
            h[piv], h[c] = h[c], h[piv]
            if transform:
                t[piv], t[c] = t[c], t[piv]
        if h[c][i] < 0:
            h[c] = [-e for e in h[c]]
            if transform:
                t[c] = [-e for e in t[c]]
        p = h[c][i]
        for j in range(c + 1, m):
            q = h[j][i] // p
            if q:
                hj, hc = h[j], h[c]
                for r in range(n):
                    hj[r] -= q * hc[r]
                if transform:
                    tj, tc = t[j], t[c]
                    for r in range(m):
                        tj[r] -= q * tc[r]
        c -= 1
    return h, t


def solve_upper_cols(hcols, rhs):
    """Solve H·x = rhs over the integers for an upper-triangular
    column list H (n nonsingular columns, pivot of column i on row i).
    Returns the integer solution vector or None when none exists."""
    n = len(rhs)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        s = rhs[i]
        for j in range(i + 1, n):
            xj = x[j]
            if xj:
                s -= hcols[j][i] * xj
        p = hcols[i][i]
        q, r = divmod(s, p)
        if r:
            return None
        x[i] = q
    return x


def _bareiss(rows):
    """``(det M, block)`` for a square M of size n >= 2, by fraction-free
    (Bareiss) elimination.

    ``block`` is the trailing 2x2 block ``(w, x, y, z)`` before the last
    step, or None when a zero column ends the elimination early (det 0).
    After step k every entry a[i][j] (i, j > k) is the (k+2)-minor of
    the row-permuted M on rows 0..k, i and columns 0..k, j (the Bareiss
    invariant), so w, x, y, z are (n-1)-minors.  The last step needs no
    pivot: det = ±(w·z - x·y)/prev exactly, by Sylvester's identity,
    with prev the pivot of the step before.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 2):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0, None
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai = a[i]
            ak = a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    w, x = a[n - 2][n - 2:]
    y, z = a[n - 1][n - 2:]
    return sign * (w * z - x * y) // prev, (w, x, y, z)


def det_bareiss(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n < 2:
        return rows[0][0] if n else 1
    return _bareiss(rows)[0]


def snf_rows(rows):
    """Smith normal form of a square integer matrix (list of rows).

    Returns ``(diag, u, v)`` — the diagonal as a list plus the two
    unimodular transforms as row-major lists — with U·A·V = diag(diag),
    diag non-negative and each entry dividing the next (zeros last).
    """
    a = [list(r) for r in rows]
    n = len(a)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    for t in range(n):
        while True:
            # smallest nonzero entry of the trailing submatrix -> (t, t)
            pi = -1
            pj = -1
            best = 0
            for i in range(t, n):
                ai = a[i]
                for j in range(t, n):
                    e = ai[j]
                    if e:
                        e = -e if e < 0 else e
                        if pi < 0 or e < best:
                            best = e
                            pi, pj = i, j
            if pi < 0:
                break
            if pi != t:
                a[pi], a[t] = a[t], a[pi]
                u[pi], u[t] = u[t], u[pi]
            if pj != t:
                for row in a:
                    row[pj], row[t] = row[t], row[pj]
                for row in v:
                    row[pj], row[t] = row[t], row[pj]
            p = a[t][t]
            clean = True
            for i in range(t + 1, n):
                e = a[i][t]
                if e:
                    q = e // p
                    if q:
                        ai, at = a[i], a[t]
                        for j in range(t, n):
                            ai[j] -= q * at[j]
                        ui, ut = u[i], u[t]
                        for j in range(n):
                            ui[j] -= q * ut[j]
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, n):
                e = a[t][j]
                if e:
                    q = e // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        clean = False
            if clean:
                ok = True
                for i in range(t + 1, n):
                    if a[i][t]:
                        ok = False
                        break
                if ok:
                    for j in range(t + 1, n):
                        if a[t][j]:
                            ok = False
                            break
                if ok:
                    break

    d = [a[i][i] for i in range(n)]
    for i in range(n):
        if d[i] < 0:
            d[i] = -d[i]
            u[i] = [-e for e in u[i]]

    # Sort zeros to the back and fold the diagonal into a divisor chain.
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if d[i] == 0 and d[i + 1] != 0:
                d[i], d[i + 1] = d[i + 1], d[i]
                u[i], u[i + 1] = u[i + 1], u[i]
                for row in v:
                    row[i], row[i + 1] = row[i + 1], row[i]
                changed = True
        for i in range(n):
            if d[i] == 0:
                continue
            for j in range(i + 1, n):
                # d[i] shrinks when a fold fires, so re-read it every pass
                di = d[i]
                dj = d[j]
                if dj % di == 0:
                    continue
                g, s, tt = _xgcd(di, dj)
                lcm = di // g * dj
                # rows i,j of U:  [[s, tt], [-dj/g, di/g]]
                bi = dj // g
                ai_ = di // g
                ui, uj = u[i], u[j]
                u[i] = [s * x + tt * y for x, y in zip(ui, uj)]
                u[j] = [ai_ * y - bi * x for x, y in zip(ui, uj)]
                # cols i,j of V:  [[1, -tt*dj/g], [1, s*di/g]]
                cj = tt * bi
                ci = s * ai_
                for row in v:
                    vi, vj = row[i], row[j]
                    row[i] = vi + vj
                    row[j] = ci * vj - cj * vi
                d[i], d[j] = g, lcm
                changed = True
    return d, u, v


def snf_diag(rows):
    """Smith diagonal of a square integer matrix (list of rows).

    Returns exactly ``snf_rows(rows)[0]``, the non-negative divisor
    chain with zeros last, but tracks neither transform.

    *Modulus.*  One Bareiss pass (``_bareiss``) gives D = det M and four
    (n-1)-minors of M, each a multiple of d_1⋯d_(n-1), the gcd of all
    (n-1)-minors.  When D ≠ 0, let
    m be the gcd of D and those minors: a multiple of d_1⋯d_(n-1), so
    d_i divides m for i < n.  From U·M·V = diag(d) with U, V unimodular,
    U·[M | m·I] spans the same lattice as [U·M·V | m·I], so the cokernel
    of [M | m·I] is ⊕ Z/gcd(d_i, m), whose invariant factors are
    d_1, …, d_(n-1), gcd(d_n, m).  The elimination (``_smith_pivots``)
    therefore runs with every entry kept in [0, m): row and column
    operations, and adding multiples of the columns m·e_i, keep the
    cokernel.  A pivot p it leaves stands for Z/gcd(p, m), a trailing
    block that vanishes mod m for copies of Z/m.  Folded into a chain,
    these give d_1, …, d_(n-1) and then gcd(d_n, m), which is replaced
    by d_n = |D|/(d_1⋯d_(n-1)).  When m = 1 the answer is
    [1, …, 1, |D|] with no elimination.  Entries stay below m instead of
    growing through the gcd steps to several times the size of the
    input.  For singular M the same elimination runs over Z, and the
    chain is folded from the pivots alone, zeros last.
    """
    n = len(rows)
    if n < 2:
        return [abs(rows[0][0])] if n else []
    det, block = _bareiss(rows)
    m = math.gcd(det, *block) if det else 0
    if m == 1:
        return [1] * (n - 1) + [abs(det)]
    diag = _smith_pivots(rows, m)
    if m:
        diag = [math.gcd(p, m) for p in diag] + [m] * (n - len(diag))

    # Fold into a divisor chain; gcd/lcm swaps keep every prime's
    # multiset of valuations, so the chain is the Smith diagonal.
    k = len(diag)
    for i in range(k):
        for j in range(i + 1, k):
            di = diag[i]
            dj = diag[j]
            if dj % di:
                g = math.gcd(di, dj)
                diag[i] = g
                diag[j] = di // g * dj
    if m:
        head = diag[:-1]
        return head + [abs(det) // math.prod(head)]
    return diag + [0] * (n - k)


def _smith_pivots(rows, m):
    """The absolute pivots that diagonal elimination of a square matrix
    leaves: over Z when m = 0, otherwise with every entry kept in
    [0, m) (see ``snf_diag``).  The list ends early where the trailing
    block vanishes.

    At step t the smallest nonzero entry of the trailing block becomes
    the pivot; row t and column t are then cleared by an exact quotient
    where the pivot divides the entry, and otherwise by the unimodular
    2x2 step ``[[s, u], [-b/g, a/g]]`` with ``g = s*a + u*b = gcd(a, b)``,
    which makes g the new pivot.  Each gcd step shrinks the pivot, so
    the sweeps end; mod m the new pivot is below m already.
    """
    n = len(rows)
    a = [[e % m for e in r] for r in rows] if m else [list(r) for r in rows]
    diag = []
    for t in range(n):
        # smallest nonzero entry of the trailing submatrix -> (t, t)
        pi = -1
        pj = -1
        best = 0
        for i in range(t, n):
            ai = a[i]
            for j in range(t, n):
                e = ai[j]
                if e:
                    e = -e if e < 0 else e
                    if pi < 0 or e < best:
                        best = e
                        pi, pj = i, j
        if pi < 0:
            break
        if pi != t:
            a[pi], a[t] = a[t], a[pi]
        if pj != t:
            # rows above t are zero outside the diagonal
            for i in range(t, n):
                row = a[i]
                row[pj], row[t] = row[t], row[pj]
        at = a[t]
        while True:
            # Column t: row operations.  An exact step leaves row t alone.
            for i in range(t + 1, n):
                ai = a[i]
                b = ai[t]
                if not b:
                    continue
                p = at[t]
                q, r = divmod(b, p)
                if r:
                    g, s, u = _bezout(p, b)
                    x = b // g
                    y = p // g
                    for j in range(t, n):
                        e = at[j]
                        f = ai[j]
                        at[j] = s * e + u * f
                        ai[j] = y * f - x * e
                        if m:
                            at[j] %= m
                            ai[j] %= m
                else:
                    for j in range(t + 1, n):
                        e = at[j]
                        if e:
                            ai[j] -= q * e
                            if m:
                                ai[j] %= m
                    ai[t] = 0
            # Row t: column operations.  While column t is zero below
            # the pivot an exact step only zeroes at[j]; a gcd step
            # refills column t, and the sweep starts again.
            refilled = False
            for j in range(t + 1, n):
                b = at[j]
                if not b:
                    continue
                p = at[t]
                q, r = divmod(b, p)
                if not r and not refilled:
                    at[j] = 0
                elif not r:
                    for i in range(t, n):
                        ai = a[i]
                        e = ai[t]
                        if e:
                            ai[j] -= q * e
                            if m:
                                ai[j] %= m
                else:
                    g, s, u = _bezout(p, b)
                    x = b // g
                    y = p // g
                    for i in range(t, n):
                        ai = a[i]
                        e = ai[t]
                        f = ai[j]
                        ai[t] = s * e + u * f
                        ai[j] = y * f - x * e
                        if m:
                            ai[t] %= m
                            ai[j] %= m
                    refilled = True
            if not refilled:
                break
        p = at[t]
        diag.append(-p if p < 0 else p)
    return diag
