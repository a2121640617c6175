"""The finite lattice of orders Z[b] ⊆ R ⊆ Z_K, built prime by prime.

Write disc(p) = F²·Δ with Δ square-free.  The index [Z_K : Z[b]]
squared divides disc(p), so every prime ℓ of the index divides F.

*The sum over primes.*  For an order R ⊇ Z[b] the finite group R/Z[b]
is the direct sum of its ℓ-primary parts, and the ℓ-part
R_ℓ = {x ∈ R : ℓ^k·x ∈ Z[b] for some k} is itself an order: if ℓ^a·x
and ℓ^c·y lie in Z[b], so does ℓ^(a+c)·xy.  Hence R is the sum of its
ℓ-parts.  Conversely, let O and O' be orders whose quotients by Z[b]
are an ℓ-group and a q-group, ℓ ≠ q.  For x ∈ O and y ∈ O' with
ℓ^a·x and q^c·y in Z[b], the product ℓ^a·xy lies in O' and q^c·xy in
O, and 1 = u·ℓ^a + v·q^c puts xy in O + O'.  So a sum of local orders
is a ring, and R ↦ (R_ℓ)_ℓ is a bijection between the orders and the
tuples of one local order per prime, inverse to the sum and
respecting inclusion both ways.  The list of all orders is therefore
complete once each local list is.

*The product poset.*  So the orders form the product of the local
posets, with [R : Z[b]] = Π_ℓ [R_ℓ : Z[b]].  R ⊊ S is a cover exactly
when R and S differ at one prime ℓ, by a local cover there.  Proof: if
they differ at ℓ ≠ q, the order with S_ℓ at ℓ and R's parts elsewhere
lies strictly between them, and if R_ℓ ⊊ T ⊊ S_ℓ, so does the order
with T at ℓ; conversely, an order between R and S has their common
parts away from ℓ and R_ℓ or S_ℓ at ℓ.  So the Hasse edges come from
the local inclusions, and only a node with two or more parts ≠ Z[b]
needs a sum.

*Round 2* (Cohen, GTM 138, Alg. 6.1.8).  Every local order at ℓ lies
in the ℓ-maximal order O_ℓ ⊇ Z[b], the ℓ-part of Z_K.  The ℓ-radical
I of an order O is ℓO plus the elements nilpotent mod ℓO, the kernel
mod ℓ of the linear map x ↦ x^(ℓ^j) on O/ℓO (ℓ^j ≥ n).  The ring of
multipliers (I : I), ``ideals.coefficient_ring`` of I, contains O,
and it equals O exactly when O is ℓ-maximal; otherwise O grows to it
and the step repeats.

*Dedekind's seed.*  Let t be the product of the distinct monic
irreducible factors of p mod ℓ, h = (p mod ℓ)/t, f = (t·h - p)/ℓ
(t and h lifted), Z = gcd(f, t, h) mod ℓ and U = (p mod ℓ)/Z, lifted.
Dedekind's criterion (Cohen, Thm 6.1.4) says that
O₁ = Z[b] + (U(b)/ℓ)·Z[b] is the first Round 2 step from Z[b], of
index ℓ^deg Z; so Z[b] is ℓ-maximal exactly when deg Z = 0, and such
primes are skipped.  O₁ is an order with ℓ·O₁ ⊆ Z[b], so O₁ ⊆ O_ℓ
and Round 2 may start from O₁ instead of Z[b].  t, the radical of
p mod ℓ, comes from squarefree decomposition (``polyring._gf_radical``):
p/gcd(p, p') is the product of the factors whose multiplicity is prime
to ℓ, which is all of them when ℓ > deg p; otherwise what is left
after they are divided out of the gcd is an ℓ-th power g(x^ℓ), whose
radical is that of g.

*The index bound.*  disc(p) = [Z_K : Z[b]]²·disc(Z_K) and
[O_ℓ : Z[b]] is the ℓ-part of [Z_K : Z[b]], so with i = v_ℓ[O_ℓ : Z[b]],
2i ≤ v_ℓ(disc p) = 2·v_ℓ(F) + v_ℓ(Δ) ≤ 2·v_ℓ(F) + 1, hence
i ≤ v_ℓ(F).  An order O between Z[b] and O_ℓ of index ℓ^v_ℓ(F)
therefore has the covolume of O_ℓ and is O_ℓ: Round 2 stops there
without the radical and colon that would confirm the fixed point.

*Ore's basis.*  When gcd(t, h) = x - a, x - a is the one repeated
factor of p mod ℓ, of multiplicity e.  Write p = Σ t_k·(x - a)^k, a
lifted to [0, ℓ), q_j = Σ_(k≥j) t_k·(x - a)^(k-j), monic of degree
n - j, and N for the lower convex hull of the points (k, v_ℓ(t_k)),
k ≤ e.  p is ℓ-regular when the residual polynomial
Σ_i (t_(s+i·e')/ℓ^(y-i·h) mod ℓ)·Y^i of each side, of slope -h/e'
(coprime) from (s, y), is separable; then
O_ℓ = Z[b] + Σ_(j=1..e-1) Z·q_j(b)/ℓ^⌊N(j)⌋ (Ø. Ore, Math. Ann. 99,
1928; Guàrdia-Montes-Nart, Trans. AMS 364, 2012).  Proof: let γ = b - a,
take a root with v(γ) = λ (v(ℓ) = 1), and let λ_j be the slope
magnitude of N just right of j.  N is convex with N(e) = 0, so
N(k) ≥ N(j) - λ_j·(k - j) for k ≤ e, and N(j) ≤ λ_j·(k - j) for k > e.
If λ ≥ λ_j, each term t_k·γ^(k-j) of q_j(b) has valuation at least
N(j); if λ < λ_j (the roots off a, λ = 0, among them),
q_j(b)·γ^j = -Σ_(k<j) t_k·γ^k, each term of valuation at least
N(j) + (j - k)·λ_j + k·λ ≥ N(j) + j·λ.  So v(q_j(b)) ≥ N(j) at every
root, and every generator is integral even when p is irregular.  The
basis is triangular in the powers of γ, and of b, as q_j is monic, so
its index is ℓ^Σ⌊N(j)⌋, which is [O_ℓ : Z[b]] when p is regular by
Ore's theorem of the index; so the span is O_ℓ.  Regularity depends
on the lift of a, and an irregular count is only a lower bound (3 for
x^3-23x^2+7x-1 at 2, of index 2^4), so there Round 2 runs from
Dedekind's order.  The index is 0 exactly when v_ℓ(t_0) = 1: then N
is the one side from (0, 1) to (e, 0), whose residual polynomial is
linear, while v_ℓ(t_0) ≥ 2 gives N(1) ≥ 1, as every point with
0 < k < e lies at height 1 or more and the chord from (0, 2) to (e, 0)
passes height 2 - 2/e ≥ 1 at 1.  a is read off gcd(t, h), not searched
for mod ℓ; when gcd(t, h) = 1, so is gcd(f, t, h), and Z[b] is
ℓ-maximal.

*Minimal over-orders.*  The local orders at ℓ are the orders between
Z[b] and O_ℓ, and the walk reaches each of them from Z[b] through
covers, the minimal over-orders (Hofmann-Sircana, *On the computation
of overorders*; Marseglia, arXiv:1805.09671).  Let R ⊊ S ⊆ O_ℓ be a
cover.  R + ℓ·S is a ring between R and S, and it is not S, since
ℓ·G ≠ G for the nontrivial ℓ-group G = S/R; so it is R, and ℓ·S ⊆ R.
For every g ∈ S∖R the ring R[g] = span{r·g^j : r ∈ R, j < n} (g is
integral of degree n) lies strictly above R, so S = R[g]: every cover
is an R[g] with g in W = {x ∈ O_ℓ : ℓ·x ∈ R}.  W/R is an F_ℓ-space,
and R[g] depends only on the line of g in it: for u prime to ℓ and
u·u' ≡ 1 mod ℓ, g - u'·(u·g) ∈ ℓ·Z·g ⊆ R.  With X the coordinates of
a basis C/d of R in a basis of O_ℓ, x = (C·z)/(d·ℓ) lies in O_ℓ exactly
when X·z ≡ 0 mod ℓ, and in R exactly when z ≡ 0 mod ℓ, so W/R is the
kernel of X mod ℓ, of dimension k, found by Gauss-Jordan elimination
over F_ℓ (``_kernel_mod_prime``), with (ℓ^k - 1)/(ℓ - 1) lines.  Which
rings R[g] are covers needs no inclusion test: a ring S = R[g] of index
[S : R] = ℓ^m is a cover exactly when (ℓ^m - 1)/(ℓ - 1) lines generate
it.  If S is a cover, S/R ⊆ W/R is an F_ℓ-space of dimension m, as
ℓ·S ⊆ R, and each of its lines generates S by minimality.  Conversely,
the lines that generate S lie in (S ∩ W)/R, a space of order at most
ℓ^m, so that many lines fill it and force S ⊆ W; then every line of
S/R generates S, and an order T with R ⊊ T ⊆ S contains one of them,
so T = S.  When [O_ℓ : R] = ℓ, O_ℓ is the only cover and nothing is
formed.  A line forms R[g] only when ℓ·g^j ∈ R for 2 ≤ j < n: a cover S
has ℓ·S ⊆ R, so every line that generates a cover passes, each cover's
count stands, and a count that falls was below its mark.  The walk
examines the lines of every local order R with [O_ℓ : R] > ℓ, and
``LOCAL_ORDERS_BUDGET`` bounds their count.

The enumeration output is the ground truth; no external table is
consulted.
"""

import collections
import functools
import itertools
import math
from typing import List, NamedTuple, Tuple

from .config import debug_asserts_enabled
from .errors import BudgetExceeded
from .ideals import (
    FractionalIdeal, Order, ZLattice, _coordinates, _zbeta_index, coefficient_ring, lattice_sum,
    _zbeta_colon, zbeta,
)
from .kernels import solve_upper_cols
from .numberfield import NumberField, _mult_columns
from .polyring import _gf_divmod, _gf_gcd, _gf_normalize, _gf_radical, factorint, square_part


LOCAL_ORDERS_BUDGET = 2**14  # lines one local walk examines at most


class OrderLattice(NamedTuple):
    field: NumberField
    nodes: List[Order]
    edges: List[Tuple[int, int]]  # (sub, super) covering pairs into nodes
    min_index: int
    max_index: int


def _dedekind_maximal(p, ell, t, h):
    """U = (p mod ℓ)/gcd(f, t, h) of Dedekind's criterion (see the module
    doc), monic with coefficients in [0, ℓ), from t, the radical of
    p mod ℓ (``_gf_radical``), and h = (p mod ℓ)/t; Z[b] is ℓ-maximal
    exactly when deg U = deg p."""
    th = [0] * (p.degree + 1)  # t·h over Z, one convolution; p mod ℓ = t·h mod ℓ
    for i, a in enumerate(t):
        for j, b in enumerate(h):
            th[i + j] += a * b
    f = _gf_normalize([(c - e) // ell for c, e in zip(th, p.coeffs)], ell)
    return _gf_divmod(_gf_normalize(th, ell), _gf_gcd(f, _gf_gcd(t, h, ell), ell), ell)[0]


def _ore_order(field, ell, a):
    """O_ℓ from Ore's basis when x - a is the one repeated factor of p
    mod ℓ, or None when p is not ℓ-regular (see the module doc)."""
    n = field.n
    rest, t, quotients = list(field.p.coeffs), [], []  # t_0..t_e of p(x + a); q_1..q_e
    while not t or t[-1] % ell == 0:
        for k in range(len(rest) - 2, -1, -1):  # divide q_j by x - a
            rest[k] += a * rest[k + 1]
        t.append(rest.pop(0))
        quotients.append(rest + [0] * (len(t) - 1))
    if t[0] % (ell * ell):  # Ore's index is 0 (see the module doc)
        return zbeta(field)
    hull = []  # the vertices of N; t_0 ≠ 0, as p has no root a
    for k, c in enumerate(t):
        if not c:
            continue
        y = 0
        while c % ell == 0:
            c, y = c // ell, y + 1
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, y))
    floors = [hull[0][1]]  # ⌊N(j)⌋ for j = 0..e
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        dx, dy = x2 - x1, y1 - y2
        d = math.gcd(dx, dy)
        residual = [t[x1 + j * dx // d] // ell ** (y1 - j * dy // d) % ell for j in range(d + 1)]
        derivative = _gf_normalize([j * c for j, c in enumerate(residual)][1:], ell)
        if _gf_gcd(residual, derivative, ell) != [1]:
            return None
        floors += [(y1 * dx - (x - x1) * dy) // dx for x in range(x1 + 1, x2 + 1)]
    e, top = len(t) - 1, floors[1]  # N falls, so ⌊N(1)⌋ is the largest
    cols = [[ell**top * (r == i) for r in range(n)] for i in range(n - e + 1)]
    return ZLattice(field, ell**top, cols + [[c * ell ** (top - floors[j]) for c in quotients[j - 1]]
                                             for j in range(e - 1, 0, -1)])


def _index_primes(field):
    """(ℓ, O_ℓ) for the primes ℓ | F at which Z[b] is not ℓ-maximal (see
    the module doc): Ore's basis where x - a is the one repeated factor
    of p mod ℓ and p is ℓ-regular, else Round 2 from Dedekind's order up
    to the index bound ℓ^v_ℓ(F) where Dedekind's test does not clear ℓ.
    FactorizationIncomplete when disc(p) cannot be fully factored.
    There are none in degree 1, where Z[b] = Z_K."""
    p, n, zb = field.p, field.n, zbeta(field)
    found = []
    for ell, v in sorted(factorint(square_part(field.disc)[0]).items()):
        pbar = _gf_normalize(p.coeffs, ell)
        t = _gf_radical(pbar, ell)
        h = _gf_divmod(pbar, t, ell)[0]
        repeated = _gf_gcd(t, h, ell)  # the product of the repeated factors
        top = _ore_order(field, ell, -repeated[0] % ell) if len(repeated) == 2 else None
        if top is None and len(repeated) > 1:
            u = _dedekind_maximal(p, ell, t, h)
            top = _local_maximal(field, ell, v, u) if len(u) <= n else None
        elif top == zb and debug_asserts_enabled():
            assert len(_dedekind_maximal(p, ell, t, h)) > n, "Ore's index 0 below O_ℓ"
        if top is not None and top != zb:
            if debug_asserts_enabled():
                assert coefficient_ring(_radical(top, ell)) == top, (
                    "one more Round 2 step grows O_ℓ")
            found.append((ell, top))
    return found


def _dedekind_order(field, ell, u):
    """O₁ = Z[b] + (U(b)/ℓ)·Z[b] (see the module doc)."""
    n = field.n
    gens = [[ell * (r == i) for r in range(n)] for i in range(n)]
    return ZLattice(field, ell, gens + _mult_columns(field, u))


def _kernel_mod_prime(rows, ell):
    """A basis of {x ∈ F_ℓ^n : A·x = 0}, A the n×n matrix with these rows
    and ℓ prime, entries in [0, ℓ), by Gauss-Jordan elimination over
    F_ℓ: once each pivot row is 1 at its pivot column and 0 at the
    others, a free column c gives the vector that is 1 at c and minus
    each pivot row's entry at c at that row's pivot."""
    reduced = {}  # pivot column -> pivot row
    for row in rows:
        row = [e % ell for e in row]
        for col, piv in reduced.items():
            c = row[col]
            if c:
                row = [(e - c * q) % ell for e, q in zip(row, piv)]
        lead = next((j for j, e in enumerate(row) if e), None)
        if lead is not None:
            inv = pow(row[lead], -1, ell)
            row = [e * inv % ell for e in row]
            for col, piv in reduced.items():
                c = piv[lead]
                if c:
                    reduced[col] = [(e - c * q) % ell for e, q in zip(piv, row)]
            reduced[lead] = row
    n = len(rows)
    return [[int(j == c) if j not in reduced else -reduced[j][c] % ell for j in range(n)]
            for c in range(n) if c not in reduced]


def _radical(order, ell):
    """The ℓ-radical of an order O: ℓO plus the kernel mod ℓ of the
    Frobenius power x ↦ x^(ℓ^j), ℓ^j ≥ n, which is linear on O/ℓO and
    kills exactly its nilpotent elements."""
    field = order.field
    n = field.n
    d = order.denom
    cols = order.cols
    # table[a][b]: the coordinates mod ℓ of w_a·w_b in the basis w = cols/d;
    # (c_a/d)·(c_b/d) = (cols·x)/d with x = cols⁻¹·(c_a·c_b/d).
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        mult_a = _mult_columns(field, cols[a])
        for b in range(a, n):
            prod = [sum(mult_a[j][r] * cols[b][j] for j in range(n)) // d for r in range(n)]
            table[a][b] = table[b][a] = [e % ell for e in solve_upper_cols(cols, prod)]

    def mul(x, y):
        out = [0] * n
        for a, xa in enumerate(x):
            for b, yb in enumerate(y):
                if xa and yb:
                    c = xa * yb
                    out = [o + c * t for o, t in zip(out, table[a][b])]
        return [e % ell for e in out]

    def power(x, e):
        out = None
        while True:
            if e & 1:
                out = x if out is None else mul(out, x)
            e >>= 1
            if not e:
                return out
            x = mul(x, x)

    q = ell
    while q < n:
        q *= ell
    images = [power([int(r == i) for r in range(n)], q) for i in range(n)]
    rows = [[images[j][i] for j in range(n)] for i in range(n)]
    gens = [[ell * e for e in c] for c in cols]
    for k in _kernel_mod_prime(rows, ell):
        gens.append([sum(cols[j][r] * k[j] for j in range(n)) for r in range(n)])
    return ZLattice(field, d, gens)


def _local_maximal(field, ell, v, u):
    """The ℓ-maximal order O_ℓ ⊇ Z[b], by Round 2 from Dedekind's order
    O₁ of ``_dedekind_order`` up to the index bound ℓ^v of
    ``_index_primes``."""
    order = _dedekind_order(field, ell, u)
    while _zbeta_index(order) < ell**v:  # [O : Z[b]] below the bound
        bigger = coefficient_ring(_radical(order, ell))
        if bigger == order:
            break
        order = bigger
    return order


def _powers_in(ring, mult_g, den):
    """ℓ·g^j ∈ R = (1/d)·C for 2 ≤ j < n, g = vec/den, den = d·ℓ, and
    ``mult_g`` multiplication by vec, whose column 0 is vec."""
    n = len(mult_g)
    power = mult_g[0]  # den·g^j
    for _ in range(2, n):
        prod = [sum(mult_g[t][r] * power[t] for t in range(n)) for r in range(n)]
        if any(e % den for e in prod):
            return False
        power = [e // den for e in prod]
        if solve_upper_cols(ring.cols, power) is None:
            return False
    return True


def _adjoin(ring, mult_g, den):
    """R[g] for g = vec/den ∈ Z_K, ``mult_g`` the columns of
    multiplication by vec, and the order R = (1/d)·C: the span of r·g^j,
    r in the basis of R, j < n, scaled by d·den^(n-1), which keeps every
    generator integral (d·r and den·g are)."""
    field = ring.field
    n = field.n
    power = [[e * den ** (n - 1) for e in c] for c in ring.cols]  # r·g^j·d·den^(n-1), j = 0
    gens = list(power)
    for _ in range(n - 1):
        power = [[sum(mult_g[t][r] * c[t] for t in range(n)) // den for r in range(n)]
                 for c in power]
        gens.extend(power)
    return ZLattice(field, ring.denom * den ** (n - 1), gens)


def _lines(basis, ell):
    """One vector per line of the F_ℓ-span of the independent vectors
    ``basis``: the combinations whose first nonzero coefficient is 1."""
    for lead in range(len(basis)):
        for rest in itertools.product(range(ell), repeat=len(basis) - 1 - lead):
            yield [sum(c * e for c, e in zip((1,) + rest, entries)) % ell
                   for entries in zip(*basis[lead:])]


def _local_orders(top, ell):
    """(orders, ups, index) for the orders between Z[b] and the
    ℓ-primary order ``top``, by minimal over-orders from Z[b] (see the
    module doc): orders[0] is Z[b], orders[1] is ``top``, ups[i] the
    set of j with orders[j] a cover of orders[i], and index[i] =
    [orders[i] : Z[b]].  BudgetExceeded before an order's lines are
    examined, when they would take the count of lines the walk examines
    past LOCAL_ORDERS_BUDGET."""
    field = top.field
    n = field.n
    orders = [zbeta(field), top]
    index = [1, _zbeta_index(top)]
    position = {r: i for i, r in enumerate(orders)}
    ups = []
    examined = 0
    for i, ring in enumerate(orders):  # also visits the covers appended below
        if index[1] // index[i] <= ell:  # top itself, or an order whose only cover is top
            ups.append(set() if i == 1 else {1})
            continue
        # W/R, the ℓ-torsion of top/R, is the kernel mod ℓ of R's coordinates in top
        basis = _kernel_mod_prime(list(zip(*_coordinates(top, ring))), ell)
        examined += (ell ** len(basis) - 1) // (ell - 1)
        if examined > LOCAL_ORDERS_BUDGET:
            raise BudgetExceeded(f"{field.p}: the local walk would examine {examined} lines")
        den = ring.denom * ell  # g = (C·z)/(d·ℓ), reduced mod Z[b]
        mults = (_mult_columns(field, [sum(c[r] * e for c, e in zip(ring.cols, z)) % den
                                       for r in range(n)])
                 for z in _lines(basis, ell))
        lines = collections.Counter(_adjoin(ring, m, den) for m in mults
                                    if _powers_in(ring, m, den))
        up = set()
        for over, count in lines.items():
            size = _zbeta_index(over)
            if count * (ell - 1) == size // index[i] - 1:  # a cover
                if over not in position:
                    position[over] = len(orders)
                    orders.append(over)
                    index.append(size)
                up.add(position[over])
        ups.append(up)
    return orders, ups, index


def enumerate_order_lattice(field) -> OrderLattice:
    """All orders between Z[b] and the maximal order, with Hasse edges:
    the product of the local posets, whose covers are the local covers
    of ``_local_orders`` at one prime (see the module doc).

    Raises FactorizationIncomplete if disc(p) cannot be fully factored
    (the index bound F needs the exact square part), and BudgetExceeded
    when a local walk would examine more than LOCAL_ORDERS_BUDGET lines.
    """
    zb = zbeta(field)
    local = [_local_orders(top, ell) for ell, top in _index_primes(field)]
    found = {}  # choice of one local order per prime -> (index, node)
    for choice in itertools.product(*(range(len(orders)) for orders, _, _ in local)):
        parts = [orders[c] for c, (orders, _, index) in zip(choice, local) if index[c] > 1]
        node = Order._proven(functools.reduce(lattice_sum, parts)) if parts else zb
        found[choice] = (math.prod(index[c] for c, (_, _, index) in zip(choice, local)), node)
    choices = sorted(found, key=lambda c: (found[c][0], found[c][1].denom, found[c][1].cols))
    position = {c: k for k, c in enumerate(choices)}
    nodes = [found[c][1] for c in choices]
    edges = sorted((k, position[c[:l] + (j,) + c[l + 1:]])
                   for k, c in enumerate(choices)
                   for l, (_, ups, _) in enumerate(local) for j in ups[c[l]])
    if debug_asserts_enabled():
        # the nodes are sorted by index, so a unique top is the last one
        assert all(nodes[-1].contains_lattice(r) for r in nodes), (
            "order lattice has no unique maximal node")
        for r in nodes:
            assert Order(field, r.denom, r.cols) == r, "a sum of local orders is not an order"
        m = len(nodes)
        incl = [[r != s and s.contains_lattice(r) for s in nodes] for r in nodes]
        assert edges == [(i, j) for i in range(m) for j in range(m) if incl[i][j] and not any(
            incl[i][k] and incl[k][j] for k in range(m))], "covers != the reduction of containment"
    return OrderLattice(field, nodes, edges, found[choices[0]][0], found[choices[-1]][0])


def maximal_order(field) -> Order:
    """The ring of integers Z_K: the sum of the ℓ-maximal orders O_ℓ
    over the primes ℓ that may divide the index (see the module doc)."""
    total = zbeta(field)
    for _ell, top in _index_primes(field):
        total = lattice_sum(total, top)
    return Order._proven(total)


def conductor(ring) -> FractionalIdeal:
    """(Z[b] : R), i.e. R⁻¹ with R viewed as a Z[b]-fractional ideal,
    from Euler's dual basis (``ideals._zbeta_colon``)."""
    return _zbeta_colon(ring)


def order_discriminant(ring) -> int:
    """Discriminant of an order: disc(p) / [R : Z[b]]², since the trace
    Gram of a basis B is Bᵀ·G·B with det G = disc(p) on the power basis;
    in degree 1, G = [[Tr 1]] = [[1]]."""
    d, rem = divmod(ring.field.disc, _zbeta_index(ring) ** 2)
    assert not rem
    return d


def non_invertible_primes(field) -> List[FractionalIdeal]:
    """Conductors of the orders immediately above Z[b].

    Each is a prime ideal of Z[b] that is not invertible, and every
    non-invertible prime of Z[b] arises from exactly one such cover.
    """
    lat = enumerate_order_lattice(field)  # Z[b], of index 1, is node 0
    return [conductor(lat.nodes[j]) for i, j in lat.edges if i == 0]
