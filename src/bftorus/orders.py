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
multipliers (I : I) contains O, and it equals O exactly when O is
ℓ-maximal; otherwise O grows to it and the step repeats.

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
to ℓ; what is left after they are divided out of the gcd is an ℓ-th
power g(x^ℓ), whose radical is that of g.

*The index bound.*  disc(p) = [Z_K : Z[b]]²·disc(Z_K) and
[O_ℓ : Z[b]] is the ℓ-part of [Z_K : Z[b]], so with i = v_ℓ[O_ℓ : Z[b]],
2i ≤ v_ℓ(disc p) = 2·v_ℓ(F) + v_ℓ(Δ) ≤ 2·v_ℓ(F) + 1, hence
i ≤ v_ℓ(F).  An order O between Z[b] and O_ℓ of index ℓ^v_ℓ(F)
therefore has the covolume of O_ℓ and is O_ℓ: Round 2 stops there
without the radical and colon that would confirm the fixed point.

*Local subgroups.*  The local orders at ℓ are the β-stable, ring-closed
subgroups of the finite ℓ-group O_ℓ/Z[b], whose generators are read
off the Smith form of the inclusion Z[b] ⊆ O_ℓ.  Such a subgroup is the
ring generated by Z[b] and its elements, so each local order is a join
of the orders Z[b][g] = span{b^i·g^j : i, j < n}, g ∈ O_ℓ, and the
join of two orders R, S is the ring R·S.  Z[b][g] depends only on the
cyclic subgroup ⟨g⟩ of O_ℓ/Z[b]: if g has order e there and u is prime
to e, then u·u' ≡ 1 mod e for some u', so g - u'·(u·g) ∈ Z[b] puts g
in Z[b][u·g], and u·g lies in Z[b][g].  The walk forms one Z[b][g] per
cyclic subgroup and closes the set under joins, skipping the join of
two comparable orders R ⊆ S, which is S.

The enumeration output is the ground truth; no external table is
consulted.
"""

import functools
import itertools
import math
from typing import List, NamedTuple, Tuple

from .config import debug_asserts_enabled
from .errors import BudgetExceeded
from .exactmat import kernel_mod_m
from .ideals import (
    FractionalIdeal, Order, ZLattice, _coordinates, _zbeta_index, colon, lattice_sum, product,
    zbeta, zbeta_colon,
)
from .kernels import snf_rows, solve_upper_cols
from .numberfield import NumberField, _mult_columns
from .polyring import (
    IntPoly,
    _gf_divmod,
    _gf_gcd,
    _gf_normalize,
    _gf_radical,
    discriminant,
    factorint,
    square_part,
)


LOCAL_ORDERS_BUDGET = 2**20  # elements of O_ℓ/Z[b] the local walk visits at most


class OrderLattice(NamedTuple):
    field: NumberField
    nodes: List[Order]
    edges: List[Tuple[int, int]]  # (sub, super) covering pairs into nodes
    min_index: int
    max_index: int


def _dedekind_maximal(p, ell):
    """U = (p mod ℓ)/gcd(f, t, h) of Dedekind's criterion (see the module
    doc), monic with coefficients in [0, ℓ); Z[b] is ℓ-maximal exactly
    when deg U = deg p.  t is the radical of p mod ℓ from
    ``_gf_radical``."""
    pbar = _gf_normalize(p.coeffs, ell)
    t = _gf_radical(pbar, ell)
    h = _gf_divmod(pbar, t, ell)[0]
    f = [c // ell for c in (IntPoly(t) * IntPoly(h) - p).coeffs]
    common = _gf_gcd(_gf_gcd(_gf_normalize(f, ell), t, ell), h, ell)
    return _gf_divmod(pbar, common, ell)[0]


def _index_primes(field):
    """(ℓ, v_ℓ(F), U) for the primes ℓ | F at which Z[b] may fail to be
    ℓ-maximal, those the Dedekind criterion does not clear, with U from
    ``_dedekind_maximal``.  FactorizationIncomplete when disc(p) cannot
    be fully factored.  There are none in degree 1, where Z[b] = Z_K."""
    big_f = square_part(discriminant(field.p))[0] if field.n > 1 else 1
    found = [(ell, v, _dedekind_maximal(field.p, ell)) for ell, v in factorint(big_f).items()]
    return sorted((ell, v, u) for ell, v, u in found if len(u) <= field.n)


def _dedekind_order(field, ell, u):
    """O₁ = Z[b] + (U(b)/ℓ)·Z[b] (see the module doc)."""
    n = field.n
    gens = [[ell * (r == i) for r in range(n)] for i in range(n)]
    return ZLattice(field, ell, gens + _mult_columns(field, u))


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
    for k in kernel_mod_m(rows, ell):
        gens.append([sum(cols[j][r] * k[j] for j in range(n)) for r in range(n)])
    return ZLattice(field, d, gens)


def _local_maximal(field, ell, v, u):
    """The ℓ-maximal order O_ℓ ⊇ Z[b], by Round 2 from Dedekind's order
    O₁ of ``_dedekind_order`` up to the index ℓ^v, v = v_ℓ(F)."""
    order = _dedekind_order(field, ell, u)
    while _zbeta_index(order) < ell**v:  # [O : Z[b]] below the bound
        rad = _radical(order, ell)
        bigger = colon(rad, rad)
        if bigger == order:
            break
        order = bigger
    if debug_asserts_enabled():
        rad = _radical(order, ell)
        assert colon(rad, rad) == order, "Round 2 stopped below the ℓ-maximal order"
    return order


def _monogenic(field, vec, den):
    """Z[b][g] for g = vec/den ∈ Z_K: the span of b^i·g^j, i, j < n."""
    n = field.n
    scale = den ** (n - 1)
    mult_g = _mult_columns(field, vec)
    power = [scale] + [0] * (n - 1)  # g^j·den^(n-1), integral for j < n
    gens = _mult_columns(field, power)  # b^i·g^j for i < n, here j = 0
    for _ in range(n - 1):
        power = [sum(mult_g[j][i] * power[j] for j in range(n)) // den for i in range(n)]
        gens.extend(_mult_columns(field, power))
    return ZLattice(field, scale, gens)


def _local_orders(top):
    """(orders, below, index) for the orders between Z[b] and the
    ℓ-primary order ``top``: below[j] = {i : orders[i] ⊊ orders[j]},
    index[j] = [orders[j] : Z[b]].  BudgetExceeded when top/Z[b] has
    more than LOCAL_ORDERS_BUDGET elements, before the walk steps
    through them.

    With X = d·C⁻¹ the coordinates of the power basis in the basis
    C/d of ``top``, U·X·V = diag(a) gives b-coordinates V_i (column i
    of V) = a_i·w_i for a basis w of ``top``, so top/Z[b] is the sum
    of the cyclic groups generated by w_i = V_i/a_i, of orders a_i.
    The first element met of each cyclic subgroup gives its ring
    Z[b][g], and its other generators u·g are marked covered.  The join
    loop tests each pair once, in the one direction the indices allow:
    S ⊊ R needs [S : Z[b]] to properly divide [R : Z[b]].
    """
    field = top.field
    n = field.n
    xcols = _coordinates(top, zbeta(field))
    diag, _, v = snf_rows([[xc[i] for xc in xcols] for i in range(n)])
    size = math.prod(diag)
    if size > LOCAL_ORDERS_BUDGET:
        raise BudgetExceeded(f"{field.p}: the local walk would visit {size} elements")
    big = diag[-1]
    gens = [(a, [v[r][i] * (big // a) for r in range(n)]) for i, a in enumerate(diag) if a > 1]
    orders = []
    covered = set()
    for coeffs in itertools.product(*(range(a) for a, _ in gens)):
        if coeffs in covered:
            continue
        e = max((a // math.gcd(c, a) for c, (a, _) in zip(coeffs, gens)), default=1)
        covered.update(tuple(u * c % a for c, (a, _) in zip(coeffs, gens))
                       for u in range(1, e) if math.gcd(u, e) == 1)
        orders.append(_monogenic(field, [sum(c * g[r] for c, (_, g) in zip(coeffs, gens)) % big
                                         for r in range(n)], big))
    orders = list(dict.fromkeys(orders))
    index = [_zbeta_index(r) for r in orders]
    below = [set() for _ in orders]
    seen = set(orders)
    for i, r in enumerate(orders):  # also visits the joins appended below
        for k in range(i):
            sub, sup = (k, i) if index[k] < index[i] else (i, k)
            if (index[sub] < index[sup] and index[sup] % index[sub] == 0
                    and orders[sup].contains_lattice(orders[sub])):
                below[sup].add(sub)
                continue
            ring = product(r, orders[k])
            if ring not in seen:
                seen.add(ring)
                orders.append(ring)
                index.append(_zbeta_index(ring))
                below.append(set())
    return orders, below, index


def enumerate_order_lattice(field) -> OrderLattice:
    """All orders between Z[b] and the maximal order, with Hasse edges:
    the product of the local posets (see the module doc).

    Raises FactorizationIncomplete if disc(p) cannot be fully factored
    (the index bound F needs the exact square part), and BudgetExceeded
    when some O_ℓ/Z[b] has more than LOCAL_ORDERS_BUDGET elements.
    """
    zb = zbeta(field)
    local = [_local_orders(_local_maximal(field, *prime)) for prime in _index_primes(field)]
    # ups[l][i]: the j with orders[i] ⊊ orders[j] a cover at the l-th prime
    ups = [[[j for j, under in enumerate(below) if i in under
             and not any(i in below[k] for k in under)] for i in range(len(below))]
           for _, below, _ in local]
    found = {}  # choice of one local order per prime -> (index, node)
    for choice in itertools.product(*(range(len(orders)) for orders, _, _ in local)):
        parts = [orders[c] for c, (orders, _, index) in zip(choice, local) if index[c] > 1]
        node = Order._proven(functools.reduce(lattice_sum, parts)) if parts else zb
        found[choice] = (math.prod(index[c] for c, (_, _, index) in zip(choice, local)), node)
    choices = sorted(found, key=lambda c: (found[c][0], found[c][1].denom, found[c][1].cols))
    position = {c: k for k, c in enumerate(choices)}
    nodes = [found[c][1] for c in choices]
    edges = sorted((k, position[c[:l] + (j,) + c[l + 1:]])
                   for k, c in enumerate(choices) for l, up in enumerate(ups) for j in up[c[l]])
    # the nodes are sorted by index, so a unique top is the last one
    if not all(nodes[-1].contains_lattice(r) for r in nodes):
        raise AssertionError("order lattice has no unique maximal node")
    if debug_asserts_enabled():
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
    for prime in _index_primes(field):
        total = lattice_sum(total, _local_maximal(field, *prime))
    return Order._proven(total)


def conductor(ring) -> FractionalIdeal:
    """(Z[b] : R), i.e. R⁻¹ with R viewed as a Z[b]-fractional ideal,
    from Euler's dual basis (``ideals.zbeta_colon``)."""
    return zbeta_colon(ring)


def order_discriminant(ring) -> int:
    """Discriminant of an order: disc(p) / [R : Z[b]]², since the trace
    Gram of a basis B is Bᵀ·G·B with det G = disc(p) on the power basis;
    in degree 1, G = [[Tr 1]] = [[1]]."""
    p = ring.field.p
    d, rem = divmod(discriminant(p) if p.degree > 1 else 1, _zbeta_index(ring) ** 2)
    assert not rem
    return d


def non_invertible_primes(field) -> List[FractionalIdeal]:
    """Conductors of the orders immediately above Z[b].

    Each is a prime ideal of Z[b] that is not invertible, and every
    non-invertible prime of Z[b] arises from exactly one such cover.
    """
    lat = enumerate_order_lattice(field)  # Z[b], of index 1, is node 0
    return [conductor(lat.nodes[j]) for i, j in lat.edges if i == 0]
