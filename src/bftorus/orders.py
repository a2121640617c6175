"""Enumeration of the finite lattice of orders Z[b] ⊆ R ⊆ Z_K.

Every order R satisfies [R : Z[b]] = d with d | F, where disc(p) = F²·Δ
and Δ is square-free.  Then M = d·R is an integer lattice squeezed
between d·Zⁿ and Zⁿ of index exactly d^(n-1), so the orders of index d
are found by walking the (finite) set of column-Hermite transversals
with diagonal products d^(n-1) and keeping those that survive three
filters: contain d·Zⁿ, are stable under multiplication by b, and are
closed under multiplication.  The enumeration output is the ground
truth; no external table is consulted.
"""

from typing import List, NamedTuple, Tuple

from .ideals import (
    FractionalIdeal,
    Order,
    _beta_action,
    _beta_columns,
    _escaping_product,
    colon,
    zbeta,
)
from .kernels import solve_upper_cols
from .numberfield import NumberField
from .polyring import discriminant, factorint, square_part


class OrderLattice(NamedTuple):
    field: NumberField
    nodes: List[Order]
    edges: List[Tuple[int, int]]  # (sub, super) covering pairs into nodes
    min_index: int
    max_index: int


def _divisors_from_factorization(fac):
    divs = [1]
    for p, e in sorted(fac.items()):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _diag_tuples(d, n, d_fac):
    """All (a_1..a_n) with a_i | d and product d^(n-1)."""
    divs = _divisors_from_factorization(d_fac)
    target = d ** (n - 1)
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            if remaining == 1:
                out.append(tuple(prefix))
            return
        slots = n - len(prefix)
        for a in divs:
            if remaining % a:
                continue
            # the rest can contribute at most d^(slots-1)
            if remaining > a * d ** (slots - 1):
                continue
            rec(prefix + [a], remaining // a)

    rec([], target)
    return out


def _candidate_columns(diag):
    """Yield upper-triangular HNF column sets with the given diagonal;
    entries right of the pivot of row i range over [0, a_i)."""
    n = len(diag)
    free = [(i, j) for j in range(1, n) for i in range(j)]

    def rec(k, cols):
        if k == len(free):
            yield [list(c) for c in cols]
            return
        i, j = free[k]
        for v in range(diag[i]):
            cols[j][i] = v
            yield from rec(k + 1, cols)
        cols[j][i] = 0

    base = [[diag[j] if i == j else 0 for i in range(n)] for j in range(n)]
    yield from rec(0, base)


def enumerate_order_lattice(field) -> OrderLattice:
    """All orders between Z[b] and the maximal order, with Hasse edges.

    Raises FactorizationIncomplete if disc(p) cannot be fully factored
    (the index bound F needs the exact square part).
    """
    zb = zbeta(field)
    n = field.n
    if n == 1:
        return OrderLattice(field, [zb], [], 1, 1)
    disc = discriminant(field.p)
    big_f, _delta = square_part(disc)
    f_fac = factorint(big_f)

    mult_b = _beta_columns(field)

    found = [zb]
    for d in _divisors_from_factorization(f_fac):
        if d == 1:
            continue
        d_fac = factorint(d)
        for diag in _diag_tuples(d, n, d_fac):
            for cols in _candidate_columns(diag):
                if not _contains_d_zn(cols, d, n):
                    continue
                if _beta_action(cols, mult_b) is None:
                    continue
                if _escaping_product(field, cols, d) is not None:
                    continue
                found.append(Order(field, d, cols))

    nodes = sorted(found, key=lambda r: (1 / r.covolume(), r.denom, r.cols))
    indices = [int(1 / r.covolume()) for r in nodes]
    # inclusion matrix and its transitive reduction
    incl = [
        [i != j and nodes[j].contains_lattice(nodes[i]) for j in range(len(nodes))]
        for i in range(len(nodes))
    ]
    edges = []
    for i in range(len(nodes)):
        for j in range(len(nodes)):
            if incl[i][j] and not any(
                incl[i][k] and incl[k][j] for k in range(len(nodes))
            ):
                edges.append((i, j))
    top = max(range(len(nodes)), key=lambda i: indices[i])
    if not all(nodes[top].contains_lattice(r) for r in nodes):
        raise AssertionError("order lattice has no unique maximal node")
    return OrderLattice(field, nodes, sorted(edges), min(indices), max(indices))


def _contains_d_zn(cols, d, n):
    for i in range(n):
        rhs = [d if r == i else 0 for r in range(n)]
        if solve_upper_cols(cols, rhs) is None:
            return False
    return True


def maximal_order(field) -> Order:
    """The top node of the order lattice (the ring of integers Z_K)."""
    lat = enumerate_order_lattice(field)
    top = max(range(len(lat.nodes)), key=lambda i: 1 / lat.nodes[i].covolume())
    return lat.nodes[top]


def conductor(ring) -> FractionalIdeal:
    """(Z[b] : R), i.e. R⁻¹ with R viewed as a Z[b]-fractional ideal."""
    zb = zbeta(ring.field)
    return colon(zb, ring).as_ideal()


def order_discriminant(ring) -> int:
    """Discriminant of an order: disc(p)·covolume², since the trace Gram
    of a basis B is Bᵀ·G·B with det G = disc(p) on the power basis."""
    d = discriminant(ring.field.p) * ring.covolume() ** 2
    assert d.denominator == 1
    return d.numerator


def non_invertible_primes(field) -> List[FractionalIdeal]:
    """Conductors of the orders immediately above Z[b].

    Each is a prime ideal of Z[b] that is not invertible, and every
    non-invertible prime of Z[b] arises from exactly one such cover.
    """
    lat = enumerate_order_lattice(field)
    zb_index = next(
        i for i, r in enumerate(lat.nodes) if r == zbeta(field)
    )
    covers = [j for (i, j) in lat.edges if i == zb_index]
    return [conductor(lat.nodes[j]) for j in sorted(covers)]
