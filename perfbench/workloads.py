"""The benchmark workloads: seeded inputs, the timed task, and its check.

Each workload is a list of at least 100 distinct tasks of one kind, so
that per-task times are comparable and the 90th percentile has at least
ten samples beyond it.  Inputs come only from ``random.Random`` and the
oracles in ``oracles.py``; the task is the only code that calls the
library.  A check raises ``CheckFailed``; it runs outside the timed
section.  ``summary`` reduces an output to a canonical string, so that
later passes over the same task can be compared with the checked first
one.
"""

import hashlib
import json
import random
from typing import Callable, NamedTuple

import oracles as orc

REFUTE_BOUND = 2
PERIODIC_BITS = 300
LATTICE_F = range(8, 17)


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _unit_irreducible(a):
    return abs(orc.leibniz_det(a)) == 1 and orc.is_irreducible(orc.char_poly(a))


def _lattice_key(lat):
    return [lat.denom, [list(c) for c in lat.cols]]


# ---------------------------------------------------------------------
# refute: bf_refute on a conjugate pair, which must exhaust its list

def gen_refute(rng, count):
    out, seen = [], set()
    while len(out) < count:
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        key = str(a)
        if key in seen or not _unit_irreducible(a):
            continue
        seen.add(key)
        p, pinv = orc.random_unimodular_pair(rng, 3, steps=6)
        out.append([a, orc.mat_mul(orc.mat_mul(p, a), pinv)])
    return out


def run_refute(lib, task):
    a, b = task
    return lib.invariants.bf_refute(a, b, bound=REFUTE_BOUND)


def check_refute(task, verdict):
    # Conjugate matrices share every BF_g, so no candidate may separate them.
    _require(verdict.kind == "inconclusive", f"conjugate pair refuted: {verdict}")
    _require(verdict.bound == REFUTE_BOUND, f"wrong search bound {verdict.bound}")


def summary_refute(verdict):
    return f"{verdict.kind}:{verdict.bound}"


# ---------------------------------------------------------------------
# periodic: BF_k on 4x4 unit matrices whose powers have huge entries

def gen_periodic(rng, count):
    out, seen = [], set()
    while len(out) < count:
        a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        key = str(a)
        if key in seen or not _unit_irreducible(a):
            continue
        seen.add(key)
        # k is a property of A: the least k at which A^k reaches the entry
        # size.  None means a cyclotomic characteristic polynomial, whose
        # powers stay small (and A^k - I can be singular).
        k = orc.least_power(a, PERIODIC_BITS)
        if k is not None:
            out.append([a, k])
    return out


def run_periodic(lib, task):
    a, k = task
    return lib.invariants.bf_k(a, k)


def check_periodic(task, group):
    a, k = task
    m = orc.mat_pow(a, k)
    for i in range(len(m)):
        m[i][i] -= 1
    _require(group.free_rank == 0, f"BF_k is infinite: {group}")
    _require(group.order() == abs(orc.leibniz_det(m)), "|BF_k| != |det(A^k - I)|")


def summary_periodic(group):
    return str(group)


# ---------------------------------------------------------------------
# dictionary: matrix <-> ideal, the coefficient ring and the trace dual

def gen_dictionary(rng, count):
    out, seen = [], set()
    while len(out) < count:
        a, _ = orc.random_unimodular_pair(rng, 4, steps=8)
        key = str(a)
        if key in seen or not orc.is_irreducible(orc.char_poly(a)):
            continue
        seen.add(key)
        p, pinv = orc.random_unimodular_pair(rng, 4, steps=6)
        out.append([a, orc.mat_mul(orc.mat_mul(p, a), pinv)])
    return out


def run_dictionary(lib, task):
    a, b = task
    ideal = lib.invariants.matrix_to_ideal(a)
    ring = lib.ideals.coefficient_ring(ideal)
    invertible = lib.ideals.is_invertible(ideal, ring)
    dual = lib.ideals.trace_dual(ideal)
    back = lib.invariants.ideal_to_matrix(ideal)
    verdict = lib.invariants.l_equivalent(a, b)
    return ideal, ring, invertible, dual, back, verdict


def check_dictionary(task, out):
    a, _ = task
    ideal, ring, invertible, dual, back, verdict = out
    p = orc.char_poly(a)
    n = len(a)
    _require(verdict.kind == "L-equivalent", f"conjugate pair not L-equivalent: {verdict}")
    _require(all(type(e) is int for row in back for e in row) and orc.char_poly(back) == p,
             "ideal_to_matrix does not give back the characteristic polynomial")
    ib = orc.lattice_basis(ideal.denom, ideal.cols)
    rb = orc.lattice_basis(ring.denom, ring.cols)
    _require(all(orc.in_span(rb, [int(i == j) for j in range(n)]) for i in range(n)),
             "C(I) does not contain Z[b]")
    _require(all(orc.in_span(ib, orc.nf_mul(r, x, p)) for r in rb for x in ib),
             "C(I) * I is not inside I")
    # The trace pairing of I with its dual is integral and unimodular.
    db = orc.lattice_basis(dual.denom, dual.cols)
    gram = [[orc.nf_trace(orc.nf_mul(x, y, p), p) for y in db] for x in ib]
    _require(all(g.denominator == 1 for row in gram for g in row),
             "trace pairing of I and its dual is not integral")
    _require(abs(orc.leibniz_det([[int(g) for g in row] for row in gram])) == 1,
             "trace pairing of I and its dual is not unimodular")
    _require(type(invertible) is bool, "is_invertible did not return a bool")
    # Z[b] is Gorenstein: every ideal with coefficient ring Z[b] is invertible.
    if _index(ring) == 1:
        _require(invertible, "an ideal with coefficient ring Z[b] is not invertible")


def summary_dictionary(out):
    ideal, ring, invertible, dual, back, verdict = out
    return json.dumps([_lattice_key(ideal), _lattice_key(ring), invertible,
                       _lattice_key(dual), back, verdict.kind])


# ---------------------------------------------------------------------
# lattice: all orders of a cubic field, with conductors and discriminants

def gen_lattice(rng, count):
    # The walk's cost is set by the divisors of F, so every F in [8, 16]
    # gets the same share of the tasks, whatever the seed.
    quota = {f: count // len(LATTICE_F) + (k < count % len(LATTICE_F))
             for k, f in enumerate(LATTICE_F)}
    out, seen = [], set()
    while len(out) < count:
        p = [rng.choice((-1, 1)), rng.randint(-40, 40), rng.randint(-40, 40), 1]
        key = str(p)
        if key in seen:
            continue
        seen.add(key)
        if len(seen) == 2 * 81 * 81:
            raise ValueError("too few cubics for the requested task count")
        if not orc.is_irreducible(p):
            continue
        f = orc.square_part(orc.cubic_discriminant(p))
        if quota.get(f):
            quota[f] -= 1
            out.append(p)
    return out


def run_lattice(lib, task):
    field = lib.numberfield.NumberField(lib.polyring.IntPoly(task))
    lat = lib.orders.enumerate_order_lattice(field)
    conductors = [lib.orders.conductor(r) for r in lat.nodes]
    discs = [lib.orders.order_discriminant(r) for r in lat.nodes]
    return lat, conductors, discs


def _index(order):
    # [R : Z[b]] = 1 / covolume; the columns are upper triangular.
    diag = 1
    for i, col in enumerate(order.cols):
        diag *= col[i]
    index, rem = divmod(order.denom ** len(order.cols), diag)
    _require(rem == 0, "order does not contain Z[b]")
    return index


def check_lattice(task, out):
    lat, conductors, discs = out
    disc_p = orc.cubic_discriminant(task)
    indices = [_index(r) for r in lat.nodes]
    _require(indices.count(1) == 1, "Z[b] is not exactly one node")
    for index, d in zip(indices, discs):
        _require(d * index * index == disc_p, "disc(R) * [R:Z[b]]^2 != disc(p)")
    largest = lat.nodes[indices.index(max(indices))]
    top = orc.lattice_basis(largest.denom, largest.cols)
    for r in lat.nodes:
        _require(all(orc.in_span(top, v) for v in orc.lattice_basis(r.denom, r.cols)),
                 "the largest order does not contain every node")
    for r, f in zip(lat.nodes, conductors):
        basis_f = orc.lattice_basis(f.denom, f.cols)
        _require(all(c.denominator == 1 for v in basis_f for c in v),
                 "conductor is not inside Z[b]")
        _require(all(c.denominator == 1 for u in basis_f
                     for v in orc.lattice_basis(r.denom, r.cols)
                     for c in orc.nf_mul(u, v, task)),
                 "conductor times R is not inside Z[b]")


def summary_lattice(out):
    lat, conductors, discs = out
    return json.dumps([[_lattice_key(r) for r in lat.nodes], lat.edges,
                       [_lattice_key(f) for f in conductors], discs])


# ---------------------------------------------------------------------

class Workload(NamedTuple):
    name: str
    count: int
    generate: Callable
    run: Callable
    check: Callable
    summary: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("refute", 100, gen_refute, run_refute, check_refute, summary_refute),
        Workload("periodic", 150, gen_periodic, run_periodic, check_periodic,
                 summary_periodic),
        Workload("dictionary", 100, gen_dictionary, run_dictionary, check_dictionary,
                 summary_dictionary),
        Workload("lattice", 108, gen_lattice, run_lattice, check_lattice, summary_lattice),
    )
}


def inputs(workload, seed, count=None):
    """The task list of ``workload`` for ``seed``; same seed, same list."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    return workload.generate(rng, workload.count if count is None else count)


def digest(tasks):
    """SHA-256 of the task list in canonical JSON text."""
    text = json.dumps(tasks, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
