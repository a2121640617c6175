"""Seeded golden digests of the lattice layer's canonical outputs.

Each section renders a fixed, seeded battery of results as text and
compares its SHA-256 with a recorded value, so a refactor that shifts a
canonical form (an HNF basis, a denominator, a node order, a verdict
string) fails here even where no hand-written expectation covers it.

The batteries:

* ``dictionary``: for worked and seeded random matrices (n = 2..4, unit
  and non-unit determinants), the ideal of A, its coefficient ring,
  (Z[b] : I), (C(I) : I), invertibility over C(I) and Z[b], the trace
  dual, and ideal_to_matrix of the ideal, its ring and its dual.
* ``verdicts``: l_equivalent, bf_refute (bound 2) and bf_certify on
  (A, PAP^-1), (A, companion of p) and (A, A^t) pairs.
* ``lattice``: the order lattices of fixed quadratic and cubic fields
  and of seeded cubics with small index bound: nodes (denominator and
  basis), edges, discriminants and conductors.

Each section runs twice, with debug assertions off and on
(``bftorus.config.set_debug_asserts``), so the internal cross-checks
run over the whole battery in every test run.

To re-record after an intended change of output, run this file as a
script from the repository root and paste what it prints:

    PYTHONPATH=src:tests python tests/test_golden_digest.py
"""

import hashlib
import random

import pytest

from bftorus.config import debug_asserts_enabled, set_debug_asserts
from bftorus.exactmat import char_poly
from bftorus.ideals import (
    coefficient_ring,
    colon,
    is_invertible,
    trace_dual,
    zbeta,
)
from bftorus.invariants import (
    bf_certify,
    bf_refute,
    ideal_to_matrix,
    l_equivalent,
    matrix_to_ideal,
)
from bftorus.numberfield import NumberField
from bftorus.orders import conductor, enumerate_order_lattice, order_discriminant
from bftorus.polyring import IntPoly, discriminant, square_part

from util import (
    EX1_A,
    EX1_B,
    EX1_C,
    EX2_M,
    EX2_MP,
    P_CUBIC,
    P_QUAD,
    companion,
    mat_mul,
    oracle_char_poly,
    oracle_irreducible,
    random_unimodular_pair,
)

SEED = 20031

GOLDEN = {
    "dictionary": "7fdc7e18116011e47e8bd9ed4c0ac11fc788870ea3f07195f5e5d5e5968de464",
    "verdicts": "14715813040eaaa6b9062b871bbfc31b048cdbc56000a08df2fd5430635ad543",
    "lattice": "a06a2ca187c0d0437c24698110073d77d9adb979bae0aca84f3de4103cd32894",
}


def _lat(x):
    return f"{x.denom}:{[list(c) for c in x.cols]}"


def _matrices(rng, count):
    """Seeded irreducible integer matrices, n = 2..4, any determinant."""
    out = []
    while len(out) < count:
        n = rng.choice((2, 3, 4))
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        p = oracle_char_poly(a)
        if p[0] != 0 and oracle_irreducible(p):
            out.append(a)
    return out


def _transpose(a):
    return [list(r) for r in zip(*a)]


def dictionary_lines():
    rng = random.Random(SEED)
    for a in [EX1_A, EX1_B, EX1_C, EX2_M, EX2_MP] + _matrices(rng, 24):
        ideal = matrix_to_ideal(a)
        zb = zbeta(ideal.field)
        ring = coefficient_ring(ideal)
        dual = trace_dual(ideal)
        yield " ".join(
            [
                f"A={a}",
                f"I={_lat(ideal)}",
                f"C={_lat(ring)}",
                f"ZI={_lat(colon(zb, ideal))}",
                f"CI={_lat(colon(ring, ideal))}",
                f"inv={is_invertible(ideal, ring)},{is_invertible(ideal, zb)}",
                f"dual={_lat(dual)}",
                f"M={ideal_to_matrix(ideal)}",
                f"MC={ideal_to_matrix(ring)}",
                f"MD={ideal_to_matrix(dual)}",
            ]
        )


def verdict_lines():
    rng = random.Random(SEED + 1)
    pairs = [(EX1_A, EX1_B), (EX1_A, EX1_C), (EX1_B, EX1_C), (EX2_M, EX2_MP)]
    for a in _matrices(rng, 12):
        n = len(a)
        p, q = random_unimodular_pair(rng, n)
        pairs.append((a, mat_mul(mat_mul(p, a), q)))
        pairs.append((a, companion(char_poly(a).coeffs)))
        pairs.append((a, _transpose(a)))
    for a, b in pairs:
        yield " ".join(
            [
                f"A={a} B={b}",
                f"L={l_equivalent(a, b).to_json_dict()}",
                f"R={bf_refute(a, b, bound=2).to_json_dict()}",
                f"C={bf_certify(a, b).to_json_dict()}",
            ]
        )


def _lattice_fields():
    fields = [IntPoly(P_QUAD), IntPoly(P_CUBIC), IntPoly([-12, 0, 0, 1])]
    rng = random.Random(SEED + 2)
    while len(fields) < 14:
        coeffs = [rng.randint(-20, 20) for _ in range(3)] + [1]
        if coeffs[0] == 0 or not oracle_irreducible(coeffs):
            continue
        big_f, _ = square_part(discriminant(IntPoly(coeffs)))
        if 4 <= big_f <= 16:
            fields.append(IntPoly(coeffs))
    return fields


def lattice_lines():
    for p in _lattice_fields():
        lat = enumerate_order_lattice(NumberField(p))
        yield f"p={p} edges={lat.edges} index={lat.min_index}..{lat.max_index}"
        for node in lat.nodes:
            yield " ".join(
                [
                    f"  R={_lat(node)}",
                    f"disc={order_discriminant(node)}",
                    f"cond={_lat(conductor(node))}",
                    f"M={ideal_to_matrix(node)}",
                ]
            )


SECTIONS = {
    "dictionary": dictionary_lines,
    "verdicts": verdict_lines,
    "lattice": lattice_lines,
}


def digest(section):
    h = hashlib.sha256()
    for line in SECTIONS[section]():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize(
    "section, debug",
    [pytest.param(s, False, id=s) for s in sorted(SECTIONS)]
    + [pytest.param(s, True, id=f"{s}-debug") for s in sorted(SECTIONS)],
)
def test_golden_digest(section, debug):
    # With debug assertions on, every internal cross-check (Cayley-Hamilton,
    # v.A = beta.v, the dictionary char poly, the colon kernel rank, the
    # trace-dual involution, ...) also runs across the whole battery.
    saved = debug_asserts_enabled()
    set_debug_asserts(debug)
    try:
        assert digest(section) == GOLDEN[section]
    finally:
        set_debug_asserts(saved)


if __name__ == "__main__":
    for name in SECTIONS:
        print(f'    "{name}": "{digest(name)}",')
