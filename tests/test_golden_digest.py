"""Seeded golden digests of the canonical outputs.

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
* ``periodic``: for worked and seeded matrices (n = 0..5, unit and
  non-unit determinants, singular and nilpotent A, reducible char
  polys), mat_pow for k = 0..300, bf_k and periodic_structure, and
  bf_group and eval_poly_at_matrix of rational g, with the text of
  every NonIntegralResult and DegeneratePeriod.

Each section runs twice, with debug assertions off and on
(``bftorus.config.set_debug_asserts``), so the internal cross-checks
run over the whole battery in every test run.

To re-record after an intended change of output, run this file as a
script from the repository root and paste what it prints:

    PYTHONPATH=src:tests python tests/test_golden_digest.py
"""

import hashlib
import random
from fractions import Fraction

import pytest

from bftorus.config import debug_asserts_enabled, set_debug_asserts
from bftorus.errors import DegeneratePeriod, NonIntegralResult
from bftorus.exactmat import char_poly, eval_poly_at_matrix, mat_pow
from bftorus.ideals import (
    coefficient_ring,
    colon,
    is_invertible,
    trace_dual,
    zbeta,
)
from bftorus.invariants import (
    bf_certify,
    bf_group,
    bf_k,
    bf_refute,
    ideal_to_matrix,
    l_equivalent,
    matrix_to_ideal,
    periodic_structure,
)
from bftorus.numberfield import NumberField
from bftorus.orders import conductor, enumerate_order_lattice, order_discriminant
from bftorus.polyring import IntPoly, RatPoly, discriminant, square_part

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
    "periodic": "3b308ec3bf4ff3ecbae297b14195dda8de8717faa39f06d3265eb0f5333b6cf6",
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


def _periodic_matrices(rng):
    """Worked matrices, then per n = 1..5 random ones (any determinant),
    and for n > 1 a singular one (a repeated row) and a unimodular one."""
    out = [
        [],
        [[0]],
        [[1]],
        [[-1]],
        [[3]],
        [[1, 1], [0, 1]],  # unipotent: p = (x-1)^2
        [[0, 1], [0, 0]],  # nilpotent
        [[2, 0], [0, 3]],  # p = (x-2)(x-3)
        [[0, -1], [1, 0]],  # x^2+1: A^4 = I
        [[1, 2], [2, 4]],  # singular
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]],  # nilpotent of index 3
        EX1_A,
        EX2_M,
    ]
    for n in range(1, 6):
        for _ in range(3):
            out.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1:
            a[-1] = list(a[0])
            out.append(a)
            out.append(random_unimodular_pair(rng, n, steps=4)[0])
    return out


def _rational_polys(rng, a):
    """Random rational g (rarely integral on A), x-1, x^k-1, the char
    poly, and (p·u)/m + v, which has denominators yet v(A) as its value."""
    n = len(a)
    p = char_poly(a)
    out = [RatPoly([-1, 1]), RatPoly(IntPoly.cyclic(5).coeffs), p.to_rat()]
    for _ in range(3):
        out.append(RatPoly([
            Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
            for _ in range(rng.randint(0, n + 3))
        ]))
    u = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
    v = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, n + 1))])
    out.append(RatPoly((p * u).coeffs) * Fraction(1, rng.choice((2, 3, 5))) + v)
    return out


def _or_error(f, *args):
    try:
        return str(f(*args))
    except (NonIntegralResult, DegeneratePeriod) as e:
        return f"{type(e).__name__}: {e}"


def periodic_lines():
    rng = random.Random(SEED + 3)
    for a in _periodic_matrices(rng):
        ks = [0, 1, 2, 3, 12, rng.randint(4, 300), 300]
        yield f"A={a} " + " ".join(f"A^{k}={mat_pow(a, k)}" for k in ks)
        yield "  " + " ".join(f"BF_{k}={bf_k(a, k)}" for k in ks[1:])
        for k in (1, 2, 6):
            yield f"  Per_{k}={_or_error(periodic_structure, a, k)}"
        for g in _rational_polys(rng, a):
            yield " ".join(
                [
                    f"  g={g}",
                    f"BF={_or_error(bf_group, a, g)}",
                    f"g(A)={_or_error(eval_poly_at_matrix, g, a)}",
                ]
            )


SECTIONS = {
    "dictionary": dictionary_lines,
    "verdicts": verdict_lines,
    "lattice": lattice_lines,
    "periodic": periodic_lines,
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
