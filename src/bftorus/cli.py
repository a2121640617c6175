"""Command-line front end.

One subcommand per operation family:

  bf          BF_g(A) = Z^n / g(A) Z^n for a polynomial g
  bfk         BF_k(A), the group of k-periodic points
  periodic    generators of Per_k as points of the torus
  lattice     every order between Z[b] and the maximal order
  ideal       the matrix <-> fractional-ideal dictionary, both ways
  coeffring   coefficient ring C(I) of an ideal
  invertible  invertibility of an ideal over C(I) or Z[b]
  dual        trace-dual lattice I*
  equiv       decide / refute BF-equivalence of two matrices
  suspension  H_1 of the mapping torus plus the pi_1 presentation
  flowpair    the flow-equivalence data (det(Id - A), BF_1(A))

Matrix files are plain text -- first line n, then n rows of n integers
-- or the JSON form ``{"n": 3, "rows": [[...], ...]}``.  Ideal files
use the JSON schema emitted by ``ideal`` and ``dual``.

Exit status is 0 on success; 2 when a library precondition fails (the
report names the error, e.g. ReduciblePolynomial); 1 for I/O and parse
problems.  Identical inputs produce byte-identical output.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import config
from .errors import BFTorusError, ReduciblePolynomial
from .ideals import (
    FractionalIdeal, _zbeta_index, coefficient_ring, colon, is_invertible, trace_dual, zbeta,
)
from .invariants import (
    bf_certify,
    bf_group,
    bf_k,
    bf_refute,
    flow_invariant_pair,
    ideal_to_matrix,
    matrix_to_ideal,
    periodic_structure,
    pi1_presentation,
    strong_bf_refute,
    suspension_h1,
)
from .numberfield import NumberField
from .orders import enumerate_order_lattice
from .polyring import parse_int_poly, parse_rat_poly


class _InputError(Exception):
    """File or syntax problem; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad usage; route it through the
    # documented exit-1 path instead.
    def error(self, message):
        raise _InputError(message)


# -- input parsing -------------------------------------------------------


def _read_text(path):
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}")


def _is_square(rows, n):
    """n lists of length n.  Entries are checked with ``type(e) is int``:
    JSON true is a bool, and bool is a subclass of int."""
    return isinstance(rows, list) and len(rows) == n and all(
        isinstance(r, list) and len(r) == n for r in rows
    )


def read_matrix_file(path):
    """Parse a matrix file (text or JSON form) into a row-list."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
            n = data["n"]
            rows = data["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            raise _InputError(f"{path}: bad matrix JSON: {exc}")
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise _InputError(f"{path}: empty matrix file")
        try:
            n = int(lines[0].split()[0])
            rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
        except ValueError as exc:
            raise _InputError(f"{path}: bad matrix entry: {exc}")
    if type(n) is not int or n < 1:
        raise _InputError(f"{path}: dimension must be a positive integer")
    if not _is_square(rows, n):
        raise _InputError(f"{path}: expected {n} rows of {n} integers")
    if any(type(e) is not int for r in rows for e in r):
        raise _InputError(f"{path}: matrix entries must be integers")
    return [list(r) for r in rows]


def read_ideal_file(path):
    """Parse {"field": str, "denom": int >= 1, "basis_columns": n x n ints}."""
    text = _read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise _InputError(f"{path}: bad ideal JSON: {exc}")
    if isinstance(data, dict) and isinstance(data.get("ideal"), dict):
        data = data["ideal"]  # accept our own report wrapper
    try:
        field, denom, cols = data["field"], data["denom"], data["basis_columns"]
        if not isinstance(field, str):
            raise TypeError("field must be a polynomial string")
        if type(denom) is not int or denom < 1:
            raise ValueError("denom must be a positive integer")
        field = NumberField(parse_int_poly(field))
        if not _is_square(cols, field.n) or any(type(e) is not int for c in cols for e in c):
            raise ValueError(f"basis_columns must be {field.n} lists of {field.n} integers")
        return FractionalIdeal(field, denom, cols)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path}: bad ideal JSON: {exc}")


def _parse_poly(text):
    try:
        return parse_rat_poly(text)
    except ValueError as exc:
        raise _InputError(f"bad polynomial {text!r}: {exc}")


def _load_ideals(ns):
    """The verb's input ideals: --ideal files as-is, --matrix files via
    the dictionary."""
    out = []
    for path in ns.ideal or []:
        out.append((path, read_ideal_file(path)))
    for path in ns.matrix or []:
        out.append((path, matrix_to_ideal(read_matrix_file(path))))
    if not out:
        raise _InputError("need at least one --ideal or --matrix file")
    return out


# -- report helpers ------------------------------------------------------


def _group_json(g):
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "pretty": str(g)}


def _matrix_text(rows):
    lines = [str(len(rows))]
    lines.extend(" ".join(str(e) for e in row) for row in rows)
    return "\n".join(lines)


def _frac(x):
    return str(Fraction(x))


# -- verb handlers (each returns a list of (text, json) reports) ----------


def _cmd_bf(ns):
    g = _parse_poly(ns.poly)
    reports = []
    for path in ns.matrix:
        grp = bf_group(read_matrix_file(path), g)
        text = f"BF[{g}]({path}) = {grp}"
        reports.append(
            (text, {"op": "bf", "input": path, "poly": str(g), "group": _group_json(grp)})
        )
    return reports


def _cmd_bfk(ns):
    reports = []
    for path in ns.matrix:
        grp = bf_k(read_matrix_file(path), ns.k)
        text = f"BF_{ns.k}({path}) = {grp}"
        reports.append(
            (text, {"op": "bfk", "input": path, "k": ns.k, "group": _group_json(grp)})
        )
    return reports


def _cmd_periodic(ns):
    reports = []
    for path in ns.matrix:
        ps = periodic_structure(read_matrix_file(path), ns.k)
        lines = [f"Per_{ns.k}({path}) = {ps.group}"]
        order = ps.group.order()
        if order is not None:
            lines.append(f"order: {order}")
        if ps.generators:
            lines.append("generators (coordinates mod 1):")
            lines.extend(
                "  (" + ", ".join(_frac(c) for c in gen) + ")" for gen in ps.generators
            )
        reports.append(
            (
                "\n".join(lines),
                {
                    "op": "periodic",
                    "input": path,
                    "k": ns.k,
                    "group": _group_json(ps.group),
                    "generators": [[_frac(c) for c in gen] for gen in ps.generators],
                },
            )
        )
    return reports


def _cmd_lattice(ns):
    try:
        p = parse_int_poly(ns.poly)
    except ValueError as exc:
        raise _InputError(f"bad polynomial {ns.poly!r}: {exc}")
    field = NumberField(p)
    lat = enumerate_order_lattice(field)
    names = [f"R{i}" for i in range(len(lat.nodes))]
    indices = [_zbeta_index(node) for node in lat.nodes]
    lines = [
        f"order lattice of Q[x]/(p), p = {field.p}",
        f"{len(lat.nodes)} orders, indices {lat.min_index} .. {lat.max_index}",
    ]
    for name, node, idx in zip(names, lat.nodes, indices):
        tag = ""
        if idx == 1:
            tag = "  (= Z[b])"
        elif idx == lat.max_index:
            tag = "  (maximal order)"
        lines.append(f"  {name} (index {idx}): " + node.basis_text() + tag)
    lines.append("levels (top = maximal):")
    for idx in sorted(set(indices), reverse=True):
        members = " ".join(n for n, i in zip(names, indices) if i == idx)
        lines.append(f"  [{idx}] {members}")
    lines.append("covering relations (sub < super):")
    lines.extend(f"  {names[i]} < {names[j]}" for i, j in lat.edges)
    obj = {
        "op": "lattice",
        "poly": str(field.p),
        "nodes": [
            {"name": name, "index": idx, "ideal": node.to_json_dict()}
            for name, node, idx in zip(names, lat.nodes, indices)
        ],
        "edges": [[names[i], names[j]] for i, j in lat.edges],
    }
    return [("\n".join(lines), obj)]


def _cmd_ideal(ns):
    if bool(ns.matrix) == bool(ns.ideal):
        raise _InputError("ideal: give either --matrix files or --ideal files")
    reports = []
    if ns.matrix:
        for path in ns.matrix:
            ideal = matrix_to_ideal(read_matrix_file(path))
            lines = [
                f"ideal of {path} over Q[x]/({ideal.field.p}):",
                "  basis: " + ideal.basis_text(),
            ]
            reports.append(
                (
                    "\n".join(lines),
                    {"op": "ideal", "input": path, "ideal": ideal.to_json_dict()},
                )
            )
    else:
        for path in ns.ideal:
            rows = ideal_to_matrix(read_ideal_file(path))
            reports.append(
                (
                    f"matrix of {path}:\n{_matrix_text(rows)}",
                    {"op": "ideal", "input": path, "n": len(rows), "rows": rows},
                )
            )
    return reports


def _cmd_coeffring(ns):
    reports = []
    for path, ideal in _load_ideals(ns):
        ring = coefficient_ring(ideal)
        idx = _zbeta_index(ring)
        text = f"C(I) for {path}: {ring.basis_text()}  (index {idx} over Z[b])"
        reports.append(
            (
                text,
                {
                    "op": "coeffring",
                    "input": path,
                    "index": idx,
                    "ring": ring.to_json_dict(),
                },
            )
        )
    return reports


def _cmd_invertible(ns):
    reports = []
    for path, ideal in _load_ideals(ns):
        if ns.ring == "zbeta":
            ring = zbeta(ideal.field)
            ring_label = "Z[b]"
        else:
            ring = coefficient_ring(ideal)
            ring_label = "C(I)"
        ok = is_invertible(ideal, ring)
        lines = [f"{path}: {'invertible' if ok else 'not invertible'} over {ring_label}"]
        obj = {
            "op": "invertible",
            "input": path,
            "ring": ring_label,
            "invertible": ok,
        }
        if ok:
            inv = colon(ring, ideal)
            lines.append("  inverse basis: " + inv.basis_text())
            obj["inverse"] = inv.to_json_dict()
        reports.append(("\n".join(lines), obj))
    return reports


def _cmd_dual(ns):
    reports = []
    for path, ideal in _load_ideals(ns):
        dual = trace_dual(ideal)
        text = f"trace dual of {path}: " + dual.basis_text()
        reports.append(
            (text, {"op": "dual", "input": path, "dual": dual.to_json_dict()})
        )
    return reports


def _render_verdict(verdict):
    lines = [f"verdict: {verdict.kind}"]
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness}")
    if verdict.groups is not None:
        for key in sorted(verdict.groups):
            lines.append(f"  {key}: {verdict.groups[key]}")
    if verdict.bound is not None:
        lines.append(f"no witness found up to bound {verdict.bound}")
    return "\n".join(lines)


def _cmd_equiv(ns):
    if len(ns.matrix) != 2:
        raise _InputError("equiv compares exactly two --matrix files")
    a = read_matrix_file(ns.matrix[0])
    b = read_matrix_file(ns.matrix[1])
    refute = strong_bf_refute if ns.strong else bf_refute
    verdict = refute(a, b, bound=ns.bound)
    if verdict.kind == "inconclusive":
        try:
            certified = bf_certify(a, b)
        except ReduciblePolynomial:
            pass  # certificates need an irreducible char poly; the search's verdict stands
        else:
            if certified.kind != "inconclusive":
                verdict = certified
    return [(_render_verdict(verdict), verdict.to_json_dict())]


def _cmd_suspension(ns):
    reports = []
    for path in ns.matrix:
        a = read_matrix_file(path)
        h1 = suspension_h1(a)
        pres = pi1_presentation(a)
        text = f"H_1(mapping torus of {path}) = {h1}\npi_1 = {pres}"
        reports.append(
            (
                text,
                {
                    "op": "suspension",
                    "input": path,
                    "h1": _group_json(h1),
                    "generators": list(pres.generators),
                    "relations": list(pres.relations),
                },
            )
        )
    return reports


def _cmd_flowpair(ns):
    reports = []
    for path in ns.matrix:
        d, grp = flow_invariant_pair(read_matrix_file(path))
        text = f"{path}: det(Id - A) = {d}, BF_1 = {grp}"
        reports.append(
            (
                text,
                {
                    "op": "flowpair",
                    "input": path,
                    "det_id_minus_a": d,
                    "bf1": _group_json(grp),
                },
            )
        )
    return reports


_HANDLERS = {
    "bf": _cmd_bf,
    "bfk": _cmd_bfk,
    "periodic": _cmd_periodic,
    "lattice": _cmd_lattice,
    "ideal": _cmd_ideal,
    "coeffring": _cmd_coeffring,
    "invertible": _cmd_invertible,
    "dual": _cmd_dual,
    "equiv": _cmd_equiv,
    "suspension": _cmd_suspension,
    "flowpair": _cmd_flowpair,
}


# -- argument grammar ----------------------------------------------------


def _positive_int(text):
    """argparse type of --k and --bound: an integer, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = _Parser(prog="bftorus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    sub.required = True

    def add(verb, help_text, matrices=None, ideals=False, poly=False, k=False, bound=False):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", help="report format"
        )
        sp.add_argument(
            "--debug-assert",
            action="store_true",
            help="enable expensive internal cross-checks",
        )
        if matrices:
            sp.add_argument(
                "--matrix",
                nargs="+",
                metavar="FILE",
                required=(matrices == "required"),
                help="matrix file(s); reports follow input order",
            )
        if ideals:
            sp.add_argument(
                "--ideal", nargs="+", metavar="FILE", help="ideal JSON file(s)"
            )
        if poly:
            sp.add_argument("--poly", required=True, help='polynomial, e.g. "x-1"')
        if k:
            sp.add_argument("--k", type=_positive_int, required=True, help="period k >= 1")
        if bound:
            sp.add_argument(
                "--bound", type=_positive_int, default=4, help="witness search bound (default 4)"
            )
        return sp

    add("bf", "group Z^n / g(A) Z^n", matrices="required", poly=True)
    add("bfk", "group of k-periodic points", matrices="required", k=True)
    add("periodic", "k-periodic points with torus generators", matrices="required", k=True)
    add("lattice", "orders between Z[b] and the maximal order", poly=True)
    add("ideal", "matrix <-> ideal dictionary", matrices="optional", ideals=True)
    add("coeffring", "coefficient ring of an ideal", matrices="optional", ideals=True)
    sp = add("invertible", "invertibility over C(I) or Z[b]", matrices="optional", ideals=True)
    sp.add_argument(
        "--ring",
        choices=("cring", "zbeta"),
        default="cring",
        help="ring to invert over (default: the coefficient ring)",
    )
    add("dual", "trace-dual lattice", matrices="optional", ideals=True)
    sp = add("equiv", "BF-equivalence verdict for a pair", matrices="required", bound=True)
    sp.add_argument(
        "--strong",
        action="store_true",
        help="also search for conjugacy-mod-m obstructions",
    )
    add("suspension", "mapping-torus H_1 and pi_1", matrices="required")
    add("flowpair", "flow-equivalence data (det(Id - A), BF_1)", matrices="required")
    return parser


def _emit(reports, fmt, out):
    if fmt == "json":
        payload = [obj for _, obj in reports]
        if len(payload) == 1:
            payload = payload[0]
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write("\n".join(text for text, _ in reports) + "\n")


def run(argv=None, out=None, err=None):
    """Parse argv, dispatch, print the report; returns the exit status."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _InputError as exc:
        err.write(f"bftorus: error: {exc}\n")
        return 1
    saved = config.debug_asserts_enabled()
    if getattr(ns, "debug_assert", False):
        config.set_debug_asserts(True)
    try:
        reports = _HANDLERS[ns.verb](ns)
    except _InputError as exc:
        err.write(f"bftorus: error: {exc}\n")
        return 1
    except BFTorusError as exc:
        name = type(exc).__name__
        if ns.format == "json":
            obj = {"error": name, "detail": str(exc)}
            out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        else:
            out.write(f"{name}: {exc}\n")
        return 2
    finally:
        config.set_debug_asserts(saved)  # --debug-assert holds for this call only
    _emit(reports, ns.format, out)
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
