"""The command-line interface: formats, exit codes, determinism."""

import io
import json

import pytest

import bftorus.invariants
import bftorus.polyring
from bftorus import cli, config

from util import EX1_A, EX1_B, EX1_C, EX2_M, EX2_MP, I7_COLS, companion


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_matrix(dirpath, name, rows):
    path = dirpath / name
    lines = [str(len(rows))] + [" ".join(str(e) for e in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def mats(tmp_path):
    return {
        "A": write_matrix(tmp_path, "A.txt", EX1_A),
        "B": write_matrix(tmp_path, "B.txt", EX1_B),
        "C": write_matrix(tmp_path, "C.txt", EX1_C),
        "M": write_matrix(tmp_path, "M.txt", EX2_M),
        "Mp": write_matrix(tmp_path, "Mp.txt", EX2_MP),
        "id3": write_matrix(tmp_path, "id3.txt", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "dir": tmp_path,
    }


class TestBF:
    def test_text(self, mats):
        code, out, err = run_cli("bf", "--matrix", mats["A"], "--poly", "x-1")
        assert code == 0 and err == ""
        assert "Z16" in out
        assert out.endswith("\n")

    def test_identity_matrix_free_rank(self, mats):
        code, out, _ = run_cli("bf", "--matrix", mats["id3"], "--poly", "x-1")
        assert code == 0
        assert "Z^3" in out

    def test_json(self, mats):
        code, out, _ = run_cli(
            "bf", "--matrix", mats["B"], "--poly", "x-1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["op"] == "bf"
        assert data["group"] == {"free_rank": 0, "torsion": [2, 8], "pretty": "Z2+Z8"}

    def test_batch_follows_input_order(self, mats):
        code, out, _ = run_cli(
            "bf", "--matrix", mats["A"], mats["B"], mats["C"], "--poly", "x-1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "Z16" in lines[0]
        assert "Z2+Z8" in lines[1]
        assert "Z2+Z8" in lines[2]
        # json batch is an array in the same order
        code, out, _ = run_cli(
            "bf",
            "--matrix", mats["A"], mats["B"], mats["C"],
            "--poly", "x-1",
            "--format", "json",
        )
        arr = json.loads(out)
        assert [d["input"] for d in arr] == [mats["A"], mats["B"], mats["C"]]

    def test_json_matrix_file_form(self, mats):
        path = mats["dir"] / "A.json"
        path.write_text(json.dumps({"n": 3, "rows": EX1_A}))
        code, out, _ = run_cli("bf", "--matrix", str(path), "--poly", "x-1")
        assert code == 0 and "Z16" in out

    def test_deterministic_bytes(self, mats):
        first = run_cli("bf", "--matrix", mats["A"], "--poly", "x+1", "--format", "json")
        second = run_cli("bf", "--matrix", mats["A"], "--poly", "x+1", "--format", "json")
        assert first == second


class TestBFK:
    def test_quartic_power(self, mats):
        code, out, _ = run_cli(
            "bfk", "--matrix", mats["M"], "--k", "48", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["group"]["torsion"] == [
            448,
            1344,
            130401445122840192,
            130401445122840192,
        ]

    def test_text(self, mats):
        code, out, _ = run_cli("bfk", "--matrix", mats["A"], "--k", "1")
        assert code == 0 and "Z16" in out


class TestPeriodic:
    def test_generators_listed(self, mats):
        code, out, _ = run_cli("periodic", "--matrix", mats["A"], "--k", "1")
        assert code == 0
        assert "Per_1" in out and "Z16" in out
        assert "order: 16" in out
        assert "1/16" in out

    def test_degenerate_period_is_a_precondition_error(self, tmp_path):
        rot = write_matrix(tmp_path, "rot.txt", [[0, -1], [1, 0]])
        code, out, _ = run_cli("periodic", "--matrix", rot, "--k", "4")
        assert code == 2
        assert "DegeneratePeriod" in out


class TestLattice:
    def test_quadratic_six_orders(self):
        code, out, _ = run_cli("lattice", "--poly", "x^2-34*x+1")
        assert code == 0
        assert "6 orders" in out
        assert "(= Z[b])" in out
        assert "(maximal order)" in out
        relations = [
            ln for ln in out.splitlines() if ln.startswith("  R") and " < " in ln
        ]
        assert len(relations) == 7

    def test_cubic_json_shape(self):
        code, out, _ = run_cli(
            "lattice", "--poly", "x^3-23*x^2+7*x-1", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["nodes"]) == 6
        assert [n["index"] for n in data["nodes"]] == [1, 2, 4, 4, 8, 16]
        assert data["edges"] == [
            ["R0", "R1"],
            ["R1", "R2"],
            ["R1", "R3"],
            ["R2", "R4"],
            ["R3", "R4"],
            ["R4", "R5"],
        ]

    def test_reducible_poly_is_exit_2(self):
        code, out, _ = run_cli("lattice", "--poly", "x^2-1")
        assert code == 2
        assert "ReduciblePolynomial" in out

    def test_local_walk_budget_exit_2(self):
        # b = 2^21·sqrt(3): a chain of 22 orders, 20 lines examined
        code, out, _ = run_cli("lattice", "--poly", f"x^2-{3 * 4**21}")
        assert code == 0
        assert f"22 orders, indices 1 .. {2**21}" in out
        # b = 211·2^(1/4): 44,733 lines at Z[b] alone, above the budget
        code, out, _ = run_cli("lattice", "--poly", f"x^4-{2 * 211**4}")
        assert code == 2
        assert "BudgetExceeded" in out

    def test_bad_poly_is_exit_1(self):
        code, _, err = run_cli("lattice", "--poly", "x^^2")
        assert code == 1
        assert "error" in err


class TestIdealVerb:
    def test_matrix_to_ideal(self, mats):
        code, out, _ = run_cli("ideal", "--matrix", mats["B"], "--format", "json")
        assert code == 0
        data = json.loads(out)
        ideal = data["ideal"]
        assert ideal["denom"] == 2
        assert ideal["basis_columns"] == [[2, 0, 0], [0, 2, 0], [1, 0, 1]]

    def test_round_trip_through_files(self, mats, tmp_path):
        # matrix -> ideal JSON -> matrix again recovers B exactly
        code, out, _ = run_cli("ideal", "--matrix", mats["B"], "--format", "json")
        assert code == 0
        ideal_file = tmp_path / "B_ideal.json"
        ideal_file.write_text(out)  # full report: the wrapper is accepted
        code, out, _ = run_cli(
            "ideal", "--ideal", str(ideal_file), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["rows"] == EX1_B

    def test_requires_exactly_one_direction(self, mats, tmp_path):
        code, _, err = run_cli("ideal")
        assert code == 1
        ideal_file = tmp_path / "i.json"
        ideal_file.write_text(
            json.dumps(
                {"field": "x^3-23*x^2+7*x-1", "denom": 1, "basis_columns": I7_COLS}
            )
        )
        code, _, err = run_cli(
            "ideal", "--matrix", mats["A"], "--ideal", str(ideal_file)
        )
        assert code == 1

    def test_reducible_char_poly_exit_2(self, mats):
        code, out, _ = run_cli("ideal", "--matrix", mats["id3"])
        assert code == 2
        assert "ReduciblePolynomial" in out

    def test_irreducibility_budget_exit_2(self, mats, monkeypatch):
        # x^8+1 is reducible mod every prime: only the budgeted search is
        # left, and it needs about a hundred factor values.
        monkeypatch.setattr(bftorus.polyring, "IRREDUCIBILITY_SEARCH_BUDGET", 50)
        phi16 = companion([1, 0, 0, 0, 0, 0, 0, 0, 1])
        path = write_matrix(mats["dir"], "phi16.txt", phi16)
        code, out, _ = run_cli("ideal", "--matrix", path)
        assert code == 2
        assert "BudgetExceeded" in out

    def test_json_error_form(self, mats):
        code, out, _ = run_cli(
            "ideal", "--matrix", mats["id3"], "--format", "json"
        )
        assert code == 2
        data = json.loads(out)
        assert data["error"] == "ReduciblePolynomial"
        assert "detail" in data


class TestCoeffRingAndInvertible:
    @pytest.fixture
    def ideal_files(self, tmp_path):
        i_path = tmp_path / "I.json"
        i_path.write_text(
            json.dumps(
                {"field": "x^3-23*x^2+7*x-1", "denom": 1, "basis_columns": I7_COLS}
            )
        )
        j_path = tmp_path / "J.json"
        j_path.write_text(
            json.dumps(
                {
                    "field": "x^3-23*x^2+7*x-1",
                    "denom": 1,
                    "basis_columns": [[2, 0, 0], [1, 1, 0], [1, 0, 1]],
                }
            )
        )
        return str(i_path), str(j_path)

    def test_coeffring(self, ideal_files):
        i_path, _ = ideal_files
        code, out, _ = run_cli("coeffring", "--ideal", i_path)
        assert code == 0
        assert "1, b, (1/2)b^2+(1/2)" in out
        assert "(index 2 over Z[b])" in out

    def test_invertible_over_coefficient_ring(self, ideal_files):
        i_path, j_path = ideal_files
        code, out, _ = run_cli("invertible", "--ideal", i_path)
        assert code == 0
        assert "invertible over C(I)" in out
        assert "1, (1/2)b+(1/2), (1/16)b^2+(1/8)b+(9/16)" in out

        code, out, _ = run_cli("invertible", "--ideal", j_path)
        assert code == 0
        assert "not invertible over C(I)" in out

    def test_invertible_over_zbeta(self, ideal_files):
        i_path, _ = ideal_files
        code, out, _ = run_cli("invertible", "--ideal", i_path, "--ring", "zbeta")
        assert code == 0
        assert "not invertible over Z[b]" in out

    def test_invertible_json(self, ideal_files):
        i_path, _ = ideal_files
        code, out, _ = run_cli("invertible", "--ideal", i_path, "--format", "json")
        data = json.loads(out)
        assert data["invertible"] is True
        assert data["ring"] == "C(I)"
        assert "inverse" in data

    def test_matrix_input_goes_through_dictionary(self, mats):
        code, out, _ = run_cli("coeffring", "--matrix", mats["C"])
        assert code == 0
        assert "1, b, (1/4)b^2+(3/4)" in out


class TestDual:
    def test_dual_of_power_basis(self, mats):
        code, out, _ = run_cli("dual", "--matrix", mats["A"])
        assert code == 0
        assert out.startswith("trace dual of ")

    def test_dual_json_is_reusable_ideal(self, mats, tmp_path):
        code, out, _ = run_cli("dual", "--matrix", mats["A"], "--format", "json")
        assert code == 0
        dual = json.loads(out)["dual"]
        back = tmp_path / "dual.json"
        back.write_text(json.dumps(dual))
        code, out, _ = run_cli("coeffring", "--ideal", str(back))
        assert code == 0  # the dual of Z[b] is a Z[b]-module, ring = Z[b]
        assert "1, b, b^2" in out


class TestEquiv:
    def test_refutation_json_golden(self, mats):
        code, out, _ = run_cli(
            "equiv", "--matrix", mats["A"], mats["B"], "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "groups": {"A": "Z16", "B": "Z2+Z8"},
            "verdict": "BF-distinguished",
            "witness": "x-1",
        }

    def test_text_render(self, mats):
        code, out, _ = run_cli("equiv", "--matrix", mats["B"], mats["C"])
        assert code == 0
        assert "verdict: BF-distinguished" in out
        assert "witness: x^2-1" in out
        assert "A: Z2+Z8+Z32" in out

    def test_certificate_when_search_is_hopeless(self, tmp_path):
        a = write_matrix(tmp_path, "a.txt", [[0, 1], [1, 1]])
        b = write_matrix(tmp_path, "b.txt", [[1, 1], [1, 0]])
        code, out, _ = run_cli("equiv", "--matrix", a, b)
        assert code == 0
        assert "verdict: BF-certified" in out
        assert "square-free" in out

    def test_certificate_without_factoring_the_discriminant(self, tmp_path):
        # disc(p) = 4000000000012000000000013 is a probable prime that
        # cannot be certified, so F is not known, yet the ring is Z[b]
        a = write_matrix(tmp_path, "a.txt", [[0, 1], [1, 2000000000003]])
        code, out, _ = run_cli("equiv", "--matrix", a, a)
        assert code == 0
        assert "verdict: strong-BF-certified" in out

    def test_strong_flag(self, mats):
        code, out, _ = run_cli(
            "equiv", "--strong", "--matrix", mats["A"], mats["B"], "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "strong-BF-refuted"

    def test_needs_exactly_two(self, mats):
        code, _, err = run_cli("equiv", "--matrix", mats["A"])
        assert code == 1
        code, _, err = run_cli(
            "equiv", "--matrix", mats["A"], mats["B"], mats["C"]
        )
        assert code == 1

    def test_char_poly_mismatch_exit_2(self, mats, tmp_path):
        other = write_matrix(tmp_path, "o.txt", [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        code, out, _ = run_cli("equiv", "--matrix", mats["A"], other)
        assert code == 2
        assert "CharPolyMismatch" in out

    def test_shell_budget_exit_2(self, tmp_path, monkeypatch):
        # (x-1)(x-2) is reducible, so every shell candidate is evaluated,
        # and a matrix never separates from itself
        monkeypatch.setattr(bftorus.invariants, "REFUTE_SHELL_BUDGET", 100)
        a = write_matrix(tmp_path, "a.txt", [[1, 1], [0, 2]])
        code, out, _ = run_cli("equiv", "--matrix", a, a, "--bound", "5")
        assert code == 2
        assert "BudgetExceeded" in out

    def test_quartic_pair(self, mats):
        code, out, _ = run_cli(
            "equiv", "--matrix", mats["M"], mats["Mp"], "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "BF-distinguished"
        assert data["witness"] == "(1/8)x^3+(1/2)x^2+(1/2)x+(5/8)"


class TestSuspensionAndFlow:
    def test_suspension(self, mats):
        code, out, _ = run_cli("suspension", "--matrix", mats["A"])
        assert code == 0
        assert "H_1(mapping torus" in out and "Z+Z16" in out
        assert "x0*x1*x0^-1 = x2" in out

    def test_flowpair(self, mats):
        code, out, _ = run_cli("flowpair", "--matrix", mats["A"])
        assert code == 0
        assert "det(Id - A) = -16" in out
        assert "BF_1 = Z16" in out


class TestErrors:
    def test_missing_file(self):
        code, out, err = run_cli("bf", "--matrix", "/nonexistent.txt", "--poly", "x-1")
        assert code == 1
        assert out == ""
        assert "cannot read" in err

    def test_unknown_verb(self):
        code, _, err = run_cli("frobnicate")
        assert code == 1
        assert err != ""

    def test_no_args(self):
        code, _, err = run_cli()
        assert code == 1

    def test_bad_poly(self, mats):
        code, _, err = run_cli("bf", "--matrix", mats["A"], "--poly", "x**2")
        assert code == 1
        assert "bad polynomial" in err

    def test_malformed_matrix(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 2 3\n4 5 6\n")
        code, _, err = run_cli("bf", "--matrix", str(bad), "--poly", "x-1")
        assert code == 1
        assert "expected 2 rows" in err

    def test_non_integer_entries(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1 2\n3 x\n")
        code, _, err = run_cli("bf", "--matrix", str(bad), "--poly", "x-1")
        assert code == 1

    def test_non_integral_g_exit_2(self, mats):
        code, out, _ = run_cli("bf", "--matrix", mats["A"], "--poly", "(1/2)x")
        assert code == 2
        assert "NonIntegralResult" in out

    def test_debug_assert_flag(self, mats, monkeypatch):
        # The checks run during the call (the Smith diagonal is checked
        # against snf_rows), and the flag reads as before after a run
        # that succeeds, exits 1 or exits 2.
        checks = []
        snf_rows = bftorus.invariants.snf_rows
        monkeypatch.setattr(bftorus.invariants, "snf_rows", lambda m: checks.append(m) or snf_rows(m))
        missing = str(mats["dir"] / "missing.txt")
        for before in (False, True):
            monkeypatch.setattr(config, "_DEBUG_ASSERTS", before)
            checks.clear()
            code, out, _ = run_cli(
                "bf", "--debug-assert", "--matrix", mats["A"], "--poly", "x-1"
            )
            assert code == 0 and "Z16" in out
            assert checks
            assert config.debug_asserts_enabled() is before
            code, _, _ = run_cli("bf", "--debug-assert", "--matrix", missing, "--poly", "x-1")
            assert code == 1
            assert config.debug_asserts_enabled() is before
            code, out, _ = run_cli(
                "bf", "--debug-assert", "--matrix", mats["A"], "--poly", "(1/2)x"
            )
            assert code == 2 and "NonIntegralResult" in out
            assert config.debug_asserts_enabled() is before

    @pytest.mark.parametrize(
        "data",
        [
            {"n": True, "rows": [[3]]},
            {"n": 2, "rows": [[1, 0], [0, True]]},
            {"n": 2, "rows": [[1, 0], [0, 1.5]]},
            {"n": 2, "rows": [[1, 0], [0, "1"]]},
            {"n": 2, "rows": 5},
            {"n": 2, "rows": [1, 2]},
        ],
        ids=["n-true", "entry-true", "entry-float", "entry-string", "rows-int", "rows-flat"],
    )
    def test_bad_json_matrix_is_exit_1(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli("bf", "--matrix", str(path), "--poly", "x-1")
        assert code == 1 and out == ""
        assert str(path) in err


def _ideal(**changes):
    data = {"field": "x^3-23*x^2+7*x-1", "denom": 1, "basis_columns": I7_COLS}
    data.update(changes)
    return data


class TestIdealFileValidation:
    def test_good_file_is_accepted(self, tmp_path):
        path = tmp_path / "I.json"
        path.write_text(json.dumps(_ideal()))
        code, out, _ = run_cli("coeffring", "--ideal", str(path))
        assert code == 0 and out.startswith("C(I) for ")

    @pytest.mark.parametrize(
        "data",
        [
            _ideal(field=5),
            _ideal(field=None),
            _ideal(denom="2"),
            _ideal(denom=2.0),
            _ideal(denom=True),
            _ideal(denom=0),
            _ideal(basis_columns=[[1.9, 0, 0], [0, 1, 0], [0, 0, 1]]),
            _ideal(basis_columns=[[True, 0, 0], [0, 1, 0], [0, 0, 1]]),
            _ideal(basis_columns=[["8", 0, 0], [7, 1, 0], [7, 0, 1]]),
            _ideal(basis_columns=[[8, 0], [7, 1], [7, 0]]),
            _ideal(basis_columns=I7_COLS[:2]),
            _ideal(basis_columns=I7_COLS + [[1, 0, 0]]),
            _ideal(basis_columns="I7"),
            {"denom": 1, "basis_columns": I7_COLS},
            [1, 2, 3],
        ],
        ids=[
            "field-int", "field-null", "denom-string", "denom-float", "denom-true",
            "denom-zero", "entry-float", "entry-true", "entry-string", "short-columns",
            "too-few-columns", "too-many-columns", "columns-string", "no-field", "not-object",
        ],
    )
    def test_bad_ideal_json_is_exit_1(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli("coeffring", "--ideal", str(path))
        assert code == 1 and out == ""
        assert "bad ideal JSON" in err
