"""Command-line interface: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slnapprox
from slnapprox.cli import main
from slnapprox.errors import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NO_WITNESS,
    EXIT_OK,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = str(Path(slnapprox.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from slnapprox.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestEnumerate:
    def test_jsonl_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--radius", "1/2", "-n", "2"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 9
        summary = json.loads(lines[-1])
        assert summary["count"] == 8
        assert summary["strategy"] == "optimized"
        first = json.loads(lines[0])
        assert first["u"] == [["1", "-1"], ["1", "3"]]
        assert first["v"] == "2"

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "cell.jsonl"
        code, out, _ = run(
            capsys,
            "enumerate", "--radius", "1/2", "-n", "2", "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert out == ""
        assert len(out_path.read_text().strip().splitlines()) == 9

    def test_explicit_center(self, capsys):
        center = json.dumps([["1", "0"], ["0", "1"]])
        code, out, _ = run(
            capsys, "enumerate", "--center", center, "--radius", "1/2", "-n", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out.strip().splitlines()[-1])["count"] == 8

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "--budget", "100",
            "enumerate", "--radius", "1/2", "-n", "5000",
        )
        assert code == EXIT_BUDGET
        assert "budget" in err

    def test_off_group_center_is_legal(self, capsys):
        # the center is only a box anchor; it need not be a group element
        center = json.dumps([["1", "0"], ["0", "2"]])
        code, out, _ = run(
            capsys, "enumerate", "--center", center, "--radius", "1/10", "-n", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out.strip().splitlines()[-1])["count"] == 0

    def test_malformed_center(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--center", "[[1,0", "--radius", "1/2", "-n", "2"
        )
        assert code == EXIT_INVALID
        assert "invalid" in err


class TestVolumes:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "volumes", "--p-list", "2,3", "--lmax", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "p,ell,closed_form,oracle,match"
        assert "2,1,6,6,true" in lines
        assert "3,1,12,12,true" in lines
        assert all(line.endswith("true") for line in lines[1:])


class TestDensity:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "density", "--q", "2,5,10")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "q,rho_num,rho_den,order"
        assert "2,2,3,6" in lines
        assert "5,5,6,120" in lines
        assert "10,5,9,720" in lines

    def test_prime_range(self, capsys):
        code, out, _ = run(capsys, "density", "--p-range", "7")
        assert code == EXIT_OK
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["2", "3", "5", "7"]

    def test_non_squarefree_rejected(self, capsys):
        code, _, err = run(capsys, "density", "--q", "4")
        assert code == EXIT_INVALID
        assert "square-free" in err

    def test_family_file_of_other_dimension(self, capsys, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n_dim": 3, "polys": [[[1, [0] * 8 + [1]]]]}))
        code, _, err = run(capsys, "density", "--poly", str(path), "--q", "2")
        assert code == EXIT_INVALID
        assert "n_dim" in err

    def test_family_file_without_polys(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n_dim": 2}))
        code, _, err = run_process("density", "--poly", str(path), "--q", "2")
        assert code == EXIT_INVALID
        assert "Traceback" not in err


class TestSieve:
    def test_end_to_end(self, capsys, tmp_path):
        cell = tmp_path / "cell.jsonl"
        code, _, _ = run(
            capsys, "enumerate", "--radius", "1/2", "-n", "2", "--out", str(cell)
        )
        assert code == EXIT_OK
        code, out, _ = run(
            capsys, "sieve", "--points", str(cell), "--q-max", "5"
        )
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["T"] == 8
        assert blob["n"] == 2
        assert blob["consistent"] is True
        r5 = [r for r in blob["remainders"] if r["q"] == 5]
        assert r5[0]["R"] == {"num": "-4", "den": "3"}

    def test_point_record_without_v(self, tmp_path):
        cell = tmp_path / "cell.jsonl"
        cell.write_text('{"n_dim": 2, "u": [["1", "0"], ["0", "1"]]}\n')
        code, _, err = run_process("sieve", "--points", str(cell), "-n", "1")
        assert code == EXIT_INVALID
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sieve", "--points", "/nonexistent.jsonl")
        assert code == EXIT_INVALID
        assert "invalid" in err


class TestSpectral:
    def test_csv_and_slope(self, capsys):
        code, out, _ = run(
            capsys, "spectral", "--p", "2", "--q", "5", "--lmax", "3"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "ell,volume,lambda2"
        assert [line.split(",")[1] for line in lines[1:4]] == ["6", "24", "96"]
        assert lines[-1].startswith("# slope ")
        assert "passed true" in lines[-1]


    def test_eigensolve_failure_is_budget_exit(self, capsys, monkeypatch):
        import scipy.sparse.linalg as sla

        def stalled(*args, **kwargs):
            raise sla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

        monkeypatch.setattr(sla, "eigsh", stalled)
        code, _, err = run(capsys, "spectral", "--p", "2", "--q", "5", "--lmax", "1")
        assert code == EXIT_BUDGET
        assert "converge" in err


@pytest.mark.parametrize(
    "argv,file_text",
    [
        (["volumes", "--p-list", "4"], None),
        (["spectral", "--p", "4", "--q", "5"], None),
        (["verify-count", "--centers", "{file}"], "[[1,2]]"),
        (["sieve", "--points", "{file}", "-n", "1"], "5\n"),
        (["params", "--alpha", "1/0"], None),
        (["params", "--alpha", "1/100", "--a", "1/0"], None),
        (["--config", "{file}", "params", "--alpha", "1/20"], '{"r_g": "x"}'),
        (["--config", "{file}", "spectral", "--p", "2", "--q", "5"],
         '{"spectral_vertex_budget": null}'),
        (["--config", "{file}", "params", "--alpha", "1/20"], '{"r_g": 0}'),
        (["--config", "{file}", "params", "--alpha", "1/20"], "5"),
        (["witness", "-n", "30", "--alpha", "-1"], None),
        (["--group", "sl3", "verify-count"], None),
        (["verify-count", "--n-list", "2", "--epsilon", "0"], None),
        (["volumes", "--lmax", "-1"], None),
        (["spectral", "--p", "2", "--q", "5", "--lmax", "-1"], None),
        (["witness", "-n", "30", "--alpha", "300"], None),
        (["witness", "-n", "30", "--alpha", "inf"], None),
    ],
    ids=["volumes-composite-p", "spectral-composite-p", "centers-not-matrices",
         "point-line-not-object", "alpha-zero-denominator", "a-zero-denominator",
         "config-string-int", "config-null-budget", "config-zero-r_g",
         "config-not-object", "witness-negative-alpha", "sl3-verify-count",
         "verify-count-zero-epsilon", "volumes-negative-lmax",
         "spectral-negative-lmax", "witness-radius-underflow", "witness-alpha-inf"],
)
def test_malformed_input_exits_invalid(tmp_path, argv, file_text):
    path = tmp_path / "input.json"
    if file_text is not None:
        path.write_text(file_text)
    code, _, err = run_process(*(arg.format(file=path) for arg in argv))
    assert code == EXIT_INVALID
    assert "Traceback" not in err


class TestParams:
    def test_frozen_json(self, capsys):
        code, out, _ = run(capsys, "params", "--alpha", "1/20")
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["r"] == 1440
        assert blob["alpha0"] == {"num": "1", "den": "12"}
        assert blob["iota"] == 2

    def test_alpha_too_large(self, capsys):
        code, _, err = run(capsys, "params", "--alpha", "1/2")
        assert code == EXIT_INVALID
        assert "alpha" in err


class TestWitness:
    def test_success_json(self, capsys):
        code, out, _ = run(
            capsys, "witness", "-n", "2", "--alpha", "1.0"
        )
        assert code == EXIT_OK
        blob = json.loads(out)
        assert blob["candidates"] == 8
        assert blob["factor_count"] == 0

    def test_no_witness_exit(self, capsys):
        code, _, err = run(capsys, "witness", "-n", "2", "--alpha", "2.0")
        assert code == EXIT_NO_WITNESS
        assert "no witness" in err


class TestVerifyCount:
    def test_small_matrix(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-count", "--n-list", "53,59",
            "--epsilon", "1/2", "--threshold", "100",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "center,n,epsilon,T,volume,ratio,significant"
        assert len(lines) == 12  # 5 centers x 2 moduli + header + spread
        assert lines[-1].startswith("# spread ")


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        capsys.readouterr()
        assert info.value.code == EXIT_INVALID

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["volumes", "--lmax", "three"])
        capsys.readouterr()
        assert info.value.code == EXIT_INVALID

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--radius", "1/2"])
        capsys.readouterr()
        assert info.value.code == EXIT_INVALID
