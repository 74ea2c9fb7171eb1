"""Command-line interface: outputs, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import slnapprox
from slnapprox import cli
from slnapprox.cli import main
from slnapprox.errors import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NO_WITNESS,
    EXIT_OK,
    SlnApproxError,
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

    def test_point_lines_are_pinned(self, capsys):
        # the 698 canonical point lines of the n = 24 cell; only the summary's
        # elapsed_ms may vary between runs
        code, out, _ = run(capsys, "enumerate", "--radius", "1/2", "-n", "24")
        assert code == EXIT_OK
        points, summary = out[: out.rindex("{")], json.loads(out[out.rindex("{"):])
        assert hashlib.sha256(points.encode()).hexdigest() == (
            "4dcf861c2557620bde846ba72971aea1f2768ff97bd2455af2bc245a012f1c63"
        )
        assert out.splitlines()[0] == '{"n_dim":2,"u":[["13","-12"],["9","36"]],"v":"24"}'
        assert summary["count"] == 698

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

    @pytest.mark.parametrize(
        "flags, expected", [([], EXIT_BUDGET), (["--q", "4"], EXIT_INVALID)]
    )
    def test_prime_range_is_read_up_to_the_budget(self, capsys, flags, expected):
        # the primes below 10**12 are read only until the density budget is
        # passed, after the explicit moduli have been checked
        code, _, err = run(capsys, "density", *flags, "--p-range", str(10**12))
        assert code == expected
        assert ("density scan" if expected == EXIT_BUDGET else "square-free") in err

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

    def test_report_bytes_are_pinned(self, capsys, tmp_path):
        cell = tmp_path / "cell.jsonl"
        assert run(capsys, "enumerate", "--radius", "1/2", "-n", "24", "--out", str(cell))[0] == 0
        code, out, _ = run(capsys, "sieve", "--points", str(cell), "--tau", "3.0", "--s", "9.5")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "101491660db6199f150cc0e957e25ac579fb4fe29d622ee2a7938922dfb40842"
        )

    def test_summary_only_file(self, capsys, tmp_path):
        cell = tmp_path / "cell.jsonl"
        cell.write_text('{"count":0,"elapsed_ms":0.1,"strategy":"optimized"}\n')
        code, _, err = run(capsys, "sieve", "--points", str(cell))
        assert code == EXIT_INVALID
        assert "holds no point record; pass -n explicitly" in err
        code, out, _ = run(capsys, "sieve", "--points", str(cell), "-n", "5")
        assert code == EXIT_OK
        blob = json.loads(out)
        assert (blob["T"], blob["n"], blob["direct_count"]) == (0, 5, 0)
        assert blob["axioms"]["a_k"] == [] and blob["consistent"] is True

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


# one denominator-2 point record, the first point `enumerate -n 2` prints
POINT_LINE = '{"n_dim": 2, "u": [["1", "-1"], ["1", "3"]], "v": "2"}\n'


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
        (["sieve", "--points", "{file}", "--s", "0"], POINT_LINE),
        (["sieve", "--points", "{file}", "--delta", "0"], POINT_LINE),
        (["sieve", "--points", "{file}", "--delta", "-3"], POINT_LINE),
        (["sieve", "--points", "{file}", "--q-max", "-3"], POINT_LINE),
        (["sieve", "--points", "{file}", "-n", "0"], POINT_LINE),
        (["sieve", "--points", "{file}", "-n", "-5"], POINT_LINE),
        (["--budget", "-1", "enumerate", "--radius", "1/2", "-n", "2"], None),
        (["density", "--p-range", "0"], None),
        (["density", "--p-range", "-5"], None),
        (["density", "--p-range", "1"], None),
    ],
    ids=["volumes-composite-p", "spectral-composite-p", "centers-not-matrices",
         "point-line-not-object", "alpha-zero-denominator", "a-zero-denominator",
         "config-string-int", "config-null-budget", "config-zero-r_g",
         "config-not-object", "witness-negative-alpha", "sl3-verify-count",
         "verify-count-zero-epsilon", "volumes-negative-lmax",
         "spectral-negative-lmax", "witness-radius-underflow", "witness-alpha-inf",
         "sieve-zero-s", "sieve-zero-delta", "sieve-negative-delta",
         "sieve-negative-q-max", "sieve-zero-n", "sieve-negative-n",
         "negative-budget", "density-p-range-0", "density-p-range-negative",
         "density-p-range-1"],
)
def test_malformed_input_exits_invalid(tmp_path, argv, file_text):
    path = tmp_path / "input.json"
    if file_text is not None:
        path.write_text(file_text)
    code, _, err = run_process(*(arg.format(file=path) for arg in argv))
    assert code == EXIT_INVALID
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--s", "0"], ["--tau", "-1"], ["--q-max", "-3"]])
def test_sieve_checks_arguments_before_delta_scan(capsys, monkeypatch, tmp_path, flags):
    def scan(*args, **kwargs):
        raise AssertionError("delta_n ran on invalid sieve arguments")

    monkeypatch.setattr(slnapprox.densities, "delta_n", scan)
    path = tmp_path / "cell.jsonl"
    path.write_text(POINT_LINE)
    code, _, _ = run(capsys, "sieve", "--points", str(path), *flags)
    assert code == EXIT_INVALID


def test_sieve_checks_density_budget_before_scanning(capsys, monkeypatch, tmp_path):
    # z = 8**(40/10) = 4096 needs SL_2(F_p) for every odd prime below 4096;
    # a check per prime would first scan all p < 467 (about 1.9e9 elements)
    def scan(*args, **kwargs):
        raise AssertionError("a group scan ran past the density budget")

    cell = tmp_path / "cell.jsonl"
    code, _, _ = run(capsys, "enumerate", "--radius", "1/2", "-n", "2", "--out", str(cell))
    assert code == EXIT_OK
    monkeypatch.setattr(slnapprox.densities, "_zero_count", scan)
    code, _, err = run(capsys, "sieve", "--points", str(cell), "--tau", "40", "--s", "10")
    assert code == EXIT_BUDGET
    assert "density scan" in err


@pytest.mark.parametrize("q_max", ["200000", "3000000"])
def test_sieve_checks_density_budget_before_factoring(capsys, monkeypatch, tmp_path, q_max):
    # every prime up to q_max enters the density scan; the budget is read off
    # the primes before any modulus is built or factored
    def factor(*args, **kwargs):
        raise AssertionError("a modulus was factored before the density budget")

    cell = tmp_path / "cell.jsonl"
    code, _, _ = run(capsys, "enumerate", "--radius", "1/2", "-n", "2", "--out", str(cell))
    assert code == EXIT_OK
    for module in (slnapprox.core, slnapprox.densities):
        monkeypatch.setattr(module, "prime_factorization", factor)
    monkeypatch.setattr(slnapprox.sieve, "squarefree_moduli", factor)
    code, _, err = run(capsys, "sieve", "--points", str(cell), "--q-max", q_max)
    assert code == EXIT_BUDGET
    assert "density scan" in err


# ---------------------------------------------------------------------------
# argv fuzz: command lines drawn from bounded pools, run in-process

INTS = [str(i) for i in range(-3, 61)]
ODD = ["1/2", "-2/3", "1/0", "0.25", "nan", "inf", "-inf", "", "x", "[[1,0", "3,,5"]
VALUES = INTS + ODD
# the shell degree (p+1) p^(2l-1) of `spectral` has no budget (the generator
# list is built whole), so p and l stay where it is at most a few thousand;
# `volumes` runs the Hermite count for every shell, so its l stays small too
SMALL = [str(i) for i in range(-3, 14)] + ["x", "1/2", "nan"]
SPECTRAL_P = [str(i) for i in range(-3, 8)] + ["x", "1/2"]
SPECTRAL_LMAX = [str(i) for i in range(-3, 4)] + ["x", "1/2"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {
        "points": POINT_LINE * 3,
        "junk": "not json\n",
        "family": json.dumps({"n_dim": 2, "polys": [[[1, [1, 0, 0, 0]]]]}),
        "centers": json.dumps([[["1", "0"], ["0", "1"]]]),
        # small budgets keep every drawn command line quick
        "config": json.dumps(
            {"density_order_budget": 20000, "spectral_vertex_budget": 2000,
             "word_budget": 200, "volume_crosscheck_limit": 2000}
        ),
    }
    for name, text in files.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in files} | {"missing": str(root / "nope")}


def _flag_pools(files):
    paths = [files["points"], files["junk"], files["missing"], files["family"],
             files["centers"]]
    presets = ["entry11", "trace-minus-2", "sum-entries"]
    centers = ["identity", '[["1","0"],["0","1"]]', '[["1",2]]'] + ODD
    return {
        "enumerate": {"--center": centers, "--radius": VALUES, "-n": VALUES,
                      "--strategy": ["optimized", "oracle", "both", "x"]},
        "volumes": {"--p-list": VALUES + ["2,3", "4,5"], "--lmax": SMALL},
        "density": {"--poly": presets + paths, "--q": VALUES + ["2,5,10", "4"],
                    "--p-range": VALUES},
        "sieve": {"--points": paths, "--poly": presets + paths, "-n": VALUES,
                  "--tau": VALUES, "--s": VALUES, "--q-max": VALUES,
                  "--delta": VALUES},
        "spectral": {"--p": SPECTRAL_P, "--q": SMALL, "--lmax": SPECTRAL_LMAX,
                     "--reps": ["lagrange", "hermite", "x"]},
        "params": {"--alpha": VALUES, "--t": VALUES, "--deg": VALUES,
                   "--delta": VALUES, "--d": VALUES, "--a": VALUES},
        "witness": {"--center": centers, "-n": VALUES, "--alpha": VALUES,
                    "--poly": presets + paths},
        "verify-count": {"--centers": ["bounded5"] + paths, "--n-list": VALUES,
                         "--epsilon": VALUES, "--threshold": VALUES},
    }


REQUIRED = {"enumerate": ["--radius", "-n"], "sieve": ["--points"],
            "spectral": ["--p", "--q"], "params": ["--alpha"],
            "witness": ["-n", "--alpha"]}


@st.composite
def command_lines(draw, files):
    pools = _flag_pools(files)
    command = draw(st.sampled_from(sorted(pools)))
    flags = pools[command]
    argv = ["--budget", "2000", "--config", files["config"]]
    argv += draw(st.sampled_from([[], [], ["--group", "sl3"]]))
    argv.append(command)
    optional = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True))
    for flag in REQUIRED.get(command, []) + optional:
        argv += [flag, draw(st.sampled_from(flags[flag]))]
    return argv


@settings(
    derandomize=True, max_examples=600, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_argv_fuzz_exit_codes(fuzz_files, data):
    argv = data.draw(command_lines(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    assert code in (EXIT_OK, EXIT_BUDGET, EXIT_NO_WITNESS, EXIT_INVALID), argv


PARAMS_ALPHA_1_20 = """\
{
  "d": 3,
  "a": {
    "num": "2",
    "den": "1"
  },
  "iota": 2,
  "r_g": 4,
  "t": 1,
  "deg_f": 1,
  "delta_n": 0,
  "alpha": {
    "num": "1",
    "den": "20"
  },
  "alpha0": {
    "num": "1",
    "den": "12"
  },
  "alpha_prime": {
    "num": "1",
    "den": "40"
  },
  "r": 1440,
  "kappa": {
    "num": "1",
    "den": "2"
  },
  "tau0": {
    "num": "1",
    "den": "296"
  },
  "alpha0_restricted": {
    "num": "1",
    "den": "6"
  }
}
"""


class TestParams:
    def test_golden_stdout(self, capsys):
        code, out, _ = run(capsys, "params", "--alpha", "1/20")
        assert code == EXIT_OK
        assert out == PARAMS_ALPHA_1_20

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

    def test_key_order(self, capsys):
        code, out, _ = run(capsys, "witness", "-n", "2", "--alpha", "1.0")
        assert code == EXIT_OK
        blob = json.loads(out)
        assert list(blob) == [
            "n", "alpha", "epsilon", "z", "distance", "factor_count",
            "candidates", "zero_values_skipped", "elapsed_s",
        ]
        assert blob["z"] == {"n_dim": 2, "u": [["1", "-1"], ["1", "3"]], "v": "2"}
        assert blob["distance"] == {"num": "1", "den": "2"}

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


def test_every_package_error_exits_invalid(capsys, monkeypatch):
    # a package error class the exit-code map does not name still exits 4
    class FreshError(SlnApproxError):
        pass

    def handler(args, cfg, n_dim):
        raise FreshError("raised by a fresh error class")

    monkeypatch.setitem(cli._COMMANDS, "params", handler)
    code, out, err = run(capsys, "params", "--alpha", "1/20")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "invalid parameters: raised by a fresh error class\n"


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


class TestStartup:
    def test_common_commands_import_neither_sympy_nor_scipy(self):
        # sympy is imported only for a cofactor that trial division left, and
        # scipy only for an eigensolve: these command lines need neither
        argvs = [
            ["params", "--alpha", "1/20"],
            ["density", "--p-range", "43"],
            ["enumerate", "--radius", "1/2", "-n", "24"],
            ["volumes"],
            ["witness", "-n", "120", "--alpha", "0.16"],
            ["verify-count", "--n-list", "53"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "from slnapprox.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, [m for m in ('sympy', 'scipy') if m in sys.modules]]))\n"
        )
        src = str(Path(slnapprox.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argvs)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[EXIT_OK] * len(argvs), []]
