"""Command-line interface: outputs, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import slnapprox
from slnapprox import cli, spectral
from slnapprox.cli import main
from slnapprox.core import BallSpec
from slnapprox.engine import BOUNDED_CENTERS
from slnapprox.enumeration import enumerate_points
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

    @pytest.mark.parametrize(
        "monomial", [[1.9, [1, 0, 0, 0]], [True, [1, 0, 0, 0]], [1, [1.5, 0, 0, 0]]],
        ids=["float-coefficient", "true-coefficient", "float-exponent"],
    )
    def test_family_file_numbers_must_be_integers(self, tmp_path, monomial):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n_dim": 2, "polys": [[monomial]]}))
        code, _, err = run_process("density", "--poly", str(path), "--q", "2")
        assert code == EXIT_INVALID
        assert "integer" in err
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
        pinned = [
            (24, ["--tau", "3.0", "--s", "9.5"],
             "101491660db6199f150cc0e957e25ac579fb4fe29d622ee2a7938922dfb40842"),
            # 29 moduli and 44 deviation rows
            (53, ["--poly", "sum-entries", "--tau", "5", "--s", "9.5"],
             "a69cb39bb0fe1e9a4b98c0165dd571b3104bfd708899f086d18a2b4d06a0f990"),
            (24, ["--tau", "3.0", "--s", "9.5", "--delta", "3"],
             "f51ad765c6b8cdfe9ab514722a200b7489d5971b48227bbcc3f35ee67d083d25"),
            (53, ["--poly", "trace-minus-2", "--tau", "3.0", "--s", "9.5"],
             "86dd0819bd694328034ce4ba5b18b0ad4bbdd67b8176ec164a23650a7b080fa5"),
        ]
        for n in (24, 53):
            cell = tmp_path / f"cell{n}.jsonl"
            argv = ["enumerate", "--radius", "1/2", "-n", str(n), "--out", str(cell)]
            assert run(capsys, *argv)[0] == 0
        for n, flags, digest in pinned:
            code, out, _ = run(capsys, "sieve", "--points", str(tmp_path / f"cell{n}.jsonl"), *flags)
            assert code == EXIT_OK
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, flags)

    @pytest.mark.parametrize("flags", [
        # delta * n = 0 once excluded every prime, so the budget scan walked
        # all primes below q_max; n = -24 reached the budget, exit 2
        ["-n", "0", "--delta", "1", "--q-max", "1000000000000"],
        ["-n", "-24", "--delta", "1", "--q-max", "100000"],
    ])
    def test_n_and_delta_checked_before_any_scan(self, capsys, tmp_path, flags):
        cell = tmp_path / "cell.jsonl"
        argv = ["enumerate", "--radius", "1/2", "-n", "24", "--out", str(cell)]
        assert run(capsys, *argv)[0] == EXIT_OK
        code, _, err = run_process("sieve", "--points", str(cell), *flags)
        assert code == EXIT_INVALID
        assert "Traceback" not in err
        assert "n must be a positive integer" in err

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


# (2**107 - 1) * (2**89 - 1), a 196-bit product of two Mersenne primes
SEMIPRIME_P = str((2**107 - 1) * (2**89 - 1))


@pytest.mark.parametrize(
    "argv",
    [
        ["volumes", "--p-list", SEMIPRIME_P, "--lmax", "1"],
        ["spectral", "--p", SEMIPRIME_P, "--q", "5", "--lmax", "1"],
    ],
)
def test_semiprime_p_exits_invalid_unfactored(argv):
    # p is decided prime or not without factoring it, so each exits 4 at once
    code, _, err = run_process(*argv)
    assert code == EXIT_INVALID
    assert "must be a prime" in err
    assert "Traceback" not in err


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

    @pytest.mark.parametrize(
        "p,q,lmax,expected",
        [
            ("2", "11", "3", "ell,volume,lambda2\n"
             "1,6,0.638489980405\n"
             "2,24,0.433709318745\n"
             "3,96,0.272095536214\n"
             "# slope -0.307638 threshold -0.2 passed true\n"),
            ("3", "5", "4", "ell,volume,lambda2\n"
             "1,12,0.400231303144\n"
             "2,108,0.177854110365\n"
             "3,972,0.0637067753845\n"
             "4,8748,0.0123267846191\n"
             "# slope -0.521907 threshold -0.2 passed true\n"),
        ],
    )
    def test_stdout_is_pinned(self, capsys, p, q, lmax, expected):
        code, out, _ = run(capsys, "spectral", "--p", p, "--q", q, "--lmax", lmax)
        assert code == EXIT_OK
        assert out == expected

    def test_eigensolve_miss_is_budget_exit(self, capsys, monkeypatch):
        # no float eigenpair has residual 0, so a zero tolerance always misses
        monkeypatch.setattr(spectral, "_RESIDUAL_TOL", 0.0)
        code, _, err = run(capsys, "spectral", "--p", "2", "--q", "5", "--lmax", "1")
        assert code == EXIT_BUDGET
        assert "converge" in err

    @pytest.mark.parametrize(
        "p,lmax", [("1000003", "1"), ("1000000000000000003", "1"), ("2", "25")]
    )
    def test_shell_budget_before_any_generator(self, capsys, monkeypatch, p, lmax):
        def unbuilt(p, ell):
            raise AssertionError("generators built before the shell budget check")

        monkeypatch.setattr(spectral, "hnf_representatives", unbuilt)
        code, _, err = run(capsys, "spectral", "--p", p, "--q", "5", "--lmax", lmax)
        assert code == EXIT_BUDGET
        assert "generators in the radius-" in err


# one denominator-2 point record, the first point `enumerate -n 2` prints
POINT_LINE = '{"n_dim": 2, "u": [["1", "-1"], ["1", "3"]], "v": "2"}\n'


# the cause stderr names when an input sets a setting that no longer exists
REMOVED_SETTING_CAUSES = {
    "config-gcd-window": "unknown config keys",
    "config-dyadic-bits": "unknown config keys",
    "config-c1": "unknown config keys",
    "config-c2": "unknown config keys",
    "config-iota": "unknown config keys",
    "spectral-reps": "unrecognized arguments",
}


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
        (["--group", "sl3", "volumes"], None),
        (["--group", "sl3", "spectral", "--p", "2", "--q", "5"], None),
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
        (["--config", "{file}", "params", "--alpha", "1/20"], '{"gcd_window": 50}'),
        (["--config", "{file}", "params", "--alpha", "1/20"], '{"dyadic_bits": 53}'),
        (["--config", "{file}", "params", "--alpha", "1/20"], '{"c1": 1.0}'),
        (["--config", "{file}", "params", "--alpha", "1/20"], '{"c2": 1.0}'),
        (["--config", "{file}", "params", "--alpha", "1/20"], '{"iota": 2}'),
        (["spectral", "--p", "2", "--q", "5", "--reps", "hermite"], None),
    ],
    ids=["volumes-composite-p", "spectral-composite-p", "centers-not-matrices",
         "point-line-not-object", "alpha-zero-denominator", "a-zero-denominator",
         "config-string-int", "config-null-budget", "config-zero-r_g",
         "config-not-object", "witness-negative-alpha", "sl3-verify-count",
         "sl3-volumes", "sl3-spectral",
         "verify-count-zero-epsilon", "volumes-negative-lmax",
         "spectral-negative-lmax", "witness-radius-underflow", "witness-alpha-inf",
         "sieve-zero-s", "sieve-zero-delta", "sieve-negative-delta",
         "sieve-negative-q-max", "sieve-zero-n", "sieve-negative-n",
         "negative-budget", "density-p-range-0", "density-p-range-negative",
         "density-p-range-1", "config-gcd-window", "config-dyadic-bits",
         "config-c1", "config-c2", "config-iota", "spectral-reps"],
)
def test_malformed_input_exits_invalid(request, tmp_path, argv, file_text):
    path = tmp_path / "input.json"
    if file_text is not None:
        path.write_text(file_text)
    code, _, err = run_process(*(arg.format(file=path) for arg in argv))
    assert code == EXIT_INVALID
    assert "Traceback" not in err
    assert REMOVED_SETTING_CAUSES.get(request.node.callspec.id, "") in err


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


HUGE = str(10**18 + 3)  # prime
# nextprime(2**150) * nextprime(2**151), 302 bits: past the factoring budget
SEMIPRIME = (
    "40740719526689721725368913768187563221029372711688"
    "40328592680577467706242905524646117906903"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--q", HUGE],
        ["spectral", "--p", "2", "--q", HUGE, "--lmax", "1"],
        ["enumerate", "--radius", "1/2", "-n", HUGE],
        ["witness", "-n", HUGE, "--alpha", "0.16"],
        ["witness", "-n", str(2**1024), "--alpha", "0.16"],
    ],
    ids=["density", "spectral", "enumerate", "witness", "witness-past-float"],
)
def test_huge_modulus_exits_on_budget_unfactored(capsys, monkeypatch, argv):
    # trial division of 10**18 + 3 to its square root would take minutes;
    # each budget is checked on a bound that needs no full factorization
    def factor(*args, **kwargs):
        raise AssertionError("a huge modulus was factored")

    for module in (slnapprox.core, slnapprox.densities):
        monkeypatch.setattr(module, "prime_factorization", factor)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_huge_modulus_volume_unfactored(capsys, monkeypatch):
    # the volume of 10**18 + 3 comes from the witness path's factoring, not
    # from trial division to its square root; every cell is over budget
    def factor(*args, **kwargs):
        raise AssertionError("a huge modulus was trial-divided")

    monkeypatch.setattr(slnapprox.core, "prime_factorization", factor)
    code, out, _ = run(capsys, "verify-count", "--n-list", HUGE)
    assert code == EXIT_OK
    rows = out.splitlines()[1:-1]
    assert len(rows) == 5
    assert all(row.split(",")[3:5] == ["", ""] for row in rows)


def _forbid_trial_division_to_the_root(monkeypatch):
    def factor(*args, **kwargs):
        raise AssertionError("a huge modulus was trial-divided")

    for module in (slnapprox.core, slnapprox.densities, slnapprox.enumeration):
        monkeypatch.setattr(module, "prime_factorization", factor, raising=False)


def test_huge_modulus_counted_with_bounded_factoring(capsys, monkeypatch):
    # at radius 1/n the identity cell holds points whose top row shares a
    # factor with n, so the count factors gcd(h, k), a divisor of n, within
    # the factoring budgets
    _forbid_trial_division_to_the_root(monkeypatch)
    code, out, _ = run(capsys, "verify-count", "--n-list", HUGE, "--epsilon", f"1/{HUGE}")
    assert code == EXIT_OK
    first = out.splitlines()[1].split(",")
    assert first[:4] == ["0", HUGE, f"1/{HUGE}", "8"]
    ball = BallSpec.make(BOUNDED_CENTERS[0], Fraction(1, int(HUGE)), int(HUGE))
    assert enumerate_points(ball).count == 8


def test_huge_modulus_witness_probe_bounded(capsys, monkeypatch):
    # the witness radius probe counts points, as verify-count does
    _forbid_trial_division_to_the_root(monkeypatch)
    code, _, err = run(capsys, "witness", "-n", HUGE, "--alpha", "1.5")
    assert code == EXIT_NO_WITNESS
    assert "no witness" in err


def test_unfactorable_modulus_witness_probe_ends(capsys):
    # the requested ball is searched in full and is empty; a wider probe
    # ball that cannot be counted within the factoring budget ends the
    # probe, it does not turn "no witness" into "budget exhausted"
    code, _, err = run(capsys, "witness", "-n", SEMIPRIME, "--alpha", "1.5")
    assert code == EXIT_NO_WITNESS
    assert "no point within radius" in err


def test_huge_prime_volumes_not_trial_divided(capsys, monkeypatch):
    # primality of 10**18 + 3 is decided by bounded trial division and a
    # primality test, not by trial division to its square root
    def factor(*args, **kwargs):
        raise AssertionError("a huge prime was trial-divided")

    monkeypatch.setattr(slnapprox.core, "prime_factorization", factor)
    code, out, _ = run(capsys, "volumes", "--p-list", HUGE, "--lmax", "1")
    assert code == EXIT_OK
    p = int(HUGE)
    assert out.splitlines()[1:] == [
        f"{p},0,1,1,true",
        f"{p},1,{(p + 1) * p},{(p + 1) * p},true",
    ]


# ---------------------------------------------------------------------------
# argv fuzz: command lines drawn from bounded pools, run in-process

INTS = [str(i) for i in range(-3, 61)]
ODD = ["1/2", "-2/3", "1/0", "0.25", "nan", "inf", "-inf", "", "x", "[[1,0", "3,,5"]
VALUES = INTS + ODD
# the shell budget of `spectral` still admits about 70 s of its (p+1) p^(2l-1)
# generators, so p and l stay where there are at most a few thousand;
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
        "spectral": {"--p": SPECTRAL_P, "--q": SMALL, "--lmax": SPECTRAL_LMAX},
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

    def test_records_are_pinned(self, capsys):
        # every BOUNDED_CENTERS entry, preset and n at alpha = 1/6, with the
        # time of each search removed
        records = []
        for center in BOUNDED_CENTERS:
            text = json.dumps([[str(e) for e in row] for row in center])
            for preset in ("entry11", "trace-minus-2", "sum-entries"):
                for n in (50, 110, 200):
                    code, out, _ = run(
                        capsys, "witness", "--center", text, "-n", str(n),
                        "--alpha", str(1 / 6), "--poly", preset,
                    )
                    assert code == EXIT_OK
                    record = json.loads(out)
                    del record["elapsed_s"]
                    records.append(json.dumps(record, indent=2))
        assert hashlib.sha256("\n".join(records).encode()).hexdigest() == (
            "173e39b34ccb7b87fb430743994996607c9e8ea7a97bdd5108ac8ea120554635"
        )

    def test_no_witness_exit(self, capsys):
        code, _, err = run(capsys, "witness", "-n", "2", "--alpha", "2.0")
        assert code == EXIT_NO_WITNESS
        assert "no witness" in err

    def test_radius_past_the_float_range_underflows(self, capsys):
        # float(2**1024) overflows; the radius 2**-1536 is then read as 0
        code, _, err = run(capsys, "witness", "-n", str(2**1024), "--alpha", "1.5")
        assert code == EXIT_INVALID
        assert "underflows" in err


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
    def test_package_import_loads_no_module(self):
        # the package root re-exports nothing: each layer is imported from
        # the module that holds it
        src = str(Path(slnapprox.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, slnapprox\n"
             "print([m for m in sys.modules if m.startswith('slnapprox.')])"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_common_commands_import_neither_sympy_nor_scipy(self):
        # sympy is imported only for a cofactor that trial division left, and
        # nothing imports scipy: these command lines need neither
        argvs = [
            ["params", "--alpha", "1/20"],
            ["density", "--p-range", "43"],
            ["enumerate", "--radius", "1/2", "-n", "24"],
            ["volumes"],
            ["witness", "-n", "120", "--alpha", "0.16"],
            ["verify-count", "--n-list", "53"],
            ["spectral", "--p", "2", "--q", "5", "--lmax", "2"],
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
