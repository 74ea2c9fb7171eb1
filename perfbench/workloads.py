"""The benchmark workloads: inputs from a seed, one timed pass, checks.

``witness_sweep`` runs many small witness searches.  ``cli_pipeline`` runs
the command-line pipeline in one shuffled pass: count-only tables, one per
prime (count_cells), one large cell enumerated to JSON lines and sieved
(cell_sieve), and the per-prime tables (local_tables).

Each workload is a list of operations drawn from a small fixed pool.  The
seed only picks pool members, so every pass of every seed costs about the
same, and every pool member has an exact reference output recorded in
``references.json`` (regenerate with ``make_references.py``).  An operation
passes when its observed output matches the reference and an independent
invariant holds; an exception also counts as a failure.

All library calls go through module attributes (``engine.find_witness``,
``cli.main``, ...) at call time, so the tracer's hooks see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from slnapprox import cli, densities, engine, volumes
from slnapprox.core import (
    BallSpec,
    RationalGroupPoint,
    ball_membership,
    family_from_preset,
)

SIZES = ("full", "tiny")
FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One checked library call."""

    key: str  # names the inputs; the reference is looked up by it
    call: Callable[[], Any]
    observe: Callable[[Any], Any]  # output -> JSON value compared to the reference
    invariant: Callable[[Any], bool]  # holds for any correct output
    points: Callable[[Any], int] = lambda out: 0  # points the call enumerated


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the command line in-process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, buf.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def matches(observed, expected) -> bool:
    """Exact equality, except floats agree to FLOAT_TOL."""
    if isinstance(expected, dict):
        return (
            isinstance(observed, dict)
            and observed.keys() == expected.keys()
            and all(matches(observed[k], expected[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(observed, list)
            and len(observed) == len(expected)
            and all(matches(o, e) for o, e in zip(observed, expected))
        )
    if isinstance(expected, float) and isinstance(observed, (int, float)):
        return abs(observed - expected) <= FLOAT_TOL * max(1.0, abs(expected))
    return type(observed) is type(expected) and observed == expected


def check(op: Op, output, refs: dict) -> bool:
    """True when the output matches its reference and the invariant holds."""
    if isinstance(output, Exception):
        return False
    try:
        observed = json.loads(json.dumps(op.observe(output)))
        return matches(observed, refs[op.key]) and bool(op.invariant(output))
    except Exception:  # a check that cannot run is a failed operation
        return False


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines()[1:] if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


# ---------------------------------------------------------------------------
# witness_sweep: many small balls through engine.find_witness

WITNESS_ALPHA = 1 / 6
WITNESS_CALLS = {
    "full": [
        ("entry11", 50),
        ("trace-minus-2", 80),
        ("entry11", 110),
        ("trace-minus-2", 140),
        ("entry11", 170),
        ("trace-minus-2", 200),
    ],
    "tiny": [("entry11", 50), ("trace-minus-2", 60)],
}


def _witness_op(family: str, n: int, center: int) -> Op:
    fam = family_from_preset(family)
    x = engine.BOUNDED_CENTERS[center]

    def call():
        return engine.find_witness(x, n, WITNESS_ALPHA, fam)

    def invariant(rec):
        rec.z.validate()
        ball = BallSpec.make(x, rec.epsilon, n)
        return ball_membership(rec.z, ball) and rec.candidates >= 1

    return Op(
        key=f"witness_sweep/{family}/n={n}/center={center}",
        call=call,
        observe=lambda rec: {
            "u": rec.z.u,
            "v": rec.z.v,
            "factor_count": rec.factor_count,
            "candidates": rec.candidates,
        },
        invariant=invariant,
        points=lambda rec: rec.candidates,
    )


def witness_ops(seed: int, size: str, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ncenters = len(engine.BOUNDED_CENTERS)
    ops = [_witness_op(f, n, rng.randrange(ncenters)) for f, n in WITNESS_CALLS[size]]
    rng.shuffle(ops)
    return ops


def witness_pool(size: str, workdir: str) -> list[Op]:
    return [
        _witness_op(f, n, c)
        for f, n in WITNESS_CALLS[size]
        for c in range(len(engine.BOUNDED_CENTERS))
    ]


# ---------------------------------------------------------------------------
# count_cells: the verify-count subcommand, count only

# one prime from each pair; pairs are close so every seed costs the same
COUNT_PRIME_PAIRS = {
    "full": [(53, 59), (61, 67), (71, 73), (79, 83), (89, 97), (101, 103),
             (107, 109), (113, 113)],
    "tiny": [(53, 59)],
}
COUNT_THRESHOLD = 1000


def _count_op(n: int) -> Op:
    argv = ["verify-count", "--n-list", str(n), "--epsilon", "1/2",
            "--threshold", str(COUNT_THRESHOLD)]

    def observe(out):
        rc, text = out
        rows = [[int(c), int(m), int(T), int(vol)]
                for c, m, _, T, vol, _, _ in _csv_rows(text)]
        return {"exit": rc, "rows": rows}

    def invariant(out):
        significant = []
        for _, m, _, T, vol, shown, flag in _csv_rows(out[1]):
            ratio = Fraction(int(T), int(vol))  # (2 eps)^3 = 1 at eps = 1/2
            is_significant = int(T) >= COUNT_THRESHOLD
            if (
                int(vol) != volumes.finite_volume(int(m))
                or shown != f"{float(ratio):.6f}"
                or flag != str(is_significant).lower()
            ):
                return False
            if is_significant:
                significant.append(ratio)
        spread = (
            f"# spread {float(max(significant) / min(significant)):.6f} "
            f"over {len(significant)} significant cells"
        )
        return out[1].splitlines()[-1] == spread

    return Op(
        key=f"count_cells/n={n}",
        call=lambda: cli_call(argv),
        observe=observe,
        invariant=invariant,
        points=lambda out: sum(row[2] for row in observe(out)["rows"]),
    )


def count_ops(seed: int, size: str, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    return [_count_op(rng.choice(pair)) for pair in COUNT_PRIME_PAIRS[size]]


def count_pool(size: str, workdir: str) -> list[Op]:
    primes = sorted({n for pair in COUNT_PRIME_PAIRS[size] for n in pair})
    return [_count_op(n) for n in primes]


# ---------------------------------------------------------------------------
# cell_sieve: enumerate one large ball to JSON lines, then sieve the file

# denominators whose finite volumes lie within 4 % of each other
SIEVE_N = {"full": [187, 197, 199], "tiny": [24]}
SIEVE_ARGS = ["--tau", "3.0", "--s", "9.5"]
SIEVE_SAMPLE = 64  # points re-validated independently per pass


def _cell_lines(path: str) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def _sieve_op(n: int, workdir: str) -> Op:
    path = os.path.join(workdir, "cell.jsonl")
    ball = BallSpec.make(((1, 0), (0, 1)), Fraction(1, 2), n)

    def call():
        rc_enum, _ = cli_call(
            ["enumerate", "--radius", "1/2", "-n", str(n), "--out", path]
        )
        rc_sieve, report = cli_call(["sieve", "--points", path, *SIEVE_ARGS])
        return rc_enum, rc_sieve, report

    def observe(out):
        rc_enum, rc_sieve, report = out
        lines = _cell_lines(path)
        return {
            "exit": [rc_enum, rc_sieve],
            "count": json.loads(lines[-1])["count"],
            "points_sha256": _sha("\n".join(lines[:-1])),
            "report_sha256": _sha(report),
        }

    def invariant(out):
        lines = _cell_lines(path)
        count = json.loads(lines[-1])["count"]
        step = max(1, (len(lines) - 1) // SIEVE_SAMPLE)
        for line in lines[:-1:step]:
            z = RationalGroupPoint.from_json(line)  # validates det and gcd
            if not ball_membership(z, ball):
                return False
        rep = json.loads(out[2])
        return (
            count == len(lines) - 1
            and rep["T"] == count
            and rep["consistent"]
            and rep["direct_count"] <= count
        )

    # the file is read back before the next pass overwrites it
    return Op(
        key=f"cell_sieve/n={n}",
        call=call,
        observe=observe,
        invariant=invariant,
        points=lambda out: len(_cell_lines(path)) - 1,
    )


def sieve_ops(seed: int, size: str, workdir: str) -> list[Op]:
    return [_sieve_op(random.Random(seed).choice(SIEVE_N[size]), workdir)]


def sieve_pool(size: str, workdir: str) -> list[Op]:
    return [_sieve_op(n, workdir) for n in SIEVE_N[size]]


# ---------------------------------------------------------------------------
# local_tables: densities, spectral gap, spherical function, growth

LOCAL = {
    "full": {"p_range": 43, "spectral": (2, 11, 3), "xi": [(2, 4), (3, 3)],
             "growth": [99000, 99500, 100000, 100500, 101000]},
    "tiny": {"p_range": 7, "spectral": (2, 5, 2), "xi": [(2, 2), (3, 1)],
             "growth": [1000]},
}
LOCAL_FAMILIES = ("entry11", "trace-minus-2")


def _closed_density(family: str, p: int) -> Fraction:
    # zeros of the corner entry: p(p-1) elements; of trace 2: p^2 elements
    if family == "entry11":
        return Fraction(p, p + 1)
    return Fraction(p * p, p * p - 1)


def _closed_xi(p: int, ell: int) -> Fraction:
    return Fraction(1, p**ell) * (1 + Fraction(2 * ell * (p - 1), p + 1))


def _density_op(family: str, p_range: int) -> Op:
    def observe(out):
        rc, text = out
        return {"exit": rc, "rows": [[int(v) for v in row] for row in _csv_rows(text)]}

    def invariant(out):
        rows = observe(out)["rows"]
        return rows and all(
            Fraction(num, den) == _closed_density(family, q)
            and order == densities.group_order_mod(q)
            for q, num, den, order in rows
        )

    return Op(
        key=f"local_tables/density/{family}/p<={p_range}",
        call=lambda: cli_call(["density", "--poly", family, "--p-range", str(p_range)]),
        observe=observe,
        invariant=invariant,
    )


def _spectral_op(p: int, q: int, lmax: int) -> Op:
    def observe(out):
        rc, text = out
        rows = [[int(e), int(vol), float(lam)] for e, vol, lam in _csv_rows(text)]
        return {"exit": rc, "rows": rows}

    def invariant(out):
        rows = observe(out)["rows"]
        return len(rows) == lmax and all(
            vol == (p + 1) * p ** (2 * ell - 1) and 0 < lam < 1
            for ell, vol, lam in rows
        )

    return Op(
        key=f"local_tables/spectral/p={p}/q={q}/lmax={lmax}",
        call=lambda: cli_call(
            ["spectral", "--p", str(p), "--q", str(q), "--lmax", str(lmax)]
        ),
        observe=observe,
        invariant=invariant,
    )


def _xi_op(p: int, ell: int) -> Op:
    return Op(
        key=f"local_tables/xi/p={p}/ell={ell}",
        call=lambda: volumes.harish_chandra_xi(p, ell),
        observe=lambda xi: [str(xi.numerator), str(xi.denominator)],
        invariant=lambda xi: xi == _closed_xi(p, ell),
    )


def _growth_op(n_max: int) -> Op:
    return Op(
        key=f"local_tables/growth/n_max={n_max}",
        call=lambda: volumes.growth_exponent(n_max),
        observe=lambda est: {"exponent": est.fitted_exponent, "samples": len(est.samples)},
        invariant=lambda est: 1.95 <= est.fitted_exponent <= 2.05
        and len(est.samples) == n_max,
    )


def local_ops(seed: int, size: str, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    cfg = LOCAL[size]
    ops = [
        _density_op(rng.choice(LOCAL_FAMILIES), cfg["p_range"]),
        _spectral_op(*cfg["spectral"]),
        *(_xi_op(p, ell) for p, ell in cfg["xi"]),
        _growth_op(rng.choice(cfg["growth"])),
    ]
    rng.shuffle(ops)
    return ops


def local_pool(size: str, workdir: str) -> list[Op]:
    cfg = LOCAL[size]
    return [
        *(_density_op(f, cfg["p_range"]) for f in LOCAL_FAMILIES),
        _spectral_op(*cfg["spectral"]),
        *(_xi_op(p, ell) for p, ell in cfg["xi"]),
        *(_growth_op(n) for n in cfg["growth"]),
    ]


# ---------------------------------------------------------------------------
# cli_pipeline: the three command-line parts above in one shuffled pass


def pipeline_ops(seed: int, size: str, workdir: str) -> list[Op]:
    ops = [
        *count_ops(seed, size, workdir),
        *sieve_ops(seed + 1, size, workdir),
        *local_ops(seed + 2, size, workdir),
    ]
    random.Random(seed).shuffle(ops)
    return ops


def pipeline_pool(size: str, workdir: str) -> list[Op]:
    return count_pool(size, workdir) + sieve_pool(size, workdir) + local_pool(size, workdir)


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int, str, str], list[Op]]
    pool: Callable[[str, str], list[Op]]  # every input a seed can draw


WORKLOADS = {
    "witness_sweep": Workload(witness_ops, witness_pool),
    "cli_pipeline": Workload(pipeline_ops, pipeline_pool),
}


def make_references(workdir: str) -> dict:
    """Reference outputs of every pool member, from the code as it is now."""
    refs = {}
    for wl in WORKLOADS.values():
        for size in SIZES:
            for op in wl.pool(size, workdir):
                refs[op.key] = json.loads(json.dumps(op.observe(op.call())))
    return dict(sorted(refs.items()))
