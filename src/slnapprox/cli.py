"""Command line front end.

Subcommands: enumerate, volumes, density, sieve, spectral, params, witness,
verify-count.  Exit codes: 0 success, 2 budget exhausted (including an
eigensolve that did not converge), 3 no witness found, 4 invalid
parameters or input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from fractions import Fraction

from . import densities, engine, enumeration, sieve, spectral, volumes
from .config import DEFAULT_CONFIG, Config
from .core import (
    family_from_file,
    family_from_preset,
    FAMILY_PRESETS,
    frac_json,
    identity_matrix,
    primes_below,
    RationalGroupPoint,
    to_fraction_matrix,
)
from .errors import (
    BudgetExceeded,
    ConvergenceFailure,
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_NO_WITNESS,
    EXIT_OK,
    NoWitness,
    SlnApproxError,
    UnsupportedDimension,
)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _parse_nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc


def _center_matrix(raw, n_dim: int):
    """An n_dim x n_dim matrix of rationals from parsed JSON, else ValueError."""
    if not (
        isinstance(raw, list)
        and len(raw) == n_dim
        and all(isinstance(row, list) and len(row) == n_dim for row in raw)
    ):
        raise ValueError(f"bad center matrix: {raw!r} is not {n_dim}x{n_dim}")
    try:
        return to_fraction_matrix([[Fraction(str(e)) for e in row] for row in raw])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad center matrix: {exc}") from exc


def _parse_center(text: str, n_dim: int):
    # called from the command handlers, so failures must surface as the
    # ValueError family that main() maps to the invalid-parameters code
    if text == "identity":
        return identity_matrix(n_dim)
    return _center_matrix(json.loads(text), n_dim)


def _json_fields(record, omit: tuple[str, ...] = ()) -> dict:
    """The dataclass fields of ``record`` in declaration order, exact values
    (fractions and group points) in their JSON forms."""
    out = {}
    for field in dataclasses.fields(record):
        if field.name in omit:
            continue
        value = getattr(record, field.name)
        if isinstance(value, Fraction):
            value = frac_json(value)
        elif isinstance(value, RationalGroupPoint):
            value = value.to_json_dict()
        out[field.name] = value
    return out


def _load_family(spec_text: str, n_dim: int):
    if spec_text in FAMILY_PRESETS:
        return family_from_preset(spec_text, n_dim)
    family = family_from_file(spec_text)
    if family.n_dim != n_dim:
        raise ValueError(f"family file has n_dim {family.n_dim}, the group {n_dim}")
    return family


class _Parser(argparse.ArgumentParser):
    """Argument errors exit with the invalid-parameters code, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and no command mutates the default lists it hands out."""
    parser = _Parser(
        prog="slnapprox",
        description="Rational points of small denominator near a target matrix: "
        "enumeration, volumes, densities, sieve bounds, spectral decay.",
    )
    parser.add_argument("--group", choices=["sl2", "sl3"], default="sl2")
    parser.add_argument(
        "--budget", type=_parse_nonnegative_int, help="override enumeration budgets"
    )
    parser.add_argument("--config", help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list points of a denominator ball")
    p.add_argument("--center", default="identity")
    p.add_argument("--radius", type=_parse_fraction, required=True)
    p.add_argument("-n", "--denominator", type=int, required=True)
    p.add_argument(
        "--strategy", choices=["optimized", "oracle", "both"], default="optimized"
    )
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("volumes", help="local shell volumes vs the class count")
    p.add_argument("--p-list", type=_parse_int_list, default=[2, 3, 5, 7, 11, 13])
    p.add_argument("--lmax", type=_parse_nonnegative_int, default=3)

    p = sub.add_parser("density", help="zero densities of a polynomial family")
    p.add_argument("--poly", default="entry11")
    p.add_argument("--q", type=_parse_int_list, help="explicit moduli")
    p.add_argument("--p-range", type=int, help="all primes up to this bound")

    p = sub.add_parser("sieve", help="axiom check and lower bound on a point file")
    p.add_argument("--points", required=True, help="JSON-lines file from enumerate")
    p.add_argument("--poly", default="entry11")
    p.add_argument("-n", "--denominator", type=int)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--s", type=float, default=10.0)
    p.add_argument("--q-max", type=int)
    p.add_argument("--delta", type=int, help="gcd obstruction; computed if omitted")

    p = sub.add_parser("spectral", help="averaging operator gap decay")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lmax", type=_parse_nonnegative_int, default=3)

    p = sub.add_parser("params", help="exponent threshold and almost-prime bound")
    p.add_argument("--alpha", type=_parse_fraction, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--deg", type=int, default=1)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--a", type=_parse_fraction, default=Fraction(2))

    p = sub.add_parser("witness", help="best approximant in the exponent ball")
    p.add_argument("--center", default="identity")
    p.add_argument("-n", "--denominator", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--poly", default="entry11")

    p = sub.add_parser("verify-count", help="count-to-volume ratios across cells")
    p.add_argument("--centers", default="bounded5", help="bounded5 or a JSON file")
    p.add_argument("--n-list", type=_parse_int_list, default=[53, 59, 61, 67, 71])
    p.add_argument("--epsilon", type=_parse_fraction, default=Fraction(1, 2))
    p.add_argument("--threshold", type=int, default=1000)
    return parser


def _make_config(args) -> Config:
    cfg = Config.from_json(args.config) if args.config else DEFAULT_CONFIG
    if args.budget is not None:
        cfg = dataclasses.replace(
            cfg, oracle_cell_budget=args.budget, optimized_row_budget=args.budget
        )
    return cfg


def _cmd_enumerate(args, cfg: Config, n_dim: int) -> int:
    from .core import BallSpec

    center = _parse_center(args.center, n_dim)
    ball = BallSpec.make(center, args.radius, args.denominator)
    result = enumeration.enumerate_points(ball, strategy=args.strategy, config=cfg)
    if args.out:
        with open(args.out, "w") as fh:
            enumeration.write_jsonl(result, fh)
    else:
        enumeration.write_jsonl(result, sys.stdout)
    return EXIT_OK


def _cmd_volumes(args, cfg: Config, n_dim: int) -> int:
    print("p,ell,closed_form,oracle,match")
    for p in args.p_list:
        for ell in range(args.lmax + 1):
            closed = volumes.local_ball_volume(p, ell, config=cfg)
            oracle = volumes.hnf_coset_oracle(p, ell)
            print(f"{p},{ell},{closed},{oracle},{str(closed == oracle).lower()}")
    return EXIT_OK


def _cmd_density(args, cfg: Config, n_dim: int) -> int:
    family = _load_family(args.poly, n_dim)
    moduli = sorted(set(args.q or []))
    if args.p_range is not None:
        if args.p_range < 2:
            raise ValueError(f"--p-range needs a bound of at least 2, got {args.p_range}")
        # lazy: density_table stops reading at the density budget
        moduli = itertools.chain(moduli, primes_below(args.p_range + 1))
    elif not moduli:
        moduli = [2, 3, 5, 7, 11, 13]
    table = densities.density_table(family, moduli, config=cfg)
    print("q,rho_num,rho_den,order")
    for q in sorted(table.values):
        rho = table.value(q)
        print(f"{q},{rho.numerator},{rho.denominator},{table.group_orders[q]}")
    return EXIT_OK


def _cmd_sieve(args, cfg: Config, n_dim: int) -> int:
    with open(args.points) as fh:
        points = enumeration.read_jsonl_points(fh)
    family = _load_family(args.poly, n_dim)
    n = args.denominator
    if n is None:
        if not len(points):
            raise ValueError("the point file holds no point record; pass -n explicitly")
        dens = set(points.rows[:, -1].tolist())
        if len(dens) != 1:
            raise ValueError("points have mixed denominators; pass -n explicitly")
        n = dens.pop()
    # z and q_max do not depend on delta: check the arguments before delta_n
    z, q_max = sieve.sieve_level(len(points), family.t, args.tau, args.s, args.q_max)
    delta = args.delta
    if delta is None:
        delta = densities.delta_n(family, n, config=cfg).delta
    rho = sieve.sieve_densities(family, n, delta, z, q_max, cfg)
    report = sieve.run_sieve(
        points, family, n, rho, tau=args.tau, s=args.s, q_max=q_max,
        delta=delta,
    )
    json.dump(sieve.sieve_report_to_json_dict(report), sys.stdout, indent=2)
    print()
    return EXIT_OK


def _cmd_spectral(args, cfg: Config, n_dim: int) -> int:
    report = spectral.gap_decay_report(
        args.p, args.q, range(1, args.lmax + 1), config=cfg
    )
    print("ell,volume,lambda2")
    for row in report.rows:
        print(f"{row.ell},{row.volume},{row.lambda2:.12g}")
    if report.slope is None:
        print("# slope undefined (fewer than two usable rows)")
    else:
        print(
            f"# slope {report.slope:.6f} threshold {spectral.SLOPE_THRESHOLD} "
            f"passed {str(report.passed).lower()}"
        )
    return EXIT_OK


def _cmd_params(args, cfg: Config, n_dim: int) -> int:
    del n_dim
    tp = engine.exponent_parameters(
        args.alpha, t=args.t, deg_f=args.deg, delta_n=args.delta,
        d=args.d, a=args.a, config=cfg,
    )
    json.dump(_json_fields(tp), sys.stdout, indent=2)
    print()
    return EXIT_OK


def _cmd_witness(args, cfg: Config, n_dim: int) -> int:
    center = _parse_center(args.center, n_dim)
    family = _load_family(args.poly, n_dim)
    record = engine.find_witness(
        center, args.denominator, args.alpha, family, config=cfg
    )
    json.dump(_json_fields(record, omit=("x",)), sys.stdout, indent=2)
    print()
    return EXIT_OK


def _cmd_verify_count(args, cfg: Config, n_dim: int) -> int:
    if args.centers == "bounded5":
        centers = list(engine.BOUNDED_CENTERS)
    else:
        with open(args.centers) as fh:
            raw = json.load(fh)
        if not isinstance(raw, list):
            raise ValueError("a centers file holds a JSON list of matrices")
        centers = [_center_matrix(mat, n_dim) for mat in raw]
    report = engine.counting_verification(
        centers, args.n_list, args.epsilon, count_threshold=args.threshold, config=cfg
    )
    print("center,n,epsilon,T,volume,ratio,significant")
    for i, row in enumerate(report.rows):
        if row.skipped:
            print(f"{i // len(args.n_list)},{row.n},{row.epsilon},,,{row.skipped},false")
            continue
        print(
            f"{i // len(args.n_list)},{row.n},{row.epsilon},{row.T},{row.volume},"
            f"{float(row.ratio):.6f},{str(row.significant).lower()}"
        )
    if report.spread is None:
        print("# spread not significant (no cell reached the count threshold)")
    else:
        print(
            f"# spread {float(report.spread):.6f} over "
            f"{report.significant_cells} significant cells"
        )
    return EXIT_OK


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "volumes": _cmd_volumes,
    "density": _cmd_density,
    "sieve": _cmd_sieve,
    "spectral": _cmd_spectral,
    "params": _cmd_params,
    "witness": _cmd_witness,
    "verify-count": _cmd_verify_count,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    n_dim = 2 if args.group == "sl2" else 3
    try:
        if n_dim != 2 and args.command in ("volumes", "spectral", "verify-count"):
            raise UnsupportedDimension(f"{args.command} is for the 2x2 group")
        cfg = _make_config(args)
        return _COMMANDS[args.command](args, cfg, n_dim)
    except (BudgetExceeded, ConvergenceFailure) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NoWitness as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return EXIT_NO_WITNESS
    except (SlnApproxError, ValueError, OSError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
