"""Parameter calculator, witness search, and the counting ratio check.

The exponent threshold alpha0 = a / (d * 4 * iota) and the almost-prime
bound r = delta + ceil(9 t deg (d+1)^2 / (a/(4 iota) - alpha d)) are exact
rational computations; witness search runs the enumerator on the ball of
radius n^(-alpha) and picks the arithmetically best point; the ratio check
compares point counts against (2 eps)^d times the finite volume across a
matrix of cells.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_CONFIG, Config
from .core import (
    BallSpec,
    FracMatrix,
    PolynomialFamily,
    RationalGroupPoint,
    frac_ceil,
    identity_matrix,
    to_fraction_matrix,
)
from .enumeration import count_points, enumerate_points
from .errors import AlphaTooLarge, BudgetExceeded, NoWitness, SearchSpaceTooLarge, ZeroValue
from .sieve import coprime_part
from .volumes import finite_volume


def _exact(x) -> Fraction:
    """Read a float through its shortest decimal form; 0.1 means 1/10."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class ExponentParameters:
    """Exact values of the exponent threshold and almost-prime bound."""

    d: int
    a: Fraction
    iota: int
    r_g: int
    t: int
    deg_f: int
    delta_n: int
    alpha: Fraction
    alpha0: Fraction
    alpha_prime: Fraction
    r: int
    kappa: Fraction
    tau0: Fraction
    alpha0_restricted: Fraction


def exponent_parameters(
    alpha,
    t: int = 1,
    deg_f: int = 1,
    delta_n: int = 0,
    d: int = 3,
    a=2,
    config: Config = DEFAULT_CONFIG,
) -> ExponentParameters:
    """Evaluate the exponent threshold and the almost-prime bound exactly.

    Float inputs are read through their decimal form, so alpha=0.1 is
    exactly 1/10.  The admissible range is 0 < alpha < alpha0, the
    boundary excluded; outside it AlphaTooLarge reports the threshold.
    ``alpha0_restricted`` is the informational variant threshold
    a / (2 iota d).
    """
    alpha = _exact(alpha)
    a = _exact(a)
    if d < 1 or a <= 0 or t < 1 or deg_f < 1 or delta_n < 0 or alpha <= 0:
        raise ValueError("invalid parameter ranges")
    iota = config.derived_iota
    if iota < 1:
        raise ValueError(f"iota must be positive, got {iota} (r_g = {config.r_g})")
    alpha0 = a / (d * 4 * iota)
    if alpha >= alpha0:
        raise AlphaTooLarge(alpha, alpha0)
    denom = a / (4 * iota) - alpha * d
    r = delta_n + frac_ceil(Fraction(9 * t * deg_f * (d + 1) ** 2) / denom)
    alpha_prime = alpha / a
    kappa = (Fraction(1, 4 * iota) - alpha_prime * d) / (alpha_prime * (d + 1))
    tau0 = (Fraction(1, 4 * iota) - alpha_prime * d) / (
        (d + 1) ** 2 * (1 - alpha_prime * d)
    )
    return ExponentParameters(
        d=d,
        a=a,
        iota=iota,
        r_g=config.r_g,
        t=t,
        deg_f=deg_f,
        delta_n=delta_n,
        alpha=alpha,
        alpha0=alpha0,
        alpha_prime=alpha_prime,
        r=r,
        kappa=kappa,
        tau0=tau0,
        alpha0_restricted=a / (d * 2 * iota),
    )


@dataclass(frozen=True)
class WitnessRecord:
    """A found approximant and its arithmetic quality."""

    x: FracMatrix  # the dyadically snapped target
    n: int
    alpha: float
    epsilon: Fraction
    z: RationalGroupPoint
    distance: Fraction
    factor_count: int
    candidates: int
    zero_values_skipped: int
    elapsed_s: float


PROBE_DOUBLINGS = 20  # radius doublings tried before NoWitness gives up


def find_witness(
    x,
    n: int,
    alpha: float,
    family: PolynomialFamily,
    config: Config = DEFAULT_CONFIG,
) -> WitnessRecord:
    """Search the radius-n^(-alpha) ball for the best denominator-n point.

    Among the enumerated points (zero polynomial values skipped) the
    witness minimizes the factor count of the value's n-coprime part, ties
    broken by the canonical point order.  An empty ball raises NoWitness;
    before giving up, the radius is doubled up to PROBE_DOUBLINGS times to
    report the smallest radius at which a point does exist, and a probe
    ball past a budget ends the probe with no radius.  The exponent
    must be positive, n^(-alpha) must not underflow to a zero radius, and
    the family must be of the center's n_dim (ValueError otherwise).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not alpha > 0:  # also rejects nan
        raise ValueError(f"alpha must be positive, got {alpha}")
    t0 = time.monotonic()
    try:
        eps = Fraction(float(n) ** (-float(alpha)))
    except OverflowError:  # n past the float range
        eps = Fraction(2.0 ** (-float(alpha) * math.log2(n)))
    if eps == 0:  # a radius that underflowed could never be doubled
        raise ValueError(f"radius {n}^(-{alpha}) underflows to 0")
    ball = BallSpec.make(x, eps, n)
    if ball.n_dim != family.n_dim:
        raise ValueError(f"center of n_dim {ball.n_dim}, family of n_dim {family.n_dim}")
    result = enumerate_points(ball, strategy="optimized", config=config)
    if result.count == 0:
        smallest = None
        probe = eps
        for _ in range(PROBE_DOUBLINGS):
            probe = probe * 2
            wide = BallSpec.make(x, probe, n)
            try:
                if count_points(wide, config):
                    smallest = probe
                    break
            except BudgetExceeded:
                break
        raise NoWitness(eps, smallest)
    best = None
    best_count = None
    zeros = 0
    # looked up once per call: a wrapper installed before the call still
    # sees every candidate
    values, product, sieved = family.values, math.prod, coprime_part
    for z in result.points:
        prod = product(values(z))
        if prod == 0:
            zeros += 1
            continue
        fc = sieved(prod, n).factor_count
        if best_count is None or fc < best_count:
            best, best_count = z, fc
    if best is None:
        raise ZeroValue("every candidate value vanished; nothing to factor")
    return WitnessRecord(
        x=ball.center,
        n=n,
        alpha=float(alpha),
        epsilon=eps,
        z=best,
        distance=best.distance_to(ball.center),
        factor_count=best_count,
        candidates=result.count,
        zero_values_skipped=zeros,
        elapsed_s=time.monotonic() - t0,
    )


@dataclass(frozen=True)
class CountingCell:
    center: FracMatrix
    n: int
    epsilon: Fraction
    T: int | None
    volume: int
    ratio: Fraction | None
    significant: bool
    skipped: str | None


@dataclass(frozen=True)
class CountingReport:
    rows: tuple[CountingCell, ...]
    spread: Fraction | None
    significant_cells: int
    count_threshold: int


# determinant-one targets with small dyadic entries, spread around the identity
BOUNDED_CENTERS: tuple[FracMatrix, ...] = (
    to_fraction_matrix(identity_matrix(2)),
    to_fraction_matrix(
        [[Fraction(33, 32), Fraction(1, 4)], [Fraction(1, 8), Fraction(1)]]
    ),
    to_fraction_matrix(
        [[Fraction(29, 32), Fraction(-3, 8)], [Fraction(1, 4), Fraction(1)]]
    ),
    to_fraction_matrix(
        [[Fraction(7, 8), Fraction(1, 2)], [Fraction(-1, 4), Fraction(1)]]
    ),
    to_fraction_matrix(
        [[Fraction(17, 16), Fraction(-1, 8)], [Fraction(-1, 2), Fraction(1)]]
    ),
)


def counting_verification(
    x_list: Sequence,
    n_list: Sequence[int],
    epsilon,
    count_threshold: int = 1000,
    config: Config = DEFAULT_CONFIG,
) -> CountingReport:
    """Point counts T and ratios T / ((2 eps)^3 m) over a matrix of cells.

    T comes from ``count_points``, so no point object is built.

    Every center of ``x_list`` is paired with every modulus of ``n_list``
    at the one radius ``epsilon``; rows come center by center.  Cells below
    ``count_threshold`` points, and cells whose enumeration exceeds the
    budget (reported with T = None and the reason in ``skipped``), stay in
    the table but are excluded from the spread; the spread is only reported
    when at least one significant cell exists.  The threshold must be at
    least 1, so that no significant ratio is 0 (ValueError otherwise).
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    if count_threshold < 1:
        raise ValueError(f"count threshold must be at least 1, got {count_threshold}")
    vols = {n: finite_volume(n) for n in n_list}
    rows = []
    ratios = []
    for x in x_list:
        for n in n_list:
            vol = vols[n]
            ball = BallSpec.make(x, eps, n)
            T = ratio = skipped = None
            significant = False
            try:
                T = count_points(ball, config)
            except SearchSpaceTooLarge as exc:
                skipped = str(exc)
            else:
                ratio = Fraction(T) / ((2 * eps) ** 3 * vol)
                significant = T >= count_threshold
                if significant:
                    ratios.append(ratio)
            rows.append(
                CountingCell(
                    center=ball.center,
                    n=n,
                    epsilon=eps,
                    T=T,
                    volume=vol,
                    ratio=ratio,
                    significant=significant,
                    skipped=skipped,
                )
            )
    spread = (max(ratios) / min(ratios)) if ratios else None
    return CountingReport(
        rows=tuple(rows),
        spread=spread,
        significant_cells=len(ratios),
        count_threshold=count_threshold,
    )
