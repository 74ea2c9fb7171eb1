"""Arithmetic of Z[1/n] values, sieve axiom checks, and the lower bound.

The value of a polynomial family on a point z = u/v is the integer
v^deg * f(z), which is f(z) times a unit of Z[1/n].  A nonzero integer w
splits as (unit of Z[1/n]) times a positive integer coprime to n, the
coprime part [w]_n.  Everything here works with that integer: factor
counting, r-prime tests, congruence counts against density data, and the
combinatorial lower bound

    S >= T * W(z) * (C1 - C2 * l * (loglog 3T)^(3t+2) / log T)

with W(z) the product of (1 - rho(p)/p) over sieving primes p <= z.  The
paper leaves the absolute constants C1 and C2 unspecified; the bound is
evaluated with C1 = C2 = 1.  ``sieve_densities`` alone decides which
densities rho(q) a sieve reads, and every sieve path checks n >= 1 and
delta >= 1 before it scans anything.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import densities
from .config import DEFAULT_CONFIG, Config
from .core import (
    PointRows,
    PolynomialFamily,
    RationalGroupPoint,
    factorize_full,
    frac_json,
    n_coprime_part,
    primes_below,
)
from .enumeration import EnumerationResult
from .errors import ZeroValue


def _check_n_delta(n: int, delta: int = 1) -> None:
    """ValueError unless the denominator n and the obstruction delta are
    both at least 1."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if delta < 1:
        raise ValueError(f"delta must be at least 1, got {delta}")


def sieving_primes(z: float, n: int, delta: int = 1) -> tuple[int, ...]:
    """Primes p <= z that are coprime to delta * n (ValueError unless
    n >= 1 and delta >= 1)."""
    _check_n_delta(n, delta)
    if z < 2:
        return ()
    excluded = delta * n
    return tuple(p for p in primes_below(int(z) + 1) if math.gcd(p, excluded) == 1)


@dataclass(frozen=True)
class SievedValue:
    """A value of f cleared to its n-coprime integer part, with factors.

    When factorization hit the bit budget, ``complete`` is False, the
    composite remainder sits in ``cofactor``, and ``factor_count`` is a
    certified lower bound (the cofactor contributes 2, the least a
    composite can).
    """

    raw: int
    n: int
    coprime_part: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int
    complete: bool

    @cached_property
    def factor_count(self) -> int:
        base = sum(a for _, a in self.factors)
        return base + (2 if self.cofactor > 1 else 0)


SIEVED_MEMO_SIZE = 4096


def coprime_part(w: int, n: int, config: Config = DEFAULT_CONFIG) -> SievedValue:
    """Split the integer w into a unit of Z[1/n] times [w]_n and factor [w]_n.

    Each distinct (w, n) is factored once per pair of factoring budgets
    (``factor_trial_limit``, ``factor_bit_budget``), the only fields of the
    config that the factorization reads: the result is kept between calls
    in a memo of at most ``SIEVED_MEMO_SIZE`` entries, the least recently
    used dropped first.  A factorization left incomplete under one budget
    is never returned under another.  The ``SievedValue`` is frozen, so
    callers may share it.
    """
    if w == 0:
        raise ZeroValue("coprime part of 0 is undefined")
    return _sieved(w, n, config.factor_trial_limit, config.factor_bit_budget)


@lru_cache(maxsize=SIEVED_MEMO_SIZE)
def _sieved(w: int, n: int, trial_limit: int, bit_budget: int) -> SievedValue:
    """``coprime_part`` of a nonzero w under the given factoring budgets."""
    m = n_coprime_part(w, n)
    budgets = Config(factor_trial_limit=trial_limit, factor_bit_budget=bit_budget)
    factors, cofactor, complete = factorize_full(m, budgets)
    return SievedValue(
        raw=w,
        n=n,
        coprime_part=m,
        factors=tuple(sorted(factors.items())),
        cofactor=cofactor,
        complete=complete,
    )


def is_r_prime(
    point: RationalGroupPoint,
    family: PolynomialFamily,
    n: int,
    r: int,
    config: Config = DEFAULT_CONFIG,
):
    """Whether f_1(z)...f_t(z) has at most r prime factors in Z[1/n].

    Returns True or False when decidable; None when factorization was
    incomplete and the certified lower bound does not already exceed r.
    The value factored is v**deg * f(z), f(z) times a unit of Z[1/n].
    """
    if point.n_dim != family.n_dim:
        raise ValueError(f"point of n_dim {point.n_dim}, family of n_dim {family.n_dim}")
    if n_coprime_part(point.v, n) != 1:
        raise ValueError(f"denominator {point.v} is not a unit of Z[1/{n}]")
    sv = coprime_part(math.prod(family.values(point)), n, config)
    if sv.complete:
        return sv.factor_count <= r
    if sv.factor_count > r:
        return False
    return None


def almost_prime_count(
    points,
    family: PolynomialFamily,
    n: int,
    z: float,
    delta: int = 1,
) -> int:
    """Count points whose value avoids every sieving prime p <= z.

    Sieving primes are those coprime to delta * n.  Points where the value
    vanishes are excluded.  The count is read off the value histogram.
    """
    primes = sieving_primes(z, n, delta)
    return _avoiding_count(value_histogram(points, family, n).items(), primes)


def _avoiding_count(a_k, primes: Sequence[int]) -> int:
    """Points of the histogram a_k with a nonzero value free of every prime."""
    return sum(cnt for k, cnt in a_k if k and all(k % p for p in primes))


def squarefree_moduli(q_max: int, excluded: int) -> list[int]:
    """Square-free q <= q_max whose prime factors are all coprime to excluded.

    The primes up to q_max strike one array: their squares strike the
    moduli that are not square-free, and the primes dividing ``excluded``
    strike their multiples.
    """
    if q_max < 1:
        return []
    keep = np.ones(q_max + 1, dtype=bool)
    keep[0] = False
    for p in primes_below(q_max + 1):
        if p * p <= q_max:
            keep[p * p :: p * p] = False
        if excluded % p == 0:
            keep[p::p] = False
    return np.flatnonzero(keep).tolist()


def _point_rows(points, n_dim: int) -> PointRows:
    """The rows of a ``PointRows``, of an enumeration result (its points, as
    they are) or of a sequence of points; ValueError for a point of another
    n_dim."""
    if isinstance(points, EnumerationResult):
        return points.points
    if isinstance(points, PointRows):
        return points
    for z in points:
        if z.n_dim != n_dim:
            raise ValueError(f"point of n_dim {z.n_dim}, family of n_dim {n_dim}")
    return PointRows.from_points(points, n_dim)


def value_histogram(
    points, family: PolynomialFamily, n: int
) -> Counter:
    """a_k = number of points whose coprime part equals k; zeros land at 0.

    Every family member is evaluated by ``Polynomial.eval_flat`` on the
    columns of the point rows at once.  The columns are int64 while
    prod_i (sum |c| * B**deg f_i) < 2**63 for B = max |entry, v|, which
    bounds the product of the values, and Python ints beyond.  The primes
    of n (n >= 1) are stripped by ``n_coprime_part`` once per distinct value.
    """
    rows = _point_rows(points, family.n_dim)
    if not len(rows):
        return Counter()
    if rows.n_dim != family.n_dim:
        raise ValueError(f"point of n_dim {rows.n_dim}, family of n_dim {family.n_dim}")
    arr = rows.rows
    b = max(-int(arr.min()), int(arr.max()))
    bound = math.prod(
        sum(abs(c) for _, c in p.monomials) * b**p.degree for p in family.polys
    )
    cols = arr.T if arr.dtype != object and bound < 2**63 else arr.T.astype(object)
    v = cols[-1]
    dens, row_den = np.unique(v, return_inverse=True)
    units = np.array([n_coprime_part(d, n) == 1 for d in dens.tolist()])
    off = np.flatnonzero(~units[row_den])
    if off.size:
        raise ValueError(f"denominator {v[off[0]]} is not a unit of Z[1/{n}]")
    values = math.prod(p.eval_flat(cols, v) for p in family.polys)
    a = Counter()
    for w, count in zip(*(x.tolist() for x in np.unique(values, return_counts=True))):
        a[n_coprime_part(w, n) if w else 0] += count
    return Counter(dict(sorted(a.items())))


@dataclass(frozen=True)
class AxiomReport:
    """Exact remainders and the two summatory checks on one point cell."""

    T: int
    t: int
    n: int
    delta: int
    z: float
    a_k: tuple[tuple[int, int], ...]
    zero_values: int
    remainders: tuple[tuple[int, Fraction], ...]
    a1_sum_abs: Fraction
    a1_zeta: float | None
    a2_rows: tuple[tuple[int, float], ...]
    a2_l: float
    a2_c3: float

    def remainder(self, q: int) -> Fraction:
        for qq, r in self.remainders:
            if qq == q:
                return r
        raise KeyError(q)


def axiom_report(
    points,
    family: PolynomialFamily,
    q_max: int,
    rho,
    n: int,
    delta: int = 1,
    z: float | None = None,
) -> AxiomReport:
    """Check the density axioms on an enumerated cell.

    For every square-free q <= q_max supported on primes coprime to
    delta * n, the exact remainder R_q = #{f = 0 mod q} - (rho(q)/q) T is
    computed from the value histogram.  The summary reports the fitted
    exponent zeta with sum |R_q| = T^(1 - zeta), and the partial-sum
    deviations sum_{w <= p < z} rho(p) log p / p - t log(z/w) bracketed as
    [-l, c3].  Each rho(p) is read once, and each tail of the prime sum is
    added up once, left to right.  ``rho`` must be the density table of
    ``family``, n >= 1 and delta >= 1 (ValueError otherwise).
    """
    if rho.family != family:
        raise ValueError("the density table is of another polynomial family")
    if z is None:
        z = float(q_max)
    # the sieving primes check n and delta before the cell is evaluated
    primes = [p for p in sieving_primes(z, n, delta) if p < z]
    cell = _point_rows(points, family.n_dim)
    T = len(cell)
    t = family.t
    a = value_histogram(cell, family, n)
    zeros = a.get(0, 0)
    moduli = squarefree_moduli(q_max, delta * n)
    remainders = []
    for q in moduli:
        direct = sum(cnt for k, cnt in a.items() if k % q == 0)
        r_q = Fraction(direct) - rho.value(q) / q * T
        remainders.append((q, r_q))
    sum_abs = sum((abs(r) for _, r in remainders), Fraction(0))
    if T > 1 and sum_abs > 0:
        zeta = 1.0 - math.log(float(sum_abs)) / math.log(T)
    else:
        zeta = None
    # deviations of the prime sum from t*log(z/w), over starting points w:
    # the sum over p >= w is the tail of the terms from the first such prime
    terms = [float(rho.value(p)) * math.log(p) / p for p in primes]
    tails = [sum(terms[k:]) for k in range(len(terms) + 1)]
    rows = [
        (w, tails[bisect_left(primes, w)] - t * math.log(z / w))
        for w in range(2, int(z) + 1)
    ]
    devs = [d for _, d in rows]
    a2_l = max(0.0, -min(devs)) if devs else 0.0
    a2_c3 = max(0.0, max(devs)) if devs else 0.0
    return AxiomReport(
        T=T,
        t=t,
        n=n,
        delta=delta,
        z=z,
        a_k=tuple(sorted(a.items())),
        zero_values=zeros,
        remainders=tuple(remainders),
        a1_sum_abs=sum_abs,
        a1_zeta=zeta,
        a2_rows=tuple(rows),
        a2_l=a2_l,
        a2_c3=a2_c3,
    )


@dataclass(frozen=True)
class SieveBound:
    value: float
    W_z: Fraction
    z: float
    T: int
    l: float
    primes_used: tuple[int, ...]
    vacuous: bool
    degenerate: bool


def sieve_level(
    T: int,
    t: int,
    tau: float,
    s: float,
    q_max: int | None = None,
) -> tuple[float, int]:
    """The sieve level z = T^(tau/s) and the largest remainder modulus.

    z is 1 on an empty cell; q_max defaults to max(1, floor(z)).  Raises
    ValueError unless T >= 0, 0 < tau < inf, s > 9t and q_max >= 1, or
    when z overflows.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not s > 9 * t:
        raise ValueError(f"need s > 9t, got s={s}, t={t}")
    if q_max is not None and q_max < 1:
        raise ValueError(f"q_max must be at least 1, got {q_max}")
    try:
        z = float(T) ** (tau / s) if T > 0 else 1.0
    except OverflowError:
        raise ValueError(f"sieve level {T}^({tau}/{s}) overflows") from None
    return z, max(1, int(z)) if q_max is None else q_max


def beta_sieve_lower_bound(
    T: int,
    rho,
    t: int,
    tau: float,
    s: float,
    l: float,
    *,
    z: float | None = None,
    n: int = 1,
    delta: int = 1,
) -> SieveBound:
    """Evaluate the combinatorial lower bound at level z = T^(tau/s).

    The constants are C1 = C2 = 1.  Without z the level comes from
    ``sieve_level``, which checks the arguments (s > 9t among them), and
    ``sieving_primes`` checks n and delta.  W(z) is computed exactly from
    the density handle; the result may be negative, in which case it is
    flagged vacuous.  T <= 1 degenerates to T * W (the log-power
    correction needs log T > 0).
    """
    if z is None:
        z, _ = sieve_level(T, t, tau, s)
    primes = sieving_primes(z, n, delta)
    W = Fraction(1)
    for p in primes:
        W *= 1 - rho.value(p) / p
    degenerate = T <= 1
    if degenerate:
        value = T * float(W)
    else:
        correction = l * math.log(math.log(3 * T)) ** (3 * t + 2) / math.log(T)
        value = T * float(W) * (1 - correction)
    return SieveBound(
        value=value,
        W_z=W,
        z=z,
        T=T,
        l=l,
        primes_used=primes,
        vacuous=value < 0,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class SieveReport:
    """Everything the sieve pipeline produced on one cell.

    The cell, its level and its remainders are read from ``axioms``, W(z)
    and the bound from ``bound``; each is held once.
    """

    tau: float
    s: float
    axioms: AxiomReport
    bound: SieveBound
    direct_count: int

    @property
    def lower_bound(self) -> float:
        return self.bound.value

    @property
    def vacuous(self) -> bool:
        return self.bound.vacuous

    @property
    def consistent(self) -> bool:
        """The bound is vacuous or at most the direct count."""
        return self.vacuous or self.lower_bound <= self.direct_count


def sieve_densities(
    family: PolynomialFamily,
    n: int,
    delta: int,
    z: float,
    q_max: int,
    config: Config = DEFAULT_CONFIG,
) -> densities.DensityFunction:
    """The density table a sieve at level z with remainders up to q_max reads.

    Those are rho(q) for the square-free q <= q_max prime to delta * n and
    for the sieving primes p <= z.  After n and delta are checked, the
    table reads the primes up to max(q_max, z) prime to delta * n first,
    from a lazy range, and the square-free moduli after them: so the
    density budget (BudgetExceeded) is met before any composite modulus is
    built.
    """
    _check_n_delta(n, delta)
    excluded = delta * n

    def moduli():
        yield from (p for p in primes_below(max(q_max, int(z)) + 1) if excluded % p)
        yield from squarefree_moduli(q_max, excluded)

    return densities.density_table(family, moduli(), config=config)


def run_sieve(
    points,
    family: PolynomialFamily,
    n: int,
    rho,
    tau: float,
    s: float,
    q_max: int | None = None,
    delta: int = 1,
) -> SieveReport:
    """Axiom check, lower bound, and direct count on one enumerated cell.

    The direct count is read off the axiom report's value histogram, over
    the lower bound's sieving primes, so every point is evaluated once.
    ``sieve_densities`` builds a ``rho`` that holds every density read.
    """
    cell = _point_rows(points, family.n_dim)
    T = len(cell)
    z, q_max = sieve_level(T, family.t, tau, s, q_max)
    axioms = axiom_report(cell, family, q_max, rho, n, delta=delta, z=z)
    bound = beta_sieve_lower_bound(
        T, rho, family.t, tau, s, axioms.a2_l, z=z, n=n, delta=delta
    )
    direct = _avoiding_count(axioms.a_k, bound.primes_used)
    return SieveReport(tau=tau, s=s, axioms=axioms, bound=bound, direct_count=direct)


def sieve_report_to_json_dict(report: SieveReport) -> dict:
    """JSON form with every exact rational as {num, den} decimal strings."""
    ax = report.axioms
    return {
        "T": ax.T,
        "t": ax.t,
        "n": ax.n,
        "delta": ax.delta,
        "tau": report.tau,
        "s": report.s,
        "z": ax.z,
        "W_z": frac_json(report.bound.W_z),
        "lower_bound": report.lower_bound,
        "direct_count": report.direct_count,
        "vacuous": report.vacuous,
        "consistent": report.consistent,
        "remainders": [
            {"q": q, "R": frac_json(r)} for q, r in ax.remainders
        ],
        "axioms": {
            "a_k": [{"k": str(k), "count": c} for k, c in ax.a_k],
            "zero_values": ax.zero_values,
            "a1_sum_abs": frac_json(ax.a1_sum_abs),
            "a1_zeta": ax.a1_zeta,
            "a2_l": ax.a2_l,
            "a2_c3": ax.a2_c3,
            "a2_rows": [{"w": w, "deviation": d} for w, d in ax.a2_rows],
        },
        "sieving_primes": list(report.bound.primes_used),
    }
