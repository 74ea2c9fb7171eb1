"""Congruence densities of polynomial zero sets, and the gcd obstruction.

The density at a square-free modulus q is

    rho(q) = q * #[zeros of f in the matrix group mod q] / #[group mod q]

computed by exhaustive enumeration.  For a modulus with several prime
factors the density is also the product of the single-prime values, which
is cheaper; the direct enumeration stays available so multiplicativity can
be confirmed rather than assumed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Iterable, Sequence

from .config import DEFAULT_CONFIG, Config
from .core import (
    FracMatrix,
    PolynomialFamily,
    mat_mul,
    n_coprime_part,
    prime_factorization,
    reduce,
)
from .errors import BudgetExceeded, MissingDensities, UnsupportedDimension

log = logging.getLogger(__name__)


def group_order_mod(q: int, n_dim: int = 2) -> int:
    """Order of the determinant-1 matrix group mod q."""
    if q == 1:
        return 1
    order = 1
    for p, a in prime_factorization(q).items():
        if n_dim == 2:
            base = p * (p * p - 1)
        elif n_dim == 3:
            base = p**3 * (p * p - 1) * (p**3 - 1)
        else:
            raise UnsupportedDimension(f"n_dim={n_dim}")
        order *= base * p ** ((n_dim * n_dim - 1) * (a - 1))
    return order


def iterate_group_mod(q: int, n_dim: int = 2):
    """Yield all determinant-1 matrices mod q as flat tuples.

    For 2x2 this solves a*d == 1 + b*c (mod q) for d instead of filtering a
    full scan, so the work is close to the group order itself.
    """
    if n_dim == 2:
        for a in range(q):
            g = math.gcd(a, q)
            step = q // g
            inv = pow(a // g, -1, step) if g < q else 0
            for b in range(q):
                for c in range(q):
                    r = (1 + b * c) % q
                    if r % g:
                        continue
                    if g == q:
                        for d in range(q):
                            yield (a, b, c, d)
                    else:
                        d0 = ((r // g) * inv) % step
                        for d in range(d0, q, step):
                            yield (a, b, c, d)
    elif n_dim == 3:
        for flat in iproduct(range(q), repeat=9):
            det = (
                flat[0] * (flat[4] * flat[8] - flat[5] * flat[7])
                - flat[1] * (flat[3] * flat[8] - flat[5] * flat[6])
                + flat[2] * (flat[3] * flat[7] - flat[4] * flat[6])
            )
            if det % q == 1 % q:
                yield flat
    else:
        raise UnsupportedDimension(f"n_dim={n_dim}")


def _is_squarefree(q: int) -> bool:
    return all(a == 1 for a in prime_factorization(q).values())


def _zero_count(family: PolynomialFamily, q: int, n_dim: int) -> int:
    count = 0
    for flat in iterate_group_mod(q, n_dim):
        prod = 1
        for poly in family.polys:
            prod = (prod * poly.eval_flat(flat)) % q
            if prod == 0:
                break
        if prod % q == 0:
            count += 1
    return count


def local_density(
    family: PolynomialFamily,
    q: int,
    n_dim: int = 2,
    method: str = "product",
    config: Config = DEFAULT_CONFIG,
) -> Fraction:
    """rho(q) for square-free q, exact.

    ``method`` is "product" (the product of the single-prime values) or
    "direct" (one enumeration of the full group mod q), its oracle.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if not _is_squarefree(q):
        raise ValueError(f"q = {q} is not square-free")
    if q == 1:
        return Fraction(1)
    if method not in ("direct", "product"):
        raise ValueError(f"unknown method {method!r}")
    primes = list(prime_factorization(q))
    if method == "product" and len(primes) > 1:
        out = Fraction(1)
        for p in primes:
            out *= local_density(family, p, n_dim, method="direct", config=config)
        return out
    order = group_order_mod(q, n_dim)
    if order > config.density_order_budget:
        raise BudgetExceeded(
            f"group mod {q} has order {order}, budget {config.density_order_budget}"
        )
    zeros = _zero_count(family, q, n_dim)
    return Fraction(q * zeros, order)


@dataclass(frozen=True)
class DensityFunction:
    """Precomputed density values, the handle sieve routines consume."""

    family: PolynomialFamily
    values: dict[int, Fraction]
    group_orders: dict[int, int]

    def has(self, q: int) -> bool:
        return q in self.values or q == 1

    def value(self, q: int) -> Fraction:
        if q == 1:
            return Fraction(1)
        try:
            return self.values[q]
        except KeyError:
            raise MissingDensities(q) from None


def density_table(
    family: PolynomialFamily,
    moduli: Iterable[int],
    n_dim: int = 2,
    config: Config = DEFAULT_CONFIG,
) -> DensityFunction:
    values: dict[int, Fraction] = {}
    orders: dict[int, int] = {}
    for q in moduli:
        values[q] = local_density(family, q, n_dim, config=config)
        orders[q] = group_order_mod(q, n_dim)
    return DensityFunction(family=family, values=values, group_orders=orders)


# ---------------------------------------------------------------------------
# square-root cancellation report


@dataclass(frozen=True)
class LangWeilRow:
    p: int
    rho: Fraction
    deviation_scaled: float  # sqrt(p) * |rho(p) - t|


@dataclass(frozen=True)
class LangWeilReport:
    rows: tuple[LangWeilRow, ...]
    t: int
    threshold: float
    flagged: tuple[int, ...]


def lang_weil_report(
    family: PolynomialFamily,
    primes: Sequence[int],
    n_dim: int = 2,
    threshold: float = 5.0,
    config: Config = DEFAULT_CONFIG,
) -> LangWeilReport:
    """Table of sqrt(p)-scaled deviations of rho(p) from the member count.

    Deviations staying bounded is the expected square-root cancellation;
    primes whose deviation exceeds ``threshold`` are flagged for review,
    nothing is asserted here.
    """
    t = family.t
    rows = []
    flagged = []
    for p in primes:
        rho = local_density(family, p, n_dim, method="direct", config=config)
        dev = math.sqrt(p) * abs(float(rho) - t)
        rows.append(LangWeilRow(p=p, rho=rho, deviation_scaled=dev))
        if dev > threshold:
            flagged.append(p)
    return LangWeilReport(
        rows=tuple(rows), t=t, threshold=threshold, flagged=tuple(flagged)
    )


# ---------------------------------------------------------------------------
# gcd obstruction via word enumeration


@dataclass(frozen=True)
class GcdCertificate:
    family: PolynomialFamily
    n: int
    delta: int
    delta_factor_count: int
    sample_size: int
    zero_skips: int
    window: int
    certified: bool


def group_words(n: int, n_dim: int = 2):
    """Deterministic breadth-first enumeration of the denominator-n group.

    Generators are the elementary matrices with a single off-diagonal entry
    from {1, -1, 1/n, -1/n}.  Yields each element once, identity first, as a
    matrix of Fractions.
    """
    gens = []
    vals = [Fraction(1), Fraction(-1)]
    if n > 1:
        vals += [Fraction(1, n), Fraction(-1, n)]
    for i in range(n_dim):
        for j in range(n_dim):
            if i == j:
                continue
            for x in vals:
                g = [[Fraction(int(r == c)) for c in range(n_dim)] for r in range(n_dim)]
                g[i][j] = x
                gens.append(tuple(tuple(row) for row in g))
    start: FracMatrix = tuple(
        tuple(Fraction(int(r == c)) for c in range(n_dim)) for r in range(n_dim)
    )
    seen = {start}
    frontier = [start]
    yield start
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(g, m)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    yield prod
        frontier = nxt


def delta_n(
    family: PolynomialFamily,
    n: int,
    n_dim: int = 2,
    config: Config = DEFAULT_CONFIG,
) -> GcdCertificate:
    """Stabilized gcd of the n-coprime parts of f over group words.

    At most ``config.word_budget`` words are sampled; the scan stops once
    the gcd has not changed over ``config.gcd_window`` samples, or has
    reached 1.  Each word gamma = u/v is evaluated on its numerator, the
    integer v^deg * f(gamma), which has the coprime part of f(gamma).  The
    value divides every such coprime part by construction; the window is a
    heuristic stopping rule, so the certificate only claims "no change over
    the last `window` samples", not a proof of minimality.  A scan that
    runs out of budget first is logged and returned with ``certified``
    False.  Zero values of f are skipped and counted.
    """
    budget = config.word_budget
    window = config.gcd_window
    if budget < 100:
        raise ValueError("word budget below 100 is not meaningful")
    g = 0
    stable = 0
    samples = 0
    zeros = 0
    for gamma in group_words(n, n_dim):
        if samples >= budget:
            break
        samples += 1
        w = math.prod(family.values(reduce(gamma)))
        if w == 0:
            zeros += 1
            continue
        part = n_coprime_part(w, n)
        new_g = math.gcd(g, part)
        stable = stable + 1 if new_g == g else 0
        g = new_g
        if g == 1:
            stable = window  # cannot shrink further
        if stable >= window:
            break
    certified = stable >= window or g == 1
    if not certified:
        log.warning(
            "delta_n(%s): gcd %d not stabilized after %d samples", n, g, samples
        )
    fac = prime_factorization(g) if g > 1 else {}
    return GcdCertificate(
        family=family,
        n=n,
        delta=g,
        delta_factor_count=sum(fac.values()),
        sample_size=samples,
        zero_skips=zeros,
        window=window,
        certified=certified,
    )
