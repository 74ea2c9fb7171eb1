"""Finite-place ball volumes for the 2x2 group, with counting oracles.

Normalization: the compact group of p-adically integral points has measure 1.
The shell of p-adic norm p**ell is a disjoint union of translates of that
compact group, one per class of primitive integer matrices of determinant
p**(2*ell) under left unimodular action.  Classes are parametrized by their
Hermite normal forms [[a, b], [0, d]] with a*d = p**(2*ell), 0 <= b < d and
gcd(a, b, d) = 1, so the volume equals that count.  The closed form
(p+1) * p**(2*ell - 1) is always checked against the count at small sizes,
never trusted alone.

The spherical decay value Xi(p, ell) is likewise a closed form, the
spherical function of the (p+1)-regular tree, checked at small sizes
against a brute-force average over residues mod p**(2*ell).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .core import complete_factorization, primes_below, trial_division


@lru_cache(maxsize=256)
def _require_prime(p: int) -> None:
    # bounded trial division rejects any p with a small factor, and only a p
    # it leaves undecided meets a primality test: p is never factored, nor
    # trial-divided to its square root; a prime is decided once per process
    factors, _, done = trial_division(p, DEFAULT_CONFIG.factor_trial_limit)
    if not (factors or done):
        import sympy

        done = sympy.isprime(p)
    if p < 2 or factors or not done:
        raise ValueError(f"p must be a prime, got {p}")


@lru_cache(maxsize=None)
def hnf_coset_oracle(p: int, ell: int) -> int:
    """Count primitive Hermite classes [[a, b], [0, d]] of determinant p**(2*ell).

    Literal enumeration over divisor splits a = p**i, d = p**(2*ell-i) and
    residues 0 <= b < d with gcd(a, b, d) = 1.  For huge d the b loop is
    replaced by the equivalent count of residues not divisible by p; the
    closed-form volume expression is never consulted.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if ell == 0:
        return 1
    total = 0
    for i in range(2 * ell + 1):
        a = p**i
        d = p ** (2 * ell - i)
        if i == 0 or i == 2 * ell:
            # gcd(a, b, d) = 1 automatically: one of a, d is 1
            total += d
        elif d <= 10**5:
            for b in range(d):
                if math.gcd(a, b, d) == 1:
                    total += 1
        else:
            # primitive iff p does not divide b
            total += d - d // p
    return total


def hnf_representatives(p: int, ell: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """The primitive Hermite matrices themselves, yielded in (a, b, d) scan order."""
    for i in range(2 * ell + 1):
        a = p**i
        d = p ** (2 * ell - i)
        for b in range(d):
            if math.gcd(a, b, d) == 1:
                yield ((a, b), (0, d))


@lru_cache(maxsize=None)
def _local_volume_checked(p: int, ell: int, crosscheck_limit: int) -> int:
    # primality is checked here, under the cache, so each (p, ell) pair's
    # prime is factored once
    _require_prime(p)
    closed = 1 if ell == 0 else (p + 1) * p ** (2 * ell - 1)
    if p ** (2 * ell) <= crosscheck_limit:
        counted = hnf_coset_oracle(p, ell)
        if counted != closed:
            raise AssertionError(
                f"volume mismatch at (p={p}, ell={ell}): closed {closed}, count {counted}"
            )
    return closed


def local_ball_volume(p: int, ell: int, *, config: Config = DEFAULT_CONFIG) -> int:
    """Volume of the norm-p**ell shell: (p+1) * p**(2*ell-1), 1 at ell = 0.

    p must be a prime (ValueError otherwise).  Cross-checked against the
    Hermite count whenever p**(2*ell) is within the configured crosscheck
    limit.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return _local_volume_checked(p, ell, config.volume_crosscheck_limit)


def finite_volume(n: int, *, config: Config = DEFAULT_CONFIG) -> int:
    """n * psi(n) = n**2 * prod over p | n of (1 + 1/p), the product of the
    local shell volumes; n is factored by ``complete_factorization``, which
    raises BudgetExceeded past its budget."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    vol = n * n
    for p in complete_factorization(n, config):
        vol = vol // p * (p + 1)
    return vol


# ---------------------------------------------------------------------------
# growth of finite volumes


class VolumeSamples(Sequence):
    """The samples (n, finite_volume(n)), n = 1, 2, ..., read off one
    read-only int64 array of the volumes; a pair of Python ints is built
    only when it is asked for.  Equal to another such sequence, or to the
    tuple of the same pairs."""

    __slots__ = ("volumes",)

    def __init__(self, volumes: np.ndarray):
        volumes = volumes.view()
        volumes.flags.writeable = False
        self.volumes = volumes

    def __len__(self) -> int:
        return len(self.volumes)

    def __getitem__(self, i):
        ns = range(1, len(self.volumes) + 1)[i]
        if isinstance(i, slice):
            return list(zip(ns, self.volumes[i].tolist()))
        return ns, int(self.volumes[ns - 1])

    def __iter__(self):
        return zip(itertools.count(1), self.volumes.tolist())

    def __eq__(self, other):
        if isinstance(other, VolumeSamples):
            return np.array_equal(self.volumes, other.volumes)
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        # equal to the tuple of its pairs, so hashed as that tuple
        return hash(tuple(self))


@dataclass(frozen=True)
class GrowthEstimate:
    samples: VolumeSamples
    fitted_exponent: float | None
    window: tuple[int, int]
    degenerate: bool


def growth_exponent(n_max: int) -> GrowthEstimate:
    """Least-squares slope of log volume against log n over 1 <= n <= n_max.

    The volumes come from a prime sieve on an int64 array: finite_volume(n)
    is n * psi(n) = n**2 * prod over p | n of (1 + 1/p), with psi the
    Dedekind psi function.  Each prime p <= sqrt(n_max) updates its
    multiples in one strided pass.  An n <= n_max has at most one prime
    factor p above sqrt(n_max), and then n = k*p with k < sqrt(n_max), so
    those primes are applied in one indexed update per multiplier k.  The
    samples are a ``VolumeSamples`` over that array.  The n = 1 sample is
    recorded but excluded from the fit, and fewer than two usable samples
    yields a degenerate estimate with no fitted slope.  An n_max whose
    volumes could pass 2**62 raises ValueError.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    # n * psi(n) <= n * sigma(n) < n**2 * (1 + ln n), and ln n < bit_length;
    # the sieve's partial products never exceed the final volume
    if n_max * n_max * (1 + n_max.bit_length()) >= 2**62:
        raise ValueError(f"n_max = {n_max} is too large for int64 volumes")
    n = np.arange(n_max + 1, dtype=np.int64)
    vol = n * n
    root = math.isqrt(n_max)
    primes = np.fromiter(primes_below(n_max + 1), dtype=np.int64)
    split = np.searchsorted(primes, root, side="right")
    for p in primes[:split].tolist():
        vol[p::p] = vol[p::p] // p * (p + 1)
    large = primes[split:]
    for k in range(1, root + 1):
        p = large[: np.searchsorted(large, n_max // k, side="right")]
        multiples = k * p
        vol[multiples] = vol[multiples] // p * (p + 1)
    samples = VolumeSamples(vol[1:])
    if n_max < 3:
        return GrowthEstimate(
            samples=samples,
            fitted_exponent=None,
            window=(1, n_max),
            degenerate=True,
        )
    x = np.log(n[2:])
    y = np.log(vol[2:])
    x -= x.mean()
    return GrowthEstimate(
        samples=samples,
        fitted_exponent=float(np.dot(x, y - y.mean()) / np.dot(x, x)),
        window=(1, n_max),
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# spherical decay integrand


def _valuation_capped(c: int, p: int, cap: int) -> int:
    """p-adic valuation of c as a residue mod p**cap; cap means 'at least cap'."""
    if c % p**cap == 0:
        return cap
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def _xi_column_sum(p: int, ell: int) -> Fraction:
    """Average the Iwasawa height over primitive first columns mod p**(2*ell).

    A compact-group element contributes through its first column only: the
    upper-triangular part of diag(p**ell, p**-ell) * u has corner entry a
    with |a|_p = max norm of the column (p**ell * u11, p**-ell * u21), so the
    integrand is p ** min(ell + val(u11), val(u21) - ell).  The average over
    the group at a principal congruence level equals the average over
    primitive columns because the group permutes them transitively with
    fibers of equal size.  Brute force over all p**(4*ell) residue pairs,
    kept as the oracle of the closed form.
    """
    level_exp = 2 * ell
    # A capped valuation never changes the min at this level: a column is
    # primitive, so a capped u11 (val >= 2*ell) forces val(u21) = 0 and the
    # min is -ell either way, and a capped u21 forces val(u11) = 0 and the
    # min is ell either way.
    vals = [_valuation_capped(c, p, level_exp) for c in range(p**level_exp)]
    tally: dict[int, int] = {}
    for a in vals:
        for b in vals:
            if a >= 1 and b >= 1:
                continue  # not primitive
            e = min(ell + a, b - ell)
            tally[e] = tally.get(e, 0) + 1
    total = sum(count * Fraction(p) ** e for e, count in tally.items())
    return total / sum(tally.values())


@lru_cache(maxsize=None)
def _xi_checked(p: int, ell: int, crosscheck_limit: int) -> Fraction:
    _require_prime(p)
    closed = Fraction(p + 1 + 2 * ell * (p - 1), (p + 1) * p**ell)
    if p ** (4 * ell) <= crosscheck_limit:
        summed = _xi_column_sum(p, ell)
        if summed != closed:
            raise AssertionError(
                f"Xi mismatch at (p={p}, ell={ell}): closed {closed}, column sum {summed}"
            )
    return closed


def harish_chandra_xi(p: int, ell: int, *, config: Config = DEFAULT_CONFIG) -> Fraction:
    """Exact spherical decay value at the diagonal element diag(p**ell, p**-ell).

    Integral over the compact group of the inverse square root of the Borel
    modulus of the upper-triangular Iwasawa component.  It is the spherical
    function of the (p+1)-regular tree at distance 2*ell,
    p**-ell * (1 + 2*ell*(p-1)/(p+1)) (Macdonald 1971; Figa-Talamanca and
    Nebbia 1991).  p must be a prime (ValueError otherwise).  Cross-checked
    against the column sum over residues mod p**(2*ell) whenever p**(4*ell)
    is within the configured crosscheck limit.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return _xi_checked(p, ell, config.volume_crosscheck_limit)
