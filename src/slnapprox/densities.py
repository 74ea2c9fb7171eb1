"""Congruence densities of polynomial zero sets, and the gcd obstruction.

The density at a square-free modulus q is

    rho(q) = q * #[zeros of f in the matrix group mod q] / #[group mod q]

and it is multiplicative in q.  ``density_table`` finds the zero count
once for each distinct prime p of its moduli and multiplies; the direct
scan of the group mod a composite q stays available as the oracle of that
product rule.  For a one-member 2x2 family of degree at most 1 the count
at an odd p is a closed form in the coefficients mod p (a Legendre symbol
at most); every other family, and p = 2, is counted by a scan of the
group, which stays the oracle of the closed form.  The density budget
charges each prime its group order p**3 - p either way.  A scan
generates the group mod q in int64 blocks of columns (the 2x2
determinant equation is solved for d on whole arrays) and evaluates the
family on each block with reductions mod q.  The gcd obstruction
``delta_n`` is exact, decided by such scans mod prime powers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .core import (
    FracMatrix,
    PolynomialFamily,
    check_int64_modulus,
    mat_mul,
    n_coprime_part,
    prime_factorization,
    reduce,
    trial_division,
)
from .errors import BudgetExceeded, MissingDensities, UnsupportedDimension, ZeroValue

# bound on the group elements in one block of ``iterate_group_mod``
_BLOCK_ELEMENTS = 1 << 20


def _prime_power_order(p: int, a: int, n_dim: int) -> int:
    """Order of the determinant-1 matrix group mod p**a, p prime, a >= 1."""
    if n_dim == 2:
        base = p * (p * p - 1)
    elif n_dim == 3:
        base = p**3 * (p * p - 1) * (p**3 - 1)
    else:
        raise UnsupportedDimension(f"n_dim={n_dim}")
    return base * p ** ((n_dim * n_dim - 1) * (a - 1))


def group_order_mod(q: int, n_dim: int = 2) -> int:
    """Order of the determinant-1 matrix group mod q."""
    return math.prod(
        _prime_power_order(p, a, n_dim) for p, a in prime_factorization(q).items()
    )


def iterate_group_mod(q: int, n_dim: int = 2):
    """Yield the determinant-1 matrices mod q in blocks of columns.

    Each block is an int64 array of shape (n_dim**2, m) whose row i holds
    entry i (row major) of m group elements, with m at most about
    ``_BLOCK_ELEMENTS``.  For 2x2 the equation a*d == 1 + b*c (mod q) is
    solved for d on whole arrays of (b, c), through gcd(a, q) when q is
    composite; for 3x3 the entries below each first row are filtered by
    det == 1 (mod q).  q must be below 2**31 (ValueError otherwise).
    """
    check_int64_modulus(q)
    if n_dim == 2:
        yield from _sl2_blocks(q)
    elif n_dim == 3:
        yield from _sl3_blocks(q)
    else:
        raise UnsupportedDimension(f"n_dim={n_dim}")


def _sl2_blocks(q: int):
    # a*d == r (mod q) with r = 1 + b*c is solvable iff g = gcd(a, q) divides
    # r, and then d runs over d0 + k*(q/g), k < g, with d0 = (r/g)*(a/g)^-1
    a_all = np.arange(q, dtype=np.int64)
    g_all = np.gcd(a_all, q)
    step_all = q // g_all
    inv_all = np.array(
        [pow(a // g, -1, q // g) for a, g in zip(range(q), g_all.tolist())],
        dtype=np.int64,
    )
    c = np.arange(q, dtype=np.int64)
    # each (a, b) row has at most q solutions (c, d): q/g values of c, g of d
    rows = max(1, _BLOCK_ELEMENTS // q)
    for start in range(0, q * q, rows):
        a, b = np.divmod(np.arange(start, min(start + rows, q * q), dtype=np.int64), q)
        r = (1 + b[:, None] * c) % q
        hit_row, hit_c = np.nonzero(r % g_all[a][:, None] == 0)
        if not len(hit_row):
            continue
        a_hit = a[hit_row]
        g = g_all[a_hit]
        d0 = (r[hit_row, hit_c] // g * inv_all[a_hit]) % step_all[a_hit]
        # expand each solution (a, b, c, d0) into its g values of d
        pick = np.repeat(np.arange(len(g)), g)
        k = np.arange(len(pick)) - np.repeat(np.cumsum(g) - g, g)
        yield np.stack(
            (a_hit[pick], b[hit_row][pick], hit_c[pick], d0[pick] + step_all[a_hit][pick] * k)
        )


def _sl3_blocks(q: int):
    # det = r1 . (r2 x r3): the cofactors of (r2, r3) pairs are computed once
    # per chunk of second rows and reused for every first row
    one = 1 % q
    rows = np.indices((q, q, q), dtype=np.int64).reshape(3, -1)
    chunk = max(1, _BLOCK_ELEMENTS // q**3)
    for start in range(0, q**3, chunk):
        r2 = np.repeat(rows[:, start:start + chunk], q**3, axis=1)
        r3 = np.tile(rows, min(chunk, q**3 - start))
        cof = (
            (r2[1] * r3[2] - r2[2] * r3[1]) % q,
            (r2[2] * r3[0] - r2[0] * r3[2]) % q,
            (r2[0] * r3[1] - r2[1] * r3[0]) % q,
        )
        lower = np.concatenate((r2, r3))
        for r1 in rows.T.tolist():
            det = ((r1[0] * cof[0] + r1[1] * cof[1]) % q + r1[2] * cof[2]) % q
            hit = np.flatnonzero(det == one)
            if len(hit):
                first = np.repeat(np.array(r1, dtype=np.int64)[:, None], len(hit), axis=1)
                yield np.concatenate((first, lower[:, hit]))


def _trial_limit(config: Config) -> int:
    """The least L >= 1 with L**3 >= the density budget, in exact integers
    (a float cube root overflows on a huge budget): Newton's method from
    2**ceil(bits / 3), which is above the cube root, gives its floor."""
    budget = max(config.density_order_budget, 1)
    root = 1 << -(-budget.bit_length() // 3)
    while (step := (2 * root + budget // root**2) // 3) < root:
        root = step
    return root if root**3 >= budget else root + 1


def _factor_within_budget(q: int, config: Config) -> dict[int, int]:
    """The factorization of the positive q by trial division up to L with
    L**3 >= the density budget.  A prime p > L has p*(p*p - 1) > L**3, so a
    rest left unfinished is over budget (BudgetExceeded), not factored."""
    limit = _trial_limit(config)
    factors, rest, done = trial_division(q, limit)
    if not done:
        raise BudgetExceeded(
            f"{q} has a prime factor above {limit}: the group mod it has more "
            f"than {config.density_order_budget} elements"
        )
    if rest > 1:
        factors[rest] = factors.get(rest, 0) + 1
    return factors


def _squarefree_primes(q: int, config: Config) -> list[int]:
    """The primes of a square-free positive q; ValueError for any other q."""
    if q < 1:
        raise ValueError("q must be positive")
    fac = _factor_within_budget(q, config)
    if any(a > 1 for a in fac.values()):
        raise ValueError(f"q = {q} is not square-free")
    return list(fac)


def _check_scan_budget(elements: int, what: str, config: Config) -> None:
    if elements > config.density_order_budget:
        raise BudgetExceeded(
            f"{what} has {elements} elements, budget {config.density_order_budget}"
        )


def check_density_budget(
    primes: Iterable[int], n_dim: int = 2, config: Config = DEFAULT_CONFIG
) -> None:
    """BudgetExceeded when the group scans mod ``primes`` pass the budget.

    The scans visit the sum of the group orders mod each prime, checked
    against ``config.density_order_budget``.  The primes are read only
    until that sum passes the budget, so a lazy range of any length costs
    no more than the primes within budget, and nothing is factored.
    """
    total = 0
    for count, p in enumerate(primes, 1):
        total += _prime_power_order(p, 1, n_dim)
        if total > config.density_order_budget:
            raise BudgetExceeded(
                f"the density scan over {count} primes up to {p} already has "
                f"{total} elements, budget {config.density_order_budget}"
            )


def _affine_form(family: PolynomialFamily) -> tuple[int, int, int, int, int] | None:
    """(alpha, beta, gamma, delta, c0) of a one-member 2x2 family of degree
    at most 1, f = alpha*a + beta*b + gamma*c + delta*d + c0 on [[a, b], [c, d]];
    None for any other family."""
    if family.n_dim != 2 or family.t != 1 or family.polys[0].degree > 1:
        return None
    coeffs = [0] * 5  # the entries in row-major order, then the constant
    for exps, c in family.polys[0].monomials:
        coeffs[exps.index(1) if 1 in exps else 4] = c
    return tuple(coeffs)


def _affine_zero_count(form: tuple[int, int, int, int, int], p: int) -> int:
    """Zeros on SL2(F_p), p an odd prime, of f = tr(M g) + c0 with
    M = [[alpha, gamma], [beta, delta]].  M == 0: every element or none; rank
    1: g -> M g sweeps each nonzero column image p times, p(p - 1) zeros if
    p | c0, else p**2; rank 2: M g runs over the matrices of determinant
    D = det M, and those of trace -c0 number p**2 + p * chi(c0**2 - 4*D),
    chi the Legendre symbol with chi(0) = 0."""
    alpha, beta, gamma, delta, c0 = (x % p for x in form)
    det = (alpha * delta - beta * gamma) % p
    if not (alpha or beta or gamma or delta):
        return p**3 - p if c0 == 0 else 0
    if det == 0:
        return p * (p - 1) if c0 == 0 else p * p
    chi = pow(c0 * c0 - 4 * det, (p - 1) // 2, p)
    return p * p + p * (chi - p if chi > 1 else chi)


def _zero_count(family: PolynomialFamily, q: int) -> int:
    """Number of group elements mod q at which the product of the family is 0,
    by a scan of the group."""
    count = 0
    for block in iterate_group_mod(q, family.n_dim):
        prod = family.polys[0].eval_mod(block, q)
        for poly in family.polys[1:]:
            prod = prod * poly.eval_mod(block, q) % q
        count += int(np.count_nonzero(prod == 0))
    return count


def local_density(
    family: PolynomialFamily,
    q: int,
    *,
    method: str = "product",
    config: Config = DEFAULT_CONFIG,
) -> Fraction:
    """rho(q) for square-free q, exact.

    ``method`` is "product" (the product of the single-prime values, as
    ``density_table`` computes them) or "direct" (one scan of the full
    group mod q), its oracle.
    """
    _squarefree_primes(q, config)
    if q == 1:
        return Fraction(1)
    if method == "product":
        return density_table(family, [q], config=config).values[q]
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    order = group_order_mod(q, family.n_dim)
    _check_scan_budget(order, f"group mod {q}", config)
    return Fraction(q * _zero_count(family, q), order)


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
    *,
    config: Config = DEFAULT_CONFIG,
) -> DensityFunction:
    """rho(q) for each square-free q in ``moduli``.

    Each distinct prime of the moduli is counted once (``_affine_zero_count``
    where it applies, else a scan) and rho(q) is the product of its primes'
    values.  The total group order of those primes, what scans of them
    would visit, is checked against ``config.density_order_budget``
    before any count starts, by ``check_density_budget`` reading the new
    primes of each modulus in turn: ``moduli`` is read, and each modulus
    checked and factored, only while the total is within budget, so a lazy
    run of moduli of any length fails at the first one past it.
    """
    primes_of: dict[int, list[int]] = {}
    orders: dict[int, int] = {}

    def new_primes():
        for q in moduli:
            primes_of[q] = _squarefree_primes(q, config)
            for p in primes_of[q]:
                if p not in orders:
                    orders[p] = _prime_power_order(p, 1, family.n_dim)
                    yield p

    check_density_budget(new_primes(), family.n_dim, config)
    form = _affine_form(family)
    rho = {}
    for p in orders:
        zeros = _zero_count(family, p) if form is None or p == 2 else _affine_zero_count(form, p)
        rho[p] = Fraction(p * zeros, orders[p])
    return DensityFunction(
        family=family,
        values={
            q: math.prod((rho[p] for p in ps), start=Fraction(1))
            for q, ps in primes_of.items()
        },
        group_orders={q: math.prod(orders[p] for p in ps) for q, ps in primes_of.items()},
    )


# ---------------------------------------------------------------------------
# square-root cancellation report


@dataclass(frozen=True)
class LangWeilRow:
    p: int
    rho: Fraction
    deviation_scaled: float  # sqrt(p) * |rho(p) - t|


# deviations past this are flagged for review
LANG_WEIL_THRESHOLD = 5.0


@dataclass(frozen=True)
class LangWeilReport:
    rows: tuple[LangWeilRow, ...]
    t: int
    flagged: tuple[int, ...]


def lang_weil_report(
    family: PolynomialFamily,
    primes: Sequence[int],
    *,
    config: Config = DEFAULT_CONFIG,
) -> LangWeilReport:
    """Table of sqrt(p)-scaled deviations of rho(p) from the member count.

    Deviations staying bounded is the expected square-root cancellation;
    primes whose deviation exceeds ``LANG_WEIL_THRESHOLD`` are flagged for
    review, nothing is asserted here.
    """
    t = family.t
    rows = []
    flagged = []
    for p in primes:
        rho = local_density(family, p, method="direct", config=config)
        dev = math.sqrt(p) * abs(float(rho) - t)
        rows.append(LangWeilRow(p=p, rho=rho, deviation_scaled=dev))
        if dev > LANG_WEIL_THRESHOLD:
            flagged.append(p)
    return LangWeilReport(rows=tuple(rows), t=t, flagged=tuple(flagged))


# ---------------------------------------------------------------------------
# gcd obstruction by strong approximation


@dataclass(frozen=True)
class GcdCertificate:
    family: PolynomialFamily
    n: int
    delta: int
    delta_factor_count: int
    sample_size: int
    zero_skips: int


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
    *,
    config: Config = DEFAULT_CONFIG,
) -> GcdCertificate:
    """The largest integer prime to n dividing every nonzero value of the
    product f of the family on the denominator-n group, exact.

    For p prime to n the group maps onto the group mod p**e (strong
    approximation), so p**e divides every value iff f is 0 on the group mod
    p**e.  The answer divides g, the gcd of the n-coprime parts of the
    values v^deg * f(u/v) on group words, which are walked until g is 1, a
    nonzero value leaves g unchanged while it has no prime too large to
    scan, or ``config.word_budget`` words are spent (ZeroValue if none is
    nonzero).  For each p**a exactly dividing g the group mod p, p**2, ...,
    p**a is scanned while f vanishes on it; each scan, and the factoring of
    g, is held to the density budget.
    """
    if config.word_budget < 100:
        raise ValueError("word budget below 100 is not meaningful")
    g = samples = zeros = 0
    limit = _trial_limit(config)
    for gamma in itertools.islice(group_words(n, family.n_dim), config.word_budget):
        samples += 1
        w = math.prod(family.values(reduce(gamma)))
        if w == 0:
            zeros += 1
            continue
        g, old = math.gcd(g, n_coprime_part(w, n)), g
        # walk on while g has a prime too large to scan: delta may lack it
        if g == 1 or g == old and trial_division(g, limit)[1] <= limit:
            break
    if g == 0:
        raise ZeroValue(f"the family vanishes on the first {samples} group words")
    delta, count = 1, 0
    for p, a in _factor_within_budget(g, config).items():
        for e in range(1, a + 1):
            order = _prime_power_order(p, e, family.n_dim)
            _check_scan_budget(order, f"group mod {p**e}", config)
            if _zero_count(family, p**e) < order:
                break
            delta *= p
            count += 1
    return GcdCertificate(
        family=family, n=n, delta=delta, delta_factor_count=count,
        sample_size=samples, zero_skips=zeros,
    )
