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
charges each prime its work: the group order for a scan, p for the closed
form.  A scan generates the
2x2 or 3x3 group mod q in int64 blocks of columns, one way for both: the
determinant is linear in the last row, so its last entry is solved from
det = 1 on whole arrays of the other entries; the family is evaluated
on each block with reductions mod q.  The gcd obstruction ``delta_n`` is
exact: the gcd of f on one finite grid of integer group points, with the
primes up to the degree of f decided by such scans mod prime powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .core import (
    PolynomialFamily,
    check_int64_modulus,
    mat_det,
    n_coprime_part,
    prime_factorization,
    primes_below,
    trial_division,
)
from .errors import BudgetExceeded, MissingDensities, UnsupportedDimension, ZeroValue

# bound on the group elements in one block of ``iterate_group_mod`` and on
# the grid points in one block of ``delta_n``: each holds its entries and
# the members' temporaries.  On a 5.8M-point 3x3 grid blocks of 2**16
# peaked at 75 MB against 520 MB for 2**20, and ran faster; the scan of
# SL_3(Z/8) peaked at 48 MB against 273 MB
_BLOCK = 1 << 16


def _prime_power_order(p: int, a: int, n_dim: int) -> int:
    """Order of the determinant-1 matrix group mod p**a, p prime, a >= 1:
    p**((n*n - 1)*(a - 1)) * p**(n*(n - 1)/2) * prod_{k=2..n} (p**k - 1)."""
    if n_dim not in (2, 3):
        raise UnsupportedDimension(f"n_dim={n_dim}")
    order = p ** ((n_dim * n_dim - 1) * (a - 1) + n_dim * (n_dim - 1) // 2)
    return order * math.prod(p**k - 1 for k in range(2, n_dim + 1))


def group_order_mod(q: int, n_dim: int = 2) -> int:
    """Order of the determinant-1 matrix group mod q."""
    return math.prod(
        _prime_power_order(p, a, n_dim) for p, a in prime_factorization(q).items()
    )


def iterate_group_mod(q: int, n_dim: int = 2):
    """Yield the determinant-1 matrices mod q in blocks of columns.

    Each block is an int64 array of shape (n_dim**2, m) whose row i holds
    entry i (row major) of m group elements, with m at most about
    ``_BLOCK``.  The determinant is w . x, x the last row and w the
    cofactors of the rows above, so for each choice of the rows above and
    of x but its last entry, w_n * x_n == 1 - (the rest of w . x) (mod q) is
    solved for x_n on whole arrays, through g = gcd(w_n, q).  q must be
    below 2**31, and for 3x3 its q**6 choices of the rows above must index
    in int64 (ValueError otherwise).
    """
    check_int64_modulus(q)
    if n_dim not in (2, 3):
        raise UnsupportedDimension(f"n_dim={n_dim}")
    above = n_dim * (n_dim - 1)
    if q**above >= 2**63:
        raise ValueError(f"modulus {q}: the {q}**{above} upper rows overflow int64")
    # w_n * x_n == r (mod q) is solvable iff g = gcd(w_n, q) divides r, and
    # then x_n runs over x0 + k*(q/g), k < g, with x0 = (r/g)*(w_n/g)^-1
    g_all = np.gcd(np.arange(q, dtype=np.int64), q)
    step_all = q // g_all
    inv_all = np.array(
        [pow(w // g, -1, q // g) for w, g in zip(range(q), g_all.tolist())],
        dtype=np.int64,
    )
    heads = np.array(np.unravel_index(np.arange(q ** (n_dim - 1)), (q,) * (n_dim - 1)))
    # the rows above admit at most q**(n_dim - 1) last rows each
    chunk = max(1, _BLOCK // q ** (n_dim - 1))
    for start in range(0, q**above, chunk):
        upper = np.array(
            np.unravel_index(np.arange(start, min(start + chunk, q**above)), (q,) * above)
        )
        rows = upper.reshape(n_dim - 1, n_dim, -1)
        w = [(-1) ** (n_dim - 1 + j) * mat_det(np.delete(rows, j, axis=1)) % q
             for j in range(n_dim)]
        r = 1
        for j in range(n_dim - 1):
            r = (r - w[j][:, None] * heads[j]) % q
        hit_row, hit_head = np.nonzero(r % g_all[w[-1]][:, None] == 0)
        if not len(hit_row):
            continue
        w_hit = w[-1][hit_row]
        g = g_all[w_hit]
        x0 = (r[hit_row, hit_head] // g * inv_all[w_hit]) % step_all[w_hit]
        # expand each solution into its g values of x_n
        pick = np.repeat(np.arange(len(g)), g)
        k = np.arange(len(pick)) - np.repeat(np.cumsum(g) - g, g)
        hit_row, hit_head = hit_row[pick], hit_head[pick]
        yield np.stack((
            *(entry[hit_row] for entry in upper),
            *(entry[hit_head] for entry in heads),
            x0[pick] + step_all[w_hit][pick] * k,
        ))


def _trial_limit(config: Config) -> int:
    """The least L >= 1 with L**3 >= the density budget, in exact integers
    (a float cube root overflows on a huge budget): Newton's method from
    2**ceil(bits / 3), which is above the cube root, gives its floor."""
    budget = max(config.density_order_budget, 1)
    root = 1 << -(-budget.bit_length() // 3)
    while (step := (2 * root + budget // root**2) // 3) < root:
        root = step
    return root if root**3 >= budget else root + 1


def _squarefree_primes(q: int, config: Config) -> list[int]:
    """The primes of a square-free positive q, by trial division up to L with
    L**3 >= the density budget; ValueError for any other q.  A prime p > L
    has p*(p*p - 1) > L**3, so a rest left unfinished is over budget
    (BudgetExceeded), not factored."""
    if q < 1:
        raise ValueError("q must be positive")
    limit = _trial_limit(config)
    factors, rest, done = trial_division(q, limit)
    if not done:
        raise BudgetExceeded(
            f"{q} has a prime factor above {limit}: the group mod it has more "
            f"than {config.density_order_budget} elements"
        )
    if any(a > 1 for a in factors.values()):
        raise ValueError(f"q = {q} is not square-free")
    # a prime rest was never a trial divisor, so it is new
    return [*factors, rest] if rest > 1 else list(factors)


def _check_scan_budget(elements: int, what: str, config: Config) -> None:
    if elements > config.density_order_budget:
        raise BudgetExceeded(
            f"{what} has {elements} elements, budget {config.density_order_budget}"
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
    primes = _squarefree_primes(q, config)
    if q == 1:
        return Fraction(1)
    if method == "product":
        return density_table(family, [q], config=config).values[q]
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    order = math.prod(_prime_power_order(p, 1, family.n_dim) for p in primes)
    _check_scan_budget(order, f"group mod {q}", config)
    return Fraction(q * _zero_count(family, q), order)


@dataclass(frozen=True)
class DensityFunction:
    """Precomputed density values, the handle sieve routines consume."""

    family: PolynomialFamily
    values: dict[int, Fraction]
    group_orders: dict[int, int]

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
    values.  Before any count starts, the work of those primes is held to
    ``config.density_order_budget`` (BudgetExceeded) as each new prime is
    met: a scanned prime costs its group order, the elements the scan
    visits, and a closed-form prime costs p, a floor that stops a run of
    them too.  ``moduli`` is read, and each modulus checked and factored,
    only while the total is within budget, so a lazy run of moduli of any
    length fails at the first one past it.
    """
    form = _affine_form(family)
    primes_of: dict[int, list[int]] = {}
    orders: dict[int, int] = {}
    total = 0
    for q in moduli:
        primes_of[q] = _squarefree_primes(q, config)
        for p in primes_of[q]:
            if p in orders:
                continue
            orders[p] = _prime_power_order(p, 1, family.n_dim)
            total += orders[p] if form is None or p == 2 else p
            if total > config.density_order_budget:
                raise BudgetExceeded(
                    f"the density scan over {len(orders)} primes up to {p} already "
                    f"costs {total}, budget {config.density_order_budget}"
                )
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
    sample_size: int  # grid points evaluated


def _grid_factors(n_dim: int) -> list[tuple[int, int]]:
    """The (i, j) of gamma's factors E_ij: the upper ones, the lower ones,
    then the first n_dim - 1 upper ones again."""
    upper = [(i, j) for i in range(n_dim) for j in range(i + 1, n_dim)]
    return upper + [(j, i) for i, j in upper] + upper[: n_dim - 1]


def _gamma(x: Sequence, n_dim: int) -> list:
    """The entries (row major) of gamma(x), the product of the E_ij(x_k), for
    parameters that are ints, arrays or symbols: right multiplication by
    E_ij(x_k) adds x_k times column i to column j."""
    mat = [[int(r == c) for c in range(n_dim)] for r in range(n_dim)]
    for (i, j), xk in zip(_grid_factors(n_dim), x):
        for row in mat:
            row[j] = row[j] + xk * row[i]
    return [e for row in mat for e in row]


def _grid_blocks(d: int, n_dim: int):
    """gamma on the grid {0, ..., d}**m in blocks of at most ``_BLOCK``
    columns, one row per entry.  The entries are nonnegative and grow with
    each parameter, so the blocks are int64 when gamma(d, ..., d) is below
    2**63 and Python ints beyond."""
    m = len(_grid_factors(n_dim))
    dtype = np.int64 if max(_gamma([d] * m, n_dim)) < 2**63 else object
    size = (d + 1) ** m
    for start in range(0, size, _BLOCK):
        x = np.unravel_index(np.arange(start, min(start + _BLOCK, size)), (d + 1,) * m)
        yield np.array(_gamma([xk.astype(dtype) for xk in x], n_dim))


def delta_n(
    family: PolynomialFamily,
    n: int,
    *,
    config: Config = DEFAULT_CONFIG,
) -> GcdCertificate:
    """The largest integer prime to n dividing every nonzero value of the
    product f of the family on the denominator-n group, exact.

    For p prime to n the group maps onto the group mod p**e (strong
    approximation), so p**e divides delta iff f is 0 on the group mod p**e,
    and delta is the n-coprime part of delta_1, the gcd of f on the integer
    group.  gamma(x) is the product of the E_ij(x_k) of ``_grid_factors``
    (m = 3 parameters for 2x2, 8 for 3x3); its entries are multilinear, so
    f o gamma has degree at most d = deg f in each parameter.  G, the gcd
    of f o gamma on the grid {0, ..., d}**m, is exact:

    (a) G is its gcd on all of Z**m, so delta_1 | G: the coefficients of
        f o gamma in the basis prod_k C(x_k, e_k), e_k <= d, are finite
        differences of its grid values, and each value on Z**m is an
        integer combination of those coefficients.
    (b) gamma is dominant over Q and every F_p: its Jacobian has an m x m
        minor of +-1 at an integer point, -1 on the entries a, b, c at
        (0, 1, 0) for 2x2, +1 on the first 8 entries at
        (0, 0, 0, 1, 1, 0, 0, 0) for 3x3.
    (c) For p > d write f = p**j * h on the group, h nonzero in the
        coordinate ring mod p (det - 1 is prime mod p).  By (b) h o gamma
        is nonzero mod p, of degree below p in each variable, so it is
        nonzero at a point of F_p**m: v_p(G) = j = v_p(delta).

    So delta is G's n-coprime part but at each prime p <= d, whose exponent
    the scans of the group mod p, p**2, ..., p**v_p(G) decide.  The grid
    and each scan are held to the density budget before they start; the
    grid stops after the first block that leaves G no prime to n.  If f is
    0 on the whole grid, it is 0 on the group (ZeroValue).
    """
    d, n_dim = family.total_degree, family.n_dim
    m = len(_grid_factors(n_dim))
    _check_scan_budget((d + 1) ** m, f"the grid {{0..{d}}}**{m} of group points", config)
    g = samples = 0
    for block in _grid_blocks(d, n_dim):
        cols = family.exact_columns(block)
        values = math.prod(p.eval_flat(cols) for p in family.polys)
        g = math.gcd(g, int(np.gcd.reduce(np.ravel(values))))
        samples += block.shape[1]
        if g and n_coprime_part(g, n) == 1:
            break
    if g == 0:
        raise ZeroValue(f"the family vanishes on the group: f is 0 on all {samples} grid points")
    rest, delta = n_coprime_part(g, n), 1
    for p in primes_below(d + 1):
        a = 0
        while rest % p == 0:
            rest, a = rest // p, a + 1
        for e in range(1, a + 1):
            order = _prime_power_order(p, e, n_dim)
            _check_scan_budget(order, f"group mod {p**e}", config)
            if _zero_count(family, p**e) < order:
                break
            delta *= p
    return GcdCertificate(family=family, n=n, delta=delta * rest, sample_size=samples)
