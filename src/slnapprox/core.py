"""Exact arithmetic for rational matrix group points.

A rational group point is stored as an integer numerator matrix ``u``
together with a positive integer denominator ``v`` such that the actual
matrix is ``u / v``, ``det(u) == v**n_dim`` and ``gcd`` of all entries of
``u`` together with ``v`` is 1.  That normalization is unique, so equality
of points is plain tuple equality.

No floating point is used anywhere in this module.  Matrices are tuples of
tuples, hence immutable and hashable.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import NotUnimodular

IntMatrix = tuple[tuple[int, ...], ...]
FracMatrix = tuple[tuple[Fraction, ...], ...]


# ---------------------------------------------------------------------------
# small integer helpers


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def frac_ceil(x: Fraction) -> int:
    return ceil_div(x.numerator, x.denominator)


def frac_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def int_valuation(m: int, p: int) -> int:
    """Exponent of p in m.  m must be nonzero."""
    if m == 0:
        raise ValueError("valuation of zero is undefined")
    m = abs(m)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


# numbers per segment of primes_below: the bool array of one segment and the
# list of its primes are what the generator holds at a time
PRIME_SEGMENT = 1 << 16


def primes_below(stop: int) -> Iterator[int]:
    """The primes p < stop in increasing order, found lazily.

    A segmented sieve of Eratosthenes on numpy.  The first segment of
    PRIME_SEGMENT numbers strikes itself: each of its primes up to the
    square root of its end strikes its multiples from its square on.  Each
    later segment is struck by the base primes up to the square root of its
    end, all below the segment, read from a second such generator as the
    segments advance.  Memory is O(PRIME_SEGMENT + sqrt(stop)) however
    large stop is.
    """
    if stop <= 2:
        return
    is_prime = np.ones(min(stop, PRIME_SEGMENT), dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(len(is_prime) - 1) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    yield from np.flatnonzero(is_prime).tolist()
    base_primes = primes_below(math.isqrt(stop - 1) + 1)
    base: list[int] = []
    p = next(base_primes, stop)
    for lo in range(PRIME_SEGMENT, stop, PRIME_SEGMENT):
        hi = min(lo + PRIME_SEGMENT, stop)
        while p * p < hi:
            base.append(p)
            p = next(base_primes, stop)
        is_prime = np.ones(hi - lo, dtype=bool)
        for b in base:
            is_prime[ceil_div(lo, b) * b - lo :: b] = False
        yield from (np.flatnonzero(is_prime) + lo).tolist()


def trial_division(m: int, limit: int) -> tuple[dict[int, int], int, bool]:
    """Divide the positive m by 2 and the odd d <= limit while d*d <= rest.

    Returns (factors, rest, done); done means the loop reached sqrt(rest),
    so rest is 1 or a prime.
    """
    factors: dict[int, int] = {}
    rest = m
    d = 2
    while d * d <= rest and d <= limit:
        while rest % d == 0:
            factors[d] = factors.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    return factors, rest, d * d > rest


def prime_factorization(n: int) -> dict[int, int]:
    """Trial-division factorization, meant for moduli of desk scale."""
    if n < 1:
        raise ValueError("need a positive integer")
    # d * d <= rest <= n keeps d <= n, so the loop always runs to sqrt(rest)
    out, rest, _ = trial_division(n, n)
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def check_int64_modulus(q: int) -> None:
    """ValueError unless 1 <= q < 2**31, where residues mod q multiply
    without leaving int64: (q - 1)**2 < 2**62."""
    if not 1 <= q < 2**31:
        raise ValueError(f"modulus {q} outside the int64 range [1, 2**31)")


def n_coprime_part(w: int, n: int) -> int:
    """The positive part of the integer w left after stripping every prime of n.

    w must be nonzero and n positive.  The primes are stripped by gcd, so n
    is never factored: every prime of n still dividing m also divides g.
    """
    if w == 0:
        raise ValueError("zero has no coprime part")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    m = abs(w)
    g = math.gcd(m, n)
    while g > 1:
        m //= g
        g = math.gcd(m, g)
    return m


def frac_json(fr: Fraction) -> dict:
    """An exact rational as {num, den} decimal strings."""
    return {"num": str(fr.numerator), "den": str(fr.denominator)}


def snap_dyadic(x, bits: int = 53) -> Fraction:
    """Round x to the dyadic grid of spacing 2**-bits, exactly."""
    q = Fraction(x)
    scale = 1 << bits
    return Fraction(round(q * scale), scale)


# ---------------------------------------------------------------------------
# matrices


def identity_matrix(n_dim: int) -> IntMatrix:
    return tuple(
        tuple(1 if i == j else 0 for j in range(n_dim)) for i in range(n_dim)
    )


def mat_det(m: Sequence[Sequence]) -> int | Fraction:
    """Determinant by cofactor expansion, exact for int or Fraction entries.

    The 2x2 and 3x3 expansions are written out, since the enumeration
    oracle calls this once per cell of its box.
    """
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in [tuple(r) for r in m[1:]]]
        term = m[0][j] * mat_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    n = len(a)
    k = len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(k))
        for i in range(n)
    )


def to_fraction_matrix(raw: Sequence[Sequence]) -> FracMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in raw)


# ---------------------------------------------------------------------------
# rational group points


@lru_cache(maxsize=None)
def point_line_template(n_dim: int) -> str:
    """The JSON line of an n_dim point as a %-template of its entries, then v:
    {"n_dim":2,"u":[["%d","%d"],["%d","%d"]],"v":"%d"} for n_dim = 2."""
    row = "[" + ",".join(['"%d"'] * n_dim) + "]"
    return '{"n_dim":%d,"u":[%s],"v":"%%d"}' % (n_dim, ",".join([row] * n_dim))


_DECIMAL = re.compile(r"-?[0-9]+")


def _json_int(x) -> int:
    """A JSON int (not a bool) or an ASCII decimal string, as an int."""
    if type(x) is int or (isinstance(x, str) and _DECIMAL.fullmatch(x)):
        return int(x)
    raise ValueError(f"point record holds {x!r} where an integer belongs")


@dataclass(frozen=True)
class RationalGroupPoint:
    """A matrix with rational entries, det 1, in normalized u/v form."""

    u: IntMatrix
    v: int
    n_dim: int

    @property
    def den(self) -> int:
        return self.v

    def entries(self) -> FracMatrix:
        return tuple(tuple(Fraction(e, self.v) for e in row) for row in self.u)

    def flat_numerator(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.u))

    def validate(self) -> None:
        if len(self.u) != self.n_dim or any(len(r) != self.n_dim for r in self.u):
            raise ValueError("numerator matrix has the wrong shape")
        if self.v < 1:
            raise ValueError("denominator must be positive")
        d = mat_det(self.u)
        if d != self.v**self.n_dim:
            raise NotUnimodular(Fraction(d, self.v**self.n_dim))
        g = math.gcd(self.v, *chain.from_iterable(self.u))
        if g != 1:
            raise ValueError(f"numerator and denominator share the factor {g}")

    def mul(self, other: "RationalGroupPoint") -> "RationalGroupPoint":
        if self.n_dim != other.n_dim:
            raise ValueError("dimension mismatch")
        prod = mat_mul(self.u, other.u)
        return reduce(
            tuple(
                tuple(Fraction(e, self.v * other.v) for e in row) for row in prod
            )
        )

    def distance_to(self, center: Sequence[Sequence]) -> Fraction:
        """Entrywise max distance to a rational matrix, exact."""
        best = Fraction(0)
        for i in range(self.n_dim):
            for j in range(self.n_dim):
                d = abs(Fraction(self.u[i][j], self.v) - Fraction(center[i][j]))
                if d > best:
                    best = d
        return best

    # canonical JSON form: all integers as decimal strings, bit exact
    def to_json_dict(self) -> dict:
        return {
            "n_dim": self.n_dim,
            "u": [[str(e) for e in row] for row in self.u],
            "v": str(self.v),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), separators=(",", ":"))``, faster."""
        return point_line_template(self.n_dim) % (*chain.from_iterable(self.u), self.v)

    @classmethod
    def from_json_dict(cls, d: dict) -> "RationalGroupPoint":
        """The point of a parsed record, validated.  ``u`` must be a list of
        lists; each entry, ``v`` and ``n_dim`` a JSON int or a decimal string."""
        try:
            rows = d["u"]
            if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
                raise ValueError("point record's u is not a JSON list of lists")
            u = tuple(tuple(map(_json_int, row)) for row in rows)
            z = cls(u=u, v=_json_int(d["v"]), n_dim=_json_int(d["n_dim"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"point record lacks or mistypes a key: {exc!r}") from exc
        z.validate()
        return z

    @classmethod
    def from_json(cls, s: str) -> "RationalGroupPoint":
        return cls.from_json_dict(json.loads(s))


def point_row_array(rows: Sequence[Sequence], n_dim: int) -> np.ndarray:
    """The (len(rows), n_dim**2 + 1) array of point rows, given with int or
    decimal-string entries or as an array: int64 while n_dim! * B**n_dim <
    2**63 for B = max |entry|, so that a determinant of the columns stays
    exact, and Python ints (``dtype=object``) beyond."""
    shape = (len(rows), n_dim * n_dim + 1)
    try:
        arr = np.array(rows, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array([[int(x) for x in row] for row in rows], dtype=object).reshape(shape)
    if arr.size:
        b = max(-int(arr.min()), int(arr.max()))
        if math.factorial(n_dim) * b**n_dim >= 2**63:
            return arr.astype(object)
    return arr


class PointRows(Sequence):
    """Group points of one n_dim as the rows of one read-only array: the
    numerator in row-major order, then v (``point_row_array``).  An item is
    built as a ``RationalGroupPoint`` only when it is asked for.  ``n_dim``
    is None only when there is no point.
    """

    __slots__ = ("n_dim", "rows")

    def __init__(self, n_dim: int | None, rows: np.ndarray):
        rows = rows.view()
        rows.flags.writeable = False
        self.n_dim = n_dim
        self.rows = rows

    @classmethod
    def from_points(cls, points: Sequence[RationalGroupPoint], n_dim: int) -> "PointRows":
        """The rows of points that all have this n_dim."""
        rows = [(*z.flat_numerator(), z.v) for z in points]
        return cls(n_dim, point_row_array(rows, n_dim))

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PointRows):
            return NotImplemented
        # by value: an int64 block equals an object block of the same ints
        return self.n_dim == other.n_dim and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.n_dim, self.rows.shape))

    def _point(self, row: list) -> RationalGroupPoint:
        *flat, v = row
        n = self.n_dim
        u = tuple(tuple(flat[k : k + n]) for k in range(0, n * n, n))
        return RationalGroupPoint(u=u, v=v, n_dim=n)

    def __getitem__(self, i):
        rows = self.rows[i].tolist()
        return list(map(self._point, rows)) if isinstance(i, slice) else self._point(rows)

    def __iter__(self):
        return map(self._point, self.rows.tolist())


def reduce(raw: Sequence[Sequence]) -> RationalGroupPoint:
    """Normalize a rational matrix of determinant 1 to its unique u/v form.

    The denominator is the lcm of the entry denominators; the gcd condition
    then holds automatically because some entry realizes each prime power of
    the lcm exactly.
    """
    rows = to_fraction_matrix(raw)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    v = math.lcm(*(e.denominator for row in rows for e in row))
    u = tuple(tuple(int(e * v) for e in row) for row in rows)
    d = mat_det(u)
    if d != v**n:
        raise NotUnimodular(Fraction(d, v**n))
    z = RationalGroupPoint(u=u, v=v, n_dim=n)
    return z


def padic_norm(z: RationalGroupPoint, p: int) -> int:
    """Max over entries of the p-adic absolute value, as an integer power of p.

    For a normalized point this equals p**k where p**k exactly divides v.
    Computed entrywise all the same, so the normalization is exercised, not
    assumed.
    """
    vp = int_valuation(z.v, p) if z.v % p == 0 else 0
    min_val = None
    for e in z.flat_numerator():
        if e == 0:
            continue
        val = int_valuation(e, p)
        if min_val is None or val < min_val:
            min_val = val
        if min_val == 0:
            break
    if min_val is None:
        raise ValueError("zero matrix")
    k = vp - min_val
    if k < 0:
        raise ValueError("point is not in normalized form at p")
    return p**k


# ---------------------------------------------------------------------------
# adelic balls


@dataclass(frozen=True)
class BallSpec:
    """A closed archimedean box of radius ``radius`` around ``center``
    together with the finite data of a modulus ``n``: membership at the
    finite places means the point has denominator exactly ``n``."""

    center: FracMatrix
    radius: Fraction
    modulus: int
    n_dim: int
    factorization: tuple[tuple[int, int], ...]

    @classmethod
    def make(
        cls,
        center: Sequence[Sequence],
        radius,
        modulus: int,
        snap_bits: int | None = 53,
    ) -> "BallSpec":
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        c = to_fraction_matrix(center)
        if snap_bits is not None:
            c = tuple(tuple(snap_dyadic(e, snap_bits) for e in row) for row in c)
        r = Fraction(radius)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        fac = tuple(sorted(prime_factorization(modulus).items()))
        return cls(
            center=c,
            radius=r,
            modulus=modulus,
            n_dim=len(c),
            factorization=fac,
        )


def ball_membership(z: RationalGroupPoint, ball: BallSpec) -> bool:
    """Exact membership test.

    Archimedean part: entrywise max distance to the center is <= radius
    (closed ball).  Finite part: the p-adic norm matches the prime
    factorization of the modulus at every prime of the modulus, and the
    denominator involves no other primes.  That conjunction is equivalent to
    den(z) == modulus, which is asserted.
    """
    if z.n_dim != ball.n_dim:
        raise ValueError("dimension mismatch")
    finite_ok = all(padic_norm(z, p) == p**a for p, a in ball.factorization)
    finite_ok = finite_ok and n_coprime_part(z.v, ball.modulus) == 1
    den_ok = z.v == ball.modulus
    if finite_ok != den_ok:
        raise AssertionError("normalization broke the denominator criterion")
    if not den_ok:
        return False
    return z.distance_to(ball.center) <= ball.radius


# ---------------------------------------------------------------------------
# polynomial families


@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial in the n_dim**2 matrix entries.

    Monomials map an exponent tuple (row major over entries) to a nonzero
    integer coefficient.
    """

    monomials: tuple[tuple[tuple[int, ...], int], ...]
    n_dim: int

    @classmethod
    def from_monomials(cls, mono: dict, n_dim: int) -> "Polynomial":
        nvars = n_dim * n_dim
        clean = {}
        for exps, c in mono.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            c = int(c)
            if c:
                clean[exps] = clean.get(exps, 0) + c
        clean = {e: c for e, c in clean.items() if c}
        if not clean:
            raise ValueError("the zero polynomial is not allowed in a family")
        return cls(monomials=tuple(sorted(clean.items())), n_dim=n_dim)

    @classmethod
    def entry(cls, i: int, j: int, n_dim: int = 2) -> "Polynomial":
        exps = [0] * (n_dim * n_dim)
        exps[i * n_dim + j] = 1
        return cls.from_monomials({tuple(exps): 1}, n_dim)

    @classmethod
    def trace_minus(cls, constant: int, n_dim: int = 2) -> "Polynomial":
        mono: dict = {}
        for i in range(n_dim):
            exps = [0] * (n_dim * n_dim)
            exps[i * n_dim + i] = 1
            mono[tuple(exps)] = 1
        mono[tuple([0] * (n_dim * n_dim))] = -constant
        return cls.from_monomials(mono, n_dim)

    @classmethod
    def sum_entries(cls, n_dim: int = 2) -> "Polynomial":
        mono = {}
        for k in range(n_dim * n_dim):
            exps = [0] * (n_dim * n_dim)
            exps[k] = 1
            mono[tuple(exps)] = 1
        return cls.from_monomials(mono, n_dim)

    @property
    def degree(self) -> int:
        return max(sum(e) for e, _ in self.monomials)

    @cached_property
    def _terms(self) -> tuple:
        # (coefficient, degree deficit, sparse (index, exponent) pairs)
        deg = self.degree
        return tuple(
            (c, deg - sum(exps), tuple((i, e) for i, e in enumerate(exps) if e))
            for exps, c in self.monomials
        )

    def eval_flat(self, values: Sequence, v: int = 1):
        """Homogenized value v**degree * f(values / v): the integer F(u, v) on
        the numerator of a point u/v, and plain f(values) for v = 1."""
        total = 0
        for c, deficit, powers in self._terms:
            term = c * v**deficit
            for i, e in powers:
                term = term * values[i] ** e
            total = total + term
        return total

    def eval_mod(self, columns: np.ndarray, q: int) -> np.ndarray:
        """f mod q on many matrices at once, as an int64 array in [0, q).

        ``columns`` is an int64 array of shape (n_dim**2, m) whose row i holds
        entry i (row major) of each of the m matrices, reduced mod q.  Every
        product is reduced before the next, so no intermediate value reaches
        q**2; q must therefore be below 2**31 (ValueError otherwise).
        """
        check_int64_modulus(q)
        total = np.zeros(columns.shape[1], dtype=np.int64)
        for c, _, powers in self._terms:
            term = np.full(columns.shape[1], c % q, dtype=np.int64)
            for i, e in powers:
                for _ in range(e):
                    np.multiply(term, columns[i], out=term)
                    np.remainder(term, q, out=term)
            np.add(total, term, out=total)
            np.remainder(total, q, out=total)
        return total


@dataclass(frozen=True)
class PolynomialFamily:
    """A finite family f_1, ..., f_t of nonzero integer polynomials.

    The members are taken to be irreducible and pairwise distinct, as the
    theory requires; nothing here attempts to verify it.
    """

    polys: tuple[Polynomial, ...]
    n_dim: int

    def __post_init__(self):
        if not self.polys:
            raise ValueError("a family needs at least one polynomial")
        if any(p.n_dim != self.n_dim for p in self.polys):
            raise ValueError("family members disagree on dimension")

    @property
    def t(self) -> int:
        return len(self.polys)

    @property
    def total_degree(self) -> int:
        """Degree of the product f_1 * ... * f_t."""
        return sum(p.degree for p in self.polys)

    def values(self, z: RationalGroupPoint) -> tuple[int, ...]:
        """The integers v**deg(f_i) * f_i(z) on the numerator of z = u/v; each
        is f_i(z) times a unit of Z[1/v], so it has the same coprime part."""
        flat = z.flat_numerator()
        return tuple(p.eval_flat(flat, z.v) for p in self.polys)


FAMILY_PRESETS = {
    "entry11": lambda n_dim: PolynomialFamily(
        polys=(Polynomial.entry(0, 0, n_dim),), n_dim=n_dim
    ),
    "trace-minus-2": lambda n_dim: PolynomialFamily(
        polys=(Polynomial.trace_minus(2, n_dim),), n_dim=n_dim
    ),
    "sum-entries": lambda n_dim: PolynomialFamily(
        polys=(Polynomial.sum_entries(n_dim),), n_dim=n_dim
    ),
}


def family_from_preset(name: str, n_dim: int = 2) -> PolynomialFamily:
    try:
        return FAMILY_PRESETS[name](n_dim)
    except KeyError:
        raise ValueError(
            f"unknown family preset {name!r}; known: {sorted(FAMILY_PRESETS)}"
        ) from None


def family_from_file(path: str) -> PolynomialFamily:
    """Load a family from JSON: {"n_dim": N, "polys": [[[coeff, [exps...]], ...], ...]}."""
    with open(path) as fp:
        raw = json.load(fp)
    try:
        n_dim = int(raw["n_dim"])
        polys = []
        for monomials in raw["polys"]:
            mono = {tuple(exps): int(c) for c, exps in monomials}
            polys.append(Polynomial.from_monomials(mono, n_dim))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"family file lacks or mistypes a key: {exc!r}") from exc
    return PolynomialFamily(polys=tuple(polys), n_dim=n_dim)
