"""Exact enumeration of group points with prescribed denominator in a box.

A point z = u/n lies in the closed box of radius eps around x exactly when
every numerator entry u_ij lies in the integer interval
[ceil(n*(x_ij - eps)), floor(n*(x_ij + eps))], so enumeration is integer
work from start to finish.  Membership in the finite part is the condition
det(u) = n**n_dim together with gcd(u, n) = 1.

Two strategies are provided.  The oracle scans the full integer box and is
the ground truth; the optimized strategy (2x2 only) solves the linear
equation a*d - b*c = n**2 for the bottom row of every top row (a, b) of
the box at once, on numpy arrays: a Bezout pair of (a, b), read from a
table built once for |a|, |b| <= 512 and found by a masked extended Euclid
beyond, the j-range of each solution progression (c0 + dc*j, d0 + dd*j)
inside the box, and its length.  The progressions are expanded on arrays,
and only the solutions of top rows with h = gcd(a, b, n) > 1 are checked
for gcd(c, d, h) = 1: a row with h = 1 makes every solution primitive.
The arrays are int64 while every intermediate fits, and hold Python ints
(``dtype=object``) beyond, through the same code.  Both strategies return
canonical order (lexicographic on the flattened numerator) as the rows of
one ``PointRows``, which streams the points from its column lists.
``count_points`` reads the same row arrays for callers that need only the
number of points: it builds no point and expands no progression,
correcting the rows with h > 1 by Moebius inversion.

``write_jsonl`` writes the rows as canonical JSON lines, and
``read_jsonl_points`` reads them back a chunk of ``_LINE_BLOCK`` lines at
a time: the canonical lines that start a chunk are matched by one block
pattern and parsed as one array, and every other line one at a time, with
the JSON parse of ``RationalGroupPoint`` as the oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .core import (
    BallSpec,
    PointRows,
    RationalGroupPoint,
    complete_factorization,
    frac_ceil,
    frac_floor,
    mat_det,
    point_line_template,
    point_row_array,
)
from .errors import SearchSpaceTooLarge, UnsupportedDimension


@dataclass(frozen=True)
class EnumerationResult:
    points: PointRows
    count: int
    ball: BallSpec
    strategy: str
    elapsed_ms: float


def entry_bounds(ball: BallSpec) -> list[list[tuple[int, int]]]:
    """Closed integer interval for each numerator entry, exact."""
    n = ball.modulus
    out = []
    for row in ball.center:
        row_bounds = []
        for c in row:
            lo = frac_ceil(n * (c - ball.radius))
            hi = frac_floor(n * (c + ball.radius))
            row_bounds.append((lo, hi))
        out.append(row_bounds)
    return out


def _oracle_scan(ball: BallSpec, budget: int) -> list[tuple[int, ...]]:
    bounds = entry_bounds(ball)
    flat_bounds = [b for row in bounds for b in row]
    cells = 1
    for lo, hi in flat_bounds:
        cells *= max(0, hi - lo + 1)
    if cells == 0:
        return []
    if cells > budget:
        raise SearchSpaceTooLarge(cells, budget, what="cells")
    n, n_dim = ball.modulus, ball.n_dim
    target = n**n_dim
    found: list[tuple[int, ...]] = []
    # the product visits the box in canonical order
    for flat in itertools.product(*(range(lo, hi + 1) for lo, hi in flat_bounds)):
        u = tuple(flat[i * n_dim : (i + 1) * n_dim] for i in range(n_dim))
        if mat_det(u) == target and math.gcd(n, *flat) == 1:
            found.append(flat)
    return found


def _sl2_box(ball: BallSpec, budget: int):
    """The (lo, hi) intervals of the entries a, b, c, d of a 2x2 ball.

    None when one interval is empty; SearchSpaceTooLarge when the top rows
    exceed ``budget``.
    """
    bounds = entry_bounds(ball)
    (a_lo, a_hi), (b_lo, b_hi) = bounds[0]
    (c_lo, c_hi), (d_lo, d_hi) = bounds[1]
    if a_hi < a_lo or b_hi < b_lo or c_hi < c_lo or d_hi < d_lo:
        return None
    rows = (a_hi - a_lo + 1) * (b_hi - b_lo + 1)
    if rows > budget:
        raise SearchSpaceTooLarge(rows, budget, what="rows")
    return (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi), (d_lo, d_hi)


# top rows solved per block of arrays, so that a box of any size needs little
# memory; with blocks of 2**16 rows the witness balls at n = 200 peaked about
# 8 MB higher, at no gain in speed
_ROW_BLOCK = 1 << 12


@dataclass(frozen=True)
class _Rows:
    """Top rows (a, b) whose bottom rows (c, d) in the box form a nonempty
    progression (c0 + dc*j, d0 + dd*j), j_lo <= j <= j_hi, with
    h = gcd(a, b, n) and k = n**2 / gcd(a, b).  Every field is an array of
    one length."""

    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray
    dc: np.ndarray
    d0: np.ndarray
    dd: np.ndarray
    j_lo: np.ndarray
    j_hi: np.ndarray
    h: np.ndarray
    k: np.ndarray


def _egcd_arrays(a: np.ndarray, b: np.ndarray):
    """Extended Euclid on arrays: (g, s, t) with a*s + b*t == g == gcd(a, b) >= 0.

    Each lane runs the scalar recurrence of (r, s) until its remainder
    vanishes; t is then read off a*s + b*t == g, and is 0 where b == 0.
    It builds ``_bezout_table`` and is the table's oracle.
    """
    old_r, r = a.copy(), b.copy()
    old_s, s = np.ones_like(a), np.zeros_like(a)
    live = np.flatnonzero(r)
    while live.size:
        r_live, old_r_live = r[live], old_r[live]
        q = old_r_live // r_live
        old_r[live] = r_live
        r[live] = r_live = old_r_live - q * r_live
        s_live = s[live]
        old_s[live], s[live] = s_live, old_s[live] - q * s_live
        live = live[r_live != 0]
    sign = np.where(old_r < 0, -1, 1)
    g, s = old_r * sign, old_s * sign
    # where b == 0, a*s == g and t == 0; a*s is taken in Python ints where
    # it could pass int64
    wide = a.dtype != object and (
        int(np.abs(a).max(initial=0)) * int(np.abs(s).max(initial=0)) + int(g.max(initial=0))
        >= 2**63
    )
    a_s = a.astype(object) * s if wide else a * s
    t = ((g - a_s) // np.where(b == 0, 1, b)).astype(a.dtype, copy=False)
    return g, s, t


# |a|, |b| <= _BEZOUT_REACH have their (g, s, t) read from one table of
# 513**2 int16 triples (1.6 MB); rows of a solved per call while it is built,
# so that the build adds little to the peak memory
_BEZOUT_REACH = 512
_BEZOUT_BUILD_ROWS = 16


@lru_cache(maxsize=None)
def _bezout_table() -> np.ndarray:
    """The read-only (3, 513**2) int16 array of ``_egcd_arrays(a, b)`` for
    0 <= a, b <= _BEZOUT_REACH: g, s and t of (a, b) at column a * 513 + b.
    Built on its first use, _BEZOUT_BUILD_ROWS values of a at a time."""
    side = _BEZOUT_REACH + 1
    table = np.empty((3, side * side), dtype=np.int16)
    b = np.tile(np.arange(side, dtype=np.int64), _BEZOUT_BUILD_ROWS)
    for first in range(0, side, _BEZOUT_BUILD_ROWS):
        stop = min(side, first + _BEZOUT_BUILD_ROWS)
        a = np.repeat(np.arange(first, stop, dtype=np.int64), side)
        table[:, first * side : stop * side] = _egcd_arrays(a, b[: a.size])
    table.flags.writeable = False
    return table


def _bezout(a: np.ndarray, b: np.ndarray):
    """(g, s, t) with a*s + b*t == g == gcd(a, b) >= 0, lane by lane.

    Read from ``_bezout_table`` at (|a|, |b|), the signs of s and t those of
    a and b, when the arrays are int64 and every |a|, |b| is at most
    _BEZOUT_REACH; ``_egcd_arrays`` otherwise.  The two may give different
    pairs (s, t) for a negative a or b.
    """
    if a.dtype == object:
        return _egcd_arrays(a, b)
    abs_a, abs_b = np.abs(a), np.abs(b)
    if max(abs_a.max(), abs_b.max()) > _BEZOUT_REACH:
        return _egcd_arrays(a, b)
    g, s, t = _bezout_table()[:, abs_a * (_BEZOUT_REACH + 1) + abs_b].astype(np.int64)
    return g, np.where(a < 0, -s, s), np.where(b < 0, -t, t)


def _step_bounds(x0, step, lo, hi):
    """j-range arrays with lo <= x0 + step*j <= hi on the lanes where
    step != 0; the rare lanes where step == 0 (there the range is
    meaningless), and on each of them whether lo <= x0 <= hi."""
    below, above = x0 - lo, hi - x0
    flat = np.flatnonzero(step == 0)
    size = abs(step)
    size[flat] = 1
    up = step > 0
    j_lo = -(np.where(up, below, above) // size)
    j_hi = np.where(up, above, below) // size
    return j_lo, j_hi, flat, (below[flat] >= 0) & (above[flat] >= 0)


def _sl2_rows(ball: BallSpec, budget: int):
    """The top rows of a 2x2 ball with their bottom-row progressions.

    Yields ``_Rows`` blocks in canonical (a, b) order; nothing for an empty
    box.  a*d - b*c = n**2 has integer solutions exactly when g = gcd(a, b)
    divides n**2, and then they are (c0 + j*a/g, d0 + j*b/g) with
    (d0, -c0) = (s, t) * n**2/g from a*s + b*t = g.  Any Bezout pair
    serves: another shifts j by a multiple of k = n**2/g, so each row keeps
    its points, their order and the residues of j mod k.  The arrays are int64
    while every intermediate stays below 2**62 (c0 reaches
    max|entry| * n**2), and Python ints in ``dtype=object`` arrays beyond.
    """
    box = _sl2_box(ball, budget)
    if box is None:
        return
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi), (d_lo, d_hi) = box
    n = ball.modulus
    m = n * n
    reach = max(abs(v) for pair in box for v in pair)
    dtype = np.int64 if 2 * (reach + 1) * (m + 1) < 2**62 else object
    width = b_hi - b_lo + 1
    rows = (a_hi - a_lo + 1) * width
    for first in range(0, rows, _ROW_BLOCK):
        flat = np.arange(first, min(rows, first + _ROW_BLOCK), dtype=np.int64)
        a = (flat // width).astype(dtype) + a_lo
        b = (flat % width).astype(dtype) + b_lo
        del flat
        g, s, t = _bezout(a, b)
        # g = 0 is the zero row, which solves nothing, and a row solves only
        # when g divides m; most rows have g = 1, and there k = m and the
        # steps are (a, b)
        live = g == 1
        wide = np.flatnonzero(g > 1)
        live[wide] = m % g[wide] == 0
        live = np.flatnonzero(live)
        a, b, g, s, t = a[live], b[live], g[live], s[live], t[live]
        k, dc, dd = np.full_like(g, m), a.copy(), b.copy()
        wide = np.flatnonzero(g > 1)
        gw = g[wide]
        k[wide], dc[wide], dd[wide] = m // gw, a[wide] // gw, b[wide] // gw
        c0, d0 = -t * k, s * k
        c_jlo, c_jhi, c_flat, c_in = _step_bounds(c0, dc, c_lo, c_hi)
        d_jlo, d_jhi, d_flat, d_in = _step_bounds(d0, dd, d_lo, d_hi)
        j_lo, j_hi = np.maximum(c_jlo, d_jlo), np.minimum(c_jhi, d_jhi)
        # a nonzero row has a nonzero step, so at most one side is flat: it
        # leaves j to the other side where its x0 lies in its interval, and
        # admits no j elsewhere
        for flat, inside, (lo, hi) in ((c_flat, c_in, (d_jlo, d_jhi)),
                                       (d_flat, d_in, (c_jlo, c_jhi))):
            j_lo[flat] = np.where(inside, lo[flat], 1)
            j_hi[flat] = np.where(inside, hi[flat], 0)
        keep = np.flatnonzero(j_hi >= j_lo)
        yield _Rows(
            a=a[keep], b=b[keep], c0=c0[keep], dc=dc[keep], d0=d0[keep],
            dd=dd[keep], j_lo=j_lo[keep], j_hi=j_hi[keep], h=np.gcd(g[keep], n),
            k=k[keep],
        )


def _optimized_scan_sl2(ball: BallSpec, budget: int) -> np.ndarray:
    """The array of the numerators (a, b, c, d) of the ball's points, in canonical order.

    Each progression is expanded with ``np.repeat`` from its least (c, d),
    by steps of +-(dc, dd) in the direction in which (c, d) ascends; rows
    come in (a, b) order, so the result is sorted as built.
    """
    found = []
    for rows in _sl2_rows(ball, budget):
        length = (rows.j_hi - rows.j_lo + 1).astype(np.int64)
        down = (rows.dc < 0) | ((rows.dc == 0) & (rows.dd < 0))
        start = np.where(down, rows.j_hi, rows.j_lo)
        sign = np.where(down, -1, 1)
        offset = np.arange(int(length.sum())) - np.repeat(np.cumsum(length) - length, length)
        c = np.repeat(rows.c0 + rows.dc * start, length) + np.repeat(rows.dc * sign, length) * offset
        d = np.repeat(rows.d0 + rows.dd * start, length) + np.repeat(rows.dd * sign, length) * offset
        block = np.stack([np.repeat(rows.a, length), np.repeat(rows.b, length), c, d], axis=1)
        # a row with h = 1 is primitive whatever (c, d); gcd(h, c) <= h first
        h = np.repeat(rows.h, length)
        on = np.flatnonzero(h > 1)
        off = on[np.gcd(np.gcd(h[on], c[on]), d[on]) > 1]
        found.append(np.delete(block, off, axis=0) if off.size else block)
    # an empty box holds Python ints, so that a v of any size can join it
    return np.concatenate(found) if found else np.zeros((0, 4), dtype=object)


def _imprimitive_correction(rows: _Rows) -> int:
    """What rows with h > 1 lose: minus their solutions with gcd(c, d, h) > 1.

    With k = n**2 / g the solutions satisfy dc*d - dd*c = k and start at
    (c0, d0), a multiple of k; gcd(dc, dd) = 1.  So a prime p of h divides
    both c and d exactly when p | k and p | j.  Moebius inversion over
    q = gcd(h, k) gives sum_{1 < e | rad q} mu(e) * #{j in range : e | j},
    summed depth-first over square-free e; a branch with no row left
    stops.  The primes of each distinct q come from
    ``complete_factorization``, which raises BudgetExceeded past its budget.
    """
    on = np.flatnonzero(rows.h > 1)
    q = np.gcd(rows.h[on], rows.k[on])
    on = on[q > 1]
    q, lo, hi = q[q > 1], rows.j_lo[on] - 1, rows.j_hi[on]
    found: set[int] = set()
    for v in np.unique(q).tolist():
        found.update(complete_factorization(v))
    primes = sorted(found)

    def terms(first: int, idx, e: int, sign: int) -> int:
        total = 0
        for i in range(first, len(primes)):
            f = e * primes[i]
            sub = idx[q[idx] % f == 0]
            if sub.size:
                total += sign * int((hi[sub] // f - lo[sub] // f).sum())
                total += terms(i + 1, sub, f, -sign)
        return total

    return terms(0, np.arange(len(q)), 1, -1)


def count_points(ball: BallSpec, config: Config = DEFAULT_CONFIG) -> int:
    """The count of ``enumerate_points(ball)``, building no point (2x2 only).

    Same bounds, budget and errors as the optimized scan, whose row arrays
    it reads.  A top row with h = gcd(a, b, n) = 1 makes every bottom-row
    solution primitive, so it adds the length of its progression.  A row
    with h > 1 adds, by Moebius inversion, the sum over e | rad h of
    mu(e) * #{j : e divides c and d}, evaluated on arrays.
    """
    if ball.n_dim != 2:
        raise UnsupportedDimension("point counting is 2x2 only")
    count = 0
    for rows in _sl2_rows(ball, config.optimized_row_budget):
        count += int((rows.j_hi - rows.j_lo + 1).sum()) + _imprimitive_correction(rows)
    return count


def enumerate_points(
    ball: BallSpec,
    strategy: str = "optimized",
    config: Config = DEFAULT_CONFIG,
) -> EnumerationResult:
    """All group points of denominator exactly ``ball.modulus`` in the box.

    ``strategy`` is "oracle", "optimized", or "both"; "both" runs the two
    and insists on identical rows (used by equivalence tests).  The
    optimized path needs 2x2; the oracle works for 2x2 and 3x3.  The points
    are the rows of ``point_row_array``: the numerator, then v = n.
    """
    t0 = time.perf_counter()
    n_dim = ball.n_dim
    if strategy not in ("oracle", "optimized", "both"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if n_dim > 3:
        raise UnsupportedDimension(f"n_dim={n_dim}")
    if strategy in ("optimized", "both") and n_dim != 2:
        raise UnsupportedDimension("optimized enumeration is 2x2 only")
    n = ball.modulus

    def oracle_rows() -> np.ndarray:
        flats = _oracle_scan(ball, config.oracle_cell_budget)
        return point_row_array([(*f, n) for f in flats], n_dim)

    if strategy == "oracle":
        rows = oracle_rows()
    else:
        flats = _optimized_scan_sl2(ball, config.optimized_row_budget)
        rows = point_row_array(np.hstack((flats, np.full((len(flats), 1), n, flats.dtype))), n_dim)
        if strategy == "both" and not np.array_equal(rows, oracle_rows()):
            raise AssertionError("optimized and oracle enumerations disagree; this is a bug")
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnumerationResult(
        points=PointRows(n_dim, rows),
        count=len(rows),
        ball=ball,
        strategy=strategy,
        elapsed_ms=elapsed,
    )


# point lines per fp.write, and per chunk the reader matches at once: a greedy
# repeat keeps backtracking state for every line it matches, and 2**12-line
# chunks doubled the reader's traced peak
_LINE_BLOCK = 1 << 10


def write_jsonl(result: EnumerationResult, fp) -> None:
    """One point per line in canonical order, then a summary record."""
    rows = result.points.rows
    line = point_line_template(result.points.n_dim) + "\n"
    for first in range(0, len(rows), _LINE_BLOCK):
        block = rows[first : first + _LINE_BLOCK]
        fp.write((line * len(block)) % tuple(block.ravel().tolist()))  # one fill per block
    summary = {"count": result.count, "elapsed_ms": round(result.elapsed_ms, 3),
               "strategy": result.strategy}
    fp.write(json.dumps(summary, separators=(",", ":")) + "\n")


@lru_cache(maxsize=None)
def _point_line_pattern(n_dim: int) -> re.Pattern:
    """``point_line_template(n_dim)`` as a compiled pattern, one group per
    entry and one for v, each a canonical decimal."""
    parts = point_line_template(n_dim).split("%d")
    return re.compile("(-?(?:0|[1-9][0-9]*))".join(map(re.escape, parts)))


@lru_cache(maxsize=None)
def _point_block_pattern(n_dim: int) -> tuple[re.Pattern, dict]:
    """A pattern matching any run of canonical lines, each ending in a
    newline, and the ``str.translate`` table that blanks every character of
    such a line but the digits and signs of n_dim, the entries and v.

    An entry has at most 18 digits: ``np.fromstring`` saturates silently
    past int64, so a longer one must miss the pattern.
    """
    template = point_line_template(n_dim)
    line = "-?(?:0|[1-9][0-9]{0,17})".join(map(re.escape, template.split("%d")))
    blank = str.maketrans(dict.fromkeys([c for c in template if not c.isdigit()], " "))
    return re.compile(f"(?:{line}\n)*"), blank


def _first_invalid_row(rows: np.ndarray, n_dim: int) -> int | None:
    """Index of the first row that is no point (v >= 1, det u = v**n_dim and
    gcd(u, v) = 1, as ``RationalGroupPoint.validate``), or None."""
    cols = list(rows.T)
    v = cols[-1]
    u = [cols[i : i + n_dim] for i in range(0, n_dim * n_dim, n_dim)]
    g = v
    for c in cols[:-1]:
        g = np.gcd(g, c)
    bad = np.flatnonzero((v < 1) | (mat_det(u) != v**n_dim) | (g != 1))
    return int(bad[0]) if bad.size else None


def read_jsonl_points(fp) -> PointRows:
    """Parse the point records back, one JSON document per line, ignoring
    blank lines and the trailing summary.

    The file is read in chunks of ``_LINE_BLOCK`` lines.  Once the first
    record has fixed n_dim, the canonical lines (``point_line_template``,
    entries of at most 18 digits) at the start of a chunk are matched by one
    block pattern and read as one array by ``np.fromstring``.  The rest of
    the chunk goes line by line: a canonical line is matched by one compiled
    pattern and its integers become a row; any other line goes through
    ``json.loads`` and ``RationalGroupPoint.from_json_dict``, the oracle.
    The first record fixes n_dim, and a record of another n_dim is a
    ValueError.  The rows are checked on arrays per block of at most
    ``_LINE_BLOCK`` lines, in file order and before any later line that is
    not canonical is parsed, so the first invalid line of the file raises:
    the oracle is rerun on it, for its exception and message.
    """
    loads = json.loads
    from_json_dict = RationalGroupPoint.from_json_dict
    n_dim = None
    match = prefix_pattern = None
    blocks: list[np.ndarray] = []
    rows: list[tuple] = []  # the pending line-by-line block, and the line of each row
    lines: list[str] = []
    unchecked = False  # whether rows holds a canonical line

    def check(block: np.ndarray, block_lines: list[str]) -> None:
        bad = _first_invalid_row(block, n_dim)
        if bad is not None:
            RationalGroupPoint.from_json(block_lines[bad])
            raise AssertionError("a point line passed the oracle, not the row checks; this is a bug")
        blocks.append(block)

    def pack() -> None:
        nonlocal unchecked
        check(point_row_array(rows, n_dim), lines)
        rows.clear()
        lines.clear()
        unchecked = False

    while chunk := list(itertools.islice(fp, _LINE_BLOCK)):
        done = 0
        if prefix_pattern is not None:
            text = "".join(chunk)
            end = prefix_pattern.match(text).end()
            if end:
                if rows:
                    pack()
                prefix = text[:end]
                done = prefix.count("\n")
                values = np.fromstring(prefix.translate(blank), dtype=np.int64, sep=" ")
                # the first column is n_dim
                check(point_row_array(values.reshape(done, -1)[:, 1:], n_dim), chunk)
        for line in itertools.islice(chunk, done, None):
            line = line.strip()
            if not line:
                continue
            m = match(line) if match else None
            if m is not None:
                rows.append(m.groups())
                unchecked = True
            else:
                if unchecked:
                    pack()
                d = loads(line)
                if not isinstance(d, dict):
                    raise ValueError(f"point record is not a JSON object: {line[:60]!r}")
                if "u" not in d:
                    continue
                z = from_json_dict(d)
                if n_dim is None:
                    n_dim = z.n_dim
                    match = _point_line_pattern(n_dim).fullmatch
                    prefix_pattern, blank = _point_block_pattern(n_dim)
                elif z.n_dim != n_dim:
                    raise ValueError(f"point records of n_dim {n_dim} and {z.n_dim} in one file")
                rows.append((*z.flat_numerator(), z.v))
            lines.append(line)
            if len(rows) == _LINE_BLOCK:
                pack()
    if rows:
        pack()
    # n_dim is None exactly when there is no block
    return PointRows(n_dim, np.concatenate(blocks) if blocks else point_row_array([], 0))
