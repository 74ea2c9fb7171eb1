"""Exact enumeration of group points with prescribed denominator in a box.

A point z = u/n lies in the closed box of radius eps around x exactly when
every numerator entry u_ij lies in the integer interval
[ceil(n*(x_ij - eps)), floor(n*(x_ij + eps))], so enumeration is integer
work from start to finish.  Membership in the finite part is the condition
det(u) = n**n_dim together with gcd(u, n) = 1.

Two strategies are provided.  The oracle scans the full integer box and is
the ground truth; the optimized strategy (2x2 only) scans the top row and
solves the linear equation a*d - b*c = n**2 for the bottom row with an
extended gcd, visiting only genuine solutions.  Both sort their result
into canonical order (lexicographic on the flattened numerator).
``count_points`` runs the optimized scan for callers that need only the
number of points; it builds no point objects.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass

from .config import DEFAULT_CONFIG, Config
from .core import (
    BallSpec,
    RationalGroupPoint,
    egcd,
    frac_ceil,
    frac_floor,
)
from .errors import SearchSpaceTooLarge, UnsupportedDimension


@dataclass(frozen=True)
class EnumerationResult:
    points: tuple[RationalGroupPoint, ...]
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


def _oracle_scan(ball: BallSpec, n_dim: int, budget: int) -> list[tuple[int, ...]]:
    bounds = entry_bounds(ball)
    flat_bounds = [b for row in bounds for b in row]
    cells = 1
    for lo, hi in flat_bounds:
        cells *= max(0, hi - lo + 1)
    if cells == 0:
        return []
    if cells > budget:
        raise SearchSpaceTooLarge(cells, budget, what="cells")
    n = ball.modulus
    target = n**n_dim
    found: list[tuple[int, ...]] = []
    for flat in itertools.product(*(range(lo, hi + 1) for lo, hi in flat_bounds)):
        u = tuple(flat[i * n_dim : (i + 1) * n_dim] for i in range(n_dim))
        if _det(u, n_dim) != target:
            continue
        g = n
        for e in flat:
            g = math.gcd(g, e)
            if g == 1:
                break
        if g == 1:
            found.append(flat)
    return found


def _det(u, n_dim):
    if n_dim == 2:
        return u[0][0] * u[1][1] - u[0][1] * u[1][0]
    if n_dim == 3:
        return (
            u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
            - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
            + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0])
        )
    raise UnsupportedDimension(f"n_dim={n_dim}")


def _step_interval(x0: int, step: int, lo: int, hi: int):
    """j-range with lo <= x0 + step*j <= hi; None means unconstrained."""
    if step == 0:
        return None if lo <= x0 <= hi else (1, 0)
    if step > 0:
        return (-((x0 - lo) // step), (hi - x0) // step)
    s = -step
    return (-((hi - x0) // s), (x0 - lo) // s)


def _bottom_row_progression(a, b, m, c_lo, c_hi, d_lo, d_hi):
    """Solutions of a*d - b*c = m with c, d in closed boxes, as a progression.

    Returns (c0, dc, d0, dd, j_lo, j_hi): the solutions are
    (c0 + dc*j, d0 + dd*j) for j_lo <= j <= j_hi, a range that may be empty.
    None when the equation has no integer solution at all.
    """
    if a == 0 and b == 0:
        return None
    g, s, t = egcd(a, b)
    if m % g:
        return None
    k = m // g
    d0 = s * k
    c0 = -t * k
    dc = a // g  # step of c
    dd = b // g  # step of d
    ic = _step_interval(c0, dc, c_lo, c_hi)
    idd = _step_interval(d0, dd, d_lo, d_hi)
    if ic is None and idd is None:
        raise AssertionError("both steps zero for a nonzero row")
    if ic is None:
        j_lo, j_hi = idd
    elif idd is None:
        j_lo, j_hi = ic
    else:
        j_lo = max(ic[0], idd[0])
        j_hi = min(ic[1], idd[1])
    return c0, dc, d0, dd, j_lo, j_hi


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


def _optimized_scan_sl2(ball: BallSpec, budget: int) -> list[tuple[int, ...]]:
    box = _sl2_box(ball, budget)
    if box is None:
        return []
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi), (d_lo, d_hi) = box
    n = ball.modulus
    m = n * n
    found: list[tuple[int, ...]] = []
    for a in range(a_lo, a_hi + 1):
        for b in range(b_lo, b_hi + 1):
            prog = _bottom_row_progression(a, b, m, c_lo, c_hi, d_lo, d_hi)
            if prog is None:
                continue
            c0, dc, d0, dd, j_lo, j_hi = prog
            for j in range(j_lo, j_hi + 1):
                c = c0 + dc * j
                d = d0 + dd * j
                if math.gcd(math.gcd(a, b), math.gcd(math.gcd(c, d), n)) == 1:
                    found.append((a, b, c, d))
    return found


def count_points(ball: BallSpec, config: Config = DEFAULT_CONFIG) -> int:
    """The count of ``enumerate_points(ball)``, building no point (2x2 only).

    Same bounds, budget and errors as the optimized scan.  A top row with
    gcd(a, b, n) = 1 makes every bottom-row solution primitive, so such a
    row adds the length of its solution progression without visiting it.
    """
    if ball.n_dim != 2:
        raise UnsupportedDimension("point counting is 2x2 only")
    box = _sl2_box(ball, config.optimized_row_budget)
    if box is None:
        return 0
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi), (d_lo, d_hi) = box
    n = ball.modulus
    m = n * n
    count = 0
    for a in range(a_lo, a_hi + 1):
        for b in range(b_lo, b_hi + 1):
            prog = _bottom_row_progression(a, b, m, c_lo, c_hi, d_lo, d_hi)
            if prog is None:
                continue
            c0, dc, d0, dd, j_lo, j_hi = prog
            h = math.gcd(math.gcd(a, b), n)
            if h == 1:
                count += max(0, j_hi - j_lo + 1)
                continue
            for j in range(j_lo, j_hi + 1):
                if math.gcd(math.gcd(c0 + dc * j, d0 + dd * j), h) == 1:
                    count += 1
    return count


def enumerate_points(
    ball: BallSpec,
    strategy: str = "optimized",
    config: Config = DEFAULT_CONFIG,
) -> EnumerationResult:
    """All group points of denominator exactly ``ball.modulus`` in the box.

    ``strategy`` is "oracle", "optimized", or "both"; "both" runs the two
    and insists on identical output (used by equivalence tests).  The
    optimized path needs 2x2; the oracle works for 2x2 and 3x3.
    """
    t0 = time.perf_counter()
    n_dim = ball.n_dim
    if strategy not in ("oracle", "optimized", "both"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy in ("optimized", "both") and n_dim != 2:
        raise UnsupportedDimension("optimized enumeration is 2x2 only")
    if strategy == "oracle":
        flats = _oracle_scan(ball, n_dim, config.oracle_cell_budget)
    elif strategy == "optimized":
        flats = _optimized_scan_sl2(ball, config.optimized_row_budget)
    else:
        flats = _optimized_scan_sl2(ball, config.optimized_row_budget)
        oracle = sorted(_oracle_scan(ball, n_dim, config.oracle_cell_budget))
        if sorted(flats) != oracle:
            raise AssertionError(
                "optimized and oracle enumerations disagree; this is a bug"
            )
    flats.sort()
    n = ball.modulus
    pts = tuple(
        RationalGroupPoint(
            u=tuple(f[i * n_dim : (i + 1) * n_dim] for i in range(n_dim)),
            v=n,
            n_dim=n_dim,
        )
        for f in flats
    )
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnumerationResult(
        points=pts,
        count=len(pts),
        ball=ball,
        strategy=strategy,
        elapsed_ms=elapsed,
    )


def write_jsonl(result: EnumerationResult, fp) -> None:
    """One point per line in canonical order, then a summary record."""
    for z in result.points:
        fp.write(z.to_json())
        fp.write("\n")
    fp.write(
        json.dumps(
            {
                "count": result.count,
                "elapsed_ms": round(result.elapsed_ms, 3),
                "strategy": result.strategy,
            },
            separators=(",", ":"),
        )
    )
    fp.write("\n")


def read_jsonl_points(fp) -> list[RationalGroupPoint]:
    """Parse the point records back, ignoring the trailing summary."""
    pts = []
    for line in fp:
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError(f"point record is not a JSON object: {line[:60]!r}")
        if "u" in d:
            pts.append(RationalGroupPoint.from_json_dict(d))
    return pts
