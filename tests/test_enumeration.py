"""Point enumeration: oracle vs optimized, frozen cells, JSONL round trip.

The scalar row solver (one extended gcd and two step intervals per top
row) lives here as the oracle of the array solver in
``slnapprox.enumeration``.
"""

import dataclasses
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnapprox import cli, enumeration
from slnapprox.config import DEFAULT_CONFIG
from slnapprox.core import (
    BallSpec,
    PointRows,
    RationalGroupPoint,
    ball_membership,
    identity_matrix,
    mat_mul,
    point_row_array,
    reduce,
)
from slnapprox.engine import BOUNDED_CENTERS, counting_verification
from slnapprox.enumeration import (
    _LINE_BLOCK,
    EnumerationResult,
    _optimized_scan_sl2,
    _oracle_scan,
    _sl2_box,
    count_points,
    entry_bounds,
    enumerate_points,
    read_jsonl_points,
    write_jsonl,
)
from slnapprox.errors import (
    EXIT_INVALID,
    BudgetExceeded,
    NotUnimodular,
    SearchSpaceTooLarge,
    UnsupportedDimension,
)

F = Fraction

IDENTITY = ((F(1), F(0)), (F(0), F(1)))

# den-2 points within distance 1/2 of the identity, found by exhaustive scan
CELL_N2_HALF = [
    (1, -1, 1, 3),
    (1, 1, -1, 3),
    (2, -1, 0, 2),
    (2, 0, -1, 2),
    (2, 0, 1, 2),
    (2, 1, 0, 2),
    (3, -1, 1, 1),
    (3, 1, -1, 1),
]


def flats(result):
    return [tuple(f) for f in result.points.rows[:, :-1].tolist()]


# ---------------------------------------------------------------------------
# the scalar row solver, oracle of the array solver


def _egcd(a, b):
    """(g, s, t) with a*s + b*t == g == gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _step_interval(x0, step, lo, hi):
    """j-range with lo <= x0 + step*j <= hi; None means unconstrained."""
    if step == 0:
        return None if lo <= x0 <= hi else (1, 0)
    if step > 0:
        return (-((x0 - lo) // step), (hi - x0) // step)
    s = -step
    return (-((hi - x0) // s), (x0 - lo) // s)


def _bottom_row_progression(a, b, m, c_lo, c_hi, d_lo, d_hi):
    """Solutions (c0 + dc*j, d0 + dd*j), j_lo <= j <= j_hi, of a*d - b*c = m
    with c, d in their boxes; None when there is no integer solution."""
    if a == 0 and b == 0:
        return None
    g, s, t = _egcd(a, b)
    if m % g:
        return None
    k = m // g
    c0, dc, d0, dd = -t * k, a // g, s * k, b // g
    ic = _step_interval(c0, dc, c_lo, c_hi)
    idd = _step_interval(d0, dd, d_lo, d_hi)
    if ic is None:
        j_lo, j_hi = idd
    elif idd is None:
        j_lo, j_hi = ic
    else:
        j_lo, j_hi = max(ic[0], idd[0]), min(ic[1], idd[1])
    return c0, dc, d0, dd, j_lo, j_hi


def _scalar_rows(ball):
    box = _sl2_box(ball, DEFAULT_CONFIG.optimized_row_budget)
    if box is None:
        return
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi), (d_lo, d_hi) = box
    m = ball.modulus**2
    for a in range(a_lo, a_hi + 1):
        for b in range(b_lo, b_hi + 1):
            prog = _bottom_row_progression(a, b, m, c_lo, c_hi, d_lo, d_hi)
            if prog is not None:
                yield (a, b, *prog)


def scalar_scan(ball):
    """The optimized scan one top row and one j at a time, sorted."""
    n = ball.modulus
    found = []
    for a, b, c0, dc, d0, dd, j_lo, j_hi in _scalar_rows(ball):
        for j in range(j_lo, j_hi + 1):
            c, d = c0 + dc * j, d0 + dd * j
            if math.gcd(a, b, c, d, n) == 1:
                found.append((a, b, c, d))
    return sorted(found)


def scalar_count(ball):
    """count_points one top row at a time; rows with h > 1 walk their j."""
    n = ball.modulus
    count = 0
    for a, b, c0, dc, d0, dd, j_lo, j_hi in _scalar_rows(ball):
        h = math.gcd(a, b, n)
        if h == 1:
            count += max(0, j_hi - j_lo + 1)
        else:
            count += sum(
                math.gcd(c0 + dc * j, d0 + dd * j, h) == 1 for j in range(j_lo, j_hi + 1)
            )
    return count


class TestFrozenCells:
    def test_eight_point_cell(self):
        ball = BallSpec.make(IDENTITY, F(1, 2), 2)
        res = enumerate_points(ball, strategy="oracle")
        assert res.count == 8
        assert flats(res) == CELL_N2_HALF

    def test_named_members_present(self):
        ball = BallSpec.make(IDENTITY, F(1, 2), 2)
        pts = set(enumerate_points(ball).points)
        assert reduce(((1, F(1, 2)), (0, 1))) in pts
        assert reduce(((1, F(-1, 2)), (0, 1))) in pts
        assert reduce(((1, 0), (F(1, 2), 1))) in pts
        assert reduce(((1, 0), (F(-1, 2), 1))) in pts
        diag = [z for z in pts if sorted((z.u[0][0], z.u[1][1])) == [1, 3]]
        assert len(diag) == 4

    def test_smaller_radius_is_empty(self):
        ball = BallSpec.make(IDENTITY, F(2, 5), 2)
        for strategy in ("oracle", "optimized"):
            assert enumerate_points(ball, strategy=strategy).count == 0
        assert count_points(ball) == 0

    def test_integral_ball_contains_identity(self):
        ball = BallSpec.make(IDENTITY, F(2), 1)
        res = enumerate_points(ball, strategy="oracle")
        assert reduce(IDENTITY) in set(res.points)


class TestStrategyEquivalence:
    def test_matrix_of_cells(self):
        # 24 cells, n up to 50, identical point lists both ways; the radius
        # shrinks with n to keep the oracle box at unit-test scale
        rng = random.Random(7)
        centers = [IDENTITY]
        for _ in range(3):
            a = F(rng.randrange(-2, 3), 4)
            b = F(rng.randrange(-2, 3), 4)
            centers.append(((1 + a, b), (F(0), 1 / (1 + a))))
        radius = {2: F(3, 5), 3: F(3, 5), 7: F(3, 5), 25: F(1, 4), 36: F(1, 5), 50: F(3, 20)}
        cells = nonempty = 0
        for center in centers:
            for n, eps in radius.items():
                ball = BallSpec.make(center, eps, n)
                fast = enumerate_points(ball, strategy="optimized")
                slow = enumerate_points(ball, strategy="oracle")
                assert flats(fast) == flats(slow)
                cells += 1
                nonempty += bool(fast.count)
        assert cells >= 20
        assert nonempty >= 10

    @pytest.mark.parametrize("n", [4, 8, 9, 12, 18, 25, 36])
    def test_gcd_filter_on_rows_sharing_a_prime_with_n(self, n):
        # the optimized scan gcd-checks only the rows with h = gcd(a, b, n) > 1;
        # the box scan checks every cell, so "both" tests the restriction
        # wherever such a row drops a solution and keeps another
        dropped = kept = 0
        for center in (IDENTITY, *BOUNDED_CENTERS[:3]):
            ball = BallSpec.make(center, F(4, n), n)
            enumerate_points(ball, strategy="both")
            for a, b, c0, dc, d0, dd, j_lo, j_hi in _scalar_rows(ball):
                h = math.gcd(a, b, n)
                if h > 1:
                    cd = [(c0 + dc * j, d0 + dd * j) for j in range(j_lo, j_hi + 1)]
                    primitive = sum(math.gcd(c, d, h) == 1 for c, d in cd)
                    dropped += primitive < len(cd)
                    kept += primitive > 0
        assert dropped and kept

    def test_both_strategy_checks_internally(self):
        ball = BallSpec.make(IDENTITY, F(1, 2), 2)
        res = enumerate_points(ball, strategy="both")
        assert res.count == 8

    def test_both_strategy_raises_on_a_mismatch(self, monkeypatch):
        ball = BallSpec.make(IDENTITY, F(1, 2), 24)
        oracle = enumeration._oracle_scan
        monkeypatch.setattr(enumeration, "_oracle_scan", lambda *args: oracle(*args)[1:])
        with pytest.raises(AssertionError, match="disagree"):
            enumerate_points(ball, strategy="both")

    def test_unknown_strategy(self):
        ball = BallSpec.make(IDENTITY, F(1, 2), 2)
        with pytest.raises(ValueError):
            enumerate_points(ball, strategy="fast")

    def test_optimized_rejects_3x3(self):
        center3 = tuple(
            tuple(F(1) if i == j else F(0) for j in range(3)) for i in range(3)
        )
        ball = BallSpec.make(center3, F(1, 2), 2)
        with pytest.raises(UnsupportedDimension):
            enumerate_points(ball, strategy="optimized")
        with pytest.raises(UnsupportedDimension):
            count_points(ball)

    def test_oracle_rejects_4x4(self):
        center4 = tuple(
            tuple(F(1) if i == j else F(0) for j in range(4)) for i in range(4)
        )
        ball = BallSpec.make(center4, F(1, 2), 2)
        with pytest.raises(UnsupportedDimension):
            enumerate_points(ball, strategy="oracle")

    def test_oracle_handles_3x3(self):
        center3 = tuple(
            tuple(F(1) if i == j else F(0) for j in range(3)) for i in range(3)
        )
        ball = BallSpec.make(center3, F(1, 2), 1)
        res = enumerate_points(ball, strategy="oracle")
        assert res.count == 1


class TestResultContract:
    def test_membership_and_denominator(self):
        for n in (2, 3, 6, 10):
            ball = BallSpec.make(IDENTITY, F(3, 4), n)
            res = enumerate_points(ball)
            for z in res.points:
                z.validate()
                assert z.v == n
                assert ball_membership(z, ball)

    def test_canonical_order_no_duplicates(self):
        ball = BallSpec.make(IDENTITY, F(3, 4), 6)
        fs = flats(enumerate_points(ball))
        assert fs == sorted(fs)
        assert len(fs) == len(set(fs))

    def test_ball_closure_monotone(self):
        small = enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 6))
        large = enumerate_points(BallSpec.make(IDENTITY, F(4, 5), 6))
        assert set(small.points) <= set(large.points)
        assert small.count <= large.count

    def test_budget_enforced(self):
        tight = dataclasses.replace(
            DEFAULT_CONFIG, oracle_cell_budget=10, optimized_row_budget=10
        )
        ball = BallSpec.make(IDENTITY, F(1, 2), 100)
        for count in (
            lambda: enumerate_points(ball, strategy="oracle", config=tight),
            lambda: enumerate_points(ball, strategy="optimized", config=tight),
            lambda: count_points(ball, tight),
        ):
            with pytest.raises(SearchSpaceTooLarge) as info:
                count()
            assert info.value.budget == 10
            assert info.value.needed > 10
            # one budget family: a caller catching BudgetExceeded catches it
            assert isinstance(info.value, BudgetExceeded)


class TestCountPoints:
    """count_points against the points the enumeration actually builds."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        center=st.sampled_from(BOUNDED_CENTERS),
        radius=st.integers(1, 16).map(lambda k: F(k, 32)),
        n=st.integers(1, 20),
    )
    def test_matches_enumeration(self, center, radius, n):
        ball = BallSpec.make(center, radius, n)
        count = count_points(ball)
        assert count == enumerate_points(ball, strategy="both").count
        assert count == scalar_count(ball)

    def test_composite_n_rejects_imprimitive_rows(self):
        # n = 12: top rows sharing a factor with n keep only the bottom rows
        # that make the point primitive, so the gcd test matters there
        ball = BallSpec.make(IDENTITY, F(1, 2), 12)
        pts = enumerate_points(ball, strategy="both").points
        assert count_points(ball) == len(pts) == 192
        assert any(math.gcd(z.u[0][0], z.u[0][1], 12) > 1 for z in pts)
        (a, b), (c, d) = entry_bounds(ball)
        solutions = sum(
            u11 * u22 - u12 * u21 == 144
            for u11, u12, u21, u22 in itertools.product(
                *(range(lo, hi + 1) for lo, hi in (a, b, c, d))
            )
        )
        assert solutions > len(pts)


# composite moduli with many top rows sharing a prime with n
COMPOSITE_N = (4, 6, 12, 30, 60, 200, 210, 1000)


# balls of entries near 10**15, with their point counts
PAST_INT64 = [(1000, F(1, 250), 4), (997, F(1, 100), 18), (210, F(1, 40), 2)]


def past_int64_ball(n, radius):
    x = 10**12
    return BallSpec.make(((F(x), F(x - 1)), (F(x + 1), F(x))), radius, n)


def _box_cells(ball):
    return math.prod(max(0, hi - lo + 1) for row in entry_bounds(ball) for lo, hi in row)


class TestArrayRowSolver:
    """The array row solver against the scalar solver and the box scan."""

    def _check(self, ball):
        scan = _optimized_scan_sl2(ball, DEFAULT_CONFIG.optimized_row_budget)
        scan = [tuple(f) for f in scan.tolist()]
        assert scan == scalar_scan(ball)  # canonical order as built
        assert count_points(ball) == len(scan) == scalar_count(ball)
        if _box_cells(ball) <= 200_000:
            assert scan == _oracle_scan(ball, DEFAULT_CONFIG.oracle_cell_budget)
        return scan

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        center=st.one_of(
            st.sampled_from(BOUNDED_CENTERS),
            st.tuples(
                *[st.integers(-16, 16).map(lambda k: F(k, 8)) for _ in range(4)]
            ).map(lambda e: ((e[0], e[1]), (e[2], e[3]))),
        ),
        n=st.one_of(st.sampled_from(COMPOSITE_N), st.integers(1, 40)),
        width=st.integers(0, 24),
    )
    def test_matches_scalar_oracle(self, center, n, width):
        # the radius keeps about 2 * width + 1 values per entry, any n
        ball = BallSpec.make(center, F(width, 2 * n) + F(1, 4 * n), n)
        self._check(ball)

    @pytest.mark.parametrize("n", COMPOSITE_N)
    def test_composite_n_has_imprimitive_rows(self, n):
        ball = BallSpec.make(IDENTITY, F(6, n), n)
        scan = self._check(ball)
        assert scan
        # rows sharing a prime with n occur, and some of their j are dropped
        assert any(math.gcd(a, b, n) > 1 for a, b, _, _ in scan)
        assert scalar_count(ball) < sum(
            max(0, j_hi - j_lo + 1) for *_, j_lo, j_hi in _scalar_rows(ball)
        )

    def test_zero_row_and_step_zero_rows(self):
        # the box holds a = b = 0 (no solution) and rows with a = 0 or b = 0,
        # whose progressions fix c or d
        ball = BallSpec.make(((F(0), F(0)), (F(0), F(0))), F(3, 2), 2)
        scan = self._check(ball)
        assert scan
        assert any(a == 0 for a, *_ in scan) and any(b == 0 for _, b, *_ in scan)
        ball = BallSpec.make(IDENTITY, F(3, 2), 6)
        assert any(0 in flat[:2] for flat in self._check(ball))

    def test_empty_boxes(self):
        # an empty entry interval, and a nonempty box without solutions
        empty = BallSpec.make(((F(1, 3), F(0)), (F(0), F(3))), F(1, 100), 2)
        assert _sl2_box(empty, 10) is None
        assert self._check(empty) == []
        assert count_points(empty) == 0
        far = BallSpec.make(((F(0), F(0)), (F(0), F(0))), F(1, 4), 2)
        assert self._check(far) == []

    @pytest.mark.parametrize("n, radius, points", PAST_INT64)
    def test_python_int_arrays_past_int64(self, n, radius, points):
        # c0 = -t * n**2 / g reaches max|entry| * n**2, past 2**62 with
        # entries near 10**15: int64 arrays would wrap silently here
        ball = past_int64_ball(n, radius)
        reach = max(abs(v) for row in entry_bounds(ball) for pair in row for v in pair)
        assert reach * n * n > 2**62
        scan = self._check(ball)
        assert len(scan) == points


def _lanes(bound):
    # zero and negative lanes are common, and both signs reach the bound
    return st.lists(
        st.tuples(
            st.sampled_from([0, 1, -1]) | st.integers(-bound, bound),
            st.sampled_from([0, 1, -1]) | st.integers(-bound, bound),
        ),
        max_size=40,
    )


class TestEgcdArrays:
    """``_egcd_arrays`` returns the scalar recurrence's (g, s, t) lane by lane."""

    def _check(self, lanes, dtype):
        a = np.array([x for x, _ in lanes], dtype=dtype)
        b = np.array([y for _, y in lanes], dtype=dtype)
        g, s, t = enumeration._egcd_arrays(a, b)
        assert g.dtype == s.dtype == t.dtype == a.dtype
        got = list(zip(g.tolist(), s.tolist(), t.tolist()))
        assert got == [_egcd(x, y) for x, y in lanes]
        assert a.tolist() == [x for x, _ in lanes]  # the inputs are not changed

    @settings(max_examples=150, deadline=None)
    @given(lanes=_lanes(2**62))
    def test_int64_lanes(self, lanes):
        # past 2**31 the product a*s leaves int64 and is taken in Python ints
        self._check(lanes, np.int64)

    @settings(max_examples=150, deadline=None)
    @given(lanes=_lanes(2**100))
    def test_python_int_lanes(self, lanes):
        self._check(lanes, object)


REACH = enumeration._BEZOUT_REACH
# entries at 0 and on both sides of the table's reach, with either sign
NEAR_REACH = (
    st.sampled_from([0, 1, -1, 2])
    | st.integers(REACH - 3, REACH + 3)
    | st.integers(-REACH - 3, -REACH + 3)
)


@st.composite
def reach_balls(draw):
    """A ball whose numerator box is 2w + 1 wide around (a, b, c, d): a and
    b near the table's reach, (c, d) a bottom row of (a, b) when one exists.
    Past n = 2**31 the rows are Python ints."""
    n = draw(st.integers(1, 40) | st.integers(2**31, 2**31 + 99))
    a, b = draw(NEAR_REACH), draw(NEAR_REACH)
    g, s, t = _egcd(a, b)
    m = n * n
    if g and m % g == 0:
        c, d = -t * (m // g), s * (m // g)
    else:
        c, d = draw(NEAR_REACH), draw(NEAR_REACH)
    w = draw(st.integers(0, 2))
    center = [[F(a, n), F(b, n)], [F(c, n), F(d, n)]]
    return BallSpec.make(center, F(4 * w + 1, 4 * n), n)


class TestBezoutTable:
    """Top rows within the reach read (g, s, t) from ``_bezout_table``;
    ``_egcd_arrays`` is its oracle and solves every other block."""

    def test_table_is_the_loop_on_every_pair(self):
        side = REACH + 1
        a = np.repeat(np.arange(side, dtype=np.int64), side)
        b = np.tile(np.arange(side, dtype=np.int64), side)
        table = enumeration._bezout_table()
        assert table.dtype == np.int16 and not table.flags.writeable
        assert np.array_equal(table, np.stack(enumeration._egcd_arrays(a, b)))

    @settings(max_examples=150, deadline=None)
    @given(lanes=_lanes(REACH + 88))
    def test_signed_lanes_give_a_bezout_pair(self, lanes):
        a = np.array([x for x, _ in lanes] or [0], dtype=np.int64)
        b = np.array([y for _, y in lanes] or [0], dtype=np.int64)
        g, s, t = enumeration._bezout(a, b)
        assert g.dtype == s.dtype == t.dtype == np.int64
        assert np.array_equal(g, enumeration._egcd_arrays(a, b)[0])
        assert np.array_equal(a * s + b * t, g)

    def test_blocks_past_the_reach_run_the_loop(self, monkeypatch):
        enumeration._bezout_table()  # built by the loop before the count
        calls = []
        loop = enumeration._egcd_arrays
        monkeypatch.setattr(enumeration, "_egcd_arrays", lambda a, b: calls.append(a) or loop(a, b))
        monkeypatch.setattr(enumeration, "_ROW_BLOCK", 5)
        # a in [510, 514], b in [-1, 3]: one block of five rows per a
        ball = BallSpec.make([[F(512), F(1)], [F(0), F(1, 512)]], F(9, 4), 1)
        assert entry_bounds(ball)[0] == [(510, 514), (-1, 3)]
        assert count_points(ball) == len(scalar_scan(ball))
        assert sorted(int(a.max()) for a in calls) == [513, 514]

    @settings(max_examples=120, deadline=None)
    @given(ball=reach_balls(), block=st.sampled_from([1, 3, 4096]))
    def test_boxes_across_the_reach(self, ball, block):
        # small blocks put rows on both sides of the reach in one box, some
        # read from the table and some solved by the loop
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_ROW_BLOCK", block)
            result = enumerate_points(ball, strategy="both")
            assert count_points(ball) == result.count == len(result.points)
        assert flats(result) == scalar_scan(ball)

    def test_table_is_built_on_first_use(self):
        src = str(Path(enumeration.__file__).parents[1])
        code = (
            "from slnapprox import core, enumeration as e\n"
            "built = [e._bezout_table.cache_info().currsize]\n"
            "e.count_points(core.BallSpec.make(((1, 0), (0, 1)), '1/1000', 700))\n"
            "built.append(e._bezout_table.cache_info().currsize)\n"
            "e.count_points(core.BallSpec.make(((1, 0), (0, 1)), '1/2', 24))\n"
            "built.append(e._bezout_table.cache_info().currsize)\n"
            "print(built)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # past the reach the loop runs, and the table waits for a row within
        assert proc.stdout == "[0, 0, 1]\n"


class TestEntryBounds:
    def test_exact_closed_intervals(self):
        ball = BallSpec.make(IDENTITY, F(1, 2), 2)
        assert entry_bounds(ball) == [
            [(1, 3), (-1, 1)],
            [(-1, 1), (1, 3)],
        ]


class TestCountTable:
    """Point counts over a list of moduli, read from counting_verification."""

    def test_fixed_epsilon_rows(self):
        rows = counting_verification([IDENTITY], [2, 3, 5], F(1, 2)).rows
        assert [r.T for r in rows] == [8, 8, 16]
        assert all(r.skipped is None for r in rows)
        assert all(r.epsilon == F(1, 2) for r in rows)
        # counts ordered like the finite volumes 6, 12, 30
        assert rows[0].T <= rows[1].T <= rows[2].T

    def test_integral_count_is_one(self):
        rows = counting_verification([IDENTITY], [1], F(1, 2)).rows
        assert rows[0].T == 1

    def test_empty_n_list(self):
        rep = counting_verification([IDENTITY], [], F(1, 2))
        assert rep.rows == ()
        assert rep.spread is None

    def test_skipped_rows_marked(self):
        tight = dataclasses.replace(DEFAULT_CONFIG, optimized_row_budget=10)
        rows = counting_verification([IDENTITY], [2, 1000], F(1, 2), config=tight).rows
        assert rows[0].T == 8
        assert rows[1].T is None
        assert "budget" in rows[1].skipped


def elementary_walk(n_dim, n, steps):
    """Points of the walk through products of elementary matrices 1 + (k/n) e_ij:
    group points of denominator dividing a power of n, with entries past 64
    bits."""
    pts = []
    m = identity_matrix(n_dim)
    for i, j, k in steps:
        i, j = i % n_dim, j % n_dim
        if i == j:
            continue
        e = [[F(int(r == c)) for c in range(n_dim)] for r in range(n_dim)]
        e[i][j] = F(k, n)
        m = mat_mul(m, e)
        pts.append(reduce(m))
    return pts


ELEMENTARY_STEPS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-(10**20), 10**20)),
    max_size=6,
)


def point_result(pts, n_dim):
    ball = BallSpec.make(identity_matrix(n_dim), F(1, 2), 1)
    return EnumerationResult(
        points=PointRows.from_points(pts, n_dim), count=len(pts), ball=ball,
        strategy="oracle", elapsed_ms=0.0,
    )


def per_line_oracle(text):
    """The point of every nonblank line with a "u" key, one line at a time;
    a line that is not a JSON object goes to the point parser too."""
    pts = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        if not isinstance(d, dict) or "u" in d:
            pts.append(RationalGroupPoint.from_json(line))
    return pts


GOOD = '{"n_dim":2,"u":[["1","-1"],["1","3"]],"v":"2"}'
SUMMARY = '{"count":1,"elapsed_ms":0.5,"strategy":"optimized"}'

# point files broken in one place each; every line of the last is malformed
# on its own, although joined into one array they would parse
CORRUPT_FILES = {
    "bad-json": [GOOD, '{"n_dim":2,"u":[["1","-1"],["1","3"]],"v":"2"', SUMMARY],
    "not-object": [GOOD, "[1, 2]", SUMMARY],
    "missing-v": [GOOD, '{"n_dim":2,"u":[["1","-1"],["1","3"]]}', SUMMARY],
    "missing-n_dim": ['{"u":[["1","-1"],["1","3"]],"v":"2"}', SUMMARY],
    "string-row": ['{"n_dim":2,"u":[["1","-1"],"3"],"v":"2"}', SUMMARY],
    "string-entry": ['{"n_dim":2,"u":[["1","x"],["1","3"]],"v":"2"}', SUMMARY],
    "wrong-shape": ['{"n_dim":2,"u":[["1","-1","0"],["1","3","0"]],"v":"2"}', SUMMARY],
    "det-not-v-power": ['{"n_dim":2,"u":[["1","0"],["0","3"]],"v":"2"}', SUMMARY],
    "shared-factor": ['{"n_dim":2,"u":[["2","0"],["0","2"]],"v":"2"}', SUMMARY],
    "two-objects": [GOOD + GOOD, SUMMARY],
    "split-record": [GOOD + ", " + GOOD, '{"x":[1', "2]}"],
    # forms that int() would read as a valid point (LENIENT_READINGS)
    "string-row-digits": [GOOD, '{"n_dim":2,"u":[["1","-1"],"13"],"v":"2"}', SUMMARY],
    "float-entry": [GOOD, '{"n_dim":2,"u":[[1.9,"-1"],["1","3"]],"v":"2"}', SUMMARY],
    "float-v": [GOOD, '{"n_dim":2,"u":[["1","-1"],["1","3"]],"v":2.5}', SUMMARY],
    "bool-entry": [GOOD, '{"n_dim":2,"u":[[true,"-1"],["1","3"]],"v":"2"}', SUMMARY],
    "signed-spaced-entry": [GOOD, '{"n_dim":2,"u":[["1","-1"],["1"," +3"]],"v":"2"}', SUMMARY],
    "underscore-entry": [GOOD, '{"n_dim":2,"u":[["1","0"],["1_0","4"]],"v":"2"}', SUMMARY],
}

# the valid point each lenient form reads as under int()
LENIENT_READINGS = {
    "string-row-digits": GOOD,
    "float-entry": GOOD,
    "float-v": GOOD,
    "bool-entry": GOOD,
    "signed-spaced-entry": GOOD,
    "underscore-entry": '{"n_dim":2,"u":[["1","0"],["10","4"]],"v":"2"}',
}


def oracle_exception(text):
    try:
        per_line_oracle(text)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return exc
    raise AssertionError("the oracle accepted a corrupt file")


def oracle_error(text):
    return type(oracle_exception(text))


class TestJsonl:
    def test_round_trip_with_summary(self):
        ball = BallSpec.make(IDENTITY, F(1, 2), 2)
        res = enumerate_points(ball)
        buf = io.StringIO()
        write_jsonl(res, buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 9
        assert '"count":8' in lines[-1]
        assert '"strategy":"optimized"' in lines[-1]
        buf.seek(0)
        assert list(read_jsonl_points(buf)) == list(res.points)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        n_dim=st.sampled_from([2, 3]),
        n=st.integers(1, 60),
        steps=ELEMENTARY_STEPS,
    )
    def test_round_trip_random_points(self, n_dim, n, steps):
        pts = elementary_walk(n_dim, n, steps)
        buf = io.StringIO()
        write_jsonl(point_result(pts, n_dim), buf)
        buf.seek(0)
        assert list(read_jsonl_points(buf)) == pts

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        n_dim=st.sampled_from([1, 2, 3]),
        walks=st.lists(st.tuples(st.integers(1, 60), ELEMENTARY_STEPS), max_size=3),
    )
    def test_writer_matches_json_dumps(self, n_dim, walks):
        # the identity (v = 1) first, then walks of several denominators
        pts = [reduce(identity_matrix(n_dim))]
        for n, steps in walks:
            pts += elementary_walk(n_dim, n, steps)
        buf = io.StringIO()
        write_jsonl(point_result(pts, n_dim), buf)
        lines = buf.getvalue().split("\n")
        assert lines[-1] == ""
        assert lines[:-2] == [
            json.dumps(z.to_json_dict(), separators=(",", ":")) for z in pts
        ]
        assert lines[:-2] == [z.to_json() for z in pts]
        assert lines[-2] == '{"count":%d,"elapsed_ms":0.0,"strategy":"oracle"}' % len(pts)

    def test_writer_writes_bounded_blocks(self):
        pts = [reduce(identity_matrix(2))] * (2 * _LINE_BLOCK + 1)
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        write_jsonl(point_result(pts, 2), Sink())
        assert [w.count("\n") for w in writes] == [_LINE_BLOCK, _LINE_BLOCK, 1, 1]
        assert "".join(writes).count(pts[0].to_json() + "\n") == len(pts)

    def test_reader_skips_blank_lines_and_summary(self):
        line = reduce(identity_matrix(2)).to_json()
        text = f"\n  {line}  \n\t\n{line}\n" + '{"count":2,"elapsed_ms":1.0,"strategy":"x"}\n'
        assert list(read_jsonl_points(io.StringIO(text))) == per_line_oracle(text)
        assert len(per_line_oracle(text)) == 2


class TestRowsThroughPath:
    """The rows of ``enumerate_points`` come back from ``write_jsonl`` and
    ``read_jsonl_points`` equal, in the same dtype."""

    def round_trip(self, res):
        buf = io.StringIO()
        write_jsonl(res, buf)
        buf.seek(0)
        back = read_jsonl_points(buf)
        assert back.n_dim == res.points.n_dim
        assert back.rows.dtype == res.points.rows.dtype
        assert np.array_equal(back.rows, res.points.rows)
        return back.rows.dtype

    def test_cell(self):
        res = enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 24))
        assert self.round_trip(res) == np.int64 and res.count == 698

    @pytest.mark.parametrize("n, radius, points", PAST_INT64)
    def test_past_int64(self, n, radius, points):
        res = enumerate_points(past_int64_ball(n, radius))
        assert self.round_trip(res) == object and res.count == points

    def test_sl3_oracle(self):
        ball = BallSpec.make(identity_matrix(3), F(1, 2), 2)
        res = enumerate_points(ball, strategy="oracle")
        assert self.round_trip(res) == np.int64 and res.count == 1206

    @pytest.mark.parametrize(
        "ball",
        [
            BallSpec.make(((F(1, 3), F(0)), (F(0), F(3))), F(1, 100), 2),
            # an empty box at n past int64
            BallSpec.make(((F(1, 2), F(0)), (F(0), F(2))), F(1, 2**73), 2**70 + 1),
            BallSpec.make(identity_matrix(3), F(1, 100), 3),
        ],
    )
    def test_empty_ball(self, ball):
        res = enumerate_points(ball, strategy="optimized" if ball.n_dim == 2 else "oracle")
        assert res.points.n_dim == ball.n_dim and res.count == 0
        assert res.points.rows.shape == (0, ball.n_dim**2 + 1)
        buf = io.StringIO()
        write_jsonl(res, buf)
        assert buf.getvalue().count("\n") == 1 and buf.getvalue().startswith('{"count":0,')


class TestReaderOracle:
    def test_cell_matches_per_line_parse(self):
        buf = io.StringIO()
        write_jsonl(enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 24)), buf)
        text = buf.getvalue()
        pts = read_jsonl_points(io.StringIO(text))
        assert len(pts) == 698
        assert list(pts) == per_line_oracle(text)

    @pytest.mark.parametrize("name", sorted(CORRUPT_FILES))
    def test_corrupt_file_raises_like_oracle(self, name):
        text = "\n".join(CORRUPT_FILES[name]) + "\n"
        expected = oracle_error(text)
        with pytest.raises(expected) as info:
            read_jsonl_points(io.StringIO(text))
        assert type(info.value) is expected

    @pytest.mark.parametrize("name", sorted(CORRUPT_FILES))
    def test_corrupt_file_exits_invalid(self, name, tmp_path, capsys):
        path = tmp_path / "points.jsonl"
        path.write_text("\n".join(CORRUPT_FILES[name]) + "\n")
        code = cli.main(["sieve", "--points", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert err.startswith("invalid parameters:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(LENIENT_READINGS))
    def test_lenient_forms_are_rejected_for_their_type_only(self, name):
        # int() reads the rejected line as a valid point
        line = CORRUPT_FILES[name][1]
        d = json.loads(line)
        u = tuple(tuple(map(int, row)) for row in d["u"])
        lenient = RationalGroupPoint(u=u, v=int(d["v"]), n_dim=int(d["n_dim"]))
        lenient.validate()
        assert lenient == RationalGroupPoint.from_json(LENIENT_READINGS[name])
        with pytest.raises(ValueError):
            RationalGroupPoint.from_json(line)

    @pytest.mark.parametrize(
        "lines,expected,same_message",
        [
            ([GOOD, CORRUPT_FILES["det-not-v-power"][0], CORRUPT_FILES["bad-json"][1]],
             NotUnimodular, True),
            ([GOOD, CORRUPT_FILES["bad-json"][1], CORRUPT_FILES["det-not-v-power"][0]],
             json.JSONDecodeError, True),
            ([GOOD, CORRUPT_FILES["shared-factor"][0], "[1, 2]"], ValueError, True),
            # the reader names a line that is no object; the oracle, its keys
            ([GOOD, "[1, 2]", CORRUPT_FILES["shared-factor"][0]], ValueError, False),
            ([GOOD, '{"n_dim":2,"u":[["1","0"],["0","1"]],"v":"0"}', SUMMARY],
             ValueError, True),
            ([GOOD, '{"n_dim":2,"u":[["-1","0"],["0","-1"]],"v":"-1"}', SUMMARY],
             ValueError, True),
        ],
        ids=["det-before-bad-json", "bad-json-before-det", "factor-before-array",
             "array-before-factor", "zero-v", "negative-v"],
    )
    def test_first_bad_line_of_the_file_raises(self, lines, expected, same_message):
        # canonical lines wait in a block; they are checked before the next
        # line that is not canonical is parsed
        text = "\n".join(lines) + "\n"
        want = oracle_exception(text)
        assert type(want) is expected
        with pytest.raises(expected) as info:
            read_jsonl_points(io.StringIO(text))
        assert type(info.value) is expected
        assert (str(info.value) == str(want)) is same_message

    def test_bad_line_deep_in_a_large_file(self):
        # a det-bad canonical line in the third block, after non-canonical lines
        buf = io.StringIO()
        write_jsonl(enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 197)), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) > 2 * _LINE_BLOCK + 100
        lines[5] = json.dumps(json.loads(lines[5]))
        lines[_LINE_BLOCK + 7] = "  " + json.dumps(json.loads(lines[_LINE_BLOCK + 7])) + "\t"
        text = "\n".join(lines) + "\n"
        pts = read_jsonl_points(io.StringIO(text))
        assert pts.rows.dtype == np.int64 and pts.rows.shape == (len(lines) - 1, 5)
        assert list(pts) == per_line_oracle(text)
        lines[2 * _LINE_BLOCK + 50] = CORRUPT_FILES["det-not-v-power"][0].replace('"2"}', '"197"}')
        text = "\n".join(lines) + "\n"
        want = oracle_exception(text)
        with pytest.raises(NotUnimodular) as info:
            read_jsonl_points(io.StringIO(text))
        assert str(info.value) == str(want)

    def test_mixed_n_dim_exits_invalid(self, tmp_path, capsys):
        line3 = reduce(identity_matrix(3)).to_json()
        for lines in ([GOOD, line3, SUMMARY], [line3, GOOD], [GOOD, json.dumps(json.loads(line3))]):
            text = "\n".join(lines) + "\n"
            with pytest.raises(ValueError, match="n_dim"):
                read_jsonl_points(io.StringIO(text))
            path = tmp_path / "points.jsonl"
            path.write_text(text)
            for extra in ([], ["-n", "2"]):
                assert cli.main(["sieve", "--points", str(path), *extra]) == EXIT_INVALID
                assert "Traceback" not in capsys.readouterr().err


def walk_lines(n_dim, count):
    """``count`` canonical lines, cycling through the points of one walk."""
    rng = random.Random(n_dim)
    steps = [(rng.randrange(3), rng.randrange(3), rng.randrange(-40, 41)) for _ in range(6)]
    pool = [reduce(identity_matrix(n_dim))] + elementary_walk(n_dim, 7, steps)
    return [pool[i % len(pool)].to_json() for i in range(count)]


def read_like_oracle(text):
    pts = read_jsonl_points(io.StringIO(text))
    assert list(pts) == per_line_oracle(text)
    return pts


class TestReaderBlocks:
    """After the first record, the canonical lines at the start of each
    chunk of ``_LINE_BLOCK`` lines are read as one block."""

    @pytest.mark.parametrize(
        "at",
        [(_LINE_BLOCK,), (2 * _LINE_BLOCK - 1,), (2 * _LINE_BLOCK - 1, 2 * _LINE_BLOCK)],
        ids=["chunk-first", "chunk-last", "across-chunks"],
    )
    def test_non_canonical_lines(self, at):
        lines = walk_lines(2, 3 * _LINE_BLOCK + 5)
        for i in at:
            lines[i] = json.dumps(json.loads(lines[i]))
        pts = read_like_oracle("\n".join(lines) + "\n" + SUMMARY + "\n")
        assert len(pts) == len(lines) and pts.rows.dtype == np.int64

    def test_long_entries_come_back_exact(self):
        # 18 digits fit the block pattern; 19 and 20 take the line path,
        # where np.fromstring would saturate at the int64 limit
        lines = walk_lines(2, 3 * _LINE_BLOCK)
        big = {_LINE_BLOCK + 10: 10**18 - 1, 2 * _LINE_BLOCK + 10: -(10**19 - 1),
               2 * _LINE_BLOCK + 11: 10**19 + 3}
        for i, b in big.items():
            lines[i] = RationalGroupPoint(u=((1, b), (0, 1)), v=1, n_dim=2).to_json()
        pts = read_like_oracle("\n".join(lines) + "\n")
        assert pts.rows.dtype == object
        for i, b in big.items():
            assert pts.rows[i].tolist() == [1, b, 0, 1, 1]

    def test_line_ends(self):
        # a last line with no newline, and CRLF line ends
        lines = walk_lines(2, 2 * _LINE_BLOCK + 3)
        for text in ("\n".join(lines), "\r\n".join(lines) + "\r\n"):
            assert len(read_like_oracle(text)) == len(lines)

    def test_summary_mid_chunk(self):
        lines = walk_lines(2, 3 * _LINE_BLOCK)
        lines.insert(_LINE_BLOCK + 100, SUMMARY)
        lines.insert(2 * _LINE_BLOCK + 100, "")
        assert len(read_like_oracle("\n".join(lines) + "\n")) == 3 * _LINE_BLOCK

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_files_past_two_chunks(self, n_dim, monkeypatch):
        # every chunk after the first, which fixes n_dim, is one block
        lines = walk_lines(n_dim, 2 * _LINE_BLOCK + 17)
        read = []
        fromstring = np.fromstring

        def spy(text, *args, **kwargs):
            read.append(text.count("\n"))
            return fromstring(text, *args, **kwargs)

        monkeypatch.setattr(np, "fromstring", spy)
        pts = read_like_oracle("\n".join(lines) + "\n" + SUMMARY + "\n")
        assert pts.n_dim == n_dim and len(pts) == len(lines)
        assert read == [_LINE_BLOCK, 17]

    @pytest.mark.parametrize(
        "bad",
        [CORRUPT_FILES["det-not-v-power"][0], CORRUPT_FILES["shared-factor"][0],
         '{"n_dim":2,"u":[["1","0"],["0","1"]],"v":"0"}'],
        ids=["det", "shared-factor", "zero-v"],
    )
    def test_bad_line_in_a_block_raises_like_oracle(self, bad):
        lines = walk_lines(2, 3 * _LINE_BLOCK)
        lines[_LINE_BLOCK + 5] = bad
        lines[2 * _LINE_BLOCK + 5] = "[1, 2]"
        text = "\n".join(lines) + "\n"
        want = oracle_exception(text)
        with pytest.raises(type(want)) as info:
            read_jsonl_points(io.StringIO(text))
        assert type(info.value) is type(want) and str(info.value) == str(want)


def render_point_line(z, style):
    """One valid JSON line of z: canonical, or one of the forms only the
    general path reads."""
    d = z.to_json_dict()
    if style == "canonical":
        return z.to_json()
    if style == "spaced":
        return json.dumps(d)
    if style == "ints":
        return json.dumps({"n_dim": z.n_dim, "u": [list(r) for r in z.u], "v": z.v})
    if style == "reordered":
        return json.dumps({"v": d["v"], "u": d["u"], "n_dim": d["n_dim"]}, separators=(",", ":"))
    if style == "padded":
        return " \t" + z.to_json() + "  "
    raise ValueError(style)


LINE_STYLES = ("canonical", "canonical", "canonical", "spaced", "ints", "reordered", "padded")

# entries around 2**31, where 2x2 rows leave int64, and past 2**63
READER_STEPS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 2),
        st.one_of(st.integers(-3, 3), st.integers(-(2**33), 2**33), st.integers(-(10**25), 10**25)),
    ),
    max_size=4,
)


class TestPointRows:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        n_dim=st.sampled_from([1, 2, 3]),
        n=st.integers(1, 60),
        steps=READER_STEPS,
        layout=st.lists(
            st.tuples(st.sampled_from(LINE_STYLES + ("blank", "summary")), st.integers(0, 99)),
            max_size=24,
        ),
    )
    def test_reader_matches_per_line_oracle(self, n_dim, n, steps, layout):
        pool = [reduce(identity_matrix(n_dim))] + elementary_walk(n_dim, n, steps)
        lines = []
        for style, k in layout:
            if style == "blank":
                lines.append(" " * (k % 3))
            elif style == "summary":
                lines.append(SUMMARY)
            else:
                lines.append(render_point_line(pool[k % len(pool)], style))
        text = "\n".join(lines) + "\n"
        expected = per_line_oracle(text)
        pts = read_jsonl_points(io.StringIO(text))
        assert list(pts) == expected
        assert len(pts) == len(expected)
        if expected:
            b = max(abs(e) for z in expected for e in (*z.flat_numerator(), z.v))
            small = math.factorial(n_dim) * b**n_dim < 2**63
            assert pts.n_dim == n_dim
            assert pts.rows.dtype == (np.int64 if small else object)
        else:
            assert pts.n_dim is None and pts.rows.shape[0] == 0

    def test_int64_bound_is_exact(self):
        # 2! * B**2 < 2**63 exactly when B <= 2**31 - 1 for 2x2 rows
        for b, dtype in ((2**31 - 1, np.int64), (2**31, object)):
            rows = point_row_array([(b, 0, 0, 1, 1)], 2)
            assert rows.dtype == dtype
            assert rows.tolist() == [[b, 0, 0, 1, 1]]
        assert point_row_array([("-9223372036854775809", "1")], 1).dtype == object
        assert point_row_array([], 3).shape == (0, 10)

    def test_blocks_of_both_kinds_concatenate_as_python_ints(self):
        big = elementary_walk(2, 5, [(0, 1, 10**20)])[-1]
        small = reduce(identity_matrix(2))
        text = (small.to_json() + "\n") * (_LINE_BLOCK + 1) + big.to_json() + "\n"
        pts = read_jsonl_points(io.StringIO(text))
        assert pts.rows.dtype == object
        assert pts[-1] == big and pts[0] == small == pts[_LINE_BLOCK]

    @pytest.mark.parametrize(
        "ball, dtype",
        [
            (BallSpec.make(IDENTITY, F(1, 2), 24), np.int64),
            (past_int64_ball(1000, F(1, 250)), object),
        ],
    )
    def test_equal_by_value(self, ball, dtype):
        res, again = enumerate_points(ball), enumerate_points(ball)
        assert res.points.rows.dtype == dtype and res.points is not again.points
        assert res.points == again.points and hash(res.points) == hash(again.points)
        assert dataclasses.replace(res, elapsed_ms=0.0) == dataclasses.replace(
            again, elapsed_ms=0.0
        )
        assert hash(res) == hash(dataclasses.replace(res))
        # on the cell an int64 block equals an object block of the same ints
        as_object = PointRows(2, res.points.rows.astype(object))
        assert as_object == res.points and hash(as_object) == hash(res.points)
        changed = res.points.rows.copy()
        changed[-1, 0] += 1
        assert PointRows(2, changed) != res.points
        assert PointRows(2, res.points.rows[1:]) != res.points
        assert PointRows(3, res.points.rows) != res.points

    def test_sequence_of_points_built_on_demand(self):
        res = enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 24))
        rows = PointRows.from_points(res.points, 2)
        assert len(rows) == 698 and rows.n_dim == 2
        assert rows[0] == res.points[0] and rows[-1] == res.points[-1]
        assert rows[3:6] == list(res.points[3:6])
        assert list(rows) == list(res.points) == [rows[i] for i in range(len(rows))]
        assert res.points[9] in rows
        with pytest.raises(IndexError):
            rows[698]
        with pytest.raises(ValueError):
            rows.rows[0, 0] = 5
