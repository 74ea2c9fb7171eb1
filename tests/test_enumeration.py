"""Point enumeration: oracle vs optimized, frozen cells, JSONL round trip."""

import dataclasses
import io
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slnapprox.config import DEFAULT_CONFIG
from slnapprox.core import BallSpec, ball_membership, identity_matrix, mat_mul, reduce
from slnapprox.engine import BOUNDED_CENTERS, counting_verification
from slnapprox.enumeration import (
    EnumerationResult,
    count_points,
    entry_bounds,
    enumerate_points,
    read_jsonl_points,
    write_jsonl,
)
from slnapprox.errors import SearchSpaceTooLarge, UnsupportedDimension

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
    return [z.flat_numerator() for z in result.points]


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

    def test_both_strategy_checks_internally(self):
        ball = BallSpec.make(IDENTITY, F(1, 2), 2)
        res = enumerate_points(ball, strategy="both")
        assert res.count == 8

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
                assert z.den == n
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
        assert count_points(ball) == enumerate_points(ball, strategy="both").count

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
        assert read_jsonl_points(buf) == list(res.points)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        n_dim=st.sampled_from([2, 3]),
        n=st.integers(1, 60),
        steps=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-(10**20), 10**20)),
            max_size=6,
        ),
    )
    def test_round_trip_random_points(self, n_dim, n, steps):
        # products of elementary matrices 1 + (k/n) e_ij: group points of
        # denominator dividing a power of n, with entries past 64 bits
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
        ball = BallSpec.make(identity_matrix(n_dim), F(1, 2), n)
        res = EnumerationResult(
            points=tuple(pts), count=len(pts), ball=ball, strategy="oracle", elapsed_ms=0.0
        )
        buf = io.StringIO()
        write_jsonl(res, buf)
        buf.seek(0)
        assert read_jsonl_points(buf) == pts
