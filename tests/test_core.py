"""Exact arithmetic layer: reduction, norms, ball membership, polynomials."""

import bisect
import copy
import dataclasses
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slnapprox
from slnapprox import core
from slnapprox.core import (
    PRIME_SEGMENT,
    BallSpec,
    PointRows,
    Polynomial,
    PolynomialFamily,
    RationalGroupPoint,
    ball_membership,
    complete_factorization,
    FAMILY_PRESETS,
    family_from_file,
    family_from_preset,
    identity_matrix,
    mat_det,
    n_coprime_part,
    padic_norm,
    prime_factorization,
    primes_below,
    reduce,
    snap_dyadic,
)
from slnapprox.enumeration import enumerate_points
from slnapprox.errors import BudgetExceeded, NotUnimodular

from monomial_oracle import monomial_value

F = Fraction

IDENTITY = ((F(1), F(0)), (F(0), F(1)))


def random_point(rng, n=None, size=8):
    """A random denominator-n group point built from unipotent factors."""
    if n is None:
        n = rng.choice([1, 2, 3, 4, 6, 10])
    upper = ((1, F(rng.randrange(1, size), n)), (0, 1))
    lower = ((1, 0), (F(rng.randrange(1, size), n), 1))
    a = reduce(upper)
    b = reduce(lower)
    return a.mul(b)


def fraction_oracle(fam, z):
    """f_1(z) * ... * f_t(z) over Fractions, straight from the monomials."""
    x = [e for row in z.entries() for e in row]
    out = F(1)
    for poly in fam.polys:
        out *= sum(
            c * math.prod(xi**e for xi, e in zip(x, exps))
            for exps, c in poly.monomials
        )
    return out


def leibniz_det(m):
    """Oracle: the signed sum over permutations of products of entries."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


class TestMatDet:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([2, 3, 4]).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.integers(-(10**20), 10**20) | st.fractions(max_denominator=60),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_matches_leibniz(self, m):
        # 2x2 and 3x3 are written out; 4x4 expands into 3x3 minors
        assert mat_det(m) == leibniz_det(m)
        assert mat_det(tuple(map(tuple, m))) == leibniz_det(m)


class TestReduce:
    def test_identity(self):
        z = reduce(IDENTITY)
        assert z.v == 1
        assert z.u == ((1, 0), (0, 1))

    def test_half_unipotent(self):
        z = reduce(((1, F(1, 2)), (0, 1)))
        assert z.u == ((2, 1), (0, 2))
        assert z.v == 2

    def test_denominator_six(self):
        z = reduce(((F(1, 6), 1), (F(5, 6), 11)))
        assert z.u == ((1, 6), (5, 66))
        assert z.v == 6

    def test_rejects_wrong_determinant(self):
        with pytest.raises(NotUnimodular) as info:
            reduce(((1, 0), (0, 2)))
        assert info.value.determinant == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            reduce(((1, 0, 0), (0, 1, 0)))

    def test_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(50):
            z = random_point(rng)
            back = reduce(z.entries())
            assert back == z

    def test_validate_accepts_reduced(self):
        reduce(((F(1, 6), 1), (F(5, 6), 11))).validate()

    def test_validate_rejects_shared_factor(self):
        bad = RationalGroupPoint(u=((2, 0), (0, 2)), v=2, n_dim=2)
        with pytest.raises(ValueError):
            bad.validate()


class TestPadicNorm:
    def test_identity_is_unit(self):
        z = reduce(IDENTITY)
        assert padic_norm(z, 7) == 1

    def test_half_point(self):
        z = reduce(((1, F(1, 2)), (0, 1)))
        assert padic_norm(z, 2) == 2
        assert padic_norm(z, 3) == 1

    def test_denominator_six_point(self):
        z = reduce(((F(1, 6), 1), (F(5, 6), 11)))
        assert padic_norm(z, 3) == 3
        assert padic_norm(z, 2) == 2

    def test_norm_product_recovers_denominator(self):
        rng = random.Random(2)
        for _ in range(50):
            z = random_point(rng)
            prod = 1
            rest = z.v
            p = 2
            while rest > 1:
                if rest % p == 0:
                    prod *= padic_norm(z, p)
                    while rest % p == 0:
                        rest //= p
                p += 1 if p == 2 else 2
            assert prod == z.v


class TestGroupStructure:
    def test_product_denominator_divides(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_point(rng)
            b = random_point(rng)
            assert (a.v * b.v) % a.mul(b).v == 0

    def test_distance_symmetric(self):
        rng = random.Random(4)
        for _ in range(30):
            a = random_point(rng)
            b = random_point(rng)
            assert a.distance_to(b.entries()) == b.distance_to(a.entries())

    def test_distance_triangle(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_point(rng)
            b = random_point(rng)
            c = random_point(rng)
            ab = a.distance_to(b.entries())
            bc = b.distance_to(c.entries())
            ac = a.distance_to(c.entries())
            assert ac <= ab + bc


class TestBallMembership:
    def test_identity_in_tiny_ball(self):
        z = reduce(IDENTITY)
        ball = BallSpec.make(IDENTITY, F(1, 10), 1)
        assert ball_membership(z, ball)

    def test_half_point_on_boundary(self):
        z = reduce(((1, F(1, 2)), (0, 1)))
        ball = BallSpec.make(IDENTITY, F(1, 2), 2)
        assert ball_membership(z, ball)

    def test_wrong_modulus_fails(self):
        z = reduce(((1, F(1, 2)), (0, 1)))
        ball = BallSpec.make(IDENTITY, F(1, 2), 4)
        assert not ball_membership(z, ball)

    def test_huge_radius_needs_integrality(self):
        ball = BallSpec.make(IDENTITY, F(10**6), 1)
        assert ball_membership(reduce(IDENTITY), ball)
        assert not ball_membership(reduce(((1, F(1, 2)), (0, 1))), ball)

    def test_unnormalized_point_raises_under_optimize(self):
        # the invariant check must survive python -O, which strips assert
        code = (
            "from slnapprox.core import BallSpec, RationalGroupPoint, ball_membership\n"
            "z = RationalGroupPoint(u=((2, 0), (0, 2)), v=2, n_dim=2)\n"
            "ball_membership(z, BallSpec.make(((1, 0), (0, 1)), 0.5, 2))\n"
        )
        src = str(Path(slnapprox.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode != 0
        assert "AssertionError" in proc.stderr

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            BallSpec.make(IDENTITY, F(1, 2), 0)


# polynomials in the entries of a 2x2 matrix: exponents up to 3, negative
# coefficients, and a constant member when the all-zero exponent is drawn alone
MONOMIALS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4),
    st.integers(-(10**6), 10**6).filter(bool),
    min_size=1, max_size=5,
)


class TestPolynomials:
    def test_entry_family_on_identity(self):
        fam = family_from_preset("entry11")
        assert math.prod(fam.values(reduce(IDENTITY))) == 1

    def test_entry_family_reads_corner(self):
        fam = family_from_preset("entry11")
        z = reduce(((F(1, 6), 1), (F(5, 6), 11)))
        assert math.prod(fam.values(z)) == 1  # 6 * (1/6)

    def test_two_member_product(self):
        fam = PolynomialFamily(
            polys=(Polynomial.entry(0, 0), Polynomial.entry(1, 1)), n_dim=2
        )
        z = reduce(((1, F(1, 2)), (0, 1)))
        assert fam.values(z) == (2, 2)
        assert math.prod(fam.values(z)) == 4  # 2**2 * (1 * 1)
        assert fam.t == 2
        assert fam.total_degree == 2

    def test_numerator_evaluation_is_integral(self):
        z = reduce(((F(1, 6), 1), (F(5, 6), 11)))
        expected_values = {"entry11": 1, "trace-minus-2": 55, "sum-entries": 78}
        for name, expected in expected_values.items():
            vals = family_from_preset(name).values(z)
            assert vals == (expected,)
            assert type(vals[0]) is int

    def test_trace_minus_two_kills_unipotents(self):
        fam = family_from_preset("trace-minus-2")
        assert math.prod(fam.values(reduce(((1, F(1, 2)), (0, 1))))) == 0
        z = reduce(((F(1, 6), 1), (F(5, 6), 11)))
        # homogenized: 1 + 66 - 2 * 6, i.e. 6 * (1/6 + 11 - 2)
        assert math.prod(fam.values(z)) == 55

    @pytest.mark.parametrize("n", [6, 12])
    def test_values_match_fraction_oracle(self, n):
        mixed = PolynomialFamily(
            polys=(
                Polynomial.from_monomials(
                    {(2, 0, 0, 0): 1, (0, 1, 0, 0): 3, (0, 0, 0, 0): -5}, 2
                ),
                Polynomial.trace_minus(2),
            ),
            n_dim=2,
        )
        families = [family_from_preset(name) for name in FAMILY_PRESETS] + [mixed]
        points = enumerate_points(BallSpec.make(IDENTITY, F(1, 2), n)).points
        assert points
        for fam in families:
            for z in points:
                assert math.prod(fam.values(z)) == (
                    z.v**fam.total_degree * fraction_oracle(fam, z)
                )

    @settings(max_examples=100, deadline=None)
    @given(
        mono=st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * 4),
            st.integers(-(10**20), 10**20).filter(bool),
            min_size=1, max_size=5,
        ),
        q=st.sampled_from([2, 6, 31, 2**31 - 1, 2**31 - 2]),
        data=st.data(),
    )
    def test_eval_mod_matches_exact_value(self, mono, q, data):
        # near q = 2**31 an unreduced product would leave int64
        poly = Polynomial.from_monomials(mono, 2)
        rows = data.draw(st.lists(
            st.tuples(*[st.integers(0, q - 1)] * 4), min_size=1, max_size=20
        ))
        got = poly.eval_mod(np.array(rows, dtype=np.int64).T, q)
        assert got.tolist() == [poly.eval_flat(row) % q for row in rows]

    @settings(max_examples=100, deadline=None)
    @given(
        mono=MONOMIALS,
        values=st.lists(st.integers(-(2**80), 2**80), min_size=4, max_size=4),
        v=st.integers(2, 2**70),
        den=st.integers(1, 50),
        q=st.sampled_from([2, 6, 31, 2**31 - 1]),
    )
    @example(mono={(0, 0, 0, 0): -7}, values=[2**64 + 1, 0, 1, -1], v=3, den=2, q=31)
    @example(
        mono={(3, 0, 0, 2): -2, (0, 0, 0, 0): 5}, values=[2**65, 3, 4, -(2**64)],
        v=2**64 + 1, den=7, q=2**31 - 1,
    )
    def test_evaluators_match_monomial_sums(self, mono, values, v, den, q):
        # eval_flat on Python ints with v > 1 and on Fractions with v = 1,
        # and eval_mod on the entries reduced mod q
        poly = Polynomial.from_monomials(mono, 2)
        got = poly.eval_flat(values, v)
        assert type(got) is int and got == monomial_value(poly, values, v)
        fracs = [F(x, den) for x in values]
        assert poly.eval_flat(fracs) == monomial_value(poly, fracs)
        column = np.array([[x % q] for x in values], dtype=np.int64)
        assert poly.eval_mod(column, q).tolist() == [monomial_value(poly, values) % q]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    @settings(max_examples=60, deadline=None)
    @given(
        mono=MONOMIALS,
        rows=st.lists(
            st.lists(st.integers(-(2**80), 2**80), min_size=5, max_size=5),
            min_size=1, max_size=10,
        ),
    )
    @example(mono={(0, 0, 0, 0): 5}, rows=[[2**64, -(2**64) - 1, 3, 0, 2**65]])
    @example(mono={(2, 0, 1, 0): -3, (0, 0, 0, 0): 1}, rows=[[1, 2, 3, 4, 5], [-8, 8, -8, 8, 8]])
    def test_eval_flat_on_columns_matches_monomial_sums(self, dtype, mono, rows):
        # the columns of sieve.value_histogram: numerator entries, then v
        if dtype is np.int64:  # |entry| <= 8: 5 * 10**6 * 8**12 < 2**63
            rows = [[x % 17 - 8 for x in row[:4]] + [row[4] % 8 + 1] for row in rows]
        else:
            rows = [row[:4] + [abs(row[4]) + 1] for row in rows]
        poly = Polynomial.from_monomials(mono, 2)
        cols = np.array(rows, dtype=dtype).T
        got = poly.eval_flat(cols, cols[-1])
        assert isinstance(got, np.ndarray) and got.dtype == cols.dtype
        assert got.tolist() == [monomial_value(poly, row[:4], row[4]) for row in rows]

    def test_eval_mod_guard_allocates_nothing(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used before the guard")

        monkeypatch.setattr(slnapprox.core, "np", NoNumpy())
        poly = Polynomial.trace_minus(2)
        for q in (0, 2**31, 2**62):
            with pytest.raises(ValueError):
                poly.eval_mod(None, q)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.from_monomials({(0, 0, 0, 0): 0}, 2)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            family_from_preset("no-such-family")

    def test_family_from_file(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(
            json.dumps(
                {"n_dim": 2, "polys": [[[1, [1, 0, 0, 0]]], [[1, [0, 0, 0, 1]]]]}
            )
        )
        fam = family_from_file(str(path))
        assert fam.t == 2
        assert math.prod(fam.values(reduce(IDENTITY))) == 1

    def test_family_file_adds_repeated_monomials(self, tmp_path):
        path = tmp_path / "fam.json"
        u11, one = [1, 0, 0, 0], [0, 0, 0, 0]
        polys = [[[1, u11], [1, u11], [-1, one]]]
        path.write_text(json.dumps({"n_dim": 2, "polys": polys}))
        (poly,) = family_from_file(str(path)).polys
        assert poly == Polynomial.from_monomials({tuple(u11): 2, tuple(one): -1}, 2)

    @pytest.mark.parametrize(
        "raw",
        [
            {"n_dim": 2, "polys": [[[1.9, [1, 0, 0, 0]]]]},
            {"n_dim": 2, "polys": [[[True, [1, 0, 0, 0]]]]},
            {"n_dim": 2, "polys": [[[1, [1.5, 0, 0, 0]]]]},
            {"n_dim": 2.0, "polys": [[[1, [1, 0, 0, 0]]]]},
        ],
        ids=["float-coefficient", "true-coefficient", "float-exponent", "float-n_dim"],
    )
    def test_family_file_numbers_must_be_integers(self, tmp_path, raw):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="integer"):
            family_from_file(str(path))

    def test_family_file_accepts_decimal_strings(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"n_dim": "2", "polys": [[["-3", ["1", 0, 0, 0]]]]}))
        (poly,) = family_from_file(str(path)).polys
        assert poly == Polynomial.from_monomials({(1, 0, 0, 0): -3}, 2)


def strip_by_factorization(w, n):
    """Oracle: divide |w| by every prime of n, found by factoring n."""
    m = abs(w)
    for p in prime_factorization(n):
        while m % p == 0:
            m //= p
    return m


class TestCoprimePart:
    def test_strips_modulus_primes(self):
        assert n_coprime_part(12, 6) == 1
        assert n_coprime_part(12, 5) == 12
        assert n_coprime_part(-140, 2) == 35

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            n_coprime_part(0, 6)

    def test_rejects_nonpositive_modulus(self):
        for n in (0, -5):
            with pytest.raises(ValueError, match="positive"):
                n_coprime_part(12, n)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        base=st.integers(-(10**12), 10**12).filter(bool),
        n=st.one_of(
            st.just(1),
            st.builds(pow, st.sampled_from([2, 3, 5, 7, 97]), st.integers(1, 6)),
            st.integers(2, 10**5),
        ),
        e=st.integers(0, 4),
    )
    def test_matches_factorization_strip(self, base, n, e):
        w = base * n**e
        m = n_coprime_part(w, n)
        assert m == strip_by_factorization(w, n)
        assert m == n_coprime_part(base, n)
        assert math.gcd(m, n) == 1


class TestCompleteFactorization:
    def test_prime_past_the_trial_limit(self):
        assert complete_factorization(10**18 + 3) == {10**18 + 3: 1}

    def test_cofactor_past_the_bit_budget(self):
        n = sympy.nextprime(2**150) * sympy.nextprime(2**151)
        with pytest.raises(BudgetExceeded, match="factoring budget"):
            complete_factorization(n)


class TestJsonRoundTrip:
    def test_decimal_string_encoding(self):
        z = reduce(((F(1, 6), 1), (F(5, 6), 11)))
        d = z.to_json_dict()
        assert d["v"] == "6"
        assert d["u"][1][1] == "66"

    def test_round_trip_random(self):
        rng = random.Random(6)
        for _ in range(30):
            z = random_point(rng)
            assert RationalGroupPoint.from_json(z.to_json()) == z

    def test_from_json_validates(self):
        bad = json.dumps({"n_dim": 2, "u": [["1", "0"], ["0", "2"]], "v": "1"})
        with pytest.raises(NotUnimodular):
            RationalGroupPoint.from_json(bad)


class TestPointRowsItems:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("n_dim, n", [(1, 1), (2, 6), (3, 2)])
    def test_items_match_points_built_by_init(self, n_dim, n, dtype):
        ball = BallSpec.make(identity_matrix(n_dim), F(1, 2), n)
        strategy = "optimized" if n_dim == 2 else "oracle"
        rows = enumerate_points(ball, strategy=strategy).points.rows
        if dtype is object:
            rows = rows.astype(object)
            if n_dim > 1:  # and a point with an entry past 2**64
                m = [list(r) for r in identity_matrix(n_dim)]
                m[0][-1] = F(2**70 + 1, 3)
                big = reduce(m)
                rows = np.vstack((rows, np.array([(*big.flat_numerator(), big.v)], dtype=object)))
        points = PointRows(n_dim, rows)
        assert points.rows.dtype == dtype
        items = list(points)
        assert items and items == points[:] == [points[i] for i in range(len(points))]
        for row, z in zip(rows.tolist(), items):
            u = tuple(tuple(row[k : k + n_dim]) for k in range(0, n_dim * n_dim, n_dim))
            ref = RationalGroupPoint(u=u, v=row[-1], n_dim=n_dim)
            assert z == ref and hash(z) == hash(ref)
            assert all(type(e) is int for e in (*z.flat_numerator(), z.v, z.n_dim))
            z.validate()
        z = items[-1]
        assert not hasattr(z, "__dict__")
        for field in ("u", "v", "n_dim"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(z, field, getattr(z, field))
        copies = [copy.copy(z), copy.deepcopy(z)] + [
            pickle.loads(pickle.dumps(z, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for back in copies:
            assert type(back) is RationalGroupPoint and back == z and hash(back) == hash(z)


# sympy's primes below four segments: the oracle of primes_below
SYMPY_PRIMES = list(sympy.primerange(2, 4 * PRIME_SEGMENT))


class TestPrimesBelow:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        stop=st.one_of(
            st.integers(0, 3),
            st.builds(
                lambda k, d: k * PRIME_SEGMENT + d, st.integers(1, 3), st.integers(-2, 2)
            ),
            st.integers(0, 4 * PRIME_SEGMENT),
        )
    )
    def test_matches_sympy(self, stop):
        # list(sympy.primerange(2, stop)), read off one list of its primes
        expected = SYMPY_PRIMES[: bisect.bisect_left(SYMPY_PRIMES, stop)]
        assert list(primes_below(stop)) == expected

    @pytest.mark.parametrize("segment", [2, 3, 8, 16])
    def test_base_primes_grow_past_the_first_segment(self, monkeypatch, segment):
        # with short segments the stops below pass segment**2 many times, so
        # later segments need base primes beyond those of the first
        monkeypatch.setattr(core, "PRIME_SEGMENT", segment)
        for stop in range(600):
            assert list(primes_below(stop)) == list(sympy.primerange(2, stop))

    def test_first_primes_of_a_huge_range_come_at_once(self):
        tracemalloc.start()
        try:
            first = list(itertools.islice(primes_below(10**18), 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == [2, 3, 5, 7, 11]
        # one segment: its bool array and the list of its primes
        assert peak < 8 * PRIME_SEGMENT


class TestSnapDyadic:
    def test_exact_on_grid(self):
        assert snap_dyadic(F(1, 2)) == F(1, 2)
        assert snap_dyadic(F(3, 8), bits=3) == F(3, 8)

    def test_rounds_off_grid(self):
        assert snap_dyadic(F(1, 3), bits=2) == F(1, 4)

    def test_float_input(self):
        assert snap_dyadic(0.5) == F(1, 2)
        got = snap_dyadic(0.1)
        assert abs(got - F(1, 10)) <= F(1, 2**53)
