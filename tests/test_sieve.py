"""Coprime parts, almost-prime counting, axiom checks, the lower bound."""

import io
import json
import math
import random
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import sympy

from hypothesis import given, settings
from hypothesis import strategies as st

from slnapprox import core, sieve
from slnapprox.core import (
    BallSpec,
    PointRows,
    family_from_file,
    family_from_preset,
    n_coprime_part,
    prime_factorization,
    reduce,
)
from slnapprox.densities import DensityFunction, density_table
from slnapprox.engine import BOUNDED_CENTERS
from slnapprox.enumeration import enumerate_points, read_jsonl_points, write_jsonl
from slnapprox.errors import MissingDensities, ZeroValue
from slnapprox.sieve import (
    SIEVED_MEMO_SIZE,
    SievedValue,
    almost_prime_count,
    axiom_report,
    beta_sieve_lower_bound,
    coprime_part,
    factorize_full,
    is_r_prime,
    run_sieve,
    sieve_densities,
    sieve_level,
    sieve_report_to_json_dict,
    sieving_primes,
    squarefree_moduli,
    value_histogram,
)

F = Fraction

IDENTITY = ((F(1), F(0)), (F(0), F(1)))
ENTRY11 = family_from_preset("entry11")


@pytest.fixture
def stingy(monkeypatch):
    """Factoring budgets too small for 10007 * 10009, for a whole test."""
    with stingy_budgets(monkeypatch):
        yield


@contextmanager
def stingy_budgets(monkeypatch):
    """Trial division to 10 and no rho step.  The memo is emptied on entry
    and on exit, so no entry crosses the budgets."""
    with monkeypatch.context() as patch:
        patch.setattr(core, "FACTOR_TRIAL_LIMIT", 10)
        patch.setattr(core, "RHO_STEP_CAP", 0)
        sieve._sieved.cache_clear()
        try:
            yield
        finally:
            sieve._sieved.cache_clear()


# ---------------------------------------------------------------------------
# per-point oracles: every point evaluated and tested on its own, apart from
# the value histogram the package counts from


def congruence_count_direct(points, family, q):
    """#{points : f(z) = 0 mod q}, by reducing the exact value mod q.

    Every point denominator must be invertible mod q, so that v**deg * f(z)
    vanishes mod q exactly when f(z) does.
    """
    count = 0
    for pt in points:
        if math.gcd(pt.v, q) != 1:
            raise ValueError(f"denominator {pt.v} not invertible mod {q}")
        if math.prod(family.values(pt)) % q == 0:
            count += 1
    return count


def almost_prime_count_direct(points, family, n, z, delta=1):
    """#{points : f(z) != 0 and no sieving prime divides its coprime part}."""
    primes = sieving_primes(z, n, delta)
    count = 0
    for pt in points:
        value = math.prod(family.values(pt))
        if value and all(n_coprime_part(value, n) % p for p in primes):
            count += 1
    return count


def value_histogram_per_point(points, family, n):
    """a_k with every point evaluated on its own, through ``family.values``."""
    a = Counter()
    for pt in points:
        value = math.prod(family.values(pt))
        a[0 if value == 0 else n_coprime_part(value, n)] += 1
    return a


@pytest.fixture(scope="module")
def cell8():
    """The eight denominator-2 points within 1/2 of the identity."""
    return enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 2))


@pytest.fixture(scope="module")
def rho_small():
    return density_table(ENTRY11, [3, 5, 7, 11, 13])


class TestCoprimePart:
    def test_unit_value(self):
        sv = coprime_part(36, 6)
        assert sv.coprime_part == 1
        assert sv.factor_count == 0
        assert sv.complete

    def test_strips_only_modulus_primes(self):
        sv = coprime_part(-12, 2)
        assert sv.coprime_part == 3
        assert sv.factors == ((3, 1),)
        assert sv.factor_count == 1

    def test_twelve_at_coprime_modulus(self):
        sv = coprime_part(12, 35)
        assert sv.coprime_part == 12
        assert sv.factor_count == 3  # 2, 2, 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroValue):
            coprime_part(0, 2)

    def test_factor_count_additive(self):
        rng = random.Random(10)
        for _ in range(30):
            a = rng.randrange(2, 10**4)
            b = rng.randrange(2, 10**4)
            if math.gcd(a, b) != 1:
                continue
            fa = coprime_part(a, 1)
            fb = coprime_part(b, 1)
            fab = coprime_part(a * b, 1)
            assert fab.factor_count == fa.factor_count + fb.factor_count

    def test_incomplete_factorization_lower_bound(self, stingy):
        m = 10007 * 10009
        sv = coprime_part(m, 1)
        assert not sv.complete
        assert sv.cofactor == m
        assert sv.factor_count == 2  # composite cofactor counts at least 2


def sieved_oracle(w, n):
    """The ``coprime_part`` of w built by hand, its factors from sympy."""
    m = n_coprime_part(w, n)
    factors = tuple(sorted(sympy.factorint(m).items()))
    return SievedValue(
        raw=w, n=n, coprime_part=m, factors=factors, cofactor=1, complete=True
    )


class TestCoprimePartMemo:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(w=st.integers(-(10**12), 10**12).filter(bool), n=st.integers(1, 10**4))
    def test_matches_uncached_construction(self, w, n):
        expected = sieved_oracle(w, n)
        for _ in range(2):  # the second answer comes from the memo
            sv = coprime_part(w, n)
            assert sv == expected
            assert sv.factor_count == sum(a for _, a in expected.factors)

    def test_each_value_factored_once(self, monkeypatch):
        # a fresh memo, so no earlier entry hides the patched factorizer
        sieve._sieved.cache_clear()
        real, calls = sieve.factorize_full, []

        def counting(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(sieve, "factorize_full", counting)
        for w in (12, 35, 12, -12, 35, 12):
            assert coprime_part(w, 2) == sieved_oracle(w, 2)
        assert calls == [3, 35, 3]  # one call per distinct w

    def test_one_entry_per_value_and_denominator(self):
        sieve._sieved.cache_clear()
        w = 10007 * 10009 * 6
        for n in (1, 2, 1, 2):
            assert coprime_part(w, n) == sieved_oracle(w, n)
        assert sieve._sieved.cache_info().currsize == 2
        assert coprime_part(w, 2) is coprime_part(w, 2)
        assert coprime_part(w, 1) is not coprime_part(w, 2)

    @pytest.mark.parametrize("stingy_first", [False, True])
    def test_configs_never_share_an_entry(self, monkeypatch, stingy_first):
        # the factoring budgets are module constants and the memo is keyed by
        # (w, n); a change of budgets empties it, so in either order no entry
        # factored under one pair of budgets is returned under the other
        sieve._sieved.cache_clear()
        w = 10007 * 10009

        def stingy_run():
            with stingy_budgets(monkeypatch):
                for _ in range(2):
                    sv = coprime_part(w, 1)
                    assert (sv.complete, sv.cofactor, sv.factors) == (False, w, ())
                assert sieve._sieved.cache_info().currsize == 1

        def default_run():
            for _ in range(2):
                assert coprime_part(w, 1) == sieved_oracle(w, 1)
            assert sieve._sieved.cache_info().currsize == 1

        runs = (stingy_run, default_run) if stingy_first else (default_run, stingy_run)
        for run in runs * 2:
            run()

    def test_memo_never_passes_its_bound(self):
        sieve._sieved.cache_clear()
        for w in range(1, SIEVED_MEMO_SIZE + 200):
            coprime_part(w, 1)
            assert sieve._sieved.cache_info().currsize <= SIEVED_MEMO_SIZE
        assert sieve._sieved.cache_info().currsize == SIEVED_MEMO_SIZE
        # the least recently used entries went first, and an evicted value
        # is recomputed
        misses = sieve._sieved.cache_info().misses
        coprime_part(SIEVED_MEMO_SIZE + 199, 1)
        assert sieve._sieved.cache_info().misses == misses
        assert coprime_part(12, 1) == sieved_oracle(12, 1)
        assert sieve._sieved.cache_info().misses == misses + 1

    def test_threads_share_the_memo(self):
        # more threads than cores, switching often, drawing from more values
        # than the memo holds, so entries are evicted while the threads race
        sieve._sieved.cache_clear()
        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(2000):
                    w = rng.randrange(1, 2 * SIEVED_MEMO_SIZE)
                    assert coprime_part(w, 6) == sieved_oracle(w, 6)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sieve._sieved.cache_info().currsize == SIEVED_MEMO_SIZE


class TestTrialDivision:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(m=st.integers(1, 10**9))
    def test_both_callers_match_sympy(self, m):
        assert prime_factorization(m) == sympy.factorint(m)
        assert factorize_full(m) == (sympy.factorint(m), 1, True)

    def test_rest_past_the_square_root_is_prime_unasked(self, monkeypatch):
        # trial division that reached sqrt(rest) leaves a prime rest, so the
        # witness path makes no primality call for it
        def is_probable_prime(n):
            raise AssertionError(f"is_probable_prime({n}) called")

        monkeypatch.setattr(core, "is_probable_prime", is_probable_prime)
        assert factorize_full(2 * 3 * 10007) == ({2: 1, 3: 1, 10007: 1}, 1, True)
        monkeypatch.setattr(core, "FACTOR_TRIAL_LIMIT", 10)
        with pytest.raises(AssertionError, match="is_probable_prime"):
            factorize_full(10007 * 10009)


class TestIsRPrime:
    def test_unit_value_is_zero_prime(self):
        z = reduce(((F(1, 6), 1), (F(5, 6), 11)))
        assert is_r_prime(z, ENTRY11, 6, 0) is True

    def test_semiprime_value(self):
        m = 101 * 103
        z = reduce(((m, 1), (m * m - 1, m)))
        assert is_r_prime(z, ENTRY11, 2, 2) is True
        assert is_r_prime(z, ENTRY11, 2, 1) is False

    def test_incomplete_factorization_indeterminate(self, stingy):
        m = 10007 * 10009
        z = reduce(((m, 1), (m * m - 1, m)))
        assert is_r_prime(z, ENTRY11, 1, 2) is None
        assert is_r_prime(z, ENTRY11, 1, 1) is False


class TestSievingPrimes:
    def test_excludes_modulus_primes(self):
        assert sieving_primes(10, 2) == (3, 5, 7)
        assert sieving_primes(10, 1) == (2, 3, 5, 7)
        assert sieving_primes(10, 2, delta=3) == (5, 7)

    def test_below_two_is_empty(self):
        assert sieving_primes(1, 2) == ()

    def test_n_and_delta_below_one_rejected(self, rho_small):
        # delta * n = 0 would exclude every prime, so the sieve would use none
        cell24 = enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 24))
        assert almost_prime_count(cell24, ENTRY11, 24, 7, delta=1) == 532
        with pytest.raises(ValueError, match="delta must be at least 1, got 0"):
            almost_prime_count(cell24, ENTRY11, 24, 7, delta=0)
        with pytest.raises(ValueError, match="delta must be at least 1, got 0"):
            axiom_report(cell24, ENTRY11, 5, rho_small, 24, delta=0)
        with pytest.raises(ValueError, match="delta must be at least 1, got 0"):
            beta_sieve_lower_bound(
                cell24.count, rho_small, 1, tau=0.5, s=10.0, l=0.0, z=7.0, n=24, delta=0
            )
        with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
            sieving_primes(10, 0)
        with pytest.raises(ValueError, match="n must be a positive integer, got -24"):
            sieve_densities(ENTRY11, -24, 1, 10.0, 10**12)

    def test_squarefree_moduli(self):
        assert squarefree_moduli(10, 2) == [1, 3, 5, 7]
        assert squarefree_moduli(10, 1) == [1, 2, 3, 5, 6, 7, 10]

    @pytest.mark.parametrize("excluded", [0, 1, 2, 30, 97, 2 * 3 * 5 * 7 * 11 * 13, 10**30 + 57])
    def test_squarefree_moduli_match_trial_division(self, excluded):
        # the prime sieve against one trial division per modulus
        def oracle(q_max):
            out = []
            for q in range(1, q_max + 1):
                fac = sympy.factorint(q)
                if all(a == 1 and excluded % p for p, a in fac.items()):
                    out.append(q)
            return out

        for q_max in (-1, 0, 1, 2, 3, 4, 25, 49, 211, 1000):
            assert squarefree_moduli(q_max, excluded) == oracle(q_max)


class TestHistogramAndCounts:
    def test_cell_histogram(self, cell8):
        a = value_histogram(cell8, ENTRY11, 2)
        assert dict(a) == {1: 6, 3: 2}

    def test_zero_values_collect_at_zero(self, cell8):
        trace = family_from_preset("trace-minus-2")
        a = value_histogram(cell8, trace, 2)
        assert dict(a) == {0: 8}  # every point here has trace 2

    def test_dual_route_congruence_counts(self, cell8):
        a = value_histogram(cell8, ENTRY11, 2)
        for q in (1, 3, 5, 7, 9):
            via_hist = sum(cnt for k, cnt in a.items() if k % q == 0)
            assert congruence_count_direct(cell8.points, ENTRY11, q) == via_hist

    def test_almost_prime_counts(self, cell8):
        assert almost_prime_count(cell8, ENTRY11, 2, z=1) == 8
        assert almost_prime_count(cell8, ENTRY11, 2, z=2) == 8
        assert almost_prime_count(cell8, ENTRY11, 2, z=5) == 6

    def test_count_non_increasing_in_z(self, cell8):
        counts = [
            almost_prime_count(cell8, ENTRY11, 2, z=z) for z in (1, 2, 3, 5, 7, 11)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_foreign_denominator_rejected(self):
        # f(z) = 1 here, but v = 6 is not a unit of Z[1/2] and not invertible mod 3
        z = reduce(((1, F(1, 6)), (0, 1)))
        with pytest.raises(ValueError, match="not a unit"):
            value_histogram([z], ENTRY11, 2)
        with pytest.raises(ValueError, match="not a unit"):
            almost_prime_count([z], ENTRY11, 2, z=5)
        with pytest.raises(ValueError, match="not a unit"):
            is_r_prime(z, ENTRY11, 2, 1)
        with pytest.raises(ValueError, match="not invertible"):
            congruence_count_direct([z], ENTRY11, 3)
        assert congruence_count_direct([z], ENTRY11, 5) == 0

    def test_dimension_mismatch_rejected(self):
        z = reduce(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ValueError, match="n_dim"):
            value_histogram([z], ENTRY11, 1)

    @pytest.mark.parametrize("n", [24, 187, 197, 199])
    def test_array_histogram_matches_per_point_loop(self, n):
        res = enumerate_points(BallSpec.make(IDENTITY, F(1, 2), n))
        buf = io.StringIO()
        write_jsonl(res, buf)
        buf.seek(0)
        rows = read_jsonl_points(buf)
        assert rows.rows.dtype == np.int64
        for preset in ("entry11", "trace-minus-2", "sum-entries"):
            family = family_from_preset(preset)
            expected = value_histogram_per_point(res.points, family, n)
            assert value_histogram(rows, family, n) == expected
            assert value_histogram(res, family, n) == expected
            assert value_histogram(list(res.points[:50]), family, n) == (
                value_histogram_per_point(res.points[:50], family, n)
            )

    def test_values_past_int64_use_python_ints(self, tmp_path):
        # a**7 * d**4 - b*c reaches 300**11 > 2**63 on the n = 197 cell
        path = tmp_path / "family.json"
        path.write_text(json.dumps(
            {"n_dim": 2, "polys": [[[1, [7, 0, 0, 4]], [-1, [0, 1, 1, 0]]], [[3, [0, 0, 0, 1]]]]}
        ))
        family = family_from_file(str(path))
        res = enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 197))
        hist = value_histogram(res, family, 197)
        assert max(hist) > 2**63
        assert hist == value_histogram_per_point(res.points, family, 197)
        # and a point whose entries alone leave int64
        big = reduce(((1, F(10**20, 3)), (0, 1)))
        assert PointRows.from_points([big], 2).rows.dtype == object
        assert value_histogram([big], ENTRY11, 3) == value_histogram_per_point([big], ENTRY11, 3)

    def test_zero_policy(self, cell8):
        # trace - 2 vanishes on every point of the cell; zero values are excluded
        trace = family_from_preset("trace-minus-2")
        assert value_histogram(cell8, trace, 2) == {0: 8}
        assert almost_prime_count(cell8, trace, 2, z=3) == 0


class TestAxiomReport:
    def test_exact_remainders(self, cell8, rho_small):
        rep = axiom_report(cell8, ENTRY11, 5, rho_small, 2)
        assert rep.T == 8
        assert rep.remainder(1) == 0
        assert rep.remainder(3) == 0
        assert rep.remainder(5) == F(-4, 3)

    def test_a1_summary(self, cell8, rho_small):
        rep = axiom_report(cell8, ENTRY11, 5, rho_small, 2)
        assert rep.a1_sum_abs == F(4, 3)
        expect = 1.0 - math.log(4 / 3) / math.log(8)
        assert abs(rep.a1_zeta - expect) < 1e-12

    def test_a2_bracket(self, cell8, rho_small):
        rep = axiom_report(cell8, ENTRY11, 5, rho_small, 2)
        assert rep.a2_rows
        devs = [d for _, d in rep.a2_rows]
        assert rep.a2_l == max(0.0, -min(devs))
        assert rep.a2_c3 == max(0.0, max(devs))
        assert rep.a2_l >= 0 and rep.a2_c3 >= 0

    def test_empty_cell(self, rho_small):
        rep = axiom_report([], ENTRY11, 5, rho_small, 2)
        assert rep.T == 0
        assert all(r == 0 for _, r in rep.remainders)
        assert rep.a1_zeta is None

    def test_missing_density_raises(self, cell8):
        sparse = density_table(ENTRY11, [3])
        with pytest.raises(MissingDensities):
            axiom_report(cell8, ENTRY11, 5, sparse, 2)

    def test_each_density_read_once(self, cell8):
        # rho(p) = p/(p+1) for entry11; the deviation rows at z = 500 read
        # each sieving prime's density once, not once per starting point w
        reads = []

        class CountingDensities(DensityFunction):
            def value(self, q):
                reads.append(q)
                return super().value(q)

        primes = sieving_primes(500, 2)
        rho = CountingDensities(ENTRY11, {p: F(p, p + 1) for p in primes}, {})
        rep = axiom_report(cell8, ENTRY11, 1, rho, 2, z=500.0)
        assert len(reads) <= 2 * len(sieving_primes(500, 1))
        # the rows match one left-to-right sum per starting point
        expected = [
            (w, sum(float(rho.value(p)) * math.log(p) / p for p in primes if p >= w)
             - math.log(500.0 / w))
            for w in range(2, 501)
        ]
        assert list(rep.a2_rows) == expected


class TestLowerBound:
    def test_requires_wide_s(self, rho_small):
        with pytest.raises(ValueError):
            beta_sieve_lower_bound(8, rho_small, 1, tau=0.5, s=9.0, l=0.0)

    def test_degenerate_tiny_cell(self, rho_small):
        b = beta_sieve_lower_bound(1, rho_small, 1, tau=0.5, s=10.0, l=5.0)
        assert b.degenerate
        assert b.value == 1.0  # z = 1, empty product, C1 = 1

    def test_small_z_empty_product(self, rho_small):
        b = beta_sieve_lower_bound(8, rho_small, 1, tau=0.5, s=10.0, l=0.0, n=2)
        assert b.z == 8.0 ** 0.05
        assert b.primes_used == ()
        assert b.W_z == 1
        assert b.value == pytest.approx(8.0)

    def test_exact_w_product(self, rho_small):
        b = beta_sieve_lower_bound(
            8, rho_small, 1, tau=0.5, s=10.0, l=0.0, z=6.0, n=2
        )
        assert b.primes_used == (3, 5)
        assert b.W_z == (1 - F(3, 4) / 3) * (1 - F(5, 6) / 5)
        assert not b.vacuous

    def test_large_l_goes_vacuous(self, rho_small):
        b = beta_sieve_lower_bound(8, rho_small, 1, tau=0.5, s=10.0, l=50.0, n=2)
        assert b.vacuous
        assert b.value < 0

    def test_constants_are_not_parameters(self, rho_small, cell8):
        with pytest.raises(TypeError):
            run_sieve(cell8, ENTRY11, 2, rho_small, tau=0.5, s=10.0, C1=2.0)
        # z and the settings after it are keyword-only
        with pytest.raises(TypeError):
            beta_sieve_lower_bound(8, rho_small, 1, 0.5, 10.0, 0.0, 6.0)

    def test_input_validation(self, rho_small):
        with pytest.raises(ValueError):
            beta_sieve_lower_bound(8, rho_small, 1, tau=-1.0, s=10.0, l=0.0)
        with pytest.raises(ValueError):
            beta_sieve_lower_bound(-1, rho_small, 1, tau=0.5, s=10.0, l=0.0)


class TestRunSieve:
    @pytest.mark.parametrize("preset", ["entry11", "trace-minus-2", "sum-entries"])
    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_counts_match_per_point_oracle(self, preset, n):
        # composite n, and trace - 2 vanishes on part of every cell
        family = family_from_preset(preset)
        pts = enumerate_points(BallSpec.make(BOUNDED_CENTERS[3], F(1, 2), n)).points
        if preset == "trace-minus-2":
            assert any(math.prod(family.values(z)) == 0 for z in pts)
        z, q_max = sieve_level(len(pts), family.t, 3.0, 9.5)
        rho = sieve_densities(family, n, 1, z, q_max)
        rep = run_sieve(pts, family, n, rho, tau=3.0, s=9.5)
        assert rep.bound.z == z
        assert rep.direct_count == almost_prime_count_direct(pts, family, n, z)
        for zz in (1, 2, 3, 5, 7, 11, 13):
            for delta in (1, 7):
                assert almost_prime_count(
                    pts, family, n, zz, delta
                ) == almost_prime_count_direct(pts, family, n, zz, delta)

    def test_rejects_density_table_of_another_family(self, cell8, rho_small):
        trace = family_from_preset("trace-minus-2")
        with pytest.raises(ValueError, match="another polynomial family"):
            run_sieve(cell8, trace, 2, rho_small, tau=0.5, s=10.0)

    def test_consistent_on_cell(self, cell8, rho_small):
        rep = run_sieve(cell8, ENTRY11, 2, rho_small, tau=0.5, s=10.0)
        assert rep.axioms.T == 8
        assert rep.consistent
        if not rep.vacuous:
            assert rep.lower_bound <= rep.direct_count

    def test_remainder_identity_at_one(self, cell8, rho_small):
        rep = run_sieve(cell8, ENTRY11, 2, rho_small, tau=0.5, s=10.0, q_max=5)
        assert rep.axioms.remainder(1) == 0

    def test_json_round_trip(self, cell8, rho_small):
        rep = run_sieve(cell8, ENTRY11, 2, rho_small, tau=0.5, s=10.0, q_max=5)
        d = sieve_report_to_json_dict(rep)
        blob = json.loads(json.dumps(d))
        assert blob["T"] == 8
        assert blob["W_z"] == {"num": "1", "den": "1"}
        r5 = [r for r in blob["remainders"] if r["q"] == 5]
        assert r5 == [{"q": 5, "R": {"num": "-4", "den": "3"}}]
