"""Shell volumes, growth fit, geometric tail, spherical decay."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from slnapprox import core, volumes
from slnapprox.config import Config
from slnapprox.errors import BudgetExceeded
from slnapprox.volumes import (
    _valuation_capped,
    _xi_column_sum,
    finite_volume,
    growth_exponent,
    harish_chandra_xi,
    hnf_coset_oracle,
    hnf_representatives,
    local_ball_volume,
)

F = Fraction


def harish_chandra_xi_group_oracle(p, ell, max_group_size=10**6):
    """Reference computation averaging over the full congruence quotient.

    Enumerates every 2x2 determinant-1 matrix mod p**(2*ell) and averages the
    same integrand over them.  Exponential in ell, so only for cross-checks.
    """
    if ell == 0:
        return Fraction(1)
    m = p ** (2 * ell)
    # |SL2(Z/m)| = m**3 * (1 - p**-2), exactly
    order = m**3 * (p * p - 1) // (p * p)
    if order > max_group_size:
        raise BudgetExceeded(f"group of order {order} exceeds {max_group_size}")
    total = Fraction(0)
    count = 0
    for a in range(m):
        g = math.gcd(a, m)
        av = _valuation_capped(a, p, 2 * ell)
        for b in range(m):
            for c in range(m):
                # number of d with a*d == 1 + b*c (mod m) is g when g divides
                # the right side, else zero; the integrand ignores b and d
                if (1 + b * c) % g:
                    continue
                cv = _valuation_capped(c, p, 2 * ell)
                e = min(ell + av, cv - ell)
                total += g * Fraction(p) ** e
                count += g
    assert count == order
    return total / count


class TestLocalVolumes:
    def test_closed_form_values(self):
        assert local_ball_volume(2, 1) == 6
        assert local_ball_volume(5, 1) == 30
        assert local_ball_volume(3, 2) == 108
        for p in (2, 3, 5, 7, 11, 13):
            assert local_ball_volume(p, 0) == 1

    def test_matches_oracle(self):
        for p in (2, 3, 5, 7):
            for ell in (0, 1, 2, 3):
                closed = 1 if ell == 0 else (p + 1) * p ** (2 * ell - 1)
                assert hnf_coset_oracle(p, ell) == closed
                assert local_ball_volume(p, ell) == closed

    def test_representatives_are_primitive(self):
        for p, ell in ((2, 1), (3, 1), (2, 2)):
            reps = list(hnf_representatives(p, ell))
            assert len(reps) == hnf_coset_oracle(p, ell)
            target = p ** (2 * ell)
            for (a, b), (zero, d) in reps:
                assert zero == 0 and a * d == target and 0 <= b < d
                assert math.gcd(math.gcd(a, b), d) == 1

    def test_identity_representative_at_zero(self):
        assert list(hnf_representatives(7, 0)) == [((1, 0), (0, 1))]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            local_ball_volume(1, 1)
        # composite p: the closed form would disagree with the class count
        for composite in (4, 9):
            with pytest.raises(ValueError, match="prime"):
                local_ball_volume(composite, 1)
        with pytest.raises(ValueError):
            local_ball_volume(2, -1)

    def test_primality_matches_sympy(self):
        for p in range(-3, 2000):
            try:
                local_ball_volume(p, 0)
            except ValueError:
                accepted = False
            else:
                accepted = True
            assert accepted == sympy.isprime(p), p

    def test_huge_p_not_trial_divided(self, monkeypatch):
        def factor(*args, **kwargs):
            raise AssertionError("p was factored or trial-divided to its square root")

        monkeypatch.setattr(core, "prime_factorization", factor)
        monkeypatch.setattr(sympy, "factorint", factor)
        p = 10**18 + 3  # prime
        assert local_ball_volume(p, 1) == (p + 1) * p
        # no factor below the trial limit; one past it; one with a small
        # factor; a 196-bit product of two Mersenne primes
        for composite in (
            1000003 * 1000033,
            (10**9 + 7) * (10**9 + 9),
            10**18 + 1,
            (2**107 - 1) * (2**89 - 1),
        ):
            with pytest.raises(ValueError, match="prime"):
                local_ball_volume(composite, 1)


class TestFiniteVolume:
    def test_frozen_values(self):
        assert finite_volume(1) == 1
        assert finite_volume(6) == 72
        assert finite_volume(4) == 24

    def test_multiplicative_on_coprime_parts(self):
        rng = random.Random(8)
        for _ in range(40):
            a = rng.randrange(2, 200)
            b = rng.randrange(2, 200)
            if math.gcd(a, b) != 1:
                continue
            assert finite_volume(a * b) == finite_volume(a) * finite_volume(b)

    def test_dominates_n_squared(self):
        for n in range(1, 500):
            assert finite_volume(n) >= n * n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            finite_volume(0)

    def test_matches_product_of_shell_volumes(self):
        for n in range(1, 500):
            shells = (local_ball_volume(p, a) for p, a in sympy.factorint(n).items())
            assert finite_volume(n) == math.prod(shells)

    def test_huge_prime_not_trial_divided(self, monkeypatch):
        # trial division of 10**18 + 3 to its square root would take minutes
        def factor(*args, **kwargs):
            raise AssertionError("n was trial-divided to its square root")

        monkeypatch.setattr(core, "prime_factorization", factor)
        n = 10**18 + 3  # prime
        assert finite_volume(n) == n * (n + 1)

    def test_unfinished_factorization_over_budget(self):
        stingy = Config(factor_trial_limit=10, factor_bit_budget=8)
        with pytest.raises(BudgetExceeded):
            finite_volume(10007 * 10009, config=stingy)


def growth_loop_oracle(n_max):
    """Oracle of growth_exponent: factor each n by a smallest prime factor
    table, multiply its shell volumes, fit in plain floats.
    Returns (samples, slope)."""
    spf = list(range(n_max + 1))
    for p in range(2, int(n_max**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    samples = []
    for n in range(1, n_max + 1):
        m = n
        fac = {}
        while m > 1:
            p = spf[m]
            fac[p] = fac.get(p, 0) + 1
            m //= p
        samples.append((n, math.prod(local_ball_volume(p, a) for p, a in fac.items())))
    pts = [(math.log(n), math.log(vol)) for n, vol in samples if n >= 2]
    if len(pts) < 2:
        return tuple(samples), None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return tuple(samples), sxy / sxx


class TestGrowthExponent:
    def test_slope_near_two(self):
        est = growth_exponent(1000)
        assert not est.degenerate
        assert 1.95 <= est.fitted_exponent <= 2.05

    def test_degenerate_window_flagged(self):
        est = growth_exponent(2)
        assert est.degenerate
        assert est.fitted_exponent is None

    def test_samples_are_exact_volumes(self):
        for n_max in (30, 2000):
            est = growth_exponent(n_max)
            assert len(est.samples) == n_max
            for n, vol in est.samples:
                assert vol == finite_volume(n)

    def test_n_max_is_the_only_parameter(self):
        with pytest.raises(TypeError):
            growth_exponent(64, {2})

    @pytest.mark.parametrize(
        "n_max", [1, 2, 3, 48, 49, 50, 100, 120, 121, 1000, 2000, 10201],
        ids="{}-None".format,
    )
    def test_matches_loop_oracle(self, n_max):
        samples, slope = growth_loop_oracle(n_max)
        est = growth_exponent(n_max)
        assert est.samples == samples
        if slope is None:
            assert est.degenerate and est.fitted_exponent is None
        else:
            assert abs(est.fitted_exponent - slope) <= 1e-12

    def test_samples_are_lazy_pairs(self):
        samples, _ = growth_loop_oracle(121)
        est = growth_exponent(121)
        assert len(est.samples) == 121
        assert est.samples[-1] == samples[-1] == (121, finite_volume(121))
        assert est.samples[-121] == (1, 1)
        assert est.samples[10:13] == list(samples[10:13])
        with pytest.raises(IndexError):
            est.samples[121]
        assert tuple(iter(est.samples)) == samples
        assert all(type(n) is int and type(vol) is int for n, vol in est.samples)
        assert est.samples == growth_exponent(121).samples
        assert est == growth_exponent(121)
        assert hash(est.samples) == hash(samples)
        with pytest.raises(ValueError):
            est.samples.volumes[0] = 0

    def test_int64_guard_allocates_nothing(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used before the guard")

        monkeypatch.setattr(volumes, "np", NoNumpy())
        for n_max in (2**29, 10**12):
            with pytest.raises(ValueError):
                growth_exponent(n_max)


class TestRecurrence:
    """Shell volumes grow geometrically: v(ell + 1) = p**2 v(ell) for ell >= 1."""

    def test_geometric_tail_p2(self):
        vols = [local_ball_volume(2, ell) for ell in range(6)]
        assert vols[:2] == [1, 6]
        assert all(vols[ell + 1] == 4 * vols[ell] for ell in range(1, 5))

    def test_geometric_tail_p3(self):
        vols = [local_ball_volume(3, ell) for ell in range(6)]
        assert all(vols[ell + 1] == 9 * vols[ell] for ell in range(1, 5))


class TestSphericalDecay:
    def test_frozen_exact_values(self):
        assert harish_chandra_xi(2, 0) == 1
        assert harish_chandra_xi(2, 1) == F(5, 6)
        assert harish_chandra_xi(3, 1) == F(2, 3)
        assert harish_chandra_xi(2, 2) == F(7, 12)
        assert harish_chandra_xi(2, 3) == F(3, 8)

    def test_strictly_decreasing(self):
        for p in (2, 3):
            vals = [harish_chandra_xi(p, ell) for ell in range(4)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_group_oracle_agrees(self):
        assert harish_chandra_xi_group_oracle(2, 1) == F(5, 6)
        assert harish_chandra_xi_group_oracle(3, 1) == F(2, 3)

    def test_rescaled_profile_is_linear(self):
        # p**ell * Xi grows by the constant 2(p-1)/(p+1) per step
        for p, lmax in ((2, 4), (3, 2), (5, 2)):
            prof = [p**ell * harish_chandra_xi(p, ell) for ell in range(lmax + 1)]
            diffs = {b - a for a, b in zip(prof, prof[1:])}
            assert diffs == {F(2 * (p - 1), p + 1)}

    def test_group_oracle_budget(self):
        with pytest.raises(BudgetExceeded):
            harish_chandra_xi_group_oracle(2, 2, max_group_size=10)

    # every (p, ell) with p**(4*ell) <= 6 * 10**5
    @pytest.mark.parametrize(
        "p,ell",
        [(2, ell) for ell in range(1, 5)]
        + [(3, ell) for ell in range(1, 4)]
        + [(5, ell) for ell in range(1, 3)]
        + [(p, 1) for p in (7, 11, 13, 17, 19, 23)],
    )
    def test_closed_form_matches_column_sum(self, p, ell):
        assert harish_chandra_xi(p, ell) == _xi_column_sum(p, ell)

    def test_column_sum_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(volumes, "_xi_column_sum", lambda p, ell: F(0))
        # a crosscheck limit of its own, so no cached value answers the call
        with pytest.raises(AssertionError, match="mismatch"):
            harish_chandra_xi(2, 1, config=Config(volume_crosscheck_limit=17))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            harish_chandra_xi(2, -1)
        for composite in (4, 6):
            with pytest.raises(ValueError, match="prime"):
                harish_chandra_xi(composite, 1)
