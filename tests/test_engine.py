"""Exponent thresholds, witness search, counting ratio verification."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
import sympy

from slnapprox import engine
from slnapprox.config import DEFAULT_CONFIG, Config
from slnapprox.core import (
    ball_membership,
    BallSpec,
    family_from_preset,
    identity_matrix,
    n_coprime_part,
    to_fraction_matrix,
)
from slnapprox.engine import (
    BOUNDED_CENTERS,
    counting_verification,
    find_witness,
    exponent_parameters,
)
from slnapprox.enumeration import enumerate_points
from slnapprox.errors import AlphaTooLarge, NoWitness, ZeroValue
from slnapprox.volumes import finite_volume

from monomial_oracle import monomial_value

F = Fraction

IDENTITY = to_fraction_matrix(identity_matrix(2))
ENTRY11 = family_from_preset("entry11")
SPHERICAL_CONFIG = Config(r_g=2)  # derived integrability exponent 1


class TestExponentParameters:
    def test_frozen_spherical_instance(self):
        par = exponent_parameters(0.1, config=SPHERICAL_CONFIG)
        assert par.iota == 1
        assert par.alpha0 == F(1, 6)
        assert par.alpha == F(1, 10)
        assert par.r == 720
        assert par.kappa == F(1, 2)
        assert par.tau0 == F(1, 136)

    def test_frozen_default_instance(self):
        par = exponent_parameters(0.05)
        assert par.iota == 2
        assert par.alpha0 == F(1, 12)
        assert par.r == 1440

    def test_decimal_float_is_exact(self):
        # 0.1 must mean 1/10; the raw binary value would inflate r to 721
        par = exponent_parameters(0.1, config=SPHERICAL_CONFIG)
        assert par.alpha == F(1, 10)
        assert par.r == 720

    def test_config_is_keyword_only(self):
        # a positional call cannot bind a value to a field of another meaning
        with pytest.raises(TypeError):
            Config(4)
        assert Config(r_g=4) == DEFAULT_CONFIG

    def test_restricted_threshold(self):
        par = exponent_parameters(0.1, config=SPHERICAL_CONFIG)
        assert par.alpha0_restricted == F(1, 6) * 2  # a / (2 iota d)

    def test_boundary_rejected(self):
        with pytest.raises(AlphaTooLarge) as info:
            exponent_parameters(F(1, 6), config=SPHERICAL_CONFIG)
        assert info.value.alpha0 == F(1, 6)
        with pytest.raises(AlphaTooLarge):
            exponent_parameters(F(1, 2))

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            exponent_parameters(0)
        with pytest.raises(ValueError):
            exponent_parameters(-0.1)
        with pytest.raises(ValueError):
            exponent_parameters(0.01, t=0)
        with pytest.raises(ValueError):
            exponent_parameters(0.01, d=0)
        with pytest.raises(ValueError):
            exponent_parameters(0.01, delta_n=-1)

    def test_bound_formula_random(self):
        rng = random.Random(14)
        for _ in range(100):
            t = rng.randrange(1, 4)
            deg = rng.randrange(1, 5)
            dn = rng.randrange(0, 3)
            alpha = F(rng.randrange(1, 12), 144)
            try:
                par = exponent_parameters(alpha, t=t, deg_f=deg, delta_n=dn)
            except AlphaTooLarge:
                assert alpha >= F(1, 12)
                continue
            denom = F(1, 2) / 4 * 2 - alpha * 3  # a/(4 iota) with a=2, iota=2
            lower = F(9 * t * deg * 16) / denom
            assert par.r - dn - 1 < lower <= par.r - dn
            assert 0 < par.alpha < par.alpha0

    def test_kappa_tau_positive_inside_range(self):
        for num in range(1, 12):
            par = exponent_parameters(F(num, 144))
            assert par.kappa > 0
            assert par.tau0 > 0


class TestFindWitness:
    def test_minimal_factor_count_wins(self):
        rec = find_witness(IDENTITY, 2, 1.0, ENTRY11)
        assert rec.candidates == 8
        assert rec.factor_count == 0
        assert rec.epsilon == F(1, 2)
        assert rec.z.v == 2
        assert rec.distance <= rec.epsilon

    def test_witness_is_certified_best(self):
        balls = [(IDENTITY, 6, 0.4, "entry11")] + [
            (BOUNDED_CENTERS[c], n, 0.3, preset)
            for c in (1, 3, 4)
            for n in (12, 30, 53)
            for preset in ("entry11", "trace-minus-2", "sum-entries")
        ]
        for center, n, alpha, preset in balls:
            family = family_from_preset(preset)
            rec = find_witness(center, n, alpha, family)
            ball = BallSpec.make(center, rec.epsilon, n)
            assert ball_membership(rec.z, ball)
            # per-point oracle: first point of least factor count, zeros
            # skipped, each value summed from the monomials and factored by
            # sympy, not by family.values and the memoized coprime_part
            # the search uses
            best, best_count, zeros = None, None, 0
            for z in enumerate_points(ball).points:
                flat = [e for row in z.u for e in row]
                prod = math.prod(monomial_value(p, flat, z.v) for p in family.polys)
                if prod == 0:
                    zeros += 1
                    continue
                fc = sum(sympy.factorint(n_coprime_part(prod, n)).values())
                if best_count is None or fc < best_count:
                    best, best_count = z, fc
            found = (rec.z, rec.factor_count, rec.zero_values_skipped)
            assert found == (best, best_count, zeros), (center, n, preset)

    def test_integral_target(self):
        rec = find_witness(IDENTITY, 1, 0.5, ENTRY11)
        assert rec.z.v == 1
        assert rec.factor_count == 0

    def test_no_witness_reports_probe(self):
        with pytest.raises(NoWitness) as info:
            find_witness(IDENTITY, 2, 2.0, ENTRY11)
        assert info.value.requested_radius == F(1, 4)
        assert info.value.smallest_radius == F(1, 2)

    def test_probe_past_the_factoring_budget_reports_no_radius(self):
        # nextprime(2**150) * nextprime(2**151): counting a probe ball must
        # factor it, which the default budget cannot
        n = sympy.nextprime(2**150) * sympy.nextprime(2**151)
        with pytest.raises(NoWitness) as info:
            find_witness(IDENTITY, n, 1.5, ENTRY11)
        assert info.value.smallest_radius is None

    def test_all_zero_values(self):
        trace = family_from_preset("trace-minus-2")
        with pytest.raises(ZeroValue):
            find_witness(IDENTITY, 2, 1.0, trace)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            find_witness(IDENTITY, 0, 1.0, ENTRY11)

    @pytest.mark.parametrize("preset", ["entry11", "trace-minus-2"])
    def test_rejects_family_of_another_dimension(self, monkeypatch, preset):
        def scan(*args, **kwargs):
            raise AssertionError("the ball was enumerated")

        monkeypatch.setattr(engine, "enumerate_points", scan)
        with pytest.raises(ValueError, match="n_dim"):
            find_witness(IDENTITY, 50, F(1, 6), family_from_preset(preset, 3))

    def test_quality_monotone_in_radius(self):
        # a wider ball can only improve the minimal factor count
        wide = find_witness(IDENTITY, 30, 0.2, ENTRY11)
        narrow = find_witness(IDENTITY, 30, 0.3, ENTRY11)
        assert narrow.epsilon < wide.epsilon
        assert wide.factor_count <= narrow.factor_count


class TestCountingVerification:
    def test_single_cell_spread_is_one(self):
        rep = counting_verification([IDENTITY], [53], F(1, 2), count_threshold=100)
        assert rep.significant_cells == 1
        assert rep.spread == 1
        row = rep.rows[0]
        assert row.T == enumerate_points(BallSpec.make(IDENTITY, F(1, 2), 53)).count
        assert row.ratio == F(row.T) / (finite_volume(53))
        assert isinstance(row.ratio, F)

    def test_insignificant_cells_excluded(self):
        rep = counting_verification([IDENTITY], [2], F(1, 2), count_threshold=1000)
        assert rep.rows[0].T == 8
        assert not rep.rows[0].significant
        assert rep.spread is None

    def test_budget_skip_marked(self):
        tight = dataclasses.replace(DEFAULT_CONFIG, optimized_row_budget=100)
        rep = counting_verification(
            [IDENTITY], [97], F(1, 2), count_threshold=10, config=tight
        )
        assert rep.rows[0].skipped is not None
        assert rep.rows[0].T is None
        assert rep.spread is None

    def test_bounded_centers_are_unimodular(self):
        assert len(BOUNDED_CENTERS) == 5
        for c in BOUNDED_CENTERS:
            det = c[0][0] * c[1][1] - c[0][1] * c[1][0]
            assert det == 1

    def test_two_cell_spread(self):
        rep = counting_verification(
            [IDENTITY], [53, 59], F(1, 2), count_threshold=100
        )
        assert rep.significant_cells == 2
        ratios = [row.ratio for row in rep.rows]
        assert rep.spread == max(ratios) / min(ratios)
        assert rep.spread >= 1
