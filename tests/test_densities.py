"""Congruence densities, square-root cancellation, gcd obstruction."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from slnapprox.core import PolynomialFamily, Polynomial, family_from_preset
from slnapprox.config import DEFAULT_CONFIG, Config
from slnapprox.densities import (
    delta_n,
    density_table,
    group_order_mod,
    group_words,
    iterate_group_mod,
    lang_weil_report,
    local_density,
)
from slnapprox.errors import (
    BudgetExceeded,
    MissingDensities,
    UnsupportedDimension,
)

F = Fraction

ENTRY11 = family_from_preset("entry11")


class TestGroupEnumeration:
    def test_orders(self):
        assert group_order_mod(2) == 6
        assert group_order_mod(5) == 120
        assert group_order_mod(10) == 720
        assert group_order_mod(4) == 48

    def test_iteration_matches_order(self):
        for q in (2, 3, 4, 5, 6, 10):
            count = sum(1 for _ in iterate_group_mod(q))
            assert count == group_order_mod(q)

    def test_iteration_yields_unit_determinants(self):
        for q in (4, 6):
            for a, b, c, d in iterate_group_mod(q):
                assert (a * d - b * c) % q == 1 % q

    def test_no_duplicates(self):
        elems = list(iterate_group_mod(6))
        assert len(elems) == len(set(elems))

    def test_three_by_three_order(self):
        assert group_order_mod(2, n_dim=3) == 168
        count = sum(1 for _ in iterate_group_mod(2, n_dim=3))
        assert count == 168

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            group_order_mod(2, n_dim=4)


class TestLocalDensity:
    def test_corner_entry_frozen_values(self):
        assert local_density(ENTRY11, 5) == F(5, 6)
        assert local_density(ENTRY11, 2) == F(2, 3)
        assert local_density(ENTRY11, 10) == F(5, 9)

    def test_corner_entry_closed_form(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert local_density(ENTRY11, p) == F(p, p + 1)

    def test_multiplicativity_direct_vs_product(self):
        for q in (6, 10, 15):
            direct = local_density(ENTRY11, q, method="direct")
            prod = local_density(ENTRY11, q, method="product")
            assert direct == prod

    def test_multiplicativity_random_squarefree(self):
        rng = random.Random(9)
        squarefree = [q for q in range(2, 16) if all(
            a == 1 for a in __import__("sympy").factorint(q).values())]
        for _ in range(10):
            a, b = rng.sample(squarefree, 2)
            if math.gcd(a, b) != 1 or a * b > 35:
                continue
            assert local_density(ENTRY11, a * b) == local_density(
                ENTRY11, a
            ) * local_density(ENTRY11, b)

    def test_unit_modulus(self):
        assert local_density(ENTRY11, 1) == 1

    def test_strictly_below_modulus(self):
        for q in (2, 3, 5, 7, 10):
            assert local_density(ENTRY11, q) < q

    def test_rejects_square_factor(self):
        with pytest.raises(ValueError):
            local_density(ENTRY11, 4)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            local_density(ENTRY11, 5, method="guess")

    def test_budget(self):
        import dataclasses

        tight = dataclasses.replace(DEFAULT_CONFIG, density_order_budget=100)
        with pytest.raises(BudgetExceeded):
            local_density(ENTRY11, 7, config=tight)

    def test_two_member_family(self):
        fam = PolynomialFamily(
            polys=(Polynomial.entry(0, 0), Polynomial.entry(1, 1)), n_dim=2
        )
        # zeros of g11*g22 mod p by inclusion-exclusion: each factor
        # contributes p(p-1) zeros, the overlap (anti-diagonal) p-1
        for p in (2, 3, 5):
            assert local_density(fam, p) == F(2 * p - 1, p + 1)


class TestDensityFunction:
    def test_table_and_lookup(self):
        dens = density_table(ENTRY11, [2, 5, 10])
        assert dens.value(10) == F(5, 9)
        assert dens.group_orders[10] == 720
        assert dens.has(1) and dens.value(1) == 1
        assert not dens.has(3)

    def test_missing_modulus_raises(self):
        dens = density_table(ENTRY11, [2])
        with pytest.raises(MissingDensities) as info:
            dens.value(3)
        assert info.value.q == 3


class TestLangWeil:
    def test_deviations_bounded(self):
        primes = (2, 3, 5, 7, 11, 13)
        rep = lang_weil_report(ENTRY11, primes)
        assert rep.t == 1
        assert rep.flagged == ()
        for row in rep.rows:
            assert row.rho == F(row.p, row.p + 1)
            expect = math.sqrt(row.p) / (row.p + 1)
            assert abs(row.deviation_scaled - expect) < 1e-12
            assert row.deviation_scaled <= 0.5

    def test_two_member_family_near_two(self):
        fam = PolynomialFamily(
            polys=(Polynomial.entry(0, 0), Polynomial.entry(1, 1)), n_dim=2
        )
        rep = lang_weil_report(fam, (3,))
        assert rep.t == 2
        assert abs(float(rep.rows[0].rho) - 2) <= 2 / math.sqrt(3)

    def test_empty_range(self):
        rep = lang_weil_report(ENTRY11, ())
        assert rep.rows == ()
        assert rep.flagged == ()

    def test_flagging_threshold(self):
        rep = lang_weil_report(ENTRY11, (2, 3), threshold=0.1)
        assert rep.flagged == (2, 3)


class TestGroupWords:
    def test_starts_at_identity(self):
        first = next(group_words(2))
        assert first == ((F(1), F(0)), (F(0), F(1)))

    def test_deterministic_and_distinct(self):
        a = list(itertools.islice(group_words(3), 200))
        b = list(itertools.islice(group_words(3), 200))
        assert a == b
        assert len(set(a)) == 200

    def test_members_have_unit_determinant(self):
        for m in itertools.islice(group_words(6), 50):
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


class TestDeltaN:
    def test_corner_entry_trivial(self):
        cert = delta_n(ENTRY11, 1)
        assert cert.delta == 1
        assert cert.certified
        assert cert.sample_size == 1  # f(identity) = 1 settles it

    def test_sum_entries_divides_two(self):
        fam = family_from_preset("sum-entries")
        cert = delta_n(fam, 1)
        assert cert.delta in (1, 2)
        assert 2 % cert.delta == 0
        assert cert.certified

    def test_corner_entry_modulus_six(self):
        cert = delta_n(ENTRY11, 6)
        assert cert.delta == 1
        assert cert.delta_factor_count == 0

    def test_delta_divides_fresh_values(self):
        fam = family_from_preset("trace-minus-2")
        cert = delta_n(fam, 2)
        count = 0
        from slnapprox.core import n_coprime_part

        for gamma in itertools.islice(group_words(2), 10**3):
            # f(gamma) on the rational entries; its denominator is a power of 2
            flat = tuple(e for row in gamma for e in row)
            w = fam.polys[0].eval_flat(flat).numerator
            if w == 0:
                continue
            count += 1
            assert n_coprime_part(w, 2) % cert.delta == 0
        assert count > 500

    def test_delta_divides_unrestricted_delta(self):
        fam = family_from_preset("sum-entries")
        d1 = delta_n(fam, 1).delta
        d6 = delta_n(fam, 6).delta
        assert d1 % d6 == 0

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            delta_n(ENTRY11, 2, config=Config(word_budget=10))

    def test_non_stabilized_paths(self):
        # a huge window cannot be met inside the budget unless gcd hits 1
        fam = family_from_preset("sum-entries")
        cfg = Config(word_budget=150, gcd_window=10**6)
        cert = delta_n(fam, 1, config=cfg)
        assert cert.sample_size <= 150
        assert cert.window == 10**6
        assert cert.certified is (cert.delta == 1)

    def test_zero_skips_counted(self):
        fam = family_from_preset("trace-minus-2")
        cert = delta_n(fam, 1)
        assert cert.zero_skips > 0  # identity itself has trace 2
