"""Congruence densities, square-root cancellation, gcd obstruction."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from slnapprox import densities, sieve
from slnapprox.core import PolynomialFamily, Polynomial, family_from_preset
from slnapprox.config import DEFAULT_CONFIG, Config
from slnapprox.densities import (
    delta_n,
    check_density_budget,
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


def tuple_group_mod(q, n_dim=2):
    """Every determinant-1 matrix mod q as a flat tuple, in lexicographic order.

    Oracle of iterate_group_mod: for 2x2 it solves a*d == 1 + b*c (mod q)
    for d one (a, b, c) at a time, for 3x3 it filters all q**9 tuples.
    """
    if n_dim == 2:
        for a in range(q):
            g = math.gcd(a, q)
            step = q // g
            inv = pow(a // g, -1, step) if g < q else 0
            for b in range(q):
                for c in range(q):
                    r = (1 + b * c) % q
                    if r % g:
                        continue
                    if g == q:
                        for d in range(q):
                            yield (a, b, c, d)
                    else:
                        d0 = ((r // g) * inv) % step
                        for d in range(d0, q, step):
                            yield (a, b, c, d)
    else:
        for flat in itertools.product(range(q), repeat=9):
            det = (
                flat[0] * (flat[4] * flat[8] - flat[5] * flat[7])
                - flat[1] * (flat[3] * flat[8] - flat[5] * flat[6])
                + flat[2] * (flat[3] * flat[7] - flat[4] * flat[6])
            )
            if det % q == 1 % q:
                yield flat


def zero_count_oracle(family, q, n_dim):
    """Group elements mod q where the family's product vanishes, one tuple at a time."""
    count = 0
    for flat in tuple_group_mod(q, n_dim):
        prod = 1
        for poly in family.polys:
            prod = (prod * poly.eval_flat(flat)) % q
            if prod == 0:
                break
        if prod % q == 0:
            count += 1
    return count


def joined(blocks):
    """Blocks of group elements joined into one sorted list of flat tuples."""
    return sorted(map(tuple, np.concatenate(list(blocks), axis=1).T.tolist()))


class _NoNumpy:
    """Stand-in for numpy that fails a test on first use."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used before the guard")


class TestGroupEnumeration:
    def test_orders(self):
        assert group_order_mod(2) == 6
        assert group_order_mod(5) == 120
        assert group_order_mod(10) == 720
        assert group_order_mod(4) == 48

    def test_iteration_matches_order(self):
        for q in (1, 2, 3, 4, 5, 6, 10, 12):
            assert sum(b.shape[1] for b in iterate_group_mod(q)) == group_order_mod(q)

    def test_iteration_yields_unit_determinants(self):
        for q in (4, 6):
            for a, b, c, d in iterate_group_mod(q):
                assert ((a * d - b * c) % q == 1 % q).all()

    def test_no_duplicates(self):
        elems = joined(iterate_group_mod(6))
        assert len(elems) == len(set(elems))

    def test_three_by_three_order(self):
        assert group_order_mod(2, n_dim=3) == 168
        count = sum(b.shape[1] for b in iterate_group_mod(2, n_dim=3))
        assert count == 168

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            group_order_mod(2, n_dim=4)
        with pytest.raises(UnsupportedDimension):
            next(iterate_group_mod(2, n_dim=4))

    @pytest.mark.parametrize("q,n_dim", [(2, 2), (7, 2), (12, 2), (30, 2), (2, 3), (3, 3)])
    def test_blocks_match_tuple_oracle(self, q, n_dim):
        assert joined(iterate_group_mod(q, n_dim)) == list(tuple_group_mod(q, n_dim))

    def test_three_by_three_composite_is_crt_lift(self):
        # SL_3(Z/6) is SL_3(Z/2) x SL_3(Z/3) by the Chinese remainder theorem;
        # the q**9 tuple scan at q = 6 is out of reach, so lift the two scans
        mod2 = np.array(list(tuple_group_mod(2, 3)), dtype=np.int64)
        mod3 = np.array(list(tuple_group_mod(3, 3)), dtype=np.int64)
        lifted = (3 * mod2[:, None, :] + 4 * mod3[None, :, :]) % 6
        weights = 6 ** np.arange(9, dtype=np.int64)
        want = np.sort(lifted.reshape(-1, 9) @ weights)
        got = np.sort(np.concatenate(list(iterate_group_mod(6, 3)), axis=1).T @ weights)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("q,n_dim", [(7, 2), (12, 2), (3, 3)])
    def test_small_blocks(self, monkeypatch, q, n_dim):
        # shrink the block bound so every chunking path runs
        limit = 30
        monkeypatch.setattr(densities, "_BLOCK_ELEMENTS", limit)
        blocks = list(iterate_group_mod(q, n_dim))
        assert len(blocks) > 1
        assert all(0 < b.shape[1] <= limit for b in blocks)
        assert joined(blocks) == list(tuple_group_mod(q, n_dim))

    def test_modulus_guard_allocates_nothing(self, monkeypatch):
        monkeypatch.setattr(densities, "np", _NoNumpy())
        for q in (0, 2**31, 2**40):
            with pytest.raises(ValueError):
                next(iterate_group_mod(q))


def _family_strategy(n_dim):
    # a monomial is a multiset of at most 4 variable indices, so degree <= 4
    monomial = st.lists(st.integers(0, n_dim * n_dim - 1), max_size=4).map(
        lambda idx: tuple(idx.count(i) for i in range(n_dim * n_dim))
    )
    coeff = st.one_of(st.integers(-9, 9), st.integers(-(10**15), 10**15)).filter(bool)
    poly = st.dictionaries(monomial, coeff, min_size=1, max_size=4).map(
        lambda mono: Polynomial.from_monomials(mono, n_dim)
    )
    return st.lists(poly, min_size=1, max_size=2).map(
        lambda polys: PolynomialFamily(polys=tuple(polys), n_dim=n_dim)
    )


SQUAREFREE_TO_31 = [q for q in range(2, 32) if all(
    a == 1 for a in sympy.factorint(q).values())]


class TestArrayZeroCount:
    @settings(max_examples=40, deadline=None)
    @given(family=_family_strategy(2), q=st.sampled_from(SQUAREFREE_TO_31))
    def test_two_by_two_matches_tuple_oracle(self, family, q):
        assert densities._zero_count(family, q, 2) == zero_count_oracle(family, q, 2)

    @settings(max_examples=25, deadline=None)
    @given(family=_family_strategy(3), q=st.sampled_from([2, 3, 6]))
    def test_three_by_three_matches_tuple_oracle(self, family, q):
        if q == 6:
            # by the Chinese remainder theorem (see the CRT lift test above);
            # the direct q**9 tuple scan at 6 takes minutes
            want = zero_count_oracle(family, 2, 3) * zero_count_oracle(family, 3, 3)
        else:
            want = zero_count_oracle(family, q, 3)
        assert densities._zero_count(family, q, 3) == want

    @settings(max_examples=25, deadline=None)
    @given(family=_family_strategy(2), q=st.sampled_from(
        [q for q in SQUAREFREE_TO_31 if not sympy.isprime(q)]))
    def test_direct_matches_product(self, family, q):
        direct = local_density(family, q, method="direct")
        assert direct == local_density(family, q, method="product")
        assert direct == density_table(family, [q]).value(q)


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

    def test_each_prime_scanned_once(self, monkeypatch):
        scanned = []
        scan = densities._zero_count

        def counting_scan(family, q, n_dim):
            scanned.append(q)
            return scan(family, q, n_dim)

        monkeypatch.setattr(densities, "_zero_count", counting_scan)
        # the moduli of a sieve at n = 1, delta = 1, q_max = 42 and z = 30
        moduli = sorted(
            set(sieve.squarefree_moduli(42, 1)) | set(sieve.sieving_primes(30, 1))
        )
        dens = density_table(ENTRY11, moduli)
        assert scanned == list(sympy.primerange(2, 42))
        for q in moduli:
            assert dens.value(q) == math.prod(
                (F(p, p + 1) for p in sympy.primefactors(q)), start=F(1)
            )

    def test_budget_bounds_the_whole_table(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("a group scan ran past the density budget")

        monkeypatch.setattr(densities, "_zero_count", scan)
        # orders 6, 24 and 120 each fit the budget, their sum 150 does not
        cfg = Config(density_order_budget=140)
        with pytest.raises(BudgetExceeded):
            density_table(ENTRY11, [2, 3, 5], config=cfg)
        with pytest.raises(BudgetExceeded):
            local_density(ENTRY11, 30, config=cfg)

    def test_budget_reads_primes_lazily(self):
        # an unbounded run of primes stops as soon as the budget is passed
        read = []

        def primes():
            for p in sympy.primerange(2, 10**9):
                read.append(p)
                yield p

        with pytest.raises(BudgetExceeded, match="density scan over 5 primes up to 11"):
            check_density_budget(primes(), 2, Config(density_order_budget=1500))
        assert read == [2, 3, 5, 7, 11]
        check_density_budget([2, 3, 5], 2, Config(density_order_budget=150))

    def test_table_reads_moduli_lazily(self, monkeypatch):
        # the moduli are read, checked and factored only up to the one whose
        # new prime passes the budget: the 4 after it is never checked
        def scan(*args, **kwargs):
            raise AssertionError("a group scan ran past the density budget")

        read = []

        def moduli():
            for q in [2, 3, 6, 5, 7, 11, 4]:
                read.append(q)
                yield q

        monkeypatch.setattr(densities, "_zero_count", scan)
        with pytest.raises(BudgetExceeded, match="density scan over 5 primes up to 11"):
            density_table(ENTRY11, moduli(), config=Config(density_order_budget=1500))
        assert read == [2, 3, 6, 5, 7, 11]
        with pytest.raises(ValueError, match="not square-free"):
            density_table(ENTRY11, iter([2, 4, 3]), config=Config(density_order_budget=10))

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
