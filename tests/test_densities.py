"""Congruence densities, square-root cancellation, gcd obstruction."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slnapprox import densities, sieve
from slnapprox.core import (
    Polynomial,
    PolynomialFamily,
    family_from_preset,
    n_coprime_part,
    reduce,
)
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
    ZeroValue,
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
        for q in (1, 2, 3, 4, 6):
            assert sum(b.shape[1] for b in iterate_group_mod(q, 3)) == group_order_mod(q, 3)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            group_order_mod(2, n_dim=4)
        with pytest.raises(UnsupportedDimension):
            next(iterate_group_mod(2, n_dim=4))

    # 8, 9, 25 and 4 are prime powers that delta_n scans: a noninvertible
    # last cofactor, g = gcd(w_n, q) > 1, has several solutions or none
    @pytest.mark.parametrize("q,n_dim", [
        (2, 2), (7, 2), (12, 2), (30, 2), (2, 3), (3, 3),
        (8, 2), (9, 2), (25, 2), (4, 3),
    ])
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

    @pytest.mark.parametrize("q,n_dim", [(7, 2), (12, 2), (3, 3), (4, 3)])
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
        # the q**6 upper rows of a 3x3 matrix index in int64 up to q = 1448
        for q in (1449, 2**20):
            with pytest.raises(ValueError, match="overflow int64"):
                next(iterate_group_mod(q, 3))
        with pytest.raises(AssertionError, match="before the guard"):
            next(iterate_group_mod(1448, 3))


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
        assert densities._zero_count(family, q) == zero_count_oracle(family, q, 2)

    @settings(max_examples=25, deadline=None)
    @given(family=_family_strategy(3), q=st.sampled_from([2, 3, 6]))
    def test_three_by_three_matches_tuple_oracle(self, family, q):
        if q == 6:
            # by the Chinese remainder theorem (see the CRT lift test above);
            # the direct q**9 tuple scan at 6 takes minutes
            want = zero_count_oracle(family, 2, 3) * zero_count_oracle(family, 3, 3)
        else:
            want = zero_count_oracle(family, q, 3)
        assert densities._zero_count(family, q) == want

    @settings(max_examples=25, deadline=None)
    @given(family=_family_strategy(2), q=st.sampled_from(
        [q for q in SQUAREFREE_TO_31 if not sympy.isprime(q)]))
    def test_direct_matches_product(self, family, q):
        direct = local_density(family, q, method="direct")
        assert direct == local_density(family, q, method="product")
        assert direct == density_table(family, [q]).value(q)


ODD_PRIMES_TO_50 = list(sympy.primerange(3, 50))


@st.composite
def _affine_forms(draw):
    """(p, (alpha, beta, gamma, delta, c0)) with M = [[alpha, gamma], [beta,
    delta]] zero, of rank 1 or of rank 2 mod p, c0 divisible by p or not,
    and each coefficient shifted by a multiple of p."""
    p = draw(st.sampled_from(ODD_PRIMES_TO_50))
    residue = st.integers(0, p - 1)
    rank = draw(st.sampled_from([0, 1, 2]))
    if rank == 0:
        m = [0, 0, 0, 0]
    elif rank == 1:
        # the outer product u v^T of nonzero columns u, v
        u = draw(st.tuples(residue, residue).filter(any))
        v = draw(st.tuples(residue, residue).filter(any))
        m = [u[0] * v[0], u[1] * v[0], u[0] * v[1], u[1] * v[1]]
    else:
        m = draw(st.lists(residue, min_size=4, max_size=4).filter(
            lambda x: (x[0] * x[3] - x[1] * x[2]) % p))
    c0 = draw(st.just(0) | residue)
    shifts = draw(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    return p, tuple(x + k * p for x, k in zip([*m, c0], shifts))


def _affine_family(form):
    mono = {(0, 0, 0, 0): form[4]}
    for i, c in enumerate(form[:4]):
        mono[tuple(int(i == j) for j in range(4))] = c
    return _family(mono)


class TestAffineClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(_affine_forms())
    def test_matches_the_scan(self, case):
        p, form = case
        assume(any(form))
        family = _affine_family(form)
        assert densities._affine_form(family) == form
        assert densities._affine_zero_count(form, p) == densities._zero_count(family, p)

    def test_other_families_have_no_closed_form(self):
        assert densities._affine_form(ABCD) is None
        assert densities._affine_form(A_CUBIC) is None
        sl3 = family_from_preset("entry11", 3)
        assert densities._affine_form(sl3) is None

    @pytest.mark.parametrize("name", ["entry11", "trace-minus-2", "sum-entries"])
    def test_table_scans_no_odd_prime(self, name, monkeypatch):
        scan = densities._zero_count

        def scan_at_two(family, q):
            if q % 2:
                raise AssertionError(f"a group scan ran at the odd prime {q}")
            return scan(family, q)

        monkeypatch.setattr(densities, "_zero_count", scan_at_two)
        primes = list(sympy.primerange(2, 212))
        dens = density_table(family_from_preset(name), primes)
        # trace 2: p**2 zeros; the corner entry and the entry sum (rank 1,
        # c0 = 0): p(p - 1)
        for p in primes:
            zeros = p * p if name == "trace-minus-2" else p * (p - 1)
            assert dens.value(p) == F(p * zeros, p**3 - p)


class TestLocalDensity:
    def test_corner_entry_frozen_values(self):
        assert local_density(ENTRY11, 5) == F(5, 6)
        assert local_density(ENTRY11, 2) == F(2, 3)
        assert local_density(ENTRY11, 10) == F(5, 9)

    def test_dimension_comes_from_the_family(self):
        # the corner entry of SL_3 has p(p+1)/(p**2+p+1), not the 2x2 p/(p+1)
        table = density_table(family_from_preset("entry11", 3), [2, 3])
        assert (table.value(2), table.value(3)) == (F(6, 7), F(12, 13))
        trace = family_from_preset("trace-minus-2", 3)
        want = F(2 * zero_count_oracle(trace, 2, 3), group_order_mod(2, 3))
        assert local_density(trace, 2) == local_density(trace, 2, method="direct") == want
        # the old positional n_dim must not bind to config
        with pytest.raises(TypeError):
            density_table(ENTRY11, [2], 2)

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

    @given(st.integers(-3, 10**40) | st.integers(0, 40).map(lambda k: k**3 + 1))
    def test_trial_limit_is_the_least_cube_root(self, budget):
        limit = densities._trial_limit(Config(density_order_budget=budget))
        assert limit >= 1 and limit**3 >= budget
        assert limit == 1 or (limit - 1) ** 3 < budget

    def test_budget_past_the_float_range(self):
        # 10**400 overflows a float; the trial bound is computed in integers
        huge = Config(density_order_budget=10**400)
        assert local_density(ENTRY11, 30, config=huge) == local_density(ENTRY11, 30)

    @pytest.mark.parametrize("q", [1000003, 4 * 1000003, 1000003 * 1000033])
    def test_prime_past_the_cube_root_is_over_budget(self, q):
        # trial division stops at 465, the least L with L**3 >= 10**8 (the
        # default budget): the rest is over budget, square-free or not
        for method in ("product", "direct"):
            with pytest.raises(BudgetExceeded, match="prime factor above 465"):
                local_density(ENTRY11, q, method=method)

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
        assert dens.value(1) == 1
        assert 3 not in dens.values
        with pytest.raises(MissingDensities):
            dens.value(3)

    def test_each_prime_scanned_once(self, monkeypatch):
        scanned = []
        scan = densities._zero_count

        def counting_scan(family, q):
            scanned.append(q)
            return scan(family, q)

        monkeypatch.setattr(densities, "_zero_count", counting_scan)
        # the moduli of a sieve at n = 1, delta = 1, q_max = 42 and z = 30
        moduli = sorted(
            set(sieve.squarefree_moduli(42, 1)) | set(sieve.sieving_primes(30, 1))
        )
        # the corner entry has a closed form at odd p: only p = 2 is scanned
        dens = density_table(ENTRY11, moduli)
        assert scanned == [2]
        for q in moduli:
            assert dens.value(q) == math.prod(
                (F(p, p + 1) for p in sympy.primefactors(q)), start=F(1)
            )
        # a*d has degree 2: every prime is scanned once; its zeros number
        # 2p(p - 1) - (p - 1) by inclusion-exclusion
        scanned.clear()
        dens = density_table(_family({(1, 0, 0, 1): 1}), moduli)
        assert scanned == list(sympy.primerange(2, 42))
        for q in moduli:
            assert dens.value(q) == math.prod(
                (F(2 * p - 1, p + 1) for p in sympy.primefactors(q)), start=F(1)
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

    def test_budget_reads_primes_lazily(self, monkeypatch):
        # an unbounded run of primes stops as soon as the budget is passed,
        # before any prime is counted
        read, scanned = [], []

        def primes():
            for p in sympy.primerange(2, 10**9):
                read.append(p)
                yield p

        monkeypatch.setattr(densities, "_zero_count", lambda family, q: scanned.append(q) or 0)
        with pytest.raises(BudgetExceeded, match="density scan over 5 primes up to 11"):
            density_table(ENTRY11, primes(), config=Config(density_order_budget=1500))
        assert read == [2, 3, 5, 7, 11]
        assert scanned == []
        density_table(ENTRY11, [2, 3, 5], config=Config(density_order_budget=150))
        assert scanned == [2]

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

    def test_flagging_threshold(self, monkeypatch):
        assert lang_weil_report(ENTRY11, (2, 3)).flagged == ()
        monkeypatch.setattr(densities, "LANG_WEIL_THRESHOLD", 0.1)
        assert lang_weil_report(ENTRY11, (2, 3)).flagged == (2, 3)

    def test_threshold_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            lang_weil_report(ENTRY11, (2, 3), threshold=1)


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


def _family(*monomial_dicts):
    return PolynomialFamily(
        polys=tuple(Polynomial.from_monomials(m, 2) for m in monomial_dicts), n_dim=2
    )


# a*b*c*d, b*c*(a + d), a**3 - a and the pair {a, a**3 - a}, whose product
# a**2 * (a**2 - 1) is always divisible by 4
ABCD = _family({(1, 1, 1, 1): 1})
BC_TRACE = _family({(1, 1, 1, 0): 1, (0, 1, 1, 1): 1})
CUBIC = _family({(3, 0, 0, 0): 1, (1, 0, 0, 0): -1})
A_CUBIC = _family({(1, 0, 0, 0): 1}, {(3, 0, 0, 0): 1, (1, 0, 0, 0): -1})
# 1000003 + b*c is 1000003 on the first words (c = 0), yet delta is 1
BIG_PLUS_BC = _family({(0, 0, 0, 0): 1000003, (0, 1, 1, 0): 1})
DELTA_FAMILIES = {
    **{name: family_from_preset(name) for name in ("entry11", "trace-minus-2", "sum-entries")},
    "abcd": ABCD, "bc(a+d)": BC_TRACE, "a^3-a": CUBIC, "{a, a^3-a}": A_CUBIC,
    "1000003+bc": BIG_PLUS_BC,
}


def sampled_delta(family, n, n_dim=2, budget=1000, window=50):
    """Oracle of delta_n: the gcd of the n-coprime parts of the nonzero
    values over group words, stopped once it is 1 or has not changed for
    ``window`` samples (the stabilization rule of earlier releases)."""
    g = stable = 0
    for gamma in itertools.islice(group_words(n, n_dim), budget):
        w = math.prod(family.values(reduce(gamma)))
        if w == 0:
            continue
        new_g = math.gcd(g, n_coprime_part(w, n))
        stable = stable + 1 if new_g == g else 0
        g = new_g
        if g == 1 or stable >= window:
            break
    return g


class TestDeltaN:
    def test_corner_entry_trivial(self):
        cert = delta_n(ENTRY11, 1)
        assert cert.delta == 1
        assert cert.sample_size == 1  # f(identity) = 1 settles it

    def test_sum_entries_divides_two(self):
        # a+b+c+d is 2 at the identity and 3 at [[1, 1], [0, 1]]
        cert = delta_n(family_from_preset("sum-entries"), 1)
        assert (cert.delta, cert.delta_factor_count) == (1, 0)

    def test_corner_entry_modulus_six(self):
        cert = delta_n(ENTRY11, 6)
        assert cert.delta == 1
        assert cert.delta_factor_count == 0

    @pytest.mark.parametrize(
        "family, expected",
        [(ABCD, (2, 2, 2, 1)), (BC_TRACE, (1, 1, 1, 1)), (CUBIC, (6, 2, 6, 1))],
        ids=["abcd", "bc(a+d)", "a^3-a"],
    )
    def test_exact_table(self, family, expected):
        assert tuple(delta_n(family, n).delta for n in (1, 3, 5, 6)) == expected

    def test_square_of_two(self):
        # 4 | a**2 (a**2 - 1) everywhere, 8 does not: the scan mod 4 passes
        cert = delta_n(A_CUBIC, 1)
        assert (cert.delta, cert.delta_factor_count) == (12, 3)
        assert [delta_n(A_CUBIC, n).delta for n in (2, 3, 5, 6, 7)] == [3, 4, 12, 1, 12]

    def test_three_by_three(self):
        # a**3 - a in the corner of SL_3: scans of SL_3 mod 2 and mod 3
        cubic = PolynomialFamily(
            polys=(Polynomial.from_monomials({(3,) + (0,) * 8: 1, (1,) + (0,) * 8: -1}, 3),),
            n_dim=3,
        )
        for n in (1, 2, 5):
            assert delta_n(cubic, n).delta == sampled_delta(cubic, n, n_dim=3)
        assert [delta_n(cubic, n).delta for n in (1, 2, 3, 6)] == [6, 3, 2, 1]

    @pytest.mark.parametrize("name", sorted(DELTA_FAMILIES))
    def test_matches_sampled_oracle(self, name):
        family = DELTA_FAMILIES[name]
        for n in (1, 2, 3, 5, 6, 7, 12, 24, 197):
            cert = delta_n(family, n)
            assert cert.delta == sampled_delta(family, n), (name, n)
            assert cert.delta_factor_count == sum(sympy.factorint(cert.delta).values())

    def test_delta_divides_fresh_values(self):
        fam = family_from_preset("trace-minus-2")
        cert = delta_n(fam, 2)
        count = 0
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

    def test_shortest_walk_is_exact(self):
        # the walk stops early; the least word budget gives the same answers
        least = Config(word_budget=100)
        for name, family in DELTA_FAMILIES.items():
            for n in (1, 5, 6):
                cert = delta_n(family, n, config=least)
                assert cert.sample_size <= 100
                assert cert.delta == delta_n(family, n).delta, (name, n)

    def test_vanishing_family_raises_zero_value(self):
        # ad - bc - 1 is 0 on the whole group: no word has a nonzero value
        fam = _family({(1, 0, 0, 1): 1, (0, 1, 1, 0): -1, (0, 0, 0, 0): -1})
        with pytest.raises(ZeroValue, match="first 100 group words"):
            delta_n(fam, 1, config=Config(word_budget=100))

    def test_walk_passes_a_prime_too_large_to_scan(self):
        # the first values leave g = 1000003 unchanged; it has no scan within
        # budget, so the walk goes on until a value drops it
        cert = delta_n(BIG_PLUS_BC, 1)
        assert cert.delta == 1
        assert cert.sample_size > 2

    def test_large_prime_content_is_over_budget(self):
        # every value of 1000003*a is a multiple of a prime far above the
        # cube root of the budget: SL_2(F_1000003) is never factored or scanned
        fam = _family({(1, 0, 0, 0): 1000003})
        with pytest.raises(BudgetExceeded, match="prime factor above 465"):
            delta_n(fam, 1)

    def test_scan_is_checked_before_it_starts(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("a group scan ran past the density budget")

        monkeypatch.setattr(densities, "_zero_count", scan)
        # delta of a^3 - a is 6; the group mod 2 has 6 elements, over a budget of 5
        with pytest.raises(BudgetExceeded, match="group mod 2"):
            delta_n(CUBIC, 1, config=Config(density_order_budget=5))

    def test_zero_skips_counted(self):
        fam = family_from_preset("trace-minus-2")
        cert = delta_n(fam, 1)
        assert cert.zero_skips > 0  # identity itself has trace 2
