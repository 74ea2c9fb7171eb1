"""Projective level graphs, averaging operators, gap decay."""

import dataclasses
import math
import random
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from slnapprox import spectral
from slnapprox.config import DEFAULT_CONFIG
from slnapprox.densities import group_order_mod
from slnapprox.errors import BudgetExceeded, ConvergenceFailure
from slnapprox.spectral import (
    HeckeOperatorGraph,
    build_hecke_graph,
    gap_decay_report,
    lagrange_reduce,
    level_table,
    second_singular_value,
)
from slnapprox.spectral import _units
from slnapprox.volumes import hnf_representatives


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def projective_vertices(q, config=DEFAULT_CONFIG):
    """All scalar classes of invertible matrices mod q, least member each."""
    rows = level_table(q, config).vertices.tolist()
    return tuple(((a, b), (c, d)) for a, b, c, d in rows)


def code(entries, q):
    """Level-table code of the matrix with entries (a, b, c, d) mod q."""
    a, b, c, d = (e % q for e in entries)
    return ((a * q + b) * q + c) * q + d


# ---------------------------------------------------------------------------
# dense oracle: the loop enumeration, the n x n operator and a full eigh,
# independent of the level table, the permutation tables and Lanczos


def proj_canon(m, q, units):
    """Lexicographically least matrix in the unit-scalar orbit of m mod q."""
    return min(
        ((lam * m[0][0] % q, lam * m[0][1] % q), (lam * m[1][0] % q, lam * m[1][1] % q))
        for lam in units
    )


def mat_mul_mod(a, b, q):
    return (
        (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0]) % q,
            (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % q,
        ),
        (
            (a[1][0] * b[0][0] + a[1][1] * b[1][0]) % q,
            (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % q,
        ),
    )


@lru_cache(maxsize=None)
def oracle_vertices(q):
    units = _units(q)
    return tuple(
        m
        for a in range(q)
        for b in range(q)
        for c in range(q)
        for d in range(q)
        if math.gcd(a * d - b * c, q) == 1
        and proj_canon(m := ((a, b), (c, d)), q, units) == m
    )


def oracle_operator(p, q, ell):
    """Row-stochastic n x n averaging matrix, one product at a time."""
    reps = [lagrange_reduce(g) for g in hnf_representatives(p, ell)]
    units = _units(q)
    vertices = oracle_vertices(q)
    index = {v: i for i, v in enumerate(vertices)}
    images = Counter(tuple(tuple(e % q for e in row) for row in g) for g in reps)
    op = np.zeros((len(vertices), len(vertices)))
    for j, u in enumerate(vertices):
        for gbar, mult in images.items():
            op[j, index[proj_canon(mat_mul_mod(gbar, u, q), q, units)]] += mult
    return op / len(reps)


def oracle_det_classes(q):
    """Vertex indices grouped by the coset det * (unit squares) mod q."""
    units = _units(q)
    buckets = {}
    for i, m in enumerate(oracle_vertices(q)):
        coset = frozenset(det2(m) * u * u % q for u in units)
        buckets.setdefault(coset, []).append(i)
    return [tuple(block) for block in buckets.values()]


def oracle_identity_block(q):
    """Indices of the oracle vertices in the identity's determinant class."""
    identity = oracle_vertices(q).index(((1, 0), (0, 1)))
    return next(block for block in oracle_det_classes(q) if identity in block)


def oracle_lambda2(p, q, ell):
    """Largest |eigenvalue| of the symmetrized matrix off the det classes."""
    a = oracle_operator(p, q, ell)
    n = a.shape[0]
    s = (a + a.T) / 2.0
    classes = oracle_det_classes(q)
    ind = np.zeros((n, len(classes)))
    for col, block in enumerate(classes):
        ind[list(block), col] = 1.0
    qmat, _ = np.linalg.qr(ind, mode="complete")
    q2 = qmat[:, len(classes):]
    vals = np.linalg.eigvalsh(q2.T @ s @ q2)
    return float(np.max(np.abs(vals)))


def class_walk(graph, block):
    """The graph's generator images acting on the level vertices ``block``
    (indices into ``level_table(q).vertices``), through the level's code
    table and not its block selection: a fixture of the same shell."""
    q = graph.q
    level = level_table(q, DEFAULT_CONFIG)
    at = np.full(len(level.vertices), -1)
    at[list(block)] = np.arange(len(block))
    va, vb, vc, vd = (col[None, :] for col in level.vertices[list(block)].T)
    identity = graph.vertices.tolist().index([1, 0, 0, 1])
    ga, gb, gc, gd = (col[:, None] for col in graph.vertices[graph.operator[:, identity]].T)
    entries = (ga * va + gb * vc, ga * vb + gb * vd, gc * va + gd * vc, gc * vb + gd * vd)
    codes = ((entries[0] % q * q + entries[1] % q) * q + entries[2] % q) * q + entries[3] % q
    return dataclasses.replace(
        graph, vertices=level.vertices[list(block)], operator=at[level.index[codes]]
    )


def dense(graph):
    """The n x n matrix S a permutation-table graph stands for."""
    n = len(graph.vertices)
    op = np.zeros((n, n))
    for perm, w in zip(graph.operator, graph.weights):
        op[np.arange(n), perm] += w
    return op / (2 * graph.degree)


def oracle_case(p, q, ell):
    # the id names the reduction both the package and the oracle apply
    return pytest.param(p, q, ell, id=f"{p}-{q}-{ell}-lagrange")


ORACLE_CASES = [
    oracle_case(p, q, ell)
    for p, q, ell in (
        [(2, 5, ell) for ell in range(5)]
        + [(3, 5, ell) for ell in range(1, 5)]
        + [(2, 7, ell) for ell in range(1, 5)]
        + [(2, 11, ell) for ell in range(1, 4)]
        + [(2, 9, 2), (5, 8, 1), (2, 15, 1), (7, 4, 1)]
    )
]


class TestProjectiveGroup:
    def test_orders(self):
        # |PGL_2(Z/q)| = |GL_2(Z/q)| / phi(q) = |SL_2(Z/q)|
        assert group_order_mod(5, 2) == 120
        assert group_order_mod(7, 2) == 336

    @pytest.mark.parametrize("q", range(2, 25))
    def test_vertex_count_is_the_group_order(self, q):
        assert len(level_table(q).vertices) == group_order_mod(q, 2)

    def test_vertex_counts(self):
        assert len(projective_vertices(5)) == 120
        assert len(projective_vertices(7)) == 336

    def test_canonical_under_scalars(self):
        # every scalar multiple of m maps to the vertex of m's least member
        q = 5
        units = _units(q)
        level = level_table(q)
        vertices = projective_vertices(q)
        rng = random.Random(11)
        for _ in range(20):
            m = ((rng.randrange(q), rng.randrange(q)), (rng.randrange(q), rng.randrange(q)))
            if det2(m) % q == 0:
                continue
            base = vertices.index(proj_canon(m, q, units))
            for s in units:
                assert level.index[code(tuple(s * e for row in m for e in row), q)] == base

    @pytest.mark.parametrize("q", [4, 5, 8, 9, 15])
    def test_vertices_match_loop_enumeration(self, q):
        assert projective_vertices(q) == oracle_vertices(q)

    def test_singular_codes_have_no_vertex(self):
        q = 6
        level = level_table(q)
        for m in [(0, 0, 0, 0), (2, 0, 0, 3), (1, 2, 2, 4), (3, 3, 1, 1)]:
            assert level.index[code(m, q)] == -1

    def test_determinant_classes_split_evenly(self):
        # the identity's block is one of the two det classes of level 5
        level = level_table(5)
        assert level.block.shape == (60, 4)
        assert (level.vertices[level.position >= 0] == level.block).all()
        assert level.position[level.position >= 0].tolist() == list(range(60))

    @pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 12, 25, 27])
    def test_block_is_the_identity_det_class(self, q):
        # n / k vertices, k = |units / unit squares|, and every image of a
        # shell permutes them
        units = _units(q)
        k = len(units) // len({u * u % q for u in units})
        g = build_hecke_graph(next(p for p in (2, 3, 5) if q % p), q, 1)
        n = len(g.vertices)
        assert n * k == group_order_mod(q, 2)
        assert g.vertices is level_table(q, DEFAULT_CONFIG).block
        vertices = oracle_vertices(q)
        assert [sum(vertices[i], ()) for i in oracle_identity_block(q)] == [
            tuple(v) for v in g.vertices.tolist()
        ]
        for perm in g.operator:
            assert (np.sort(perm) == np.arange(n)).all()

    def test_one_cache_entry_per_level(self):
        # the table is cached on q alone, so the two call forms share it
        spectral._level_table.cache_clear()
        tables = [level_table(7, *form) for _ in range(3) for form in ((), (DEFAULT_CONFIG,))]
        assert all(t is tables[0] for t in tables)
        info = spectral._level_table.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        # the budget is still checked against the cached level
        tight = dataclasses.replace(DEFAULT_CONFIG, spectral_vertex_budget=100)
        with pytest.raises(BudgetExceeded):
            level_table(7, tight)

    def test_vertex_budget(self):
        tight = dataclasses.replace(DEFAULT_CONFIG, spectral_vertex_budget=100)
        with pytest.raises(BudgetExceeded):
            projective_vertices(7, config=tight)

    def test_cube_bound_rejects_only_levels_over_budget(self, monkeypatch):
        # |SL_2(Z/q)| > q**3 / 2, so q**3 > 2 * budget is over budget unfactored
        assert all(2 * group_order_mod(q, 2) > q**3 for q in range(2, 500))

        def factor(*args, **kwargs):
            raise AssertionError("a level past the cube bound was factored")

        monkeypatch.setattr(spectral, "group_order_mod", factor)
        with pytest.raises(BudgetExceeded, match="q\\*\\*3/2"):
            level_table(10**18 + 3)

    def test_level_validation(self):
        for q in (1, 0, -4):
            with pytest.raises(ValueError, match="level must be at least 2"):
                level_table(q)


class TestLagrangeReduce:
    def test_preserves_determinant(self):
        rng = random.Random(12)
        for _ in range(100):
            m = (
                (rng.randrange(-50, 51), rng.randrange(-50, 51)),
                (rng.randrange(-50, 51), rng.randrange(-50, 51)),
            )
            assert det2(lagrange_reduce(m)) == det2(m)

    def test_is_a_fixpoint(self):
        rng = random.Random(13)
        for _ in range(100):
            m = (
                (rng.randrange(-50, 51), rng.randrange(-50, 51)),
                (rng.randrange(-50, 51), rng.randrange(-50, 51)),
            )
            r = lagrange_reduce(m)
            assert lagrange_reduce(r) == r

    def test_orders_rows_by_length(self):
        r = lagrange_reduce(((1, 7), (0, 4)))

        def norm2(row):
            return row[0] ** 2 + row[1] ** 2

        assert norm2(r[0]) <= norm2(r[1])

    def test_shrinks_triangular_representative(self):
        tall = ((1, 3), (0, 4))
        r = lagrange_reduce(tall)
        assert max(abs(e) for row in r for e in row) < 4


class TestOperator:
    def test_doubly_stochastic(self):
        # every image permutes the vertices and the multiplicities of the
        # generators and their adjugates sum to twice the degree, which is
        # what makes the symmetrized average doubly stochastic
        g = build_hecke_graph(2, 5, 1)
        assert g.degree == 6
        assert g.operator.shape == (len(g.weights), 60)
        assert int(g.weights.sum()) == 2 * g.degree
        for perm in g.operator:
            assert sorted(perm) == list(range(60))
        np.testing.assert_allclose(dense(g).sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(dense(g).sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(dense(g), dense(g).T)

    @pytest.mark.parametrize(
        "p,q,ell",
        [oracle_case(*case) for case in
         [(2, 5, 2), (3, 5, 1), (5, 8, 1), (2, 9, 1), (7, 4, 1)]],
    )
    def test_permutation_table_matches_dense_build(self, p, q, ell):
        # (A + A^T) / 2 of the oracle's operator on all vertices, restricted
        # to the block; an entry is a multiple of 1 / (2 * degree)
        g = build_hecke_graph(p, q, ell)
        block = list(oracle_identity_block(q))
        a = oracle_operator(p, q, ell)[np.ix_(block, block)]
        np.testing.assert_allclose(dense(g), (a + a.T) / 2, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p,q,ell", ORACLE_CASES)
    def test_images_preserve_the_det_classes(self, p, q, ell):
        # every image permutes each oracle det class, and the identity's
        # class is the built block
        g = build_hecke_graph(p, q, ell)
        for block in oracle_det_classes(q):
            walk = class_walk(g, block)
            assert (np.sort(walk.operator, axis=1) == np.arange(len(block))).all()
        same = class_walk(g, oracle_identity_block(q))
        assert (same.vertices == g.vertices).all() and (same.operator == g.operator).all()

    def test_radii_share_the_level_table(self):
        g1 = build_hecke_graph(2, 7, 1)
        assert build_hecke_graph(2, 7, 2).vertices is g1.vertices
        assert g1.vertices is level_table(7, DEFAULT_CONFIG).block
        for table in ("index", "block", "position"):
            with pytest.raises(ValueError):
                getattr(level_table(7, DEFAULT_CONFIG), table)[0] = 5

    def test_degree_larger_radius(self):
        g = build_hecke_graph(2, 7, 1)
        assert g.degree == 6
        assert len(g.vertices) == 168

    def test_invariant_classes_attached(self):
        # the graph is built on the identity's class alone, 60 of the 120
        # vertices of level 5
        g = build_hecke_graph(2, 5, 1)
        assert g.vertices is level_table(5, DEFAULT_CONFIG).block and len(g.vertices) == 60
        assert [1, 0, 0, 1] in g.vertices.tolist()

    def test_coprimality_required(self):
        with pytest.raises(ValueError):
            build_hecke_graph(5, 5, 1)

    def test_settings_after_the_radius_are_keyword_only(self):
        with pytest.raises(TypeError):
            build_hecke_graph(2, 5, 1, "hermite")
        with pytest.raises(TypeError):
            gap_decay_report(2, 5, [1], "lagrange")

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            build_hecke_graph(4, 5, 1)

    def test_level_budget_checked_before_generators(self, monkeypatch):
        def unbuilt(p, ell):
            raise AssertionError("generators built before the level budget check")

        monkeypatch.setattr(spectral, "hnf_representatives", unbuilt)
        cfg = dataclasses.replace(DEFAULT_CONFIG, spectral_vertex_budget=100)
        with pytest.raises(BudgetExceeded):
            build_hecke_graph(2, 7, 3, config=cfg)

    def test_shell_budget_checked_before_the_level(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("level or generators built before the shell budget")

        monkeypatch.setattr(spectral, "level_table", unbuilt)
        monkeypatch.setattr(spectral, "hnf_representatives", unbuilt)
        cfg = dataclasses.replace(DEFAULT_CONFIG, spectral_shell_budget=23)
        # (2, 5, 1) has 6 generators and (2, 5, 2) has 24
        with pytest.raises(BudgetExceeded, match="24 generators in the radius-2 shell"):
            build_hecke_graph(2, 5, 2, config=cfg)
        with pytest.raises(BudgetExceeded, match="radius-2"):
            gap_decay_report(2, 5, range(1, 4), config=cfg)
        monkeypatch.undo()
        assert build_hecke_graph(2, 5, 1, config=cfg).degree == 6

    def test_shell_memory_follows_the_level(self):
        # the 6144 generators of (2, 5, 6) are tallied as they stream, so
        # the peak follows the 120-vertex level, not the degree
        build_hecke_graph(2, 5, 1)  # the level table and volume checks, cached
        tracemalloc.start()
        try:
            g = build_hecke_graph(2, 5, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.degree == 6144
        assert peak < 1_000_000

    def test_product_table_is_filled_in_blocks(self):
        # (7, 13, 2) has 1062 images and adjugate images of the 1092
        # vertices of the block, a 9.3 MB table; one broadcast of all its
        # products peaks at about seven times that
        build_hecke_graph(7, 13, 1)  # the level table, cached
        tracemalloc.start()
        try:
            g = build_hecke_graph(7, 13, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.operator.shape == (1062, 1092)
        assert peak < 2 * g.operator.nbytes

    @pytest.mark.parametrize("broken", ["repeat", "outside"])
    def test_products_off_the_block_are_caught(self, monkeypatch, broken):
        # a level table whose block rows repeat, or lose a vertex, makes
        # some generator image fail the permutation check
        level = level_table(5)
        g = build_hecke_graph(2, 5, 1)
        rows = np.flatnonzero(level.position >= 0)
        identity = g.vertices.tolist().index([1, 0, 0, 1])
        unhit = np.setdiff1d(np.arange(len(rows)), g.operator[:, identity])
        position = level.position.copy()
        position[rows[unhit[0]]] = position[rows[unhit[1]]] if broken == "repeat" else -1
        monkeypatch.setattr(
            spectral, "_level_table", lambda q: dataclasses.replace(level, position=position)
        )
        match = "does not permute" if broken == "repeat" else "leaves the block"
        with pytest.raises(AssertionError, match=match):
            build_hecke_graph(2, 5, 1)

    def test_blocks_of_one_image_row_build_the_same_table(self, monkeypatch):
        whole = build_hecke_graph(2, 5, 3)
        monkeypatch.setattr(spectral, "SHELL_BLOCK", 1)
        rowwise = build_hecke_graph(2, 5, 3)
        assert (rowwise.operator == whole.operator).all()
        assert (rowwise.weights == whole.weights).all()


class TestSecondSingularValue:
    def test_frozen_value(self):
        g = build_hecke_graph(2, 5, 1)
        lam = second_singular_value(g)
        assert abs(lam - 0.6118462956843749) < 1e-9

    def test_trivial_radius_has_no_gap(self):
        g = build_hecke_graph(2, 5, 0)
        assert abs(second_singular_value(g) - 1.0) < 1e-12

    def test_disconnected_two_copy_fixture(self):
        g = build_hecke_graph(2, 5, 1)
        n = len(g.vertices)
        fixture = HeckeOperatorGraph(
            p=2,
            q=5,
            ell=1,
            vertices=np.concatenate([g.vertices, g.vertices]),
            operator=np.concatenate([g.operator, g.operator + n], axis=1),
            weights=g.weights,
            degree=g.degree,
        )
        assert abs(second_singular_value(fixture) - 1.0) < 1e-9

    def test_everything_class_constant(self):
        # one vertex: every function is constant
        fixture = HeckeOperatorGraph(
            p=2,
            q=5,
            ell=1,
            vertices=np.array([[1, 0, 0, 1]]),
            operator=np.array([[0]]),
            weights=np.array([1]),
            degree=1,
        )
        assert second_singular_value(fixture) == 1.0

    @pytest.mark.parametrize(
        "p,q,ell", ORACLE_CASES + [oracle_case(3, 8, 2), oracle_case(5, 12, 1)]
    )
    def test_matches_dense_oracle(self, p, q, ell):
        # the block's gap is the full level's gap off the det classes
        lam = second_singular_value(build_hecke_graph(p, q, ell))
        assert abs(lam - oracle_lambda2(p, q, ell)) < 1e-12

    @pytest.mark.parametrize("p,q,ell", [(3, 8, 2), (5, 12, 1), (2, 25, 1)])
    def test_every_det_class_has_the_block_gap(self, p, q, ell):
        # the level is k isomorphic copies of the block; at q = 25 the dense
        # oracle's 15000 x 15000 matrix is out of reach, and this is the check
        g = build_hecke_graph(p, q, ell)
        lam = second_singular_value(g)
        for block in oracle_det_classes(q):
            assert abs(second_singular_value(class_walk(g, block)) - lam) < 1e-12

    def test_repeated_calls_converge(self):
        # the start vector is fixed and nothing else is drawn, so every call
        # returns the same float, and the oracle's value to 12 digits
        g = build_hecke_graph(7, 4, 1)
        lams = {second_singular_value(g) for _ in range(500)}
        assert len(lams) == 1
        assert round(lams.pop(), 12) == round(oracle_lambda2(7, 4, 1), 12)

    @pytest.mark.parametrize("p,q,ell", [(2, 5, 1), (7, 4, 1), (3, 5, 2)])
    def test_stops_when_the_krylov_space_closes(self, monkeypatch, p, q, ell):
        # a Krylov space holds at most one direction per distinct eigenvalue,
        # so the iteration takes no more steps than the spectrum has values
        sizes = []
        real_eigh = np.linalg.eigh

        def eigh(t):
            sizes.append(len(t))
            return real_eigh(t)

        g = build_hecke_graph(p, q, ell)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        second_singular_value(g)
        monkeypatch.undo()
        distinct = len(np.unique(np.round(np.linalg.eigvalsh(dense(g) + dense(g).T), 8)))
        assert sizes == list(range(1, len(sizes) + 1))
        assert len(sizes) <= distinct

    def test_residual_miss_is_convergence_failure(self, monkeypatch):
        # no float eigenpair has residual 0, so a zero tolerance always misses
        monkeypatch.setattr(spectral, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(ConvergenceFailure, match="converge: residual"):
            second_singular_value(build_hecke_graph(2, 5, 1))

    def test_step_cap_is_convergence_failure(self, monkeypatch):
        # two steps are too few for this level; the basis stops at the cap
        sizes = []
        real_eigh = np.linalg.eigh

        def eigh(t):
            sizes.append(len(t))
            return real_eigh(t)

        g = build_hecke_graph(2, 5, 1)
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 2)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(ConvergenceFailure, match="in 2 steps"):
            second_singular_value(g)
        assert sizes == [1, 2]


class TestGapDecay:
    def test_decay_over_three_radii(self):
        rep = gap_decay_report(2, 5, range(1, 4))
        assert [r.volume for r in rep.rows] == [6, 24, 96]
        lams = [r.lambda2 for r in rep.rows]
        assert all(lam < 1 for lam in lams)
        assert lams == sorted(lams, reverse=True)
        assert rep.slope is not None and rep.slope <= -0.20
        assert rep.passed

    def test_single_row_has_no_slope(self):
        rep = gap_decay_report(2, 5, [1])
        assert rep.slope is None
        assert rep.passed is None
