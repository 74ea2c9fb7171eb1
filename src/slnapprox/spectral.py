"""Finite-level averaging operators and their spectral gap.

The radius parameter ell picks the primitive determinant-p^(2*ell) classes;
their representatives, reduced mod a level q coprime to p, act by left
multiplication on the projective group of invertible 2x2 matrices mod q.
Averaging over the classes gives a doubly stochastic operator whose norm on
the oscillatory part of the function space is the quantity of interest: it
should decay like a negative power of the class count as ell grows.

Two structural artifacts of this finite model pin trivial eigenvalues at 1
and have to be handled explicitly rather than measured:

* Hermite-form representatives are upper triangular, so taken literally
  they generate a triangular subgroup mod q and the walk never leaves a
  coset of it.  Each representative is therefore replaced by the
  Lagrange-reduced basis of the same row lattice (a deterministic
  shortest-basis choice, left-equivalent over the integers), which spreads
  the action.

* Every generator has determinant p^(2*ell), the square of a unit mod q,
  while the determinant modulo unit squares is well defined on scalar
  classes.  Left multiplication therefore maps the vertices whose
  determinant is a unit square (the class of the identity) onto
  themselves, and right multiplication by diag(1, u), which commutes with
  it, maps that block onto the block of det class u.  The operator is k
  isomorphic copies of one block, k = |units / unit squares| (2 for an
  odd prime power q, 4 at q = 8 and 12), and its norm off the functions
  constant on each determinant class is the norm of the identity's block
  on its mean-zero functions.  Only that block is built.

A level has n = |GL_2(Z/q)| / phi(q) = |SL_2(Z/q)| vertices, the order
``densities.group_order_mod(q, 2)`` gives, and the identity's block n / k
of them.  No n x n matrix is formed.  A table indexed by the integer code
of a matrix mod q gives the vertex of its scalar class, left
multiplication by each distinct generator image is stored as the
permutation of the block it induces, and the gap comes from a Lanczos
iteration on numpy arrays that applies the permutations and subtracts the
mean of a vector, keeping at most LANCZOS_MAX_STEPS basis vectors.  The
shell is streamed: generator codes are read SHELL_BLOCK at a time and
tallied per vertex, so memory is about (images + 1) * n / k ints plus the
q**4 code table, whatever the degree.  The vertex budget still charges
all n vertices, which the code table indexes.
Time still grows with the (p+1) * p**(2*ell-1) generators, each
Lagrange-reduced in Python, so ``Config.spectral_shell_budget`` bounds
their count, read off the closed form before the level table or any
generator is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .densities import group_order_mod
from .errors import BudgetExceeded, ConvergenceFailure
from .volumes import hnf_representatives, local_ball_volume

Mat2 = tuple[tuple[int, int], tuple[int, int]]

# an eigenpair of the symmetrized operator must meet this max-norm residual
_RESIDUAL_TOL = 1e-10
# Lanczos stops once the top Ritz pair's residual bound beta * |s_last| is
# below this
_RITZ_TOL = 1e-12
# the Lanczos basis holds at most this many vectors of n floats: over four
# times the 84 steps of the slowest level measured, (p, q, ell) = (2, 25, 1)
LANCZOS_MAX_STEPS = 400
# basis vectors allocated at a time, so a short solve keeps a short basis
LANCZOS_BLOCK = 32
# a gap-decay fit passes at or below this slope: the -1/4 prediction with
# 0.05 slack
SLOPE_THRESHOLD = -0.20
# generator codes read at a time from the streamed shell: the block and its
# vertex tally are all the build holds beyond the level and the operator
SHELL_BLOCK = 1 << 16


def _units(q: int) -> tuple[int, ...]:
    return tuple(x for x in range(1, q) if math.gcd(x, q) == 1)


@dataclass(frozen=True)
class LevelTable:
    """Scalar classes of invertible 2x2 matrices mod q, indexed by code.

    A matrix [[a, b], [c, d]] mod q has the code ((a*q + b)*q + c)*q + d,
    so code order is the lexicographic order of matrices.  Each class is
    represented by its least member; ``vertices`` holds these in code order
    as an (n, 4) int array of (a, b, c, d).  ``index[code]`` is the vertex
    of the class of any invertible matrix and -1 for a singular one.
    ``block`` holds the vertices whose determinant is a unit square mod q
    (well defined on classes), in code order, and ``position[i]`` is the
    row of vertex i in ``block``, -1 outside it.
    """

    q: int
    vertices: np.ndarray
    index: np.ndarray
    block: np.ndarray
    position: np.ndarray


def _encode(q: int, a, b, c, d):
    """Code of [[a, b], [c, d]] mod q, for ints or entrywise over int arrays."""
    return ((a % q * q + b % q) * q + c % q) * q + d % q


@lru_cache(maxsize=1)
def level_table(q: int, config: Config = DEFAULT_CONFIG) -> LevelTable:
    """Canonical vertices and the code -> vertex table of level q.

    The expected vertex count comes from ``group_order_mod`` first, so an
    oversized level fails before any table is allocated; the vectorized
    scan over all q**4 codes then confirms it exactly.  The last table is
    kept, read-only, so the radii of one level share it.  q must be at
    least 2 (ValueError).
    """
    if q < 2:
        raise ValueError("level must be at least 2")
    # |SL_2(Z/q)| > q**3 / 2, so a level this large is over budget unfactored
    if q**3 > 2 * config.spectral_vertex_budget:
        raise BudgetExceeded(
            f"more than q**3/2 vertices at level {q}, "
            f"budget {config.spectral_vertex_budget}"
        )
    expected = group_order_mod(q, 2)
    if expected > config.spectral_vertex_budget:
        raise BudgetExceeded(
            f"{expected} vertices at level {q}, budget {config.spectral_vertex_budget}"
        )
    codes = np.arange(q**4, dtype=np.int64)
    a, b, c, d = (codes // q**3, codes // q**2 % q, codes // q % q, codes % q)
    det = (a * d - b * c) % q
    invertible = np.gcd(det, q) == 1
    units = _units(q)
    least = codes.copy()
    for lam in units[1:]:
        np.minimum(least, _encode(q, lam * a, lam * b, lam * c, lam * d), out=least)
    vertex_codes = codes[invertible & (least == codes)]
    if len(vertex_codes) != expected:
        raise AssertionError(f"found {len(vertex_codes)} vertices, expected {expected}")
    index = np.full(q**4, -1, dtype=np.intp)
    index[vertex_codes] = np.arange(len(vertex_codes))
    index = np.where(invertible, index[least], -1)
    vertices = np.stack([x[vertex_codes] for x in (a, b, c, d)], axis=1)
    square = np.isin(det[vertex_codes], [u * u % q for u in units])
    block = vertices[square]
    position = np.full(len(vertices), -1, dtype=np.intp)
    position[square] = np.arange(len(block))
    for x in (vertices, index, block, position):
        x.flags.writeable = False
    return LevelTable(q=q, vertices=vertices, index=index, block=block, position=position)


def lagrange_reduce(m: Mat2) -> Mat2:
    """Shortest-basis form of the row lattice of m, left-equivalent over Z.

    Classical two-dimensional reduction: repeatedly subtract the rounded
    projection and swap so the first row stays the shorter one.  The swap
    negates one row, keeping the determinant equal to det(m).  Rounding is
    exact integer arithmetic (half rounds away from zero) so the output is
    deterministic.
    """
    r1, r2 = list(m[0]), list(m[1])

    def norm2(r):
        return r[0] * r[0] + r[1] * r[1]

    if norm2(r1) > norm2(r2):
        r1, r2 = r2, [-r1[0], -r1[1]]
    while True:
        n1 = norm2(r1)
        if n1 == 0:
            break
        # nearest integer to <r1,r2>/<r1,r1>; exact half-ties keep r2 as it
        # is (mu = 0), which makes the reduction idempotent on the boundary
        dot = r1[0] * r2[0] + r1[1] * r2[1]
        mu = (
            (2 * dot + n1 - 1) // (2 * n1)
            if dot >= 0
            else -((2 * -dot + n1 - 1) // (2 * n1))
        )
        if mu:
            r2 = [r2[0] - mu * r1[0], r2[1] - mu * r1[1]]
        if norm2(r2) < n1:
            r1, r2 = r2, [-r1[0], -r1[1]]
        else:
            break
    return (tuple(r1), tuple(r2))


@dataclass(frozen=True)
class HeckeOperatorGraph:
    """Left-multiplication averaging operator on the identity's
    determinant class of the projective level group.

    Left multiplication by a generator permutes the vertices of that block,
    so the operator is stored as one permutation per distinct generator
    image: ``operator[i, j]`` is the index of the vertex image_i * vertex_j,
    and ``weights[i]`` counts the generators with that image.  The operator
    averages f over the images, (A f)(j) = sum_i weights[i] *
    f(operator[i, j]) / degree; it is never formed as an n x n matrix.  The
    gap is measured on the mean-zero functions.
    """

    p: int
    q: int
    ell: int
    vertices: np.ndarray  # (n, 4) int (a, b, c, d) of each vertex, code order
    operator: np.ndarray  # int vertex permutations, shape (images, n)
    weights: np.ndarray  # int multiplicities, shape (images,), summing to degree
    degree: int


def _shell_degree(p: int, q: int, ell: int, config: Config) -> int:
    """Generator count of the shell from its closed form, within the shell
    budget (BudgetExceeded); p must be a prime coprime to q (ValueError)."""
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} must be coprime to the level q={q}")
    degree = local_ball_volume(p, ell, config=config)
    if degree > config.spectral_shell_budget:
        raise BudgetExceeded(
            f"{degree} generators in the radius-{ell} shell of p={p}, "
            f"budget {config.spectral_shell_budget}"
        )
    return degree


def build_hecke_graph(
    p: int,
    q: int,
    ell: int,
    *,
    config: Config = DEFAULT_CONFIG,
) -> HeckeOperatorGraph:
    """Averaging operator over the determinant-p^(2*ell) classes at level q,
    on the vertices of the identity's determinant class.

    Every representative is Lagrange-reduced before reduction mod q, the
    shell is tallied per vertex SHELL_BLOCK generators at a time, and the
    permutation table is filled max(1, SHELL_BLOCK // n) image rows at a
    time, so the build holds the table plus one block of products.
    """
    degree = _shell_degree(p, q, ell, config)
    # the vertex budget applies before the first generator is built too
    level = level_table(q, config)
    n = len(level.block)
    codes = (
        _encode(q, *(x for row in lagrange_reduce(g) for x in row))
        for g in hnf_representatives(p, ell)
    )
    # distinct images as vertices, with multiplicity; equal images act
    # equally, and each has a square determinant, so lies in the block
    weights = np.zeros(n, dtype=np.intp)
    while (block := np.fromiter(islice(codes, SHELL_BLOCK), dtype=np.int64)).size:
        weights += np.bincount(level.position[level.index[block]], minlength=n)
    images = np.flatnonzero(weights)
    weights = weights[images]
    # row i of the products: image_i times every vertex, a block of rows at a time
    va, vb, vc, vd = level.block.T
    perms = np.empty((len(images), n), dtype=level.position.dtype)
    rows = max(1, SHELL_BLOCK // n)
    for start in range(0, len(images), rows):
        block = perms[start : start + rows]
        g = level.block[images[start : start + rows]]
        ga, gb, gc, gd = (col[:, None] for col in g.T)
        codes = _encode(
            q, ga * va + gb * vc, ga * vb + gb * vd, gc * va + gd * vc, gc * vb + gd * vd
        )
        np.take(level.position, level.index[codes], out=block)
        if block.min() < 0 or (np.sort(block, axis=1) != np.arange(n)).any():
            raise AssertionError("a generator image does not permute the block")
    if int(weights.sum()) != degree:
        raise AssertionError(f"image weights sum to {weights.sum()}, expected {degree}")
    return HeckeOperatorGraph(
        p=p,
        q=q,
        ell=ell,
        vertices=level.block,
        operator=perms,
        weights=weights,
        degree=degree,
    )


def second_singular_value(graph: HeckeOperatorGraph) -> float:
    """Norm of the symmetrized operator on the mean-zero functions.

    The generator multiset is only inversion-closed up to scalars, so the
    operator is averaged with its transpose: S f = (A f + A^T f) / 2, where
    A^T applies the inverse permutations.  The value is the largest absolute
    eigenvalue of P S P, with P subtracting the mean, found
    by a Lanczos iteration from a fixed start vector, so equal graphs give
    equal floats.  Each step orthogonalizes the new direction against the
    whole basis (two classical Gram-Schmidt passes) and reads the Ritz
    values off the tridiagonal matrix.  It stops once the Ritz pair of
    largest |theta| has a residual bound beta * |s_last| below
    ``_RITZ_TOL``; a beta of about 0 means the Krylov space has closed,
    every eigenvalue it holds has been found, and the bound is met too.
    The eigenpair residual against S is then checked against
    ``_RESIDUAL_TOL``.  A miss, or a basis that would pass
    ``LANCZOS_MAX_STEPS`` vectors, raises ConvergenceFailure.
    """
    perms = graph.operator
    n = len(graph.vertices)
    if n <= 1:
        return 1.0  # every function is constant, nothing to measure
    inverses = np.empty_like(perms)
    np.put_along_axis(inverses, perms, np.arange(n)[None, :], axis=1)
    w = graph.weights / (2.0 * graph.degree)

    def sym(x):
        return w @ x[perms] + w @ x[inverses]

    def project(x):
        return x - x.mean()

    v = project(np.random.default_rng(0).standard_normal(n))
    # the orthonormal basis is allocated LANCZOS_BLOCK rows at a time, never
    # past the step cap; `basis` views the rows filled so far
    blocks: list[np.ndarray] = []
    alphas: list[float] = []
    betas: list[float] = []
    beta = float(np.linalg.norm(v))
    for steps in range(LANCZOS_MAX_STEPS):
        if steps % LANCZOS_BLOCK == 0:
            blocks.append(np.empty((min(LANCZOS_BLOCK, LANCZOS_MAX_STEPS - steps), n)))
        basis = [b[: steps + 1 - i * LANCZOS_BLOCK] for i, b in enumerate(blocks)]
        v = basis[-1][-1] = v / beta
        u = project(sym(v))
        alphas.append(float(v @ u))
        for _ in range(2):
            for b in basis:
                u -= (b @ u) @ b
        betas.append(beta := float(np.linalg.norm(u)))
        thetas, vecs = np.linalg.eigh(
            np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
        )
        top = int(np.argmax(np.abs(thetas)))
        if beta * abs(vecs[-1, top]) < _RITZ_TOL:
            break
        v = u
    else:
        raise ConvergenceFailure(
            f"Lanczos eigensolve did not converge in {LANCZOS_MAX_STEPS} steps"
        )
    lam = float(thetas[top])
    x = sum(vecs[i * LANCZOS_BLOCK : (i + 1) * LANCZOS_BLOCK, top] @ b
            for i, b in enumerate(basis))
    residual = float(np.max(np.abs(sym(x) - lam * x)))
    if residual > _RESIDUAL_TOL:
        raise ConvergenceFailure(
            f"Lanczos eigenpair did not converge: residual {residual:.3e} "
            f"exceeds {_RESIDUAL_TOL:g}"
        )
    return abs(lam)


@dataclass(frozen=True)
class GapDecayRow:
    ell: int
    volume: int
    lambda2: float


@dataclass(frozen=True)
class GapDecayReport:
    p: int
    q: int
    rows: tuple[GapDecayRow, ...]
    slope: float | None
    passed: bool | None


def gap_decay_report(
    p: int,
    q: int,
    ell_range: Sequence[int],
    *,
    config: Config = DEFAULT_CONFIG,
) -> GapDecayReport:
    """Fit log(lambda2) against log(volume) over a range of radii.

    The pass flag requires the fitted slope at or below ``SLOPE_THRESHOLD``.
    Fewer than two usable rows leave the slope undefined.
    """
    # every shell is held to its budget before the first one is built
    for ell in ell_range:
        _shell_degree(p, q, ell, config)
    rows = []
    for ell in ell_range:
        g = build_hecke_graph(p, q, ell, config=config)
        lam = second_singular_value(g)
        rows.append(GapDecayRow(ell=ell, volume=g.degree, lambda2=lam))
    usable = [r for r in rows if r.lambda2 > 0]
    if len(usable) < 2:
        return GapDecayReport(p=p, q=q, rows=tuple(rows), slope=None, passed=None)
    xs = np.log([r.volume for r in usable])
    ys = np.log([r.lambda2 for r in usable])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return GapDecayReport(
        p=p, q=q, rows=tuple(rows), slope=slope, passed=slope <= SLOPE_THRESHOLD
    )
