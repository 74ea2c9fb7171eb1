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
  coset of it.  The default therefore replaces each representative by the
  Lagrange-reduced basis of the same row lattice (a deterministic
  shortest-basis choice, left-equivalent over the integers), which spreads
  the action.  The literal choice stays available as
  rep_reduction="hermite" for comparison.

* Every generator has determinant p^(2*ell), the square of a unit mod q,
  while the determinant modulo unit squares is well defined on scalar
  classes.  Functions of that determinant class are therefore invariant
  for any choice of representatives, and the vertex set always splits into
  det-class blocks.  The operator norm is accordingly taken on the
  orthocomplement of the functions constant on each determinant class:
  that subspace is exactly where decay is possible, and on it the blocks
  carry isomorphic copies of the walk on the determinant-one classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .errors import BudgetExceeded, ConvergenceFailure
from .volumes import hnf_representatives, local_ball_volume

Mat2 = tuple[tuple[int, int], tuple[int, int]]


def projective_order(q: int) -> int:
    """Order of the projective group of invertible 2x2 matrices mod q."""
    if q < 2:
        raise ValueError("level must be at least 2")
    order = 1
    units = 1
    m = q
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            order *= p ** (4 * (a - 1)) * (p * p - 1) * (p * p - p)
            units *= p ** (a - 1) * (p - 1)
        p += 1
    if m > 1:
        order *= (m * m - 1) * (m * m - m)
        units *= m - 1
    return order // units


def _units(q: int) -> tuple[int, ...]:
    return tuple(x for x in range(1, q) if math.gcd(x, q) == 1)


def proj_canon(m: Mat2, q: int, units: Sequence[int]) -> Mat2:
    """Lexicographically least matrix in the unit-scalar orbit of m mod q."""
    best = None
    for lam in units:
        cand = (
            (lam * m[0][0] % q, lam * m[0][1] % q),
            (lam * m[1][0] % q, lam * m[1][1] % q),
        )
        if best is None or cand < best:
            best = cand
    return best


def _mat_mul_mod(a: Mat2, b: Mat2, q: int) -> Mat2:
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


def projective_vertices(q: int, config: Config = DEFAULT_CONFIG) -> tuple[Mat2, ...]:
    """All scalar classes of invertible matrices mod q, canonical form each.

    The expected count comes from the order formula first so oversized
    levels fail fast; the enumeration then confirms it exactly.
    """
    expected = projective_order(q)
    if expected > config.spectral_vertex_budget:
        raise BudgetExceeded(
            f"{expected} vertices at level {q}, budget {config.spectral_vertex_budget}"
        )
    units = _units(q)
    verts = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if math.gcd(a * d - b * c, q) != 1:
                        continue
                    m = ((a, b), (c, d))
                    if proj_canon(m, q, units) == m:
                        verts.append(m)
    if len(verts) != expected:
        raise AssertionError(f"found {len(verts)} vertices, expected {expected}")
    return tuple(verts)


def det_class_partition(
    vertices: Sequence[Mat2], q: int
) -> tuple[tuple[int, ...], ...]:
    """Group vertex indices by determinant modulo unit squares.

    The label of a class is the least element of its coset, so the
    partition order is deterministic.  Scalar rescaling moves the
    determinant by a square, which is why this is well defined on
    projective classes.
    """
    units = _units(q)
    squares = sorted({u * u % q for u in units})
    buckets: dict[int, list[int]] = {}
    for i, m in enumerate(vertices):
        det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q
        label = min(det * s % q for s in squares)
        buckets.setdefault(label, []).append(i)
    return tuple(tuple(buckets[k]) for k in sorted(buckets))


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
    """Left-multiplication averaging operator on the projective level group.

    ``invariant_classes`` lists vertex-index blocks known to be preserved
    by the walk for structural reasons (the determinant classes, for built
    graphs); the gap is measured orthogonally to functions constant on
    each block.  Hand-built fixtures may pass a single block covering
    everything to get the plain mean-zero convention.
    """

    p: int
    q: int
    ell: int
    vertices: tuple[Mat2, ...]
    operator: np.ndarray  # row-stochastic, shape (len(vertices),) * 2
    degree: int
    rep_reduction: str
    invariant_classes: tuple[tuple[int, ...], ...]


def build_hecke_graph(
    p: int,
    q: int,
    ell: int,
    rep_reduction: str = "lagrange",
    config: Config = DEFAULT_CONFIG,
) -> HeckeOperatorGraph:
    """Averaging operator over the determinant-p^(2*ell) classes at level q.

    rep_reduction "lagrange" (default) row-reduces every representative
    before reducing mod q; "hermite" uses the triangular forms as they are.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} must be coprime to the level q={q}")
    if rep_reduction not in ("lagrange", "hermite"):
        raise ValueError(f"unknown rep_reduction {rep_reduction!r}")
    degree = local_ball_volume(p, ell, config=config)
    reps = hnf_representatives(p, ell)
    if len(reps) != degree:
        raise AssertionError(f"{len(reps)} coset representatives for degree {degree}")
    if rep_reduction == "lagrange":
        reps = [lagrange_reduce(g) for g in reps]
    units = _units(q)
    # distinct mod-q images with multiplicity; identical images act identically
    images: dict[Mat2, int] = {}
    for g in reps:
        gbar = ((g[0][0] % q, g[0][1] % q), (g[1][0] % q, g[1][1] % q))
        gbar = proj_canon(gbar, q, units)
        images[gbar] = images.get(gbar, 0) + 1
    vertices = projective_vertices(q, config)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    op = np.zeros((n, n))
    for j, u in enumerate(vertices):
        total = 0
        for gbar, mult in images.items():
            w = proj_canon(_mat_mul_mod(gbar, u, q), q, units)
            op[j, index[w]] += mult
            total += mult
        if total != degree:
            raise AssertionError(f"row {j} has weight {total}, expected {degree}")
    op /= degree
    return HeckeOperatorGraph(
        p=p,
        q=q,
        ell=ell,
        vertices=vertices,
        operator=op,
        degree=degree,
        rep_reduction=rep_reduction,
        invariant_classes=det_class_partition(vertices, q),
    )


def second_singular_value(graph: HeckeOperatorGraph, tol: float = 1e-10) -> float:
    """Norm of the symmetrized operator outside the invariant-class space.

    The generator multiset is only inversion-closed up to scalars, so the
    operator is averaged with its transpose first.  The value is the
    largest absolute eigenvalue on the orthocomplement of the functions
    constant on each invariant class, with the eigenpair residual checked
    against ``tol``.
    """
    a = graph.operator
    n = a.shape[0]
    s = (a + a.T) / 2.0
    classes = graph.invariant_classes or (tuple(range(n)),)
    k = len(classes)
    if k >= n:
        return 1.0  # every function is class-constant, nothing to measure
    ind = np.zeros((n, k))
    for col, block in enumerate(classes):
        ind[list(block), col] = 1.0
    qmat, _ = np.linalg.qr(ind, mode="complete")
    q2 = qmat[:, k:]
    small = q2.T @ s @ q2
    small = (small + small.T) / 2.0
    vals, vecs = np.linalg.eigh(small)
    idx = int(np.argmax(np.abs(vals)))
    lam = float(vals[idx])
    v = q2 @ vecs[:, idx]
    residual = float(np.max(np.abs(s @ v - lam * v)))
    if residual > tol:
        raise ConvergenceFailure(f"eigenpair residual {residual:.3e} exceeds {tol:g}")
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
    threshold: float


def gap_decay_report(
    p: int,
    q: int,
    ell_range: Sequence[int],
    rep_reduction: str = "lagrange",
    threshold: float = -0.20,
    config: Config = DEFAULT_CONFIG,
) -> GapDecayReport:
    """Fit log(lambda2) against log(volume) over a range of radii.

    The pass flag requires the fitted slope at or below ``threshold``
    (default -0.20, the -1/4 prediction with 0.05 slack).  Fewer than two
    usable rows leave the slope undefined.
    """
    rows = []
    for ell in ell_range:
        g = build_hecke_graph(p, q, ell, rep_reduction=rep_reduction, config=config)
        lam = second_singular_value(g)
        rows.append(GapDecayRow(ell=ell, volume=g.degree, lambda2=lam))
    usable = [r for r in rows if r.lambda2 > 0]
    if len(usable) < 2:
        return GapDecayReport(
            p=p, q=q, rows=tuple(rows), slope=None, passed=None, threshold=threshold
        )
    xs = np.log([r.volume for r in usable])
    ys = np.log([r.lambda2 for r in usable])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return GapDecayReport(
        p=p,
        q=q,
        rows=tuple(rows),
        slope=slope,
        passed=slope <= threshold,
        threshold=threshold,
    )
