"""Isometric realization of flat atom spaces in Euclidean space.

The atoms are the centers of mutually tangent balls of radii x_a.  Over the
lightest atom b, the Gram matrix of the others is U S U^T + 2 diag(x^2) with
u_i = (x_b + x_i, x_i) and S = [[1, 0], [0, -2]], so its LDL^T runs on a 2x2
state in O(k^2) steps of the weights' own arithmetic.  Pivot j is the squared
height of atom j above the earlier ones; the coordinates L sqrt(D) are rounded
to doubles once, and since |p_i| = x_b + x_i <= d(i, j), to a few ulps per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flatness import is_flat
from .measure import DistanceMatrix, Measure, atom_metric

#: Bound on each pair's distance error relative to its target distance.
ISOMETRY_TOL = 1e-8


class NotFlatError(ValueError):
    """The measure does not satisfy the flatness precondition."""


class EmbeddingConsistencyError(RuntimeError):
    """The pivots or the residual contradict the flatness verdict."""


@dataclass(frozen=True)
class EmbeddingResult:
    """Coordinates realizing the atom metric.

    ``coordinates`` has one row per atom and ``dimension`` columns, with the
    row of ``base`` (the lightest atom, the first on ties) at the origin;
    ``max_residual`` is the largest gap between an embedded distance and the
    target metric, relative to the target distance.
    """

    dimension: int
    coordinates: np.ndarray
    max_residual: float
    base: int


def verify_isometry(coords: np.ndarray, d: DistanceMatrix) -> float:
    """Largest |embedded - target distance| / target distance over distinct points."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape[0] != d.size:
        raise ValueError(
            f"coordinate table has {pts.shape[0]} rows for {d.size} points")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    target = d.as_array()
    gap = np.abs(dist - target)
    np.fill_diagonal(target, 1.0)  # the gap is 0 there
    return float(np.max(gap / target))


def _place_atoms(weights):
    """(base, coordinates) by the LDL^T recurrence over the lightest atom."""
    base = weights.index(min(weights))
    xb = weights[base]
    order = [j for j in range(len(weights)) if j != base]
    s00, s01, s11 = 1, 0, -2
    coords = np.zeros((len(weights), len(order)))
    col = 0
    for pos, j in enumerate(order):
        a, b = xb + weights[j], weights[j]
        w0, w1 = s00 * a + s01 * b, s01 * a + s11 * b
        pivot = 2 * b * b + a * w0 + b * w1
        if pivot <= 0:  # 0 for a flat measure, with a zero column; a NaN is kept
            continue
        height = math.sqrt(pivot)
        coords[j, col] = height
        v0, v1 = w0 / pivot, w1 / pivot
        p, q = xb * v0, v0 + v1  # L_ij = u_i . w / pivot = p + x_i q
        for i in order[pos + 1:]:
            coords[i, col] = float(p + weights[i] * q) * height
        s00, s01, s11 = s00 - w0 * v0, s01 - w0 * v1, s11 - w1 * v1
        col += 1
    return base, coords[:, :col]


def embed(m: Measure, isometry_tol: float = ISOMETRY_TOL) -> EmbeddingResult:
    """Construct coordinates for a flat measure, lightest atom at the origin.

    Raises NotFlatError when the measure is not flat (or undecided in float
    mode), ValueError for a tolerance that is not finite and positive or for
    coordinates beyond double range, and EmbeddingConsistencyError when the
    positive pivots or the relative residual contradict the flatness report.
    """
    if not (math.isfinite(isometry_tol) and isometry_tol > 0):
        raise ValueError(f"isometry tolerance must be finite and positive, "
                         f"got {isometry_tol}")
    report = is_flat(m)
    if not report.flat:
        raise NotFlatError(
            f"measure is not flat; witness subset {report.witness} has "
            f"criterion value {report.subset_values[report.witness]}")
    if report.boundary:
        raise NotFlatError(
            f"flatness is indeterminate in float mode near subset "
            f"{report.boundary[0]}; supply rational weights")

    try:
        base, coords = _place_atoms(m.weights)
        in_range = (np.isfinite(coords).all()
                    and float(min(m.weights)) ** 2 >= np.finfo(float).tiny)
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError("the embedding coordinates or their squares are beyond double range")
    if coords.shape[1] != report.dimension:
        raise EmbeddingConsistencyError(f"{coords.shape[1]} positive pivots for a flat "
                                        f"measure of dimension {report.dimension}")
    residual = verify_isometry(coords, atom_metric(m))
    if not residual <= isometry_tol:
        raise EmbeddingConsistencyError(f"relative embedding residual {residual:.3e} "
                                        f"exceeds tolerance {isometry_tol:.1e}")
    return EmbeddingResult(dimension=report.dimension, coordinates=coords,
                           max_residual=residual, base=base)
