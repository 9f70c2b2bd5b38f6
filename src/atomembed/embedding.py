"""Isometric realization of flat atom spaces in Euclidean space.

The coordinates come from the spectral factorization of the full triple-
product Gram matrix: for a flat measure the matrix is positive semidefinite,
so with eigenpairs (l_i, v_i) the rows of V sqrt(L) reproduce every pairwise
distance, with the base atom at the origin.  The raw coordinate map given by
unnormalized triple products is not distance preserving, which is why the
factorization route is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flatness import is_flat
from .gram import gram_matrix
from .measure import DistanceMatrix, Measure, atom_metric

#: Residual bound the constructed embedding must meet.
ISOMETRY_TOL = 1e-8
#: Eigenvalues in [-CLIP_RTOL * |M|, 0] are flat directions and clipped to 0.
CLIP_RTOL = 1e-10


class NotFlatError(ValueError):
    """The measure does not satisfy the flatness precondition."""


class EmbeddingConsistencyError(RuntimeError):
    """The spectral factorization contradicts the flatness verdict."""


@dataclass(frozen=True)
class EmbeddingResult:
    """Coordinates realizing the atom metric.

    ``coordinates`` has one row per atom and ``dimension`` columns;
    ``max_residual`` is the largest absolute gap between an embedded distance
    and the target metric.
    """

    dimension: int
    coordinates: np.ndarray
    max_residual: float
    base: int


def verify_isometry(coords: np.ndarray, d: DistanceMatrix) -> float:
    """Largest |embedded distance - target distance| over all point pairs."""
    pts = np.asarray(coords, dtype=float)
    if pts.shape[0] != d.size:
        raise ValueError(
            f"coordinate table has {pts.shape[0]} rows for {d.size} points")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return float(np.max(np.abs(dist - d.as_array())))


def embed(m: Measure, isometry_tol: float = ISOMETRY_TOL) -> EmbeddingResult:
    """Construct coordinates for a flat measure, base atom at the origin.

    The number of coordinates is the flatness report's dimension, which for
    a flat measure is the rank of the Gram matrix; the spectrum is
    only checked against it.  Raises NotFlatError when the flatness check
    fails (or cannot be decided in float mode), and EmbeddingConsistencyError
    when the spectrum or the residual contradicts flatness.  A tolerance that
    is not finite and positive is refused with a ValueError.
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

    d = atom_metric(m)
    gram = gram_matrix(d, range(m.size)).as_array()
    eigvals, eigvecs = np.linalg.eigh(gram)
    norm = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    clip = CLIP_RTOL * norm
    if np.any(eigvals < -clip):
        raise EmbeddingConsistencyError(
            f"Gram matrix has eigenvalue {eigvals.min():.3e} below -{clip:.3e} "
            "despite a flat verdict")
    # eigh sorts ascending: the largest `rank` eigenpairs come last
    rank = report.dimension
    vals = np.maximum(eigvals[::-1][:rank], 0.0)
    vecs = eigvecs[:, ::-1][:, :rank]

    coords = np.zeros((m.size, rank))
    coords[1:, :] = vecs * np.sqrt(vals)
    residual = verify_isometry(coords, d)
    if residual > isometry_tol:
        raise EmbeddingConsistencyError(
            f"embedding residual {residual:.3e} exceeds tolerance {isometry_tol:.1e}")
    return EmbeddingResult(
        dimension=rank,
        coordinates=coords,
        max_residual=residual,
        base=0,
    )

