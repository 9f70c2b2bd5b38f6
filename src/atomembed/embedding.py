"""Isometric realization of flat atom spaces in Euclidean space.

The atoms are the centers of mutually tangent balls of radii x_a.  Over the
lightest atom b, the Gram matrix of the others is U S U^T + 2 diag(x^2) with
u_i = (x_b + x_i, x_i) and S = [[1, 0], [0, -2]], so its LDL^T runs on a 2x2
state in O(k) steps (``gram._ldl``, whose integer pivots ``det`` multiplies),
and the k columns of L take O(k^2).  Pivot j is the squared height of atom j
above the earlier ones.  Exact weights run it on Python integers over their
common denominator D: each height and entry of L is one integer true
division, rounded once, and since |p_i| = x_b + x_i <= d(i, j) the
coordinates are within a few ulps per pair of the distances (X_i + X_j) / D.

The atoms go lightest first, so z = 1/x descends, and the criterion
C(s) = (sum z)^2 - (s-2) sum z^2 of the first s of m atoms is concave in s;
with C(0) = 0, C(1) = 2 z_1^2 and C(m) >= 0 it is at least
2 z_1^2 (m-s)/(m-1).  So no leading block but the whole nears singularity,
and float weights run the recurrence on doubles up to the boundary of the
flat region.  A float placement that miscounts the dimension or misses
ISOMETRY_TOL is placed again exactly.

Float weights are scaled by a power of two into the middle of the double
range, and the coordinates back: the recurrence is homogeneous, so no
rounding changes, and the squares of [1, 1, 1, 1e200] stay finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .flatness import is_flat
from .gram import _ldl
from .measure import DistanceMatrix, Measure, atom_metric
from .scalars import FLOAT, over_common_denominator

#: Bound on each pair's distance error relative to its target distance.
ISOMETRY_TOL = 1e-8


class NotFlatError(ValueError):
    """The measure does not satisfy the flatness precondition."""


class EmbeddingConsistencyError(RuntimeError):
    """The pivots or the residual contradict the flatness verdict."""


class EmbeddingResult(NamedTuple):
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
    """Largest |embedded - target distance| / target distance over distinct points.

    Row blocks of about 2^20 differences keep memory small; every entry gets
    the operations it gets over the whole table, so the result is the same.
    """
    import numpy as np

    pts = np.asarray(coords, dtype=float)
    n = pts.shape[0]
    if n != d.size:
        raise ValueError(f"coordinate table has {n} rows for {d.size} points")
    target = d.as_array()
    divisor = target + np.eye(n)  # the gap is 0 on the diagonal
    rows = max(1, (1 << 20) // max(1, n * pts.shape[1]))
    worst = 0.0
    for lo in range(0, n, rows):
        diff = pts[lo:lo + rows, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        gap = np.abs(dist - target[lo:lo + rows])
        worst = max(worst, float(np.max(gap / divisor[lo:lo + rows])))
    return worst


def _place_atoms(weights, dimension):
    """(base, coordinates, residual) by ``gram._ldl`` on the atoms lightest first.

    The base is the lightest atom, ties go by index, and each row lands at
    its atom's index.  Float weights run it on themselves (xs = weights,
    den = 1), exact weights on the integers xs = weights * den.  Column j has
    the height sqrt(p / (q den^2)) and L_ij = (X_b w0 + X_i (w0 + w1)) / p
    times it.  A negative integer pivot contradicts flatness (the Gram matrix
    is positive semidefinite).  The residual is :func:`verify_isometry`
    against the distances of xs / den: inf when the columns miscount the
    dimension, NaN when a coordinate is not finite.
    """
    import numpy as np

    order = sorted(range(len(weights)), key=weights.__getitem__)
    base = order[0]
    floats = isinstance(weights[base], float)
    xs, den = (weights, 1) if floats else over_common_denominator(weights)
    coords = np.zeros((len(xs), len(xs) - 1))
    col = 0
    for pos, (p, q, w0, w1) in enumerate(_ldl([xs[i] for i in order])[0], 1):
        j = order[pos]
        if p < 0 and not floats:
            raise EmbeddingConsistencyError(f"negative pivot at atom {j} of a flat measure")
        if p <= 0:  # a zero pivot for a flat measure, with a zero column
            continue
        height = math.sqrt(p / (q * den * den))
        coords[j, col] = height
        c0, c1 = xs[base] * w0, w0 + w1
        for i in order[pos + 1:]:
            coords[i, col] = (c0 + xs[i] * c1) / p * height
        col += 1
    coords = coords[:, :col]
    if col != dimension:
        return base, coords, math.inf
    if not np.isfinite(coords).all():
        return base, coords, math.nan
    # exact weights: each distance is one integer true division (X_i + X_j) / den
    target = atom_metric(Measure(xs, FLOAT, False)) if floats else DistanceMatrix(
        entries=tuple(tuple((a + b) / den if i != j else 0.0 for j, b in enumerate(xs))
                      for i, a in enumerate(xs)), mode=FLOAT)
    return base, coords, verify_isometry(coords, target)


def embed(m: Measure) -> EmbeddingResult:
    """Construct coordinates for a flat measure, lightest atom at the origin.

    Raises NotFlatError when the measure is not flat, ValueError for
    coordinates beyond double range, and EmbeddingConsistencyError when the
    positive pivots or the relative residual (against ISOMETRY_TOL)
    contradict the flatness report.
    """
    report = is_flat(m)
    if not report.flat:
        raise NotFlatError(
            f"measure is not flat; witness subset {report.witness} has "
            f"criterion value {report.subset_values[report.witness]}")

    import numpy as np

    tiny = np.finfo(float).tiny
    weights, scale = m.weights, 0
    try:
        if m.mode == FLOAT:  # to the middle of the extreme weights' binary exponents
            scale = (math.frexp(min(weights))[1] + math.frexp(max(weights))[1]) // 2
            weights = tuple(math.ldexp(w, -scale) for w in weights)
        base, coords, residual = _place_atoms(weights, report.dimension)
        if m.mode == FLOAT and residual > ISOMETRY_TOL:  # a NaN one is refused below
            base, coords, residual = _place_atoms(tuple(map(Fraction, weights)),
                                                  report.dimension)
        # scaled back, the coordinates stay within an ulp or so of each
        # distance while the lightest weight is a normal double
        in_range = (np.isfinite(coords).all() and float(min(weights)) ** 2 >= tiny
                    and float(min(m.weights)) >= tiny
                    and math.isfinite(math.ldexp(float(np.abs(coords).max()), scale)))
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError("the embedding coordinates or their squares are beyond double range")
    if coords.shape[1] != report.dimension:
        raise EmbeddingConsistencyError(f"{coords.shape[1]} positive pivots for a flat "
                                        f"measure of dimension {report.dimension}")
    if not residual <= ISOMETRY_TOL:
        raise EmbeddingConsistencyError(f"relative embedding residual {residual:.3e} "
                                        f"exceeds tolerance {ISOMETRY_TOL:.1e}")
    return EmbeddingResult(dimension=report.dimension, coordinates=coords * 2.0 ** scale,
                           max_residual=residual, base=base)
