"""Isometric realization of flat atom spaces in Euclidean space.

The atoms are the centers of mutually tangent balls of radii x_a.  Over the
lightest atom b, the Gram matrix of the others is U S U^T + 2 diag(x^2) with
u_i = (x_b + x_i, x_i) and S = [[1, 0], [0, -2]], so its LDL^T runs on a 2x2
state in O(k) steps, and the k columns of L take O(k^2).  Exact weights run
it on Python integers, the weights over their common denominator
(``gram._exact_ldl``, whose pivots ``det`` multiplies); float weights in
floats (``gram._ldl_pivots``).  Pivot j is the squared height of atom j above
the earlier ones; each height and each entry of L is rounded to a double once
(for exact weights, one integer true division each), and since
|p_i| = x_b + x_i <= d(i, j), the coordinates are within a few ulps per pair.
For exact weights the residual is checked against the distances
(X_i + X_j) / D of the same integers, each rounded once.  Float weights
whose float pivots miscount the dimension are placed again exactly.

Float weights are scaled by a power of two into the middle of the double
range, and the coordinates back: the recurrence is homogeneous, so no
rounding changes, and the squares of [1, 1, 1, 1e200] stay finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .flatness import is_flat
from .gram import _exact_ldl, _ldl_pivots
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


def _place_atoms(weights):
    """(base, coordinates, xs, den) by the LDL^T recurrence over the lightest atom.

    Float weights run ``gram._ldl_pivots`` on themselves (xs = weights,
    den = 1); exact weights run ``gram._exact_ldl`` on the integers
    xs = weights * den over their common denominator.  Either way column j
    is L_ij = (c0 + xs_i c1) / r times the height, each rounded once.
    """
    import numpy as np

    base = weights.index(min(weights))
    if isinstance(weights[base], float):
        xs, den = weights, 1
        steps = _float_steps(xs, base)
    else:
        xs, den = over_common_denominator(weights)
        steps = _exact_steps(xs, base, den)
    order = [j for j in range(len(xs)) if j != base]
    coords = np.zeros((len(xs), len(order)))
    col = 0
    for pos, (j, height, c0, c1, r) in enumerate(steps):
        if height is None:  # a zero pivot for a flat measure, with a zero column
            continue
        coords[j, col] = height
        for i in order[pos + 1:]:
            coords[i, col] = (c0 + xs[i] * c1) / r * height
        col += 1
    return base, coords[:, :col], xs, den


def _float_steps(xs, base):
    """(j, height, c0, c1, 1) per atom j != base, height None for a dropped pivot."""
    xb = xs[base]
    for j, pivot, v0, v1 in _ldl_pivots(xs, base):
        if v0 is None:
            yield j, None, None, None, None
        else:  # L_ij = u_i . v = x_b v0 + x_i (v0 + v1)
            yield j, math.sqrt(pivot), xb * v0, v0 + v1, 1


def _exact_steps(xs, base, den):
    """(j, height, c0, c1, P) per atom j != base, height None for a zero pivot.

    The pivot is P / (q den^2), each height one integer true division and a
    square root; L_ij = (u_i . W) / P = (X_b w0 + X_i (w0 + w1)) / P.  A flat
    measure's Gram matrix is positive semidefinite, so a negative pivot
    contradicts the flatness verdict.
    """
    xb = xs[base]
    for j, p, q, w0, w1 in _exact_ldl(xs, base)[0]:
        if p < 0:
            raise EmbeddingConsistencyError(f"negative pivot at atom {j} of a flat measure")
        if p == 0:
            yield j, None, None, None, None
        else:
            yield j, math.sqrt(p / (q * den * den)), xb * w0, w0 + w1, p


def _exact_distances(ints, den) -> DistanceMatrix:
    """The atom metric of x = ints / den as doubles: each distance is one
    integer true division (X_i + X_j) / den, the double nearest x_i + x_j."""
    return DistanceMatrix(entries=tuple(
        tuple((a + b) / den if i != j else 0.0 for j, b in enumerate(ints))
        for i, a in enumerate(ints)), mode=FLOAT)


def embed(m: Measure, isometry_tol: float = ISOMETRY_TOL) -> EmbeddingResult:
    """Construct coordinates for a flat measure, lightest atom at the origin.

    Raises NotFlatError when the measure is not flat, ValueError for a
    tolerance that is not finite and positive or for coordinates beyond
    double range, and EmbeddingConsistencyError when the positive pivots or
    the relative residual contradict the flatness report.
    """
    if not (math.isfinite(isometry_tol) and isometry_tol > 0):
        raise ValueError(f"isometry tolerance must be finite and positive, "
                         f"got {isometry_tol}")
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
        base, coords, xs, den = _place_atoms(weights)
        if coords.shape[1] != report.dimension and m.mode == FLOAT:
            base, coords, xs, den = _place_atoms(tuple(map(Fraction, weights)))
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
    target = (atom_metric(m._replace(weights=weights)) if isinstance(xs[0], float)
              else _exact_distances(xs, den))
    residual = verify_isometry(coords, target)
    if not residual <= isometry_tol:
        raise EmbeddingConsistencyError(f"relative embedding residual {residual:.3e} "
                                        f"exceeds tolerance {isometry_tol:.1e}")
    return EmbeddingResult(dimension=report.dimension, coordinates=coords * 2.0 ** scale,
                           max_residual=residual, base=base)
