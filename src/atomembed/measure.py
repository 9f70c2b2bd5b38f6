"""Strictly positive measures on the atoms of a finite Boolean algebra and
the Kolmogorov metric they induce.

A measure is a weight vector (x_0, ..., x_k) with every x_a > 0.  Two
distinct atoms a, b are at distance m(a) + m(b); two arbitrary elements of
the powerset algebra are at the measure of their symmetric difference.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

import numpy as np

from .scalars import (
    EXACT,
    FLOAT,
    Scalar,
    coerce,
    infer_mode,
    parse_scalar,
    scalar_to_json,
)

#: Float weights below this are kept but flagged: the strict-positivity axiom
#: still holds semantically, while double rounding makes verdicts unreliable.
DEGENERACY_THRESHOLD = 1e-12

#: A float weight vector counts as normalized when its total is this close to 1.
NORMALIZATION_TOLERANCE = 1e-9


class MeasureError(ValueError):
    """Invalid weight vector or malformed measure document."""


class DegenerateWeightWarning(UserWarning):
    """A float-mode weight is positive but too small to trust sign verdicts."""


AtomSubset = Tuple[int, ...]


@dataclass(frozen=True)
class Measure:
    """Immutable weight vector on k+1 atoms.

    ``mode`` is "exact" (all weights Fractions) or "float".  ``normalized``
    records whether the weights sum to one; unnormalized measures are legal
    everywhere a classification is computed, since the verdict is invariant
    under positive scaling.
    """

    weights: Tuple[Scalar, ...]
    mode: str
    normalized: bool

    @property
    def size(self) -> int:
        """Number of atoms, k+1."""
        return len(self.weights)

    def reciprocals(self) -> Tuple[Scalar, ...]:
        """1/x for every weight: exact Fractions in exact mode, doubles in float mode."""
        one = Fraction(1) if self.mode == EXACT else 1.0
        return tuple(one / w for w in self.weights)

    def subset_weights(self, indices: Iterable[int]) -> Tuple[Scalar, ...]:
        return tuple(self.weights[i] for i in indices)

    def total(self) -> Scalar:
        if self.mode == EXACT:
            return sum(self.weights, Fraction(0))
        return float(np.sum(np.asarray(self.weights, dtype=float)))


def validate_measure(raw_weights: Sequence, mode: str = "auto",
                     normalize: bool = False) -> Measure:
    """Check the measure axioms and build a Measure.

    Raises MeasureError for empty input, fewer than two atoms, or any
    non-finite or non-positive weight.  With ``normalize`` the weights are divided by their
    total, which is exact in rational mode.
    """
    if raw_weights is None or len(raw_weights) == 0:
        raise MeasureError("a measure needs at least two atom weights, got none")
    parsed = [parse_scalar(w, exact_required=(mode == EXACT)) for w in raw_weights]
    actual_mode = infer_mode(parsed) if mode == "auto" else mode
    if actual_mode not in (EXACT, FLOAT):
        raise MeasureError(f"unknown scalar mode {actual_mode!r}")
    weights = coerce(parsed, actual_mode)
    if len(weights) < 2:
        raise MeasureError("a Boolean algebra with fewer than two atoms has no "
                           "nontrivial atom space; need at least two weights")
    for i, w in enumerate(weights):
        if actual_mode == FLOAT and not math.isfinite(w):
            raise MeasureError(f"non-finite weight at index {i}: {w}")
        if not (w > 0):
            raise MeasureError(f"non-positive weight at index {i}: {w}")
        if actual_mode == FLOAT and w < DEGENERACY_THRESHOLD:
            warnings.warn(
                f"weight {w!r} at index {i} is below {DEGENERACY_THRESHOLD}; "
                "float-mode sign verdicts near this scale are unreliable",
                DegenerateWeightWarning,
                stacklevel=2,
            )
    if normalize:
        total = sum(weights) if actual_mode == EXACT else float(np.sum(weights))
        weights = tuple(w / total for w in weights)
    return Measure(weights=weights, mode=actual_mode,
                   normalized=_is_normalized(weights, actual_mode))


def _is_normalized(weights, mode) -> bool:
    total = sum(weights)
    if mode == EXACT:
        return total == 1
    return abs(float(total) - 1.0) <= NORMALIZATION_TOLERANCE


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric matrix of pairwise distances with zero diagonal."""

    entries: Tuple[Tuple[Scalar, ...], ...]
    mode: str

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i][j]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)


def distance_matrix(entries: Sequence[Sequence[Scalar]], mode: str = "auto") -> DistanceMatrix:
    """Validate the metric axioms and freeze the matrix.

    Entries must be finite.  Symmetry and the zero diagonal are checked
    exactly; in float mode the triangle inequality is allowed a relative
    slack of 1e-12 to absorb rounding of sums.
    """
    n = len(entries)
    if n < 2:
        raise MeasureError("a distance matrix needs at least two points")
    flat = [v for row in entries for v in row]
    if any(len(row) != n for row in entries):
        raise MeasureError("distance matrix must be square")
    actual_mode = infer_mode(parse_scalar(v) for v in flat) if mode == "auto" else mode
    rows = tuple(coerce((parse_scalar(v) for v in row), actual_mode) for row in entries)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if actual_mode == FLOAT and not math.isfinite(v):
                raise MeasureError(f"non-finite distance at ({i},{j}): {v}")
    scale = max(abs(float(v)) for v in flat) or 1.0
    slack = 0 if actual_mode == EXACT else 1e-12 * scale
    for i in range(n):
        if rows[i][i] != 0:
            raise MeasureError(f"nonzero diagonal at {i}: {rows[i][i]}")
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise MeasureError(f"asymmetric entries at ({i},{j})")
            if i != j and not (rows[i][j] > 0):
                raise MeasureError(f"non-positive distance at ({i},{j}): {rows[i][j]}")
    for i in range(n):
        for j in range(n):
            for l in range(n):
                if rows[i][l] > rows[i][j] + rows[j][l] + slack:
                    raise MeasureError(
                        f"triangle inequality fails for ({i},{j},{l}): "
                        f"{rows[i][l]} > {rows[i][j]} + {rows[j][l]}"
                    )
    return DistanceMatrix(entries=rows, mode=actual_mode)


def atom_distance(m: Measure, i: int, j: int) -> Scalar:
    """Distance between two atoms: 0 when i == j, else x_i + x_j."""
    k1 = m.size
    if not (0 <= i < k1 and 0 <= j < k1):
        raise MeasureError(f"atom index out of range: ({i},{j}) for {k1} atoms")
    if i == j:
        return Fraction(0) if m.mode == EXACT else 0.0
    return m.weights[i] + m.weights[j]


def atom_metric(m: Measure) -> DistanceMatrix:
    """The full (k+1) x (k+1) matrix of pairwise atom distances."""
    zero = Fraction(0) if m.mode == EXACT else 0.0
    rows = tuple(
        tuple(m.weights[i] + m.weights[j] if i != j else zero for j in range(m.size))
        for i in range(m.size)
    )
    return DistanceMatrix(entries=rows, mode=m.mode)


def atom_subset(indices: Iterable[int], size: int) -> AtomSubset:
    """Canonical sorted tuple of atom indices, checked for range and duplicates."""
    idx = tuple(sorted(int(i) for i in indices))
    if any(i < 0 or i >= size for i in idx):
        raise MeasureError(f"subset {idx} out of range for {size} atoms")
    if len(set(idx)) != len(idx):
        raise MeasureError(f"subset {idx} contains duplicate indices")
    return idx


def complement(subset: Iterable[int], size: int) -> AtomSubset:
    chosen = set(subset)
    return tuple(i for i in range(size) if i not in chosen)


def powerset_distance(m: Measure, a: Iterable[int], b: Iterable[int]) -> Scalar:
    """Kolmogorov distance between two algebra elements given as atom sets.

    Equals the total weight of the symmetric difference of the two sets.
    """
    sa = set(atom_subset(a, m.size))
    sb = set(atom_subset(b, m.size))
    sym = sa.symmetric_difference(sb)
    zero = Fraction(0) if m.mode == EXACT else 0.0
    return sum((m.weights[i] for i in sorted(sym)), zero)


def powerset_metric(m: Measure, elements: Sequence[Iterable[int]]) -> DistanceMatrix:
    """Distance matrix over arbitrary algebra elements (atom sets).

    The elements must be pairwise distinct as sets, otherwise the zero
    distance between duplicates violates the metric axioms.
    """
    sets = [frozenset(atom_subset(e, m.size)) for e in elements]
    if len(set(sets)) != len(sets):
        raise MeasureError("powerset metric requires pairwise distinct elements")
    rows = [
        [powerset_distance(m, a, b) for b in sets]
        for a in sets
    ]
    return distance_matrix(rows, mode=m.mode)


# -- JSON interchange ---------------------------------------------------------

def measure_to_json(m: Measure) -> dict:
    return {
        "weights": [scalar_to_json(w) for w in m.weights],
        "normalized": m.normalized,
    }


def measure_from_json(obj, mode: str = "auto") -> Measure:
    """Build a Measure from a parsed JSON document.

    Schema: {"weights": [numbers or "p/q" strings], "normalized": bool}.
    Rational strings put the measure in exact mode.  A stated "normalized"
    flag that contradicts the weights is rejected.
    """
    if not isinstance(obj, dict) or "weights" not in obj:
        raise MeasureError('measure document must be an object with a "weights" array')
    m = validate_measure(obj["weights"], mode=mode)
    stated = obj.get("normalized")
    if stated is not None and bool(stated) != m.normalized:
        raise MeasureError(
            f"document claims normalized={stated} but the weights sum to {m.total()}"
        )
    return m


def load_measure(path, mode: str = "auto") -> Measure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeasureError(f"malformed JSON in {path}: {exc}") from exc
    return measure_from_json(obj, mode=mode)
