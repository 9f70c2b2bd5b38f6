"""Strictly positive measures on the atoms of a finite Boolean algebra and
the Kolmogorov metric they induce.

A measure is a weight vector (x_0, ..., x_k) with every x_a > 0.  Two
distinct atoms a, b are at distance m(a) + m(b), which is all the package
needs of the metric; the distance between arbitrary elements of the
powerset algebra, the measure of their symmetric difference, is a test
oracle (``tests/oracle.py``).  Float totals need numpy, which is imported
only on that branch, so exact measures never load it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Tuple

from .scalars import (
    EXACT,
    FLOAT,
    Scalar,
    coerce,
    infer_mode,
    parse_scalar,
    scalar_to_json,
)

#: A float weight vector counts as normalized when its total is this close to 1.
NORMALIZATION_TOLERANCE = 1e-9


class MeasureError(ValueError):
    """Invalid weight vector or malformed measure document."""


AtomSubset = Tuple[int, ...]


class Measure(NamedTuple):
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
        return _float_total(self.weights)


def _float_total(weights) -> float:
    """numpy's pairwise sum, which normalized float weights depend on bit for bit."""
    import numpy as np

    return float(np.sum(np.asarray(weights, dtype=float)))


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
    if normalize:
        total = sum(weights) if actual_mode == EXACT else _float_total(weights)
        weights = tuple(w / total for w in weights)
    return Measure(weights=weights, mode=actual_mode,
                   normalized=_is_normalized(weights, actual_mode))


def _is_normalized(weights, mode) -> bool:
    total = sum(weights)
    if mode == EXACT:
        return total == 1
    return abs(float(total) - 1.0) <= NORMALIZATION_TOLERANCE


class DistanceMatrix(NamedTuple):
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
        import numpy as np

        return np.asarray(self.entries, dtype=float)


def atom_metric(m: Measure) -> DistanceMatrix:
    """The full (k+1) x (k+1) matrix of pairwise atom distances."""
    zero = Fraction(0) if m.mode == EXACT else 0.0
    rows = tuple(
        tuple(m.weights[i] + m.weights[j] if i != j else zero for j in range(m.size))
        for i in range(m.size)
    )
    return DistanceMatrix(entries=rows, mode=m.mode)


# -- JSON interchange ---------------------------------------------------------

def measure_to_json(m: Measure) -> dict:
    return {
        "weights": [scalar_to_json(w) for w in m.weights],
        "normalized": m.normalized,
    }


def measure_from_json(obj, mode: str = "auto") -> Measure:
    """Build a Measure from a parsed JSON document.

    Schema: {"weights": [numbers or "p/q" strings], "normalized": bool}.
    Rational strings put the measure in exact mode.  A "normalized" flag
    that is not true, false or null, or that contradicts the weights, is
    rejected.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("weights"), list):
        raise MeasureError('measure document must be an object with a "weights" array')
    stated = obj.get("normalized")
    if stated is not None and not isinstance(stated, bool):
        raise MeasureError(f'"normalized" must be true, false or null, got {stated!r}')
    m = validate_measure(obj["weights"], mode=mode)
    if stated is not None and stated != m.normalized:
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
