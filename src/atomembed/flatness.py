"""Flatness of the atom space, its dimension, and embeddability verdicts.

A finite metric space is flat when every simplex of its points has a
nonnegative triple-product Gram determinant; a flat space of dimension N
embeds isometrically in R^N and in no smaller Euclidean space.  For atom
spaces every pair and every triple passes automatically, so only subsets of
four or more atoms are checked, via the scale-free reduced criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .gram import criterion_sign
from .measure import AtomSubset, Measure
from .scalars import Scalar


@dataclass(frozen=True)
class Classification:
    """Embeddability verdict.

    verdict is "embeddable" (with the dimension), "not_embeddable" (with the
    witness subset) or "indeterminate" (float-mode value inside the boundary
    margin, with the reason).
    """

    verdict: str
    dimension: Optional[int] = None
    witness: Optional[AtomSubset] = None
    reason: Optional[str] = None

    @property
    def letter(self) -> str:
        return {"embeddable": "E", "not_embeddable": "N", "indeterminate": "I"}[self.verdict]


@dataclass(frozen=True)
class FlatnessReport:
    """Outcome of the subset sweep.

    ``witness`` is the first failing subset in (size, lexicographic) order,
    or None when the measure is flat.  ``subset_values`` maps every checked
    subset to its criterion value in the same deterministic order;
    ``boundary`` lists float-mode subsets whose value was too close to zero
    to trust the sign.  ``dimension`` is the largest n such that some
    checked (n+1)-subset is strictly positive, at least min(k, 2).
    """

    flat: bool
    witness: Optional[AtomSubset]
    subset_values: Dict[AtomSubset, Scalar]
    checked_count: int
    boundary: Tuple[AtomSubset, ...]
    mode: str
    dimension: int

    @property
    def classification(self) -> Classification:
        """The verdict: a failing subset wins over boundary subsets."""
        if not self.flat:
            return Classification(verdict="not_embeddable", witness=self.witness)
        if self.boundary:
            return Classification(
                verdict="indeterminate",
                reason=f"criterion value for subset {self.boundary[0]} lies inside "
                       f"the float boundary margin; supply rational weights for "
                       f"an exact verdict",
            )
        return Classification(verdict="embeddable", dimension=self.dimension)


def checked_subsets(size: int, full_set_only: bool = False) -> Iterator[AtomSubset]:
    """Subsets of >= 4 atoms in (size, lexicographic) order.

    With ``full_set_only`` only the lexicographic prefixes (0..s-1) are
    produced, which reproduces the prefix convention of the cone regions
    rather than quantifying over every choice of points.
    """
    for s in range(4, size + 1):
        if full_set_only:
            yield tuple(range(s))
        else:
            yield from combinations(range(size), s)


def is_flat(m: Measure, full_set_only: bool = False) -> FlatnessReport:
    """Check every atom subset of size >= 4 and report the verdict.

    Pairs and triples are flat unconditionally, so a measure on two or three
    atoms is flat with nothing checked.  The reciprocals are taken once; each
    subset's value and sign come from one :func:`criterion_sign` call: exact
    in exact mode, with the boundary margin in float mode.
    """
    values: Dict[AtomSubset, Scalar] = {}
    witness: Optional[AtomSubset] = None
    boundary = []
    dim = min(m.size - 1, 2)
    zs = m.reciprocals()
    for sub in checked_subsets(m.size, full_set_only):
        values[sub], sign = criterion_sign([zs[i] for i in sub])
        if sign == "boundary":
            boundary.append(sub)
        elif sign == "negative":
            witness = witness or sub
        elif sign == "positive":
            dim = max(dim, len(sub) - 1)
    return FlatnessReport(
        flat=witness is None,
        witness=witness,
        subset_values=values,
        checked_count=len(values),
        boundary=tuple(boundary),
        mode=m.mode,
        dimension=dim,
    )


def dimension(m: Measure, report: Optional[FlatnessReport] = None) -> int:
    """Largest n such that some (n+1)-atom subset has strictly positive value.

    Every pair contributes n = 1 and every triple n = 2, so the result is at
    least min(k, 2).  For measures that are not flat the number is still
    reported, but it no longer bounds an embedding dimension.
    """
    return (report if report is not None else is_flat(m)).dimension


def classify(m: Measure, full_set_only: bool = False) -> Classification:
    """Embeddability of the atom space of the measure.

    Flat measures are embeddable with their dimension; a failing subset is
    returned as the witness otherwise.  Float-mode measures whose every
    failure candidate sits inside the boundary margin come back indeterminate
    since no exact recomputation is possible for float data.
    """
    return is_flat(m, full_set_only=full_set_only).classification


# -- reciprocal-space cone cross-check ----------------------------------------

def reciprocal_form_matrix(n: int) -> np.ndarray:
    """The (n+1) x (n+1) quadratic form with diagonal n-2 and off-diagonal -1.

    Its value at z is (n-1) sum z^2 - (sum z)^2, i.e. minus the cone
    criterion; the spectrum is n-1 with multiplicity n plus a single -2 on
    the all-ones axis.
    """
    if n < 3:
        raise ValueError(f"the cone form needs n >= 3, got {n}")
    a = -np.ones((n + 1, n + 1))
    np.fill_diagonal(a, n - 2)
    return a


def cone_half_angle_cos(n: int) -> float:
    """Cosine of the half-angle of the solid cone image of the flat region.

    On the axis-aligned side of the orthogonal change of basis the region is
    (n-1) |y_perp|^2 <= 2 y_axis^2, from the form's spectrum {n-1, -2}; the
    aperture therefore has tan^2 = 2/(n-1), i.e. cos = sqrt((n-1)/(n+1)).
    """
    if n < 3:
        raise ValueError(f"the cone aperture needs n >= 3, got {n}")
    return math.sqrt((n - 1) / (n + 1))


def cone_axis_cos(xs) -> float:
    """Cosine of the angle between the reciprocal image of xs and the axis.

    The reciprocal image is z = (1/x_0, ..., 1/x_n); the cone axis is the
    all-ones direction.  Computed through the mean-centered perpendicular
    component, which is stable near the axis: uniform weights give exactly 1.
    """
    z = [1.0 / float(x) for x in xs]
    total_sq = math.fsum(v * v for v in z)
    mean = math.fsum(z) / len(z)
    perp_sq = math.fsum((v - mean) ** 2 for v in z)
    return math.sqrt(max(0.0, 1.0 - perp_sq / total_sq))


def cone_membership(xs) -> bool:
    """Whether the reciprocal image of xs lies inside the solid cone.

    Agrees with reduced_criterion(xs) >= 0: the cone is exactly the
    reciprocal image of the nonnegative-determinant region.
    """
    xs = tuple(xs)
    n = len(xs) - 1
    if n < 3:
        raise ValueError(f"cone membership needs at least four weights, got {len(xs)}")
    if any(not (x > 0) for x in xs):
        raise ValueError(f"weights must be strictly positive, got {xs}")
    return cone_axis_cos(xs) >= cone_half_angle_cos(n)


__all__ = [
    "FlatnessReport",
    "Classification",
    "checked_subsets",
    "is_flat",
    "dimension",
    "classify",
    "reciprocal_form_matrix",
    "cone_half_angle_cos",
    "cone_axis_cos",
    "cone_membership",
]
