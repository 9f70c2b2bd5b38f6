"""Flatness of the atom space, its dimension, and embeddability verdicts.

A finite metric space is flat when every simplex of its points has a
nonnegative triple-product Gram determinant; a flat space of dimension N
embeds isometrically in R^N and in no smaller Euclidean space.  For atom
spaces every pair and every triple passes automatically, and the sign of a
subset's determinant is that of the cone criterion
``(Σz)² − (s−2)·Σz²`` at the reciprocals ``z = 1/x`` of its s atoms.

One value decides the verdict.  The base-0 Gram matrix of all atoms is
``2·diag(x²) − 2·x xᵀ + v vᵀ``: a positive definite matrix minus one
rank-one term, plus a positive semidefinite one, so it has at most one
negative eigenvalue (Weyl), and its determinant is a positive multiple of
the full-set criterion.  Hence the measure is flat exactly when the
full-set criterion is >= 0, with dimension k when it is positive and k-1
when it is zero (Haynsworth inertia additivity; Schoenberg's test).  It
follows that failing subsets are closed under supersets and positive
subsets under subsets.

Everything else is found by search over the atoms sorted by z, never by
enumeration.  For s >= 4 the criterion is concave in each coordinate (the
square of one z enters with coefficient -(s-3)), so among the subsets that
extend a fixed set of atoms by r more from a pool, the smallest value is
taken by one of the r+1 "extreme" completions: the i smallest and r-i
largest z of the pool.  The witness and the worst subset come from a greedy
lexicographic construction over that primitive; the dimension of a measure
that is not flat is the longest positive window of sorted z.  The searches
run only when their result is read.  This is the only route to a verdict,
witness, dimension or worst subset; :func:`criterion_table` keeps the
brute-force enumeration for ``check``'s printed table and for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

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


class _Values(dict):
    """Criterion values by atom subset; looking up a new subset evaluates it."""

    def __init__(self, zs: Tuple[Scalar, ...]):
        super().__init__()
        self.zs = zs
        self.signs: Dict[AtomSubset, str] = {}

    def __missing__(self, sub: AtomSubset) -> Scalar:
        value, self.signs[sub] = criterion_sign([self.zs[i] for i in sub])
        self[sub] = value
        return value

    def sign(self, sub: AtomSubset) -> str:
        self[sub]  # evaluates the subset if it is new
        return self.signs[sub]


def _extremes(pool: Sequence[int], r: int) -> Iterator[Tuple[int, ...]]:
    """The r+1 ways to take the i smallest and r-i largest of ``pool`` (sorted by z)."""
    for i in range(r + 1):
        yield tuple(pool[:i]) + tuple(pool[len(pool) - r + i:])


def _nan_last(value: Scalar) -> Scalar:
    """Sort key that puts a NaN float value after every number."""
    return value if value == value else math.inf


class FlatnessReport:
    """Outcome of the flatness check, with its searches run on first access.

    ``flat`` and ``boundary`` come from the full atom set alone: ``boundary``
    is the full set when its float value lies inside the margin, else empty.
    ``witness`` is the first failing subset in (size, lexicographic) order,
    or None when the measure is flat.  ``dimension`` is the largest n such
    that some (n+1)-subset is strictly positive, at least min(k, 2).
    ``worst`` is the subset of least criterion value (first in (size, lex)
    order on ties) with that value.  ``subset_values`` maps each subset
    evaluated so far to its value, and evaluates any other subset looked up
    in it; ``checked_count`` is the number evaluated so far.
    """

    def __init__(self, m: Measure):
        self.mode = m.mode
        self.subset_values = _Values(m.reciprocals())
        self._size = m.size
        self._full = tuple(range(m.size))
        # pairs and triples are flat: nothing to sign below four atoms
        sign = self.subset_values.sign(self._full) if m.size >= 4 else None
        self.flat = sign != "negative"
        self.boundary = (self._full,) if sign == "boundary" else ()

    @property
    def checked_count(self) -> int:
        return len(self.subset_values)

    @property
    def letter(self) -> str:
        """E, N or I: a failing subset wins over boundary subsets."""
        return "N" if not self.flat else "I" if self.boundary else "E"

    @property
    def reason(self) -> Optional[str]:
        """Why the verdict is indeterminate, or None when it is not."""
        if self.letter != "I":
            return None
        return (f"criterion value for subset {self.boundary[0]} lies inside "
                f"the float boundary margin; supply rational weights for "
                f"an exact verdict")

    @property
    def classification(self) -> Classification:
        letter = self.letter
        if letter == "N":
            return Classification(verdict="not_embeddable", witness=self.witness)
        if letter == "I":
            return Classification(verdict="indeterminate", reason=self.reason)
        return Classification(verdict="embeddable", dimension=self.dimension)

    @cached_property
    def _order(self) -> Tuple[int, ...]:
        zs = self.subset_values.zs
        return tuple(sorted(range(self._size), key=zs.__getitem__))

    @cached_property
    def witness(self) -> Optional[AtomSubset]:
        if self.flat:
            return None
        sign = self.subset_values.sign
        return self._first(lambda sub: sign(sub) == "negative")

    @cached_property
    def dimension(self) -> int:
        n, sign = self._size, self.subset_values.sign
        if n < 4:
            return n - 1
        full = sign(self._full)
        if full == "positive":
            return n - 1
        if full == "zero":  # the Gram matrix is semidefinite of rank k-1
            return n - 2
        # positive subsets are closed under subsets, and a positive subset
        # slides to a positive window of sorted z: two pointers find the longest
        order, lo, longest = self._order, 0, 3
        for hi in range(4, n + 1):
            while hi - lo >= 4 and sign(tuple(sorted(order[lo:hi]))) != "positive":
                lo += 1
            longest = max(longest, hi - lo)
        return longest - 1

    @cached_property
    def worst(self) -> Tuple[Optional[AtomSubset], Optional[Scalar]]:
        values = self.subset_values
        if self._size < 4:
            return None, None
        if not self.flat:
            # adding an atom to a negative subset S lowers its value (to at
            # most v(S)·(|S|-1)/(|S|-2)), so a failing measure's worst subset
            # is its full set
            return self._full, values[self._full]
        least = min(_nan_last(values[tuple(sorted(sub))])
                    for s in range(4, self._size + 1)
                    for sub in _extremes(self._order, s))
        sub = self._first(lambda s: _nan_last(values[s]) <= least)
        return sub, values[sub]

    def _first(self, hit: Callable[[AtomSubset], bool]) -> AtomSubset:
        """The (size, lex)-first subset of >= 4 atoms on which ``hit`` holds.

        ``hit`` reads the criterion value, and holds for some completion of a
        set of atoms only if it holds for an extreme one: true of "negative"
        and of "at most v" because the criterion is concave in each z.
        """
        order, n = self._order, self._size
        size = next(s for s in range(4, n + 1)
                    if any(hit(tuple(sorted(sub))) for sub in _extremes(order, s)))

        def extends(prefix: AtomSubset, r: int) -> bool:
            """Whether r more atoms after the prefix's last make ``hit`` hold."""
            pool = [i for i in order if i > prefix[-1]]
            return any(hit(tuple(sorted(prefix + rest))) for rest in _extremes(pool, r))

        chosen: AtomSubset = ()
        for r in range(size - 1, -1, -1):  # atoms left to choose after the next
            start = chosen[-1] + 1 if chosen else 0
            chosen += (next(a for a in range(start, n - r) if extends(chosen + (a,), r)),)
        return chosen


def checked_subsets(size: int) -> Iterator[AtomSubset]:
    """Subsets of >= 4 atoms in (size, lexicographic) order."""
    for s in range(4, size + 1):
        yield from combinations(range(size), s)


def criterion_table(m: Measure) -> Dict[AtomSubset, Scalar]:
    """Every checked subset's criterion value, in (size, lexicographic) order.

    This is the brute-force enumeration: 2^(k+1) subsets, less the pairs and
    triples.  ``check`` prints it; verdicts come from :func:`is_flat`.
    """
    zs = m.reciprocals()
    return {sub: criterion_sign([zs[i] for i in sub])[0]
            for sub in checked_subsets(m.size)}


def is_flat(m: Measure) -> FlatnessReport:
    """Decide flatness from the full atom set's criterion sign.

    Pairs and triples are flat unconditionally, so a measure on two or three
    atoms is flat with nothing checked.  The reciprocals are taken once, and
    each subset's value and sign come from one :func:`criterion_sign` call:
    exact in exact mode, with the boundary margin in float mode.
    """
    return FlatnessReport(m)


def dimension(m: Measure, report: Optional[FlatnessReport] = None) -> int:
    """Largest n such that some (n+1)-atom subset has strictly positive value.

    Every pair contributes n = 1 and every triple n = 2, so the result is at
    least min(k, 2).  For measures that are not flat the number is still
    reported, but it no longer bounds an embedding dimension.
    """
    return (report if report is not None else is_flat(m)).dimension


def classify(m: Measure) -> Classification:
    """Embeddability of the atom space of the measure.

    Flat measures are embeddable with their dimension; otherwise the first
    failing subset in (size, lexicographic) order is the witness.  A float-mode measure whose full-set
    value sits inside the boundary margin is indeterminate, since no exact
    recomputation is possible for float data.
    """
    return is_flat(m).classification


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
    "criterion_table",
    "is_flat",
    "dimension",
    "classify",
    "reciprocal_form_matrix",
    "cone_half_angle_cos",
    "cone_axis_cos",
    "cone_membership",
]
