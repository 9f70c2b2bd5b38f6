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

In exact mode every subset is signed on integers: the reciprocals are put
over one common denominator once per measure, and each value is turned back
into its canonical Fraction by a single division.  Float reciprocals go to
the kernel as they are, and a float value inside its margin is signed again
on the weights as Fractions, so every float verdict is the exact verdict of
the given doubles.

Under z = 1/x the flat region is a solid cone about the all-ones axis, of
half-angle cosine sqrt((n-1)/(n+1)); the tests hold the criterion to that
angle test (``tests/oracle.py``).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

from .gram import criterion_sign, criterion_value, exact_criterion_sign
from .measure import AtomSubset, Measure, validate_measure
from .scalars import FLOAT, Scalar, over_common_denominator


class Classification(NamedTuple):
    """Embeddability verdict.

    verdict is "embeddable" (with the dimension) or "not_embeddable" (with
    the witness subset).
    """

    verdict: str
    dimension: Optional[int] = None
    witness: Optional[AtomSubset] = None


class _Values(dict):
    """Criterion values by atom subset; looking up a new subset evaluates it.

    Exact reciprocals are scaled once, over the whole measure, to the
    integers Z = z·den with den the least common denominator.  Each subset
    is then signed on integers: the criterion is homogeneous of degree 2, so
    its integer value is den² times the exact one, with the same sign, and
    the value kept is Fraction(value, den²).  Float reciprocals are used as
    they are; a float value the kernel leaves as "boundary" is decided by
    :func:`exact_criterion_sign` on the subset's weights.
    """

    def __init__(self, m: Measure):
        super().__init__()
        self.weights, zs = m.weights, m.reciprocals()
        if m.mode == FLOAT:
            self.terms, self.den2 = zs, None
        else:
            self.terms, den = over_common_denominator(zs)
            self.den2 = den * den
        self.signs: Dict[AtomSubset, str] = {}

    def __missing__(self, sub: AtomSubset) -> Scalar:
        value, sign = criterion_sign([self.terms[i] for i in sub])
        if sign == "boundary":
            value, sign = exact_criterion_sign([self.weights[i] for i in sub])
        elif self.den2 is not None:
            value = Fraction(value, self.den2)
        self[sub], self.signs[sub] = value, sign
        return value

    def sign(self, sub: AtomSubset) -> str:
        self[sub]  # evaluates the subset if it is new
        return self.signs[sub]


def _extremes(pool: Sequence[int], r: int) -> Iterator[Tuple[int, ...]]:
    """The r+1 ways to take the i smallest and r-i largest of ``pool`` (sorted by z)."""
    for i in range(r + 1):
        yield tuple(pool[:i]) + tuple(pool[len(pool) - r + i:])


class FlatnessReport:
    """Outcome of the flatness check, with its searches run on first access.

    ``flat`` comes from the full atom set alone; ``boundary`` is always
    empty.  ``witness`` is the first failing subset in (size, lex) order, or
    None when the measure is flat.  ``dimension`` is the largest n such that
    some (n+1)-subset is strictly positive, at least min(k, 2).
    ``worst`` is the subset of least criterion value (first in (size, lex)
    order on ties) with that value.  ``subset_values`` maps each subset
    evaluated so far to its value, and evaluates any other subset looked up
    in it; ``checked_count`` is the number evaluated so far.
    """

    boundary: Tuple[AtomSubset, ...] = ()

    def __init__(self, m: Measure):
        self.mode = m.mode
        self.subset_values = _Values(m)
        self._size = m.size
        self._full = tuple(range(m.size))
        # pairs and triples are flat: nothing to sign below four atoms
        self.flat = m.size < 4 or self.subset_values.sign(self._full) != "negative"

    @property
    def checked_count(self) -> int:
        return len(self.subset_values)

    @property
    def letter(self) -> str:
        """E or N."""
        return "E" if self.flat else "N"

    @property
    def classification(self) -> Classification:
        if not self.flat:
            return Classification(verdict="not_embeddable", witness=self.witness)
        return Classification(verdict="embeddable", dimension=self.dimension)

    @cached_property
    def _order(self) -> Tuple[int, ...]:
        terms = self.subset_values.terms  # sorted as z: den > 0
        return tuple(sorted(range(self._size), key=terms.__getitem__))

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
        least = min(values[tuple(sorted(sub))]
                    for s in range(4, self._size + 1)
                    for sub in _extremes(self._order, s))
        if self.mode == FLOAT and not sys.float_info.min <= least < math.inf:
            # values that under- or overflow tie: Fractions pick the subset
            sub = is_flat(validate_measure([Fraction(x) for x in values.weights])).worst[0]
        else:
            sub = self._first(lambda s: values[s] <= least)
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
    triples.  ``check`` prints it; verdicts come from :func:`is_flat`.  The
    values equal those of :class:`FlatnessReport`, and no sign is kept.  In
    exact mode one depth-first pass per size carries the running integer
    sums of Z and Z² over one common denominator, so a row costs O(1) plus
    its Fraction(value, den²); a float row is the value the verdict is read
    from.
    """
    values = _Values(m)
    terms, den2 = values.terms, values.den2
    if den2 is None:
        return {sub: values[sub] for sub in checked_subsets(m.size)}
    table: Dict[AtomSubset, Scalar] = {}
    squares = tuple(z * z for z in terms)
    for size in range(4, m.size + 1):
        _exact_rows(table, terms, squares, den2, size, (), 0, 0, 0)
    return table


def _exact_rows(table, terms, squares, den2, size, prefix, start, s1, s2) -> None:
    """Add the rows of ``size`` atoms that extend ``prefix`` from atom ``start`` on.

    s1 and s2 are the prefix's integer sums of Z and Z²; rows go in in
    lexicographic order.
    """
    if len(prefix) == size - 1:
        for a in range(start, len(terms)):
            value = criterion_value(s1 + terms[a], s2 + squares[a], size)
            table[prefix + (a,)] = Fraction(value, den2)
        return
    for a in range(start, len(terms) - size + len(prefix) + 1):
        _exact_rows(table, terms, squares, den2, size, prefix + (a,), a + 1,
                    s1 + terms[a], s2 + squares[a])


def is_flat(m: Measure) -> FlatnessReport:
    """Decide flatness from the full atom set's criterion sign.

    Pairs and triples are flat unconditionally, so a measure on two or three
    atoms is flat with nothing checked.  Subsets are signed by :class:`_Values`.
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
    failing subset in (size, lexicographic) order is the witness.
    """
    return is_flat(m).classification


__all__ = [
    "FlatnessReport",
    "Classification",
    "checked_subsets",
    "criterion_table",
    "is_flat",
    "dimension",
    "classify",
]
