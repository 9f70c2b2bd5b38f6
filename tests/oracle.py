"""Test oracles that no command needs: the paper's metric on the whole
algebra, brute-force matrix algebra, and the reciprocal-space cone.

* The Kolmogorov distance between arbitrary elements of the powerset
  algebra is the measure of their symmetric difference (``powerset_*``);
  ``distance_matrix`` checks the metric axioms of any such table.  On the
  singletons it is the atom metric the package uses.
* ``atom_gram_matrix`` builds the triple-product matrix straight from the
  weights, ``adjugate`` by cofactors and ``matrix_det_lemma`` through
  det(A + u v^t) = det(A) + v^t Adj(A) u.
* ``ldl_pivots`` runs the LDL^T recurrence of the atom Gram matrix in the
  weights' own arithmetic, and ``placed_atoms`` rounds its Fraction
  coordinates: the references for the package's integer recurrence.
* Under z = 1/x the flat region is a solid cone about the all-ones axis;
  ``cone_membership`` decides it by comparing angles, independently of the
  criterion's power sums.
* ``family_by_products`` realizes a built-in family member as products of
  Fractions through ``validate_measure``: the reference for the package's
  integer construction.
* ``sample_rows`` seeds every draw of ``sample`` from its own numpy
  ``SeedSequence``: the reference for the package's batched seed states.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from atomembed.explorer import SampleRow
from atomembed.flatness import is_flat
from atomembed.gram import GramError, GramMatrix, _as_rows, det_numeric
from atomembed.families import FamilySpec
from atomembed.measure import DistanceMatrix, Measure, MeasureError, validate_measure
from atomembed.scalars import EXACT, FLOAT, Scalar, coerce, infer_mode, parse_scalar

AtomSubset = Tuple[int, ...]


# -- the Kolmogorov metric on the powerset algebra ----------------------------

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


# -- brute-force matrix algebra ------------------------------------------------

def atom_gram_matrix(m: Measure, simplex: Sequence[int]) -> GramMatrix:
    """The triple-product matrix built straight from the weights.

    Diagonal entries are (x_0 + x_i)^2 and off-diagonal entries
    x_0^2 + x_0 x_i + x_0 x_j - x_i x_j, with x_0 the base weight.  Used as
    an independent route against ``gram_matrix`` over the atom metric.
    """
    pts = tuple(int(p) for p in simplex)
    if len(set(pts)) != len(pts):
        raise GramError(f"duplicate points in simplex {pts}")
    if any(p < 0 or p >= m.size for p in pts):
        raise GramError(f"simplex {pts} out of range for {m.size} atoms")
    x0 = m.weights[pts[0]]
    rest = [m.weights[p] for p in pts[1:]]
    rows = tuple(
        tuple(
            (x0 + xi) ** 2 if i == j else x0 * x0 + x0 * xi + x0 * xj - xi * xj
            for j, xj in enumerate(rest)
        )
        for i, xi in enumerate(rest)
    )
    return GramMatrix(entries=rows, points=pts, mode=m.mode)


def adjugate(matrix):
    """Adjugate by cofactors: Adj(A)[i][j] = (-1)^(i+j) det(minor_ji).

    Satisfies A Adj(A) = det(A) I; for 1 x 1 matrices the adjugate is [[1]].
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 1:
        return ((rows[0][0] ** 0,),)  # one in the entry's own type
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n) if r != j
            ]
            cof = det_numeric(minor)
            out_row.append(cof if (i + j) % 2 == 0 else -cof)
        out.append(tuple(out_row))
    return tuple(out)


def matrix_det_lemma(matrix, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """det(A + u v^t) evaluated as det(A) + v^t Adj(A) u."""
    rows = _as_rows(matrix)
    n = len(rows)
    if len(u) != n or len(v) != n:
        raise GramError(f"vector length must match matrix order {n}, "
                        f"got {len(u)} and {len(v)}")
    adj = adjugate(rows)
    correction = sum(v[i] * adj[i][j] * u[j] for i in range(n) for j in range(n))
    return det_numeric(rows) + correction


def ldl_pivots(xs: Sequence[Scalar], signed: bool):
    """LDL^T of the atom Gram matrix over xs[0], in the weights' own arithmetic.

    Over base b = xs[0] the matrix of the other atoms is U S U^T + 2 diag(x^2)
    with rows u_i = (x_b + x_i, x_i) and S = [[1, 0], [0, -2]], so each step
    updates a 2x2 state.  Yields (j, pivot, v0, v1) for every atom j >= 1 in
    the order given: the pivot is the squared height of atom j above the
    earlier kept atoms, and the column of L below it is L_ij = u_i . (v0, v1).
    A zero pivot, or a negative one unless ``signed``, is dropped: it yields
    v0 = v1 = None and leaves the state as it was.  Over Fractions this is
    the reference for the package's integer recurrence.
    """
    xb = xs[0]
    s00, s01, s11 = 1, 0, -2
    for j in range(1, len(xs)):
        b = xs[j]
        a = xb + b
        w0, w1 = s00 * a + s01 * b, s01 * a + s11 * b
        pivot = 2 * b * b + a * w0 + b * w1
        if pivot == 0 or (pivot < 0 and not signed):
            yield j, pivot, None, None
            continue
        v0, v1 = w0 / pivot, w1 / pivot
        s00, s01, s11 = s00 - w0 * v0, s01 - w0 * v1, s11 - w1 * v1
        yield j, pivot, v0, v1


def placed_atoms(xs: Sequence[Fraction]) -> np.ndarray:
    """Coordinates of exact weights from :func:`ldl_pivots` on the atoms
    lightest first (ties by index), each row at its atom's index: each
    height sqrt(pivot) and each L_ij rounded once from its Fraction."""
    order = sorted(range(len(xs)), key=xs.__getitem__)
    ys = [xs[i] for i in order]
    coords = np.zeros((len(xs), len(xs) - 1))
    col = 0
    for j, pivot, v0, v1 in ldl_pivots(ys, signed=False):
        if v0 is None:
            continue
        height = math.sqrt(pivot)
        coords[order[j], col] = height
        for i in range(j + 1, len(ys)):
            coords[order[i], col] = float((ys[0] + ys[i]) * v0 + ys[i] * v1) * height
        col += 1
    return coords[:, :col]


# -- the reciprocal-space cone -------------------------------------------------

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


# -- family members by Fraction products ----------------------------------------

def family_by_products(spec: FamilySpec) -> Measure:
    """A valid uniform, binomial or hypergeometric member, weight by weight.

    Each binomial weight is C(n,a)·p^a·q^(n−a) in the success probability's
    own arithmetic, and every member goes through ``validate_measure``.
    """
    if spec.kind == "uniform":
        return validate_measure([Fraction(1, spec.atoms)] * spec.atoms)
    if spec.kind == "binomial":
        n, p = spec.trials, spec.success
        q = (1 - p) if isinstance(p, Fraction) else (1.0 - float(p))
        return validate_measure([math.comb(n, a) * p ** a * q ** (n - a) for a in range(n + 1)])
    pop, succ, draws = spec.population, spec.successes, spec.draws
    total = math.comb(pop, draws)
    return validate_measure([Fraction(math.comb(succ, a) * math.comb(pop - succ, draws - a), total)
                             for a in range(draws + 1)])


# -- Monte Carlo sampling -------------------------------------------------------

def sample_rows(k: int, count: int, seed: int) -> List[SampleRow]:
    """The rows of ``sample_simplex(k, count, seed, keep_rows=True)``, with
    one ``SeedSequence(entropy=seed, spawn_key=(index,))`` built per draw."""
    rows = []
    for index in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        e = rng.standard_exponential(k + 1)
        weights = tuple(float(v) for v in e / e.sum())
        report = is_flat(Measure(weights=weights, mode=FLOAT, normalized=True))
        rows.append(SampleRow(index, weights, report.letter, float(report.worst[1])))
    return rows
