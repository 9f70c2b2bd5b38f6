"""Triple-product Gram matrices of atom simplices and their determinants.

The determinant of the matrix M whose (i,j) entry is the triple product
relative to a chosen base point decides whether an (n+1)-point configuration
of atoms can be realized in Euclidean space.  Three independent routes are
provided and cross-checked:

  * the closed form 2^(n-1) * (E^2 - (n-1) Q), where E and Q are the sums of
    the products of all weights but one and of their squares;
  * plain elimination with full pivoting (exact over Fractions);
  * a rank-one-update route M = A + v v^t with the adjugate of A given in
    closed form, combined through det(A + u v^t) = det(A) + v^t Adj(A) u.

The sign, which is all that classification needs, is that of the cone
criterion (sum z)^2 - (n-1) sum z^2 at the reciprocals z = 1/x, taken once
per measure.  :func:`criterion_sign`, shared by the flatness route and
``det``, forms one pair of power sums per subset (exact over integers or
Fractions, math.fsum over floats) and returns the value with its sign; the
other criterion functions are validating wrappers over the same sums.
Exact values may be integers over one common denominator: the flatness
route passes Z = z * den, whose criterion is den^2 times that of z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .measure import DistanceMatrix, Measure
from .scalars import BOUNDARY_MARGIN, EXACT, FLOAT, Scalar, infer_mode


class GramError(ValueError):
    """Invalid simplex or matrix input."""


@dataclass(frozen=True)
class GramMatrix:
    """n x n matrix of triple products for an (n+1)-point simplex.

    ``points`` lists the simplex in order; the first entry is the base point
    against which all triple products are taken.
    """

    entries: Tuple[Tuple[Scalar, ...], ...]
    points: Tuple[int, ...]
    mode: str


def triple_product(d: DistanceMatrix, i: int, j: int, base: int) -> Scalar:
    """Half of d(base,i)^2 + d(base,j)^2 - d(i,j)^2.

    i or j may coincide with the base, in which case the value is 0.  A float
    entry that overflows double precision is refused with a GramError.
    """
    n = d.size
    for idx in (i, j, base):
        if not (0 <= idx < n):
            raise GramError(f"point index {idx} out of range for {n} points")
    try:
        value = d[base, i] ** 2 + d[base, j] ** 2 - d[i, j] ** 2
    except OverflowError:
        value = math.inf
    if isinstance(value, float) and not math.isfinite(value):
        raise GramError(f"triple product entry ({i}, {j}) over base {base} overflows "
                        f"in double precision; supply rational weights")
    return value / 2


def gram_matrix(d: DistanceMatrix, simplex: Sequence[int]) -> GramMatrix:
    """Matrix of triple products for the given ordered simplex.

    The first listed point is the base; the matrix is indexed by the
    remaining n points.
    """
    pts = tuple(int(p) for p in simplex)
    if len(pts) < 2:
        raise GramError("a simplex needs at least two points")
    if len(set(pts)) != len(pts):
        raise GramError(f"duplicate points in simplex {pts}")
    if any(p < 0 or p >= d.size for p in pts):
        raise GramError(f"simplex {pts} out of range for {d.size} points")
    base, rest = pts[0], pts[1:]
    rows = tuple(
        tuple(triple_product(d, a, b, base) for b in rest) for a in rest
    )
    return GramMatrix(entries=rows, points=pts, mode=d.mode)


def atom_gram_matrix(m: Measure, simplex: Sequence[int]) -> GramMatrix:
    """Same matrix built straight from the weights.

    Diagonal entries are (x_0 + x_i)^2 and off-diagonal entries
    x_0^2 + x_0 x_i + x_0 x_j - x_i x_j, with x_0 the base weight.  Used as
    an independent route against :func:`gram_matrix` over the atom metric.
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


# -- determinants -------------------------------------------------------------

def _as_rows(matrix):
    if isinstance(matrix, GramMatrix):
        return [list(row) for row in matrix.entries]
    rows = [list(row) for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise GramError("matrix must be square")
    return rows


def det_numeric(matrix) -> Scalar:
    """Determinant by Gaussian elimination with full pivoting.

    Exact over Fractions, IEEE otherwise.  Full pivoting because the Gram
    matrices near the boundary are symmetric but indefinite.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    det = 1
    sign = 1
    for step in range(n):
        piv_r, piv_c, piv_abs = -1, -1, None
        for r in range(step, n):
            for c in range(step, n):
                a = abs(rows[r][c])
                if piv_abs is None or a > piv_abs:
                    piv_r, piv_c, piv_abs = r, c, a
        if piv_abs == 0:
            return piv_abs  # zero in the entries' own type
        if piv_r != step:
            rows[step], rows[piv_r] = rows[piv_r], rows[step]
            sign = -sign
        if piv_c != step:
            for row in rows:
                row[step], row[piv_c] = row[piv_c], row[step]
            sign = -sign
        pivot = rows[step][step]
        det *= pivot
        for r in range(step + 1, n):
            factor = rows[r][step] / pivot
            if factor == 0:
                continue
            for c in range(step, n):
                rows[r][c] -= factor * rows[step][c]
    return sign * det


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


@dataclass(frozen=True)
class AppendixDecomposition:
    """Rank-one split M = A + v v^t with closed-form det(A) and Adj(A).

    A has entries -2 (1 - delta_ij) x_i x_j over i,j = 1..n and
    v = (x_0 + x_1, ..., x_0 + x_n); det(A) = -2^n (x_1 ... x_n)^2 (n-1) and
    Adj(A)[i][j] = 2^(n-1) (x_1 ... x_n)^2 (1/(x_i x_j) - delta_ij (n-1)/x_i^2).
    """

    a: Tuple[Tuple[Scalar, ...], ...]
    v: Tuple[Scalar, ...]
    det_a: Scalar
    adj_a: Tuple[Tuple[Scalar, ...], ...]


def appendix_decomposition(xs: Sequence[Scalar]) -> AppendixDecomposition:
    xs = tuple(xs)
    n = len(xs) - 1
    if n < 2:
        raise GramError("the rank-one decomposition needs at least three weights")
    _check_positive(xs)
    zero = 0 * xs[0]  # Fraction or float, like the weights
    tail = xs[1:]
    a = tuple(
        tuple(zero if i == j else -2 * tail[i] * tail[j] for j in range(n))
        for i in range(n)
    )
    v = tuple(xs[0] + xi for xi in tail)
    sq = math.prod(xi * xi for xi in tail)
    det_a = -(2 ** n) * sq * (n - 1)
    try:
        adj_a = tuple(
            tuple(
                (2 ** (n - 1)) * sq * (1 / (tail[i] * tail[j])
                                       - ((n - 1) / (tail[i] * tail[i]) if i == j else zero))
                for j in range(n)
            )
            for i in range(n)
        )
    except ZeroDivisionError as exc:  # a float product of weights underflowed to 0
        raise GramError(f"the rank-one route underflows in double precision for "
                        f"weights {xs}; supply rational weights") from exc
    return AppendixDecomposition(a=a, v=v, det_a=det_a, adj_a=adj_a)


def det_lemma_route(xs: Sequence[Scalar]) -> Scalar:
    """Determinant of the atom Gram matrix through the rank-one update."""
    dec = appendix_decomposition(xs)
    n = len(dec.v)
    correction = sum(
        dec.v[i] * dec.adj_a[i][j] * dec.v[j] for i in range(n) for j in range(n)
    )
    return dec.det_a + correction


def _check_positive(xs):
    if any(not (x > 0) for x in xs):
        raise GramError(f"weights must be strictly positive, got {tuple(xs)}")


def det_closed_form(xs: Sequence[Scalar]) -> Scalar:
    """Closed-form determinant 2^(n-1) (E^2 - (n-1) Q) of the atom Gram matrix.

    E is the sum over a of the product of all weights but x_a, Q the same sum
    of squared products.  In float mode the products are evaluated in log
    space once they leave the comfortable range of doubles, so tuples of
    dozens of small probabilities neither underflow nor overflow.
    """
    xs = tuple(xs)
    n = len(xs) - 1
    if n < 2:
        raise GramError("the closed form needs at least three weights")
    _check_positive(xs)
    if infer_mode(xs) == EXACT:
        prod = math.prod(xs, start=Fraction(1))
        e = sum(prod / x for x in xs)
        q = sum((prod / x) ** 2 for x in xs)
        return (2 ** (n - 1)) * (e * e - (n - 1) * q)
    return _det_closed_float(tuple(float(x) for x in xs), n)


def _det_closed_float(xs: Tuple[float, ...], n: int) -> float:
    prod = math.prod(xs)
    if 1e-280 < abs(prod) < 1e280:
        partials = [prod / x for x in xs]
        e = math.fsum(partials)
        q = math.fsum(t * t for t in partials)
        if math.isfinite(e) and math.isfinite(q):
            value = (2.0 ** (n - 1)) * (e * e - (n - 1) * q)
            # mixed extreme weights can blow up E^2 even when the full
            # product is tame; only trust a finite direct evaluation
            if math.isfinite(value):
                return value
    # guarded route: factor exp(2*max log-product) out of E^2 - (n-1) Q
    logs = [math.log(x) for x in xs]
    total = math.fsum(logs)
    partial = [total - l for l in logs]
    top = max(partial)
    u = [math.exp(p - top) for p in partial]
    su = math.fsum(u)
    sq = math.fsum(ui * ui for ui in u)
    bracket = su * su - (n - 1) * sq
    log_scale = 2.0 * top + (n - 1) * math.log(2.0)
    try:
        scale = math.exp(log_scale)
    except OverflowError:
        return math.inf if bracket > 0 else (-math.inf if bracket < 0 else 0.0)
    return bracket * scale


def _power_sums(zs):
    """(sum z, sum z^2): correctly rounded over floats, exact otherwise.

    Exact sums keep the type of their terms: integers give integers,
    Fractions give Fractions.
    """
    if isinstance(zs[0], float):
        return math.fsum(zs), math.fsum(z * z for z in zs)
    return sum(zs), sum(z * z for z in zs)


def criterion_sign(zs: Sequence[Scalar]) -> Tuple[Scalar, str]:
    """(value, sign) of the cone criterion (sum z)^2 - (n-1) sum z^2.

    The n+1 >= 3 reciprocals are validated by the caller and all floats or all
    exact (ints or Fractions); the float scale (sum z)^2 + (n-1) sum z^2 is
    built only for floats.  Integers Z = z * den give the integer value
    den^2 times that of z, with the same sign.
    """
    s1, s2 = _power_sums(zs)
    value = s1 * s1 - (len(zs) - 2) * s2
    if isinstance(value, float):
        return value, sign_verdict(value, s1 * s1 + (len(zs) - 2) * s2, FLOAT)
    return value, sign_verdict(value, 0.0, EXACT)


def _checked(values, what: str, noun: str) -> Tuple[Scalar, ...]:
    values = tuple(values)
    if len(values) < 3:
        raise GramError(f"the {what} needs at least three {noun}")
    _check_positive(values)
    return values


def reduced_criterion(xs: Sequence[Scalar]) -> Scalar:
    """(sum 1/x_a)^2 - (n-1) sum 1/x_a^2, sign-equivalent to the determinant.

    This is the value of :func:`criterion_sign` at the reciprocals z = 1/x.
    Scale-free up to a positive factor: multiplying all weights by c divides
    the value by c^2, so the sign is invariant.
    """
    xs = _checked(xs, "reduced criterion", "weights")
    one = Fraction(1) if infer_mode(xs) == EXACT else 1.0  # 1.0 / x is 1.0 / float(x)
    return criterion_sign([one / x for x in xs])[0]


def criterion_scale(xs: Sequence[Scalar]) -> float:
    """Natural magnitude of the reduced criterion before cancellation."""
    xs = _checked(xs, "criterion scale", "weights")
    zs = []
    for i, x in enumerate(xs):
        try:
            zs.append(1.0 / float(x))
        except (OverflowError, ZeroDivisionError) as exc:
            raise GramError(f"weight at index {i} is beyond double range; "
                            f"the criterion scale is a float quantity") from exc
    s1, s2 = _power_sums(zs)
    return s1 * s1 + (len(xs) - 2) * s2


def sign_verdict(value: Scalar, scale: float, mode: str) -> str:
    """Sign with an indeterminacy margin in float mode.

    Exact values report "positive" / "negative" / "zero"; float values whose
    magnitude is below BOUNDARY_MARGIN times the expression scale report
    "boundary" because the true sign is not resolvable at double precision.
    A non-finite float value (overflowed reciprocal sums) carries no sign
    and is "boundary" too.
    """
    if mode == EXACT:
        if value > 0:
            return "positive"
        if value < 0:
            return "negative"
        return "zero"
    if not math.isfinite(value) or abs(float(value)) <= BOUNDARY_MARGIN * scale:
        return "boundary"
    return "positive" if value > 0 else "negative"
