"""Triple-product Gram matrices of atom simplices and their determinants.

The determinant of the matrix M whose (i,j) entry is the triple product
relative to a chosen base point decides whether an (n+1)-point configuration
of atoms can be realized in Euclidean space.  Three independent routes are
provided and cross-checked, each in O(n) steps for exact weights:

  * the closed form 2^(n-1) * (E^2 - (n-1) Q), where E and Q are the sums of
    the products of all weights but one and of their squares;
  * elimination: for exact weights, :func:`det_pivots` multiplies the pivots
    of the LDL^T that ``embed`` also runs (:func:`_ldl_pivots`, on a 2x2
    state); float weights and exact zero pivots take :func:`det_numeric` of
    the :func:`gram_matrix`, fraction-free (Bareiss) on integers when no
    entry is a float, IEEE with full pivoting otherwise;
  * a rank-one-update route M = A + v v^t, combined through
    det(A + u v^t) = det(A) + v^t Adj(A) u; the closed-form adjugate of A is
    a diagonal plus a rank-one matrix, so the quadratic form needs only two
    power sums.

The cofactor adjugate, the general determinant lemma and the Gram matrix
built from the weights alone are test oracles, in ``tests/oracle.py``.

The sign, which is all that classification needs, is that of the cone
criterion (sum z)^2 - (n-1) sum z^2 at the reciprocals z = 1/x, taken once
per measure.  :func:`criterion_sign`, shared by the flatness route and
``det``, forms one pair of power sums per subset (exact over integers or
Fractions, math.fsum over floats) and returns the value with its sign; the
other criterion functions are validating wrappers over the same sums, and
:func:`criterion_value` is the one place the formula is written.
Exact values may be integers over one common denominator: the flatness
route passes Z = z * den, whose criterion is den^2 times that of z.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from .measure import DistanceMatrix
from .scalars import BOUNDARY_MARGIN, EXACT, FLOAT, Scalar, infer_mode


class GramError(ValueError):
    """Invalid simplex or matrix input."""


class GramMatrix(NamedTuple):
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


# -- determinants -------------------------------------------------------------

def _as_rows(matrix):
    if isinstance(matrix, GramMatrix):
        return [list(row) for row in matrix.entries]
    rows = [list(row) for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise GramError("matrix must be square")
    return rows


def det_numeric(matrix) -> Scalar:
    """Determinant by Gaussian elimination.

    Exact when every entry is an int or a Fraction: the denominators are
    cleared once, by their least common multiple L, and fraction-free
    (Bareiss) elimination runs on Python integers, so the result is the
    Fraction det / L^n.  Any float entry makes it IEEE elimination with full
    pivoting, because the Gram matrices near the boundary are symmetric but
    indefinite.  On a :func:`gram_matrix` it costs O(n^3) steps after the
    n^2 triple products, so ``det`` calls it only where :func:`det_pivots`
    returns None: for float weights and after an exact zero pivot.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if all(isinstance(a, (int, Fraction)) for row in rows for a in row):
        return _det_bareiss(rows)
    return _det_full_pivot(rows)


def _det_bareiss(rows) -> Fraction:
    """Exact determinant of int/Fraction rows by fraction-free elimination.

    After step k every entry below and right of the pivot is a (k+2)-minor
    of the cleared matrix, so the division by the previous pivot is exact.
    Rows are swapped only to skip a zero pivot.
    """
    n = len(rows)
    den = math.lcm(*(a.denominator for row in rows for a in row))
    m = [[a.numerator * (den // a.denominator) for a in row] for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], den ** n)


def _det_full_pivot(rows) -> Scalar:
    """IEEE determinant with full pivoting; ``rows`` is eliminated in place."""
    n = len(rows)
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


def _ldl_pivots(xs: Sequence[Scalar], base: int, signed: bool):
    """LDL^T of the atom Gram matrix over ``base``, in the weights' own arithmetic.

    Over base b the matrix of the other atoms is U S U^T + 2 diag(x^2) with
    rows u_i = (x_b + x_i, x_i) and S = [[1, 0], [0, -2]], so each step
    updates a 2x2 state.  Yields (j, pivot, v0, v1) for every atom j != b in
    index order: the pivot is the squared height of atom j above the earlier
    kept atoms, and the column of L below it is L_ij = u_i . (v0, v1).  A zero
    pivot, or a negative one unless ``signed``, is dropped: it yields
    v0 = v1 = None and leaves the state as it was.  A NaN pivot is kept.
    """
    xb = xs[base]
    s00, s01, s11 = 1, 0, -2
    for j, b in enumerate(xs):
        if j == base:
            continue
        a = xb + b
        w0, w1 = s00 * a + s01 * b, s01 * a + s11 * b
        pivot = 2 * b * b + a * w0 + b * w1
        if pivot == 0 or (pivot < 0 and not signed):
            yield j, pivot, None, None
            continue
        v0, v1 = w0 / pivot, w1 / pivot
        s00, s01, s11 = s00 - w0 * v0, s01 - w0 * v1, s11 - w1 * v1
        yield j, pivot, v0, v1


def det_pivots(xs: Sequence[Scalar]) -> Optional[Fraction]:
    """Exact determinant of the atom Gram matrix: the product of its LDL^T pivots.

    The base is xs[0]; a Gram determinant is the same over every base and
    under any symmetric reordering.  Returns None for float weights, where
    unpivoted LDL^T is not stable, and at a zero pivot, after which plain
    LDL^T no longer factors the matrix; :func:`det_numeric` of the
    :func:`gram_matrix` decides both.
    """
    if infer_mode(xs) == FLOAT:
        return None
    xs = tuple(map(Fraction, xs))
    det = Fraction(1)
    for _, pivot, v0, _ in _ldl_pivots(xs, 0, signed=True):
        if v0 is None:
            return None
        det *= pivot
    return det


def det_lemma_route(xs: Sequence[Scalar]) -> Scalar:
    """Determinant of the atom Gram matrix through the rank-one update.

    M = A + v v^t, where A has entries -2 (1 - delta_ij) x_i x_j over
    i, j = 1..n and v_i = x_0 + x_i.  With P = x_1 ... x_n and w = 1/x,
    det(A) = -2^n P^2 (n-1) and Adj(A) = 2^(n-1) P^2 (w w^t - (n-1) diag(w^2)),
    so det(A) + v^t Adj(A) v needs only the power sums of r = x_0 w:

        2^(n-1) P^2 ((2 - n) + 2 sum r + (sum r)^2 - (n-1) sum r^2).

    The bracket cancels near the boundary, so floats evaluate it by
    :func:`_lemma_bracket_float`.  A float weight x_i whose square
    underflows, so that the adjugate's 1/(x_i x_j) has no double, is refused
    with a GramError.
    """
    xs = tuple(xs)
    n = len(xs) - 1
    if n < 2:
        raise GramError("the rank-one route needs at least three weights")
    _check_positive(xs)
    x0, tail = xs[0], xs[1:]
    scale = (2 ** (n - 1)) * math.prod(x * x for x in tail)
    if infer_mode(xs) == EXACT:
        x0 = Fraction(x0)
        r1, r2 = power_sums([x0 / x for x in tail])
        return scale * ((2 - n) + 2 * r1 + r1 * r1 - (n - 1) * r2)
    lightest = float(min(tail))
    if lightest * lightest == 0:
        raise GramError(f"the rank-one route underflows in double precision for "
                        f"weights {xs}; supply rational weights")
    return scale * _lemma_bracket_float(float(x0), [float(x) for x in tail])


def _lemma_bracket_float(x0: float, tail: Sequence[float]) -> float:
    """(2 - n) + 2 sum r + (sum r)^2 - (n-1) sum r^2 at r = x0 / x, nearly exact.

    Each r is carried as a pair hi + lo of doubles and every square is split
    into two doubles by :func:`_two_product`, so math.fsum adds terms that
    are exact to about 2^-100 of the largest; the rounding of that sum is
    most of the error left.  Ratios of weights beyond about 10^154, whose
    squares overflow, give a non-finite value.
    """
    n = len(tail)
    rs = []
    for x in tail:
        hi = x0 / x
        p, e = _two_product(hi, x)
        rs.append((hi, ((x0 - p) - e) / x))  # x0 - hi x, divided by x
    parts = [t for r in rs for t in r]
    r1 = math.fsum(parts)
    r1_lo = math.fsum(parts + [-r1])
    terms = [2.0 - n, 2 * r1, 2 * r1_lo, *_two_product(r1, r1), 2 * r1 * r1_lo]
    for hi, lo in rs:
        for t in (*_two_product(hi, hi), 2 * hi * lo):
            terms.extend(_two_product(t, 1.0 - n))
    return math.fsum(terms)


def _two_product(a: float, b: float) -> Tuple[float, float]:
    """(p, e) with p = a * b rounded and p + e = a * b exactly (Dekker).

    Exact while a, b and the product stay well inside double range.
    """
    p = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _split(a: float) -> Tuple[float, float]:
    """a = hi + lo with at most 26 significant bits in each part."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


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


def power_sums(zs):
    """(sum z, sum z^2): correctly rounded over floats, exact otherwise.

    Exact sums keep the type of their terms: integers give integers,
    Fractions give Fractions.
    """
    if isinstance(zs[0], float):
        return math.fsum(zs), math.fsum(z * z for z in zs)
    return sum(zs), sum(z * z for z in zs)


def criterion_value(s1: Scalar, s2: Scalar, count: int) -> Scalar:
    """The cone criterion s1^2 - (count-2) s2 of ``count`` reciprocals.

    s1 and s2 are their sum and sum of squares, as from :func:`power_sums`.
    """
    return s1 * s1 - (count - 2) * s2


def criterion_sign(zs: Sequence[Scalar]) -> Tuple[Scalar, str]:
    """(value, sign) of the cone criterion (sum z)^2 - (n-1) sum z^2.

    The n+1 >= 3 reciprocals are validated by the caller and all floats or all
    exact (ints or Fractions); the float scale (sum z)^2 + (n-1) sum z^2 is
    built only for floats.  Integers Z = z * den give the integer value
    den^2 times that of z, with the same sign.
    """
    s1, s2 = power_sums(zs)
    value = criterion_value(s1, s2, len(zs))
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
    s1, s2 = power_sums(zs)
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
