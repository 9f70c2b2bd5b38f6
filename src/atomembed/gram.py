"""Triple-product Gram matrices of atom simplices and their determinants.

The determinant of the matrix M whose (i,j) entry is the triple product
relative to a chosen base point decides whether an (n+1)-point configuration
of atoms can be realized in Euclidean space.  Three independent routes are
provided and cross-checked, each in O(n) steps:

  * the closed form 2^(n-1) * (E^2 - (n-1) Q), where E and Q are the sums of
    the products of all weights but one and of their squares, on integers;
  * elimination: :func:`det_pivots` multiplies the pivots of the LDL^T
    (:func:`_ldl`, on a 2x2 state of Python integers over one shared
    denominator); after an exact zero pivot it
    takes :func:`det_numeric` of the :func:`gram_matrix`, fraction-free
    (Bareiss) elimination on integers;
  * a rank-one-update route M = A + v v^t, combined through
    det(A + u v^t) = det(A) + v^t Adj(A) u; the closed-form adjugate of A is
    a diagonal plus a rank-one matrix, so the quadratic form needs only two
    power sums.

All three routes are exact, on float weights too (a double is a dyadic
rational): they round once, to the same double.

The cofactor adjugate, the general determinant lemma, the Gram matrix
built from the weights alone and the pivot recurrence in Fractions are test
oracles, in ``tests/oracle.py``.  ``embed`` runs the same :func:`_ldl`,
on integers for exact weights and on doubles for float ones.

The sign, which is all that classification needs, is that of the cone
criterion (sum z)^2 - (n-1) sum z^2 at the reciprocals z = 1/x, taken once
per measure.  :func:`criterion_sign`, shared by the flatness route and
``det``, forms one pair of power sums per subset (exact over integers or
Fractions, math.fsum over floats scaled by a power of two, so that no
square leaves double range) and returns the value with its sign; the
other criterion functions are validating wrappers over the same sums, and
:func:`criterion_value` is the one place the formula is written.
Exact values may be integers over one common denominator: the flatness
route passes Z = z * den, whose criterion is den^2 times that of z.
A float value inside the margin, far wider than the float sums' error, is
signed again on the weights as given (:func:`exact_criterion_sign`; a
filtered predicate, Shewchuk 1997): every float sign is that of the doubles.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from .measure import DistanceMatrix, Measure, atom_metric
from .scalars import BOUNDARY_MARGIN, EXACT, FLOAT, Scalar, infer_mode, over_common_denominator


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
    """Determinant by fraction-free (Bareiss) elimination on the exact entries.

    The entries, ints, Fractions or doubles (a double is a dyadic rational),
    are put over their least common denominator L and eliminated on Python
    integers, so the determinant is det / L^n exactly: a Fraction, or the
    nearest double (+-inf beyond range) when any entry is a float.  A
    non-finite entry raises GramError.  On a :func:`gram_matrix` it costs
    O(n^3) steps after the n^2 triple products, so ``det`` reaches it only
    through :func:`det_pivots`, after an exact zero pivot.
    """
    rows = _as_rows(matrix)
    n, entries = len(rows), [a for row in rows for a in row]
    if any(isinstance(a, float) and not math.isfinite(a) for a in entries):
        raise GramError(f"matrix entries must be finite, got {rows}")
    if n == 0:
        return Fraction(1)
    flat, den = over_common_denominator([Fraction(a) for a in entries])
    m = [list(flat[i:i + n]) for i in range(0, n * n, n)]
    # after step k every entry below and right of the pivot is a (k+2)-minor
    # of the cleared matrix, so the division by the previous pivot is exact;
    # rows are swapped only to skip a zero pivot
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return _rounded(0, 1, entries)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
        prev = pivot
    return _rounded(sign * m[n - 1][n - 1], den ** n, entries)


def _ldl(xs: Sequence[Scalar]):
    """LDL^T of the atom Gram matrix over xs[0], on integers X = x D or on doubles.

    Over base b = xs[0] the matrix of the other atoms is U S U^T + 2 diag(x^2)
    with rows u_i = (x_b + x_i, x_i) and S = [[1, 0], [0, -2]], so each step
    updates a 2x2 state T / q.  Returns (steps, (t00, t01, t11, q)): steps
    lists (p, q, w0, w1) for the atoms xs[1:] in the order given, with
    W = T u_j; the pivot, the squared height of atom j above the earlier kept
    atoms, is p / (q D^2), and L_ij = (u_i . W) / p.  Integers take the
    fraction-free update p T - W W^T, q p, reduced by the gcd of the four;
    doubles take T - W (W / p) with q = 1.  A zero pivot leaves the state as
    it was, and so does a negative double one (a zero pivot after rounding);
    a negative integer pivot, and a NaN one, is kept.
    """
    xb = xs[0]
    t00, t01, t11, q = 1, 0, -2, 1
    steps = []
    for b in xs[1:]:
        a = xb + b
        w0, w1 = t00 * a + t01 * b, t01 * a + t11 * b
        p = 2 * b * b * q + a * w0 + b * w1
        steps.append((p, q, w0, w1))
        if isinstance(p, float):
            if p <= 0:
                continue
            v0, v1 = w0 / p, w1 / p
            t00, t01, t11 = t00 - w0 * v0, t01 - w0 * v1, t11 - w1 * v1
        elif p:
            t00, t01, t11, q = p * t00 - w0 * w0, p * t01 - w0 * w1, p * t11 - w1 * w1, q * p
            g = math.gcd(t00, t01, t11, q)
            t00, t01, t11, q = t00 // g, t01 // g, t11 // g, q // g
    return steps, (t00, t01, t11, q)


def det_pivots(xs: Sequence[Scalar]) -> Scalar:
    """Determinant of the atom Gram matrix: the product of its LDL^T pivots.

    The base is xs[0]; a Gram determinant is the same over every base and
    under any symmetric reordering.  The pivots come from :func:`_ldl`
    on the weights over their common denominator D (float weights are the
    dyadic rationals they are), and their product telescopes: pivot j is
    lambda_j det(S_(j-1)) / det(S_j) with lambda_j = 2 x_j^2, so it is
    det(S_0) prod(lambda) / det(S_n), where det(S_0) = -2 and
    det(S_n) = (t00 t11 - t01^2) / q^2.  The value is exact, rounded once
    for float weights, as in :func:`det_closed_form`.  After a zero pivot
    plain LDL^T no longer factors the matrix; the value is then
    :func:`det_numeric` of the :func:`gram_matrix` of the exact weights.
    """
    xs = _checked(xs, "pivot product", "weights")
    exact = tuple(map(Fraction, xs))
    ints, den = over_common_denominator(exact)
    steps, (t00, t01, t11, q) = _ldl(ints)
    if any(p == 0 for p, *_ in steps):
        det = det_numeric(gram_matrix(atom_metric(Measure(exact, EXACT, False)), range(len(xs))))
        return _rounded(det.numerator, det.denominator, xs)
    n = len(steps)
    return _rounded(-(2 ** (n + 1)) * math.prod(ints[1:]) ** 2 * q * q,
                    den ** (2 * n) * (t00 * t11 - t01 * t01), xs)


def det_lemma_route(xs: Sequence[Scalar]) -> Scalar:
    """Determinant of the atom Gram matrix through the rank-one update.

    M = A + v v^t, where A has entries -2 (1 - delta_ij) x_i x_j over
    i, j = 1..n and v_i = x_0 + x_i.  With P = x_1 ... x_n and w = 1/x,
    det(A) = -2^n P^2 (n-1) and Adj(A) = 2^(n-1) P^2 (w w^t - (n-1) diag(w^2)),
    so det(A) + v^t Adj(A) v needs only the power sums of r = x_0 w:

        2^(n-1) P^2 ((2 - n) + 2 sum r + (sum r)^2 - (n-1) sum r^2).

    Over one common denominator, x = X / D, P r_i = X_0 (T // X_i) / D^n with
    T = X_1 ... X_n: an integer over D^(2n), rounded once for float weights.
    """
    xs = _checked(xs, "rank-one route", "weights")
    n = len(xs) - 1
    (x0, *tail), den = over_common_denominator(tuple(map(Fraction, xs)))
    t, s1, s2 = _partial_sums(tail)
    bracket = (2 - n) * t * t + 2 * t * x0 * s1 + x0 * x0 * (s1 * s1 - (n - 1) * s2)
    return _determinant(bracket, den, xs)


def _partial_sums(ints: Sequence[int]) -> Tuple[int, int, int]:
    """(P, E, Q): the product of the integers X and the sums of P // X and (P // X)^2.

    By halves, P = P_l P_r, E = E_l P_r + E_r P_l, Q = Q_l P_r^2 + Q_r P_l^2:
    few big products, of balanced sizes."""
    if len(ints) == 1:
        return ints[0], 1, 1
    half = len(ints) // 2
    pl, el, ql = _partial_sums(ints[:half])
    pr, er, qr = _partial_sums(ints[half:])
    return pl * pr, el * pr + er * pl, ql * (pr * pr) + qr * (pl * pl)


def _determinant(num: int, den: int, xs: Sequence[Scalar]) -> Scalar:
    """2^(n-1) num / den^(2n) over n+1 weights xs, :func:`_rounded`."""
    n = len(xs) - 1
    return _rounded((2 ** (n - 1)) * num, den ** (2 * n), xs)


def _rounded(num: int, den: int, values: Sequence[Scalar]) -> Scalar:
    """num / den: a Fraction when no value is a float, else the nearest double."""
    return Fraction(num, den) if infer_mode(values) == EXACT else _nearest(num, den)


def _nearest(num: int, den: int) -> float:
    """The double nearest num / den (int true division rounds once), +-inf beyond range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


def det_closed_form(xs: Sequence[Scalar]) -> Scalar:
    """Closed-form determinant 2^(n-1) (E^2 - (n-1) Q) of the atom Gram matrix.

    E is the sum over a of the product of all weights but x_a, Q the same sum
    of squared products.  Over one common denominator, x_a = X_a / D, each is
    (P // X_a) / D^n with P = prod X: an integer over D^(2n), rounded once for
    float weights.
    """
    xs = _checked(xs, "closed form", "weights")
    ints, den = over_common_denominator(tuple(map(Fraction, xs)))
    _, e, q = _partial_sums(ints)
    return _determinant(e * e - (len(xs) - 2) * q, den, xs)


def criterion_value(s1: Scalar, s2: Scalar, count: int) -> Scalar:
    """The cone criterion s1^2 - (count-2) s2 of ``count`` reciprocals, from
    their sum s1 and sum of squares s2 (exact, or from :func:`float_sums`)."""
    return s1 * s1 - (count - 2) * s2


def criterion_sign(zs: Sequence[Scalar]) -> Tuple[Scalar, str]:
    """(value, sign) of the cone criterion (sum z)^2 - (n-1) sum z^2.

    The n+1 >= 3 reciprocals are validated by the caller and all floats or all
    exact (ints or Fractions).  Integers Z = z * den give the integer value
    den^2 times that of z, with the same sign.  Floats are signed on the
    sums of :func:`float_sums`, against the scale (sum z)^2 + (n-1) sum z^2
    of the same sums; a float sign is "boundary" where those sums cannot
    settle it, and :func:`exact_criterion_sign` then decides it.
    """
    if not isinstance(zs[0], float):
        value = criterion_value(sum(zs), sum(z * z for z in zs), len(zs))
        return value, sign_verdict(value, 0.0, EXACT)
    s1, s2, e = float_sums(zs)
    value = criterion_value(s1, s2, len(zs))
    return scaled_back(value, e), sign_verdict(value, s1 * s1 + (len(zs) - 2) * s2, FLOAT)


def exact_criterion_sign(xs: Sequence[float]) -> Tuple[float, str]:
    """(value, sign) of the criterion at 1/x of float weights x, exactly.

    A double is a dyadic rational, so over one common denominator x = X / D
    exactly, and with (P, E, Q) of :func:`_partial_sums` the criterion is
    D^2 (E^2 - (n-1) Q) / P^2, rounded once here (+-inf beyond range).

    This decides the "boundary" of :func:`criterion_sign`, whose float sign
    is otherwise exact: z = 1/x is within 2^-51 relatively (2^-53 if normal;
    2^-51 for the subnormal z of weights near the largest double), the
    power-of-two scaling loses at most 2^-1075 per term against a largest
    term >= 1/2, both sums are correctly rounded, and the squares, the
    product by n-1 and the subtraction round once.  So the float value is
    within 7 * 2^-52 (1.6e-15) times the scale S = (sum z)^2 + (n-1) sum z^2,
    and BOUNDARY_MARGIN * S = 1e-9 * S exceeds that 600000-fold.
    """
    ints, den = over_common_denominator(tuple(map(Fraction, xs)))
    p, e, q = _partial_sums(ints)
    num = e * e - (len(xs) - 2) * q
    return _nearest(den * den * num, p * p), sign_verdict(num, 0.0, EXACT)


def float_sums(zs: Sequence[float]) -> Tuple[float, float, int]:
    """(s1, s2, e): the correctly rounded sum and sum of squares of z * 2^-e.

    e is the binary exponent of the largest z, capped at the largest double
    (an infinite z has a NaN criterion anyway), so no scaled square overflows
    and one that underflows is far below the boundary margin.  The criterion
    of z is 4^e times that of the scaled values (:func:`scaled_back`).
    """
    e = math.frexp(min(max(zs), sys.float_info.max))[1]
    zs = [math.ldexp(z, -e) for z in zs]
    return math.fsum(zs), math.fsum(z * z for z in zs), e


def scaled_back(value: float, e: int) -> float:
    """value * 4^e, or +-inf beyond double range."""
    try:
        return math.ldexp(value, 2 * e)
    except OverflowError:
        return math.copysign(math.inf, value)


def _checked(values, what: str, noun: str) -> Tuple[Scalar, ...]:
    values = tuple(values)
    if len(values) < 3:
        raise GramError(f"the {what} needs at least three {noun}")
    if any(not (0 < x < math.inf) for x in values):
        raise GramError(f"{noun} must be strictly positive and finite, got {values}")
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
    s1, s2, e = float_sums(zs)
    return scaled_back(s1 * s1 + (len(xs) - 2) * s2, e)


def sign_verdict(value: Scalar, scale: float, mode: str) -> str:
    """Sign, with a filter margin in float mode.

    Exact values report "positive" / "negative" / "zero"; float values whose
    magnitude is below BOUNDARY_MARGIN times the expression scale report
    "boundary", for :func:`exact_criterion_sign` to decide.  A non-finite
    float value (a reciprocal beyond double range) carries no sign and is
    "boundary" too.
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
