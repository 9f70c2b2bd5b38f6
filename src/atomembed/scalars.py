"""Dual-mode scalar arithmetic: exact big rationals or IEEE doubles.

Every classification made by this package is ultimately a sign test on a
polynomial in the atom weights, and near the boundary of the embeddable
region a rounded sign is a wrong sign.  Weights entered as integers or
"p/q" strings therefore stay `fractions.Fraction` end to end, and every
derived quantity is exact; weights entered as floats stay floats, and a
float sign inside the margin below is decided again in exact arithmetic
(a double is a dyadic rational), so every verdict is definite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Tuple, Union

Scalar = Union[Fraction, float]

EXACT = "exact"
FLOAT = "float"

#: Relative margin under which a float-mode sign is decided again exactly.
BOUNDARY_MARGIN = 1e-9


class ModeConflictError(ValueError):
    """Exact arithmetic was requested for input that is not exactly rational."""


def parse_scalar(raw, exact_required: bool = False) -> Scalar:
    """Convert a JSON-style value into a scalar.

    Integers and strings such as ``"3/7"`` become Fractions; floats stay
    floats unless ``exact_required`` is set, in which case they are rejected
    rather than silently degrading the arithmetic mode.
    """
    if isinstance(raw, bool):
        raise ValueError(f"not a number: {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {raw!r} as a rational number") from exc
    if isinstance(raw, float):
        if exact_required:
            raise ModeConflictError(
                f"exact mode requested but {raw!r} is a float literal; "
                'write rationals as "p/q" strings'
            )
        return raw
    raise ValueError(f"unsupported scalar type: {type(raw).__name__}")


def infer_mode(values: Iterable[Scalar]) -> str:
    """EXACT when every value is a Fraction, FLOAT as soon as one is not."""
    mode = EXACT
    for v in values:
        if isinstance(v, float):
            mode = FLOAT
    return mode


def coerce(values, mode: str):
    """Return the values as a tuple in the requested arithmetic mode."""
    return tuple(map(float if mode == FLOAT else Fraction, values))


def over_common_denominator(values) -> Tuple[Tuple[int, ...], int]:
    """(numerators, den): ints or Fractions as numerators[i] / den, den their lcd."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def scalar_to_json(x: Scalar):
    """JSON-friendly form: Fractions as "p/q" strings, floats as numbers.

    JSON has no number for an overflowed or NaN float, so a non-finite float
    becomes None (printed as null).
    """
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return x if math.isfinite(x) else None


def format_decimal(x: Scalar) -> str:
    """Decimal rendering with 17 significant digits (CSV convention)."""
    return f"{float(x):.17g}"
