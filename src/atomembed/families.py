"""Parametric families of measures: indifference, binomial, hypergeometric,
and user-supplied weights.

All built-in families realize exactly when their parameters are rational;
the binomial with a float success probability degrades to float mode.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .measure import Measure, validate_measure
from .scalars import EXACT, Scalar, parse_scalar

#: Most Bernoulli trials (65 atoms); only ``check`` refuses over 20 atoms.
MAX_TRIALS = 64


class FamilyError(ValueError):
    """Invalid family parameters."""


class FamilySpec(NamedTuple):
    """A family member: ``kind`` and the parameter fields of that kind."""

    kind: str
    atoms: Optional[int] = None
    trials: Optional[int] = None
    success: Optional[Scalar] = None
    population: Optional[int] = None
    successes: Optional[int] = None
    draws: Optional[int] = None
    weights: Optional[Tuple[Scalar, ...]] = None


def _count(name: str, value) -> int:
    """An integral number as an int; a bool, a string or a fraction is refused."""
    if isinstance(value, bool) or not isinstance(value, (numbers.Rational, float)) or value % 1:
        raise FamilyError(f"{name} must be an integer, got {value}")
    return int(value)


def uniform_family(atoms: int) -> FamilySpec:
    return FamilySpec(kind="uniform", atoms=_count("atoms", atoms))


def binomial_family(trials: int, success) -> FamilySpec:
    return FamilySpec(kind="binomial", trials=_count("trials", trials),
                      success=parse_scalar(success))


def hypergeometric_family(population: int, successes: int, draws: int) -> FamilySpec:
    return FamilySpec(kind="hypergeometric", population=_count("population", population),
                      successes=_count("successes", successes), draws=_count("draws", draws))


def custom_family(weights: Sequence) -> FamilySpec:
    return FamilySpec(kind="custom", weights=tuple(parse_scalar(w) for w in weights))


def realize(spec: FamilySpec) -> Measure:
    """Turn a family spec into a Measure, exactly for rational parameters.

    Atoms are indexed by the outcome value 0..n for the counting families.
    A zero-probability outcome in the support is refused.  Exact members are
    then positive, and of total 1 by the binomial theorem, Vandermonde's
    identity and k/k = 1, so they are built without :func:`validate_measure`.
    """
    if spec.kind == "uniform":
        k1 = spec.atoms
        if k1 is None or k1 < 2:
            raise FamilyError(f"uniform family needs at least 2 atoms, got {k1}")
        return Measure((Fraction(1, k1),) * k1, EXACT, True)

    if spec.kind == "binomial":
        n, p = spec.trials, spec.success
        if n is None or not (1 <= n <= MAX_TRIALS):
            raise FamilyError(f"binomial trials must be in 1..{MAX_TRIALS}, got {n}")
        if p is None or not (0 < p < 1):
            raise FamilyError(f"binomial success probability must be in (0,1), got {p}")
        if isinstance(p, Fraction):
            a, b = p.numerator, p.denominator
            den = b ** n
            return Measure(tuple(Fraction(math.comb(n, i) * a ** i * (b - a) ** (n - i), den)
                                 for i in range(n + 1)), EXACT, True)
        # a float weight can underflow to 0.0
        return validate_measure([math.comb(n, i) * p ** i * (1.0 - p) ** (n - i)
                                 for i in range(n + 1)])

    if spec.kind == "hypergeometric":
        pop, succ, draws = spec.population, spec.successes, spec.draws
        if None in (pop, succ, draws):
            raise FamilyError("hypergeometric family needs population, successes, draws")
        if not (0 < succ < pop):
            raise FamilyError(f"successes must satisfy 0 < K < N, got K={succ}, N={pop}")
        if not (0 < draws < pop):
            raise FamilyError(f"draws must satisfy 0 < n < N, got n={draws}, N={pop}")
        if draws > succ or draws > pop - succ:
            raise FamilyError(f"outcomes 0..{draws} include impossible counts for N={pop}, "
                              f"K={succ}, n={draws}: a zero-probability atom would "
                              "violate strict positivity")
        total = math.comb(pop, draws)
        return Measure(tuple(Fraction(math.comb(succ, a) * math.comb(pop - succ, draws - a), total)
                             for a in range(draws + 1)), EXACT, True)

    if spec.kind == "custom":
        if spec.weights is None:
            raise FamilyError("custom family needs explicit weights")
        return validate_measure(spec.weights)

    raise FamilyError(f"unknown family kind {spec.kind!r}")


_KIND_PARAMS = {
    "uniform": {"atoms"},
    "binomial": {"trials", "success"},
    "hypergeometric": {"population", "successes", "draws"},
}


def family_grid(template: FamilySpec, param: str, start, stop,
                steps: int) -> List[Tuple[Scalar, Measure]]:
    """Evenly spaced parameter values, each realized to a Measure.

    Rational endpoints make the whole grid exact.  Integer parameters must
    land on integers at every step; the first invalid point aborts the grid
    with the offending value in the error.
    """
    if param not in _KIND_PARAMS.get(template.kind, ()):
        raise FamilyError(f"family {template.kind!r} has no parameter {param!r}; "
                          f"choose from {sorted(_KIND_PARAMS.get(template.kind, ()))}")
    if steps < 1:
        raise FamilyError(f"grid needs at least one step, got {steps}")
    lo, hi = parse_scalar(start), parse_scalar(stop)
    if steps == 1:
        if lo != hi:
            raise FamilyError("a single-step grid needs equal endpoints")
        values = [lo]
    else:
        values = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    out = []
    for value in values:
        try:
            v = value if param == "success" else _count(param, value)
            measure = realize(template._replace(**{param: v}))
        except ValueError as exc:
            raise FamilyError(f"grid point {param}={value} is invalid: {exc}") from exc
        out.append((value, measure))
    return out
