"""Parametric families of measures: indifference, binomial, hypergeometric,
and user-supplied weights.

All built-in families realize exactly when their parameters are rational;
the binomial with a float success probability degrades to float mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .measure import Measure, validate_measure
from .scalars import Scalar, parse_scalar

#: Largest supported number of Bernoulli trials, i.e. 65 atoms.  Verdicts
#: come from the full set's criterion, so classification is practical at that
#: size; only ``check``, which prints a row per subset, refuses over 20 atoms.
MAX_TRIALS = 64


class FamilyError(ValueError):
    """Invalid family parameters."""


class FamilySpec(NamedTuple):
    """Declarative description of a measure family member.

    Exactly the fields matching ``kind`` are set: ``atoms`` for uniform,
    ``trials``/``success`` for binomial, ``population``/``successes``/
    ``draws`` for hypergeometric, ``weights`` for custom.
    """

    kind: str
    atoms: Optional[int] = None
    trials: Optional[int] = None
    success: Optional[Scalar] = None
    population: Optional[int] = None
    successes: Optional[int] = None
    draws: Optional[int] = None
    weights: Optional[Tuple[Scalar, ...]] = None


def uniform_family(atoms: int) -> FamilySpec:
    return FamilySpec(kind="uniform", atoms=int(atoms))


def binomial_family(trials: int, success) -> FamilySpec:
    return FamilySpec(kind="binomial", trials=int(trials), success=parse_scalar(success))


def hypergeometric_family(population: int, successes: int, draws: int) -> FamilySpec:
    return FamilySpec(kind="hypergeometric", population=int(population),
                      successes=int(successes), draws=int(draws))


def custom_family(weights: Sequence) -> FamilySpec:
    return FamilySpec(kind="custom",
                      weights=tuple(parse_scalar(w) for w in weights))


def realize(spec: FamilySpec) -> Measure:
    """Turn a family spec into a Measure, exactly for rational parameters.

    Atoms are indexed by the outcome value 0..n for the counting families.
    Parameter combinations that would put a zero-probability outcome in the
    support are rejected: strict positivity is an axiom, not a preference.
    """
    if spec.kind == "uniform":
        k1 = spec.atoms
        if k1 is None or k1 < 2:
            raise FamilyError(f"uniform family needs at least 2 atoms, got {k1}")
        return validate_measure([Fraction(1, k1)] * k1)

    if spec.kind == "binomial":
        n, p = spec.trials, spec.success
        if n is None or not (1 <= n <= MAX_TRIALS):
            raise FamilyError(f"binomial trials must be in 1..{MAX_TRIALS}, got {n}")
        if p is None or not (0 < p < 1):
            raise FamilyError(f"binomial success probability must be in (0,1), got {p}")
        q = (1 - p) if isinstance(p, Fraction) else (1.0 - float(p))
        weights = [math.comb(n, a) * p ** a * q ** (n - a) for a in range(n + 1)]
        return validate_measure(weights)

    if spec.kind == "hypergeometric":
        pop, succ, draws = spec.population, spec.successes, spec.draws
        if pop is None or succ is None or draws is None:
            raise FamilyError("hypergeometric family needs population, successes, draws")
        if not (0 < succ < pop):
            raise FamilyError(f"successes must satisfy 0 < K < N, got K={succ}, N={pop}")
        if not (0 < draws < pop):
            raise FamilyError(f"draws must satisfy 0 < n < N, got n={draws}, N={pop}")
        if draws > succ or draws > pop - succ:
            raise FamilyError(
                f"outcomes 0..{draws} include impossible counts for N={pop}, "
                f"K={succ}, n={draws}: a zero-probability atom would violate "
                "strict positivity")
        total = math.comb(pop, draws)
        weights = [
            Fraction(math.comb(succ, a) * math.comb(pop - succ, draws - a), total)
            for a in range(draws + 1)
        ]
        return validate_measure(weights)

    if spec.kind == "custom":
        if spec.weights is None:
            raise FamilyError("custom family needs explicit weights")
        return validate_measure(spec.weights)

    raise FamilyError(f"unknown family kind {spec.kind!r}")


_INT_PARAMS = {"atoms", "trials", "population", "successes", "draws"}
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
    if template.kind == "custom":
        raise FamilyError("custom families have no sweepable parameter")
    if param not in _KIND_PARAMS[template.kind]:
        raise FamilyError(
            f"family {template.kind!r} has no parameter {param!r}; "
            f"choose from {sorted(_KIND_PARAMS[template.kind])}")
    if steps < 1:
        raise FamilyError(f"grid needs at least one step, got {steps}")
    lo, hi = parse_scalar(start), parse_scalar(stop)
    if steps == 1:
        if lo != hi:
            raise FamilyError("a single-step grid needs equal endpoints")
        values = [lo]
    else:
        span = hi - lo
        values = [lo + span * i / (steps - 1) for i in range(steps)]
    out = []
    for value in values:
        v = value
        if param in _INT_PARAMS:
            as_int = int(v)
            if v != as_int:
                raise FamilyError(
                    f"parameter {param!r} must be an integer on the grid, "
                    f"got {v} (grid {start}..{stop} in {steps} steps)")
            v = as_int
        try:
            measure = realize(template._replace(**{param: v}))
        except (FamilyError, ValueError) as exc:
            raise FamilyError(f"grid point {param}={value} is invalid: {exc}") from exc
        out.append((value, measure))
    return out
