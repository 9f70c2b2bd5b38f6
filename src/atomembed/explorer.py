"""Empirical mapping of the embeddable region inside the probability simplex:
parameter sweeps, boundary bisection along paths, Monte Carlo sampling.

Sampling is reproducible by construction: each sample index derives its own
generator from the master seed, so the stream a sample sees is independent
of batching, ordering, or the number of worker processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .flatness import is_flat
from .measure import Measure, MeasureError, validate_measure
from .scalars import FLOAT, Scalar

#: Normal quantile for the 95% binomial-proportion confidence interval.
_Z95 = 1.959963984540054


class NoCrossingError(ValueError):
    """Both endpoints of a bisection bracket classify the same way."""


@dataclass(frozen=True)
class SweepRow:
    """One grid point: verdict plus the worst subset found.

    ``witness`` is the subset achieving the minimal criterion value (the
    first one in (size, lex) order on ties); its value is ``worst_value``,
    negative exactly when the verdict is N.
    """

    parameter: Scalar
    verdict: str
    worst_value: Optional[Scalar]
    witness: Optional[Tuple[int, ...]]
    reason: Optional[str] = None


def sweep(grid: Sequence[Tuple[Scalar, Measure]]) -> List[SweepRow]:
    """Classify every grid point; rows come back in grid order.

    Per-point failures do not abort the sweep: the row records an
    indeterminate verdict with the reason.
    """
    rows: List[SweepRow] = []
    for value, measure in grid:
        try:
            report = is_flat(measure)
            worst_sub, worst_val = report.worst
            rows.append(SweepRow(parameter=value, verdict=report.letter,
                                 worst_value=worst_val, witness=worst_sub,
                                 reason=report.reason))
        except ValueError as exc:
            rows.append(SweepRow(parameter=value, verdict="I",
                                 worst_value=None, witness=None,
                                 reason=str(exc)))
    return rows


# -- boundary bisection --------------------------------------------------------

@dataclass(frozen=True)
class BisectionResult:
    """A verdict flip bracketed to the requested width.

    ``boundary`` is the midpoint of the final bracket (lower, upper);
    ``extra_brackets`` lists further sign changes seen by the coarse scan,
    which are reported but not refined.  ``trace`` records one
    (iteration, lower, upper, midpoint, midpoint verdict) row per step.
    """

    boundary: Scalar
    lower: Scalar
    upper: Scalar
    verdict_low: str
    verdict_high: str
    iterations: int
    extra_brackets: Tuple[Tuple[Scalar, Scalar], ...] = ()
    trace: Tuple[Tuple[int, Scalar, Scalar, Scalar, str], ...] = ()


def mixture(m0: Measure, m1: Measure, t: Scalar) -> Measure:
    """Convex combination (1-t) m0 + t m1, exact when everything is rational."""
    if m0.size != m1.size:
        raise MeasureError(
            f"mixture endpoints have {m0.size} and {m1.size} atoms")
    weights = [(1 - t) * a + t * b for a, b in zip(m0.weights, m1.weights)]
    return validate_measure(weights)


def _definite_letter(measure: Measure) -> str:
    report = is_flat(measure)
    if report.reason is not None:
        raise ValueError(
            f"indeterminate verdict during bisection ({report.reason}); "
            "use rational inputs for exact bracketing")
    return report.letter


def bisect_boundary(measure_at: Callable[[Scalar], Measure], lo, hi,
                    tol: float = 1e-6, max_iter: int = 200,
                    scan_steps: int = 0) -> BisectionResult:
    """Bracket a verdict flip along a one-parameter path of measures.

    ``measure_at`` maps a parameter value to a Measure.  The endpoints must
    classify differently, otherwise NoCrossingError.  With rational endpoints
    the bracket stays exact (midpoints are dyadic combinations).  A positive
    ``scan_steps`` first samples the path uniformly; additional sign changes
    are reported in ``extra_brackets`` and the first one is refined.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    lo = Fraction(lo) if not isinstance(lo, float) else lo
    hi = Fraction(hi) if not isinstance(hi, float) else hi
    if not lo < hi:
        raise ValueError(f"bisection interval is empty: [{lo}, {hi}]")
    v_lo = _definite_letter(measure_at(lo))
    v_hi = _definite_letter(measure_at(hi))
    if v_lo == v_hi:
        raise NoCrossingError(
            f"both endpoints classify as {v_lo}; nothing to bracket")

    extra: List[Tuple[Scalar, Scalar]] = []
    if scan_steps > 1:
        pts = [lo + (hi - lo) * i / scan_steps for i in range(scan_steps + 1)]
        letters = [v_lo] + [
            _definite_letter(measure_at(p)) for p in pts[1:-1]
        ] + [v_hi]
        flips = [
            (pts[i], pts[i + 1], letters[i], letters[i + 1])
            for i in range(len(pts) - 1)
            if letters[i] != letters[i + 1]
        ]
        lo, hi, v_lo, v_hi = flips[0]
        extra = [(a, b) for a, b, _, _ in flips[1:]]

    iterations = 0
    trace = []
    while hi - lo > tol and iterations < max_iter:
        mid = (lo + hi) / 2
        letter = _definite_letter(measure_at(mid))
        trace.append((iterations, lo, hi, mid, letter))
        if letter == v_lo:
            lo = mid
        else:
            hi = mid
        iterations += 1
    if hi - lo > tol:
        raise ValueError(
            f"bracket width {float(hi - lo)} still above tol={tol} after "
            f"{max_iter} iterations")
    return BisectionResult(boundary=(lo + hi) / 2, lower=lo, upper=hi,
                           verdict_low=v_lo, verdict_high=v_hi,
                           iterations=iterations,
                           extra_brackets=tuple(extra),
                           trace=tuple(trace))


# -- Monte Carlo sampling ------------------------------------------------------

@dataclass(frozen=True)
class SampleRow:
    index: int
    weights: Tuple[float, ...]
    verdict: str
    worst_value: Optional[float]


@dataclass(frozen=True)
class SampleSummary:
    """Aggregate of a simplex sample.

    ``fraction`` is embeddable/total and the half-width is the normal
    approximation of the 95% binomial-proportion interval; indeterminate
    draws are counted separately and still included in the total.
    """

    k: int
    total: int
    embeddable: int
    not_embeddable: int
    indeterminate: int
    fraction: float
    ci95_half_width: float
    seed: int


def _sample_weights(seed: int, k: int, index: int) -> Tuple[float, ...]:
    """Uniform draw from the open simplex: normalized unit exponentials.

    The generator is keyed by (seed, index) alone, never by batch layout.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    e = rng.standard_exponential(k + 1)
    w = e / e.sum()
    return tuple(float(v) for v in w)


def _sample_chunk(args) -> List[SampleRow]:
    """Draws start..stop-1; the worst value is searched for only when ``worst`` is set."""
    seed, k, start, stop, worst = args
    rows = []
    for index in range(start, stop):
        weights = _sample_weights(seed, k, index)
        report = is_flat(Measure(weights=weights, mode=FLOAT, normalized=True))
        rows.append(SampleRow(index=index, weights=weights, verdict=report.letter,
                              worst_value=float(report.worst[1]) if worst else None))
    return rows


def sample_simplex(k: int, count: int, seed: int = 0, jobs: int = 1,
                   keep_rows: bool = False):
    """Classify ``count`` uniform draws from the k-simplex.

    Returns a SampleSummary, or (summary, rows) with ``keep_rows``; only then
    is each draw's worst subset searched for.  Results are bit-identical for
    a given seed regardless of ``jobs``.
    """
    if k < 3:
        raise ValueError(f"sampling needs k >= 3 (four atoms), got k={k}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seed = int(seed)

    if jobs == 1 or count < 4 * jobs:
        rows = _sample_chunk((seed, k, 0, count, keep_rows))
    else:
        bounds = np.linspace(0, count, jobs + 1, dtype=int)
        chunks = [(seed, k, int(a), int(b), keep_rows)
                  for a, b in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [row for chunk in pool.map(_sample_chunk, chunks) for row in chunk]

    emb = sum(1 for r in rows if r.verdict == "E")
    not_emb = sum(1 for r in rows if r.verdict == "N")
    ind = sum(1 for r in rows if r.verdict == "I")
    frac = emb / count
    half_width = _Z95 * math.sqrt(frac * (1.0 - frac) / count)
    summary = SampleSummary(k=k, total=count, embeddable=emb,
                            not_embeddable=not_emb, indeterminate=ind,
                            fraction=frac, ci95_half_width=half_width,
                            seed=seed)
    return (summary, rows) if keep_rows else summary
