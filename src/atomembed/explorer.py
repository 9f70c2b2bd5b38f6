"""Empirical mapping of the embeddable region inside the probability simplex:
parameter sweeps, exact bisection of the mixture of two measures, Monte
Carlo sampling.

Sampling is reproducible by construction: each sample index derives its own
generator from the master seed, keyed by (seed, index) as numpy's
SeedSequence would key it, so the stream a sample sees is independent of
batching, ordering, or the number of worker processes; a chunk hashes the
keys of a block of draws together.  numpy is imported once per chunk of
draws, and the process pool only when it is used, so sweeps and bisections
load neither.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .flatness import is_flat
from .measure import Measure, MeasureError, validate_measure
from .scalars import FLOAT, Scalar

#: Normal quantile for the 95% binomial-proportion confidence interval.
_Z95 = 1.959963984540054


class NoCrossingError(ValueError):
    """Both endpoints of a bisection bracket classify the same way."""


class SweepRow(NamedTuple):
    """One grid point: verdict plus the worst subset found.

    ``witness`` is the subset achieving the minimal criterion value (the
    first one in (size, lex) order on ties); its value is ``worst_value``,
    negative exactly when the verdict is N.
    """

    parameter: Scalar
    verdict: str
    worst_value: Optional[Scalar]
    witness: Optional[Tuple[int, ...]]


def sweep(grid: Sequence[Tuple[Scalar, Measure]]) -> List[SweepRow]:
    """Classify every grid point; rows come back in grid order."""
    rows: List[SweepRow] = []
    for value, measure in grid:
        report = is_flat(measure)
        worst_sub, worst_val = report.worst
        rows.append(SweepRow(parameter=value, verdict=report.letter,
                             worst_value=worst_val, witness=worst_sub))
    return rows


# -- boundary bisection --------------------------------------------------------

class BisectionResult(NamedTuple):
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


def bisect_boundary(m0: Measure, m1: Measure, tol: float = 1e-6,
                    scan_steps: int = 0) -> BisectionResult:
    """Bracket a verdict flip on the mixture path (1-t) m0 + t m1, t in [0, 1].

    The path is classified at ``max(scan_steps, 1)`` equal steps, endpoints
    included; they must classify differently, otherwise NoCrossingError.
    The first sign change is refined by exact halving (dyadic Fractions)
    until it is no wider than ``tol``, which takes at most 1074 steps for a
    positive double; further sign changes are reported in
    ``extra_brackets``.  A tolerance that is not finite and positive, or a
    negative ``scan_steps``, is a ValueError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if scan_steps < 0:
        raise ValueError(f"scan steps must be nonnegative, got {scan_steps}")
    steps = max(scan_steps, 1)
    grid = [Fraction(i, steps) for i in range(steps + 1)]
    letters = [is_flat(mixture(m0, m1, t)).letter for t in grid]
    v_lo, v_hi = letters[0], letters[-1]
    if v_lo == v_hi:
        raise NoCrossingError(
            f"both endpoints classify as {v_lo}; nothing to bracket")
    (lo, hi), *extra = [(a, b) for a, b, x, y in zip(grid, grid[1:], letters, letters[1:])
                        if x != y]
    trace = []
    while hi - lo > tol:
        mid = (lo + hi) / 2
        letter = is_flat(mixture(m0, m1, mid)).letter
        trace.append((len(trace), lo, hi, mid, letter))
        if letter == v_lo:
            lo = mid
        else:
            hi = mid
    return BisectionResult(boundary=(lo + hi) / 2, lower=lo, upper=hi,
                           verdict_low=v_lo, verdict_high=v_hi,
                           iterations=len(trace),
                           extra_brackets=tuple(extra),
                           trace=tuple(trace))


# -- Monte Carlo sampling ------------------------------------------------------

class SampleRow(NamedTuple):
    index: int
    weights: Tuple[float, ...]
    verdict: str
    worst_value: Optional[float]


class SampleSummary(NamedTuple):
    """Aggregate of a simplex sample.

    ``fraction`` is embeddable/total and the half-width is the normal
    (Wald) approximation of the 95% binomial-proportion interval, which
    collapses to 0 when the fraction is 0 or 1; ``ci95_low`` and
    ``ci95_high`` bound the Wilson score interval (Wilson 1927), which does
    not.
    """

    k: int
    total: int
    embeddable: int
    not_embeddable: int
    fraction: float
    ci95_half_width: float
    ci95_low: float
    ci95_high: float
    seed: int


#: numpy's SeedSequence hash constants (pool size 4, ``bit_generator.pyx``).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
#: Draws whose seed states are hashed together; block edges are its multiples.
_BLOCK = 1024


def _words(n: int) -> List[int]:
    """The 32-bit little-endian words SeedSequence splits a nonnegative int into."""
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value, h: int, mult: int = _MULT_A):
    """Hash ``value`` (an int or a uint32 array) with ``h``; return it and the next ``h``."""
    h2 = h * mult & _M32
    value = (value ^ h) * h2 & _M32
    return value ^ value >> 16, h2


def _absorb(pool: List, h: int, words, skip: Optional[int] = None) -> Tuple[List, int]:
    """Mix each word into every pool word but ``skip``; return the pool and the next ``h``."""
    pool = list(pool)
    for w in words:
        for dst in range(4):
            if dst != skip:
                v, h = _hashmix(w, h)
                r = (_MIX_L * pool[dst] & _M32) - (_MIX_R * v & _M32) & _M32
                pool[dst] = r ^ r >> 16
    return pool, h


def _seed_states(seed: int, start: int, stop: int):
    """Yield ``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for i in start..stop-1, hashing one block of indices at a time as uint32 arrays.

    The seed's words, zero-padded to four, come first, so the pool they give
    is mixed once, in Python ints.  A block never crosses a multiple of 2^32:
    only the lowest word of its indices varies.
    """
    import numpy as np

    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))
    h, pool = _INIT_A, []
    for w in entropy[:4]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(4):
        pool, h = _absorb(pool, h, pool[src:src + 1], skip=src)
    pool, h = _absorb(pool, h, entropy[4:])
    while start < stop:
        end = min(stop, (start // _BLOCK + 1) * _BLOCK)
        low = np.arange(end - start, dtype=np.uint32) + (start & _M32)
        block, _ = _absorb(pool, h, [low] + _words(start)[1:])
        out, hb = np.empty((end - start, 8), dtype="<u4"), _INIT_B
        for i in range(8):
            out[:, i], hb = _hashmix(block[i % 4], hb, _MULT_B)
        yield from out.view("<u8").astype(np.uint64, copy=False)
        start = end


@functools.cache
def _state_seed():
    """A SeedSequence stand-in that hands a generator its precomputed state row."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=None):
            return self.state

    return StateSeed


def _sample_chunk(args) -> Tuple[int, List[SampleRow]]:
    """Draws start..stop-1: how many are embeddable, and their rows when ``keep_rows``
    is set (only then is each draw's worst value searched for).

    Each draw is uniform on the open simplex (normalized unit exponentials),
    from a generator keyed by (seed, index) alone, never by batch layout: the
    PCG64 that ``SeedSequence(entropy=seed, spawn_key=(index,))`` would seed,
    with the chunk's keys hashed together by ``_seed_states``.
    """
    import numpy as np

    seed, k, start, stop, keep_rows = args
    generator, pcg64, state_seed = np.random.Generator, np.random.PCG64, _state_seed()
    embeddable, rows = 0, []
    for index, state in zip(range(start, stop), _seed_states(seed, start, stop)):
        e = generator(pcg64(state_seed(state))).standard_exponential(k + 1)
        weights = tuple(float(v) for v in e / e.sum())
        report = is_flat(Measure(weights=weights, mode=FLOAT, normalized=True))
        embeddable += report.letter == "E"
        if keep_rows:
            rows.append(SampleRow(index=index, weights=weights, verdict=report.letter,
                                  worst_value=float(report.worst[1])))
    return embeddable, rows


def _wilson_interval(frac: float, count: int) -> Tuple[float, float]:
    """95% Wilson score interval of a proportion ``frac`` of ``count`` draws."""
    z2n = _Z95 * _Z95 / count
    center = (frac + z2n / 2) / (1 + z2n)
    half = _Z95 * math.sqrt(frac * (1 - frac) / count + z2n / (4 * count)) / (1 + z2n)
    return max(0.0, center - half), min(1.0, center + half)


def sample_simplex(k: int, count: int, seed: int = 0, jobs: int = 1,
                   keep_rows: bool = False):
    """Classify ``count`` uniform draws from the k-simplex.

    Returns a SampleSummary, or (summary, rows) with ``keep_rows``; only then
    are rows kept and each draw's worst subset searched for, so a summary
    holds no more than one block of seed states per chunk.  Results are
    bit-identical for a given seed regardless of ``jobs``, which is capped at
    the core count.
    """
    if k < 3:
        raise ValueError(f"sampling needs k >= 3 (four atoms), got k={k}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    jobs = min(jobs, os.cpu_count() or 1)

    if jobs == 1 or count < 4 * jobs:
        results = [_sample_chunk((seed, k, 0, count, keep_rows))]
    else:
        import numpy as np
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, count, jobs + 1, dtype=int)
        chunks = [(seed, k, int(a), int(b), keep_rows)
                  for a, b in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sample_chunk, chunks))

    emb = sum(e for e, _ in results)
    rows = [row for _, chunk in results for row in chunk]
    frac = emb / count
    half_width = _Z95 * math.sqrt(frac * (1.0 - frac) / count)
    low, high = _wilson_interval(frac, count)
    summary = SampleSummary(k=k, total=count, embeddable=emb, not_embeddable=count - emb,
                            fraction=frac, ci95_half_width=half_width,
                            ci95_low=low, ci95_high=high, seed=seed)
    return (summary, rows) if keep_rows else summary
