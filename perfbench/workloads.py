"""The benchmark's workloads: seeded measure documents and the commands on them.

Every workload is a fixed list of commands (one "pass").  The seed changes
the weights and parameters, never the shape of the list: the atom counts,
the mix of commands and the amount of work per command stay the same, so
runs with different seeds measure the same load.  Each command carries the
number of items it completes and a verifier that checks its output against
``oracle``; references are computed lazily, after the timed window.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, List

import oracle

WORKLOADS = ("exact_query", "float_sample", "exact_explore")


class Lazy:
    """A reference computed on first use and then kept."""

    def __init__(self, make):
        self._make = make

    @cached_property
    def value(self):
        return self._make()


@dataclass
class Op:
    """One CLI command of a pass and what its output must be."""

    argv: List[str]
    items: int
    reference: Lazy
    #: (reference, exit code, stdout, stderr) -> problems found
    check: Callable
    #: reference -> E/N/I verdicts of the measures this command classifies
    letters: Callable = lambda ref: []

    def verify(self, rc, out, err) -> List[str]:
        return self.check(self.reference.value, rc, out, err)


def _doc(weights, normalized=None):
    doc = {"weights": [oracle.fraction_json(w) for w in weights]}
    if normalized is not None:
        doc["normalized"] = normalized
    return doc


def _write(work: Path, name: str, doc) -> str:
    path = work / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _random_weights(rng, atoms, lo, hi):
    return [Fraction(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(atoms)]


def exact_query(seed: int, work: Path):
    """Eight documents of 6..12 atoms (two of 8), each through four commands.

    Near-uniform random weights (p/q with p, q in 90..110) are flat; random
    weights with p, q in 1..60 almost never are; the family members fall on
    either side.  A command's cost about doubles per atom and `check` costs
    about twice `classify`, so the commands form groups of like cost.  The
    median falls in the middle of the four `classify` and `embed` commands
    on 8 atoms, and the 90th percentile among the three on 11 and 12 atoms
    that cost about the same.
    """
    rng = random.Random(seed)
    pop = rng.randint(16, 24)
    docs = [
        ("hyper6", oracle.hypergeometric(pop, rng.randint(6, pop - 6), 5), True),
        ("flat7", _random_weights(rng, 7, 90, 110), None),
        ("binom8", oracle.binomial(7, Fraction(rng.randint(4, 7), 11)), True),
        ("flat8", _random_weights(rng, 8, 90, 110), None),
        ("rough9", _random_weights(rng, 9, 1, 60), None),
        ("uniform10", oracle.uniform(10), True),
        ("rough11", _random_weights(rng, 11, 1, 60), None),
        ("flat12", _random_weights(rng, 12, 90, 110), None),
    ]
    checks = {"classify": oracle.verify_classify, "check": oracle.verify_check,
              "embed": oracle.verify_embed, "det": oracle.verify_det}
    ops = []
    for name, weights, normalized in docs:
        path = _write(work, f"{name}.json", _doc(weights, normalized))
        ref = Lazy(lambda w=weights: oracle.Exact(w))
        for command, check in checks.items():
            argv = [command, path] + (["--mode", "all"] if command == "det" else [])
            op = Op(argv, 1, ref, check)
            if command == "classify":
                op.letters = lambda r: [r.letter]
            ops.append(op)
    return ops, [op.argv for op in ops[:4]]


#: (k, draws per command, commands per pass).  30% of the commands are light
#: (k=6), 50% middle (k=7) and 20% heavy (k=8), each heavier by about 2x, so
#: the median falls inside the middle group and the 90th percentile in the
#: middle of the heavy one, not between two groups.
SAMPLE_SHAPES = ((6, 72, 3), (7, 64, 5), (8, 50, 2))


def float_sample(seed: int, work: Path, jobs: int = 1):
    """`sample` commands for k in 6..8; items are draws."""
    ops = []
    for k, count, commands in SAMPLE_SHAPES:
        for j in range(commands):
            s = seed * 100 + 10 * j + k
            letters = Lazy(lambda k=k, count=count, s=s: oracle.sample_letters(k, count, s))
            argv = ["sample", "--k", str(k), "--count", str(count), "--seed", str(s),
                    "--jobs", str(jobs)]
            ops.append(Op(argv, count, letters,
                          lambda l, rc, out, err, s=s: oracle.verify_sample(l, s, rc, out, err),
                          lambda l: l))
    return ops, [["sample", "--k", "4", "--count", "8", "--seed", "0", "--jobs", str(jobs)]]


def _sweep_letters(ref):
    return [r.letter for r in ref[1]]


def exact_explore(seed: int, work: Path):
    """Hypergeometric draws-grids, binomial p-grids and exact bisections.

    Items are classified points: grid rows, and for a bisection its two
    endpoints plus one midpoint per iteration.  The three kinds of command
    differ in cost by about 2x and make up 30/50/20% of a pass, so the
    median falls inside the p-grid sweeps and the 90th percentile in the
    middle of the bisections.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(3):
        pop = rng.randint(18, 30)
        succ = rng.randint(8, pop - 8)
        params = list(range(3, 9))
        refs = Lazy(lambda pop=pop, succ=succ, params=params: (params, [
            oracle.Exact(oracle.hypergeometric(pop, succ, d)) for d in params]))
        argv = ["sweep", "hypergeometric", "--population", str(pop), "--successes", str(succ),
                "--draws", "3", "--param", "draws", "--start", "3", "--stop", "8",
                "--steps", str(len(params))]
        ops.append(Op(argv, len(params), refs, oracle.verify_sweep, _sweep_letters))
    for _ in range(5):
        start = Fraction(rng.randint(1, 6), 20)
        stop = start + Fraction(rng.randint(8, 12), 20)
        params = oracle.grid(start, stop, 8)
        refs = Lazy(lambda params=params: (params, [oracle.Exact(oracle.binomial(7, p))
                                                    for p in params]))
        argv = ["sweep", "binomial", "--n", "7", "--p", "1/2", "--param", "p",
                "--start", oracle.fraction_json(start), "--stop", oracle.fraction_json(stop),
                "--steps", str(len(params))]
        ops.append(Op(argv, len(params), refs, oracle.verify_sweep, _sweep_letters))
    tol = 1e-12
    for i in range(2):
        w0 = oracle.uniform(7)
        w1 = oracle.binomial(6, Fraction(rng.randint(3, 8), 11))
        low = _write(work, f"bisect{i}_low.json", _doc(w0, True))
        high = _write(work, f"bisect{i}_high.json", _doc(w1, True))
        trace = work / f"bisect{i}_trace.csv"
        argv = ["bisect", low, high, "--tol", repr(tol), "--trace", str(trace)]
        ref = Lazy(lambda w0=w0, w1=w1, trace=trace: (w0, w1, tol, trace))
        ops.append(Op(argv, 2 + oracle.bisect_iterations(tol), ref, oracle.verify_bisect,
                      lambda r: [oracle.Exact(r[0]).letter, oracle.Exact(r[1]).letter]))
    # The warm-up does not depend on the seed, so neither does set-up time.
    warmup = ["sweep", "hypergeometric", "--population", "24", "--successes", "12",
              "--draws", "3", "--param", "draws", "--start", "3", "--stop", "8", "--steps", "6"]
    return ops, [warmup]


def build(name: str, seed: int, work: Path, jobs: int = 1):
    """Write the workload's documents into ``work``.

    Returns one pass of commands and the short warm-up commands run during
    set-up.  ``jobs`` is the `sample --jobs` value; the benchmark times
    --jobs 1, and the self-test checks that --jobs 2 gives the same answers.
    """
    if name == "exact_query":
        return exact_query(seed, work)
    if name == "float_sample":
        return float_sample(seed, work, jobs)
    if name == "exact_explore":
        return exact_explore(seed, work)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
