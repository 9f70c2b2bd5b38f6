"""Reference answers for every command the benchmark issues.

Nothing here imports atomembed: the criterion, the family weights, the
sampler and the verdict rules are re-derived in a few lines each, so a
change to the program cannot also change what it is checked against.
Each ``verify_*`` function takes one command's (exit code, stdout, stderr)
and returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

#: Relative float margin of the program's sign test (scalars.BOUNDARY_MARGIN).
FLOAT_MARGIN = 1e-9
#: Residual bound of `embed` at its default --tol.
EMBED_TOL = 1e-8


# -- exact criterion -------------------------------------------------------------

def criterion(xs):
    """(sum 1/x)^2 - (n-1) sum 1/x^2 for n+1 weights, in exact arithmetic."""
    z = [1 / Fraction(x) for x in xs]
    return sum(z) ** 2 - (len(z) - 2) * sum(v * v for v in z)


def subsets(size):
    """Atom subsets of size >= 4 in (size, lexicographic) order."""
    for s in range(4, size + 1):
        yield from combinations(range(size), s)


class Exact:
    """Everything the CLI reports about one exact measure."""

    def __init__(self, weights):
        self.weights = [Fraction(w) for w in weights]
        self.values = {sub: criterion([self.weights[i] for i in sub])
                       for sub in subsets(len(self.weights))}
        self.witness = next((s for s, v in self.values.items() if v < 0), None)
        self.flat = self.witness is None
        positive = [len(s) - 1 for s, v in self.values.items() if v > 0]
        self.dimension = 1 if len(self.weights) == 2 else max([2] + positive)
        self.worst = min(self.values, key=self.values.get) if self.values else None

    @property
    def letter(self):
        return "E" if self.flat else "N"


def fraction_json(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def decimal17(x):
    return f"{float(x):.17g}"


# -- families and mixtures -------------------------------------------------------

def binomial(n, p):
    p = Fraction(p)
    return [math.comb(n, a) * p ** a * (1 - p) ** (n - a) for a in range(n + 1)]


def hypergeometric(population, successes, draws):
    total = math.comb(population, draws)
    return [Fraction(math.comb(successes, a) * math.comb(population - successes, draws - a), total)
            for a in range(draws + 1)]


def uniform(atoms):
    return [Fraction(1, atoms)] * atoms


def mixture(w0, w1, t):
    return [(1 - t) * a + t * b for a, b in zip(w0, w1)]


def grid(start, stop, steps):
    start, stop = Fraction(start), Fraction(stop)
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def bisect_iterations(tol):
    """Halvings of [0, 1] until the bracket is no wider than ``tol``."""
    width, count = Fraction(1), 0
    while width > tol:
        width /= 2
        count += 1
    return count


# -- float sampling --------------------------------------------------------------

def sample_letters(k, count, seed):
    """E/N/I verdicts of `sample` draws, one generator per (seed, index).

    The criterion of every subset of every draw comes from one matrix
    product; the verdict rules are those of the float sign test: a value
    inside the relative margin is unresolved, a resolved negative value
    makes the draw N, an unresolved one otherwise makes it I.
    """
    draws = np.empty((count, k + 1))
    for index in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        e = rng.standard_exponential(k + 1)
        draws[index] = e / e.sum()
    masks = np.array([[1.0 if i in s else 0.0 for i in range(k + 1)] for s in subsets(k + 1)])
    n_minus_1 = masks.sum(axis=1) - 2
    recip = 1.0 / draws
    s1 = recip @ masks.T
    s2 = (recip * recip) @ masks.T
    value = s1 * s1 - n_minus_1 * s2
    unresolved = np.abs(value) <= FLOAT_MARGIN * (s1 * s1 + n_minus_1 * s2)
    negative = (value < 0) & ~unresolved
    letters = np.where(negative.any(axis=1), "N", np.where(unresolved.any(axis=1), "I", "E"))
    return letters.tolist()


# -- verifiers -------------------------------------------------------------------

def _json(text, problems):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def verify_classify(ref, rc, out, err):
    problems = []
    _expect(problems, "exit code", rc, 0)
    doc = _json(out, problems)
    if doc is None:
        return problems
    _expect(problems, "verdict", doc.get("verdict"),
            "embeddable" if ref.flat else "not_embeddable")
    _expect(problems, "dimension", doc.get("dimension"), ref.dimension if ref.flat else None)
    _expect(problems, "witness", doc.get("witness"), None if ref.flat else list(ref.witness))
    return problems


def verify_check(ref, rc, out, err):
    problems = []
    _expect(problems, "exit code", rc, 0)
    doc = _json(out, problems)
    if doc is None:
        return problems
    _expect(problems, "verdict", doc.get("verdict"),
            "embeddable" if ref.flat else "not_embeddable")
    _expect(problems, "flat", doc.get("flat"), ref.flat)
    # the witness is the first failing subset in (size, lex) order
    _expect(problems, "witness", doc.get("witness"), None if ref.flat else list(ref.witness))
    _expect(problems, "checked_count", doc.get("checked_count"), len(ref.values))
    _expect(problems, "dimension", doc.get("dimension"), ref.dimension)
    _expect(problems, "boundary", doc.get("boundary"), [])
    want = [(",".join(map(str, s)), fraction_json(v)) for s, v in ref.values.items()]
    if list((doc.get("subset_values") or {}).items()) != want:
        problems.append("subset_values differ from the exact criterion of every subset")
    return problems


def verify_det(ref, rc, out, err):
    problems = []
    _expect(problems, "exit code", rc, 0)
    doc = _json(out, problems)
    if doc is None:
        return problems
    xs = ref.weights
    n = len(xs) - 1
    prod = math.prod(xs)
    partial = [prod / x for x in xs]
    det = 2 ** (n - 1) * (sum(partial) ** 2 - (n - 1) * sum(p * p for p in partial))
    value = criterion(xs)
    want = fraction_json(det)
    _expect(problems, "values", doc.get("values"),
            {"closed": want, "numeric": want, "lemma": want})
    _expect(problems, "criterion", doc.get("criterion"), fraction_json(value))
    _expect(problems, "sign", doc.get("sign"),
            "positive" if value > 0 else "negative" if value < 0 else "zero")
    return problems


def verify_embed(ref, rc, out, err):
    problems = []
    if not ref.flat:
        _expect(problems, "exit code", rc, 1)
        if f"not flat; witness subset {ref.witness}" not in err:
            problems.append(f"error message does not name witness {ref.witness}: {err!r}")
        return problems
    _expect(problems, "exit code", rc, 0)
    rows = list(csv.reader(io.StringIO(out)))
    if not rows:
        return problems + ["no coordinate table"]
    _expect(problems, "columns", rows[0], [f"c{i}" for i in range(ref.dimension)])
    try:
        coords = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        return problems + [f"coordinates do not parse: {exc}"]
    if coords.shape != (len(ref.weights), ref.dimension):
        return problems + [f"coordinate table has shape {coords.shape}"]
    w = np.array([float(x) for x in ref.weights])
    target = w[:, None] + w[None, :]
    np.fill_diagonal(target, 0.0)
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    residual = float(np.abs(dist - target).max())
    if not residual <= EMBED_TOL:
        problems.append(f"recomputed residual {residual:.3e} exceeds {EMBED_TOL}")
    summary = _json(err.strip().splitlines()[-1] if err.strip() else "", problems)
    if summary is not None:
        _expect(problems, "summary dimension", summary.get("dimension"), ref.dimension)
        if not summary.get("max_residual", math.inf) <= EMBED_TOL:
            problems.append(f"reported residual {summary.get('max_residual')} exceeds {EMBED_TOL}")
    return problems


def verify_sample(letters, seed, rc, out, err):
    """Summary of a `sample` command against the reference verdict of every draw."""
    problems = []
    _expect(problems, "exit code", rc, 0)
    doc = _json(out, problems)
    if doc is None:
        return problems
    count = len(letters)
    want = {"total": count, "seed": seed,
            "embeddable": letters.count("E"),
            "not_embeddable": letters.count("N"),
            "indeterminate": letters.count("I")}
    for key, value in want.items():
        _expect(problems, key, doc.get(key), value)
    _expect(problems, "fraction", doc.get("fraction"), letters.count("E") / count)
    return problems


def verify_sweep(ref, rc, out, err):
    """Each row: exact verdict, worst subset, and its value recomputed from the witness."""
    params, refs = ref
    problems = []
    _expect(problems, "exit code", rc, 0)
    rows = list(csv.reader(io.StringIO(out)))
    _expect(problems, "header", rows[:1], [["parameter", "verdict", "worst_value", "witness"]])
    want = [[decimal17(param), r.letter, decimal17(r.values[r.worst]), "|".join(map(str, r.worst))]
            for param, r in zip(params, refs)]
    got = rows[1:]
    _expect(problems, "row count", len(got), len(want))
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            problems.append(f"row {i}: got {g}, want {w}")
            continue
        witness = [int(a) for a in g[3].split("|")]
        if decimal17(criterion([refs[i].weights[a] for a in witness])) != g[2]:
            problems.append(f"row {i}: worst_value does not match its witness")
    summary = _json(err.strip().splitlines()[-1] if err.strip() else "", problems)
    if summary is not None:
        letters = [r.letter for r in refs]
        _expect(problems, "summary", summary,
                {"rows": len(refs), "embeddable": letters.count("E"),
                 "not_embeddable": letters.count("N"), "indeterminate": 0})
    return problems


def verify_bisect(ref, rc, out, err):
    """Exact bracket of a verdict flip; ``ref`` is (low weights, high weights, tol, trace file)."""
    w0, w1, tol, trace = ref
    problems = []
    _expect(problems, "exit code", rc, 0)
    doc = _json(out, problems)
    if doc is None:
        return problems
    try:
        lower, upper = Fraction(doc["lower"]), Fraction(doc["upper"])
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"bracket does not parse: {exc}"]
    low, high = Exact(mixture(w0, w1, lower)).letter, Exact(mixture(w0, w1, upper)).letter
    _expect(problems, "verdict_low", doc.get("verdict_low"), low)
    _expect(problems, "verdict_high", doc.get("verdict_high"), high)
    if low == high:
        problems.append(f"bracket [{lower}, {upper}] does not contain a verdict flip")
    if not 0 <= lower < upper <= 1 or upper - lower > tol:
        problems.append(f"bracket [{lower}, {upper}] is not within [0, 1] or wider than {tol}")
    _expect(problems, "boundary", doc.get("boundary"), fraction_json((lower + upper) / 2))
    iterations = bisect_iterations(tol)
    _expect(problems, "iterations", doc.get("iterations"), iterations)
    rows = list(csv.reader(io.StringIO(trace.read_text(encoding="utf-8"))))
    _expect(problems, "trace iterations", [r[0] for r in rows[1:]],
            [str(i) for i in range(iterations)])
    return problems
