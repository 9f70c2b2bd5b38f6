"""Acceptance suite: one test per required behavior, each printing a
PASS/FAIL line (run with -rA or -s to see the lines for passing tests).

Every acceptance criterion must pass.  Expected values are derived in the
tests themselves (binomial counts, hand-computed Gram structure), never read
back from the routines under test.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from atomembed import (
    atom_metric,
    binomial_family,
    bisect_boundary,
    classify,
    cone_half_angle_cos,
    cone_membership,
    criterion_sign,
    criterion_table,
    det_closed_form,
    det_lemma_route,
    det_numeric,
    embed,
    gram_matrix,
    is_flat,
    mixture,
    powerset_metric,
    realize,
    reciprocal_form_matrix,
    reduced_criterion,
    sample_simplex,
    uniform_family,
    validate_measure,
)
from atomembed.scalars import format_decimal
from conftest import float_tuple, rational_tuple


def report(cid: str, ok: bool, detail: str = ""):
    line = f"[acceptance {cid}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def binom5():
    return realize(binomial_family(5, Fraction(1, 2)))


# -- criterion 1: binomial(5, 1/2) ---------------------------------------------

def test_c1_reduced_criterion_value_and_verdict():
    start = time.perf_counter()
    m = binom5()
    scaled = tuple(w / m.weights[0] for w in m.weights)
    value = reduced_criterion(scaled)
    recips = tuple(1 / w for w in scaled)
    zvalue, _ = criterion_sign(recips)
    cls = classify(m)
    elapsed = time.perf_counter() - start
    report(
        "C1",
        value == Fraction(-41, 25)
        and zvalue == Fraction(-41, 25)
        and cls.verdict == "not_embeddable"
        and elapsed < 1.0,
        f"criterion {value} on z={recips}, verdict {cls.verdict}, "
        f"{elapsed * 1000:.1f} ms",
    )


def test_c1_stated_witness_and_subset_claims():
    """The binomial(5, 1/2) witness is (0,1,2,3), not the full 6-atom set.

    At unit scale the weights are the counts C(5,i) = (1,5,10,10,5,1), and
    subset (0,1,2,3) has criterion -4/25: atoms 2 and 3 are 20 apart, atoms
    0 and 1 lie on their bisecting hyperplane at 11 and 15 from both, so they
    would be at least sqrt(125) - sqrt(21) ~ 6.6 apart, yet their distance
    is 6.  The failing subsets are (0,1,2,3), (0,2,3,4), (1,2,3,5) and
    (2,3,4,5) among size 4, all six of size 5 and the full set (-41/25).
    The witness is the first of them in (size, lex) order, every one is
    negative by all three determinant routes, and the values in the
    criterion table and the report are the unit-scale criterion times 32^2
    (the criterion has degree -2)."""
    counts = [math.comb(5, i) for i in range(6)]

    def unit_criterion(sub):
        recips = [Fraction(1, counts[i]) for i in sub]
        n = len(sub) - 1
        return sum(recips) ** 2 - (n - 1) * sum(r * r for r in recips)

    expected_failing = {
        sub
        for size in range(4, 7)
        for sub in combinations(range(6), size)
        if unit_criterion(sub) < 0
    }
    first_failing = min(expected_failing, key=lambda sub: (len(sub), sub))
    assert unit_criterion((0, 1, 2, 3)) == Fraction(-4, 25)
    assert unit_criterion(tuple(range(6))) == Fraction(-41, 25)

    m = binom5()
    rep = is_flat(m)
    d = atom_metric(m)
    for sub in sorted(expected_failing):
        xs = m.subset_weights(sub)
        routes = (det_closed_form(xs), det_numeric(gram_matrix(d, sub)),
                  det_lemma_route(xs))
        assert all(value < 0 for value in routes), (sub, routes)

    per_size = {s: sum(len(sub) == s for sub in expected_failing)
                for s in range(4, 7)}
    table = criterion_table(m)
    reported_failing = {sub for sub, value in table.items() if value < 0}
    report(
        "C1-witness",
        first_failing == (0, 1, 2, 3)
        and rep.witness == first_failing
        and reported_failing == expected_failing
        and per_size == {4: 4, 5: 6, 6: 1}
        and table[(0, 1, 2, 3)] == Fraction(-4, 25) * 32 ** 2
        and rep.subset_values[(0, 1, 2, 3)] == table[(0, 1, 2, 3)],
        f"witness {rep.witness}, criterion -4/25 at unit scale; "
        f"failing subsets by size {per_size}",
    )


# -- criterion 2: indifference measure -----------------------------------------

def test_c2_uniform_classification_and_embedding():
    start = time.perf_counter()
    ok = True
    detail = []
    for k in range(2, 11):
        m = realize(uniform_family(k + 1))
        cls = classify(m)
        result = embed(m)
        ok = ok and cls.verdict == "embeddable" and cls.dimension == k
        ok = ok and result.dimension == k and result.max_residual <= 1e-8
        detail.append(f"k={k}:dim {cls.dimension},res {result.max_residual:.1e}")
    elapsed = time.perf_counter() - start
    report("C2", ok and elapsed < 5.0,
           f"{'; '.join(detail[:3])}...; total {elapsed:.2f} s")


def test_c2_stated_uniform_determinant_formula():
    """The full-simplex determinant of the uniform measure on n+1 atoms is
    2^(n-1) * 2(n+1) * x0^(2n).  All distances are 2 x0, so the triple
    product matrix is 2 x0^2 (I + J): (2 x0)^2 on the diagonal and 2 x0^2
    off it.  I + J has eigenvalues n+1 (once) and 1, so the determinant is
    (2 x0^2)^n (n+1).  Closed form, elimination and the lemma route all
    give that value for n = 2..10."""
    mismatches = []
    for k in range(2, 11):
        x0 = Fraction(1, k + 1)
        gram = gram_matrix(atom_metric(realize(uniform_family(k + 1))),
                           range(k + 1))
        structure = tuple(
            tuple((4 if i == j else 2) * x0 ** 2 for j in range(k))
            for i in range(k)
        )
        if gram.entries != structure:
            mismatches.append(f"k={k}: Gram matrix is not 2 x0^2 (I + J)")
        expected = 2 ** (k - 1) * 2 * (k + 1) * x0 ** (2 * k)
        routes = ((2 * x0 ** 2) ** k * (k + 1),
                  det_closed_form([x0] * (k + 1)), det_numeric(gram),
                  det_lemma_route([x0] * (k + 1)))
        if any(value != expected for value in routes):
            mismatches.append(
                f"k={k}: (2x0^2)^n(n+1), closed form, elimination, lemma "
                f"{routes}; expected {expected}")
    report("C2-formula", not mismatches,
           mismatches[0] if mismatches else
           "k=2..10: closed form, elimination and lemma route equal "
           "2^(n-1)*2(n+1)*x0^(2n)")


# -- criterion 3: determinant oracle equivalence --------------------------------

def test_c3_three_route_agreement_exact_and_float():
    rng = random.Random(303)
    checked_exact = 0
    for size in range(3, 9):
        for _ in range(170):
            xs = rational_tuple(rng, size)
            m = validate_measure(xs)
            closed = det_closed_form(xs)
            numeric = det_numeric(gram_matrix(atom_metric(m), range(size)))
            lemma = det_lemma_route(xs)
            assert closed == numeric == lemma, (xs, closed, numeric, lemma)
            checked_exact += 1
    checked_float = 0
    for size in range(3, 9):
        for _ in range(170):
            xs = float_tuple(rng, size)
            m = validate_measure(xs)
            closed = det_closed_form(xs)
            numeric = det_numeric(gram_matrix(atom_metric(m), range(size)))
            lemma = det_lemma_route(xs)
            biggest = max(abs(closed), abs(numeric), abs(lemma))
            assert abs(closed - numeric) <= 1e-9 * biggest
            assert abs(closed - lemma) <= 1e-9 * biggest
            checked_float += 1
    report("C3", checked_exact >= 1000 and checked_float >= 1000,
           f"{checked_exact} exact tuples identical on 3 routes, "
           f"{checked_float} float tuples within 1e-9 relative")


# -- criterion 4: positivity, homogeneity, sign equivalence ---------------------

def test_c4_triples_positive_homogeneity_and_signs():
    rng = random.Random(404)
    triples_ok = all(
        det_closed_form(rational_tuple(rng, 3)) > 0
        and det_closed_form(float_tuple(rng, 3)) > 0
        for _ in range(1000)
    )

    hom_ok = True
    for _ in range(400):
        size = rng.randint(3, 8)
        n = size - 1
        xs = float_tuple(rng, size)
        lam = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        lhs = det_closed_form(tuple(lam * x for x in xs))
        rhs = lam ** (2 * n) * det_closed_form(xs)
        # cancellation-aware scale: the un-cancelled magnitude of the form
        prod = 1.0
        for x in xs:
            prod *= x
        e = math.fsum(prod / x for x in xs)
        q = math.fsum((prod / x) ** 2 for x in xs)
        scale = lam ** (2 * n) * 2 ** (n - 1) * (e * e + (n - 1) * q)
        hom_ok = hom_ok and abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), scale)
    for _ in range(100):
        size = rng.randint(3, 8)
        n = size - 1
        xs = rational_tuple(rng, size)
        lam = Fraction(rng.randint(1, 200), rng.randint(1, 200))
        hom_ok = hom_ok and det_closed_form(
            tuple(lam * x for x in xs)) == lam ** (2 * n) * det_closed_form(xs)

    signs_ok = True
    for _ in range(1000):
        size = rng.randint(3, 8)
        xs = rational_tuple(rng, size) if rng.random() < 0.5 else float_tuple(rng, size)
        rc, dc = reduced_criterion(xs), det_closed_form(xs)
        signs_ok = signs_ok and (rc > 0) == (dc > 0) and (rc < 0) == (dc < 0)

    report("C4", triples_ok and hom_ok and signs_ok,
           f"triples positive: {triples_ok}, homogeneity 1e-10: {hom_ok}, "
           f"sign equivalence: {signs_ok}")


# -- criterion 5: cone cross-check ----------------------------------------------

def test_c5_cone_agreement_and_form_spectrum():
    rng = random.Random(505)
    agreements = 0
    for n in range(3, 8):
        for _ in range(1000):
            xs = float_tuple(rng, n + 1)
            assert cone_membership(xs) == (reduced_criterion(xs) >= 0), xs
            agreements += 1

    spectrum_ok = True
    for n in range(3, 8):
        eig = np.sort(np.linalg.eigvalsh(reciprocal_form_matrix(n)))
        spectrum_ok = spectrum_ok and abs(eig[0] + 2.0) <= 1e-9
        spectrum_ok = spectrum_ok and np.all(np.abs(eig[1:] - (n - 1)) <= 1e-9)

    half_angles = {n: cone_half_angle_cos(n) for n in range(3, 8)}
    report("C5", agreements == 5000 and spectrum_ok,
           f"{agreements} agreements; spectrum {{n-1 x n, -2}} ok; "
           f"cos(half-angle) = sqrt((n-1)/(n+1)): "
           + ", ".join(f"n={n}:{c:.4f}" for n, c in half_angles.items()))


# -- criterion 6: full powerset is never flat ------------------------------------

def test_c6_powerset_four_point_configuration():
    m = validate_measure(["1/2", "1/2"])
    d = powerset_metric(m, [[], [0], [1], [0, 1]])
    half_half = det_numeric(gram_matrix(d, range(4)))

    rng = random.Random(606)
    negatives = 0
    for _ in range(100):
        t = Fraction(rng.randint(1, 9999), 10000)
        mt = validate_measure([t, 1 - t])
        dt = powerset_metric(mt, [[], [0], [1], [0, 1]])
        value = det_numeric(gram_matrix(dt, range(4)))
        assert value == -4 * t ** 2 * (1 - t) ** 2
        if value < 0:
            negatives += 1
    report("C6", half_half == Fraction(-1, 4) and negatives == 100,
           f"det at t=1/2 is {half_half}; {negatives}/100 random t negative")


# -- criterion 7: explorer determinism and region nonemptiness -------------------

def test_c7_sampling_reproducible_and_both_classes():
    s1, rows1 = sample_simplex(5, 2000, seed=0, keep_rows=True)
    s2, rows2 = sample_simplex(5, 2000, seed=0, keep_rows=True)
    s4, rows4 = sample_simplex(5, 2000, seed=0, jobs=4, keep_rows=True)

    def csv_bytes(rows):
        return "\n".join(
            ",".join([str(r.index), *[format_decimal(w) for w in r.weights],
                      r.verdict])
            for r in rows
        ).encode()

    identical = (s1 == s2 == s4 and rows1 == rows2 == rows4
                 and csv_bytes(rows1) == csv_bytes(rows4))
    both = s1.embeddable > 0 and s1.not_embeddable > 0
    report("C7-sample", identical and both,
           f"reproducible across runs and jobs; embeddable {s1.embeddable}, "
           f"not embeddable {s1.not_embeddable} of {s1.total}")


def test_c7_mixture_bisection_brackets_the_flip():
    m0 = realize(uniform_family(6))
    m1 = binom5()
    path = lambda t: mixture(m0, m1, t)
    r1 = bisect_boundary(path, Fraction(0), Fraction(1), tol=1e-6)
    r2 = bisect_boundary(path, Fraction(0), Fraction(1), tol=1e-6)
    ok = (
        r1 == r2
        and r1.verdict_low == "E"
        and r1.verdict_high == "N"
        and 0 < r1.lower < r1.upper < 1
        and float(r1.upper - r1.lower) <= 1e-6
    )
    report("C7-bisect", ok,
           f"flip bracketed at t = {float(r1.boundary):.7f} "
           f"(width {float(r1.upper - r1.lower):.2e}), stable across reruns")
