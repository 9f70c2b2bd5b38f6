"""One sweep, one sign rule: every verdict comes from a single FlatnessReport.

The reference below enumerates the subsets itself and decides each sign
exactly (exact mode) or through ``sign_verdict`` (float mode); ``classify``,
``is_flat``, ``dimension`` and the letters of ``sweep`` and ``sample`` must
all agree with it.  The counting tests pin that each command sweeps once.
"""

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atomembed.flatness as flatness
from atomembed import (
    EXACT,
    FLOAT,
    Measure,
    checked_subsets,
    classify,
    criterion_scale,
    dimension,
    is_flat,
    reduced_criterion,
    sample_simplex,
    sign_verdict,
    sweep,
    validate_measure,
)
from atomembed.cli import main

LETTER = {"embeddable": "E", "not_embeddable": "N", "indeterminate": "I"}
_T = 3.0 + 2.0 * math.sqrt(3.0)


def reference(m):
    """(verdict, witness, dimension, boundary) by plain enumeration."""
    witness, boundary, dim = None, [], min(m.size - 1, 2)
    for size in range(4, m.size + 1):
        for sub in combinations(range(m.size), size):
            xs = [m.weights[i] for i in sub]
            if m.mode == EXACT:
                s1 = sum(Fraction(1) / x for x in xs)
                s2 = sum(Fraction(1) / (x * x) for x in xs)
                value = s1 * s1 - (size - 2) * s2
                sign = "positive" if value > 0 else "negative" if value < 0 else "zero"
            else:
                sign = sign_verdict(reduced_criterion(xs), criterion_scale(xs), FLOAT)
            if sign == "negative" and witness is None:
                witness = sub
            elif sign == "boundary":
                boundary.append(sub)
            elif sign == "positive":
                dim = size - 1
    if witness is not None:
        verdict = "not_embeddable"
    elif boundary:
        verdict = "indeterminate"
    else:
        verdict = "embeddable"
    return verdict, witness, dim, tuple(boundary)


def assert_matches_reference(m):
    verdict, witness, dim, boundary = reference(m)
    cls = classify(m)
    assert cls.verdict == verdict
    assert cls.witness == witness
    assert cls.dimension == (dim if verdict == "embeddable" else None)
    report = is_flat(m)
    assert report.boundary == boundary
    assert report.dimension == dimension(m) == dim
    assert report.classification == cls
    (row,) = sweep([(0, m)])
    assert row.verdict == LETTER[verdict]


rationals = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
near_uniform = st.builds(Fraction, st.integers(90, 110), st.just(100))
exact_weights = st.one_of(st.lists(rationals, min_size=4, max_size=8),
                          st.lists(near_uniform, min_size=4, max_size=8))
float_weights = st.one_of(
    st.lists(st.floats(0.05, 1.0), min_size=4, max_size=8),
    st.lists(st.floats(0.9, 1.1), min_size=4, max_size=8),
)


@settings(max_examples=40, deadline=None)
@given(exact_weights)
@example(["1/32", "5/32", "5/16", "5/16", "5/32", "1/32"])
@example(["1/6"] * 6)
def test_exact_verdicts_match_enumeration(weights):
    assert_matches_reference(validate_measure(weights))


@settings(max_examples=60, deadline=None)
@given(float_weights)
@example([1.0, 1.0, 1.0, 1.0 / _T])
@example([1.0, 1.0, 1.0, 1.0 / _T, 0.01])  # boundary (0,1,2,3), failing (0,1,2,4)
def test_float_verdicts_match_enumeration(weights):
    assert_matches_reference(validate_measure(weights))


def formula(xs):
    """(value, sign) of the cone criterion at 1/x, summed directly."""
    if isinstance(xs[0], float):
        s1 = math.fsum(1.0 / x for x in xs)
        s2 = math.fsum((1.0 / x) * (1.0 / x) for x in xs)
        value = s1 * s1 - (len(xs) - 2) * s2
        return value, sign_verdict(value, s1 * s1 + (len(xs) - 2) * s2, FLOAT)
    s1 = sum(Fraction(1) / x for x in xs)
    s2 = sum(Fraction(1) / (x * x) for x in xs)
    value = s1 * s1 - (len(xs) - 2) * s2
    return value, sign_verdict(value, 0, EXACT)


@settings(max_examples=60, deadline=None)
@given(st.one_of(exact_weights, float_weights))
@example([1.0, 1.0, 1.0, 1.0 / _T, 0.01])
@example([1.0, 1.0, 1.0, 1.0 / (_T * (1 + 1e-12))])  # nonzero, inside the margin
@example(["1", "1", "1", "1/3", "1/6"])  # criterion exactly 0 on (0,1,2,3,4)
def test_sweep_values_equal_the_formula(weights):
    m = validate_measure(weights)
    report = is_flat(m)
    assert list(report.subset_values) == list(checked_subsets(m.size))
    witness, boundary, dim = None, [], min(m.size - 1, 2)
    for sub, got in report.subset_values.items():
        value, sign = formula([m.weights[i] for i in sub])
        assert got == value and type(got) is type(value)
        if sign == "negative":
            witness = witness or sub
        elif sign == "boundary":
            boundary.append(sub)
        elif sign == "positive":
            dim = max(dim, len(sub) - 1)
    assert report.witness == witness
    assert report.flat is (witness is None)
    assert report.boundary == tuple(boundary)
    assert report.dimension == dim


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2**32 - 1))
def test_sample_letters_match_enumeration(k, seed):
    _, rows = sample_simplex(k, 8, seed=seed, keep_rows=True)
    for row in rows:
        m = Measure(weights=row.weights, mode=FLOAT, normalized=True)
        assert row.verdict == LETTER[reference(m)[0]]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sign_verdict_non_finite_is_boundary(value):
    assert sign_verdict(value, 1.0, FLOAT) == "boundary"


@pytest.fixture
def counted(monkeypatch):
    """Counts the criterion kernel calls made through the flatness sweep."""
    calls = Counter()
    kernel = flatness.criterion_sign

    def wrapped(zs):
        calls["criterion"] += 1
        return kernel(zs)

    monkeypatch.setattr(flatness, "criterion_sign", wrapped)
    return calls


COUNT_INPUTS = {
    "exact_flat": ["1/10"] * 10,
    "exact_not_flat": ["1/32", "5/32", "5/16", "5/16", "5/32", "1/32"],
    "float_flat": [0.15, 0.17, 0.16, 0.18, 0.17, 0.17],
    "float_boundary": [1.0, 1.0, 1.0, 1.0 / _T],
}


@pytest.mark.parametrize("flag", [[], ["--full-set-only"]])
@pytest.mark.parametrize("name", sorted(COUNT_INPUTS))
@pytest.mark.parametrize("command", ["check", "classify"])
def test_each_command_sweeps_once(command, name, flag, counted, tmp_path, capsys):
    weights = COUNT_INPUTS[name]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"weights": weights}))
    main([command, str(path), *flag])
    capsys.readouterr()
    checked = sum(1 for _ in checked_subsets(len(weights), bool(flag)))
    assert counted["criterion"] == checked


def test_dimension_reads_the_report(counted):
    m = validate_measure(COUNT_INPUTS["exact_flat"])
    report = is_flat(m)
    swept = counted["criterion"]
    assert swept == report.checked_count > 0
    assert dimension(m, report) == report.dimension == 9
    assert counted["criterion"] == swept
