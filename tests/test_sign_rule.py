"""One route, one sign rule: every verdict comes from the full-set criterion.

The reference below enumerates the subsets itself and decides each sign
exactly (exact mode) or through ``sign_verdict`` (float mode), deciding a
float value inside the margin again on the doubles as Fractions.  The
full-set route behind ``is_flat`` (the verdict from one value, the witness,
dimension and worst subset from searches over sorted reciprocals) must
agree with it for ``classify``, ``is_flat``, ``dimension``, ``sweep`` and
``sample``.  The counting tests pin how many subsets each command evaluates.
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
    criterion_sign,
    criterion_table,
    dimension,
    embed,
    is_flat,
    reduced_criterion,
    sample_simplex,
    sign_verdict,
    sweep,
    validate_measure,
)
from atomembed.cli import main
from conftest import zero_criterion_weights

LETTER = {"embeddable": "E", "not_embeddable": "N"}
_T = 3.0 + 2.0 * math.sqrt(3.0)


def exact_sign(value):
    return "positive" if value > 0 else "negative" if value < 0 else "zero"


def exact_value(xs):
    """The criterion at z = 1/x of the weights as Fractions (floats exactly)."""
    zs = [1 / Fraction(x) for x in xs]
    return sum(zs) ** 2 - (len(xs) - 2) * sum(z * z for z in zs)


def rounded(value):
    """The double nearest a Fraction, +-inf beyond double range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def filtered(value, sign, xs):
    """A float (value, sign) as is outside the margin, else the exact one of xs."""
    if sign != "boundary":
        return value, sign
    exact = exact_value(xs)
    return rounded(exact), exact_sign(exact)


def enumerate_signs(m):
    """(subset, value, sign) for every subset of >= 4 atoms, (size, lex) order."""
    for size in range(4, m.size + 1):
        for sub in combinations(range(m.size), size):
            xs = [m.weights[i] for i in sub]
            if m.mode == EXACT:
                value = exact_value(xs)
                sign = exact_sign(value)
            else:
                value = reduced_criterion(xs)
                value, sign = filtered(value, sign_verdict(value, criterion_scale(xs), FLOAT),
                                       xs)
            yield sub, value, sign


def reference(m):
    """(verdict, witness, dimension) by plain enumeration."""
    witness, dim = None, min(m.size - 1, 2)
    for sub, _, sign in enumerate_signs(m):
        if sign == "negative" and witness is None:
            witness = sub
        elif sign == "positive":
            dim = len(sub) - 1
    return "not_embeddable" if witness else "embeddable", witness, dim


def reference_worst(m):
    """(subset, value) of the least value, the first in (size, lex) order on ties."""
    worst = (None, None)
    for sub, value, _ in enumerate_signs(m):
        if worst[1] is None or value < worst[1]:
            worst = (sub, value)
    return worst


def assert_matches_reference(m):
    verdict, witness, dim = reference(m)
    cls = classify(m)
    assert cls.verdict == verdict
    assert cls.witness == witness
    assert cls.dimension == (dim if verdict == "embeddable" else None)
    report = is_flat(m)
    assert report.boundary == ()
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
@example([1.0, 1.0, 1.0, 1.0 / _T, 0.01])  # (0,1,2,3) in the margin, (0,1,2,4) failing
def test_float_verdicts_match_enumeration(weights):
    assert_matches_reference(validate_measure(weights))


def formula(xs):
    """(value, sign) of the cone criterion at 1/x, summed directly."""
    if isinstance(xs[0], float):
        s1 = math.fsum(1.0 / x for x in xs)
        s2 = math.fsum((1.0 / x) * (1.0 / x) for x in xs)
        value = s1 * s1 - (len(xs) - 2) * s2
        return filtered(value, sign_verdict(value, s1 * s1 + (len(xs) - 2) * s2, FLOAT), xs)
    value = exact_value(xs)
    return value, sign_verdict(value, 0, EXACT)


@settings(max_examples=60, deadline=None)
@given(st.one_of(exact_weights, float_weights))
@example([1.0, 1.0, 1.0, 1.0 / _T, 0.01])
@example([1.0, 1.0, 1.0, 1.0 / (_T * (1 + 1e-12))])  # nonzero, inside the margin
@example(["1", "1", "1", "1/3", "1/6"])  # criterion exactly 0 on (0,1,2,3,4)
def test_sweep_values_equal_the_formula(weights):
    m = validate_measure(weights)
    table = criterion_table(m)
    report = is_flat(m)
    assert list(table) == list(checked_subsets(m.size))
    witness, dim = None, min(m.size - 1, 2)
    for sub, got in table.items():
        value, sign = formula([m.weights[i] for i in sub])
        assert got == value and type(got) is type(value)
        assert report.subset_values[sub] == got
        if sign == "negative":
            witness = witness or sub
        elif sign == "positive":
            dim = max(dim, len(sub) - 1)
    assert report.witness == witness
    assert report.flat is (witness is None)
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
    """Counts the calls the flatness module makes to the criterion kernel
    (``criterion``) and to the bare formula that `check`'s table rows use
    (``table``)."""
    calls = Counter()

    def counting(name, function):
        def wrapped(*args):
            calls[name] += 1
            return function(*args)
        return wrapped

    monkeypatch.setattr(flatness, "criterion_sign",
                        counting("criterion", flatness.criterion_sign))
    monkeypatch.setattr(flatness, "criterion_value",
                        counting("table", flatness.criterion_value))
    return calls


COUNT_INPUTS = {
    "exact_flat": ["1/10"] * 10,
    "exact_not_flat": ["1/32", "5/32", "5/16", "5/16", "5/32", "1/32"],
    "float_flat": [0.15, 0.17, 0.16, 0.18, 0.17, 0.17],
    "float_boundary": [1.0, 1.0, 1.0, 1.0 / _T],
}
#: Kernel calls of the route behind each command, by input.  The full-set
#: route takes one for the verdict; `classify` adds the witness search of a
#: failing measure (the 6 evaluations that find (0, 1, 2, 3)), and `check`
#: also the dimension's window search (4 more).  `check`'s table rows come
#: on top: an exact row is one `criterion_value` call on running integer
#: sums, a float row one kernel call, the value its verdict is read from.
#: Forcing float arithmetic with --float changes none of these counts.
ROUTE_CALLS = {
    "classify": {"exact_flat": 1, "exact_not_flat": 7,
                 "float_flat": 1, "float_boundary": 1},
    "check": {"exact_flat": 1, "exact_not_flat": 11,
              "float_flat": 1, "float_boundary": 1},
}


@pytest.mark.parametrize("flag", [[], ["--float"]])
@pytest.mark.parametrize("name", sorted(COUNT_INPUTS))
@pytest.mark.parametrize("command", ["check", "classify"])
def test_each_command_sweeps_once(command, name, flag, counted, tmp_path, capsys):
    weights = COUNT_INPUTS[name]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"weights": weights}))
    main([command, str(path), *flag])
    doc = json.loads(capsys.readouterr().out)
    # the printed table is the enumeration: one formula call per exact row,
    # one kernel call per float row
    rows = sum(1 for _ in checked_subsets(len(weights))) if command == "check" else 0
    float_rows = rows if flag or name.startswith("float") else 0
    assert counted["criterion"] == ROUTE_CALLS[command][name] + float_rows
    assert counted["table"] == rows - float_rows
    if command == "check":
        assert doc["checked_count"] == rows


def test_dimension_reads_the_report(counted):
    m = validate_measure(COUNT_INPUTS["exact_flat"])
    report = is_flat(m)
    swept = counted["criterion"]
    assert swept == report.checked_count > 0
    assert dimension(m, report) == report.dimension == 9
    assert counted["criterion"] == swept


# -- the full-set route against the enumeration --------------------------------

def assert_route_matches_enumeration(m):
    """Verdict, witness, dimension and worst subset all equal the oracle."""
    assert_matches_reference(m)
    worst = reference_worst(m)
    report = is_flat(m)
    assert report.worst == worst
    assert type(report.worst[1]) is type(worst[1])
    (row,) = sweep([(0, m)])
    assert (row.witness, row.worst_value) == worst


small_integers = st.lists(st.integers(1, 4), min_size=4, max_size=10)
binomial_rows = st.integers(3, 9).map(lambda n: [math.comb(n, i) for i in range(n + 1)])
zero_points = st.builds(zero_criterion_weights, rationals, rationals, rationals)
zero_points_and_more = st.builds(lambda zero, more: zero + more,
                                 zero_points, st.lists(rationals, max_size=5))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.lists(rationals, min_size=4, max_size=10), small_integers,
                 binomial_rows, zero_points, zero_points_and_more,
                 st.lists(near_uniform, min_size=4, max_size=10)))
@example([1, 1, "1/4", "1/12"])  # full criterion exactly 0: dimension k-1 = 2
@example([1, 1, 1, "1/3", "1/6"])  # full criterion exactly 0: dimension 3
@example([1] * 10)  # every subset of a size ties: lex-first worst (0, 1, 2, 3)
def test_route_equals_enumeration_exact(weights):
    assert_route_matches_enumeration(validate_measure(weights))


def perturbed(weights, factors):
    return [float(w) * (1.0 + f) for w, f in zip(weights, factors)]


ulp_factors = st.lists(st.sampled_from([0.0, 2e-16, -2e-16, 1e-12, -1e-12, 1e-10, -1e-10,
                                        1e-9, -1e-9, 1e-8]), min_size=4, max_size=4)
near_boundary = st.builds(lambda zero, f, more: perturbed(zero, f) + more,
                          zero_points, ulp_factors,
                          st.lists(st.floats(0.05, 1.0), max_size=4))


@settings(max_examples=150, deadline=None)
@given(st.one_of(float_weights, near_boundary))
@example([1.0, 1.0, 1.0, 1.0 / _T])  # the full set inside the margin
@example([1.0, 1.0, 1.0, 1.0 / (_T * (1 + 1e-8))])  # just outside it
@example([1.0, 1.0, 1.0, 1.0 / _T, 0.01])  # (0,1,2,3) in the margin, the full set fails
def test_route_equals_enumeration_float(weights):
    assert_route_matches_enumeration(validate_measure(weights))


@settings(max_examples=150, deadline=None)
@given(st.one_of(float_weights, near_boundary), st.integers(-1000, 1000))
@example([1.0, 1.0, 1.0, (1 - 1e-3) / _T], 536)  # every z^2 is subnormal
@example([1.0, 1.0, 1.0, 3.0], 664)  # [1e200, 1e200, 1e200, 3e200]: every z^2 underflows
@example([1.0, 1.0, 1.0, 3.0], -990)  # every z^2 overflows
def test_definite_float_verdicts_are_exact_at_every_scale(weights, shift):
    # doubles are exact dyadic rationals: every float verdict must be the
    # exact verdict of the same values, however far they are scaled
    xs = [math.ldexp(w, shift) for w in weights]
    verdict = classify(validate_measure(xs)).verdict
    assert verdict == classify(validate_measure([Fraction(x) for x in xs])).verdict


def on_the_boundary(weights):
    """The weights with one more, solved so that the full-set criterion is about 0.

    With z = 1/x of the given m-1 weights, adding an atom at z makes the
    criterion -a z^2 + 2 S1 z + S1^2 - (m-2) S2, a = m-3; its larger root is
    (S1 + sqrt(S1^2 + a (S1^2 - (m-2) S2))) / a.  None when there is none.
    """
    zs = [1 / w for w in weights]
    s1, s2, m = math.fsum(zs), math.fsum(z * z for z in zs), len(weights) + 1
    a = m - 3
    disc = s1 * s1 + a * (s1 * s1 - (m - 2) * s2)
    if disc <= 0:
        return None
    return weights + [a / (s1 + math.sqrt(disc))]


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


boundary_measures = st.builds(
    on_the_boundary, st.lists(st.floats(0.4, 1.0), min_size=3, max_size=8)
).filter(lambda ws: ws is not None)


@settings(max_examples=150, deadline=None)
@given(boundary_measures, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
       st.integers(-1000, 1000))
@example([1.0, 1.0, 1.0, 1.0 / _T], 1, 0)
@example([1.0, 1.0, 1.0, 1.0 / _T], -1, 1000)
@example(on_the_boundary([1.0] * 4), 1, 539)  # values underflow: float worst used to tie
def test_float_verdicts_at_the_boundary_are_the_exact_ones(weights, ulps, shift):
    # a few ulps from the full-set boundary the float criterion lies inside
    # the margin; verdict, witness, dimension and worst subset are those of
    # the same doubles as Fractions, and a flat measure embeds at its dimension
    xs = [math.ldexp(w, shift) for w in weights[:-1] + [nudged(weights[-1], ulps)]]
    m = validate_measure(xs)
    report, exact = is_flat(m), is_flat(validate_measure([Fraction(x) for x in xs]))
    assert (report.letter, report.witness, report.dimension) == \
           (exact.letter, exact.witness, exact.dimension)
    worst, value = exact.worst
    assert report.worst == (worst, rounded(value))
    if report.flat:
        result = embed(m)
        assert result.dimension == exact.dimension
        assert result.max_residual <= 1e-8


@settings(max_examples=60, deadline=None)
@given(st.one_of(exact_weights, small_integers, binomial_rows, zero_points_and_more))
def test_failing_subsets_are_closed_under_supersets(weights):
    m = validate_measure(weights)
    failing = {sub for sub, value in criterion_table(m).items() if value < 0}
    for sub in failing:
        for atom in set(range(m.size)) - set(sub):
            assert tuple(sorted(sub + (atom,))) in failing


def test_sample_draw_makes_one_call(counted):
    summary = sample_simplex(8, 1, seed=0)
    assert summary.not_embeddable == 1
    assert counted["criterion"] == 1
    counted.clear()
    summary = sample_simplex(8, 40, seed=0)
    assert summary.embeddable > 0 and summary.not_embeddable > 0
    assert counted["criterion"] == 40


# -- exact values on integers over one common denominator ----------------------

big_rationals = st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30))
mixed_rationals = st.one_of(big_rationals, rationals,
                            st.builds(Fraction, st.integers(1, 10**30)),
                            st.just(Fraction(1, 10**400)))
big_zero_points = st.builds(zero_criterion_weights, big_rationals, big_rationals,
                            big_rationals)
big_weights = st.one_of(
    st.lists(big_rationals, min_size=4, max_size=8),
    st.lists(mixed_rationals, min_size=4, max_size=8),
    st.builds(lambda zero, more: zero + more,
              st.one_of(big_zero_points, zero_points), st.lists(mixed_rationals, max_size=3)),
)


@settings(max_examples=50, deadline=None)
@given(big_weights)
@example(["1/3", "1/7", "2/9", "10/11", "1/10000000000000000000000000000000000000000"])
def test_scaled_values_equal_the_fraction_formula(weights):
    m = validate_measure(weights)
    table = criterion_table(m)
    report = is_flat(m)
    assert list(table) == list(checked_subsets(m.size))
    for sub, got in table.items():
        value, _ = formula([m.weights[i] for i in sub])
        assert got == value and type(got) is Fraction
        kept = report.subset_values[sub]
        assert kept == value and type(kept) is Fraction
    assert_route_matches_enumeration(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(mixed_rationals, min_size=3, max_size=8))
def test_integer_kernel_is_the_fraction_kernel_times_den_squared(zs):
    den = math.lcm(*(z.denominator for z in zs))
    ints = [int(z * den) for z in zs]
    value, sign = criterion_sign(ints)
    assert type(value) is int
    assert (Fraction(value, den * den), sign) == criterion_sign(zs)


@pytest.fixture
def kernel_types(monkeypatch):
    """The types of the reciprocals passed to the criterion kernel by the sweep."""
    seen = set()
    kernel = flatness.criterion_sign

    def wrapped(zs):
        seen.update(type(z) for z in zs)
        return kernel(zs)

    monkeypatch.setattr(flatness, "criterion_sign", wrapped)
    return seen


@pytest.mark.parametrize("flag", [[], ["--float"]])
@pytest.mark.parametrize("name", sorted(COUNT_INPUTS))
@pytest.mark.parametrize("command", ["check", "classify"])
def test_exact_kernel_calls_take_integers(command, name, flag, kernel_types, tmp_path,
                                          capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"weights": COUNT_INPUTS[name]}))
    main([command, str(path), *flag])
    capsys.readouterr()
    exact = name.startswith("exact") and not flag
    assert kernel_types == ({int} if exact else {float})
