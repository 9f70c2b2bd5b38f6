import math
import statistics
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomembed import (
    GramError,
    atom_metric,
    criterion_scale,
    criterion_sign,
    det_closed_form,
    det_lemma_route,
    det_numeric,
    det_pivots,
    embed,
    gram_matrix,
    is_flat,
    reduced_criterion,
    sign_verdict,
    triple_product,
    validate_measure,
)
from atomembed import gram
from atomembed.gram import _ldl
from atomembed.scalars import over_common_denominator
from conftest import flat_floats, float_tuple, rational_tuple, zero_criterion_weights
from det_oracle import appendix_decomposition, lemma_sum
from oracle import adjugate, atom_gram_matrix, ldl_pivots, matrix_det_lemma, placed_atoms


def third_measure():
    return validate_measure([Fraction(1, 3)] * 3)


class TestTripleProduct:
    def test_base_index_collapses_to_zero(self):
        d = atom_metric(third_measure())
        assert triple_product(d, 0, 1, 0) == 0
        assert triple_product(d, 1, 0, 0) == 0

    def test_diagonal_is_squared_distance(self, rng):
        for _ in range(100):
            ws = rational_tuple(rng, 4)
            d = atom_metric(validate_measure(ws))
            for i in (1, 2, 3):
                assert triple_product(d, i, i, 0) == (ws[0] + ws[i]) ** 2

    def test_offdiagonal_closed_form(self, rng):
        for _ in range(100):
            ws = rational_tuple(rng, 4)
            d = atom_metric(validate_measure(ws))
            got = triple_product(d, 1, 2, 0)
            x0, x1, x2 = ws[0], ws[1], ws[2]
            assert got == x0 * x0 + x0 * x1 + x0 * x2 - x1 * x2

    def test_index_out_of_range(self):
        d = atom_metric(third_measure())
        with pytest.raises(GramError):
            triple_product(d, 0, 3, 0)


class TestGramMatrix:
    def test_uniform_third(self):
        # direct evaluation of the entry formula at x = 1/3:
        # diagonal (1/3 + 1/3)^2 = 4/9, off-diagonal 3*(1/9) - 1/9 = 2/9
        g = gram_matrix(atom_metric(third_measure()), [0, 1, 2])
        assert g.entries == (
            (Fraction(4, 9), Fraction(2, 9)),
            (Fraction(2, 9), Fraction(4, 9)),
        )

    def test_two_point_simplex(self, rng):
        ws = rational_tuple(rng, 3)
        d = atom_metric(validate_measure(ws))
        g = gram_matrix(d, [0, 2])
        assert g.entries == ((d[0, 2] ** 2,),)

    def test_duplicate_points_rejected(self):
        d = atom_metric(third_measure())
        with pytest.raises(GramError, match="duplicate"):
            gram_matrix(d, [0, 1, 1])

    def test_matches_direct_weight_formula(self, rng):
        for _ in range(1000):
            size = rng.randint(3, 7)
            m = validate_measure(rational_tuple(rng, size))
            pts = list(range(size))
            rng.shuffle(pts)
            via_metric = gram_matrix(atom_metric(m), pts)
            via_weights = atom_gram_matrix(m, pts)
            assert via_metric.entries == via_weights.entries


class TestClosedForm:
    def test_uniform_quarter(self):
        # 2^(n-1) * 2(n+1) * x^(2n) at n=3, x=1/4 is 1/128
        assert det_closed_form([Fraction(1, 4)] * 4) == Fraction(1, 128)

    def test_integer_weights_stay_exact(self):
        value = det_closed_form([1, 2, 3, 4])
        assert isinstance(value, Fraction)
        assert value == det_closed_form([Fraction(x) for x in (1, 2, 3, 4)])

    def test_uniform_closed_form_all_sizes(self):
        for k in range(2, 11):
            x = Fraction(1, k + 1)
            expected = 2 ** (k - 1) * 2 * (k + 1) * x ** (2 * k)
            assert det_closed_form([x] * (k + 1)) == expected

    def test_triples_always_positive_exact(self, rng):
        for _ in range(500):
            assert det_closed_form(rational_tuple(rng, 3)) > 0

    @given(st.lists(st.floats(0.001, 1000.0), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_triples_always_positive_float(self, ws):
        assert det_closed_form(ws) > 0

    def test_binomial_five_negative(self):
        ws = [Fraction(c, 32) for c in (1, 5, 10, 10, 5, 1)]
        assert det_closed_form(ws) < 0

    def test_too_few_values(self):
        with pytest.raises(GramError):
            det_closed_form([Fraction(1), Fraction(1)])

    def test_homogeneity_exact(self, rng):
        for _ in range(100):
            size = rng.randint(3, 7)
            n = size - 1
            xs = rational_tuple(rng, size)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = tuple(lam * x for x in xs)
            assert det_closed_form(scaled) == lam ** (2 * n) * det_closed_form(xs)

    def test_permutation_invariance(self, rng):
        for _ in range(100):
            xs = list(rational_tuple(rng, rng.randint(3, 6)))
            shuffled = xs[:]
            rng.shuffle(shuffled)
            assert det_closed_form(xs) == det_closed_form(shuffled)

    def test_sixty_small_probabilities_stay_finite(self, rng):
        # partial products here are ~1e-105, far below what squaring a
        # naive full product would survive without the omitted-factor form
        ws = [rng.uniform(0.9, 1.1) / 60.0 for _ in range(60)]
        value = det_closed_form(ws)
        assert math.isfinite(value)
        assert value > 0
        assert reduced_criterion(ws) > 0

    def test_overflowing_tuple_saturates_with_correct_sign(self):
        # products of sixty 1e5 weights overflow doubles; the guarded route
        # keeps the sign instead of raising
        assert det_closed_form([1e5] * 60) == math.inf
        assert reduced_criterion([1e5] * 60) > 0

    def test_underflowing_tuple_saturates_to_zero(self):
        value = det_closed_form([1e-8] * 40)
        assert value == 0.0
        assert reduced_criterion([1e-8] * 40) > 0

    def test_mixed_extreme_weights_never_nan(self):
        value = det_closed_form([1e-150, 1e100, 1e100, 1e50])
        assert not math.isnan(value)
        assert value == -math.inf
        assert reduced_criterion([1e-150, 1e100, 1e100, 1e50]) < 0


def full_pivot_det(rows):
    """Oracle: Gaussian elimination with full pivoting, in the entries' own type."""
    rows = [list(row) for row in rows]
    n = len(rows)
    det, sign = 1, 1
    for step in range(n):
        piv_r, piv_c, piv_abs = -1, -1, None
        for r in range(step, n):
            for c in range(step, n):
                a = abs(rows[r][c])
                if piv_abs is None or a > piv_abs:
                    piv_r, piv_c, piv_abs = r, c, a
        if piv_abs == 0:
            return piv_abs
        if piv_r != step:
            rows[step], rows[piv_r] = rows[piv_r], rows[step]
            sign = -sign
        if piv_c != step:
            for row in rows:
                row[step], row[piv_c] = row[piv_c], row[step]
            sign = -sign
        pivot = rows[step][step]
        det *= pivot
        for r in range(step + 1, n):
            factor = rows[r][step] / pivot
            if factor == 0:
                continue
            for c in range(step, n):
                rows[r][c] -= factor * rows[step][c]
    return sign * det


small_entries = st.one_of(st.integers(-6, 6),
                          st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def exact_matrices(draw):
    """Square int/Fraction matrices of order 1-8, some shaped to stall a pivot."""
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(small_entries, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(st.sampled_from(["random", "zero_corner", "zero_column",
                                  "zero_leading_minor", "repeated_row",
                                  "combined_row"]))
    if shape == "zero_corner":
        rows[0][0] = 0
    elif shape == "zero_column":
        for row in rows:
            row[0] = 0
    elif n >= 2 and shape == "zero_leading_minor":  # the second pivot is 0
        rows[1][:2] = rows[0][:2]
    elif n >= 2 and shape == "repeated_row":
        rows[-1] = list(rows[0])
    elif n >= 2 and shape == "combined_row":
        c = draw(small_entries)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
    return rows


class TestDetNumeric:
    @settings(max_examples=150, deadline=None)
    @given(exact_matrices())
    def test_exact_equals_full_pivot_fractions(self, rows):
        before = [list(row) for row in rows]
        got = det_numeric(rows)
        assert got == full_pivot_det([[Fraction(a) for a in row] for row in rows])
        assert type(got) is Fraction
        assert rows == before

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.floats(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_float_is_full_pivot_elimination(self, rows):
        # of the doubles' exact values, rounded once
        assert det_numeric(rows) == float(full_pivot_det([[Fraction(a) for a in row]
                                                          for row in rows]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_refused(self, bad):
        with pytest.raises(GramError, match="finite"):
            det_numeric([[1.0, bad], [2.0, 3.0]])

    def test_float_beyond_range_rounds_to_infinity_or_zero(self):
        assert det_numeric([[1e200, 0.0], [0.0, -1e200]]) == -math.inf
        assert det_numeric([[1e-200, 0.0], [0.0, 1e-200]]) == 0.0

    def test_huge_integers_are_exact(self):
        big = 10 ** 20
        got = det_numeric([[big + 1, big], [big, big - 1]])
        assert got == -1 and type(got) is Fraction

    def test_small_integers_give_a_fraction(self):
        got = det_numeric([[2, 1], [1, 2]])
        assert got == 3 and type(got) is Fraction

    def test_one_by_one(self):
        assert det_numeric([[Fraction(5, 7)]]) == Fraction(5, 7)

    def test_identity(self):
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert det_numeric(eye) == 1

    def test_matches_numpy_on_random_floats(self, rng):
        for _ in range(100):
            n = rng.randint(2, 6)
            a = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
            expected = float(np.linalg.det(np.array(a)))
            assert det_numeric(a) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_matches_closed_form_exactly(self, rng):
        for _ in range(300):
            size = rng.randint(3, 8)
            m = validate_measure(rational_tuple(rng, size))
            g = gram_matrix(atom_metric(m), range(size))
            assert det_numeric(g) == det_closed_form(m.weights)

    def test_base_relabeling_invariance(self, rng):
        # which atom plays the base is immaterial to the determinant
        for _ in range(100):
            size = rng.randint(3, 6)
            m = validate_measure(rational_tuple(rng, size))
            d = atom_metric(m)
            pts = list(range(size))
            base_zero = det_numeric(gram_matrix(d, pts))
            rng.shuffle(pts)
            assert det_numeric(gram_matrix(d, pts)) == base_zero

    def test_singular_matrix(self):
        assert det_numeric([[1, 2], [2, 4]]) == 0


class TestMatrixDetLemma:
    def test_identity_rank_one_bump(self):
        for n in (2, 3, 5):
            eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            e1 = [Fraction(int(i == 0)) for i in range(n)]
            assert matrix_det_lemma(eye, e1, e1) == 2

    def test_adjugate_of_negated_identity(self):
        for n in (2, 3, 4, 5):
            neg = [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)]
            adj = adjugate(neg)
            expected = Fraction((-1) ** (n - 1))
            for i in range(n):
                for j in range(n):
                    assert adj[i][j] == (expected if i == j else 0)

    def test_against_direct_determinant_exact(self, rng):
        for _ in range(100):
            n = rng.randint(1, 4)
            a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)]
            u = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            v = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            updated = [[a[i][j] + u[i] * v[j] for j in range(n)] for i in range(n)]
            assert matrix_det_lemma(a, u, v) == det_numeric(updated)

    def test_against_direct_determinant_float(self, rng):
        for _ in range(50):
            a = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)]
            u = [rng.uniform(-1, 1) for _ in range(4)]
            v = [rng.uniform(-1, 1) for _ in range(4)]
            updated = [[a[i][j] + u[i] * v[j] for j in range(4)] for i in range(4)]
            assert matrix_det_lemma(a, u, v) == pytest.approx(
                det_numeric(updated), rel=1e-9, abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(GramError, match="length"):
            matrix_det_lemma([[1, 0], [0, 1]], [1], [1, 0])


class TestAppendixDecomposition:
    def test_reconstruction(self, rng):
        for _ in range(200):
            size = rng.randint(3, 7)
            m = validate_measure(rational_tuple(rng, size))
            dec = appendix_decomposition(m.weights)
            g = atom_gram_matrix(m, range(size))
            n = size - 1
            recon = tuple(
                tuple(dec.a[i][j] + dec.v[i] * dec.v[j] for j in range(n))
                for i in range(n)
            )
            assert recon == g.entries

    def test_adjugate_identity_exact(self, rng):
        for _ in range(100):
            xs = rational_tuple(rng, rng.randint(3, 6))
            dec = appendix_decomposition(xs)
            n = len(xs) - 1
            for i in range(n):
                for j in range(n):
                    got = sum(dec.a[i][l] * dec.adj_a[l][j] for l in range(n))
                    assert got == (dec.det_a if i == j else 0)

    def test_closed_form_adjugate_matches_cofactors(self, rng):
        xs = rational_tuple(rng, 5)
        dec = appendix_decomposition(xs)
        assert adjugate(dec.a) == dec.adj_a

    def test_three_way_agreement(self, rng):
        for _ in range(200):
            size = rng.randint(3, 7)
            m = validate_measure(rational_tuple(rng, size))
            closed = det_closed_form(m.weights)
            lemma = det_lemma_route(m.weights)
            numeric = det_numeric(gram_matrix(atom_metric(m), range(size)))
            assert closed == lemma == numeric


rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))
zero_points = st.builds(zero_criterion_weights, rationals, rationals, rationals)


@st.composite
def exact_simplices(draw):
    """(shape, weights) of 3-12 exact atoms, the base first.

    "zero_pivot" leads with a permuted zero point, so the pivot of the fourth
    atom is 0 (with later atoms after it, or none); "heavy_base" puts an atom
    heavier than all others first; "huge" makes one weight 10^400 or 10^-400.
    """
    shape = draw(st.sampled_from(["random", "zero_pivot", "heavy_base", "huge"]))
    if shape == "zero_pivot":
        lead = draw(st.permutations(draw(zero_points)))
        return shape, list(lead) + draw(st.lists(rationals, max_size=8))
    xs = draw(st.lists(rationals, min_size=3, max_size=12))
    if shape == "heavy_base":
        xs[0] = max(xs) + 1
    elif shape == "huge":
        xs[draw(st.integers(0, len(xs) - 1))] = Fraction(10) ** draw(st.sampled_from([400, -400]))
    return shape, xs


@st.composite
def exact_measures(draw):
    """3-16 exact atoms: small-integer ties, a binomial row, a permuted zero
    point (a zero pivot) with more atoms after it, near-uniform (flat) or
    unrelated k/l weights (mostly failing: negative pivots)."""
    shape = draw(st.sampled_from(["ties", "binomial", "zero_pivot", "near_uniform", "random"]))
    if shape == "ties":
        return draw(st.lists(st.integers(1, 4), min_size=3, max_size=16))
    if shape == "binomial":
        return [math.comb(n, i) for n in [draw(st.integers(2, 15))] for i in range(n + 1)]
    if shape == "zero_pivot":
        lead = draw(st.permutations(draw(zero_points)))
        return list(lead) + draw(st.lists(rationals, max_size=12))
    if shape == "near_uniform":
        return draw(st.lists(st.builds(Fraction, st.integers(95, 105), st.integers(95, 105)),
                             min_size=3, max_size=16))
    return draw(st.lists(rationals, min_size=3, max_size=16))


@settings(max_examples=200, deadline=None)
@given(exact_measures())
def test_integer_recurrence_equals_the_fraction_oracle(weights):
    m = validate_measure(weights)
    xs = m.weights
    ints, den = over_common_denominator(xs)
    # index order (det_pivots) and lightest first (embed)
    for order in (range(len(xs)), sorted(range(len(xs)), key=xs.__getitem__)):
        ys, ns = [xs[i] for i in order], [ints[i] for i in order]
        steps, _ = _ldl(ns)
        oracle = list(ldl_pivots(ys, signed=True))
        assert len(steps) == len(oracle) == len(xs) - 1
        for (p, q, w0, w1), (j, pivot, v0, v1) in zip(steps, oracle):
            assert Fraction(p, q * den * den) == pivot
            assert (p == 0) == (v0 is None)
            if p:  # the column of L below the pivot
                for i in range(j + 1, len(ys)):
                    u0, u1 = ns[0] + ns[i], ns[i]
                    assert Fraction(u0 * w0 + u1 * w1, p) == (ys[0] + ys[i]) * v0 + ys[i] * v1
    det = det_pivots(xs)
    assert det == det_closed_form(xs) and type(det) is Fraction
    if is_flat(m).flat:
        assert embed(m).coordinates.tobytes() == placed_atoms(xs).tobytes()


@settings(max_examples=150, deadline=None)
@given(flat_floats(30))
def test_float_pivots_track_the_exact_pivots_of_the_doubles(xs):
    # one recurrence on the atoms lightest first, as embed runs it: on the
    # doubles, and on the same doubles as integers over their common
    # denominator, up to the boundary of the flat cone
    ys = sorted(xs)
    ints, den = over_common_denominator([Fraction(y) for y in ys])
    exact = [float(Fraction(p, q * den * den)) for p, q, _, _ in _ldl(ints)[0]]
    floats = [p for p, *_ in _ldl(ys)[0]]
    assert len(floats) == len(exact)
    assert all(abs(f - e) <= 1e-12 * max(exact) for f, e in zip(floats, exact))


def test_a_negative_double_pivot_leaves_the_state():
    # flat by +4.7e-15 exactly, but the last float pivot over the lightest
    # atom is -1.8e-15: a zero pivot after rounding, which updates nothing
    xs = [1.0 / (3.0 + 2.0 * math.sqrt(3.0)), 1.0, 1.0, 1.0]
    steps, state = _ldl(xs)
    assert -2e-15 < steps[-1][0] < 0
    assert state == _ldl(xs[:3])[1]


class TestDetRoutes:
    @settings(max_examples=150, deadline=None)
    @given(exact_simplices())
    def test_exact_routes_equal_the_oracles(self, case):
        shape, xs = case
        rows = gram_matrix(atom_metric(validate_measure(xs)), range(len(xs))).entries
        oracle = det_numeric(rows)
        leading_zero = any(det_numeric([row[:k] for row in rows[:k]]) == 0
                           for k in range(1, len(rows) + 1))
        assert leading_zero or shape != "zero_pivot"
        # past a zero pivot det_pivots takes det_numeric of the Gram matrix
        with mock.patch.object(gram, "det_numeric", wraps=gram.det_numeric) as fallback:
            pivots = det_pivots(xs)
        assert fallback.call_count == leading_zero
        assert pivots == oracle == det_closed_form(xs) and type(pivots) is Fraction
        lemma = det_lemma_route(xs)
        assert lemma == lemma_sum(xs) == oracle
        assert type(lemma) is Fraction

    @pytest.mark.parametrize("xs", [[1.0, 1.0, 1.0, 1.0, 0.25, 0.25],
                                    [0.25, 1.0, 1.0, 0.25, 1.0, 1.0, 0.5, 3.0]])
    def test_float_zero_pivot_rounds_the_exact_elimination(self, xs):
        # z = 1/x = (1, 1, 1, 1, 4, 4) is a zero point, so the pivot of the
        # sixth atom is exactly 0 (the last, or with atoms after it)
        with mock.patch.object(gram, "det_numeric", wraps=gram.det_numeric) as fallback:
            det = det_pivots(xs)
        assert fallback.call_count == 1
        assert det == det_closed_form(xs) == float(det_closed_form([Fraction(x) for x in xs]))
        assert type(det) is float

    @given(st.lists(st.floats(0.001, 1000.0), min_size=3, max_size=12))
    def test_float_weights_leave_numeric_to_elimination(self, xs):
        # float weights no longer make det_pivots give up: its value is the
        # exact elimination of the Gram matrix of the same doubles, rounded once
        exact = validate_measure([Fraction(x) for x in xs])
        elimination = det_numeric(gram_matrix(atom_metric(exact), range(len(xs))))
        det = det_pivots(xs)
        assert det == float(elimination) == float(det_pivots(exact.weights))
        assert type(det) is float

    def test_integer_weights_give_fractions(self):
        for route in (det_pivots, det_lemma_route):
            got = route([1, 2, 3, 4])
            assert got == det_closed_form([1, 2, 3, 4]) and type(got) is Fraction

    def test_float_lemma_no_less_accurate_than_the_materialized_sum(self, rng):
        # error relative to the exact determinant of the same doubles
        errors = {"oracle": [], "route": []}
        for _ in range(2000):
            xs = float_tuple(rng, rng.randint(4, 12))
            exact = det_closed_form([Fraction(x) for x in xs])
            for name, route in (("oracle", lemma_sum), ("route", det_lemma_route)):
                errors[name].append(float(abs(Fraction(route(xs)) - exact) / abs(exact)))

        def stats(values):
            values = sorted(values)
            return statistics.median(values), values[int(0.99 * len(values))], values[-1]

        oracle, route = stats(errors["oracle"]), stats(errors["route"])
        assert all(r <= o for r, o in zip(route, oracle)), (route, oracle)
        # the bracket is nearly exact; the rest is the rounding of the
        # product of up to 22 factors in 2^(n-1) P^2 and of the last steps
        assert route[2] <= 48 * 2 ** -53, route

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-40, 40) | st.integers(-1000, 1000),
           st.lists(st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                              st.integers(-20, 20)), min_size=3, max_size=12))
    def test_float_routes_round_the_exact_determinant_once(self, scale, parts):
        # the weights are exact dyadic rationals; Bareiss elimination of
        # their Gram matrix in Fractions is the exact determinant
        xs = [math.ldexp(x, scale) for x in parts]
        exact = validate_measure([Fraction(x) for x in xs])
        det = det_numeric(gram_matrix(atom_metric(exact), range(len(xs))))
        try:
            nearest = float(det)
        except OverflowError:
            nearest = math.inf if det > 0 else -math.inf
        assert det_closed_form(xs) == det_lemma_route(xs) == det_pivots(xs) == nearest

    @pytest.mark.parametrize("tiny", [1e-170, 1e-300, 5e-324])
    def test_float_weight_with_underflowing_square_is_rounded_exactly(self, tiny):
        # 1/tiny^2 has no double, but the exact determinant is -4 + O(tiny)
        for xs in ([1.0, 1.0, tiny, 1.0], [tiny, 1.0, 1.0, 1.0]):
            assert det_lemma_route(xs) == det_closed_form(xs) == -4.0

    def test_routes_agree_on_hundreds_of_atoms(self, rng):
        # the products of all weights but one are summed by halves, nine
        # levels deep here; the pivot product is an independent exact route
        xs = rational_tuple(rng, 301)
        assert det_closed_form(xs) == det_lemma_route(xs) == det_pivots(xs)
        floats = [rng.uniform(0.5, 2.0) for _ in range(301)]
        nearest = float(det_pivots([Fraction(x) for x in floats]))
        assert det_closed_form(floats) == det_lemma_route(floats) == det_pivots(floats) == nearest


class TestReducedCriterion:
    def test_binomial_example_value(self):
        xs = [Fraction(c) for c in (1, 5, 10, 10, 5, 1)]
        assert reduced_criterion(xs) == Fraction(-41, 25)

    def test_cone_criterion_on_reciprocals_is_identical(self):
        zs = [Fraction(1), Fraction(1, 5), Fraction(1, 10), Fraction(1, 10),
              Fraction(1, 5), Fraction(1)]
        assert criterion_sign(zs) == (Fraction(-41, 25), "negative")

    def test_all_ones(self):
        for size in range(3, 9):
            n = size - 1
            assert reduced_criterion([Fraction(1)] * size) == 2 * (n + 1)

    def test_sign_matches_closed_form(self, rng):
        # deterministic seed: the sampled tuples stay clear of the boundary
        for _ in range(1000):
            size = rng.randint(3, 7)
            exact = rng.random() < 0.5
            xs = rational_tuple(rng, size) if exact else float_tuple(rng, size)
            rc = reduced_criterion(xs)
            dc = det_closed_form(xs)
            assert (rc > 0) == (dc > 0) and (rc < 0) == (dc < 0)

    def test_sign_invariant_under_scaling(self, rng):
        for _ in range(200):
            xs = rational_tuple(rng, rng.randint(3, 6))
            lam = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            a = reduced_criterion(xs)
            b = reduced_criterion(tuple(lam * x for x in xs))
            # degree -2 homogeneity: b = a / lam^2
            assert b * lam ** 2 == a

    def test_requires_three_values(self):
        with pytest.raises(GramError):
            reduced_criterion([Fraction(1), Fraction(2)])

    @pytest.mark.parametrize("weight", [Fraction(1, 10**400), Fraction(10**400)])
    def test_scale_refuses_weights_beyond_double_range(self, weight):
        # 1/float(x) divides by zero for the tiny weight; float(x) overflows
        # for the huge one
        with pytest.raises(GramError, match="weight at index 3 is beyond double range"):
            criterion_scale([1, 1, 1, weight])
        assert criterion_scale([1, 1, 1, 1]) == 16 + 2 * 4


class TestSignVerdict:
    def test_exact_signs(self):
        assert sign_verdict(Fraction(1, 10**12), 1.0, "exact") == "positive"
        assert sign_verdict(Fraction(-1, 10**12), 1.0, "exact") == "negative"
        assert sign_verdict(Fraction(0), 1.0, "exact") == "zero"

    def test_float_margin(self):
        assert sign_verdict(1e-12, 1.0, "float") == "boundary"
        assert sign_verdict(-1e-12, 1.0, "float") == "boundary"
        assert sign_verdict(1e-6, 1.0, "float") == "positive"
        assert sign_verdict(-1e-6, 1.0, "float") == "negative"
