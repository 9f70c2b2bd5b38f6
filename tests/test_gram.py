import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomembed import (
    GramError,
    adjugate,
    appendix_decomposition,
    atom_gram_matrix,
    atom_metric,
    criterion_scale,
    criterion_sign,
    det_closed_form,
    det_lemma_route,
    det_numeric,
    gram_matrix,
    matrix_det_lemma,
    reduced_criterion,
    sign_verdict,
    triple_product,
    validate_measure,
)
from conftest import float_tuple, rational_tuple


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


class TestDetNumeric:
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
