import math
import time
from fractions import Fraction

import numpy as np
import pytest

from atomembed import (
    binomial_family,
    checked_subsets,
    classify,
    complement,
    cone_axis_cos,
    cone_half_angle_cos,
    cone_membership,
    criterion_table,
    det_numeric,
    dimension,
    gram_matrix,
    is_flat,
    powerset_metric,
    realize,
    reduced_criterion,
    uniform_family,
    validate_measure,
)
from conftest import float_tuple, rational_tuple


def binom(n):
    return realize(binomial_family(n, Fraction(1, 2)))


class TestIsFlat:
    def test_uniform_is_flat_for_all_sizes(self):
        for k in range(2, 9):
            report = is_flat(realize(uniform_family(k + 1)))
            assert report.flat
            assert report.witness is None

    def test_two_and_three_atoms_vacuously_flat(self):
        for ws in ([1, 3], [2, 5, 9]):
            report = is_flat(validate_measure(ws))
            assert report.flat
            assert report.checked_count == 0

    def test_binomial_three_and_four_flat(self):
        assert is_flat(binom(3)).flat
        assert is_flat(binom(4)).flat

    def test_binomial_five_not_flat(self):
        report = is_flat(binom(5))
        assert not report.flat
        # the verdict is the full set's sign: one subset evaluated
        assert report.checked_count == 1
        # first failing subset in (size, lex) order; the weight multiset
        # (1,5,10,10)/32 has criterion -4/25 at unit scale
        assert report.witness == (0, 1, 2, 3)
        # the size-4 search evaluates extreme candidates until the fourth,
        # (1, 2, 3, 5), fails; the greedy adds (0, 1, 2, 3) and (0, 1, 2, 5)
        assert report.checked_count == 1 + 4 + 2
        assert len(criterion_table(binom(5))) == 15 + 6 + 1

    def test_binomial_five_failing_subsets(self):
        table = criterion_table(binom(5))
        failures = {s for s, v in table.items() if v < 0}
        assert failures == {
            (0, 1, 2, 3), (0, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5),
            (0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4, 5),
            (0, 1, 3, 4, 5), (0, 2, 3, 4, 5), (1, 2, 3, 4, 5),
            (0, 1, 2, 3, 4, 5),
        }

    def test_binomial_five_full_set_value(self):
        report = is_flat(binom(5))
        # -41/25 at unit base weight; the normalized weights are 32x smaller,
        # and the criterion has scaling degree -2
        assert report.subset_values[(0, 1, 2, 3, 4, 5)] == Fraction(-41, 25) * 32 ** 2

    def test_subset_order_is_size_then_lex(self):
        subs = list(criterion_table(validate_measure([1, 1, 1, 1, 1])))
        assert subs == sorted(subs, key=lambda s: (len(s), s))
        assert subs[0] == (0, 1, 2, 3)
        assert subs[-1] == (0, 1, 2, 3, 4)

    def test_verdict_invariant_under_permutation(self, rng):
        for _ in range(50):
            size = rng.randint(4, 6)
            ws = list(rational_tuple(rng, size))
            base = is_flat(validate_measure(ws)).flat
            rng.shuffle(ws)
            assert is_flat(validate_measure(ws)).flat == base

    def test_verdict_invariant_under_scaling(self, rng):
        for _ in range(50):
            size = rng.randint(4, 6)
            ws = rational_tuple(rng, size)
            lam = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            base = is_flat(validate_measure(ws)).flat
            scaled = tuple(lam * w for w in ws)
            assert is_flat(validate_measure(scaled)).flat == base

    def test_float_boundary_reports_indeterminate(self):
        # reciprocal image (1, 1, 1, 3 + 2*sqrt(3)) sits exactly on the cone
        # boundary, so the float criterion lands inside the margin
        t = 3.0 + 2.0 * math.sqrt(3.0)
        m = validate_measure([1.0, 1.0, 1.0, 1.0 / t])
        report = is_flat(m)
        assert report.boundary == ((0, 1, 2, 3),)
        assert classify(m).verdict == "indeterminate"


class TestDimension:
    def test_two_atoms(self):
        assert dimension(validate_measure([1, 9])) == 1

    def test_three_atoms(self):
        assert dimension(validate_measure(["1/2", "1/4", "1/4"])) == 2

    def test_uniform_reaches_full_dimension(self):
        for k in range(2, 9):
            assert dimension(realize(uniform_family(k + 1))) == k

    def test_binomial_five_dimension(self):
        # all 5-subsets fail but some 4-subsets still have positive values
        assert dimension(binom(5)) == 3


class TestClassify:
    def test_uniform(self):
        for k in range(2, 8):
            cls = classify(realize(uniform_family(k + 1)))
            assert cls.verdict == "embeddable"
            assert cls.dimension == k

    def test_binomial_five(self):
        cls = classify(binom(5))
        assert cls.verdict == "not_embeddable"
        assert cls.witness == (0, 1, 2, 3)

    def test_two_point_measures(self, rng):
        for _ in range(20):
            t = Fraction(rng.randint(1, 99), 100)
            cls = classify(validate_measure([t, 1 - t]))
            assert cls.verdict == "embeddable"
            assert cls.dimension == 1

    def test_binomial_family_flips_once_at_five(self):
        verdicts = [classify(binom(n)).verdict for n in (2, 3, 4, 5)]
        assert verdicts == ["embeddable"] * 3 + ["not_embeddable"]

    def test_binomial_sixty_four_is_decided_fast(self):
        # 65 atoms: 2^65 subsets could never be enumerated, and the full-set
        # route takes milliseconds; the witness is the first failing 4-subset
        start = time.perf_counter()
        cls = classify(binom(64))
        assert cls.verdict == "not_embeddable"
        assert cls.witness == (0, 1, 2, 3)
        assert time.perf_counter() - start < 10

    def test_checked_subsets_helper(self):
        assert list(checked_subsets(4)) == [(0, 1, 2, 3)]


class TestCone:
    def test_uniform_sits_on_axis(self):
        m = realize(uniform_family(5))
        assert cone_axis_cos(m.weights) == 1.0
        assert cone_membership(m.weights)

    def test_binomial_five_outside(self):
        assert not cone_membership(binom(5).weights)

    def test_half_angle_values(self):
        for n in range(3, 8):
            assert cone_half_angle_cos(n) == pytest.approx(
                math.sqrt((n - 1) / (n + 1)))

    def test_agreement_with_reduced_criterion(self, rng):
        for _ in range(1000):
            size = rng.randint(4, 8)
            xs = float_tuple(rng, size)
            assert cone_membership(xs) == (reduced_criterion(xs) >= 0)

    def test_agreement_on_rational_tuples(self, rng):
        for _ in range(500):
            xs = rational_tuple(rng, rng.randint(4, 7))
            assert cone_membership(xs) == (reduced_criterion(xs) >= 0)

    def test_wider_aperture_constant_would_misclassify(self):
        # with cos(alpha) = sqrt((n-2)/n) the cone would swallow this tuple,
        # whose criterion is decisively negative: the aperture is pinned by
        # the form's spectrum, not by that wider constant
        xs = (1.0, 1.0, 1.0, 0.1)
        assert reduced_criterion(xs) < 0
        assert not cone_membership(xs)
        wider = math.sqrt((3 - 2) / 3)
        assert cone_axis_cos(xs) >= wider

    def test_needs_at_least_four_weights(self):
        with pytest.raises(ValueError):
            cone_membership((1.0, 1.0, 1.0))


class TestPowersetNeverFlat:
    def test_half_half_four_point_determinant(self):
        m = validate_measure(["1/2", "1/2"])
        d = powerset_metric(m, [[], [0], [1], [0, 1]])
        g = gram_matrix(d, range(4))
        assert det_numeric(g) == Fraction(-1, 4)

    def test_random_two_atom_measures(self, rng):
        for _ in range(100):
            t = Fraction(rng.randint(1, 999), 1000)
            m = validate_measure([t, 1 - t])
            d = powerset_metric(m, [[], [0], [1], [0, 1]])
            value = det_numeric(gram_matrix(d, range(4)))
            assert value == -4 * t ** 2 * (1 - t) ** 2
            assert value < 0

    def test_any_atom_count(self, rng):
        # bottom, a proper element, its complement, top: never realizable
        for _ in range(50):
            size = rng.randint(2, 6)
            m = validate_measure(rational_tuple(rng, size), normalize=True)
            a = tuple(range(rng.randint(1, size - 1)))
            pts = [(), a, complement(a, size), tuple(range(size))]
            d = powerset_metric(m, pts)
            s = sum(m.weights[i] for i in a)
            value = det_numeric(gram_matrix(d, range(4)))
            assert value == -4 * s ** 2 * (1 - s) ** 2
            assert value < 0


class TestReciprocalForm:
    def test_spectrum(self):
        from atomembed import reciprocal_form_matrix

        for n in range(3, 8):
            eig = np.linalg.eigvalsh(reciprocal_form_matrix(n))
            assert eig[0] == pytest.approx(-2.0, abs=1e-9)
            assert np.allclose(eig[1:], n - 1, atol=1e-9)

    def test_form_evaluates_minus_cone_criterion(self, rng):
        from atomembed import criterion_sign, reciprocal_form_matrix

        for n in (3, 5):
            z = np.array(float_tuple(rng, n + 1))
            quad = float(z @ reciprocal_form_matrix(n) @ z)
            value, _ = criterion_sign([float(v) for v in z])
            assert quad == pytest.approx(-value, rel=1e-12)
