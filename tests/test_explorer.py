from fractions import Fraction

import pytest

from atomembed import (
    NoCrossingError,
    bisect_boundary,
    binomial_family,
    family_grid,
    mixture,
    realize,
    reduced_criterion,
    sample_simplex,
    sweep,
    uniform_family,
    validate_measure,
)

HALF = Fraction(1, 2)


def binomial_trials_grid():
    return family_grid(binomial_family(2, HALF), "trials", 2, 5, 4)


class TestSweep:
    def test_binomial_trials_verdicts(self):
        rows = sweep(binomial_trials_grid())
        assert [r.verdict for r in rows] == ["E", "E", "E", "N"]

    def test_uniform_all_embeddable(self):
        grid = family_grid(uniform_family(3), "atoms", 3, 9, 7)
        rows = sweep(grid)
        assert all(r.verdict == "E" for r in rows)

    def test_binomial_five_probability_sweep_fails_at_half(self):
        grid = family_grid(binomial_family(5, HALF), "success", "1/10", "9/10", 9)
        rows = sweep(grid)
        at_half = [r for r in rows if r.parameter == HALF]
        assert len(at_half) == 1
        assert at_half[0].verdict == "N"

    def test_worst_value_sign_consistent_with_verdict(self):
        for row in sweep(binomial_trials_grid()):
            if row.worst_value is None:
                assert row.verdict == "E"
            elif row.verdict == "N":
                assert row.worst_value < 0
            elif row.verdict == "E":
                assert row.worst_value >= 0

    def test_worst_value_matches_direct_recomputation(self):
        grid = family_grid(binomial_family(5, HALF), "success", "1/5", "4/5", 7)
        rows = sweep(grid)
        for (_, measure), row in zip(grid, rows):
            if row.witness is not None:
                value = reduced_criterion(measure.subset_weights(row.witness))
                assert value == row.worst_value

    def test_row_order_matches_grid_order(self):
        grid = binomial_trials_grid()
        rows = sweep(grid)
        assert [r.parameter for r in rows] == [v for v, _ in grid]

    def test_small_measures_have_no_checked_subsets(self):
        grid = family_grid(uniform_family(2), "atoms", 2, 3, 2)
        rows = sweep(grid)
        assert all(r.verdict == "E" and r.worst_value is None for r in rows)


class TestMixture:
    def test_endpoints(self):
        m0 = realize(uniform_family(6))
        m1 = realize(binomial_family(5, HALF))
        assert mixture(m0, m1, Fraction(0)).weights == m0.weights
        assert mixture(m0, m1, Fraction(1)).weights == m1.weights

    def test_midpoint_stays_exact(self):
        m0 = realize(uniform_family(6))
        m1 = realize(binomial_family(5, HALF))
        mid = mixture(m0, m1, HALF)
        assert mid.mode == "exact"
        assert sum(mid.weights) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="atoms"):
            mixture(realize(uniform_family(4)), realize(uniform_family(5)), HALF)


class TestBisection:
    def make_path(self):
        m0 = realize(uniform_family(6))
        m1 = realize(binomial_family(5, HALF))
        return lambda t: mixture(m0, m1, t)

    def test_uniform_to_binomial_crossing(self):
        result = bisect_boundary(self.make_path(), Fraction(0), Fraction(1),
                                 tol=1e-6)
        assert result.verdict_low == "E"
        assert result.verdict_high == "N"
        assert 0 < result.lower < result.upper < 1
        assert float(result.upper - result.lower) <= 1e-6
        # the flip of this mixture path sits near t = 0.8448
        assert abs(float(result.boundary) - 0.844821) < 1e-4

    def test_bisection_is_deterministic(self):
        a = bisect_boundary(self.make_path(), Fraction(0), Fraction(1), tol=1e-6)
        b = bisect_boundary(self.make_path(), Fraction(0), Fraction(1), tol=1e-6)
        assert a == b

    def test_exact_brackets_are_dyadic(self):
        result = bisect_boundary(self.make_path(), Fraction(0), Fraction(1),
                                 tol=1e-6)
        assert isinstance(result.lower, Fraction)
        assert result.lower.denominator & (result.lower.denominator - 1) == 0

    def test_no_crossing(self):
        m = realize(uniform_family(6))
        with pytest.raises(NoCrossingError):
            bisect_boundary(lambda t: m, Fraction(0), Fraction(1))

    def test_scan_refines_first_flip(self):
        result = bisect_boundary(self.make_path(), Fraction(0), Fraction(1),
                                 tol=1e-6, scan_steps=8)
        assert abs(float(result.boundary) - 0.844821) < 1e-4
        assert result.extra_brackets == ()

    def test_empty_interval(self):
        with pytest.raises(ValueError, match="empty"):
            bisect_boundary(self.make_path(), Fraction(1), Fraction(0))


class TestSampleSimplex:
    def test_count_zero_rejected(self):
        with pytest.raises(ValueError, match="count"):
            sample_simplex(5, 0)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="k >= 3"):
            sample_simplex(2, 10)

    def test_same_seed_reproduces_everything(self):
        s1, rows1 = sample_simplex(5, 300, seed=7, keep_rows=True)
        s2, rows2 = sample_simplex(5, 300, seed=7, keep_rows=True)
        assert s1 == s2
        assert rows1 == rows2

    def test_jobs_do_not_change_results(self):
        s1, rows1 = sample_simplex(5, 240, seed=3, keep_rows=True)
        s2, rows2 = sample_simplex(5, 240, seed=3, jobs=3, keep_rows=True)
        assert s1 == s2
        assert rows1 == rows2

    def test_different_seeds_differ(self):
        s1 = sample_simplex(4, 200, seed=1)
        s2 = sample_simplex(4, 200, seed=2)
        assert s1 != s2

    def test_counts_add_up(self):
        s = sample_simplex(5, 500, seed=11)
        assert s.embeddable + s.not_embeddable + s.indeterminate == s.total

    def test_both_classes_at_k5(self):
        s = sample_simplex(5, 2000, seed=0)
        assert s.embeddable > 0
        assert s.not_embeddable > 0

    def test_k3_fraction_interior_at_ten_thousand(self):
        s = sample_simplex(3, 10_000, seed=0)
        assert 0.0 < s.fraction < 1.0
        assert s.ci95_half_width < 0.02

    def test_weights_lie_on_the_simplex(self):
        _, rows = sample_simplex(4, 50, seed=5, keep_rows=True)
        for row in rows:
            assert all(w > 0 for w in row.weights)
            assert sum(row.weights) == pytest.approx(1.0, abs=1e-12)

    def test_row_worst_matches_reduced_criterion(self):
        _, rows = sample_simplex(4, 40, seed=9, keep_rows=True)
        for row in rows:
            m = validate_measure(row.weights)
            values = [
                reduced_criterion(m.subset_weights(s))
                for s in _all_subsets(m.size)
            ]
            assert row.worst_value == pytest.approx(min(values), rel=1e-12)


def _all_subsets(size):
    from atomembed import checked_subsets

    return list(checked_subsets(size))
