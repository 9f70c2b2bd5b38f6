from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomembed import (
    FamilyError,
    MeasureError,
    binomial_family,
    classify,
    custom_family,
    family_grid,
    hypergeometric_family,
    is_flat,
    realize,
    uniform_family,
    validate_measure,
)
from oracle import family_by_products

HALF = Fraction(1, 2)


def brute_force_hypergeometric(population, successes, draws):
    """Enumeration oracle: count draws per overlap with the marked items."""
    marked = set(range(successes))
    counts = {}
    total = 0
    for draw in combinations(range(population), draws):
        overlap = len(marked.intersection(draw))
        counts[overlap] = counts.get(overlap, 0) + 1
        total += 1
    return [Fraction(counts.get(a, 0), total) for a in range(draws + 1)]


class TestRealize:
    def test_uniform(self):
        m = realize(uniform_family(4))
        assert m.weights == (Fraction(1, 4),) * 4
        assert m.normalized

    def test_uniform_too_small(self):
        with pytest.raises(FamilyError):
            realize(uniform_family(1))

    def test_binomial_five_half(self):
        m = realize(binomial_family(5, Fraction(1, 2)))
        assert m.weights == tuple(Fraction(c, 32) for c in (1, 5, 10, 10, 5, 1))
        assert m.mode == "exact"
        assert sum(m.weights) == 1

    def test_binomial_string_probability(self):
        m = realize(binomial_family(3, "1/4"))
        assert m.weights == (
            Fraction(27, 64), Fraction(27, 64), Fraction(9, 64), Fraction(1, 64))

    def test_binomial_float_probability_degrades_mode(self):
        m = realize(binomial_family(3, 0.25))
        assert m.mode == "float"

    def test_binomial_p_out_of_range(self):
        for p in (0, 1, Fraction(7, 5)):
            with pytest.raises(FamilyError, match="probability"):
                realize(binomial_family(4, p))

    def test_binomial_trials_capped(self):
        with pytest.raises(FamilyError, match="1..64"):
            realize(binomial_family(65, Fraction(1, 2)))
        with pytest.raises(FamilyError, match="1..64"):
            realize(binomial_family(0, Fraction(1, 2)))

    def test_binomial_weights_sum_to_one_exactly(self):
        for n, p in ((7, Fraction(2, 7)), (12, Fraction(5, 9))):
            assert sum(realize(binomial_family(n, p)).weights) == 1

    def test_binomial_symmetry(self):
        for n in (3, 4, 5):
            p = Fraction(2, 7)
            a = realize(binomial_family(n, p))
            b = realize(binomial_family(n, 1 - p))
            assert a.weights == tuple(reversed(b.weights))
            assert is_flat(a).flat == is_flat(b).flat

    def test_hypergeometric_enumeration_oracle(self):
        m = realize(hypergeometric_family(6, 3, 3))
        assert m.weights == (
            Fraction(1, 20), Fraction(9, 20), Fraction(9, 20), Fraction(1, 20))
        assert list(m.weights) == brute_force_hypergeometric(6, 3, 3)

    def test_hypergeometric_more_cases_vs_oracle(self):
        for pop, succ, draws in ((7, 4, 3), (8, 4, 4), (9, 5, 4)):
            m = realize(hypergeometric_family(pop, succ, draws))
            assert list(m.weights) == brute_force_hypergeometric(pop, succ, draws)
            assert sum(m.weights) == 1

    def test_hypergeometric_zero_probability_outcome_rejected(self):
        # drawing 3 from a population with only 2 marked items makes the
        # outcome "3 successes" impossible
        with pytest.raises(FamilyError, match="zero-probability"):
            realize(hypergeometric_family(6, 2, 3))

    def test_hypergeometric_parameter_ranges(self):
        with pytest.raises(FamilyError, match="successes"):
            realize(hypergeometric_family(6, 0, 3))
        with pytest.raises(FamilyError, match="draws"):
            realize(hypergeometric_family(6, 3, 6))

    def test_float_binomial_members_are_validated(self):
        m = realize(binomial_family(6, 0.3))
        assert m == family_by_products(binomial_family(6, 0.3)) == validate_measure(m.weights)
        # 1e-10^33 underflows to 0.0, which no measure may weigh
        with pytest.raises(MeasureError, match="non-positive weight at index 33: 0.0"):
            realize(binomial_family(64, 1e-10))

    @pytest.mark.parametrize("make", [
        lambda: binomial_family(5.7, HALF),
        lambda: binomial_family(True, HALF),
        lambda: uniform_family(4.9),
        lambda: uniform_family("4"),
        lambda: hypergeometric_family(10, Fraction(7, 2), 3),
        lambda: hypergeometric_family(10, 5, float("inf")),
    ])
    def test_non_integral_counts_are_refused(self, make):
        with pytest.raises(FamilyError, match="must be an integer"):
            make()

    def test_integral_counts_of_any_number_type(self):
        spec = hypergeometric_family(Fraction(10), 5.0, 3)
        counts = (spec.population, spec.successes, spec.draws)
        assert counts == (10, 5, 3) and all(type(v) is int for v in counts)

    def test_custom_accepts_unnormalized(self):
        m = realize(custom_family([1, 5, 10, 10, 5, 1]))
        assert not m.normalized
        assert classify(m).verdict == "not_embeddable"


@st.composite
def exact_members(draw):
    """Exact uniform, binomial (p = a/b) and hypergeometric family specs."""
    kind = draw(st.sampled_from(["uniform", "binomial", "hypergeometric"]))
    if kind == "uniform":
        return uniform_family(draw(st.integers(2, 80)))
    if kind == "binomial":
        b = draw(st.one_of(st.integers(2, 12), st.integers(2, 10**12)))
        return binomial_family(draw(st.integers(1, 64)), Fraction(draw(st.integers(1, b - 1)), b))
    pop = draw(st.integers(2, 40))
    succ = draw(st.integers(1, pop - 1))
    return hypergeometric_family(pop, succ, draw(st.integers(1, min(succ, pop - succ))))


@settings(max_examples=300, deadline=None)
@given(exact_members())
def test_exact_members_equal_the_fraction_products(spec):
    m = realize(spec)
    assert m == family_by_products(spec)
    assert m == validate_measure(m.weights)
    assert m.mode == "exact" and m.normalized
    assert all(type(w) is Fraction for w in m.weights)


class TestFamilyGrid:
    def test_binomial_probability_grid(self):
        grid = family_grid(binomial_family(5, Fraction(1, 2)), "success",
                           "1/10", "9/10", 9)
        assert len(grid) == 9
        values = [v for v, _ in grid]
        assert values[0] == Fraction(1, 10)
        assert values[4] == Fraction(1, 2)
        assert values[-1] == Fraction(9, 10)
        assert all(m.mode == "exact" for _, m in grid)

    def test_float_endpoints_give_float_grid(self):
        grid = family_grid(binomial_family(4, 0.5), "success", 0.1, 0.9, 9)
        assert len(grid) == 9
        assert all(m.mode == "float" for _, m in grid)

    def test_uniform_atom_grid(self):
        grid = family_grid(uniform_family(3), "atoms", 3, 11, 9)
        assert [v for v, _ in grid] == list(range(3, 12))
        assert [m.size for _, m in grid] == list(range(3, 12))

    def test_binomial_four_grid_embeddable_at_half(self):
        grid = family_grid(binomial_family(4, Fraction(1, 2)), "success",
                           "1/4", "3/4", 3)
        by_value = {v: m for v, m in grid}
        assert classify(by_value[Fraction(1, 2)]).verdict == "embeddable"

    def test_non_integer_grid_point_aborts_with_value(self):
        with pytest.raises(FamilyError, match="7/2"):
            family_grid(binomial_family(2, Fraction(1, 2)), "trials", 2, 5, 3)

    def test_invalid_grid_point_aborts_with_value(self):
        with pytest.raises(FamilyError, match="success=1"):
            family_grid(binomial_family(5, Fraction(1, 2)), "success",
                        "1/2", "1", 2)

    def test_unknown_parameter(self):
        with pytest.raises(FamilyError, match="parameter"):
            family_grid(uniform_family(4), "success", 1, 2, 2)

    def test_single_step_grid(self):
        grid = family_grid(uniform_family(4), "atoms", 5, 5, 1)
        assert len(grid) == 1
        with pytest.raises(FamilyError, match="equal endpoints"):
            family_grid(uniform_family(4), "atoms", 4, 5, 1)

    def test_custom_has_no_parameter(self):
        with pytest.raises(FamilyError, match="custom"):
            family_grid(custom_family([1, 1]), "atoms", 2, 3, 2)
