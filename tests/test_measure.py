import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomembed import (
    MeasureError,
    ModeConflictError,
    atom_metric,
    measure_from_json,
    measure_to_json,
    validate_measure,
)
from conftest import float_measure, rational_measure, rational_tuple
from oracle import (
    atom_distance,
    atom_subset,
    complement,
    distance_matrix,
    powerset_distance,
    powerset_metric,
)


class TestValidateMeasure:
    def test_uniform_rescale(self):
        m = validate_measure([2, 2, 2, 2], normalize=True)
        assert m.weights == (Fraction(1, 4),) * 4
        assert m.mode == "exact"
        assert m.normalized

    def test_zero_weight_rejected(self):
        with pytest.raises(MeasureError, match="non-positive"):
            validate_measure([1, 0, 1])

    def test_negative_weight_rejected(self):
        with pytest.raises(MeasureError, match="non-positive"):
            validate_measure([0.3, -0.1, 0.8])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(MeasureError,
                           match=f"non-finite weight at index 1: {bad}"):
            validate_measure([0.3, bad, 0.8])

    def test_empty_rejected(self):
        with pytest.raises(MeasureError):
            validate_measure([])

    def test_single_atom_rejected(self):
        with pytest.raises(MeasureError, match="two"):
            validate_measure([1])

    def test_binomial_5_normalization(self):
        m = validate_measure([1, 5, 10, 10, 5, 1], normalize=True)
        assert m.weights == tuple(
            Fraction(c, 32) for c in (1, 5, 10, 10, 5, 1)
        )

    def test_float_mode_inferred(self):
        m = validate_measure([0.25, 0.75])
        assert m.mode == "float"
        assert m.normalized

    def test_tiny_float_is_kept(self):
        # float verdicts are exact at any scale, so a tiny weight is not flagged
        assert validate_measure([1e-15, 0.5]).weights == (1e-15, 0.5)

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(ModeConflictError):
            validate_measure([0.1, 0.9], mode="exact")

    def test_normalization_idempotent_and_ratio_preserving(self, rng):
        for _ in range(50):
            ws = rational_tuple(rng, rng.randint(2, 7))
            m1 = validate_measure(ws, normalize=True)
            m2 = validate_measure(m1.weights, normalize=True)
            assert m1.weights == m2.weights
            assert sum(m1.weights) == 1
            # ratios survive the rescale
            assert m1.weights[0] * ws[1] == m1.weights[1] * ws[0]


class TestAtomMetric:
    def test_quarter_weights_distance(self):
        m = validate_measure([Fraction(1, 4)] * 4)
        assert atom_distance(m, 0, 1) == Fraction(1, 2)

    def test_same_atom_distance_zero(self, rng):
        m = rational_measure(rng, 5)
        assert atom_distance(m, 3, 3) == 0

    def test_binomial_distance_matches_powerset_singletons(self):
        m = validate_measure([1, 5, 10, 10, 5, 1], normalize=True)
        assert atom_distance(m, 0, 2) == Fraction(11, 32)
        assert atom_distance(m, 0, 2) == powerset_distance(m, [0], [2])

    def test_index_out_of_range(self):
        m = validate_measure([1, 1])
        with pytest.raises(MeasureError):
            atom_distance(m, 0, 2)

    def test_two_atoms_half_half(self):
        d = atom_metric(validate_measure(["1/2", "1/2"]))
        assert d.entries == ((0, 1), (1, 0))

    def test_uniform_offdiagonal(self):
        d = atom_metric(validate_measure([Fraction(1, 4)] * 4))
        for i in range(4):
            for j in range(4):
                expected = 0 if i == j else Fraction(1, 2)
                assert d[i, j] == expected

    def test_metric_axioms_on_random_measures(self, rng):
        # distance_matrix() revalidates symmetry, positivity, triangles
        for _ in range(1000):
            size = rng.randint(2, 7)
            m = (rational_measure if rng.random() < 0.5 else float_measure)(rng, size)
            d = atom_metric(m)
            distance_matrix(d.entries, mode=d.mode)

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_metric_axioms_hypothesis(self, ws):
        d = atom_metric(validate_measure(ws))
        distance_matrix(d.entries, mode="float")


class TestDistanceMatrixValidation:
    def test_triangle_violation_caught(self):
        with pytest.raises(MeasureError, match="triangle"):
            distance_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_asymmetry_caught(self):
        with pytest.raises(MeasureError, match="asymmetric"):
            distance_matrix([[0, 1], [2, 0]])

    def test_nonzero_diagonal_caught(self):
        with pytest.raises(MeasureError, match="diagonal"):
            distance_matrix([[1, 1], [1, 0]])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_entry_named(self, bad):
        with pytest.raises(MeasureError,
                           match=rf"non-finite distance at \(1,0\): {bad}"):
            distance_matrix([[0.0, 1.0], [bad, 0.0]])


class TestPowersetDistance:
    def test_equal_subsets(self, rng):
        m = rational_measure(rng, 5)
        assert powerset_distance(m, [0, 2], [0, 2]) == 0

    def test_bottom_to_top_is_total_mass(self):
        m = validate_measure([3, 1, 4, 1, 5], normalize=True)
        assert powerset_distance(m, [], range(5)) == 1

    def test_atom_vs_complement_is_one(self):
        for t in (Fraction(1, 3), Fraction(9, 10)):
            m = validate_measure([t, 1 - t])
            assert powerset_distance(m, [0], [1]) == 1

    def test_complement_distance_one_for_normalized(self, rng):
        for _ in range(100):
            m = rational_measure(rng, rng.randint(2, 6), normalize=True)
            a = [0] if rng.random() < 0.5 else [0, 1][: rng.randint(1, 2)]
            a = atom_subset(a, m.size)
            assert powerset_distance(m, a, complement(a, m.size)) == 1

    def test_singletons_match_atom_distance(self, rng):
        for _ in range(200):
            m = rational_measure(rng, rng.randint(2, 7))
            i, j = rng.randrange(m.size), rng.randrange(m.size)
            assert powerset_distance(m, [i], [j]) == atom_distance(m, i, j)

    def test_powerset_metric_rejects_duplicates(self):
        m = validate_measure([1, 1])
        with pytest.raises(MeasureError, match="distinct"):
            powerset_metric(m, [[0], [0]])

    def test_subset_validation(self):
        m = validate_measure([1, 1, 1])
        with pytest.raises(MeasureError, match="duplicate"):
            atom_subset([0, 0, 1], 3)
        with pytest.raises(MeasureError, match="range"):
            atom_subset([0, 3], 3)


class TestJson:
    def test_round_trip_exact(self):
        m = validate_measure(["1/3", "1/3", "1/3"])
        doc = measure_to_json(m)
        assert doc == {"weights": ["1/3", "1/3", "1/3"], "normalized": True}
        again = measure_from_json(json.loads(json.dumps(doc)))
        assert again == m

    def test_rational_strings_trigger_exact_mode(self):
        m = measure_from_json({"weights": ["1/2", "1/2"]})
        assert m.mode == "exact"

    def test_floats_stay_float(self):
        m = measure_from_json({"weights": [0.5, 0.5]})
        assert m.mode == "float"

    def test_inconsistent_normalized_flag_rejected(self):
        with pytest.raises(MeasureError, match="normalized"):
            measure_from_json({"weights": [1, 1], "normalized": True})

    def test_unparseable_weight_rejected(self):
        with pytest.raises(ValueError):
            measure_from_json({"weights": ["one half", "1/2"]})

    @pytest.mark.parametrize("doc, field", [
        ({"weights": "1234"}, "weights"),
        ({"weights": 5}, "weights"),
        ({"weights": True}, "weights"),
        ({"weights": {"a": 1}}, "weights"),
        ({"weights": None}, "weights"),
        ({"weights": [1, 1], "normalized": "false"}, "normalized"),
        ({"weights": ["1/2", "1/2"], "normalized": 1}, "normalized"),
        ({"weights": [1, 1], "normalized": []}, "normalized"),
    ], ids=["string", "number", "bool", "object", "null", "normalized_string",
            "normalized_number", "normalized_array"])
    def test_malformed_field_rejected(self, doc, field):
        # "1234" used to be read as four weights, "false" as true
        with pytest.raises(MeasureError, match=f'"{field}"'):
            measure_from_json(doc)

    @pytest.mark.parametrize("stated", [False, None])
    def test_normalized_false_or_null_accepted(self, stated):
        m = measure_from_json({"weights": [1, 1], "normalized": stated})
        assert m.weights == (1, 1) and not m.normalized
