import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atomembed import (
    NotFlatError,
    atom_metric,
    binomial_family,
    classify,
    dimension,
    embed,
    is_flat,
    realize,
    reduced_criterion,
    uniform_family,
    validate_measure,
    verify_isometry,
)
from atomembed.embedding import ISOMETRY_TOL, _place_atoms
from conftest import flat_floats, rational_measure, zero_criterion_weights


class TestEmbed:
    def test_two_points_on_a_line(self):
        m = validate_measure(["1/2", "1/2"])
        result = embed(m)
        assert result.dimension == 1
        assert result.coordinates.shape == (2, 1)
        gap = abs(result.coordinates[1, 0] - result.coordinates[0, 0])
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_uniform_quarter_is_regular_tetrahedron(self):
        m = realize(uniform_family(4))
        result = embed(m)
        assert result.dimension == 3
        pts = result.coordinates
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(
                    0.5, abs=1e-12)

    def test_uniform_up_to_eleven_atoms(self):
        for k in range(2, 11):
            m = realize(uniform_family(k + 1))
            result = embed(m)
            assert result.dimension == k
            assert result.max_residual <= 1e-8

    def test_float_mode_measure_embeds(self):
        result = embed(validate_measure([0.25, 0.25, 0.25, 0.25]))
        assert result.dimension == 3
        assert result.max_residual <= 1e-8

    def test_base_at_origin(self):
        result = embed(realize(uniform_family(5)))
        assert np.all(result.coordinates[0] == 0.0)
        assert result.base == 0

    def test_spectral_rank_matches_combinatorial_dimension(self, rng):
        for _ in range(60):
            m = rational_measure(rng, rng.randint(2, 6))
            try:
                result = embed(m)
            except NotFlatError:
                continue
            assert result.dimension == dimension(m)
            assert result.dimension <= m.size - 1

    def test_not_flat_rejected(self):
        m = realize(binomial_family(5, Fraction(1, 2)))
        with pytest.raises(NotFlatError, match="witness"):
            embed(m)

    def test_float_boundary_embeds_exactly(self):
        # flat only by the exact criterion (+4.7e-15): the float pivots end
        # in a negative one, so the doubles are placed again exactly
        t = 3.0 + 2.0 * math.sqrt(3.0)
        m = validate_measure([1.0, 1.0, 1.0, 1.0 / t])
        result = embed(m)
        assert result.dimension == classify(m).dimension == 3
        assert result.coordinates.shape == (4, 3)
        assert result.max_residual <= 1e-15

    def test_grey_zone_input_embeds_at_classify_dimension(self):
        # just inside the flat region the smallest Gram eigenvalue is about
        # 4e-9 of the largest; the rank still comes from the sweep
        s = (1.0 / (3.0 + 2.0 * math.sqrt(3.0))) * (1.0 + 1e-7)
        m = validate_measure([1.0, 1.0, 1.0, s])
        result = embed(m)
        assert result.dimension == classify(m).dimension == 3
        assert result.max_residual <= 1e-8

    @pytest.mark.parametrize("weights", [
        [1, 1, 1, "1250000/8080127"],
        [1, 1, 1, "10000/64641"],
        [1.0, 1.0, 1.0, (1.0 + 1e-8) / (3.0 + 2.0 * math.sqrt(3.0))],
    ])
    def test_near_boundary_embeds_at_classify_dimension(self, weights):
        # flat by a hair: the smallest Gram eigenvalue is about 1e-10 to 1e-8
        # of the largest, yet it carries a coordinate
        m = validate_measure(weights)
        result = embed(m)
        assert result.dimension == classify(m).dimension == 3
        assert result.coordinates.shape == (4, 3)
        assert result.max_residual <= 1e-8

    @pytest.mark.parametrize("weights, dim", [
        ([1, 1, "1/4", "1/12"], 2),
        ([1, 1, 1, "1/3", "1/6"], 3),
    ])
    def test_zero_criterion_drops_the_rank(self, weights, dim):
        # the full set has criterion exactly 0, so its Gram matrix is singular
        m = validate_measure(weights)
        assert reduced_criterion(m.weights) == 0
        result = embed(m)
        assert result.dimension == is_flat(m).dimension == dim
        assert result.max_residual <= 1e-8

    def test_random_flat_measures_embed_isometrically(self, rng):
        embedded = 0
        for _ in range(200):
            m = rational_measure(rng, rng.randint(2, 6))
            try:
                result = embed(m)
            except NotFlatError:
                continue
            embedded += 1
            assert result.max_residual <= 1e-8
        assert embedded > 30


rationals = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
near_uniform = st.builds(Fraction, st.integers(90, 110), st.just(100))
flat_candidates = st.one_of(
    st.lists(rationals, min_size=2, max_size=7),
    st.lists(near_uniform, min_size=2, max_size=7),
    st.builds(zero_criterion_weights, rationals, rationals, rationals),
)


@settings(max_examples=60, deadline=None)
@given(flat_candidates)
def test_embed_dimension_is_sweep_dimension(weights):
    m = validate_measure(weights)
    report = is_flat(m)
    assume(report.flat)
    result = embed(m)
    assert result.dimension == report.dimension
    assert result.coordinates.shape == (m.size, report.dimension)


@st.composite
def wide_ratio_weights(draw, scalar, max_exponent):
    """Near-uniform weights with one atom scaled by 10^e; the heavy atom keeps them flat."""
    weights = draw(st.lists(scalar, min_size=3, max_size=9))
    i = draw(st.integers(0, len(weights) - 1))
    weights[i] *= 10 ** draw(st.integers(0, max_exponent))
    return weights


def assert_placed(m, bound):
    """Columns, base and per-pair relative residual of embed(m), recomputed here."""
    report = is_flat(m)
    assert report.flat
    result = embed(m)
    assert result.coordinates.shape == (m.size, report.dimension)
    assert result.base == m.weights.index(min(m.weights))
    assert not result.coordinates[result.base].any()
    pts = result.coordinates
    worst = max(abs(math.dist(pts[i], pts[j]) - float(m.weights[i] + m.weights[j]))
                / float(m.weights[i] + m.weights[j])
                for i in range(m.size) for j in range(i + 1, m.size))
    assert worst <= bound
    assert result.max_residual <= bound
    return result


@settings(max_examples=80, deadline=None)
@given(wide_ratio_weights(near_uniform, 30))
def test_exact_placement_is_isometric_across_wide_ratios(weights):
    assert_placed(validate_measure(weights), 1e-12)


@settings(max_examples=80, deadline=None)
@given(wide_ratio_weights(st.floats(0.9, 1.1), 15))
def test_float_placement_is_isometric_across_wide_ratios(weights):
    assert_placed(validate_measure(weights), 1e-11)


@settings(max_examples=40, deadline=None)
@given(st.builds(zero_criterion_weights, rationals, rationals, rationals))
def test_zero_criterion_drops_exactly_one_column(weights):
    m = validate_measure(weights)
    assert reduced_criterion(m.weights) == 0
    assert assert_placed(m, 1e-12).dimension == m.size - 2


@settings(max_examples=60, deadline=None)
@given(flat_floats(60), st.integers(-1000, 1000))
def test_float_placement_is_isometric_at_every_binary_scale(weights, e):
    m = validate_measure([math.ldexp(x, e) for x in weights])
    result = embed(m)
    assert result.coordinates.shape == (m.size, is_flat(m).dimension)
    assert result.max_residual <= 1e-12


#: Two flat 5-atom measures whose first four atoms are flat by a hair
#: (criterion 1e-9 and 1e-12 of its scale): in index order the float pivot
#: of atom 2 was tiny, and the column of atom 4 below it missed the isometry
#: by 2.3e-7 and 1.6e-4.
NEAR_SINGULAR_PREFIX = [[1.0, 1.0, 1.0, (1.0 + eps) / (3.0 + 2.0 * math.sqrt(3.0)),
                         1.0 / (3.0 + math.sqrt(3.0))] for eps in (1e-9, 1e-12)]


@settings(max_examples=60, deadline=None)
@given(flat_floats(60))
@example(NEAR_SINGULAR_PREFIX[0])
def test_float_placement_near_the_boundary_is_isometric(weights):
    m = validate_measure(weights)
    result = embed(m)
    assert result.coordinates.shape == (m.size, is_flat(m).dimension)
    assert result.max_residual <= ISOMETRY_TOL


@settings(max_examples=100, deadline=None)
@given(flat_floats(60, gap=st.floats(3.0, 12.0).map(lambda e: 10.0 ** -e)))
@example(NEAR_SINGULAR_PREFIX[0])
@example(NEAR_SINGULAR_PREFIX[1])
def test_float_placement_lightest_first_holds_near_the_boundary(weights):
    # the float recurrence alone, before any exact re-placement.  Lightest
    # first the reciprocals descend, and the criterion of the first s atoms
    # is concave in s, so no leading block but the last nears singularity
    m = validate_measure(weights)
    dim = is_flat(m).dimension
    _, coords, residual = _place_atoms(m.weights, dim)
    assert coords.shape[1] != dim or residual <= 1e-12


def test_embed_does_not_call_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("embed called numpy.linalg.eigh")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    result = embed(realize(uniform_family(6)))
    assert result.dimension == 5
    assert result.max_residual <= 1e-12


class TestVerifyIsometry:
    def test_exact_two_point_embedding(self):
        m = validate_measure([1, 3])
        d = atom_metric(m)
        coords = np.array([[0.0], [4.0]])
        assert verify_isometry(coords, d) == 0.0

    def test_residual_after_embedding_uniform(self):
        m = realize(uniform_family(6))
        result = embed(m)
        assert verify_isometry(result.coordinates, atom_metric(m)) <= 1e-8

    def test_detects_corruption(self):
        m = realize(uniform_family(6))
        result = embed(m)
        corrupted = result.coordinates.copy()
        corrupted[2, 0] += 0.1
        assert verify_isometry(corrupted, atom_metric(m)) >= 0.05

    @pytest.mark.parametrize("n, dim", [(150, 150), (61, 7), (5, 2)])
    def test_row_blocks_give_the_whole_table_maximum(self, n, dim):
        # the whole k x k x dim difference table, as before the row blocks;
        # 150 points of dimension 150 take 4 blocks
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((n, dim))
        d = atom_metric(validate_measure([float(w) for w in rng.uniform(0.5, 1.5, n)]))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        target = d.as_array()
        gap = np.abs(dist - target)
        np.fill_diagonal(target, 1.0)
        assert verify_isometry(pts, d) == float(np.max(gap / target))

    def test_row_count_mismatch(self):
        m = validate_measure([1, 1, 1])
        with pytest.raises(ValueError, match="rows"):
            verify_isometry(np.zeros((2, 1)), atom_metric(m))
