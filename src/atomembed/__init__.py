"""Euclidean embeddability of the atom space of a finite measured Boolean
algebra.

Given strictly positive weights on the atoms, the induced Kolmogorov metric
puts distinct atoms at distance x_i + x_j.  This package decides whether
that finite metric space embeds isometrically in some R^N, constructs the
embedding when it exists, and maps the embeddable region of the probability
simplex for parametric families of measures.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .embedding import (
    EmbeddingConsistencyError,
    EmbeddingResult,
    NotFlatError,
    embed,
    verify_isometry,
)
from .explorer import (
    BisectionResult,
    NoCrossingError,
    SampleRow,
    SampleSummary,
    SweepRow,
    bisect_boundary,
    mixture,
    sample_simplex,
    sweep,
)
from .families import (
    FamilyError,
    FamilySpec,
    binomial_family,
    custom_family,
    family_grid,
    hypergeometric_family,
    realize,
    uniform_family,
)
from .flatness import (
    Classification,
    FlatnessReport,
    checked_subsets,
    classify,
    criterion_table,
    cone_axis_cos,
    cone_half_angle_cos,
    cone_membership,
    dimension,
    is_flat,
    reciprocal_form_matrix,
)
from .gram import (
    AppendixDecomposition,
    GramError,
    GramMatrix,
    adjugate,
    appendix_decomposition,
    atom_gram_matrix,
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
)
from .measure import (
    DegenerateWeightWarning,
    DistanceMatrix,
    Measure,
    MeasureError,
    atom_distance,
    atom_metric,
    atom_subset,
    complement,
    distance_matrix,
    load_measure,
    measure_from_json,
    measure_to_json,
    powerset_distance,
    powerset_metric,
    validate_measure,
)
from .scalars import EXACT, FLOAT, ModeConflictError, Scalar
