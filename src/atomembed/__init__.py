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
    dimension,
    is_flat,
)
from .gram import (
    GramError,
    GramMatrix,
    criterion_scale,
    criterion_sign,
    det_closed_form,
    det_lemma_route,
    det_numeric,
    det_pivots,
    gram_matrix,
    reduced_criterion,
    sign_verdict,
    triple_product,
)
from .measure import (
    DistanceMatrix,
    Measure,
    MeasureError,
    atom_metric,
    load_measure,
    measure_from_json,
    measure_to_json,
    validate_measure,
)
from .scalars import EXACT, FLOAT, ModeConflictError, Scalar
