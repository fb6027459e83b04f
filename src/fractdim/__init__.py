"""Dimension theory of self-similar measures, numerically.

Symbolic structure functions and Legendre spectra, Markov and Gibbs
measures on full shifts, similarity systems with certified natural
projections, point-cloud dimension estimators, projection and separation
experiments, and a batch CLI that replays everything from seeded configs.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    EstimationError,
    FractdimError,
    PreconditionError,
    SchemaError,
    WordTooShortError,
)
from .symbolic import AdaptedMetric, as_word
from .measures import (
    BernoulliMeasure,
    GibbsMeasure,
    LocallyConstantPotential,
    MarkovMeasure,
    gibbs_from_potential,
    markov_approximation,
    relative_entropy,
)
from .multifractal import (
    SpectrumCurve,
    SpectrumProblem,
    T_derivative,
    alpha_range,
    legendre,
    optimal_measure,
    solve_T,
    solve_T_many,
    spectrum_curve,
)
from .ifs import (
    SimilarityIFS,
    TranslationFamily,
    lyapunov_exponent,
    natural_projection,
    sample_points,
    symbolic_dimension,
    transversality_exponent,
)
from .dimest import (
    PointCloud,
    RadiusSchedule,
    box_counting,
    coarse_spectrum,
    correlation_dimension,
    empirical_energy,
)
from .projections import (
    Subspace,
    ede_check,
    holder_inverse_check,
    marstrand_experiment,
    project_cloud,
    sample_subspace,
)
from .runtime import enumeration_budget, run_chunks, substream
