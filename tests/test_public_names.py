"""The package's public surface, pinned so that a new export is a visible change."""

import types

import fractdim

PUBLIC_NAMES = [
    "AdaptedMetric",
    "AlphabetMismatchError",
    "BernoulliMeasure",
    "BudgetExceededError",
    "EstimationError",
    "FractdimError",
    "GibbsMeasure",
    "LocallyConstantPotential",
    "MarkovMeasure",
    "PointCloud",
    "PreconditionError",
    "RadiusSchedule",
    "SchemaError",
    "SimilarityIFS",
    "SpectrumCurve",
    "SpectrumProblem",
    "Subspace",
    "T_derivative",
    "TranslationFamily",
    "WordTooShortError",
    "alpha_range",
    "as_word",
    "box_counting",
    "coarse_spectrum",
    "correlation_dimension",
    "ede_check",
    "empirical_energy",
    "enumeration_budget",
    "gibbs_from_potential",
    "holder_inverse_check",
    "legendre",
    "lyapunov_exponent",
    "markov_approximation",
    "marstrand_experiment",
    "natural_projection",
    "optimal_measure",
    "project_cloud",
    "relative_dimension_bound",
    "relative_entropy",
    "run_chunks",
    "sample_points",
    "sample_subspace",
    "solve_T",
    "solve_T_many",
    "spectrum_curve",
    "substream",
    "symbolic_dimension",
    "transversality_exponent",
]


def test_public_names_are_pinned():
    # submodules are attributes only once imported, so they are left out
    names = sorted(
        name
        for name, value in vars(fractdim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
