"""The package's public surface and the members of SimilarityIFS and
AdaptedMetric, pinned so that a new or removed name is a visible change."""

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


SIMILARITY_IFS_MEMBERS = [
    "ambient_dim",
    "center",
    "fixed_points",
    "gamma",
    "linear",
    "m",
    "map_points",
    "orthogonal",
    "radius",
    "ratios",
    "steps",
    "translations",
]


def test_similarity_ifs_members_are_pinned():
    # an instance, so that the fields set in __post_init__ are listed too
    ifs = fractdim.SimilarityIFS(ratios=[0.5, 0.5], translations=[0.0, 0.5])
    assert [name for name in dir(ifs) if not name.startswith("_")] == SIMILARITY_IFS_MEMBERS


ADAPTED_METRIC_MEMBERS = ["gamma", "ratios", "weight"]


def test_adapted_metric_members_are_pinned():
    # an instance, so that the attributes set in __init__ are listed too
    metric = fractdim.AdaptedMetric([0.5, 0.25])
    assert [name for name in dir(metric) if not name.startswith("_")] == ADAPTED_METRIC_MEMBERS
