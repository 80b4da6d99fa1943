"""Optimal transport of scalar and vector measures on finite spaces.

Submodules and the names below are imported on first access (PEP 562), so
a process loads only the modules it uses: ``vecot solve-ot`` never loads
`vector`, `chain`, `applications`, `generate` or `golden`.
"""

import importlib

_EXPORTS = {
    "applications": (
        "GameResult",
        "GridFunction",
        "MomentProblem",
        "MomentResult",
        "conjugate",
        "game_value",
        "game_value_restricted",
        "inf_convolution",
        "moment_feasible",
        "trig_moment",
    ),
    "chain": (
        "ChainProblem",
        "ChainResult",
        "chain_free_medium",
        "chain_ot",
        "reduced_cost",
        "weighted_reduced_cost",
    ),
    "lp": ("LpProblem", "LpSolution", "NumericalBreakdown", "solve", "solve_vertex"),
    "measures": (
        "FiniteSpace",
        "Kernel",
        "ScalarMeasure",
        "SpaceMismatch",
        "TransportPlan",
        "VectorMeasure",
        "disintegrate",
        "grid_space",
        "kernel_apply",
        "kernel_compose",
        "product",
        "pushforward",
        "variation",
    ),
    "scalar": (
        "FeasibilityResult",
        "GlueResult",
        "InfeasibleTransport",
        "OtResult",
        "glue_feasible",
        "local_constraint_feasible",
        "solve_capacity",
        "solve_capacity_min",
        "solve_invariant",
        "solve_multimarginal",
        "solve_ot",
        "solve_partial",
        "strassen_feasible",
    ),
    "serialize": (
        "ProblemFile",
        "SchemaError",
        "canonical_dumps",
        "load",
        "loads",
        "parse_problem",
        "save",
        "to_jsonable",
    ),
    "generate": ("gen",),
    "golden": ("run_suite",),
    "vector": (
        "DominanceCert",
        "MapExtraction",
        "MultiRangeOracle",
        "VectorOtProblem",
        "blackwell_check",
        "dominates",
        "dominates_n",
        "dual_refinement_study",
        "extract_map",
        "feasible_range",
        "martingale_polytope",
        "multi_range",
        "solve_vector_ot",
        "strong_dominates",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"cli", "network", "tolerances", *_EXPORTS})

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # bound once, as an eager import would
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
