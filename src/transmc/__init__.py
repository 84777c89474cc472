"""Transfer learning for noisy low-rank matrix completion.

Two-stage pooled/debiased nuclear-norm estimation over a target dataset and
auxiliary source datasets, with cross-validated selection of informative
sources, a majorize-minimize proximal solver, and simulation/benchmark
harnesses.
"""

from transmc.estimators import (
    Estimate,
    MaskedDataset,
    PenaltyPolicy,
    debias_fit,
    fit_single,
    pooled_fit,
    trans_mc,
)
from transmc.selection import SelectionConfig, SelectionReport, s_trans_mc, select_sources
from transmc.simulation import ScenarioSpec, generate_scenario
from transmc.solver import SolveTrace, SolverConfig, lamm_solve

__version__ = "0.1.0"

__all__ = [
    "Estimate",
    "MaskedDataset",
    "PenaltyPolicy",
    "ScenarioSpec",
    "SelectionConfig",
    "SelectionReport",
    "SolveTrace",
    "SolverConfig",
    "debias_fit",
    "fit_single",
    "generate_scenario",
    "lamm_solve",
    "pooled_fit",
    "s_trans_mc",
    "select_sources",
    "trans_mc",
]
