"""Exact worst-case (scaled) submodular maximization under a knapsack.

The library maximizes the minimum of several scaled monotone submodular
objectives by delayed generation of linearized hypograph cuts over an
in-repo branch-and-cut master, with a time-budgeted pipeline for the
variant scaled by each scenario's own optimum.  The bundled application is
outbreak-detection sensor placement on water networks.
"""

from .core import SetFunction, SubmodularCut, check_submodular, empty_set_cuts
from .dcg import DcgConfig, SolveReport, brute_force_robust, solve_robust, support
from .master import MasterResult, MasterState
from .ratio import (RatioReport, ScenarioBounds, certify_ratio_optimal,
                    maximize_single, rescale_cuts, solve_ratio_robust)
from .water import (Instance, Network, ParseError, Scenario, generate_instance,
                    parse_instance, reduction_matrix, serialize_instance)

__all__ = [
    "SetFunction", "SubmodularCut", "empty_set_cuts", "check_submodular",
    "MasterState", "MasterResult",
    "DcgConfig", "SolveReport",
    "solve_robust", "brute_force_robust", "support",
    "ScenarioBounds", "RatioReport", "maximize_single", "rescale_cuts",
    "solve_ratio_robust", "certify_ratio_optimal",
    "Network", "Scenario", "Instance", "ParseError",
    "reduction_matrix",
    "parse_instance", "serialize_instance", "generate_instance",
]

__version__ = "0.1.0"
