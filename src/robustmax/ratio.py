"""Worst-case performance-ratio variant with time-limited scenario solves.

Scaling each scenario by its own maximization optimum turns the robust
objective into a worst-case performance ratio, but computing those optima means
solving one NP-hard problem per scenario.  This pipeline runs each
single-scenario maximization under a share of the call's time limit, records
the incumbent value (lower bound) and master bound (upper bound), rescales
its cuts to its scenario's scale to reuse them, and finishes with one robust
solve where the scales are the recorded lower bounds.  ``config.epsilon`` is in
oracle units in every solve: the final solve, whose objective is a ratio, gets
it divided by the largest recorded lower bound.  The sandwich

    LB = min_i f_i(x)/ub_i  <=  true ratio optimum  <=  UB = final bound

holds whether or not the scenario solves finished, so a finite limit still
yields a feasible placement with a certified optimality gap.  The run is
certified exact when the sandwich closes, LB >= (1 - TOL) UB: then both
the value and the placement are optimal.

The call owns one time limit, ``config.time_limit``.  With ``left`` the part
of it not yet spent, scenario i of m gets ``left / (m - i + 1)``, capped by
``per_scenario_budget``, and the final solve gets all that is left: one
share is always kept for it.

The scenario solves form a chain.  A hypograph cut is valid at any generating
set (Nemhauser, Wolsey & Fisher 1978), and the scenarios share one network, so
scenario i starts from its own cuts at every distinct nonempty generating set
in the pools of scenarios 0..i-1, in first-seen order, built in one
``build_cuts`` call (Padberg & Rinaldi 1991, cut pools).  The final solve
reuses only each scenario's own cuts at nonempty generating sets, those that
did not come in warm (the transferred ones would reach it once per later
scenario); its empty-set cuts come from its own ``solve_robust`` warm start.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from operator import index
from typing import Iterable, Sequence

import numpy as np

from .core import TOL, SetFunction, SubmodularCut, build_cuts
from .dcg import DcgConfig, ground_size, solve_robust, support, values_at
from .master import STATUS_TIME_LIMIT


@dataclass(frozen=True)
class ScenarioBounds:
    """Sandwich for one scenario's maximization optimum: lower <= opt <= upper,
    the solve's eta and upper bound; ``solved_exactly`` when the two meet."""

    lower: float
    upper: float
    solved_exactly: bool


@dataclass(frozen=True)
class RatioReport:
    """Ratio-robust outcome; upper/lower bracket the true ratio optimum.

    ``eta`` is the final solve's worst value with scenario i scaled by
    ``per_scenario[i].lower``; that solve takes its empty-set cuts from its
    own warm start and each scenario's own cuts at nonempty sets, rescaled.
    ``certified_exact`` reads off the sandwich: it holds when LB meets UB
    within TOL, so the gap is 0 within TOL, and then vouches for both the
    value and the placement.
    ``iterations``, ``cuts_added``, ``nodes``, ``wall_time`` and ``status``
    cover the whole call: the scenario solves and the final solve.
    ``iterations`` sums each solve's own count, one plus its separations
    that added cuts, ``cuts_added`` sums each solve's pool growth, so the
    cuts transferred to a scenario solve are warm start and not counted,
    ``nodes`` sums each solve's tree nodes, and ``status`` is "time_limit"
    when any of the solves stopped at its limit.
    """

    eta: float
    x: tuple
    upper_bound: float
    lower_bound: float
    gap: float
    iterations: int
    cuts_added: int
    nodes: int
    wall_time: float
    status: str
    per_scenario: tuple
    certified_exact: bool


def maximize_single(fn: SetFunction, costs: Sequence[float], budget: float,
                    config: DcgConfig | None = None,
                    initial_cuts: Iterable[SubmodularCut] = ()):
    """Single-scenario maximization by cut generation with unit scale,
    warm-started with ``initial_cuts`` (unit scale, scenario index 0).

    Returns (bounds, report): the value sandwich and the underlying run
    report, whose ``pool`` holds the initial and generated cuts.  The run
    stops at ``config.time_limit``; running out of time is a normal outcome,
    never an error.
    """
    report = solve_robust([fn], [1.0], costs, budget, config, initial_cuts=initial_cuts)
    bounds = ScenarioBounds(lower=report.eta, upper=report.upper_bound,
                            solved_exactly=report.gap == 0.0)
    return bounds, report


def rescale_cuts(cuts: Sequence[SubmodularCut], alpha_bar: float, scenario_index: int) -> list:
    """Each unit-scale cut (one :func:`build_cuts` built at alpha 1.0) at
    scale ``alpha_bar``, filed under ``scenario_index``: its constant and
    coefficients divided by alpha_bar, reading no oracle.  Dividing by 1.0
    is exact, so a unit cut holds the very values build_cuts divides, and
    each rescaled cut equals build_cuts' cut at alpha_bar with ==."""
    if not 0 < alpha_bar < math.inf:  # a NaN fails this test too
        raise ValueError("alpha must be positive and finite")
    alpha, i = float(alpha_bar), index(scenario_index)
    return [SubmodularCut(constant=cut.constant / alpha,
                          coefficients=tuple((np.array(cut.coefficients) / alpha).tolist()),
                          scenario_index=i, generating_set=cut.generating_set)
            for cut in cuts]


def certify_ratio_optimal(lower_bound: float, upper_bound: float) -> bool:
    """Whether the ratio sandwich closes, LB >= (1 - TOL) UB.

    LB is attained by the returned placement and UB bounds every placement,
    so a closed sandwich vouches for both the value and the placement.
    Bounds alone certify nothing less: a placement that wins under the
    recorded lower scales can lose under the true ones.
    """
    return lower_bound >= (1 - TOL) * upper_bound


def solve_ratio_robust(fns: Sequence[SetFunction], costs: Sequence[float],
                       budget: float, per_scenario_budget: float | None = None,
                       config: DcgConfig | None = None) -> RatioReport:
    """Ratio-robust solve with cut reuse, within one time limit split as the
    module docstring says."""
    config = config or DcgConfig()
    m = len(fns)
    ground_size(fns)
    if per_scenario_budget is not None and not per_scenario_budget >= 0:
        raise ValueError("per_scenario_budget must be nonnegative")
    start = time.monotonic()

    def left():
        if config.time_limit is None:
            return None
        return max(0.0, config.time_limit - (time.monotonic() - start))

    per_scenario = []
    reused: list = []
    reports = []  # every solve of the call, the final one last
    # the nonempty generating sets of the pools so far, in first-seen order
    sets: dict = {}
    for i, fn in enumerate(fns):
        # built before the share is read, so the limit pays for it
        g = len(sets)
        warm = build_cuts([fn] * g, list(sets), [1.0] * g, [0] * g)
        limit = per_scenario_budget
        if config.time_limit is not None:
            # scenarios i..m-1 and the final solve share what is left
            share = left() / (m - i + 1)
            limit = share if limit is None else min(limit, share)
        bounds, rep = maximize_single(fn, costs, budget,
                                      replace(config, time_limit=limit), warm)
        reports.append(rep)
        if bounds.lower <= 0:
            raise ValueError(
                f"scenario {i} has a nonpositive incumbent value {bounds.lower!r}; "
                "ratio scaling is undefined")
        per_scenario.append(bounds)
        own = [cut for cut in rep.pool if cut.generating_set and cut.generating_set not in sets]
        reused += rescale_cuts(own, bounds.lower, i)
        sets.update(dict.fromkeys(cut.generating_set for cut in own))

    scales = [b.lower for b in per_scenario]
    final = replace(config, time_limit=left(), epsilon=config.epsilon / max(scales))
    report = solve_robust(fns, scales, costs, budget, final, initial_cuts=reused)
    reports.append(report)
    stopped = any(r.status == STATUS_TIME_LIMIT for r in reports)

    ub = report.upper_bound
    values = values_at(fns, support(report.x))
    lb = min(ub, *(v / b.upper for v, b in zip(values, per_scenario)))
    gap = (ub - lb) / ub if ub > 0 else 0.0
    return RatioReport(eta=report.eta, x=report.x, upper_bound=ub,
                       lower_bound=lb, gap=gap,
                       iterations=sum(r.iterations for r in reports),
                       cuts_added=sum(r.cuts_added for r in reports),
                       nodes=sum(r.nodes for r in reports),
                       wall_time=time.monotonic() - start,
                       status=STATUS_TIME_LIMIT if stopped else report.status,
                       per_scenario=tuple(per_scenario),
                       certified_exact=certify_ratio_optimal(lb, ub))
