"""Runs stopped by their time limit above brute-force scale.

A counting clock stands in for ``time.monotonic`` in the modules that read
it, advancing a fixed 1e-4 s per read, so a limit stops a run at the same
point on any host.  Each run is stopped before its tree (limit 0: the first
pop), inside it and after it, and must still return a sandwich around the
known optimum, a placement that fits, and a status that says whether it
stopped.  The optima are the benchmark's goldens.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import robustmax as rm
from robustmax import dcg, master, ratio
from robustmax.dcg import support, values_at

DESK = dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30)
RATIO = dict(n=36, edge_factor=41 / 36, m=10, j_count=12, budget=30)
# eta of solve_robust and LB = UB of solve_ratio_robust, as bench/golden.json holds them
DESK_OPTIMA = {1: 19.333333333333332, 2: 24.166666666666668, 3: 26.166666666666668}
RATIO_OPTIMUM = 0.9872881355932204
TICK = 1e-4  # fake seconds per clock read
SLACK = 1e-9


@pytest.fixture
def counting_clock(monkeypatch):
    reads = [0]

    def monotonic():
        reads[0] += 1
        return reads[0] * TICK

    for module in (master, dcg, ratio):
        monkeypatch.setattr(module, "time", SimpleNamespace(monotonic=monotonic))
    return reads


def fits(inst, x) -> bool:
    net = inst.network
    return sum(c for c, xj in zip(net.sensor_costs, x) if xj) <= net.budget


@pytest.mark.parametrize("seed", sorted(DESK_OPTIMA))
def test_desk_sandwich_holds_at_every_limit(counting_clock, seed):
    # a full desk solve reads the clock 170-303 times, 0.017-0.030 fake s
    inst = rm.generate_instance(seed=seed, **DESK)
    fns = inst.build_oracles()
    args = ([1.0] * len(fns), inst.network.sensor_costs, inst.network.budget)
    full = rm.solve_robust(fns, *args)
    optimum = DESK_OPTIMA[seed]
    assert full.status == "optimal" and full.eta == optimum
    stops = []
    for limit in (0.0, 0.002, 0.01, 1.0):
        report = rm.solve_robust(fns, *args, rm.DcgConfig(time_limit=limit))
        # a run the limit does not stop does the unlimited run's work
        stopped = (report.nodes, report.master_values) != (full.nodes, full.master_values)
        stops.append(stopped)
        assert (report.status == "time_limit") == stopped, limit
        assert report.eta <= optimum + SLACK and optimum <= report.upper_bound + SLACK, limit
        assert fits(inst, report.x)
        assert report.eta == min(values_at(fns, support(report.x)))
        upper = report.upper_bound
        assert report.gap == ((upper - report.eta) / upper if upper > 0 else 0.0)
    assert stops == [True, True, True, False]


def test_ratio_sandwich_holds_at_every_limit(counting_clock):
    # a full run reads the clock 1,602 times, 0.16 fake s
    inst = rm.generate_instance(seed=1, **RATIO)
    fns = inst.build_oracles()
    args = (inst.network.sensor_costs, inst.network.budget)
    full = rm.solve_ratio_robust(fns, *args)
    assert full.status == "optimal" and full.lower_bound == full.upper_bound == RATIO_OPTIMUM
    # every scenario was solved exactly, so its scale is its optimum
    assert all(b.solved_exactly for b in full.per_scenario)
    optima = [b.lower for b in full.per_scenario]
    stops = []
    for limit in (0.0, 0.05, 0.14, 0.165, 1.0):
        report = rm.solve_ratio_robust(fns, *args, config=rm.DcgConfig(time_limit=limit))
        stopped = (report.nodes, report.per_scenario) != (full.nodes, full.per_scenario)
        stops.append(stopped)
        assert (report.status == "time_limit") == stopped, limit
        lb, ub = report.lower_bound, report.upper_bound
        assert lb <= RATIO_OPTIMUM + SLACK and RATIO_OPTIMUM <= ub + SLACK, limit
        assert fits(inst, report.x)
        assert report.gap == ((ub - lb) / ub if ub > 0 else 0.0)
        if report.certified_exact:
            # the certificate vouches for the placement, which attains the
            # optimum under the exact scales; LB and UB may still differ
            values = values_at(fns, support(report.x))
            assert min(v / o for v, o in zip(values, optima)) == pytest.approx(
                RATIO_OPTIMUM, abs=SLACK), limit
    assert stops == [True, True, True, True, False]
