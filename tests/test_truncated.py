"""Runs stopped by their time limit above brute-force scale.

A counting clock stands in for ``time.monotonic`` in the modules that read
it, advancing a fixed 1e-4 s per read, so a limit stops a run at the same
point on any host.  Each run is stopped before its tree (limit 0: the first
pop), inside it and after it, and must still return a sandwich around the
known optimum, a placement that fits, and a status that says whether it
stopped.  The fixed runs take their optima from the benchmark's goldens
or, for the n=54 runs and the rsm3 runs that must come back uncertified,
from pinned values of the exact MILP of tests/reference_milp.py; the drawn
runs solve that MILP.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import robustmax as rm
from robustmax import dcg, master, ratio
from robustmax.core import TOL
from robustmax.dcg import support, values_at

from reference_milp import reference_eta

DESK = dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30)
RATIO = dict(n=36, edge_factor=41 / 36, m=10, j_count=12, budget=30)
# eta of solve_robust and LB = UB of solve_ratio_robust, as bench/golden.json holds them
DESK_OPTIMA = {1: 19.333333333333332, 2: 24.166666666666668, 3: 26.166666666666668}
RATIO_OPTIMUM = 0.9872881355932204
LARGE = dict(n=54, edge_factor=41 / 36, m=50, j_count=18, budget=45)
# eta of solve_robust, which the exact MILP of tests/reference_milp.py confirmed
LARGE_OPTIMA = {1: 48.444444444444436, 4: 35.94444444444444, 6: 44.833333333333336}
TICK = 1e-4  # fake seconds per clock read
SLACK = 1e-9


def install_counting_clock(monkeypatch) -> list:
    """Replace the clock of every module that reads it; return the read count."""
    reads = [0]

    def monotonic():
        reads[0] += 1
        return reads[0] * TICK

    for module in (master, dcg, ratio):
        monkeypatch.setattr(module, "time", SimpleNamespace(monotonic=monotonic))
    return reads


@pytest.fixture
def counting_clock(monkeypatch):
    return install_counting_clock(monkeypatch)


def fits(inst, x) -> bool:
    net = inst.network
    return sum(c for c, xj in zip(net.sensor_costs, x) if xj) <= net.budget


def check_robust_limits(inst, optimum: float, limits) -> list:
    """solve_robust on ``inst`` unstopped, which must reach ``optimum``, and
    then under each limit, which must still return a sandwich around it, a
    placement that fits and the status of a run that stopped exactly when
    it did less work; which limits stopped their run."""
    fns = inst.build_oracles()
    args = ([1.0] * len(fns), inst.network.sensor_costs, inst.network.budget)
    full = rm.solve_robust(fns, *args)
    assert full.status == "optimal" and full.eta == optimum
    stops = []
    for limit in limits:
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
    return stops


@pytest.mark.parametrize("seed", sorted(DESK_OPTIMA))
def test_desk_sandwich_holds_at_every_limit(counting_clock, seed):
    # a full desk solve reads the clock 170-303 times, 0.017-0.030 fake s
    inst = rm.generate_instance(seed=seed, **DESK)
    stops = check_robust_limits(inst, DESK_OPTIMA[seed], (0.0, 0.002, 0.01, 1.0))
    assert stops == [True, True, True, False]


@pytest.mark.parametrize("seed", sorted(LARGE_OPTIMA))
def test_large_sandwich_holds_at_every_limit(counting_clock, seed):
    # a limited run that ends unstopped reads the clock 2,016-5,040 times,
    # 0.20-0.50 fake s, so 0.1 stops inside the tree
    inst = rm.generate_instance(seed=seed, **LARGE)
    assert check_robust_limits(inst, LARGE_OPTIMA[seed], (0.0, 0.1, 2.0)) == [True, True, False]


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
            # the certificate vouches for the value, LB meets UB, and for the
            # placement, which attains the optimum under the exact scales
            assert lb >= (1 - TOL) * ub, limit
            values = values_at(fns, support(report.x))
            assert min(v / o for v, o in zip(values, optima)) == pytest.approx(
                RATIO_OPTIMUM, abs=SLACK), limit
    assert stops == [True, True, True, True, False]


# Drawn instances that, stopped at 0.9 of an unstopped run's span, return a
# placement below the ratio optimum with an open sandwich, while one
# scenario's lower bound dominates every other upper bound: a certificate
# from bounds alone would vouch for it.  The optima are the exact MILP's
# (tests/reference_milp.py), which the unstopped runs reach.
UNCERTIFIED = [
    (dict(n=33, m=2, j_count=7, budget=20, seed=3246154361), 1.0),
    (dict(n=35, m=4, j_count=9, budget=32, seed=1430804514), 0.9956709956709957),
    (dict(n=32, m=3, j_count=7, budget=25, seed=3034658173), 1.0),
]


@pytest.mark.parametrize("params, optimum", UNCERTIFIED)
def test_ratio_open_sandwich_is_uncertified(counting_clock, params, optimum):
    inst = rm.generate_instance(edge_factor=41 / 36, **params)
    fns = inst.build_oracles()
    args = (inst.network.sensor_costs, inst.network.budget)

    def run(limit):
        return rm.solve_ratio_robust(fns, *args, config=rm.DcgConfig(time_limit=limit))

    full, span = unstopped(counting_clock, run)
    assert full.status == "optimal" and all(b.solved_exactly for b in full.per_scenario)
    assert abs(full.lower_bound - optimum) <= SLACK and abs(full.upper_bound - optimum) <= SLACK
    scales = [b.lower for b in full.per_scenario]
    report = run(0.9 * span)
    lb, ub = report.lower_bound, report.upper_bound
    assert report.status == "time_limit"
    assert lb <= optimum + SLACK and optimum <= ub + SLACK
    assert fits(inst, report.x)
    score = min(v / s for v, s in zip(values_at(fns, support(report.x)), scales))
    assert score < optimum - 1e-3
    assert lb < (1 - TOL) * ub and not report.certified_exact


@st.composite
def truncated_instances(draw):
    """Water instances of 24 to 36 nodes with 2 to 4 scenarios, shaped like
    the desk family so that most trees take more than a few pops; the
    fraction of a full run's clock reads at which the inside limit falls."""
    n, m = draw(st.integers(24, 36)), draw(st.integers(2, 4))
    inst = rm.generate_instance(n=n, edge_factor=draw(st.sampled_from((41 / 36, 1.5))), m=m,
                                j_count=draw(st.integers(n // 6, n // 3)),
                                budget=draw(st.integers(n // 2, n)),
                                seed=draw(st.integers(0, 2**32 - 1)))
    return inst, draw(st.floats(0.05, 0.95))


def unstopped(reads: list, run) -> tuple:
    """``run(limit)`` under a limit that never stops it, and the fake
    seconds it read; a limited run reads the clock at every pop, so this
    run's span is the one the limits are drawn against."""
    before = reads[0]
    full = run(1e9)
    return full, (reads[0] - before) * TICK


class TestAgainstReferenceMilp:
    """Runs drawn above brute-force scale and stopped before, inside and
    after the tree still bracket the exact MILP's optimum."""

    @settings(max_examples=8, deadline=None)
    @given(truncated_instances())
    def test_rsm_sandwich_holds_at_every_limit(self, case):
        pytest.importorskip("scipy")
        inst, inside = case
        m = len(inst.scenarios)
        optimum = reference_eta(inst, [1.0] * m)
        fns = inst.build_oracles()
        args = ([1.0] * m, inst.network.sensor_costs, inst.network.budget)
        with pytest.MonkeyPatch.context() as mp:
            reads = install_counting_clock(mp)

            def run(limit):
                return rm.solve_robust(fns, *args, rm.DcgConfig(time_limit=limit))

            full, span = unstopped(reads, run)
            assert full.status == "optimal" and abs(full.eta - optimum) <= SLACK
            for limit in (0.0, inside * span, 2 * span):
                report = run(limit)
                stopped = ((report.nodes, report.master_values, report.upper_bound)
                           != (full.nodes, full.master_values, full.upper_bound))
                assert (report.status == "time_limit") == stopped, limit
                upper = report.upper_bound
                assert report.eta <= optimum + SLACK and optimum <= upper + SLACK, limit
                assert fits(inst, report.x)
                assert report.eta == min(values_at(fns, support(report.x)))
                assert report.gap == ((upper - report.eta) / upper if upper > 0 else 0.0)
            assert not stopped  # after the tree

    @settings(max_examples=8, deadline=None)
    @given(truncated_instances())
    def test_rsm3_sandwich_holds_at_every_limit(self, case):
        pytest.importorskip("scipy")
        inst, inside = case
        # each scale is its one-scenario instance's optimum, and the ratio
        # optimum is the MILP's at those scales
        scales = [reference_eta(dataclasses.replace(inst, scenarios=(scenario,)), [1.0])
                  for scenario in inst.scenarios]
        assume(min(scales) > 0)  # else ratio scaling is undefined
        optimum = reference_eta(inst, scales)
        fns = inst.build_oracles()
        args = (inst.network.sensor_costs, inst.network.budget)
        with pytest.MonkeyPatch.context() as mp:
            reads = install_counting_clock(mp)

            def run(limit):
                return rm.solve_ratio_robust(fns, *args, config=rm.DcgConfig(time_limit=limit))

            full, span = unstopped(reads, run)
            assert full.status == "optimal"
            assert abs(full.lower_bound - optimum) <= SLACK
            assert abs(full.upper_bound - optimum) <= SLACK
            # scenario i gets a share of what is left, at least span / (m + 1)
            # of the first limit, so the last one leaves every solve its time
            for limit in (0.0, inside * span, 2 * len(fns) * span):
                report = run(limit)
                stopped = ((report.nodes, report.per_scenario, report.upper_bound)
                           != (full.nodes, full.per_scenario, full.upper_bound))
                assert (report.status == "time_limit") == stopped, limit
                for bounds, scale in zip(report.per_scenario, scales, strict=True):
                    assert bounds.lower <= scale + SLACK and scale <= bounds.upper + SLACK, limit
                lb, ub = report.lower_bound, report.upper_bound
                assert lb <= optimum + SLACK and optimum <= ub + SLACK, limit
                assert fits(inst, report.x)
                assert report.gap == ((ub - lb) / ub if ub > 0 else 0.0)
                if report.certified_exact:
                    # certified: the value is the optimum, and x attains it
                    # under the exact scales
                    assert lb >= (1 - TOL) * ub, limit
                    values = values_at(fns, support(report.x))
                    assert abs(min(v / s for v, s in zip(values, scales)) - optimum) <= SLACK
            assert not stopped  # after the tree
