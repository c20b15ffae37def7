from __future__ import annotations

import dataclasses
import time
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustmax import (DcgConfig, ScenarioBounds, dcg,
                       brute_force_robust, certify_ratio_optimal,
                       generate_instance, maximize_single, ratio, rescale_cuts,
                       solve_ratio_robust, support)
from robustmax.core import TOL, build_cut, build_cuts
from robustmax.master import MasterState

from conftest import cut_is_valid, modular_fn, scenario_oracle
from reference_milp import reference_eta


class TestRescaleCuts:
    def test_scalar_division(self, facet_pair):
        f1, _ = facet_pair
        cut = build_cut(f1, {0, 1}, 1.0, 0)
        assert (cut.constant, cut.coefficients) == (2.0, (0.0, 0.0, 2.0, 3.0))
        (out,) = rescale_cuts([cut], 2.0, 0)
        assert out.constant == 1.0
        assert out.coefficients == (0.0, 0.0, 1.0, 1.5)
        assert out.generating_set == cut.generating_set
        assert out.scenario_index == cut.scenario_index

    def test_unit_scale_is_identity(self):
        fn = modular_fn((0.5, 2.0))
        cut = build_cut(fn, {1}, 1.0, 3)
        (out,) = rescale_cuts([cut], 1.0, 3)
        assert out == cut

    def test_nonpositive_scale_rejected(self):
        fn = modular_fn((1.0,))
        with pytest.raises(ValueError, match="alpha must be positive"):
            rescale_cuts([build_cut(fn, (), 1.0, 0)], 0.0, 0)

    def test_rescaled_worked_cut_valid_for_scaled_function(self, facet_pair):
        f1, _ = facet_pair
        cut = build_cut(f1, {0, 1}, 1.0, 0)
        (scaled,) = rescale_cuts([cut], 2.0, 0)
        assert cut_is_valid(scaled, f1, 2.0)


def assert_rescaled_cuts_equal_fresh_build_cuts(inst):
    """Each scenario's own cuts, rescaled as the pipeline rescales them,
    equal field by field the cuts a fresh oracle builds at the scale."""
    with pytest.MonkeyPatch.context() as patched:
        scenarios, _ = _record_chain(patched)
        solve_ratio_robust(inst.build_oracles(), inst.network.sensor_costs,
                           inst.network.budget)
    fresh = inst.build_oracles()
    checked = 0
    for i, (_, warm, bounds, report) in enumerate(scenarios):
        own = [cut for cut in report.pool if cut not in warm and cut.generating_set]
        g = len(own)
        got = rescale_cuts(own, bounds.lower, i)
        want = build_cuts([fresh[i]] * g, [cut.generating_set for cut in own],
                          [bounds.lower] * g, [i] * g)
        for cut, ref in zip(got, want, strict=True):
            assert (cut.constant, cut.coefficients, cut.scenario_index, cut.generating_set) == (
                ref.constant, ref.coefficients, ref.scenario_index, ref.generating_set)
            assert type(cut.constant) is float and type(cut.scenario_index) is int
            assert all(type(c) is float for c in cut.coefficients)
        checked += g
    assert checked


class TestRescaledCutsEqualBuiltOnes:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_ratio_seeds(self, seed):
        assert_rescaled_cuts_equal_fresh_build_cuts(
            generate_instance(seed=seed, **FAMILIES["ratio"]))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(8, 20), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_drawn_instance(self, n, m, seed):
        inst = generate_instance(n=n, edge_factor=1.5, m=m, j_count=max(1, n // 3),
                                 budget=2 * n, seed=seed)
        assume(not inst.budget_infeasible)
        assert_rescaled_cuts_equal_fresh_build_cuts(inst)


class TestMaximizeSingle:
    def test_figure_scenario_single_sensor(self, figure_network):
        net, sc = figure_network
        fn = scenario_oracle(net, sc)
        bounds, report = maximize_single(fn, net.sensor_costs, net.budget)
        assert bounds.solved_exactly
        assert bounds.lower == pytest.approx(1.5, abs=1e-9)
        assert bounds.upper == bounds.lower
        assert len(report.pool) >= 1
        assert report.status == "optimal"

    def test_modular_covers_all(self):
        fn = modular_fn((1, 2))
        bounds, _ = maximize_single(fn, (1, 1), 2)
        assert bounds.lower == bounds.upper == pytest.approx(3.0, abs=1e-12)

    def test_epsilon_is_not_exact(self, figure_network):
        net, sc = figure_network
        bounds, report = maximize_single(scenario_oracle(net, sc),
                                         net.sensor_costs, net.budget, DcgConfig(epsilon=0.5))
        assert report.status == "optimal"
        assert bounds.upper == bounds.lower + 0.5
        assert not bounds.solved_exactly

    def test_exhausted_budget_still_sandwiches(self):
        inst = generate_instance(n=10, edge_factor=1.4, m=1, j_count=3,
                                 budget=18, seed=12)
        fn = inst.build_oracles()[0]
        costs, b = inst.network.sensor_costs, inst.network.budget
        bounds, _ = maximize_single(fn, costs, b, DcgConfig(time_limit=0.0))
        assert not bounds.solved_exactly
        assert 0 <= bounds.lower <= bounds.upper + 1e-9
        exact, _ = brute_force_robust([fn], [1.0], costs, b)
        assert bounds.lower <= exact + 1e-9 <= bounds.upper + 2e-9


class TestCertify:
    # LB as solve_ratio_robust computes it: the final bound, or the placement's
    # worst value with scenario i scaled by its upper bound, whichever is less
    @staticmethod
    def lower_bound(bounds, values, upper_bound):
        return min(upper_bound, *(v / b.upper for v, b in zip(values, bounds)))

    def test_all_exact_certifies_via_relaxation_bound(self):
        bounds = [ScenarioBounds(3.0, 3.0, True), ScenarioBounds(3.0, 3.0, True)]
        assert certify_ratio_optimal(self.lower_bound(bounds, (3.0, 3.0), 1.0), 1.0)

    def test_generic_inexact_is_uncertified(self):
        bounds = [ScenarioBounds(2.0, 4.0, False), ScenarioBounds(2.0, 4.0, False)]
        assert not certify_ratio_optimal(self.lower_bound(bounds, (2.0, 1.0), 0.99), 0.99)

    def test_dominating_lower_bound_is_uncertified(self):
        # x scores (9.5, 5) and wins under the lower scales (10, 5) with 0.95
        # against y's (9, 9); scenario 0's lower bound dominates scenario 1's
        # upper bound, yet y wins when scenario 1's optimum is 9
        bounds = [ScenarioBounds(10.0, 10.0, True), ScenarioBounds(5.0, 10.0, False)]
        assert not certify_ratio_optimal(self.lower_bound(bounds, (9.5, 5.0), 0.95), 0.95)

    def test_gap_within_tol_certifies(self):
        assert certify_ratio_optimal(1.0 - TOL / 2, 1.0)
        assert not certify_ratio_optimal(1.0 - 2 * TOL, 1.0)


class TestSolveRatioRobust:
    def test_identical_scenarios_degenerate(self):
        inst = generate_instance(n=8, edge_factor=1.4, m=1, j_count=3,
                                 budget=16, seed=3)
        fn = inst.build_oracles()[0]
        costs, b = inst.network.sensor_costs, inst.network.budget
        fns = [fn, fn, fn]
        report = solve_ratio_robust(fns, costs, b)
        assert report.gap == 0.0
        assert report.upper_bound == pytest.approx(1.0, abs=1e-9)
        single_opt, _ = brute_force_robust([fn], [1.0], costs, b)
        assert fn.value(support(report.x)) == pytest.approx(single_opt, abs=1e-9)

    def test_exact_scales_match_brute_force(self):
        # stop_pt 2 puts strengthened cuts through rescaling and reuse
        for stop_pt, seed in product((0, 2), range(6)):
            inst = generate_instance(n=7 + seed % 3, edge_factor=1.4, m=3,
                                     j_count=3, budget=13, seed=seed)
            fns = inst.build_oracles()
            costs, b = inst.network.sensor_costs, inst.network.budget
            report = solve_ratio_robust(fns, costs, b, config=DcgConfig(stop_pt=stop_pt))
            assert all(s.solved_exactly for s in report.per_scenario)
            assert report.gap == pytest.approx(0.0, abs=1e-9)
            assert report.certified_exact
            alphas = [brute_force_robust([fn], [1.0], costs, b)[0] for fn in fns]
            ref, _ = brute_force_robust(fns, alphas, costs, b)
            assert report.upper_bound == pytest.approx(ref, abs=1e-9)
            assert report.lower_bound == pytest.approx(ref, abs=1e-9)

    def test_throttled_budget_keeps_sandwich(self):
        for seed in (2, 5, 9):
            inst = generate_instance(n=9, edge_factor=1.4, m=3, j_count=3,
                                     budget=15, seed=seed)
            fns = inst.build_oracles()
            costs, b = inst.network.sensor_costs, inst.network.budget
            report = solve_ratio_robust(fns, costs, b, per_scenario_budget=1e-9)
            assert report.lower_bound <= report.upper_bound + 1e-9
            alphas = [brute_force_robust([fn], [1.0], costs, b)[0] for fn in fns]
            ref, _ = brute_force_robust(fns, alphas, costs, b)
            assert report.lower_bound <= ref + 1e-9
            assert ref <= report.upper_bound + 1e-9

    def test_epsilon_keeps_sandwich_and_certificate_honest(self):
        # grid family seed 1: with epsilon 1 the scenario solves and the
        # final solve stop short, and LB = UB = 0.96296 used to be certified
        inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5, budget=15, seed=1)
        fns = inst.build_oracles()
        costs, b = inst.network.sensor_costs, inst.network.budget
        report = solve_ratio_robust(fns, costs, b, config=DcgConfig(epsilon=1.0))
        alphas = [brute_force_robust([fn], [1.0], costs, b)[0] for fn in fns]
        ref, _ = brute_force_robust(fns, alphas, costs, b)
        assert ref == pytest.approx(0.9591836734693877, abs=1e-12)
        assert report.lower_bound <= ref <= report.upper_bound
        assert not report.certified_exact
        assert not any(s.solved_exactly for s in report.per_scenario)

    def test_final_solve_epsilon_is_in_ratio_units(self):
        # grid family seed 1 at epsilon 1: the final solve's objective is a
        # ratio, so it accepts 1 / max(lower_i) of it as optimal, not 1
        inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5, budget=15, seed=1)
        report = solve_ratio_robust(inst.build_oracles(), inst.network.sensor_costs,
                                    inst.network.budget, config=DcgConfig(epsilon=1.0))
        tightest = max(s.lower for s in report.per_scenario)
        assert report.upper_bound - report.eta <= 1.0 / tightest + 1e-9
        # the ratio optimum, by enumeration in the test above
        assert report.lower_bound <= 0.9591836734693877 <= report.upper_bound

    @pytest.mark.parametrize("family, seed", [("ratio", 1), *(("grid", s) for s in range(5))])
    def test_every_pool_cut_rederives_with_build_cut(self, monkeypatch, family, seed):
        # every cut of every pool the pipeline builds, reused ones included,
        # is build_cut's at its scenario's scale in that solve, equal with ==
        params = {"ratio": dict(n=36, edge_factor=41 / 36, m=10, j_count=12, budget=30),
                  "grid": dict(n=12, edge_factor=2.0, m=5, j_count=5, budget=15)}
        inst = generate_instance(seed=seed, **params[family])
        calls = []
        solve_robust = ratio.solve_robust

        def recording(fns, alphas, *args, **kwargs):
            calls.append((fns, alphas, solve_robust(fns, alphas, *args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(ratio, "solve_robust", recording)
        fns = inst.build_oracles()
        solve_ratio_robust(fns, inst.network.sensor_costs, inst.network.budget)
        assert len(calls) == len(fns) + 1
        for call_fns, alphas, report in calls:
            for cut in report.pool:
                i = cut.scenario_index
                assert cut == build_cut(call_fns[i], cut.generating_set, alphas[i], i)

    def test_malformed_inputs_refused(self):
        fn = modular_fn((1, 2))
        with pytest.raises(ValueError, match="at least one scenario function is required"):
            solve_ratio_robust([], (1, 1), 2)
        with pytest.raises(ValueError, match="per_scenario_budget must be nonnegative"):
            solve_ratio_robust([fn], (1, 1), 2, per_scenario_budget=-1)

    def test_scales_are_recorded_lower_bounds(self):
        inst = generate_instance(n=8, edge_factor=1.3, m=2, j_count=2,
                                 budget=14, seed=7)
        fns = inst.build_oracles()
        report = solve_ratio_robust(fns, inst.network.sensor_costs,
                                    inst.network.budget)
        chosen = support(report.x)
        assert report.eta == min(fn.value(chosen) / s.lower
                                 for fn, s in zip(fns, report.per_scenario))
        assert all(0 < s.lower <= s.upper for s in report.per_scenario)

    def test_certified_exact_means_solution_is_optimal(self):
        # whenever the certificate fires, the returned placement must attain
        # the true ratio optimum under exactly computed scales
        certified = 0
        for seed in range(12):
            inst = generate_instance(n=8, edge_factor=1.5, m=3, j_count=3,
                                     budget=13, seed=40 + seed)
            fns = inst.build_oracles()
            costs, b = inst.network.sensor_costs, inst.network.budget
            for budget_s in (None, 1e-9):
                report = solve_ratio_robust(fns, costs, b,
                                            per_scenario_budget=budget_s)
                if not report.certified_exact:
                    continue
                certified += 1
                alphas = [brute_force_robust([fn], [1.0], costs, b)[0] for fn in fns]
                ref, _ = brute_force_robust(fns, alphas, costs, b)
                achieved = min(fn.value(support(report.x)) / a
                               for fn, a in zip(fns, alphas))
                assert achieved == pytest.approx(ref, abs=1e-9), seed
        assert certified >= 5

    def test_deterministic_reports(self):
        inst = generate_instance(n=8, edge_factor=1.4, m=3, j_count=2,
                                 budget=14, seed=31)
        fns1 = inst.build_oracles()
        fns2 = inst.build_oracles()
        costs, b = inst.network.sensor_costs, inst.network.budget
        r1 = solve_ratio_robust(fns1, costs, b)
        r2 = solve_ratio_robust(fns2, costs, b)
        d1 = dataclasses.asdict(r1)
        d2 = dataclasses.asdict(r2)
        d1.pop("wall_time"), d2.pop("wall_time")
        assert d1 == d2

    def test_counts_cover_every_solve(self, monkeypatch):
        # iterations and cuts_added sum the scenario solves and the final one
        inst = generate_instance(n=9, edge_factor=1.4, m=3, j_count=3,
                                 budget=15, seed=5)
        fns = inst.build_oracles()
        reports = []
        solve_robust = ratio.solve_robust

        def recording(*args, **kwargs):
            reports.append(solve_robust(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(ratio, "solve_robust", recording)
        report = solve_ratio_robust(fns, inst.network.sensor_costs, inst.network.budget)
        assert len(reports) == len(fns) + 1
        assert report.iterations == sum(r.iterations for r in reports)
        assert report.cuts_added == sum(r.cuts_added for r in reports)
        assert report.nodes == sum(r.nodes for r in reports)
        assert report.iterations > reports[-1].iterations

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_a_stopped_scenario_solve_makes_the_call_time_limited(self, monkeypatch, seed):
        # ratio family: with no time for the scenario solves, the final solve
        # closes its own tree, but the scales it used are not optima, so the
        # gap stays open and the call may not read "optimal"
        inst = generate_instance(n=36, edge_factor=41 / 36, m=10, j_count=12,
                                 budget=30, seed=seed)
        reports = []
        solve_robust = ratio.solve_robust

        def recording(*args, **kwargs):
            reports.append(solve_robust(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(ratio, "solve_robust", recording)
        report = solve_ratio_robust(inst.build_oracles(), inst.network.sensor_costs,
                                    inst.network.budget, per_scenario_budget=0.0)
        assert all(r.status == "time_limit" for r in reports[:-1])
        assert reports[-1].status == "optimal"
        assert report.status == "time_limit"
        assert report.gap > 0

    def test_final_solve_keeps_a_share(self, monkeypatch):
        # per-scenario budgets that would eat the whole limit are capped by
        # the equal share, so the final solve still starts with time left
        inst = generate_instance(n=8, edge_factor=1.4, m=3, j_count=2,
                                 budget=14, seed=31)
        fns = inst.build_oracles()
        limits = _record_limits(monkeypatch, 5.0)
        solve_ratio_robust(fns, inst.network.sensor_costs,
                           inst.network.budget, per_scenario_budget=10.0,
                           config=DcgConfig(time_limit=5.0))
        assert len(limits) == 4
        # scenario i of 3 shares what is left with 3 - i later solves
        assert all(limit <= 5.0 / (4 - i) for i, (limit, _) in enumerate(limits[:3]))
        assert limits[-1][0] > 0

    def test_every_solve_gets_a_limit_within_what_is_left(self, monkeypatch):
        inst = generate_instance(n=9, edge_factor=1.4, m=3, j_count=3,
                                 budget=15, seed=5)
        fns = inst.build_oracles()
        limits = _record_limits(monkeypatch, 3.0)
        solve_ratio_robust(fns, inst.network.sensor_costs, inst.network.budget,
                           config=DcgConfig(time_limit=3.0))
        assert len(limits) == 4
        # the wrapper reads the clock a little after the pipeline does
        assert all(limit is not None and 0 <= limit <= left + 1e-3
                   for limit, left in limits)
        assert limits[-1][0] > 0

    def test_time_limit_bounds_the_whole_call(self):
        # one scenario solve alone takes longer than the limit here
        inst = generate_instance(n=54, edge_factor=41 / 36, m=10, j_count=18,
                                 budget=45, seed=1)
        fns = inst.build_oracles()
        costs, b = inst.network.sensor_costs, inst.network.budget
        start = time.monotonic()
        report = solve_ratio_robust(fns, costs, b, config=DcgConfig(time_limit=1.0))
        assert time.monotonic() - start < 3.0
        assert report.lower_bound <= report.upper_bound
        assert sum(c for c, xj in zip(costs, report.x) if xj) <= b


FAMILIES = {"ratio": dict(n=36, edge_factor=41 / 36, m=10, j_count=12, budget=30),
            "grid": dict(n=12, edge_factor=2.0, m=5, j_count=5, budget=15)}


class TestScenarioChain:
    @pytest.mark.parametrize("family, seed", [("ratio", 1), *(("grid", s) for s in range(5))])
    def test_each_scenario_starts_from_the_earlier_pools(self, monkeypatch, family, seed):
        # scenario i is warm-started with its unit-scale cut at every distinct
        # nonempty generating set of pools 0..i-1, in first-seen order, and
        # the final solve reuses only the cuts each scenario generated itself
        # at nonempty generating sets
        inst = generate_instance(seed=seed, **FAMILIES[family])
        scenarios, solves = _record_chain(monkeypatch)
        fns = inst.build_oracles()
        solve_ratio_robust(fns, inst.network.sensor_costs, inst.network.budget)
        assert len(scenarios) == len(fns) and len(solves) == len(fns) + 1
        assert scenarios[0][1] == []
        seen, reused = [], []
        for i, (fn, warm, bounds, report) in enumerate(scenarios):
            assert [cut.generating_set for cut in warm] == seen
            for cut in warm:
                assert cut == build_cut(fn, cut.generating_set, 1.0, 0)
            own = [cut for cut in report.pool if cut not in warm and cut.generating_set]
            assert not {cut.generating_set for cut in own} & set(seen)
            reused += rescale_cuts(own, bounds.lower, i)
            seen += [g for g in dict.fromkeys(cut.generating_set for cut in report.pool)
                     if g and g not in seen]
        assert any(warm for _, warm, _, _ in scenarios)
        assert solves[-1][0] == reused

    @pytest.mark.parametrize("seed", [1, 2])
    def test_final_empty_set_cuts_come_from_its_warm_start(self, monkeypatch, seed):
        # solve_robust inserts every solve's empty-set cuts, so the final
        # solve's initial cuts hold none, and its warm add_cut call accepts
        # every cut it gets; the final solve does what it did when each
        # scenario's rescaled empty-set cut came in too, and add_cut refused it
        inst = generate_instance(seed=seed, **FAMILIES["ratio"])
        scenarios, solves = _record_chain(monkeypatch)
        warm_calls = []
        add_cut = MasterState.add_cut

        def recording_add_cut(state, *cuts):
            empty = not state.cut_pool
            accepted = add_cut(state, *cuts)
            if empty:
                warm_calls.append((len(cuts), accepted))
            return accepted

        monkeypatch.setattr(MasterState, "add_cut", recording_add_cut)
        fns = inst.build_oracles()
        args = (inst.network.sensor_costs, inst.network.budget)
        report = solve_ratio_robust(fns, *args)
        initial, final = solves[-1]
        assert initial and all(cut.generating_set for cut in initial)
        offered = len(fns) + len(initial)
        assert warm_calls[-1] == (offered, offered)
        if seed == 1:
            assert warm_calls[-1] == (32, 32)
        with_empty = []
        for i, (fn, warm, bounds, rep) in enumerate(scenarios):
            own = [cut for cut in rep.pool if cut not in warm]
            with_empty += rescale_cuts(own, bounds.lower, i)
        assert len(with_empty) == len(initial) + len(fns)
        scales = [b.lower for b in report.per_scenario]
        reference = dcg.solve_robust(fns, scales, *args, initial_cuts=with_empty)
        # there add_cut refuses each scenario's empty-set cut as an equal cut
        assert warm_calls[-1] == (offered + len(fns), offered)
        assert len(final.pool) == len(reference.pool)
        for cut, ref in zip(final.pool, reference.pool):
            assert (cut.constant, cut.coefficients, cut.scenario_index, cut.generating_set) == (
                ref.constant, ref.coefficients, ref.scenario_index, ref.generating_set)
        for name in ("eta", "x", "upper_bound", "status", "iterations", "cuts_added", "nodes",
                     "master_values"):
            assert getattr(final, name) == getattr(reference, name), name

    def test_pinned_node_counts(self, monkeypatch):
        # ratio seed 1: with the transfer the scenario trees take 2,650 nodes,
        # not the 4,918 of cold starts, and the final tree, which reuses only
        # each scenario's own cuts, 496, not 232
        inst = generate_instance(seed=1, **FAMILIES["ratio"])
        _, solves = _record_chain(monkeypatch)
        report = solve_ratio_robust(inst.build_oracles(), inst.network.sensor_costs,
                                    inst.network.budget)
        assert sum(r.nodes for _, r in solves[:-1]) == 2650
        assert solves[-1][1].nodes == 496
        assert report.nodes == 2650 + 496

    def test_warm_start_is_built_before_the_share_is_read(self, monkeypatch):
        # so the time limit pays for it: each scenario solve follows its cut
        # build and then the clock read that sets its share
        inst = generate_instance(n=9, edge_factor=1.4, m=3, j_count=3, budget=15, seed=5)
        events = []
        build_cuts, maximize_single = ratio.build_cuts, ratio.maximize_single
        monkeypatch.setattr(ratio, "build_cuts",
                            lambda *args: events.append("build") or build_cuts(*args))
        monkeypatch.setattr(ratio, "maximize_single",
                            lambda *args: events.append("solve") or maximize_single(*args))
        monkeypatch.setattr(ratio, "time", SimpleNamespace(
            monotonic=lambda: events.append("clock") or time.monotonic()))
        solve_ratio_robust(inst.build_oracles(), inst.network.sensor_costs,
                           inst.network.budget, config=DcgConfig(time_limit=5.0))
        starts = [k for k, event in enumerate(events) if event == "solve"]
        assert len(starts) == 3
        assert all(events[k - 2:k] == ["build", "clock"] for k in starts)


@st.composite
def ratio_milp_instances(draw):
    """Water instances of 16 to 30 nodes with 1 to 4 scenarios: past the
    sizes brute force enumerates."""
    n, m = draw(st.integers(16, 30)), draw(st.integers(1, 4))
    return generate_instance(n=n, edge_factor=draw(st.sampled_from((41 / 36, 1.5, 2.0))), m=m,
                             j_count=draw(st.integers(1, n // 3)),
                             budget=draw(st.integers(5, 40)),
                             seed=draw(st.integers(0, 2**32 - 1)))


class TestMatchesReferenceMilp:
    @settings(max_examples=10, deadline=None)
    @given(ratio_milp_instances(), st.booleans(), st.integers(0, 3))
    def test_bounds_are_the_milp_optima(self, inst, reduce, stop_pt):
        # Each scale is its one-scenario instance's MILP optimum, and the
        # ratio optimum is the MILP's at those scales
        # (tests/reference_milp.py, solved by HiGHS).
        pytest.importorskip("scipy")
        scales = [reference_eta(dataclasses.replace(inst, scenarios=(scenario,)), [1.0])
                  for scenario in inst.scenarios]
        assume(min(scales) > 0)  # else ratio scaling is undefined
        report = solve_ratio_robust(inst.build_oracles(), inst.network.sensor_costs,
                                    inst.network.budget,
                                    config=DcgConfig(reduce=reduce, stop_pt=stop_pt))
        for bounds, scale in zip(report.per_scenario, scales, strict=True):
            assert abs(bounds.lower - scale) <= TOL * scale
            assert abs(bounds.upper - scale) <= TOL * scale
        optimum = reference_eta(inst, scales)
        assert abs(report.lower_bound - optimum) <= TOL * abs(optimum)
        assert abs(report.upper_bound - optimum) <= TOL * abs(optimum)
        assert report.certified_exact


def _record_limits(monkeypatch, time_limit: float) -> list:
    """Wrap the solver the ratio pipeline calls; record, per call, its time
    limit and what is left of ``time_limit`` at that moment."""
    limits = []
    start = time.monotonic()
    solve_robust = ratio.solve_robust

    def recording(fns, alphas, costs, budget, config=None, **kwargs):
        left = time_limit - (time.monotonic() - start)
        limits.append((config.time_limit, left))
        return solve_robust(fns, alphas, costs, budget, config, **kwargs)

    monkeypatch.setattr(ratio, "solve_robust", recording)
    return limits


def _record_chain(monkeypatch) -> tuple:
    """Wrap the ratio pipeline's scenario solves and its solver; return the
    lists they fill: per scenario solve (fn, initial cuts, bounds, report),
    and per solver call, the final one last, (initial cuts, report)."""
    scenarios, solves = [], []
    maximize_single, solve_robust = ratio.maximize_single, ratio.solve_robust

    def recording_single(fn, costs, budget, config=None, initial_cuts=()):
        initial_cuts = list(initial_cuts)
        bounds, report = maximize_single(fn, costs, budget, config, initial_cuts)
        scenarios.append((fn, initial_cuts, bounds, report))
        return bounds, report

    def recording_solve(*args, initial_cuts=(), **kwargs):
        initial_cuts = list(initial_cuts)
        solves.append((initial_cuts, solve_robust(*args, initial_cuts=initial_cuts, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(ratio, "maximize_single", recording_single)
    monkeypatch.setattr(ratio, "solve_robust", recording_solve)
    return scenarios, solves
