"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import time
from itertools import product

import pytest

from robustmax import (DcgConfig, MasterState, SubmodularCut,
                       brute_force_robust, check_submodular,
                       empty_set_cuts, generate_instance, reduction_matrix,
                       solve_ratio_robust, solve_robust)
from robustmax.core import build_cut

from conftest import scenario_oracle
from facets import facet_check

COMBOS = tuple(product((False, True), (0, 2)))  # (reduce, stop_pt)


def _report(name: str, detail: str = ""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def exactness_grid():
    """Criteria 3-5 share one instance set and its solve grid."""
    start = time.monotonic()
    runs = []
    for seed in range(100):
        inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5,
                                 budget=15, seed=seed)
        fns = inst.build_oracles()
        costs, budget = inst.network.sensor_costs, inst.network.budget
        alphas = [1.0] * len(fns)
        reference, _ = brute_force_robust(fns, alphas, costs, budget)
        per_combo = {}
        for reduce, stop_pt in COMBOS:
            config = DcgConfig(reduce=reduce, stop_pt=stop_pt)
            per_combo[(reduce, stop_pt)] = solve_robust(fns, alphas, costs,
                                                        budget, config)
        runs.append((seed, reference, per_combo))
    return runs, time.monotonic() - start


def test_criterion_1_worked_example_fidelity(facet_pair, warmstart_triple):
    start = time.monotonic()
    f1, f2 = facet_pair
    cut = build_cut(f1, {0, 1}, 1.0, 0)
    assert cut.constant == 2.0
    assert cut.coefficients == (0.0, 0.0, 2.0, 3.0)
    diag = facet_check([f1, f2], [1.0, 1.0], {0, 1}, 0)
    assert diag.cond_i and diag.cond_ii

    gen = frozenset({0, 1})
    first = SubmodularCut(3.0, (0.0, 0.0, 2.0, 3.0), 0, gen)
    second = SubmodularCut(2.0, (0.0, 0.0, 3.0, 4.0), 1, gen)
    third = SubmodularCut(5.0, (0.0, 0.0, 3.0, 5.0), 2, gen)
    master = MasterState(4, (1, 1, 1, 1), 2)
    assert master.add_cut(first)
    assert master.add_cut(second)
    assert not master.add_cut(third)
    assert len(master.cut_pool) == 2

    cuts = empty_set_cuts(warmstart_triple, [1.0, 1.0, 1.0])
    assert [c.coefficients for c in cuts] == [
        (2.0, 2.0, 3.0), (1.0, 3.0, 4.0), (3.0, 3.0, 1.0)]
    assert all(c.constant == 0.0 for c in cuts)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("1 worked-example fidelity", f"({elapsed:.3f}s)")


def test_criterion_2_figure_fidelity(figure_network):
    start = time.monotonic()
    net, sc = figure_network
    fn = scenario_oracle(net, sc)
    assert fn.value({1, 2}) == 1.5
    saved = reduction_matrix(net, [sc])[0]
    assert max(saved[s, 0] for s in (1, 2)) == 1.0
    assert max(saved[s, 1] for s in (1, 2)) == 2.0
    assert saved[net.sources[0], 0] == 3.0  # a sensor on the source saves all it reaches
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report("2 figure fidelity", f"({elapsed:.3f}s)")


def test_criterion_3_exactness(exactness_grid):
    runs, elapsed = exactness_grid
    assert len(runs) >= 50
    for seed, reference, per_combo in runs:
        for combo, report in per_combo.items():
            assert report.status == "optimal", (seed, combo)
            assert abs(report.eta - reference) <= 1e-9, (seed, combo)
    assert elapsed <= 60.0
    _report("3 exactness vs brute force",
            f"({len(runs)} instances x 4 configs, {elapsed:.1f}s)")


def test_criterion_4_reduction_consistency(exactness_grid):
    runs, _ = exactness_grid
    for seed, _, per_combo in runs:
        baseline = per_combo[(False, 0)].eta
        for combo, report in per_combo.items():
            assert abs(report.eta - baseline) <= 1e-9, (seed, combo)
    _report("4 reduce/stop-pt consistency")


def test_criterion_5_cut_economy_trend(exactness_grid):
    runs, _ = exactness_grid

    def mean_cuts(select):
        counts = [rep.cuts_added for _, _, per_combo in runs
                  for combo, rep in per_combo.items() if select(combo)]
        return sum(counts) / len(counts)

    reduce_on = mean_cuts(lambda c: c[0])
    reduce_off = mean_cuts(lambda c: not c[0])
    strengthened = mean_cuts(lambda c: c[1] == 2)
    plain = mean_cuts(lambda c: c[1] == 0)
    assert reduce_on <= reduce_off
    assert strengthened <= plain
    _report("5 cut-economy trend",
            f"(reduce {reduce_on:.2f}<={reduce_off:.2f}, "
            f"stop-pt {strengthened:.2f}<={plain:.2f})")


def test_criterion_6_ratio_sandwich():
    start = time.monotonic()
    for seed in range(20):
        inst = generate_instance(n=8 + seed % 3, edge_factor=1.6, m=3,
                                 j_count=3, budget=14, seed=seed)
        fns = inst.build_oracles()
        costs, budget = inst.network.sensor_costs, inst.network.budget
        report = solve_ratio_robust(fns, costs, budget)
        assert all(s.solved_exactly for s in report.per_scenario), seed
        assert report.gap == 0.0, seed
        alphas = [brute_force_robust([fn], [1.0], costs, budget)[0] for fn in fns]
        reference, _ = brute_force_robust(fns, alphas, costs, budget)
        assert abs(report.upper_bound - reference) <= 1e-9, seed
        assert abs(report.lower_bound - reference) <= 1e-9, seed

        throttled = solve_ratio_robust(fns, costs, budget, per_scenario_budget=1e-9)
        assert throttled.lower_bound <= throttled.upper_bound + 1e-9, seed
        assert throttled.lower_bound <= reference + 1e-9, seed
        assert reference <= throttled.upper_bound + 1e-9, seed
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    _report("6 ratio sandwich", f"(20 instances, {elapsed:.1f}s)")


def test_criterion_7_oracle_lawfulness():
    start = time.monotonic()
    exhaustive = 0
    for seed in range(3):
        inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5,
                                 budget=15, seed=seed)
        for fn in inst.build_oracles():
            assert check_submodular(fn, exhaustive_limit=12), seed
            exhaustive += 1
    big = generate_instance(n=36, edge_factor=41 / 36, m=50, j_count=12,
                            budget=30, seed=2)
    sampled = 0
    for fn in big.build_oracles():
        assert check_submodular(fn, exhaustive_limit=12, samples=200, seed=7)
        sampled += 200
    assert sampled >= 10_000
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    _report("7 oracle lawfulness",
            f"({exhaustive} exhaustive + {sampled} sampled triples, {elapsed:.1f}s)")


def test_criterion_8_desk_scale_solve():
    start = time.monotonic()
    inst = generate_instance(n=36, edge_factor=41 / 36, m=50, j_count=12,
                             budget=30, seed=1)
    assert len(inst.network.edges) == 41
    fns = inst.build_oracles()
    config = DcgConfig(reduce=True, stop_pt=2, time_limit=300.0)
    report = solve_robust(fns, [1.0] * 50, inst.network.sensor_costs,
                          inst.network.budget, config)
    elapsed = time.monotonic() - start
    assert report.status == "optimal"
    assert report.gap == 0.0
    assert elapsed <= 300.0
    _report("8 desk-scale solve",
            f"(eta={report.eta:.4f}, {report.iterations} iterations, "
            f"{report.cuts_added} cuts, {elapsed:.1f}s)")
