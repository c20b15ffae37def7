from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import product
from random import Random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmax import (DcgConfig, SetFunction, brute_force_robust, empty_set_cuts,
                       generate_instance, solve_ratio_robust, solve_robust, support, water)

from robustmax import core, dcg
from robustmax.core import TOL, build_cut, objective_slack, values_in
from robustmax.dcg import (kept_locations, strengthen_generating_set,
                           strengthen_generating_sets, values_at)
from robustmax.master import MasterState

from conftest import (all_subsets, cut_is_valid, modular_fn, random_coverage, rhs,
                      scenario_oracle, table_fn, without_form)
from reference_milp import reference_eta


GRID_CONFIGS = tuple(DcgConfig(reduce=reduce, stop_pt=stop_pt)
                     for reduce, stop_pt in product((False, True), (0, 2)))  # verify's order


def report_fields(report) -> tuple:
    """Every field of a report but its wall time and gap."""
    return (report.eta, report.x, report.status, report.upper_bound, report.nodes,
            report.iterations, report.cuts_added, report.master_values, report.pool)


def scalar_brute_force(fns, alphas, costs, budget) -> tuple:
    """Reference for brute_force_robust: one subset at a time, in mask order,
    ties to the lexicographically smallest x."""
    n = fns[0].ground_size
    best_val = -math.inf
    best_x = None
    for mask in range(1 << n):
        x = tuple((mask >> j) & 1 for j in range(n))
        cost = sum(c for c, xj in zip(costs, x) if xj)
        if cost > budget:
            continue
        chosen = support(x)
        value = min(fn.value(chosen) / a for fn, a in zip(fns, alphas))
        if value > best_val or (value == best_val and x < best_x):
            best_val, best_x = value, x
    return best_val, best_x


def keyed_brute_force(fns, alphas, costs, budget) -> tuple:
    """Reference for brute_force_robust: the same enumeration, with every
    oracle read at the feasible bitmasks through its memo (``values``)."""
    n = fns[0].ground_size
    keys = [mask for mask in range(1 << n)
            if not sum(c for j, c in enumerate(costs) if mask >> j & 1) > budget]
    if not keys:
        return -math.inf, None
    worst = np.min([fn.values(keys) / a for fn, a in zip(fns, alphas)], axis=0)
    best = worst.max()
    return float(best), min(tuple(mask >> j & 1 for j in range(n))
                            for mask, value in zip(keys, worst.tolist()) if value == best)


def assert_memo_is_fresh(fn: SetFunction, fresh: SetFunction):
    """Every value fn memoizes equals a scalar read of a fresh oracle."""
    n = fn.ground_size
    for key, value in fn._cache.items():
        assert value == fresh.value([j for j in range(n) if key >> j & 1])


def scalar_strengthen_generating_set(fn: SetFunction, incumbent, stop_pt: int) -> frozenset:
    """Reference for strengthen_generating_set: every pair marginal read one
    at a time."""
    incumbent = frozenset(incumbent)
    if stop_pt == 0:
        return incumbent
    slack = TOL * fn.value(incumbent)
    covered: set = set()
    admitted: set = set()
    bar = sorted(incumbent)
    gains = fn.values(fn.marginal_keys(fn.key(incumbent))) - fn.value(incumbent)
    for j, gain in enumerate(gains.tolist()):
        if gain > slack:
            continue
        tmp = set(covered)
        counter = 0
        for k in bar:
            if fn.marginal(j, frozenset([k])) <= slack:
                counter += 1
                tmp.add(k)
            if counter == stop_pt:
                with_j = frozenset(admitted | {j})
                lhs = fn.value(tmp)
                rhs_ = fn.value(with_j) + sum(fn.marginal(l, with_j) for l in tmp)
                if abs(lhs - rhs_) <= slack:
                    admitted.add(j)
                    covered |= tmp
    return frozenset(admitted) | (incumbent - covered)


@st.composite
def knapsack_instances(draw):
    """Coverage or equal-weight modular scenarios (many tied optima) with
    fractional costs, and a budget that is random, the float cost of a
    subset, below every cost, or negative."""
    n = draw(st.integers(1, 8))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    m = rng.randint(1, 3)
    if draw(st.booleans()):
        fns = [random_coverage(rng, n) for _ in range(m)]
    else:
        fns = [modular_fn([rng.randint(1, 2)] * n) for _ in range(m)]
    costs = [rng.randint(1, 30) / 10 for _ in range(n)]
    if draw(st.booleans()):
        costs = [costs[0]] * n
    alphas = [rng.choice((1.0, 0.3, 7.0, 1e-6, 1e9)) for _ in range(m)]
    kind = draw(st.sampled_from(("random", "subset cost", "below every cost", "negative")))
    if kind == "random":
        budget = rng.uniform(0, sum(costs))
    elif kind == "subset cost":
        budget = sum(costs[j] for j in range(n) if rng.random() < 0.5)
    elif kind == "below every cost":
        budget = min(costs) / 2
    else:
        budget = -1.0
    return fns, alphas, costs, budget


class TestStrengthenGeneratingSet:
    def test_stop_pt_zero_is_identity(self):
        rng = Random(2)
        fn = random_coverage(rng, 6)
        assert strengthen_generating_set(fn, {1, 3, 4}, 0) == frozenset({1, 3, 4})

    def test_empty_support(self):
        fn = modular_fn((1, 2, 3))
        assert strengthen_generating_set(fn, (), 2) == frozenset()

    def test_cut_stays_tight_at_incumbent(self):
        rng = Random(17)
        checked = 0
        for _ in range(60):
            n = rng.randint(3, 9)
            fn = random_coverage(rng, n, duplicates=True)
            bar = frozenset(j for j in range(n) if rng.random() < 0.5)
            for stop_pt in (1, 2):
                gen = strengthen_generating_set(fn, bar, stop_pt)
                cut = build_cut(fn, gen, 1.0, 0)
                x = tuple(1 if j in bar else 0 for j in range(n))
                assert rhs(cut, x) == pytest.approx(fn.value(bar), abs=1e-9)
                assert cut_is_valid(cut, fn, 1.0)
                checked += gen != bar
        assert checked > 10  # the rewrite must actually fire somewhere


    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.integers(0, 3),
           st.booleans())
    def test_matches_scalar_reference_on_tables(self, n, seed, stop_pt, noisy):
        # coverage tables with duplicated elements have many zero marginals;
        # noise straddling the slack tests the <= slack decisions
        rng = Random(seed)
        cover = random_coverage(rng, n, duplicates=True)
        table = [cover.value(S) * (1 + noisy * rng.uniform(-2e-9, 2e-9))
                 for S in all_subsets(n)]
        table[0] = 0.0
        bar = frozenset(j for j in range(n) if rng.random() < 0.6)
        fn, ref = table_fn(table), table_fn(table)
        assert (strengthen_generating_set(fn, bar, stop_pt)
                == scalar_strengthen_generating_set(ref, bar, stop_pt))
        assert fn._cache == ref._cache

    def test_matches_scalar_reference_on_water_oracles(self):
        # the water oracles read through their structural form, and the same
        # oracles without it read their pair marginals through the ranking
        # kernel; the keyed reads fill the memo the scalar reference fills,
        # and every value the form's oracle memoizes is a fresh scalar read
        rng = Random(5)
        for seed in range(4):
            inst = generate_instance(n=16, edge_factor=41 / 36, m=3, j_count=5,
                                     budget=40, seed=seed)
            for sc in inst.scenarios:
                fn = scenario_oracle(inst.network, sc)
                keyed, = without_form([scenario_oracle(inst.network, sc)])
                ref = scenario_oracle(inst.network, sc)
                for stop_pt in (1, 2, 3):
                    bar = frozenset(rng.sample(range(16), rng.randint(1, 8)))
                    want = scalar_strengthen_generating_set(ref, bar, stop_pt)
                    assert strengthen_generating_set(fn, bar, stop_pt) == want
                    assert strengthen_generating_set(keyed, bar, stop_pt) == want
                assert keyed._cache == ref._cache
                assert_memo_is_fresh(fn, scenario_oracle(inst.network, sc))


    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**32 - 1), st.integers(0, 3),
           st.booleans())
    def test_several_functions_match_scalar_reference(self, m, n, seed, stop_pt, noisy):
        # each function's set and memo are those of the scalar reference
        # run on it alone; f(incumbent) comes from the table, not the memo
        rng = Random(seed)
        tables = []
        for _ in range(m):
            cover = random_coverage(rng, n, duplicates=True)
            table = [cover.value(S) * (1 + noisy * rng.uniform(-2e-9, 2e-9))
                     for S in all_subsets(n)]
            table[0] = 0.0
            tables.append(table)
        bar = frozenset(j for j in range(n) if rng.random() < 0.6)
        fns, refs = [table_fn(t) for t in tables], [table_fn(t) for t in tables]
        at = [t[sum(1 << j for j in bar)] for t in tables]
        assert (strengthen_generating_sets(fns, bar, at, stop_pt)
                == [scalar_strengthen_generating_set(ref, bar, stop_pt) for ref in refs])
        assert [fn._cache for fn in fns] == [ref._cache for ref in refs]

    def test_several_water_scenarios_match_scalar_reference(self):
        # the form's reads and, without the form, one family read per step
        # for the instance's oracles
        rng = Random(8)
        for seed in range(3):
            inst = generate_instance(n=16, edge_factor=41 / 36, m=4, j_count=5,
                                     budget=40, seed=seed)
            fns, keyed = inst.build_oracles(), without_form(inst.build_oracles())
            refs = [scenario_oracle(inst.network, sc) for sc in inst.scenarios]
            for stop_pt in (1, 2, 3):
                bar = frozenset(rng.sample(range(16), rng.randint(1, 8)))
                want = [scalar_strengthen_generating_set(ref, bar, stop_pt) for ref in refs]
                at = [ref.value(bar) for ref in refs]
                assert strengthen_generating_sets(fns, bar, at, stop_pt) == want
                assert strengthen_generating_sets(keyed, bar, at, stop_pt) == want
            assert [fn._cache for fn in keyed] == [ref._cache for ref in refs]
            for fn, fresh in zip(fns, inst.build_oracles()):
                assert_memo_is_fresh(fn, fresh)

    def test_each_key_is_read_once(self, monkeypatch):
        # on the keyed path, the pair read lists each incumbent singleton
        # once per function, not once per (j, k) pair
        reads = []

        def recording(fns, keys):
            keys = [list(fn_keys) for fn_keys in keys]
            reads.append(keys)
            return values_in(fns, keys)

        monkeypatch.setattr(dcg, "values_in", recording)
        fns = without_form(generate_instance(n=16, edge_factor=41 / 36, m=4, j_count=5,
                                             budget=40, seed=0).build_oracles())
        bar = frozenset({0, 3, 5, 8, 11})
        strengthen_generating_sets(fns, bar, [fn.value(bar) for fn in fns], 2)
        _, pairs = reads
        # 1 << k is the key of the pair (k, k) and of k alone, and of nothing else
        assert all(fn_keys.count(1 << k) == 2 for fn_keys in pairs for k in bar)

    # Each oracle memoizes its strengthened sets by the incumbent, f at the
    # incumbent and stop_pt; a memoized set is the object built before and
    # reads nothing.

    @pytest.fixture
    def reads(self, monkeypatch):
        """The keyed reads and the structural-form calls, in turn."""
        made = []
        extensions = water._ScenarioStack.extensions

        def counted(fns, keys):
            made.append(len(fns))
            return values_in(fns, keys)

        def counted_form(stack, scenario_of_row, subsets, extend=True):
            made.append(len(subsets))
            return extensions(stack, scenario_of_row, subsets, extend)

        monkeypatch.setattr(core, "values_in", counted)
        monkeypatch.setattr(dcg, "values_in", counted)
        monkeypatch.setattr(water._ScenarioStack, "extensions", counted_form)
        return made

    @staticmethod
    def oracles(seed=0):
        return generate_instance(n=16, edge_factor=41 / 36, m=4, j_count=5, budget=40,
                                 seed=seed).build_oracles()

    def test_memo_repeat_returns_the_same_objects_and_reads_nothing(self, reads):
        fns = self.oracles()
        bar = frozenset({0, 3, 5, 8, 11})
        at = [fn.value(bar) for fn in fns]
        first = strengthen_generating_sets(fns, bar, at, 2)
        assert reads and first != [bar] * 4  # the rewrite fires
        reads.clear()
        memo = [dict(fn._cache) for fn in fns]
        again = strengthen_generating_sets(fns, bar, at, 2)
        assert reads == [] and [fn._cache for fn in fns] == memo
        assert all(a is b for a, b in zip(first, again))
        assert strengthen_generating_set(fns[1], bar, 2) is first[1]

    def test_memo_partial_hit_reads_only_the_missing_functions(self, monkeypatch):
        # keyed: the marginal read, then the pair read, of functions 0 and 3;
        # through the form, calls that read scenarios 0 and 3 alone
        read, form = [], []
        extensions = water._ScenarioStack.extensions

        def recording_form(stack, scenario_of_row, subsets, extend=True):
            form.append(sorted(set(scenario_of_row)))
            return extensions(stack, scenario_of_row, subsets, extend)

        monkeypatch.setattr(water._ScenarioStack, "extensions", recording_form)
        for fns, want_read in ((without_form(self.oracles()), [[0, 3], [0, 3]]),
                               (self.oracles(), [])):
            bar = frozenset({1, 2, 6, 9, 13})
            at = [fn.value(bar) for fn in fns]
            first = strengthen_generating_sets(fns[1:3], bar, at[1:3], 2)
            want = strengthen_generating_sets(self.oracles(), bar, at, 2)
            del read[:], form[:]

            def recording(read_fns, keys, fns=fns):
                read.append([fns.index(fn) for fn in read_fns])
                return values_in(read_fns, keys)

            monkeypatch.setattr(dcg, "values_in", recording)
            got = strengthen_generating_sets(fns, bar, at, 2)
            assert read == want_read
            assert form == ([[0, 3]] * len(form) if not want_read else [])
            assert got[1] is first[0] and got[2] is first[1]
            assert got == want
        assert form

    @pytest.mark.parametrize("change", ["stop_pt", "at"])
    def test_memo_another_key_computes_afresh(self, reads, change):
        bar = frozenset((3, 11, 5))
        fns = self.oracles(1)
        at = [fn.value(bar) for fn in fns]
        first = strengthen_generating_sets(fns, bar, at, 2)
        later_at, stop_pt = at, 2
        if change == "stop_pt":
            stop_pt = 1
        else:
            later_at = [a * (1 + 1e-12) for a in at]
        reads.clear()
        got = strengthen_generating_sets(fns, bar, later_at, stop_pt)
        assert reads  # computed, not served from the memo
        assert got == strengthen_generating_sets(self.oracles(1), bar, later_at, stop_pt)
        assert not any(a is b for a, b in zip(first, got))

    def test_memo_another_iteration_order_hits(self, reads):
        # 3 and 11 share a hash slot, so frozensets of them iterate in
        # insertion order; the incumbent in its other order is served the
        # sets built for the first
        one, other = frozenset((3, 11, 5)), frozenset((11, 3, 5))
        assert one == other and tuple(one) != tuple(other)
        fns = self.oracles(1)
        at = [fn.value(one) for fn in fns]
        first = strengthen_generating_sets(fns, one, at, 2)
        reads.clear()
        got = strengthen_generating_sets(fns, other, at, 2)
        assert reads == []
        assert all(a is b for a, b in zip(first, got))
        assert got == strengthen_generating_sets(self.oracles(1), other, at, 2)

    def test_memo_numpy_integer_stop_pt_hits_the_int_entry(self, reads):
        fns = self.oracles(2)
        bar = frozenset({2, 4, 7, 10})
        at = [fn.value(bar) for fn in fns]
        first = strengthen_generating_sets(fns, bar, at, 2)
        reads.clear()
        for stop_pt in (np.int64(2), np.uint8(2)):
            got = strengthen_generating_sets(fns, bar, [np.float64(a) for a in at], stop_pt)
            assert all(a is b for a, b in zip(first, got))
        assert reads == []

    def test_needs_one_value_per_function(self):
        fns = self.oracles()
        with pytest.raises(ValueError):
            strengthen_generating_sets(fns, {0, 3}, [1.0] * 3, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 8), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(1, 7), st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=10))
    def test_memo_call_sequences_equal_fresh_oracles(self, m, n, seed, calls):
        # shared oracles over a sequence of calls on four incumbents, repeats
        # and partial hits included, give each call the sets that fresh
        # oracles give it
        rng = Random(seed)
        tables = []
        for _ in range(m):
            cover = random_coverage(rng, n, duplicates=True)
            tables.append([0.0] + [cover.value(S) for S in list(all_subsets(n))[1:]])
        incumbents = [frozenset(j for j in range(n) if rng.random() < 0.6) for _ in range(4)]
        shared = [table_fn(t) for t in tables]
        for chosen, which, stop_pt in calls:
            picked = [i for i in range(m) if chosen >> i & 1] or [0]
            bar = incumbents[which]
            at = [tables[i][sum(1 << j for j in bar)] for i in picked]
            got = strengthen_generating_sets([shared[i] for i in picked], bar, at, stop_pt)
            want = strengthen_generating_sets([table_fn(tables[i]) for i in picked], bar, at,
                                              stop_pt)
            assert got == want
            assert [tuple(gen) for gen in got] == [tuple(gen) for gen in want]


class TestSolveRobust:
    def test_two_modular_functions(self):
        f1, f2 = modular_fn((1, 2)), modular_fn((2, 1))
        report = solve_robust([f1, f2], [1.0, 1.0], (1, 1), 2)
        assert report.eta == pytest.approx(3.0, abs=1e-12)
        assert report.x == (1, 1)
        assert report.status == "optimal"
        assert report.gap == 0.0

    def test_zero_budget(self):
        f1 = modular_fn((1, 2))
        report = solve_robust([f1], [1.0], (1, 1), 0)
        assert report.eta == 0.0
        assert report.x == (0, 0)

    def test_alphas_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_robust([modular_fn((1,))], [0.0], (1,), 1)

    def test_matches_brute_force_all_configs(self):
        mismatches = []
        for seed in range(10):
            inst = generate_instance(n=6 + seed % 5, edge_factor=1.3,
                                     m=2 + seed % 3, j_count=2, budget=13, seed=seed)
            fns = inst.build_oracles()
            costs, b = inst.network.sensor_costs, inst.network.budget
            alphas = [1.0] * len(fns)
            ref, _ = brute_force_robust(fns, alphas, costs, b)
            for reduce, stop_pt in product((False, True), (0, 2)):
                cfg = DcgConfig(reduce=reduce, stop_pt=stop_pt)
                rep = solve_robust(fns, alphas, costs, b, cfg)
                if abs(rep.eta - ref) > 1e-9:
                    mismatches.append((seed, reduce, stop_pt))
        assert mismatches == []

    def test_master_trace_is_nonincreasing(self):
        for seed in (3, 8):
            inst = generate_instance(n=9, edge_factor=1.4, m=3, j_count=3,
                                     budget=14, seed=seed)
            fns = inst.build_oracles()
            rep = solve_robust(fns, [1.0] * len(fns), inst.network.sensor_costs,
                               inst.network.budget)
            trace = rep.master_values
            assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_warm_start_first_master_value(self):
        inst = generate_instance(n=7, edge_factor=1.3, m=3, j_count=2,
                                 budget=12, seed=21)
        fns = inst.build_oracles()
        costs, b = inst.network.sensor_costs, inst.network.budget
        alphas = [1.0] * len(fns)
        rep = solve_robust(fns, alphas, costs, b)
        # master_values holds the tree's best bound at each separation: never
        # below the optimum, and the first one bounds the warm-start pool
        warm = 0.0
        for X in all_subsets(len(costs)):
            if sum(costs[j] for j in X) > b:
                continue
            warm = max(warm, min(sum(fn.value({j}) for j in X) / a
                                 for fn, a in zip(fns, alphas)))
        optimum, _ = brute_force_robust(fns, alphas, costs, b)
        assert rep.master_values
        assert all(v >= optimum - 1e-9 for v in rep.master_values)
        assert rep.master_values[0] >= warm - 1e-9

    def test_desk_seed_9(self):
        # Restarting the master after every separation takes ~11 s on this
        # instance (2-core host), so the time limit fails such a search; one
        # tree needs well under a second.
        inst = generate_instance(n=36, edge_factor=41 / 36, m=50, j_count=12,
                                 budget=30, seed=9)
        fns = inst.build_oracles()
        rep = solve_robust(fns, [1.0] * len(fns), inst.network.sensor_costs,
                           inst.network.budget,
                           DcgConfig(reduce=True, stop_pt=2, time_limit=5.0))
        assert rep.status == "optimal"
        assert rep.eta == pytest.approx(203 / 12, abs=1e-9)

    def test_strengthened_cuts_valid_against_their_oracle(self):
        inst = generate_instance(n=8, edge_factor=1.4, m=3, j_count=3,
                                 budget=15, seed=33)
        fns = inst.build_oracles()
        rep = solve_robust(fns, [1.0] * len(fns), inst.network.sensor_costs,
                           inst.network.budget, DcgConfig(stop_pt=2))
        for cut in rep.pool:
            assert cut_is_valid(cut, fns[cut.scenario_index], 1.0)

    def test_time_limit_keeps_sandwich(self):
        inst = generate_instance(n=12, edge_factor=1.5, m=4, j_count=4,
                                 budget=22, seed=44)
        fns = inst.build_oracles()
        costs, b = inst.network.sensor_costs, inst.network.budget
        rep = solve_robust(fns, [1.0] * len(fns), costs, b,
                           DcgConfig(time_limit=0.0))
        assert rep.status == "time_limit"
        assert rep.eta <= rep.upper_bound + 1e-9
        assert rep.gap >= 0.0
        assert sum(c for c, x in zip(costs, rep.x) if x) <= b
        exact, _ = brute_force_robust(fns, [1.0] * len(fns), costs, b)
        assert rep.eta <= exact + 1e-9 <= rep.upper_bound + 2e-9

    def test_epsilon_allows_early_stop(self):
        inst = generate_instance(n=8, edge_factor=1.4, m=3, j_count=3,
                                 budget=15, seed=55)
        fns = inst.build_oracles()
        costs, b = inst.network.sensor_costs, inst.network.budget
        loose = solve_robust(fns, [1.0] * len(fns), costs, b, DcgConfig(epsilon=0.5))
        tight = solve_robust(fns, [1.0] * len(fns), costs, b, DcgConfig(epsilon=0.0))
        assert loose.iterations <= tight.iterations
        assert loose.eta >= tight.eta - 0.5 - 1e-9


class TestSandwichAtAnyEpsilon:
    """upper_bound is what the search proved: eta + epsilon at optimality,
    so the optimum lies between eta and upper_bound whatever epsilon is."""

    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0])
    def test_matches_brute_force_on_grid(self, epsilon):
        # the benchmark's grid family; at epsilon 1 seed 3 stops at 10.0,
        # below its optimum of 10.8
        for seed in range(100):
            inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5, budget=15,
                                     seed=seed)
            fns = inst.build_oracles()
            costs, b = inst.network.sensor_costs, inst.network.budget
            exact, _ = brute_force_robust(fns, [1.0] * 5, costs, b)
            rep = solve_robust(fns, [1.0] * 5, costs, b, DcgConfig(epsilon=epsilon))
            assert rep.eta - 1e-9 <= exact <= rep.upper_bound + 1e-9, seed
            if rep.status == "optimal":
                assert rep.upper_bound == rep.eta + epsilon, seed
                assert rep.gap == pytest.approx(epsilon / rep.upper_bound), seed


class TestNonFiniteInputs:
    """NaN passes ``c <= 0``, ``budget < 0`` and ``a <= 0``; every solver and
    the brute-force reference must refuse it, and infinities, up front."""

    @pytest.fixture(scope="class")
    def problem(self):
        inst = generate_instance(n=8, edge_factor=1.5, m=3, j_count=3, budget=12, seed=1)
        return inst.build_oracles(), list(inst.network.sensor_costs), inst.network.budget

    SOLVERS = {
        "solve_robust": lambda fns, alphas, costs, budget:
            solve_robust(fns, alphas, costs, budget),
        "solve_ratio_robust": lambda fns, alphas, costs, budget:
            solve_ratio_robust(fns, costs, budget),
        "brute_force_robust": lambda fns, alphas, costs, budget:
            brute_force_robust(fns, alphas, costs, budget),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_budget(self, problem, solver, budget):
        fns, costs, _ = problem
        with pytest.raises(ValueError, match="budget must be finite"):
            self.SOLVERS[solver](fns, [1.0] * len(fns), costs, budget)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cost(self, problem, solver, bad):
        fns, costs, budget = problem
        costs = costs[:2] + [bad] + costs[3:]
        with pytest.raises(ValueError, match="costs must be positive and finite"):
            self.SOLVERS[solver](fns, [1.0] * len(fns), costs, budget)

    @pytest.mark.parametrize("solver", ["solve_robust", "brute_force_robust"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_alpha(self, problem, solver, bad):
        fns, costs, budget = problem
        with pytest.raises(ValueError, match="alphas must be positive and finite"):
            self.SOLVERS[solver](fns, [bad] + [1.0] * (len(fns) - 1), costs, budget)


class TestMalformedInputs:
    """Inputs every solver refuses up front, before any search."""

    @pytest.mark.parametrize("stop_pt, message", [
        (-1, "stop_pt must be nonnegative"),
        (2.0, "stop_pt must be an integer, got 2.0"),
        (1.5, "stop_pt must be an integer, got 1.5"),
        (True, "stop_pt must be an integer, got True"),
    ], ids=["negative", "integral-float", "float", "bool"])
    def test_config_stop_pt(self, stop_pt, message):
        # a float used to pass and then fail as a slice index mid-solve
        with pytest.raises(ValueError, match=message):
            DcgConfig(stop_pt=stop_pt)

    @pytest.mark.parametrize("field, value, message", [
        ("epsilon", True, "epsilon must be a number, got True"),
        ("epsilon", np.bool_(False), f"epsilon must be a number, got {np.bool_(False)!r}"),
        ("time_limit", True, "time_limit must be a number, got True"),
    ], ids=["epsilon-bool", "epsilon-numpy-bool", "time-limit-bool"])
    def test_config_refuses_bool_numbers(self, field, value, message):
        # True used to solve with a gap of 1, or a one-second limit
        with pytest.raises(ValueError, match=message):
            DcgConfig(**{field: value})

    def test_config_takes_numpy_integer_stop_pt(self):
        assert DcgConfig(stop_pt=np.int64(3)).stop_pt == 3

    @pytest.mark.parametrize("reduce", ["false", None, 1])
    def test_config_reduce(self, reduce):
        # "false" is truthy, so taking it would reduce
        with pytest.raises(ValueError, match=f"reduce must be a bool, got {reduce!r}"):
            DcgConfig(reduce=reduce)

    def test_config_takes_numpy_bool_reduce(self):
        assert not DcgConfig(reduce=np.bool_(False)).reduce

    @pytest.mark.parametrize("solver", sorted(TestNonFiniteInputs.SOLVERS))
    def test_no_scenarios(self, solver):
        with pytest.raises(ValueError, match="at least one scenario function is required"):
            TestNonFiniteInputs.SOLVERS[solver]([], [], [], 0)

    @pytest.mark.parametrize("solver", sorted(TestNonFiniteInputs.SOLVERS))
    def test_ground_sizes_must_match(self, solver):
        # brute force used to score the 3-element oracle on 2-element masks
        fns = [modular_fn((1, 1)), modular_fn((1, 1, 1))]
        with pytest.raises(ValueError, match="scenario function 1 has a ground set of size 3, "
                                             "scenario function 0 one of size 2"):
            TestNonFiniteInputs.SOLVERS[solver](fns, [1, 1], [1, 1], 2)

    @pytest.mark.parametrize("route", ["form", "keyed"])
    @pytest.mark.parametrize("element", [12, -1])
    def test_out_of_range_element_refused(self, route, element):
        # at n=12 a form read of element 12 or -1 may read a neighbouring
        # scenario's rows, so both routes refuse it before any read; fresh
        # oracles each time, so no memo answers first
        def oracles():
            fns = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5, budget=15,
                                    seed=0).build_oracles()
            return fns if route == "form" else without_form(fns)

        message = f"element {element} out of range for ground set of size 12"
        with pytest.raises(ValueError, match=message):
            values_at(oracles(), {1, element})
        for stop_pt in (1, 2):
            with pytest.raises(ValueError, match=message):
                strengthen_generating_sets(oracles(), {1, element}, [1.0] * 5, stop_pt)


class TestBruteForce:
    def test_figure_instance_single_sensor(self, figure_network):
        net, sc = figure_network
        fn = scenario_oracle(net, sc)
        eta, x = brute_force_robust([fn], [1.0], net.sensor_costs, net.budget)
        assert eta == pytest.approx(1.5, abs=1e-12)
        assert x == (0, 0, 0, 1)  # node 0 ties at 1.5; node 3 is lex-smaller

    def test_no_budget_pressure_takes_everything(self):
        rng = Random(6)
        fn = random_coverage(rng, 5)
        eta, x = brute_force_robust([fn], [1.0], (1,) * 5, 5)
        assert eta == pytest.approx(fn.value(range(5)), abs=1e-12)
        assert support(x) <= frozenset(range(5))
        assert fn.value(support(x)) == pytest.approx(fn.value(range(5)), abs=1e-12)

    def test_ratio_capped_at_one(self):
        rng = Random(9)
        fns = [random_coverage(rng, 5) for _ in range(3)]
        alphas = [fn.value(range(5)) + 1e-12 for fn in fns]
        eta, _ = brute_force_robust(fns, alphas, (1,) * 5, 5)
        assert eta <= 1.0 + 1e-9

    def test_oversize_refused(self):
        fn = modular_fn(tuple(range(23)))
        with pytest.raises(ValueError):
            brute_force_robust([fn], [1.0], (1,) * 23, 3)

    def test_one_cost_per_element(self):
        with pytest.raises(ValueError):
            brute_force_robust([modular_fn((1, 2, 3))], [1.0], (1, 1), 3)

    def test_costs_summed_in_element_order(self):
        # 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001, above a budget of 0.6
        fn = modular_fn((1, 1, 1))
        assert brute_force_robust([fn], [1.0], (0.1, 0.2, 0.3), 0.6) == (2.0, (0, 1, 1))
        assert brute_force_robust([fn], [1.0], (0.1, 0.2, 0.3), 0.1 + 0.2 + 0.3) == \
            (3.0, (1, 1, 1))

    def test_budget_below_every_cost(self):
        fn = modular_fn((1, 2))
        assert brute_force_robust([fn], [1.0], (1, 2), 0.5) == (0.0, (0, 0))
        assert brute_force_robust([fn], [1.0], (1, 2), -1) == (-math.inf, None)

    @settings(max_examples=150, deadline=None)
    @given(knapsack_instances())
    def test_matches_scalar_reference(self, case):
        fns, alphas, costs, budget = case
        assert brute_force_robust(fns, alphas, costs, budget) == \
            scalar_brute_force(fns, alphas, costs, budget)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
    def test_drawn_tables_match_keyed_reference(self, n, m, seed, warm):
        # small integer tables tie often, so the tie-break is exercised; a
        # warm memo is neither read nor changed
        rng = np.random.default_rng(seed)
        tables = rng.integers(0, 6, (m, 1 << n)).astype(float)
        tables[:, 0] = 0.0
        fns = [table_fn(table) for table in tables]
        alphas = rng.choice((1.0, 0.3, 7.0), m).tolist()
        costs = (rng.integers(1, 30, n) / 10).tolist()
        budget = float(rng.uniform(-0.5, sum(costs)))
        if warm:
            for fn in fns:
                fn.values(rng.integers(0, 1 << n, 5).tolist())
        memos = [dict(fn._cache) for fn in fns]
        got = brute_force_robust(fns, alphas, costs, budget)
        assert [fn._cache for fn in fns] == memos
        assert got == keyed_brute_force([table_fn(table) for table in tables], alphas,
                                        costs, budget)

    @pytest.mark.parametrize("seed", range(6))
    def test_water_instances_match_keyed_reference(self, seed):
        instance = generate_instance(n=10 + seed, edge_factor=2.0, m=1 + seed % 4,
                                     j_count=4, budget=12, seed=seed)
        fns = instance.build_oracles()
        costs, budget = instance.network.sensor_costs, instance.network.budget
        alphas = [1.0 + i for i in range(len(fns))]
        got = brute_force_robust(fns, alphas, costs, budget)
        assert [fn._cache for fn in fns] == [{0: 0.0}] * len(fns)
        assert got == keyed_brute_force(instance.build_oracles(), alphas, costs, budget)


def scaled_fn(fn, scale):
    """The oracle ``scale * fn``, wrapped as a SetFunction of its own."""
    return SetFunction(fn.ground_size, lambda S: scale * fn.value(S))


def placement_cost(costs, x) -> float:
    return sum(c for c, xj in zip(costs, x) if xj)


def assert_certified(fns, alphas, costs, budget, report):
    """An optimal report's eta is the enumerated optimum (1e-9 relative) and
    its x fits the budget and scores eta."""
    ref, _ = brute_force_robust(fns, alphas, costs, budget)
    assert report.status == "optimal"
    assert abs(report.eta - ref) <= 1e-9 * abs(ref)
    assert placement_cost(costs, report.x) <= budget
    score = min(fn.value(support(report.x)) / a for fn, a in zip(fns, alphas))
    assert abs(score - report.eta) <= 1e-9 * abs(ref)


@st.composite
def scaled_instances(draw):
    """Coverage scenarios on up to 10 elements with fractional costs and a
    budget that is random, a subset's cost (so that rounding decides ties) or
    below every cost; alphas, oracle values, and costs with the budget each
    scaled by their own power of ten."""
    n = draw(st.integers(1, 10))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    m = rng.randint(1, 3)
    oracle_scale = 10.0 ** draw(st.integers(-12, 8))
    fns = [scaled_fn(random_coverage(rng, n), oracle_scale) for _ in range(m)]
    alpha_scale = 10.0 ** draw(st.integers(-6, 9))
    alphas = [alpha_scale * rng.choice((1.0, 1.37, 1.74, 2.11)) for _ in range(m)]
    costs = [rng.randint(1, 30) / 10 for _ in range(n)]
    kind = draw(st.sampled_from(("random", "subset cost", "below every cost")))
    if kind == "random":
        budget = rng.uniform(0, sum(costs))
    elif kind == "subset cost":
        budget = sum(costs[j] for j in range(n) if rng.random() < 0.5)
    else:
        budget = min(costs) / 2
    cost_scale = 10.0 ** draw(st.integers(-13, 9))
    return fns, alphas, [c * cost_scale for c in costs], budget * cost_scale


def scaled_water(seed, alpha_scale=1.0, cost_scale=1.0, oracle_scale=1.0,
                 alphas=(1.0, 1.0, 1.0, 1.0)):
    inst = generate_instance(n=10, edge_factor=2.0, m=4, j_count=4, budget=15, seed=seed)
    fns = [scaled_fn(fn, oracle_scale) for fn in inst.build_oracles()]
    costs = [c * cost_scale for c in inst.network.sensor_costs]
    return (fns, [a * alpha_scale for a in alphas], costs,
            inst.network.budget * cost_scale)


class TestScaleInvariance:
    """`optimal` is a true certificate at any positive scale of alphas,
    oracle values and costs."""

    @settings(max_examples=150, deadline=None)
    @given(scaled_instances())
    def test_matches_brute_force(self, case):
        fns, alphas, costs, budget = case
        assert_certified(fns, alphas, costs, budget,
                         solve_robust(fns, alphas, costs, budget))

    @settings(max_examples=50, deadline=None)
    @given(scaled_instances())
    def test_time_limit_zero_keeps_x_feasible(self, case):
        fns, alphas, costs, budget = case
        report = solve_robust(fns, alphas, costs, budget, DcgConfig(time_limit=0.0))
        assert placement_cost(costs, report.x) <= budget
        assert report.eta <= report.upper_bound

    @pytest.mark.parametrize("seed", [10, 31])
    def test_large_alphas(self, seed):
        # eta used to come back 21% (seed 10) and 17% (seed 31) low
        fns, alphas, costs, budget = scaled_water(seed, alpha_scale=1e6,
                                                  alphas=(1.0, 1.37, 1.74, 2.11))
        assert_certified(fns, alphas, costs, budget,
                         solve_robust(fns, alphas, costs, budget, DcgConfig(stop_pt=2)))

    def test_tiny_costs(self):
        # an absolute knapsack slack used to admit an x over the budget
        fns, alphas, costs, budget = scaled_water(0, cost_scale=1e-13)
        assert_certified(fns, alphas, costs, budget,
                         solve_robust(fns, alphas, costs, budget))

    def test_tiny_oracle_values(self):
        fns, alphas, costs, budget = scaled_water(1, oracle_scale=1e-12)
        assert_certified(fns, alphas, costs, budget,
                         solve_robust(fns, alphas, costs, budget))


@st.composite
def water_instances(draw):
    """Water instances of 6 to 12 nodes with 1 to 5 scenarios, unit alphas."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    inst = generate_instance(n=rng.randint(6, 12), edge_factor=2.0, m=rng.randint(1, 5),
                             j_count=rng.randint(1, 5), budget=rng.randint(5, 25),
                             seed=rng.randrange(2**32))
    fns = inst.build_oracles()
    return fns, [1.0] * len(fns), inst.network.sensor_costs, inst.network.budget


@st.composite
def milp_instances(draw):
    """Water instances of 16 to 30 nodes with 1 to 4 scenarios and positive
    alphas: past the sizes brute force enumerates."""
    n, m = draw(st.integers(16, 30)), draw(st.integers(1, 4))
    inst = generate_instance(n=n, edge_factor=draw(st.sampled_from((41 / 36, 1.5, 2.0))), m=m,
                             j_count=draw(st.integers(1, n // 3)), budget=draw(st.integers(5, 40)),
                             seed=draw(st.integers(0, 2**32 - 1)))
    return inst, draw(st.lists(st.floats(0.01, 100.0), min_size=m, max_size=m))


@st.composite
def fractional_milp_instances(draw):
    """Water instances of 16 to 36 nodes with 1 to 10 scenarios and positive
    alphas, whose costs are multiples of 1/8 in [5, 10] and whose budget is
    one in [15, 45]: every cost sum is exact in binary, budgets above 32 put
    the node-bound tables on the fallback grid, and ``kept_locations`` keeps
    every location."""
    n, m = draw(st.integers(16, 36)), draw(st.integers(1, 10))
    inst = generate_instance(n=n, edge_factor=draw(st.sampled_from((41 / 36, 1.5, 2.0))), m=m,
                             j_count=draw(st.integers(1, n // 3)), budget=5,
                             seed=draw(st.integers(0, 2**32 - 1)))
    eighths = draw(st.lists(st.integers(40, 80), min_size=n, max_size=n))
    network = replace(inst.network, sensor_costs=tuple(k / 8 for k in eighths),
                      budget=draw(st.integers(120, 360)) / 8)
    return (replace(inst, network=network),
            draw(st.lists(st.floats(0.01, 100.0), min_size=m, max_size=m)))


def assert_eta_is_the_milp_optimum(inst, alphas, reduce, stop_pt):
    # the exact assignment MILP (tests/reference_milp.py), solved by HiGHS
    pytest.importorskip("scipy")
    fns = inst.build_oracles()
    report = solve_robust(fns, alphas, inst.network.sensor_costs, inst.network.budget,
                          DcgConfig(reduce=reduce, stop_pt=stop_pt))
    reference = reference_eta(inst, alphas)
    assert report.status == "optimal"
    assert abs(report.eta - reference) <= TOL * abs(reference)


class TestMatchesReferenceMilp:
    @settings(max_examples=40, deadline=None)
    @given(milp_instances(), st.booleans(), st.integers(0, 3))
    def test_eta_is_the_milp_optimum(self, case, reduce, stop_pt):
        assert_eta_is_the_milp_optimum(*case, reduce, stop_pt)

    @settings(max_examples=12, deadline=None)
    @given(fractional_milp_instances(), st.booleans(), st.integers(0, 3))
    def test_fractional_costs_match_the_milp(self, case, reduce, stop_pt):
        assert_eta_is_the_milp_optimum(*case, reduce, stop_pt)


class TestTightBudgets:
    """Budgets at the optimum's cost and one or a few ulps below it, where a
    node-bound table cell without its cost slack, or weights rounded to the
    nearest cell, would prune the optimum.  Costs in tenths with budgets up
    to 25 put the tables on the exact grid; costs with three decimals put
    them on the fallback grid."""

    @staticmethod
    def instance(seed: int, kind: str):
        rng = Random(seed)
        n, m = rng.randint(10, 14), rng.randint(1, 4)
        if kind == "tenths":
            budget, costs = rng.randint(12, 25), [rng.randint(10, 60) / 10 for _ in range(n)]
        else:
            budget, costs = rng.randint(15, 45), [rng.randint(1000, 6000) / 1000 for _ in range(n)]
        inst = generate_instance(n=n, edge_factor=1.5, m=m, j_count=3, budget=budget, seed=seed)
        return inst.build_oracles(), costs, budget

    @pytest.mark.parametrize("kind", ["tenths", "thousandths"])
    def test_budget_at_and_just_below_the_optimum_cost(self, kind):
        for seed in range(40):
            fns, costs, budget = self.instance(seed, kind)
            alphas = [1.0] * len(fns)
            _, x = brute_force_robust(fns, alphas, costs, budget)
            c = placement_cost(costs, x)
            for tight in (c, math.nextafter(c, -math.inf), c * (1 - 1e-12)):
                for reduce in (True, False):
                    report = solve_robust(fns, alphas, costs, tight, DcgConfig(reduce=reduce))
                    assert_certified(fns, alphas, costs, tight, report)


class TestSeparationContract:
    """What ``MasterState.solve`` relies on to offer each candidate once: after
    ``separate(x, value)`` returns w, x's pool value is at most w plus the
    solve's objective slack."""

    @settings(max_examples=150, deadline=None)
    @given(water_instances(), st.booleans(), st.integers(0, 2), st.sampled_from((0.0, 0.25)))
    def test_separated_candidate_is_cut_off(self, case, reduce, stop_pt, epsilon):
        fns, alphas, costs, budget = case
        solve = MasterState.solve
        results = []

        def checked_solve(state, separate, time_limit=None):
            slack = objective_slack(state.cut_pool)
            offered = set()

            def checked(x, value):
                assert x not in offered
                offered.add(x)
                w = separate(x, value)
                assert min(rhs(cut, x) for cut in state.cut_pool) <= w + slack
                return w

            results.append(solve(state, checked, time_limit))
            # the master records one bound per callback call
            assert len(results[-1].separation_bounds) == len(offered)
            return results[-1]

        with patch.object(MasterState, "solve", checked_solve):
            report = solve_robust(fns, alphas, costs, budget,
                                  DcgConfig(reduce=reduce, stop_pt=stop_pt, epsilon=epsilon))
        assert report.status == "optimal"
        assert report.master_values == results[0].separation_bounds


def cut_rule(values, value, slack, epsilon, reduce) -> list:
    """The scenarios a separation cuts at scaled values ``values`` and pool
    value ``value``: every violated one, or with ``reduce`` those tied at the
    worst value and the next most violated up to K, ties to the smaller
    index; in ascending order."""
    violated = [i for i, v in enumerate(values) if value > v + epsilon + slack]
    if not reduce:
        return violated
    tied = [i for i in violated if values[i] <= min(values) + slack]
    rest = sorted((i for i in violated if i not in tied), key=lambda i: (values[i], i))
    return sorted(tied + rest[:max(0, dcg.K - len(tied))])


class TestCutRule:
    """Which scenarios each separation hands to ``add_cut``, in its one call."""

    @pytest.fixture
    def separations(self, monkeypatch):
        """Per separation: its candidate, pool value, the solve's objective
        slack and the scenario indices of each add_cut call it made."""
        steps, calls = [], []
        add_cut, solve = MasterState.add_cut, MasterState.solve

        def recording_add_cut(state, *cuts):
            calls.append([cut.scenario_index for cut in cuts])
            return add_cut(state, *cuts)

        def recording_solve(state, separate, time_limit=None):
            slack = objective_slack(state.cut_pool)

            def recording(x, value):
                start = len(calls)
                w = separate(x, value)
                steps.append((x, value, slack, calls[start:]))
                return w
            return solve(state, recording, time_limit)

        monkeypatch.setattr(MasterState, "add_cut", recording_add_cut)
        monkeypatch.setattr(MasterState, "solve", recording_solve)
        return steps

    def solve(self, separations, fns, alphas, costs, budget, reduce, epsilon=0.0):
        """solve_robust, then each separation's scaled values at its candidate."""
        report = solve_robust(fns, alphas, costs, budget,
                              DcgConfig(reduce=reduce, epsilon=epsilon))
        assert report.status == "optimal"
        return [([fn.value(support(x)) / a for fn, a in zip(fns, alphas)], value, slack, made)
                for x, value, slack, made in separations]

    @pytest.mark.parametrize("reduce", [True, False])
    @pytest.mark.parametrize("epsilon", [0.0, 0.25])
    def test_cuts_follow_the_rule(self, separations, reduce, epsilon):
        steps = []
        for family, seed in [(dict(n=20, edge_factor=1.5, m=8, j_count=6, budget=20), 3),
                             *((dict(n=12, edge_factor=2.0, m=5, j_count=5, budget=15), s)
                               for s in range(3))]:
            inst = generate_instance(seed=seed, **family)
            fns = inst.build_oracles()
            del separations[:]
            steps += self.solve(separations, fns, [1.0] * len(fns),
                                inst.network.sensor_costs, inst.network.budget,
                                reduce, epsilon)
        extra = 0
        for values, value, slack, made in steps:
            want = cut_rule(values, value, slack, epsilon, reduce)
            assert made == ([want] if want else [])
            if made:
                # the separation contract: the worst scenario is always cut
                assert values.index(min(values)) in made[0]
                tied = sum(v <= min(values) + slack for v in values)
                extra = max(extra, len(made[0]) - tied)
        # some separation cut more than its tied scenarios
        assert extra >= (1 if reduce else 2)

    def test_every_tied_scenario_is_cut_past_k(self, separations):
        # K + 1 copies of one scenario tie at every candidate, and a last
        # copy at half scale is never the worst unless the value is 0
        inst = generate_instance(n=12, edge_factor=2.0, m=1, j_count=5, budget=15, seed=0)
        copies = water.Instance(network=inst.network, scenarios=inst.scenarios * (dcg.K + 2))
        fns = copies.build_oracles()
        alphas = [1.0] * (dcg.K + 1) + [0.5]
        steps = self.solve(separations, fns, alphas, inst.network.sensor_costs,
                           inst.network.budget, reduce=True)
        cut = [made[0] for _, _, _, made in steps if made]
        assert cut
        for values, value, slack, made in steps:
            assert made == ([cut_rule(values, value, slack, 0.0, True)] if made else [])
        assert all(set(range(dcg.K + 1)) <= set(scenarios) for scenarios in cut)


def max_type_fn(saved, weights, declare: bool) -> SetFunction:
    """f(S) = weights . max_{v in S} saved[v], 0 on the empty set; integer
    data keep every value exact.  With ``declare``, ``covers`` is the
    relation of the saved rows, as the water oracle declares it."""
    def evaluate(S):
        return float(weights @ saved[sorted(S)].max(axis=0)) if S else 0.0

    if declare:
        evaluate.covers = lambda: (saved[:, None] >= saved[None]).all(axis=2)
    return SetFunction(len(saved), evaluate)


@st.composite
def covered_instances(draw):
    """Max-type scenarios on up to 10 locations with integer saved counts,
    source weights and costs, forced into covering ties: locations that
    duplicate another in every scenario, at its cost or not, and a chain in
    which each location covers the next in every scenario."""
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    n, m, k = rng.randint(1, 10), rng.randint(1, 3), rng.randint(1, 4)
    saved = [np.array([[rng.randint(0, 4) for _ in range(k)] for _ in range(n)], dtype=float)
             for _ in range(m)]
    costs = [rng.randint(1, 3) for _ in range(n)]
    for _ in range(rng.randint(0, 3)):
        j, copy = rng.randrange(n), rng.randrange(n)
        for rows in saved:
            rows[copy] = rows[j]
        if rng.random() < 0.7:
            costs[copy] = costs[j]
    chain = rng.sample(range(n), rng.randint(0, n))
    for a, b in zip(chain, chain[1:]):
        for rows in saved:
            rows[b] = np.minimum(rows[a], rows[b])
        if rng.random() < 0.5:
            costs[b] = max(costs[a], costs[b])
    weights = np.array([rng.randint(1, 3) for _ in range(k)], dtype=float)
    return saved, weights, costs, rng.randint(0, sum(costs))


class TestCoveredLocations:
    """Locations covered by a no-dearer one are fixed at zero before the
    tree starts; the optimum does not move."""

    @settings(max_examples=150, deadline=None)
    @given(covered_instances(), st.booleans(), st.integers(0, 2))
    def test_matches_brute_force(self, case, reduce, stop_pt):
        saved, weights, costs, budget = case
        alphas = [1.0] * len(saved)
        config = DcgConfig(reduce=reduce, stop_pt=stop_pt)
        fns = [max_type_fn(rows, weights, declare=True) for rows in saved]
        report = solve_robust(fns, alphas, costs, budget, config)
        assert_certified(fns, alphas, costs, budget, report)
        plain = [max_type_fn(rows, weights, declare=False) for rows in saved]
        assert kept_locations(plain, costs).tolist() == list(range(len(costs)))
        assert solve_robust(plain, alphas, costs, budget, config).eta == report.eta

    @pytest.mark.parametrize("rows, costs, kept", [
        ([[[1, 2], [1, 2]]], (1, 1), [0]),                 # duplicates: the smaller index stays
        ([[[1, 2], [2, 2]]], (1, 1), [1]),                 # strict cover at equal cost
        ([[[1, 2], [2, 2]]], (1, 2), [0, 1]),              # the coverer costs more
        ([[[2, 2], [1, 2]]], (1, 2), [0]),                 # the coverer costs less
        ([[[3, 3], [2, 2], [1, 1]]], (1, 1, 1), [0]),      # a chain keeps its head
        ([[[2, 2], [1, 1]], [[1, 1], [2, 2]]], (1, 1), [0, 1]),  # each scenario its own way
        ([[[2, 2], [1, 1]], [[2, 2], [1, 2]]], (1, 1), [0]),     # covered in every scenario
    ])
    def test_kept_locations(self, rows, costs, kept):
        fns = [max_type_fn(np.array(r, dtype=float), np.ones(2), declare=True) for r in rows]
        assert kept_locations(fns, costs).tolist() == kept

    @pytest.mark.parametrize("family, seed", [
        (dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30), 1),  # desk
        (dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30), 2),
        (dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30), 3),
        (dict(n=12, edge_factor=2.0, m=30, j_count=5, budget=15), 3),  # CI's many.txt
    ], ids=["desk1", "desk2", "desk3", "many"])
    def test_family_relation_keeps_what_each_oracle_keeps(self, family, seed):
        # the water family's one covers(members) call against the same
        # oracles without their family's form, each giving its own
        # one-member relation; and each oracle alone, as rsm3 solves it
        inst = generate_instance(seed=seed, **family)
        costs = inst.network.sensor_costs
        fns, own = inst.build_oracles(), without_form(inst.build_oracles())
        kept = kept_locations(fns, costs)
        assert kept.tolist() == kept_locations(own, costs).tolist()
        assert len(kept) < family["n"]
        for fn, alone in zip(fns, own):
            assert kept_locations([fn], costs).tolist() == kept_locations([alone], costs).tolist()

    def test_one_oracle_without_relation_keeps_all(self):
        rows = np.array([[1, 2], [1, 2]], dtype=float)
        fns = [max_type_fn(rows, np.ones(2), declare=True),
               max_type_fn(rows, np.ones(2), declare=False)]
        assert kept_locations(fns, (1, 1)).tolist() == [0, 1]

    def test_fractional_costs_keep_all(self):
        # 0.2 + 0.3 + 0.1 == 0.6 fits, but the swap 0.1 + 0.2 + 0.3 rounds
        # to 0.6000000000000001: dropping location 3 for its duplicate 0
        # would lose the optimum {1, 2, 3}
        rows = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        fns = [max_type_fn(rows, np.ones(3), declare=True)]
        costs, budget = (0.1, 0.2, 0.3, 0.1), 0.6
        assert kept_locations(fns, costs).tolist() == [0, 1, 2, 3]
        assert kept_locations(fns, (1, 2, 3, 1)).tolist() == [0, 1, 2]
        report = solve_robust(fns, [1.0], costs, budget)
        assert_certified(fns, [1.0], costs, budget, report)
        assert report.eta == 3.0

    def test_integer_costs_past_exact_sums_keep_all(self):
        rows = np.array([[1, 2], [1, 2]], dtype=float)
        fns = [max_type_fn(rows, np.ones(2), declare=True)]
        assert kept_locations(fns, (2**52, 2**52)).tolist() == [0, 1]
        assert kept_locations(fns, (2**51, 2**51)).tolist() == [0]


class TestBranchOrder:
    def test_warm_pool_keeps_the_cold_order(self, monkeypatch):
        # The order comes from the empty-set cuts alone.  The cold solve's
        # final pool holds cuts tight at large sets, with small coefficients
        # on their own elements, so a pool-derived order would change here.
        orders = []
        solve = MasterState.solve

        def recording(self, *args, **kwargs):
            result = solve(self, *args, **kwargs)
            orders.append(self._branch_order.tolist())
            return result

        monkeypatch.setattr(MasterState, "solve", recording)
        inst = generate_instance(n=20, edge_factor=1.5, m=8, j_count=6, budget=20, seed=3)
        fns = inst.build_oracles()
        args = (fns, [1.0] * len(fns), inst.network.sensor_costs, inst.network.budget)
        cold = solve_robust(*args)
        warm = solve_robust(*args, initial_cuts=cold.pool)
        assert len(cold.pool) > len(fns)
        assert orders[1] == orders[0]
        assert (warm.status, warm.eta) == (cold.status, cold.eta)


class TestReadCounts:
    """How many kernel calls the water oracles' stack gets, counted by a
    wrapper around its one kernel, ``_ScenarioStack.rows``, and how many
    calls its structural form gets, counted by a wrapper around
    ``_ScenarioStack.extensions``.  The water oracles read a separation
    through the form; the same oracles without it (``without_form``) take
    the keyed path, whose misses reach the kernel."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        rows = water._ScenarioStack.rows

        def counted(stack, scenario_of_row, members):
            made.append(np.asarray(scenario_of_row).tolist())
            return rows(stack, scenario_of_row, members)

        monkeypatch.setattr(water._ScenarioStack, "rows", counted)
        return made

    @pytest.fixture
    def form_calls(self, monkeypatch):
        made = []
        extensions = water._ScenarioStack.extensions

        def counted(stack, scenario_of_row, subsets, extend=True):
            made.append(list(scenario_of_row))
            return extensions(stack, scenario_of_row, subsets, extend)

        monkeypatch.setattr(water._ScenarioStack, "extensions", counted)
        return made

    @staticmethod
    def per_separation(monkeypatch, *counters):
        """Per separation of the solves that follow, each counter's new
        entries, and the cuts offered to add_cut."""
        steps = []
        solve, add_cut = MasterState.solve, MasterState.add_cut
        offered = []

        def counted_add_cut(state, *cuts):
            offered.append(cuts)
            return add_cut(state, *cuts)

        def counted_solve(state, separate, time_limit=None):
            def counted(*args):
                starts, cuts = [len(made) for made in counters], len(offered)
                value = separate(*args)
                steps.append(([made[start:] for made, start in zip(counters, starts)],
                              [cut for made in offered[cuts:] for cut in made]))
                return value
            return solve(state, counted, time_limit)

        monkeypatch.setattr(MasterState, "add_cut", counted_add_cut)
        monkeypatch.setattr(MasterState, "solve", counted_solve)
        return steps

    @staticmethod
    def family(made):
        """The calls that span several scenarios, as a family read makes."""
        return [call for call in made if len(set(call)) > 1]

    def test_warm_start_is_one_call(self, calls, form_calls):
        # one form call reads every scenario, and no kernel call is made;
        # without the form, one kernel call reads every scenario
        inst = generate_instance(n=14, edge_factor=1.5, m=6, j_count=5, budget=20, seed=3)
        cuts = empty_set_cuts(inst.build_oracles(), [1.0] * 6)
        assert calls == [] and len(form_calls) == 1
        assert sorted(set(form_calls[0])) == list(range(6))
        assert empty_set_cuts(without_form(inst.build_oracles()), [1.0] * 6) == cuts
        assert len(calls) == 1 and len(form_calls) == 1
        assert sorted(set(calls[0])) == list(range(6))

    def test_scalar_read_computes_its_scenario(self, calls):
        fns = generate_instance(n=14, edge_factor=1.5, m=6, j_count=5, budget=20,
                                seed=3).build_oracles()
        fns[3].value({0, 2, 5})
        fns[3].marginal(7, {0, 2, 5})
        assert calls == [[3], [3]]

    @pytest.mark.parametrize("reduce", [False, True])
    def test_separation_reads_once_per_step(self, calls, form_calls, monkeypatch, reduce):
        # Through the form: x in every scenario, then the violated
        # scenarios' cut rows, two form calls per separation however many
        # scenarios it cuts, and no kernel call.  Without the form: x in
        # every scenario, then the violated scenarios' marginals, pair keys
        # and cut keys: at most four family calls per separation, and any
        # other call reads one scenario (a step's read of one oracle, or a
        # scalar read); at most four calls per separation read two or more
        # rows
        steps = self.per_separation(monkeypatch, calls, form_calls)
        inst = generate_instance(n=14, edge_factor=1.5, m=6, j_count=5, budget=20, seed=3)
        net = inst.network
        args = ([1.0] * 6, net.sensor_costs, net.budget, DcgConfig(reduce=reduce))
        form = solve_robust(inst.build_oracles(), *args)
        assert steps and all(kernel == [] and len(made) <= 2 for (kernel, made), _ in steps)
        assert max(len(cuts) for _, cuts in steps) >= 2 - reduce
        del steps[:]
        keyed = solve_robust(without_form(inst.build_oracles()), *args)
        assert report_fields(keyed) == report_fields(form)
        per_separation = [kernel for (kernel, made), _ in steps if not made]
        assert len(per_separation) == len(steps)
        assert all(len(self.family(made)) <= 4 for made in per_separation)
        assert max(len(self.family(made)) for made in per_separation) >= 2 - reduce
        assert all(len(set(call)) == 1 for made in per_separation for call in made
                   if call not in self.family(made))
        assert all(sum(len(call) > 1 for call in made) <= 4 for made in per_separation)

    @pytest.mark.parametrize("n, edges, m, memo", [(70, 80, 8, 9258), (130, 148, 3, 9736)],
                             ids=["wide", "wide130"])
    def test_keyed_route_equals_form_route_past_64_elements(self, n, edges, m, memo):
        # CI's wide.txt and wide130.txt, every violated scenario strengthened:
        # keyed reads go through _members' byte path, and their admission
        # rounds decide as the form's; the memo sizes (each f(empty) aside)
        # pin the keys the keyed route reads
        inst = generate_instance(n=n, edge_factor=edges / n, m=m, j_count=10, budget=20, seed=1)
        net = inst.network
        args = ([1.0] * m, net.sensor_costs, net.budget, DcgConfig(reduce=False, stop_pt=2))
        form = solve_robust(inst.build_oracles(), *args)
        keyed = without_form(inst.build_oracles())
        assert report_fields(solve_robust(keyed, *args)) == report_fields(form)
        assert form.status == "optimal"
        assert sum(len(fn._cache) - 1 for fn in keyed) == memo

    @pytest.mark.parametrize("n, edges, m, seed, admitted, memo",
                             [(70, 80, 8, 4, 56, 7721), (130, 148, 3, 3, 84, 8266)],
                             ids=["wide-seed4", "wide130-seed3"])
    def test_admissions_past_64_elements(self, monkeypatch, n, edges, m, seed, admitted, memo):
        # the sizes of CI's wide.txt and wide130.txt, at seeds whose
        # strengthening admits elements, two of its calls over several
        # scenarios among them: both routes admit the same elements in the
        # same calls and reach the same report
        calls = []  # (functions, elements admitted) of each strengthening call
        strengthen = dcg._strengthen

        def counted(fns, *args):
            built = strengthen(fns, *args)
            calls.append((len(fns), sum(len(found) for found, _ in built)))
            return built

        monkeypatch.setattr(dcg, "_strengthen", counted)
        inst = generate_instance(n=n, edge_factor=edges / n, m=m, j_count=10, budget=20,
                                 seed=seed)
        net = inst.network
        args = ([1.0] * m, net.sensor_costs, net.budget, DcgConfig(reduce=False, stop_pt=2))
        form = solve_robust(inst.build_oracles(), *args)
        form_calls = calls[:]
        del calls[:]
        keyed = without_form(inst.build_oracles())
        assert report_fields(solve_robust(keyed, *args)) == report_fields(form)
        assert form.status == "optimal"
        assert calls == form_calls
        assert sum(count for _, count in calls) == admitted
        assert sum(fns > 1 and count > 0 for fns, count in calls) == 2
        assert sum(len(fn._cache) - 1 for fn in keyed) == memo

    @pytest.mark.parametrize("stop_pt", [0, 2])
    def test_separation_makes_bounded_form_calls(self, monkeypatch, form_calls, stop_pt):
        # Through the form, a separation makes no values_in read, and
        # however many scenarios it cuts: x in every scenario, then the
        # violated ones' marginals and pair rows together, one call per
        # admission round, and their cut rows.  A round admits an element
        # for some function or is the last, and each function's admitted
        # elements are in its generating set, so the rounds are at most one
        # more than the largest generating set cut.
        reads = []

        def counted(fns, keys):
            reads.append(len(fns))
            return values_in(fns, keys)

        monkeypatch.setattr(core, "values_in", counted)
        monkeypatch.setattr(dcg, "values_in", counted)
        steps = self.per_separation(monkeypatch, reads, form_calls)
        for seed in range(3):
            inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5, budget=15, seed=seed)
            net = inst.network
            solve_robust(inst.build_oracles(), [1.0] * 5, net.sensor_costs, net.budget,
                         DcgConfig(reduce=False, stop_pt=stop_pt))
        assert max(len(cuts) for _, cuts in steps) >= 2
        for (read, made), cuts in steps:
            assert read == []
            bound = 4 + max((len(cut.generating_set) for cut in cuts), default=0) if stop_pt else 2
            assert len(made) <= bound
        if stop_pt:
            assert any(len(made) > 3 for (_, made), _ in steps)  # some round ran

    @pytest.mark.parametrize("stop_pt", [0, 2])
    def test_separation_makes_four_values_in_reads(self, monkeypatch, stop_pt):
        # on the keyed path: x in every scenario, then the violated
        # scenarios' marginals, pair keys and cut keys: four values_in calls
        # however many scenarios are cut, and no function reads a key list
        # twice in one separation
        reads = []

        def counted(fns, keys):
            keys = [list(fn_keys) for fn_keys in keys]
            reads.append([(id(fn), tuple(fn_keys)) for fn, fn_keys in zip(fns, keys)])
            return values_in(fns, keys)

        monkeypatch.setattr(core, "values_in", counted)
        monkeypatch.setattr(dcg, "values_in", counted)
        offered = []
        add_cut, solve = MasterState.add_cut, MasterState.solve

        def counted_add_cut(state, *cuts):
            offered.append(len(cuts))
            return add_cut(state, *cuts)

        steps = []  # (the separation's reads, the cuts it offered)

        def counted_solve(state, separate, time_limit=None):
            def counted_separate(*args):
                start, cuts = len(reads), len(offered)
                value = separate(*args)
                steps.append((reads[start:], sum(offered[cuts:])))
                return value
            return solve(state, counted_separate, time_limit)

        monkeypatch.setattr(MasterState, "add_cut", counted_add_cut)
        monkeypatch.setattr(MasterState, "solve", counted_solve)
        for seed in range(3):
            inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5, budget=15, seed=seed)
            net = inst.network
            solve_robust(without_form(inst.build_oracles()), [1.0] * 5, net.sensor_costs,
                         net.budget, DcgConfig(reduce=False, stop_pt=stop_pt))
        assert max(cuts for _, cuts in steps) >= 2
        assert all(len(made) <= 4 for made, _ in steps)
        for made, _ in steps:
            lists = [entry for read in made for entry in read]
            assert len(lists) == len(set(lists))


class TestSharedOracles:
    """Solves that share oracles share their cut memos, as the acceptance
    grid's four configs do; each report is the one fresh oracles give."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_grid_configs_on_shared_and_fresh_oracles(self, seed):
        # the shared solves run in a row, as verify runs them, so the later
        # ones also take the kept warm start
        inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5, budget=15, seed=seed)
        net = inst.network
        shared = inst.build_oracles()
        got = [solve_robust(shared, [1.0] * 5, net.sensor_costs, net.budget, config)
               for config in GRID_CONFIGS]
        wanted = [solve_robust(inst.build_oracles(), [1.0] * 5, net.sensor_costs, net.budget,
                               config) for config in GRID_CONFIGS]
        for got_one, want in zip(got, wanted):
            assert report_fields(got_one) == report_fields(want)
        # the later solves were served cuts the earlier ones built
        built = {id(cut) for cut in got[0].pool}
        assert any(id(cut) in built for report in got[1:] for cut in report.pool)


class TestWarmStartReuse:
    """A solve without initial cuts starts from a copy of the kept warm
    start when its oracles, alphas, costs and budget equal the last such
    solve's, and each report is the one fresh oracles give."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The warm-start builds, named per call: kept_locations and
        MasterState, each one call per build."""
        made = []
        kept, init = dcg.kept_locations, MasterState.__init__

        def counted_kept(*args):
            made.append("kept_locations")
            return kept(*args)

        def counted_init(state, *args, **kwargs):
            made.append("MasterState")
            init(state, *args, **kwargs)

        monkeypatch.setattr(dcg, "kept_locations", counted_kept)
        monkeypatch.setattr(MasterState, "__init__", counted_init)
        dcg._warm_state.cache_clear()
        return made

    @staticmethod
    def problem(seed=0):
        inst = generate_instance(n=12, edge_factor=2.0, m=5, j_count=5, budget=15, seed=seed)
        return inst, [1.0] * 5, list(inst.network.sensor_costs), inst.network.budget

    def test_later_configs_take_the_kept_start(self, builds):
        inst, alphas, costs, budget = self.problem()
        shared = inst.build_oracles()
        got, per_solve = [], []
        for config in GRID_CONFIGS:
            start = len(builds)
            got.append(solve_robust(shared, alphas, costs, budget, config))
            per_solve.append(builds[start:])
        assert per_solve == [["kept_locations", "MasterState"], [], [], []]
        for report, config in zip(got, GRID_CONFIGS):
            want = solve_robust(inst.build_oracles(), alphas, costs, budget, config)
            assert report_fields(report) == report_fields(want)

    @pytest.mark.parametrize("change", ["order", "member", "alpha", "cost", "budget"])
    def test_another_input_builds_again(self, builds, change):
        inst, alphas, costs, budget = self.problem()

        def changed(fns):
            args = [list(fns), list(alphas), list(costs), budget]
            if change == "order":
                args[0].reverse()
            elif change == "member":
                args[0][2] = inst.build_oracles()[2]
            elif change == "alpha":
                args[1][3] = 2.0
            elif change == "cost":
                args[2][4] += 1
            else:
                args[3] += 1
            return args

        shared = inst.build_oracles()
        solve_robust(shared, alphas, costs, budget)
        del builds[:]
        got = solve_robust(*changed(shared))
        assert builds == ["kept_locations", "MasterState"]
        want = solve_robust(*changed(inst.build_oracles()))
        assert report_fields(got) == report_fields(want)

    def test_equal_int_and_float_costs_share_one_start(self, builds):
        inst, alphas, costs, budget = self.problem()
        shared = inst.build_oracles()
        as_ints = solve_robust(shared, alphas, costs, budget)
        del builds[:]
        as_floats = solve_robust(shared, alphas, [float(c) for c in costs], float(budget))
        assert builds == []
        assert report_fields(as_floats) == report_fields(as_ints)

    def test_each_solve_sums_its_own_costs(self, builds):
        # 2**53 + 1 + 1 rounds to 2**53 in floats, so the float costs fit
        # all three items in the budget and the equal int costs two
        fns = [modular_fn([1, 1, 1])]
        big = 2**53
        as_floats = solve_robust(fns, [1.0], [float(big), 1.0, 1.0], big + 1)
        as_ints = solve_robust(fns, [1.0], [big, 1, 1], big + 1)
        assert builds == ["kept_locations", "MasterState"]
        assert (as_floats.eta, as_ints.eta) == (3.0, 2.0)

    def test_initial_cuts_bypass_the_kept_start(self, builds):
        inst, alphas, costs, budget = self.problem()
        shared = inst.build_oracles()
        cold = solve_robust(shared, alphas, costs, budget)
        kept = dcg._warm_state.cache_info()
        del builds[:]
        warm = solve_robust(shared, alphas, costs, budget, initial_cuts=cold.pool)
        assert builds == ["kept_locations", "MasterState"]
        assert dcg._warm_state.cache_info() == kept  # neither read nor replaced
        assert (warm.status, warm.eta, warm.cuts_added) == (cold.status, cold.eta, 0)
        del builds[:]
        again = solve_robust(shared, alphas, costs, budget)
        assert builds == []
        assert report_fields(again) == report_fields(cold)

    def test_kept_arrays_are_read_only_and_outlive_a_growing_pool(self, builds, monkeypatch):
        starts = []
        solve = MasterState.solve

        def recording(state, *args, **kwargs):
            starts.append((list(state.cut_pool), state._C.copy(), state._A.copy(),
                           state._tables.copy()))
            return solve(state, *args, **kwargs)

        monkeypatch.setattr(MasterState, "solve", recording)
        inst, alphas, costs, budget = self.problem()
        shared = inst.build_oracles()
        first = solve_robust(shared, alphas, costs, budget)
        assert first.cuts_added > 0
        state = dcg._warm_state(tuple(shared), tuple(alphas), tuple(costs), budget)
        assert isinstance(state._steps, tuple)
        for name in ("_C", "_A", "_tables", "_cost", "_weights", "_branch_order", "_kept"):
            with pytest.raises(ValueError):
                getattr(state, name)[...] = 0
        second = solve_robust(shared, alphas, costs, budget)
        assert builds == ["kept_locations", "MasterState"]
        assert report_fields(second) == report_fields(first)
        (pool, C, A, tables), (pool2, C2, A2, tables2) = starts
        assert pool2 == pool == state.cut_pool and len(pool) == len(shared)
        for before, after, kept in ((C, C2, state._C), (A, A2, state._A),
                                    (tables, tables2, state._tables)):
            assert (before == after).all() and (before == kept).all()

    def test_two_threads_get_the_fresh_reports(self, builds):
        # a short switch interval interleaves the threads' solves finely
        inst, alphas, costs, budget = self.problem(seed=1)
        shared = inst.build_oracles()
        configs = GRID_CONFIGS * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                got = list(pool.map(lambda config: solve_robust(shared, alphas, costs, budget,
                                                                config), configs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for report, config in zip(got, configs):
            want = solve_robust(inst.build_oracles(), alphas, costs, budget, config)
            assert report_fields(report) == report_fields(want)
