from __future__ import annotations

import functools
import heapq
import math
from collections import Counter
from itertools import combinations, product
from dataclasses import replace
from random import Random
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustmax import (DcgConfig, MasterState, SetFunction, SubmodularCut,
                       empty_set_cuts, generate_instance, solve_robust, water)
from robustmax import core, master
from robustmax.core import TOL, dominance, objective_slack
from robustmax.dcg import kept_locations
from robustmax.master import CELLS, knapsack_grid

from conftest import indicator, pool_value, rhs


def node_bound(cuts, fixed_one, fixed_zero, costs, budget) -> float:
    """Reference node bound: the node where fixed_one is in and fixed_zero is out.

    Per cut: constant + fixed contribution + the best coefficient sum of a
    completion (a set of free variables within the remaining budget), found
    by enumeration; the bound is the minimum over cuts.  Returns -inf when
    fixed_one already overruns the budget.
    """
    ones = frozenset(fixed_one)
    zeros = frozenset(fixed_zero)
    if ones & zeros:
        raise ValueError("fixed sets must be disjoint")
    remaining = budget - sum(costs[j] for j in ones)
    if remaining < 0:
        return -math.inf
    free = [j for j in range(len(costs)) if j not in ones and j not in zeros]
    completions = [chosen for size in range(len(free) + 1)
                   for chosen in combinations(free, size)
                   if sum(costs[j] for j in chosen) <= remaining]
    return min(cut.constant + sum(cut.coefficients[j] for j in ones)
               + max(sum(cut.coefficients[j] for j in chosen) for chosen in completions)
               for cut in cuts)


def random_pool(rng: Random, n: int, k: int):
    return [SubmodularCut(constant=rng.randint(0, 4) * 0.5,
                          coefficients=tuple(rng.randint(0, 5) * 0.5 for _ in range(n)),
                          scenario_index=0)
            for _ in range(k)]


def distinct_sets(pool):
    """The pool with a generating set of its own per cut, so that add_cut,
    which compares only cuts sharing a generating set, keeps every cut."""
    return [replace(cut, generating_set=frozenset({k})) for k, cut in enumerate(pool)]


def enumerate_best(pool, costs, budget):
    n = pool[0].ground_size
    best_val, best_x = -math.inf, None
    for bits in product((0, 1), repeat=n):
        if sum(c for c, x in zip(costs, bits) if x) > budget:
            continue
        val = min(rhs(cut, bits) for cut in pool)
        if val > best_val or (val == best_val and bits < best_x):
            best_val, best_x = val, bits
    return best_val, best_x


class TestAddCut:
    def test_worked_redundancy_filtering(self):
        gen = frozenset({0, 1})
        a = SubmodularCut(3.0, (0.0, 0.0, 2.0, 3.0), 0, gen)
        b = SubmodularCut(2.0, (0.0, 0.0, 3.0, 4.0), 1, gen)
        c = SubmodularCut(5.0, (0.0, 0.0, 3.0, 5.0), 2, gen)
        ms = MasterState(4, (1, 1, 1, 1), 2)
        assert ms.add_cut(a) and ms.add_cut(b)
        assert not ms.add_cut(c)
        assert len(ms.cut_pool) == 2

    def test_duplicate_rejected(self):
        cut = SubmodularCut(1.0, (1.0, 2.0), 0, frozenset({0}))
        ms = MasterState(2, (1, 1), 2)
        assert ms.add_cut(cut)
        assert not ms.add_cut(cut)

    def test_new_cut_evicts_dominated(self):
        gen = frozenset({0})
        weak = SubmodularCut(4.0, (2.0, 2.0), 0, gen)
        strong = SubmodularCut(3.0, (1.0, 2.0), 0, gen)
        ms = MasterState(2, (1, 1), 2)
        ms.add_cut(weak)
        assert ms.add_cut(strong)
        assert ms.cut_pool == [strong]

    def test_different_generating_sets_not_filtered(self):
        a = SubmodularCut(3.0, (1.0, 1.0), 0, frozenset({0}))
        b = SubmodularCut(4.0, (2.0, 2.0), 0, frozenset({1}))
        ms = MasterState(2, (1, 1), 2)
        assert ms.add_cut(a) and ms.add_cut(b)

    def test_dimension_mismatch(self):
        ms = MasterState(3, (1, 1, 1), 2)
        with pytest.raises(ValueError):
            ms.add_cut(SubmodularCut(0.0, (1.0,), 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["constant", "coefficient"])
    def test_non_finite_cut_refused_before_any_insertion(self, bad, where):
        # a NaN cut used to join the pool, and nothing dominates it
        good = SubmodularCut(1.0, (1.0, 2.0), 0, frozenset({0}))
        bad_cut = (SubmodularCut(bad, (1.0, 2.0), 1) if where == "constant"
                   else SubmodularCut(1.0, (1.0, bad), 1))
        ms = MasterState(2, (1, 1), 2)
        with pytest.raises(ValueError, match="cut constant and coefficients must be finite"):
            ms.add_cut(good, bad_cut)
        assert ms.cut_pool == []

    def test_dimension_refused_before_any_insertion(self):
        ms = MasterState(2, (1, 1), 2)
        with pytest.raises(ValueError, match="cut dimension does not match the master"):
            ms.add_cut(SubmodularCut(1.0, (1.0, 2.0), 0), SubmodularCut(0.0, (1.0,), 0))
        assert ms.cut_pool == []

    def test_call_counts_accepted_cuts(self):
        gen = frozenset({0})
        weak = SubmodularCut(4.0, (2.0, 2.0), 0, gen)
        strong = SubmodularCut(3.0, (1.0, 2.0), 1, gen)
        other = SubmodularCut(9.0, (9.0, 9.0), 2, frozenset({1}))
        ms = MasterState(2, (1, 1), 2)
        # weak is accepted, then dropped by strong within the same call; the
        # duplicate of strong is refused
        assert ms.add_cut(weak, strong, other, strong) == 3
        assert ms.cut_pool == [strong, other]
        assert ms.add_cut(weak) == 0
        assert ms.add_cut() == 0


def scalar_dominates(a: SubmodularCut, b: SubmodularCut) -> bool:
    """Reference for the dominance rule: one pair, one coefficient at a time."""
    slack = objective_slack((a, b))
    if a.constant > b.constant + slack:
        return False
    return all(ca <= cb + slack for ca, cb in zip(a.coefficients, b.coefficients))


def scalar_add_cut(pool: list, cut: SubmodularCut) -> bool:
    """Reference for MasterState.add_cut: insert one cut into ``pool`` in
    place, dropping the same-set cuts it dominates, unless one dominates it."""
    same_gen = [c for c in pool if c.generating_set == cut.generating_set]
    if any(scalar_dominates(old, cut) for old in same_gen):
        return False
    drop = {id(old) for old in same_gen if scalar_dominates(cut, old)}
    pool[:] = [c for c in pool if id(c) not in drop] + [cut]
    return True


def cut_rows(cuts) -> tuple:
    """The arguments of :func:`~robustmax.core.dominance` for ``cuts``: their
    constants, their (g, n) coefficient rows and their magnitudes."""
    return (np.array([c.constant for c in cuts], dtype=float),
            np.array([c.coefficients for c in cuts], dtype=float),
            [c.magnitude for c in cuts])


def assert_rows_in_step(ms: MasterState):
    """Row k of the master's arrays is pool cut k's constant and
    coefficients, with ==."""
    assert ms._C.shape == (len(ms.cut_pool),) and ms._A.shape == (len(ms.cut_pool), ms.n)
    assert ms._C.tolist() == [c.constant for c in ms.cut_pool]
    assert ms._A.tolist() == [list(c.coefficients) for c in ms.cut_pool]


VALUES = (0.0, 0.5, 1.0, 2.0, 3.0)
# A pool of one cut z, then a call whose first cut drops z, a chain of cuts
# each dropping the one before, and z re-offered last (see
# test_call_re_offers_a_pool_cut_it_dropped).
RE_OFFERED = SubmodularCut(0.0, (0.0,), 0, frozenset())
RE_OFFER_STREAM = (1, [[RE_OFFERED],
                       [SubmodularCut(-1.0, (0.0,), 1, frozenset()),
                        SubmodularCut(-2.0, (1e-09,), 2, frozenset()),
                        SubmodularCut(-3.0, (2.9999999990000002e-09,), 3, frozenset()),
                        RE_OFFERED]])


@st.composite
def cut_streams(draw):
    """Calls of cuts on n <= 4 variables whose generating sets repeat.  Each
    cut is fresh, a copy of an earlier one (or the object itself), an earlier
    one with one entry moved to exactly its slack above it or the next float
    past that, or an earlier one lowered so that it dominates it."""
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.sampled_from([frozenset(), frozenset({0}), frozenset({n - 1, 0})]),
                         min_size=1, max_size=3))
    cuts = []
    for k in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["fresh", "same", "copy", "at_slack", "past_slack",
                                     "dominating"]) if cuts else st.just("fresh"))
        if kind == "fresh":
            cuts.append(SubmodularCut(draw(st.sampled_from(VALUES)),
                                      tuple(draw(st.sampled_from(VALUES)) for _ in range(n)),
                                      k, draw(st.sampled_from(gens))))
            continue
        base = draw(st.sampled_from(cuts))
        if kind == "same":
            cuts.append(base)
        elif kind == "copy":
            cuts.append(replace(base, scenario_index=k))
        elif kind == "dominating":
            j = draw(st.integers(-1, n - 1))  # -1: the constant
            entries = [base.constant, *base.coefficients]
            entries[j + 1] -= draw(st.sampled_from((0.5, 1.0)))
            cuts.append(replace(base, constant=entries[0], coefficients=tuple(entries[1:]),
                                scenario_index=k))
        else:
            # Raise entry j (-1: the constant) by TOL times base's magnitude
            # and lower another entry by one, so that, when base's
            # right-hand side at x = 1 is at least one, the new cut's
            # magnitude is below base's and the raise is the pair's slack.
            j = draw(st.integers(-1, n - 1))
            entries = [base.constant, *base.coefficients]
            raised = entries[j + 1] + TOL * base.magnitude
            if kind == "past_slack":
                raised = math.nextafter(raised, math.inf)
            entries[1 if j == -1 else 0] -= 1.0
            entries[j + 1] = raised
            cuts.append(replace(base, constant=entries[0], coefficients=tuple(entries[1:]),
                                scenario_index=k))
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=len(cuts) + 1))
    calls, rest = [], list(cuts)
    for size in sizes:
        calls.append(rest[:size])
        rest = rest[size:]
    return n, calls + [rest]


class TestBatchedInsertion:
    @settings(max_examples=300, deadline=None)
    @given(cut_streams())
    def test_matches_one_at_a_time_insertion(self, stream):
        n, calls = stream
        ms = MasterState(n, (1,) * n, n)
        pool: list = []
        for call in calls:
            accepted = sum(scalar_add_cut(pool, cut) for cut in call)
            assert ms.add_cut(*call) == accepted
            assert [id(c) for c in ms.cut_pool] == [id(c) for c in pool]

    def test_call_re_offers_a_pool_cut_it_dropped(self):
        # The call's first cut drops the pool's cut z, a chain of cuts each
        # dropping the one before leaves none that dominates z, and z itself
        # comes back as the call's last cut: it is accepted once, at the end.
        z = SubmodularCut(0.0, (0.0,), 0, frozenset())
        chain = [SubmodularCut(-1.0, (0.0,), 1, frozenset()),
                 SubmodularCut(-2.0, (1e-09,), 2, frozenset()),
                 SubmodularCut(-3.0, (2.9999999990000002e-09,), 3, frozenset())]
        ms = MasterState(1, (1,), 1)
        ms.add_cut(z)
        pool = [z]
        accepted = sum(scalar_add_cut(pool, cut) for cut in chain + [z])
        assert ms.add_cut(*chain, z) == accepted == 4
        assert [id(c) for c in ms.cut_pool] == [id(c) for c in pool] == [id(chain[2]), id(z)]

    @settings(max_examples=300, deadline=None)
    @given(cut_streams())
    @example(RE_OFFER_STREAM)
    def test_rows_stay_in_step_with_pool(self, stream):
        n, calls = stream
        ms = MasterState(n, (1,) * n, n)
        assert_rows_in_step(ms)
        for call in calls:
            ms.add_cut(*call)
            assert_rows_in_step(ms)

    @staticmethod
    def compared_sets(ms, call) -> list:
        """The generating sets of the cuts each dominance call of
        ``ms.add_cut(*call)`` compares, one list per call.  Each call's row
        block must be that of every pool cut, then every call cut, that
        shares one generating set, and the calls must follow the order in
        which the call's sets first appear."""
        merged = ms.cut_pool + list(call)
        blocks = []

        def recording(constants, coefficients, magnitudes):
            blocks.append((constants.tolist(), coefficients.tolist(), list(magnitudes)))
            return dominance(constants, coefficients, magnitudes)

        with patch.object(master, "dominance", recording):
            ms.add_cut(*call)
        gens = list(dict.fromkeys(c.generating_set for c in call))
        seen = []
        for block in blocks:
            while gens:
                gen = gens.pop(0)
                same = [c for c in merged if c.generating_set == gen]
                constants, coefficients, magnitudes = cut_rows(same)
                if block == (constants.tolist(), coefficients.tolist(), magnitudes):
                    seen.append([gen] * len(same))
                    break
            else:
                raise AssertionError(f"no generating set's cuts have the rows {block}")
        return seen

    @settings(max_examples=300, deadline=None)
    @given(cut_streams())
    def test_one_comparison_per_repeated_set(self, stream):
        n, calls = stream
        ms = MasterState(n, (1,) * n, n)
        for call in calls:
            gens = {c.generating_set for c in call}
            counts = Counter(c.generating_set for c in ms.cut_pool + call
                             if c.generating_set in gens)
            seen = self.compared_sets(ms, call)
            assert all(len(set(sets)) == 1 for sets in seen)
            repeated = {gen: k for gen, k in counts.items() if k > 1}
            assert len(seen) == len(repeated)
            assert {sets[0]: len(sets) for sets in seen} == repeated

    def test_two_repeated_sets_are_compared_apart(self):
        a, b = frozenset({0}), frozenset({1})
        ms = MasterState(2, (1, 1), 2)
        ms.add_cut(SubmodularCut(4.0, (2.0, 2.0), 0, a), SubmodularCut(4.0, (2.0, 2.0), 1, b))
        call = [SubmodularCut(3.0, (1.0, 2.0), 2, a), SubmodularCut(3.0, (2.0, 1.0), 3, b),
                SubmodularCut(9.0, (9.0, 9.0), 4, frozenset())]
        assert self.compared_sets(ms, call) == [[a, a], [b, b]]
        assert [c.scenario_index for c in ms.cut_pool] == [2, 3, 4]

    @settings(max_examples=200, deadline=None)
    @given(cut_streams(), st.sampled_from((1, 5, 1 << 16)))
    def test_array_rule_equals_scalar_rule(self, stream, chunk):
        _, calls = stream
        cuts = [cut for call in calls for cut in call]
        if not cuts:
            return
        with patch.object(core, "CHUNK", chunk):
            beats = dominance(*cut_rows(cuts))
        assert beats.tolist() == [[scalar_dominates(a, b) for b in cuts] for a in cuts]

    def test_slack_boundary(self):
        # the stream's at-slack cut lies exactly on the rule's boundary: it
        # dominates its base, and the next float past it does not
        base = SubmodularCut(2.0, (1.0, 3.0), 0, frozenset())
        at = replace(base, constant=1.0, coefficients=(1.0 + TOL * base.magnitude, 3.0))
        past = replace(at, coefficients=(math.nextafter(at.coefficients[0], math.inf), 3.0))
        assert objective_slack((base, at)) == objective_slack((base, past)) == TOL * base.magnitude
        assert scalar_dominates(at, base) and not scalar_dominates(past, base)
        assert dominance(*cut_rows((base, at, past))).tolist() == [
            [True, False, False], [True, True, True], [False, True, True]]


class TestSolve:
    def test_warmstart_triple_budget_one(self, warmstart_triple):
        ms = MasterState(3, (1, 1, 1), 1)
        for cut in empty_set_cuts(warmstart_triple, [1.0] * 3):
            ms.add_cut(cut)
        res = ms.solve(pool_value)
        assert res.eta == pytest.approx(2.0, abs=1e-12)
        assert res.x == (0, 1, 0)
        assert res.status == "optimal"

    def test_zero_budget(self):
        ms = MasterState(2, (1, 1), 0)
        ms.add_cut(SubmodularCut(0.0, (1.0, 2.0), 0))
        res = ms.solve(pool_value)
        assert res.eta == 0.0 and res.x == (0, 0)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            MasterState(2, (1, 1), 1).solve(pool_value)

    def test_matches_enumeration_on_random_pools(self):
        rng = Random(7)
        for trial in range(43):
            n = rng.randint(2, 9) if trial < 40 else 11 + trial - 40  # up to 14
            pool = random_pool(rng, n, rng.randint(1, 8))
            costs = [rng.randint(1, 4) for _ in range(n)]
            budget = rng.randint(0, sum(costs))
            res = loaded_state(pool, costs, budget).solve(pool_value)
            ref_val, _ = enumerate_best(pool, costs, budget)
            assert res.eta == pytest.approx(ref_val, abs=1e-9)
            assert ref_val - 1e-9 <= res.bound <= ref_val + objective_slack(pool)
            # x is feasible and optimal; among tied optima any may come back
            assert sum(c for c, xj in zip(costs, res.x) if xj) <= budget
            assert min(rhs(cut, res.x) for cut in pool) == pytest.approx(ref_val, abs=1e-9)

    def test_pruning_bound_covers_optimum(self):
        # The solve prunes bound ties; the bounds of children pruned
        # before they reach the heap still count towards the returned bound,
        # at any scale of the pool.
        rng = Random(31)
        for _ in range(30):
            n = rng.randint(3, 9)
            pool = random_pool(rng, n, rng.randint(2, 6))
            costs = [rng.randint(1, 3) for _ in range(n)]
            budget = rng.randint(1, sum(costs))
            for scale in (1.0, 1e-6, 1e-9):
                scaled = [SubmodularCut(c.constant * scale,
                                        tuple(a * scale for a in c.coefficients), 0)
                          for c in pool]
                res = loaded_state(scaled, costs, budget).solve(pool_value)
                exact, _ = enumerate_best(scaled, costs, budget)
                assert res.eta <= exact + 1e-9 * scale
                assert res.bound >= exact - 1e-9 * scale
                assert res.bound - res.eta <= objective_slack(scaled)

    def test_eta_is_pool_min_at_x(self):
        rng = Random(19)
        for _ in range(20):
            n = rng.randint(2, 8)
            pool = random_pool(rng, n, rng.randint(1, 6))
            costs = [rng.randint(1, 3) for _ in range(n)]
            res = loaded_state(pool, costs, rng.randint(0, 2 * n)).solve(pool_value)
            assert res.eta == pytest.approx(min(rhs(c, res.x) for c in pool), abs=1e-9)
            assert res.eta <= res.bound + 1e-9

    def test_dominated_cut_never_changes_optimum(self):
        rng = Random(5)
        for _ in range(15):
            n = rng.randint(2, 7)
            pool = random_pool(rng, n, rng.randint(1, 5))
            costs = [rng.randint(1, 3) for _ in range(n)]
            budget = rng.randint(1, sum(costs))
            base = pool[0]
            shifted = SubmodularCut(base.constant + 1.0,
                                    tuple(c + 0.5 for c in base.coefficients), 0,
                                    base.generating_set)
            with_dom = loaded_state(pool + [shifted], costs, budget)
            assert len(with_dom.cut_pool) == len(pool) + 1
            assert loaded_state(pool, costs, budget).solve(pool_value).eta == \
                pytest.approx(with_dom.solve(pool_value).eta, abs=1e-12)

    def test_budget_ties_decided_in_element_order(self):
        # 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001, above a budget of 0.6,
        # as brute_force_robust and users sum it; the tolerant search must
        # not hand that set back as the incumbent
        cut = SubmodularCut(0.0, (1.0, 1.0, 1.0), 0)
        for budget, eta in ((0.6, 2.0), (0.1 + 0.2 + 0.3, 3.0)):
            res = loaded_state([cut], (0.1, 0.2, 0.3), budget).solve(pool_value)
            assert res.eta == eta
            assert sum(c for c, x in zip((0.1, 0.2, 0.3), res.x) if x) <= budget

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            MasterState(2, (1, 1), -1)

    @pytest.mark.parametrize("order", [[-1], [5], [0, 3], [0.5], [True, False, True], [0, 0]])
    def test_malformed_order_rejected(self, order):
        # -1 would branch on element n - 1, 5 would index past the mask, 0.5
        # would raise numpy's IndexError, bools would read as a mask ({0, 2})
        # and a repeated variable would be branched on twice
        with pytest.raises(ValueError, match="order"):
            MasterState(3, (1, 1, 1), 2, order)

    def test_lex_tie_break(self):
        # Two optima tie; the master may return either.  Only
        # brute_force_robust promises the lexicographically smallest x.
        pool = [SubmodularCut(0.0, (1.0, 1.0), 0)]
        res = loaded_state(pool, (1, 1), 1).solve(pool_value)
        ref_val, ref_x = enumerate_best(pool, (1, 1), 1)
        assert ref_x == (0, 1)
        assert res.eta == res.bound == ref_val == 1.0
        assert res.x in ((0, 1), (1, 0))

    def test_time_limit_returns_valid_sandwich(self):
        rng = Random(2)
        pool = random_pool(rng, 14, 10)
        costs = [rng.randint(1, 4) for _ in range(14)]
        ms = loaded_state(pool, costs, 10)
        res = ms.solve(pool_value, time_limit=0.0)
        assert res.status == "time_limit"
        assert res.eta <= res.bound + 1e-9
        assert sum(c for c, x in zip(costs, res.x) if x) <= 10
        full = ms.solve(pool_value)
        assert res.eta <= full.eta + 1e-9 <= res.bound + 2e-9


class TestNodeBound:
    def test_all_items_fit(self):
        cut = SubmodularCut(0.0, (2.0, 2.0, 3.0), 0)
        assert node_bound([cut], (), (), (1, 1, 1), 3) == pytest.approx(7.0)

    def test_zero_budget_leaves_constant(self):
        cut = SubmodularCut(0.0, (2.0, 2.0, 3.0), 0)
        assert node_bound([cut], (), (), (1, 1, 1), 0) == pytest.approx(0.0)

    def test_warmstart_triple_single_item(self, warmstart_triple):
        cuts = empty_set_cuts(warmstart_triple, [1.0] * 3)
        assert node_bound(cuts, (), (), (1, 1, 1), 1) == pytest.approx(3.0)

    def test_exact_knapsack_not_fractional(self):
        # A fractional split would take item 0 and half of item 1 for 6.5;
        # no set within the budget scores above 6.
        cut = SubmodularCut(0.0, (5.0, 3.0, 3.0), 0)
        ms = loaded_state([cut], (3, 2, 2), 4)
        ms._prepare()
        assert node_bound([cut], (), (), (3, 2, 2), 4) == ms._evaluate(ms._C, 0, 0.0) == 6.0

    def test_infeasible_fixed_one_is_minus_inf(self):
        cut = SubmodularCut(0.0, (1.0, 1.0), 0)
        assert node_bound([cut], {0, 1}, (), (3, 3), 4) == -math.inf

    def test_overlap_rejected(self):
        cut = SubmodularCut(0.0, (1.0, 1.0), 0)
        with pytest.raises(ValueError):
            node_bound([cut], {0}, {0}, (1, 1), 2)

    def test_never_increases_under_fixing(self):
        rng = Random(13)
        for _ in range(25):
            n = rng.randint(3, 8)
            pool = random_pool(rng, n, rng.randint(1, 5))
            costs = [rng.randint(1, 4) for _ in range(n)]
            budget = rng.randint(2, sum(costs))
            ones, zeros = set(), set()
            last = node_bound(pool, ones, zeros, costs, budget)
            order = list(range(n))
            rng.shuffle(order)
            for j in order:
                if rng.random() < 0.5 and sum(costs[t] for t in ones | {j}) <= budget:
                    ones.add(j)
                else:
                    zeros.add(j)
                now = node_bound(pool, ones, zeros, costs, budget)
                assert now <= last + 1e-9
                last = now

    def test_upper_bounds_every_completion(self):
        rng = Random(29)
        for _ in range(20):
            n = rng.randint(2, 7)
            pool = random_pool(rng, n, rng.randint(1, 4))
            costs = [rng.randint(1, 3) for _ in range(n)]
            budget = rng.randint(1, sum(costs))
            ones = {j for j in range(n) if rng.random() < 0.3}
            if sum(costs[j] for j in ones) > budget:
                continue
            zeros = {j for j in range(n) if j not in ones and rng.random() < 0.3}
            bound = node_bound(pool, ones, zeros, costs, budget)
            for bits in product((0, 1), repeat=n):
                if any(bits[j] != 1 for j in ones) or any(bits[j] != 0 for j in zeros):
                    continue
                if sum(c for c, x in zip(costs, bits) if x) > budget:
                    continue
                assert min(rhs(c, bits) for c in pool) <= bound + 1e-9


def loaded_state(pool, costs, budget) -> MasterState:
    """A master holding every cut of the pool, dominated ones included."""
    ms = MasterState(len(costs), costs, budget)
    for cut in distinct_sets(pool):
        ms.add_cut(cut)
    return ms


class TestEvaluateMatchesReference:
    """MasterState._evaluate against node_bound at the nodes the search can
    reach: each depth fixes the next variable of the branch order.  Integer
    costs put the tables on an exact grid, where the two are equal; other
    costs may round weights down, where the tables may only bound above."""

    def walk(self, ms, pool, rng, cases, grow=None):
        """One random root-to-leaf walk.  With ``grow`` = (depth, cuts), the
        cuts join the pool at that depth and the walk goes on in the same
        branch order; from there on each bound must equal, with ==, that of
        a state given that order and loaded afresh with the grown pool."""
        ms._prepare()
        n, costs = ms.n, ms.costs
        ones, zeros = set(), set()
        base = ms._C.copy()
        fresh = None
        for level in range(n + 1):
            if grow is not None and level == grow[0]:
                size = len(ms.cut_pool) + len(grow[1])
                for cut in grow[1]:
                    ms.add_cut(cut)
                cases.add("grown")
                if len(ms.cut_pool) < size:
                    cases.add("dropped")
                order = ms._branch_order.tolist()
                ms._prepare()
                assert ms._branch_order.tolist() == order
                pool = list(ms.cut_pool)
                fresh = MasterState(n, costs, ms.budget, order)
                for cut in pool:
                    fresh.add_cut(cut)
                assert fresh.cut_pool == pool
                fresh._prepare()
                base = ms._C + ms._A @ np.array(indicator(ones, n), dtype=float)
            cost_ones = sum(costs[j] for j in ones)
            bound = ms._evaluate(base, level, cost_ones)
            assert type(bound) is float
            if fresh is not None:
                assert bound == fresh._evaluate(base, level, cost_ones)
            expected = node_bound(pool, ones, zeros, costs, ms.budget)
            if all(float(c).is_integer() for c in costs):
                assert bound == expected, (level, sorted(ones), bound, expected)
            else:
                assert bound >= expected, (level, sorted(ones), bound, expected)
            free_cost = sum(costs[j] for j in range(n) if j not in ones | zeros)
            remaining = ms.budget - cost_ones
            if remaining < 0:
                cases.add("overrun")
                assert bound == -math.inf
                return
            if remaining == 0:
                cases.add("zero remaining")
            if 0 < free_cost <= remaining:
                cases.add("all fit")
            if level == n:
                return
            j = int(ms._branch_order[level])
            if rng.random() < 0.5:
                ones.add(j)
                base = base + ms._A[:, j]
            else:
                zeros.add(j)

    def test_random_walks(self):
        rng = Random(41)
        cases = set()
        for trial in range(150):
            n = rng.randint(1, 12)
            costs = [rng.randint(1, 4) for _ in range(n)]
            if trial % 6 == 1:
                # no common grid; a tiny item weighs 0 on the fallback grid
                costs = [c + math.sqrt(j + 2) / 10 for j, c in enumerate(costs)]
                costs[rng.randrange(n)] = 1e-3
                cases.add("fallback grid")
            if trial % 3 == 0:
                # every item has the same ratio in each cut
                pool = [SubmodularCut(rng.randint(0, 4) * 0.5,
                                      tuple(c * rng.randint(1, 3) * 0.5 for c in costs), 0)
                        for _ in range(rng.randint(1, 4))]
                cases.add("tied ratios")
            else:
                pool = random_pool(rng, n, rng.randint(1, 8))
            budget = rng.choice([0, rng.randint(0, int(sum(costs))), int(sum(costs)) + 1])
            ms = loaded_state(pool, costs, budget)
            if 0 in ms._weights:
                cases.add("weight 0")
            self.walk(ms, pool, rng, cases)
        assert cases == {"overrun", "zero remaining", "all fit", "tied ratios",
                         "fallback grid", "weight 0"}

    def test_cuts_added_mid_walk(self):
        # The tables built under the old pool must not outlive _prepare: the
        # new cuts add rows, and a stronger copy of an old cut drops its row.
        rng = Random(43)
        cases = set()
        for _ in range(150):
            n = rng.randint(1, 12)
            costs = [rng.randint(1, 4) for _ in range(n)]
            pool = distinct_sets(random_pool(rng, n, rng.randint(1, 6)))
            extra = [replace(cut, generating_set=frozenset({len(pool) + k}))
                     for k, cut in enumerate(random_pool(rng, n, rng.randint(1, 4)))]
            if rng.random() < 0.5:
                old = rng.choice(pool)
                extra.append(replace(old, constant=old.constant - 0.5,
                                     coefficients=tuple(c / 2 for c in old.coefficients)))
            budget = rng.choice([rng.randint(0, sum(costs)), sum(costs) + 1])
            ms = MasterState(n, costs, budget)
            for cut in pool:
                ms.add_cut(cut)
            self.walk(ms, pool, rng, cases, grow=(rng.randint(0, n), extra))
        assert {"grown", "dropped", "zero remaining", "all fit"} <= cases


@st.composite
def knapsack_cases(draw):
    """A random pool with costs from one family, at a scale of 10^-12 to
    10^9, and a budget that is half the time some set's exact cost."""
    n = draw(st.integers(1, 9))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["integer", "tenths", "incommensurable", "tiny and large"]))
    if family == "integer":
        costs = [rng.randint(1, 10) for _ in range(n)]
    elif family == "tenths":
        costs = [rng.randint(1, 40) / 10 for _ in range(n)]
    elif family == "incommensurable":
        costs = [rng.randint(1, 4) + math.sqrt(rng.randint(2, 99)) / 10 for _ in range(n)]
    else:
        # items far below the fallback unit weigh 0
        costs = [rng.choice((rng.randint(1, 9) * 1e-6, rng.randint(1, 10))) for _ in range(n)]
    scale = 10.0 ** draw(st.integers(-12, 9))
    costs = [c * scale for c in costs]
    if rng.random() < 0.5:
        budget = rng.uniform(0, sum(costs))
    else:
        budget = sum(c for c in costs if rng.random() < 0.5)
    return random_pool(rng, n, rng.randint(1, 6)), costs, budget


class TestKnapsackGrid:
    def test_denominator_cap_comes_from_cells(self):
        # Costs 65-70 share no grid c_min / q before q = 65 (u = 1), and
        # budget 200 then spans 200 cells, within the cap.
        weights, unit = knapsack_grid(np.array([65.0, 66.0, 70.0]), 200.0)
        assert (weights.tolist(), unit) == ([65, 66, 70], 1.0)
        weights, unit = knapsack_grid(np.array([65e-6, 66e-6, 70e-6]), 200e-6)
        assert weights.tolist() == [65, 66, 70]
        assert unit == pytest.approx(1e-6, rel=1e-12)

    def test_budget_above_every_grid_falls_back(self):
        # budget > CELLS * c_min leaves no q to search
        weights, unit = knapsack_grid(np.array([1.0, 2.0]), 300.0)
        assert unit == 300.0 / CELLS
        assert weights.tolist() == [0, 1]


class TestTableBoundIsValid:
    @settings(max_examples=300, deadline=None)
    @given(knapsack_cases())
    def test_bound_covers_every_fitting_completion(self, case):
        # Every node the search can reach, bounded as the search bounds it
        # (costs and per-cut values summed in branch order), against every
        # x that fits and agrees with the node's fixed variables.
        pool, costs, budget = case
        ms = loaded_state(pool, costs, budget)
        ms._prepare()
        order = [int(j) for j in ms._branch_order]
        n = len(costs)
        for bits in product((0, 1), repeat=n):
            if sum(c for c, b in zip(costs, bits) if b) > budget:
                continue
            value = min(rhs(cut, bits) for cut in pool)
            base, cost_ones = ms._C, 0.0
            for level in range(n + 1):
                assert ms._evaluate(base, level, cost_ones) >= value, (bits, level)
                if level < n and bits[order[level]]:
                    base = base + ms._A[:, order[level]]
                    cost_ones += float(ms._cost[order[level]])


def recorded_solves(monkeypatch) -> list:
    """Collect the MasterResult of every MasterState.solve call."""
    results = []
    solve = MasterState.solve

    def recording(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(MasterState, "solve", recording)
    return results


class TestNodeCounts:
    def test_nodes_count_evaluations(self, monkeypatch):
        evaluations = []
        evaluate = MasterState._evaluate

        def counting(self, *args):
            evaluations.append(1)
            return evaluate(self, *args)

        monkeypatch.setattr(MasterState, "_evaluate", counting)
        rng = Random(3)
        pool = random_pool(rng, 10, 6)
        costs = [rng.randint(1, 4) for _ in range(10)]
        res = loaded_state(pool, costs, 12).solve(pool_value)
        assert res.nodes == len(evaluations) > 1

    # Master nodes of a whole solve_robust run, which is one branch-and-cut
    # tree; any change to the bound, the branching order, the pruning or the
    # separation rule shows here.
    @pytest.mark.parametrize("family, seed, nodes, eta", [
        (dict(n=12, edge_factor=2.0, m=5, j_count=5, budget=15), 1, 44, 9.6),
        (dict(n=20, edge_factor=1.5, m=8, j_count=6, budget=20), 3, 131, 15.166666666666666),
        (dict(n=24, edge_factor=41 / 36, m=10, j_count=8, budget=20), 2, 208, 19.75),
        (dict(n=54, edge_factor=41 / 36, m=50, j_count=18, budget=45), 1, 7395,
         48.444444444444436),
        # the benchmark's desk family
        (dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30), 1, 401,
         19.333333333333332),
    ])
    def test_pinned_tree_size(self, monkeypatch, family, seed, nodes, eta):
        inst = generate_instance(seed=seed, **family)
        fns = inst.build_oracles()
        results = recorded_solves(monkeypatch)
        report = solve_robust(fns, [1.0] * len(fns), inst.network.sensor_costs,
                              inst.network.budget, DcgConfig(reduce=True, stop_pt=2))
        assert report.status == "optimal"
        assert report.eta == pytest.approx(eta, abs=1e-12)
        assert len(results) == 1
        assert report.nodes == results[0].nodes == nodes

    def test_wrapped_oracles_grow_the_same_tree(self, monkeypatch):
        # A wrapper made with functools.wraps, as a tracer puts around each
        # water oracle's callable, copies ``covers`` with the other function
        # attributes, so the solve fixes the same locations at zero.
        inst = generate_instance(n=20, edge_factor=1.5, m=8, j_count=6, budget=20, seed=3)
        costs = inst.network.sensor_costs
        args = ([1.0] * 8, costs, inst.network.budget, DcgConfig(reduce=True, stop_pt=2))
        results = recorded_solves(monkeypatch)
        plain = solve_robust(inst.build_oracles(), *args)

        def wrapping(ground_size, eval_fn, name=""):
            return SetFunction(ground_size, functools.wraps(eval_fn)(lambda S: eval_fn(S)),
                               name=name)

        monkeypatch.setattr(water, "SetFunction", wrapping)
        fns = inst.build_oracles()
        assert len(kept_locations(fns, costs)) < inst.network.node_count
        wrapped = solve_robust(fns, *args)
        assert (wrapped.eta, results[1].nodes) == (plain.eta, results[0].nodes)


class TestOpenNodes:
    def test_no_heap_entry_holds_per_cut_values(self, monkeypatch):
        # An open node is its fixings: every entry pushed or popped holds
        # scalars and its bool ones, never a float array the size of a pool
        # that a pool change could leave stale.
        entries = []

        def heappush(heap, entry):
            entries.append(entry)
            heapq.heappush(heap, entry)

        def heappop(heap):
            entries.append(heapq.heappop(heap))
            return entries[-1]

        monkeypatch.setattr(master, "heapq", SimpleNamespace(heappush=heappush,
                                                              heappop=heappop))
        inst = generate_instance(n=20, edge_factor=1.5, m=8, j_count=6, budget=20, seed=3)
        fns = inst.build_oracles()
        report = solve_robust(fns, [1.0] * len(fns), inst.network.sensor_costs,
                              inst.network.budget, DcgConfig(reduce=True, stop_pt=2))
        assert report.status == "optimal"
        assert len({entry[-1] for entry in entries}) > 1  # the pool changed mid-solve
        assert not [entry for entry in entries for value in entry
                    if isinstance(value, np.ndarray) and value.dtype.kind == "f"]

    def test_each_stamp_is_the_pool_its_bound_was_computed_under(self, monkeypatch):
        # A pushed entry's last field is the pool change count at the
        # _evaluate call that gave its bound: the last one before the push.
        events = []
        evaluate = MasterState._evaluate

        def recording(self, *args):
            events.append(("bound", evaluate(self, *args), self._changes))
            return events[-1][1]

        def heappush(heap, entry):
            events.append(("push", entry))
            heapq.heappush(heap, entry)

        monkeypatch.setattr(MasterState, "_evaluate", recording)
        monkeypatch.setattr(master, "heapq", SimpleNamespace(heappush=heappush,
                                                              heappop=heapq.heappop))
        inst = generate_instance(n=20, edge_factor=1.5, m=8, j_count=6, budget=20, seed=3)
        fns = inst.build_oracles()
        report = solve_robust(fns, [1.0] * len(fns), inst.network.sensor_costs,
                              inst.network.budget, DcgConfig(reduce=True, stop_pt=2))
        assert report.status == "optimal"
        pushes = [i for i, event in enumerate(events) if event[0] == "push"]
        for i in pushes:
            _, bound, changes = next(e for e in reversed(events[:i]) if e[0] == "bound")
            assert (-events[i][1][0], events[i][1][-1]) == (bound, changes)
        # Offers change the pool only after the root's push and a one child's
        # push, so a later push whose next bound reads another pool is a one
        # child offered after it was stamped.
        assert any(next(e[2] for e in events[i:] if e[0] == "bound") != events[i][1][-1]
                   for i in pushes[1:] if any(e[0] == "bound" for e in events[i:]))


def knapsack_entries(ms: MasterState, depth: int) -> np.ndarray:
    """Reference for ``ms._tables[depth]``: per cell and cut, the best
    coefficient sum over the sets of the items free at ``depth`` whose
    weights fit in that many cells, by enumeration."""
    free = [int(j) for j in ms._branch_order[depth:]]
    sets = [chosen for size in range(len(free) + 1) for chosen in combinations(free, size)]
    return np.array([[max(sum(cut.coefficients[j] for j in chosen) for chosen in sets
                          if sum(ms._weights[j] for j in chosen) <= cell)
                      for cut in ms.cut_pool]
                     for cell in range(ms._cells + 1)])


class TestTableRebuild:
    def test_tables_are_exact_knapsacks(self, monkeypatch):
        # Every (depth, cell, cut) entry of the stacked tables, for the pool
        # a solve starts with and for each pool it grows to mid-walk, against
        # a brute-force 0-1 knapsack over the depth's free items, on the
        # state's weights.  Coefficients in halves sum exactly, so the two
        # are equal.  Integer costs put the tables on an exact grid; the
        # last trials also take costs off any exact grid with one far below
        # the budget's cell, so that item weighs 0, and budgets below the
        # dearest cost, so that item is heavier than every cell.
        prepare, add_cut = MasterState._prepare, MasterState.add_cut
        pools, changes, adding, edges = [], {}, [], set()

        def adding_cut(self, *cuts):
            adding.append(self._changes)
            accepted = add_cut(self, *cuts)
            adding.pop()
            # the pool's last change was prepared inside the call that made it
            assert changes.get(id(self), 0) == self._changes
            return accepted

        def preparing(self):
            # only inside an add_cut that changed the pool, once per change
            assert adding and self._changes == adding[-1] + 1
            assert self._changes > changes.get(id(self), 0)
            pools.append(self._changes > 1)  # False for the pool a solve starts with
            changes[id(self)] = self._changes
            prepare(self)
            order = self._branch_order
            assert isinstance(self._tables, np.ndarray)
            assert self._tables.shape == (len(order) + 1, self._cells + 1, len(self.cut_pool))
            assert order.tolist() == (list(range(self.n)) if given is None else given)
            for depth in range(len(order) + 1):
                assert (self._tables[depth] == knapsack_entries(self, depth)).all(), depth
            weights = self._weights[order]
            edges.update({"free"} if (weights == 0).any() else (),
                         {"heavy"} if (weights > self._cells).any() else ())

        monkeypatch.setattr(MasterState, "_prepare", preparing)
        monkeypatch.setattr(MasterState, "add_cut", adding_cut)
        rng = Random(29)
        for trial in range(60):
            changes.clear()
            n = rng.randint(1, 7)
            costs = [rng.randint(1, 4) for _ in range(n)]
            hidden = distinct_sets(random_pool(rng, n, rng.randint(2, 6)))
            given = rng.sample(range(n), rng.randint(1, n)) if trial % 2 else None
            budget = rng.randint(0, sum(costs) + 1)
            if trial >= 40 and trial % 2:
                costs = [rng.randint(1, 8) for _ in range(n)]
                budget = rng.randint(0, max(costs) - 1)
            elif trial >= 40:
                costs = [rng.uniform(1, 4) for _ in range(n)]
                costs[rng.randrange(n)] = rng.uniform(1e-4, 1e-3)
                budget = rng.uniform(1, sum(costs))
            ms = MasterState(n, costs, budget, given)
            ms.add_cut(SubmodularCut(10.0, (0.0,) * n, 0, frozenset({n})))

            def separate(x, value):
                ms.add_cut(*(cut for cut in hidden if rhs(cut, x) < value))
                return min(rhs(cut, x) for cut in hidden)

            ms.solve(separate)
        assert False in pools and True in pools  # fresh pools and pools grown mid-walk
        assert edges == {"free", "heavy"}

    def test_one_rebuild_per_iteration(self, monkeypatch):
        # The warm insertion's rebuild, then one per separation that adds
        # cuts: 12 on the benchmark's desk seed 1.
        prepares = []
        prepare = MasterState._prepare

        def counting(self):
            prepares.append(1)
            prepare(self)

        monkeypatch.setattr(MasterState, "_prepare", counting)
        inst = generate_instance(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30, seed=1)
        fns = inst.build_oracles()
        report = solve_robust(fns, [1.0] * len(fns), inst.network.sensor_costs,
                              inst.network.budget, DcgConfig(reduce=True, stop_pt=2))
        assert len(prepares) == report.iterations == 12

    def test_incremental_pool_matches_fresh_state(self):
        rng = Random(23)
        for _ in range(20):
            n = rng.randint(3, 10)
            pool = distinct_sets(random_pool(rng, n, rng.randint(2, 6)))
            costs = [rng.randint(1, 4) for _ in range(n)]
            budget = rng.randint(1, sum(costs))
            grown = MasterState(n, costs, budget)
            split = rng.randint(1, len(pool) - 1)
            for cut in pool[:split]:
                grown.add_cut(cut)
            grown.solve(pool_value)
            for cut in pool[split:]:
                grown.add_cut(cut)
            res = grown.solve(pool_value)
            fresh = loaded_state(pool, costs, budget).solve(pool_value)
            assert (res.eta, res.x, res.bound, res.nodes) == \
                (fresh.eta, fresh.x, fresh.bound, fresh.nodes)


@st.composite
def hidden_pools(draw):
    """A hidden random pool, each cut with a generating set of its own, and a
    weakened copy of one of them that the copy's original dominates."""
    n = draw(st.integers(1, 10))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    hidden = distinct_sets(random_pool(rng, n, rng.randint(1, 8)))
    original = rng.choice(hidden)
    weak = replace(original, constant=original.constant + 1.0,
                   coefficients=tuple(c + 0.5 for c in original.coefficients))
    costs = [rng.randint(1, 4) for _ in range(n)]
    return hidden, original, weak, costs, rng.randint(0, sum(costs))


class TestBranchAndCut:
    def test_each_candidate_offered_once(self):
        # The callback adds only the hidden cut that gives the value it
        # returns, tight at x, so x's pool value drops to that value, as the
        # master relies on.  Each x is offered once, when its node is
        # created; a zero child, which has its parent's ones, never is.
        hidden = [SubmodularCut(2.0, (0.0, 1.5, 1.0, 0.0), 0, frozenset({0})),
                  SubmodularCut(0.0, (0.5, 2.5, 2.0, 1.5), 0, frozenset({1})),
                  SubmodularCut(1.0, (1.0, 0.0, 1.0, 1.5), 0, frozenset({2})),
                  SubmodularCut(0.5, (2.5, 1.5, 2.0, 2.0), 0, frozenset({3}))]
        costs, budget = (1, 2, 3, 1), 5
        ms = MasterState(4, costs, budget)
        ms.add_cut(SubmodularCut(6.0, (0.0,) * 4, 0, frozenset({4})))
        offers = []

        def separate(x, value):
            offers.append((x, value))
            worst = min(hidden, key=lambda cut: rhs(cut, x))
            if rhs(worst, x) < value:
                ms.add_cut(worst)
            return rhs(worst, x)

        res = ms.solve(separate)
        # the tree's bound at each offer is the master's own record
        assert len(res.separation_bounds) == len(offers)
        triples = [(x, value, bound) for (x, value), bound in zip(offers, res.separation_bounds)]
        assert triples == [((0, 0, 0, 0), 6.0, 6.0), ((1, 0, 0, 0), 0.5, 4.5),
                           ((1, 1, 0, 0), 3.0, 4.5), ((1, 0, 1, 0), 2.5, 4.0),
                           ((1, 0, 1, 1), 4.0, 4.0), ((1, 1, 0, 1), 3.5, 3.5)]
        assert (res.x, res.eta, res.bound, res.status) == ((1, 1, 0, 1), 3.5, 3.5, "optimal")
        assert res.eta == enumerate_best(hidden, costs, budget)[0]

    @settings(max_examples=200, deadline=None)
    @given(hidden_pools())
    def test_lazy_cuts_match_full_pool(self, case):
        # The live pool starts with the weak copy alone.  The first
        # separation reveals its original, so add_cut drops a row mid-solve,
        # and every separation reveals the hidden cuts violated at the
        # candidate; open nodes must be re-bounded under the grown pool.
        hidden, original, weak, costs, budget = case
        ms = MasterState(len(costs), costs, budget)
        ms.add_cut(weak)
        offered, values = set(), []

        def separate(x, value):
            assert x not in offered  # each candidate reaches the callback once
            offered.add(x)
            values.append(value)
            assert value == pytest.approx(min(rhs(cut, x) for cut in ms.cut_pool), abs=1e-9)
            ms.add_cut(original)
            for cut in hidden:
                if rhs(cut, x) < value:
                    ms.add_cut(cut)
            return min(rhs(cut, x) for cut in hidden)

        res = ms.solve(separate=separate)
        assert len(res.separation_bounds) == len(values)
        assert all(bound >= value for bound, value in zip(res.separation_bounds, values))
        ref_val, _ = enumerate_best(hidden, costs, budget)
        assert weak not in ms.cut_pool
        assert res.status == "optimal"
        assert min(rhs(cut, res.x) for cut in hidden) == pytest.approx(ref_val, abs=1e-9)
        assert res.eta == pytest.approx(ref_val, abs=1e-9)
        assert res.bound >= res.eta
        assert sum(c for c, x in zip(costs, res.x) if x) <= budget
        # a later solve orders its branching by the grown pool, as a fresh
        # state would
        again = ms.solve(pool_value)
        fresh = loaded_state(ms.cut_pool, costs, budget).solve(pool_value)
        assert (again.eta, again.x, again.bound, again.nodes) == \
            (fresh.eta, fresh.x, fresh.bound, fresh.nodes)
