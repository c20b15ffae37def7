from __future__ import annotations

import hashlib
import heapq
import math
import re
import sys
import threading
from dataclasses import replace
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmax import (Network, ParseError, Scenario, SetFunction, check_submodular,
                       generate_instance, parse_instance, reduction_matrix,
                       serialize_instance)
from robustmax import water
from robustmax.core import build_cuts, structural_values, values_in
from robustmax.dcg import strengthen_generating_sets, values_at

from conftest import keyed_stand_in, scenario_oracle


def with_budget(instance, budget: int):
    """Copy of the instance with a different knapsack budget."""
    return replace(instance, network=replace(instance.network, budget=budget))


def shortest_times(network: Network, scenario: Scenario, source: int) -> np.ndarray:
    """Reference: arrival time of the contamination at every node from one
    source, inf when unreachable; a fresh adjacency and Dijkstra per call."""
    adj: list = [[] for _ in range(network.node_count)]
    for (u, v), w in zip(network.edges, scenario.edge_weights):
        adj[u].append((v, w))
    dist = np.full(network.node_count, math.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_saved(network: Network, scenario: Scenario):
    """Reference: saved[s, j] counted from sorted arrival times, one source
    at a time, and the number of nodes each source reaches."""
    n = network.node_count
    k = len(network.sources)
    saved = np.zeros((n, k))
    total = np.zeros(k)
    for col, src in enumerate(network.sources):
        dist = shortest_times(network, scenario, src)
        finite = np.sort(dist[np.isfinite(dist)])
        total[col] = finite.size
        # nodes with arrival >= arrival at the sensor are saved
        reach = np.isfinite(dist)
        saved[reach, col] = finite.size - np.searchsorted(finite, dist[reach], side="left")
    return saved, total


class TestShortestTimes:
    """The reference arrival times, on worked examples."""

    def test_source_zero(self, figure_network):
        net, sc = figure_network
        d = shortest_times(net, sc, 0)
        assert d[0] == 0 and math.isinf(d[1]) and d[2] == 4 and d[3] == 1

    def test_source_one(self, figure_network):
        net, sc = figure_network
        d = shortest_times(net, sc, 1)
        assert math.isinf(d[0]) and d[1] == 0 and math.isinf(d[2]) and d[3] == 2

    def test_isolated_source(self):
        net = Network(node_count=3, edges=((0, 1),), sources=(2,),
                      source_probabilities=(1.0,), sensor_costs=(1, 1, 1), budget=1)
        d = shortest_times(net, Scenario((5,)), 2)
        assert d[2] == 0 and math.isinf(d[0]) and math.isinf(d[1])
        assert reduction_matrix(net, [Scenario((5,))])[0].tolist() == [[0.0], [0.0], [1.0]]

    def test_weight_count_must_match(self, figure_network):
        net, _ = figure_network
        with pytest.raises(ValueError, match="weight count"):
            reduction_matrix(net, [Scenario((1, 2))])


class TestReductionMatrix:
    def test_worked_entries(self, figure_network):
        net, sc = figure_network
        saved = reduction_matrix(net, [sc])[0]
        assert saved.shape == (4, 2) and saved.dtype == np.float64
        assert saved[0, 0] == 3  # source, gray, gray
        assert saved[1, 1] == 2
        assert saved[2, 0] == 1
        assert saved[1, 0] == 0

    def test_sensor_at_source_saves_everything(self, figure_network):
        net, sc = figure_network
        saved = reduction_matrix(net, [sc])[0]
        _, total = reference_saved(net, sc)
        for jj, src in enumerate(net.sources):
            assert saved[src, jj] == total[jj]

    def test_two_route_agreement(self):
        # saved[s, j] must equal the reachable count minus the strict-arrival
        # damage count at the sensor's own arrival time
        for seed in range(6):
            inst = generate_instance(n=9, edge_factor=1.5, m=2, j_count=3,
                                     budget=20, seed=seed)
            net = inst.network
            for sc in inst.scenarios:
                saved = reduction_matrix(net, [sc])[0]
                for jj, src in enumerate(net.sources):
                    d = shortest_times(net, sc, src)
                    finite = d[np.isfinite(d)]
                    for s in range(net.node_count):
                        if math.isinf(d[s]):
                            assert saved[s, jj] == 0
                        else:
                            damage_before = int((finite < d[s]).sum())
                            assert saved[s, jj] == len(finite) - damage_before

    def test_damage_counter_is_nondecreasing(self, figure_network):
        net, sc = figure_network
        for src in net.sources:
            d = shortest_times(net, sc, src)
            finite = np.sort(d[np.isfinite(d)])
            counts = [int((finite < t).sum()) for t in finite]
            assert counts == sorted(counts)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 72), st.integers(0, 2**32 - 1),
           st.sampled_from(("int", "half", "float")), st.data())
    def test_equals_reference(self, n, seed, weights, data):
        # few edges leave nodes isolated, sources among them; half-integer
        # weights tie arrival times along different paths
        e_count = data.draw(st.integers(1, min(n * (n - 1), 2 * n)))
        inst = generate_instance(n=n, edge_factor=e_count / n, m=1,
                                 j_count=data.draw(st.integers(1, n)), budget=n,
                                 seed=seed % 1000)
        net = inst.network
        rng = Random(seed)
        draw = {"int": lambda: rng.randint(1, 10), "half": lambda: rng.randint(2, 20) / 2,
                "float": lambda: rng.uniform(1, 10)}[weights]
        sc = Scenario(tuple(draw() for _ in net.edges))
        saved = reduction_matrix(net, [sc])[0]
        expect, total = reference_saved(net, sc)
        assert saved.dtype == np.float64 and saved.shape == expect.shape
        assert (saved == expect).all()
        assert (saved[list(net.sources), range(len(net.sources))] == total).all()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.sampled_from(("int", "half", "float")), st.data())
    def test_stack_equals_reference(self, n, weights, data):
        # a network built directly holds parallel edges, self-loops and
        # isolated sources, and each scenario of the stack must read its own
        # weights: every slice equals its one-scenario reference.  Repeating
        # drawn edges at their own weights makes parallel edges common.
        node = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=3 * n))
        edges = tuple(edges + data.draw(st.lists(st.sampled_from(edges), max_size=len(edges))))
        sources = tuple(data.draw(st.lists(node, min_size=1, max_size=n)))
        net = Network(node_count=n, edges=edges, sources=sources,
                      source_probabilities=(1.0 / len(sources),) * len(sources),
                      sensor_costs=(1,) * n, budget=n)
        weight = {"int": st.integers(1, 10), "half": st.integers(2, 20).map(lambda w: w / 2),
                  "float": st.floats(1, 10)}[weights]
        scenarios = [Scenario(tuple(data.draw(st.lists(weight, min_size=len(edges),
                                                       max_size=len(edges)))))
                     for _ in range(data.draw(st.integers(1, 4)))]
        saved = reduction_matrix(net, scenarios)
        assert saved.shape == (len(scenarios), n, len(sources)) and saved.dtype == np.float64
        for i, sc in enumerate(scenarios):
            assert (saved[i] == reference_saved(net, sc)[0]).all()

    def test_chunks_change_nothing(self, monkeypatch):
        # chunks of one scenario, of two (the last one short), and the whole stack
        inst = generate_instance(n=20, edge_factor=1.5, m=5, j_count=6, budget=20, seed=4)
        expect = [reference_saved(inst.network, sc)[0] for sc in inst.scenarios]
        for rows in (1, 2 * 20 * 6, water.CHUNK):
            monkeypatch.setattr(water, "CHUNK", rows)
            saved = reduction_matrix(inst.network, inst.scenarios)
            assert all((saved[i] == e).all() for i, e in enumerate(expect))


class TestExpectedReductionOracle:
    def test_worked_values(self, figure_network):
        net, sc = figure_network
        fn = scenario_oracle(net, sc)
        assert fn.value({1, 2}) == pytest.approx(1.5, abs=1e-12)
        assert fn.value(()) == 0.0
        assert fn.value({2}) == pytest.approx(0.5, abs=1e-12)

    def test_full_placement_saves_all_reachable(self):
        for seed in range(5):
            inst = generate_instance(n=8, edge_factor=1.4, m=2, j_count=3,
                                     budget=20, seed=seed)
            net = inst.network
            for sc in inst.scenarios:
                fn = scenario_oracle(net, sc)
                _, total = reference_saved(net, sc)
                expect = sum(p * t for p, t in zip(net.source_probabilities, total))
                assert fn.value(range(net.node_count)) == pytest.approx(expect, abs=1e-9)

    def test_always_monotone_submodular(self):
        for seed in range(6):
            inst = generate_instance(n=7, edge_factor=1.3, m=2, j_count=2,
                                     budget=15, seed=100 + seed)
            for fn in inst.build_oracles():
                assert check_submodular(fn)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_covers_relation_holds(self, seed):
        # covers[k, j] iff k saves at least as much as j for every source;
        # then k is worth at least j next to any S, and j adds nothing to k
        rng = Random(seed)
        n = rng.randint(3, 14)
        inst = generate_instance(n=n, edge_factor=rng.choice((1.0, 1.5)), m=1,
                                 j_count=rng.randint(1, min(4, n)), budget=n,
                                 seed=rng.randrange(1000))
        fn = inst.build_oracles()[0]
        saved = reduction_matrix(inst.network, [inst.scenarios[0]])[0]
        covers = fn.covers
        assert (covers == (saved[:, None] >= saved[None]).all(axis=2)).all()
        pairs = np.argwhere(covers & ~np.eye(n, dtype=bool)).tolist()
        for k, j in pairs:
            for _ in range(4):
                S = frozenset(v for v in range(n) if rng.random() < 0.3)
                assert fn.value(S | {k}) >= fn.value(S | {j})
                assert fn.value(S | {j, k}) == fn.value(S | {k})

    @pytest.mark.parametrize("seed", range(4))
    def test_covers_relation_in_chunks(self, monkeypatch, seed):
        # a chunk of one source's (n, n) comparison, five chunks, then of
        # two, three chunks with the last one short: each scenario's
        # relation reads as in one chunk
        inst = generate_instance(n=14, edge_factor=1.5, m=2, j_count=5, budget=14, seed=seed)
        stack = inst.build_oracles()[0]._eval.family[0]
        m, n, k = stack.saved.shape
        assert k == 5 and n * n * k <= water.CHUNK
        whole = [stack.covers(i) for i in range(m)]
        for sources in (1, 2):
            monkeypatch.setattr(water, "CHUNK", sources * n * n)
            for i, relation in enumerate(whole):
                saved = stack.saved[i]
                assert (relation == (saved[:, None] >= saved[None]).all(axis=2)).all()
                assert (stack.covers(i) == relation).all()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((4, 12, 36, 52, 53, 72, 105)), st.integers(0, 2**32 - 1), st.data())
    def test_batch_equals_scalar_evaluation(self, n, seed, data):
        # the ranking kernel must give the scalar value itself, not a
        # rounding of it, at every size: n = 52 fills one block of ranks
        # (the full-set row sums all 52 weights), 53 starts a second, 105
        # spans three, and n = 72 is past int64 bitmasks
        j_count = data.draw(st.integers(1, n))
        inst = generate_instance(n=n, edge_factor=41 / 36, m=1, j_count=j_count,
                                 budget=n, seed=seed % 1000)
        evaluate = scenario_oracle(inst.network, inst.scenarios[0])._eval
        stack, i = evaluate.family
        rng = np.random.default_rng(seed)
        members = rng.random((300, n)) < rng.random((300, 1))
        members[0] = False
        members[1] = True
        scalar = [evaluate(frozenset(np.flatnonzero(row).tolist())) for row in members]
        assert stack.batch(i, members).tolist() == scalar

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(3, 40), st.integers(0, 2**32 - 1), st.data())
    def test_stacked_reads_equal_batch_rows(self, m, n, seed, data):
        # An instance's oracles share one stack: reads that alternate
        # between scenarios and sets (S in scenario 0, T in 3, S in 1, ...)
        # must each give the scenario's own batch row, which the
        # one-scenario oracle gives as well.
        inst = generate_instance(n=n, edge_factor=41 / 36, m=m,
                                 j_count=data.draw(st.integers(1, n)), budget=n,
                                 seed=seed % 1000)
        evaluators = [fn._eval for fn in inst.build_oracles()]
        rng = np.random.default_rng(seed)
        members = rng.random((4, n)) < rng.random((4, 1))
        sets = [frozenset(np.flatnonzero(row).tolist()) for row in members]
        rows = [evaluate.family[0].batch(evaluate.family[1], members).tolist()
                for evaluate in evaluators]
        reads = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, 3)),
                                   min_size=1, max_size=30))
        for i, k in reads:
            assert evaluators[i](sets[k]) == rows[i][k]
        for i, scenario in enumerate(inst.scenarios):
            single = scenario_oracle(inst.network, scenario)._eval
            assert [single(S) for S in sets] == rows[i]

    def test_concurrent_reads_of_alternating_sets(self):
        # Two threads read two sets in opposite phase through oracles that
        # share one stack; the stack's kernel keeps no state, so every value
        # must be the scenario's own whichever read runs when.
        n = 30
        inst = generate_instance(n=n, edge_factor=41 / 36, m=6, j_count=10, budget=n, seed=4)
        evaluators = [fn._eval for fn in inst.build_oracles()]
        members = np.zeros((2, n), dtype=bool)
        members[0, ::2] = True
        members[1, 1::3] = True
        sets = [frozenset(np.flatnonzero(row).tolist()) for row in members]
        rows = [evaluate.family[0].batch(evaluate.family[1], members).tolist()
                for evaluate in evaluators]
        wrong = []

        def read(phase):
            for t in range(600):
                k = (t + phase) % 2
                for i, evaluate in enumerate(evaluators):
                    value = evaluate(sets[k])
                    if value != rows[i][k]:
                        wrong.append((i, k, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(phase,)) for phase in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.one_of(st.integers(3, 40), st.sampled_from((65, 72))),
           st.integers(0, 2**32 - 1), st.data())
    def test_family_reads_equal_scalar_and_batch(self, m, n, seed, data):
        # values_in fills the misses of an instance's oracles with one
        # stacked kernel call: each value must equal the scenario's scalar
        # evaluation and its batch row with ==, past 64-bit keys too, and
        # values and memo must be the ones per-function reads leave, with
        # each key list in any container values takes (m = 1 reads the
        # one-scenario stack).
        inst = generate_instance(n=n, edge_factor=41 / 36, m=m,
                                 j_count=data.draw(st.integers(1, n)), budget=n,
                                 seed=seed % 1000)
        rng = np.random.default_rng(seed)
        members = rng.random((5, n)) < rng.random((5, 1))
        members[0] = True  # the full set
        pool = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in members]
        reads = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from(pool)),
                                   min_size=1, max_size=30))
        keys = [[key for i, key in reads if i == scenario] for scenario in range(m)]
        containers = {
            "list": list, "tuple": tuple, "generator": lambda ks: (k for k in ks),
            # numpy integers up to int64; past 63 bits an object array of ints
            "numpy": lambda ks: np.array(ks, dtype=np.int64 if n < 63 else object),
        }
        contain = containers[data.draw(st.sampled_from(sorted(containers)))]
        fns, alone = inst.build_oracles(), inst.build_oracles()
        got = values_in(fns, [contain(fn_keys) for fn_keys in keys])
        assert got == [fn.values(contain(fn_keys)).tolist() for fn, fn_keys in zip(alone, keys)]
        for fn, fn_keys, row, own in zip(fns, keys, got, alone):
            evaluate = fn._eval
            sets = [frozenset(j for j in range(n) if key >> j & 1) for key in fn_keys]
            assert row == [evaluate(S) for S in sets]
            if fn_keys:
                held = np.array([[j in S for j in range(n)] for S in sets], dtype=bool)
                stack, i = evaluate.family
                assert row == stack.batch(i, held).tolist()
            assert fn._cache == own._cache

    @pytest.mark.parametrize("n", [12, 72])
    def test_family_read_refuses_out_of_range_keys(self, n):
        fns = generate_instance(n=n, edge_factor=41 / 36, m=3, j_count=4, budget=n,
                                seed=2).build_oracles()
        for bad in (1 << n, -1):
            with pytest.raises(ValueError):
                values_in(fns, [[3], [bad, 5], [6]])

    def test_family_read_mixed_with_plain_functions(self):
        # a plain SetFunction and oracles of two instances in one read: each
        # function gets its own values
        n = 10
        first = generate_instance(n=n, edge_factor=1.5, m=3, j_count=4, budget=n,
                                  seed=1).build_oracles()
        second = generate_instance(n=n, edge_factor=1.5, m=2, j_count=3, budget=n,
                                   seed=2).build_oracles()
        plain = SetFunction(n, lambda S: float(len(S)))
        fns = [first[0], plain, second[1], first[2], second[0]]
        keys = [[0b1011, 0b1], [0b111, 0b1011], [0b1011, 0b110], [0b1011], [0b1100]]
        got = values_in(fns, keys)
        for fn, fn_keys, row in zip(fns, keys, got):
            assert row == [fn._eval(frozenset(j for j in range(n) if key >> j & 1))
                           for key in fn_keys]
        assert got[1] == [3.0, 3.0]


FIGURE_TEXT = """\
# four nodes, three directed edges, two sources
nodes 4
edges 3
0 2
0 3
1 3
sources 2 0 1
costs 1 1 1 1
budget 1
scenarios 1
4 1 2
alpha unit
"""


# nodes 4, edges 6 (lines 3-8), sources (9), probs (10), costs (11),
# budget (12), scenarios 2 (13-15), alpha unit (16)
SMALL_LINES = serialize_instance(generate_instance(n=4, edge_factor=1.5, m=2, j_count=2,
                                                   budget=10, seed=1)).splitlines()


def synthetic_stack(rng: np.random.Generator, n: int, m: int, ties: bool):
    """A stack over drawn (m, n, k) saved counts: counts of 0 to 2 when
    ``ties`` (many ties, top-1 with top-2 included), else of 0 to n; some
    sources have probability 0."""
    k = int(rng.integers(1, 7))
    saved = rng.integers(0, 3 if ties else n + 1, size=(m, n, k)).astype(float)
    probs = rng.random(k) * (rng.random(k) < 0.7)
    probs[0] += probs.sum() == 0
    network = SimpleNamespace(source_probabilities=tuple((probs / probs.sum()).tolist()))
    return water._ScenarioStack(saved, network)


def by_rows(stack, owners, members) -> np.ndarray:
    """f at each row of the (B, n) bool matrix, in scenario owners[r]: a
    reference that shares no code with the stack's reads but
    ``water._expected``, the max of the row's members' saved rows (0 for an
    empty row) dotted with probs.  The kernel must read the same: each
    scenario's rows in one ``rows`` call, which takes the ranking kernel for
    two or more rows up to two rank blocks, and every row in one call."""
    owners = np.asarray(owners)
    k = stack.saved.shape[2]
    best = np.array([stack.saved[i][row].max(axis=0) if row.any() else np.zeros(k)
                     for i, row in zip(owners.tolist(), members)]).reshape(-1, k)
    out = water._expected(best, stack.probs)
    full = members.any(axis=1)
    for i in set(owners[full].tolist()):
        mine = np.flatnonzero(full & (owners == i))
        assert stack.rows(owners[mine], members[mine]).tolist() == out[mine].tolist()
    if full.any():
        assert stack.rows(owners[full], members[full]).tolist() == out[full].tolist()
    return out


class TestStructuralForm:
    """The water family's structural form, ``extensions`` and
    ``complements``, equals its kernel with ==, and the cuts and
    strengthened sets read through it equal those of keyed stand-ins."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 12, 36, 105, 130)), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_form_equals_rows(self, n, m, seed, ties):
        # empty S and S = N among rows that span the scenarios, on both
        # sides of two rank blocks (n <= 104 ranks, n >= 105 gathers)
        rng = np.random.default_rng(seed)
        stack = synthetic_stack(rng, n, m, ties)
        rows = int(rng.integers(2, 9))
        members = rng.random((rows, n)) < rng.random((rows, 1))
        members[0], members[1] = False, True
        owners = rng.integers(0, m, rows)
        sets = [np.flatnonzero(row).tolist() for row in members]
        values, after = stack.extensions(owners.tolist(), sets)
        alone, none = stack.extensions(owners.tolist(), sets, extend=False)
        assert none is None and alone.tolist() == values.tolist()
        assert values.tolist() == by_rows(stack, owners, members).tolist()
        plus = (members[:, None, :] | np.eye(n, dtype=bool)).reshape(-1, n)  # S + j by j
        assert after.tolist() == by_rows(stack, owners.repeat(n), plus).reshape(rows, n).tolist()
        for i in range(m):
            full, without = stack.complements(i)
            assert type(full) is float
            assert full == by_rows(stack, [i], np.ones((1, n), dtype=bool))[0]
            assert without.tolist() == by_rows(stack, [i] * n, ~np.eye(n, dtype=bool)).tolist()
            assert stack.complements(i)[1] is without  # built once

    def test_form_in_chunks(self, monkeypatch):
        # rows split across chunks read as in one call
        stack = synthetic_stack(np.random.default_rng(3), 12, 3, True)
        rng = np.random.default_rng(4)
        sets = [np.flatnonzero(rng.random(12) < 0.3).tolist() for _ in range(20)]
        owners = rng.integers(0, 3, 20).tolist()
        whole = stack.extensions(owners, sets)
        for rows in (1, 12 * stack.saved.shape[2] * 3):
            monkeypatch.setattr(water, "CHUNK", rows)
            chunked = stack.extensions(owners, sets)
            assert [part.tolist() for part in chunked] == [part.tolist() for part in whole]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((1, 2, 12, 36, 105, 130)), st.integers(1, 3),
           st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3))
    def test_cuts_and_sets_equal_a_keyed_stand_in(self, n, m, seed, ties, stop_pt):
        # the stand-in is each oracle's eval function without its family,
        # read one key at a time; half the draws are generated instances
        rng = np.random.default_rng(seed)
        if n >= 12 and rng.random() < 0.5:
            fns = generate_instance(n=n, edge_factor=41 / 36, m=m, j_count=max(1, n // 3),
                                    budget=30, seed=seed).build_oracles()
        else:
            stack = synthetic_stack(rng, n, m, ties)
            fns = [stack.oracle(i) for i in range(m)]
        keyed = [keyed_stand_in(fn) for fn in fns]
        incumbent = frozenset(rng.choice(n, int(rng.integers(0, min(n, 8) + 1)),
                                         replace=False).tolist())
        at = values_at(fns, incumbent)
        assert at == values_at(keyed, incumbent)
        gens = strengthen_generating_sets(fns, incumbent, at, stop_pt)
        assert gens == strengthen_generating_sets(keyed, incumbent, at, stop_pt)
        sets = gens + [frozenset(), frozenset(range(n)), incumbent]
        owners = [i % m for i in range(len(sets))]
        alphas = [float(rng.choice((1.0, 0.3, 7.0))) for _ in sets]
        cuts = build_cuts([fns[i] for i in owners], sets, alphas, owners)
        assert cuts == build_cuts([keyed[i] for i in owners], sets, alphas, owners)
        assert all(fn._cache == {0: 0.0} for fn in fns)  # the form fills no memo

    def test_two_families_take_the_keyed_path(self):
        # oracles of two instances share no family: their reads are keyed,
        # and their cuts are those of each family's form
        one, two = (generate_instance(n=12, edge_factor=2.0, m=2, j_count=4, budget=15,
                                      seed=seed).build_oracles() for seed in (1, 2))
        mixed = [one[0], two[1]]
        assert structural_values(mixed, [{1}, {2}]) is None
        sets = [frozenset({1, 5}), frozenset({0, 3, 7})]
        cuts = build_cuts(mixed, sets, [1.0, 2.0], [0, 1])
        assert all(fn._cache != {0: 0.0} for fn in mixed)  # read by keys
        fresh = [generate_instance(n=12, edge_factor=2.0, m=2, j_count=4, budget=15,
                                   seed=seed).build_oracles()[i] for seed, i in ((1, 0), (2, 1))]
        assert cuts == [build_cuts([fn], [S], [a], [i])[0] for fn, S, a, i in
                        zip(fresh, sets, [1.0, 2.0], [0, 1])]


class TestKernelChoice:
    """Which of the stack's two kernels each read takes, seen by wrappers
    around ``_ScenarioStack.rows``, which every read enters, and
    ``_ScenarioStack.batch``, the ranking kernel."""

    @pytest.fixture
    def kernels(self, monkeypatch):
        made = {"rows": [], "batch": []}
        rows, batch = water._ScenarioStack.rows, water._ScenarioStack.batch

        def counted_rows(stack, scenario_of_row, members):
            made["rows"].append(np.asarray(scenario_of_row).tolist())
            return rows(stack, scenario_of_row, members)

        def counted_batch(stack, i, members):
            keys = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in members]
            made["batch"].append((i, keys))
            return batch(stack, i, members)

        monkeypatch.setattr(water._ScenarioStack, "rows", counted_rows)
        monkeypatch.setattr(water._ScenarioStack, "batch", counted_batch)
        return made

    @staticmethod
    def scalar(fn, keys):
        """fn's scalar evaluate at each bitmask, past the memo."""
        return [fn._eval(frozenset(j for j in range(fn.ground_size) if key >> j & 1))
                for key in keys]

    @pytest.mark.parametrize("n, seed", [(12, 1), (36, 2), (72, 3), (104, 4)])
    def test_one_oracle_read_is_one_ranking_call(self, kernels, n, seed):
        # warm keys, repeats and two or more misses in one oracle: one
        # ranking call over the distinct misses, entered through rows
        fns = generate_instance(n=n, edge_factor=41 / 36, m=4, j_count=5, budget=n,
                                seed=seed).build_oracles()
        rng = Random(seed)
        keys = [rng.getrandbits(n) | 1 for _ in range(12)]
        fn = fns[2]
        fn.values(keys[:3])
        kernels["rows"].clear()
        kernels["batch"].clear()
        keys += keys[4:7]
        got = fn.values(keys).tolist()
        missing = set(keys[3:])
        assert len(missing) >= 2
        assert kernels["rows"] == [[2] * len(missing)]
        assert len(kernels["batch"]) == 1
        i, read = kernels["batch"][0]
        assert i == 2 and sorted(read) == sorted(missing)
        assert got == self.scalar(fn, keys)

    @pytest.mark.parametrize("n, seed", [(105, 1), (130, 2)])
    def test_past_two_blocks_one_oracle_read_takes_the_gather(self, kernels, n, seed):
        # past n = 2 * RANK_BITS even two or more misses in one oracle take
        # the gather-and-reduce kernel, and no ranking is built
        fns = generate_instance(n=n, edge_factor=41 / 36, m=3, j_count=n // 3, budget=n,
                                seed=seed).build_oracles()
        stack = fns[0]._eval.family[0]
        rng = Random(seed)
        keys = [rng.getrandbits(n) | 1 for _ in range(8)] + [(1 << n) - 1, 1 << n - 1]
        got = fns[1].values(keys).tolist()
        assert kernels["batch"] == []
        assert kernels["rows"] == [[1] * len(set(keys))]
        assert stack._rankings == [None] * 3
        assert got == self.scalar(fns[1], keys)

    @pytest.mark.parametrize("n, seed", [(12, 5), (72, 6)])
    def test_ranking_in_chunks_of_three_rows(self, kernels, monkeypatch, n, seed):
        # with the product bound at three rows' worth, a 300-row read of one
        # scenario takes 100 chunks, one rank block each at n = 12 and two
        # at n = 72, and every value is the scalar read's
        fns = generate_instance(n=n, edge_factor=41 / 36, m=2, j_count=n // 3, budget=n,
                                seed=seed).build_oracles()
        k = fns[0]._eval.family[0].saved.shape[2]
        monkeypatch.setattr(water, "BATCH_CHUNK", 3 * n * k)
        rng = Random(seed)
        keys = set()
        while len(keys) < 300:
            keys.add(rng.getrandbits(n) | 1 << rng.randrange(n))
        keys = list(keys)
        got = fns[0].values(keys).tolist()
        assert len(kernels["batch"]) == 1
        assert got == self.scalar(fns[0], keys)

    @pytest.mark.parametrize("m, n", [(2, 20), (5, 20), (2, 130), (5, 130)],
                             ids=["2", "5", "2-n130", "5-n130"])
    def test_read_across_scenarios_makes_no_ranking_call(self, kernels, m, n):
        # several misses in each of several oracles: one gather-and-reduce
        # call, even where one scenario has two or more rows, below and past
        # two rank blocks
        fns = generate_instance(n=n, edge_factor=41 / 36, m=m, j_count=6, budget=n,
                                seed=m).build_oracles()
        keys = [[0b1011, 0b110 << i, 1 << n - 1 | i + 1] for i in range(m)]
        got = values_in(fns, keys)
        assert kernels["batch"] == []
        assert len(kernels["rows"]) == 1
        assert sorted(set(kernels["rows"][0])) == list(range(m))
        assert got == [self.scalar(fn, fn_keys) for fn, fn_keys in zip(fns, keys)]

    def test_oracle_listed_twice_sends_each_miss_once(self, kernels):
        # a cold read that lists one oracle twice: key 2 is missed in both
        # entries, and the kernel gets it once
        fns = generate_instance(n=10, edge_factor=1.5, m=2, j_count=3, budget=10,
                                seed=4).build_oracles()
        fn = fns[0]
        got = values_in([fn, fn], [[1, 2], [2, 4]])
        assert kernels["rows"] == [[0, 0, 0]]
        assert got == [self.scalar(fn, [1, 2]), self.scalar(fn, [2, 4])]

    def test_scalar_reads_never_build_a_ranking(self, kernels):
        # cold value and marginal reads compute one row each in their own
        # scenario, and the scenario's ranking is never built
        fns = generate_instance(n=14, edge_factor=1.5, m=3, j_count=5, budget=20,
                                seed=3).build_oracles()
        fn = fns[1]
        stack, i = fn._eval.family
        got = [fn.value({0, 2, 5}), fn.marginal(7, {0, 2, 5}), fn.marginal(3, {9}),
               fn.value({0, 2, 5})]
        assert kernels["batch"] == []
        assert kernels["rows"] == [[1], [1], [1], [1]]
        assert stack._rankings == [None] * 3
        want = self.scalar(fn, [0b100101, 0b10100101, 0b100101, 0b1000001000, 1 << 9])
        assert got == [want[0], want[1] - want[2], want[3] - want[4], want[0]]


class TestGatherChunks:
    """The one gather-and-reduce routine chunks a read by the saved entries
    it gathers, k per member, not by rows of n members each, and, when it
    extends, by the entries of the (rows, n, k) block as well."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """(members, rows) of each pass: a ``_gather`` call that reads its
        rows itself, not one that cuts its read into chunks and calls
        ``_gather`` on each."""
        made = []
        gather = water._ScenarioStack._gather

        def counted(stack, flat, offsets, owners=None, empty=False):
            at = len(made)
            made.append((len(flat), len(offsets) - 1))
            result = gather(stack, flat, offsets, owners, empty)
            if len(made) > at + 1:  # the read went in chunks: they are its passes
                del made[at]
            return result

        monkeypatch.setattr(water._ScenarioStack, "_gather", counted)
        return made

    @staticmethod
    def read(n, m, keys_per_scenario, seed):
        inst = generate_instance(n=n, edge_factor=41 / 36, m=m, j_count=n // 3, budget=n,
                                 seed=seed)
        fns, fresh = inst.build_oracles(), inst.build_oracles()
        rng = Random(seed)
        keys = [list({1 << rng.randrange(n) | rng.choice((0, 1 << rng.randrange(n)))
                      for _ in range(keys_per_scenario)}) for _ in range(m)]
        return fns, fresh, keys

    def test_short_rows_past_the_full_row_bound_take_one_pass(self, passes):
        # many one- and two-member rows across scenarios, more of them than
        # CHUNK // (n * k), the bound that assumed full rows
        n, m = 60, 3
        fns, fresh, keys = self.read(n, m, 200, 5)
        k = fns[0]._eval.family[0].saved.shape[2]
        rows = sum(map(len, keys))
        assert rows > water.CHUNK // (n * k)
        got = values_in(fns, keys)
        assert passes == [(passes[0][0], rows)]
        assert got == [[f.value([j for j in range(n) if key >> j & 1]) for key in fn_keys]
                       for f, fn_keys in zip(fresh, keys)]

    def test_chunks_hold_whole_rows_within_the_bound(self, passes, monkeypatch):
        # a bound of 5 members: every chunk holds whole rows, 5 members at
        # most unless it is one row, and every value is the scalar read's
        n, m = 24, 3
        fns, fresh, keys = self.read(n, m, 40, 2)
        keys[1] += [(1 << n) - 1, 0b1111110]  # rows past the bound, alone in their chunks
        k = fns[0]._eval.family[0].saved.shape[2]
        monkeypatch.setattr(water, "CHUNK", 5 * k)
        got = values_in(fns, keys)
        assert sum(rows for _, rows in passes) == sum(map(len, keys))
        assert all(members <= 5 or rows == 1 for members, rows in passes)
        assert any(members > 5 for members, _ in passes) and len(passes) > 10
        assert got == [[f.value([j for j in range(n) if key >> j & 1]) for key in fn_keys]
                       for f, fn_keys in zip(fresh, keys)]

    def test_values_without_extension_take_one_pass(self, passes):
        # f at one set in 20 scenarios gathers 20 * 9 members of k = 100
        # entries, 18,000 in all, within one chunk, though 20 rows' (rows,
        # n, k) blocks would not fit: without extension no block is built
        n, m = 300, 20
        fns = generate_instance(n=n, edge_factor=41 / 36, m=m, j_count=100, budget=n,
                                seed=1).build_oracles()
        assert m > water.CHUNK // (n * 100)
        got = values_at(fns, range(0, n, 37))
        assert passes == [(m * 9, m)]
        assert got == [fn.value(range(0, n, 37)) for fn in fns]

    def test_extension_block_bound_splits_a_gather_that_fits(self, passes, monkeypatch):
        # a bound of three rows' (n, k) blocks: ten short rows gather well
        # within it, but their extension goes in chunks of three rows, and
        # reads as in one pass
        n, m = 24, 3
        stack = generate_instance(n=n, edge_factor=41 / 36, m=m, j_count=8, budget=n,
                                  seed=3).build_oracles()[0]._eval.family[0]
        rng = Random(3)
        sets = [rng.sample(range(n), rng.randint(0, 3)) for _ in range(10)]
        owners = [rng.randrange(m) for _ in sets]
        whole = stack.extensions(owners, sets)
        passes.clear()
        monkeypatch.setattr(water, "CHUNK", 3 * n * 8)
        assert sum(map(len, sets)) <= water.CHUNK // 8
        chunked = stack.extensions(owners, sets)
        assert [rows for _, rows in passes] == [3, 3, 3, 1]
        assert [part.tolist() for part in chunked] == [part.tolist() for part in whole]


def small_text_with(line_no: int, text: str) -> str:
    """The small instance's file with line ``line_no`` (1-based) replaced."""
    lines = list(SMALL_LINES)
    lines[line_no - 1] = text
    return "\n".join(lines) + "\n"


class TestInstanceFiles:
    def test_parse_worked_instance(self):
        inst = parse_instance(FIGURE_TEXT)
        assert inst.network.edges == ((0, 2), (0, 3), (1, 3))
        assert inst.network.sources == (0, 1)
        assert inst.network.source_probabilities == (0.5, 0.5)
        assert inst.scenarios == (Scenario((4, 1, 2)),)
        assert inst.alpha_mode == "unit"

    def test_round_trip_generated(self):
        inst = generate_instance(n=11, edge_factor=1.4, m=4, j_count=3,
                                 budget=17, seed=42)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_round_trip_alpha_values(self):
        inst = parse_instance(FIGURE_TEXT.replace("alpha unit", "alpha values 2.5"))
        assert inst.alpha_values == (2.5,)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_list_fields_round_trip_and_hash(self):
        # lists where the parser gives tuples are stored as tuples
        inst = replace(generate_instance(n=8, edge_factor=1.5, m=3, j_count=3, budget=12,
                                         seed=1), alpha_mode="values", alpha_values=[1.0, 2.0, 3.0])
        net = inst.network
        inst = replace(inst, scenarios=[Scenario(list(s.edge_weights)) for s in inst.scenarios],
                       network=replace(net, edges=[list(e) for e in net.edges],
                                       sources=list(net.sources),
                                       source_probabilities=list(net.source_probabilities),
                                       sensor_costs=list(net.sensor_costs)))
        assert parse_instance(serialize_instance(inst)) == inst
        assert hash(inst) == hash(parse_instance(serialize_instance(inst)))
        assert inst.network.edges == net.edges and inst.alpha_values == (1.0, 2.0, 3.0)

    def test_bad_probability_sum(self):
        text = FIGURE_TEXT.replace("costs", "probs 0.5 0.4\ncosts")
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert "line 8" in str(err.value)

    def test_malformed_edge_line(self):
        with pytest.raises(ParseError) as err:
            parse_instance(FIGURE_TEXT.replace("0 3", "0 x"))
        assert "line 5" in str(err.value)

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_instance(FIGURE_TEXT.replace("costs 1 1 1 1", "costs 1 1 1"))

    def test_nonpositive_weight(self):
        with pytest.raises(ParseError):
            parse_instance(FIGURE_TEXT.replace("4 1 2", "4 0 2"))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_instance(FIGURE_TEXT + "extra stuff\n")

    def test_edgeless_file_rejected(self):
        text = FIGURE_TEXT.replace("edges 3\n0 2\n0 3\n1 3\n", "edges 0\n")
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("text, line_no, message", [
        ("\n".join(SMALL_LINES[:5]), 6, "unexpected end of file"),
        ("", 1, "unexpected end of file, expected 'nodes'"),
        (small_text_with(12, "budgte 10"), 12, "expected 'budget', found 'budgte'"),
        (small_text_with(3, "0 9"), 3, "edge (0, 9) out of range for 4 nodes"),
        (small_text_with(9, "sources 3 0 1"), 9, "source count does not match the listed sources"),
        (small_text_with(9, "sources 2 0 9"), 9, "source id out of range"),
        (small_text_with(10, "probs a b"), 10, "non-numeric probability"),
        (small_text_with(10, "probs 1.0"), 10, "one probability per source is required"),
        (small_text_with(16, "alpha"), 16, "alpha mode missing"),
        (small_text_with(16, "alpha values x y"), 16, "non-numeric alpha value"),
        (small_text_with(16, "alpha values 1"), 16, "expected 2 alpha values, found 1"),
        (small_text_with(16, "alpha bogus"), 16, "unknown alpha mode 'bogus'"),
    ], ids=["truncated", "empty", "misspelt-keyword", "edge-endpoint", "source-count",
            "source-id", "probs-non-numeric", "probs-count", "alpha-mode-missing",
            "alpha-non-numeric", "alpha-count", "alpha-mode-unknown"])
    def test_refusal_names_its_line(self, text, line_no, message):
        with pytest.raises(ParseError, match=re.escape(f"line {line_no}: {message}")) as exc:
            parse_instance(text)
        assert exc.value.line_no == line_no

    def test_edgeless_network_rejected(self):
        # an edgeless instance would serialize to a file the parser refuses
        inst = parse_instance(FIGURE_TEXT)
        with pytest.raises(ValueError):
            replace(inst.network, edges=())


class TestNonFiniteInstanceData:
    """A NaN passes every plain comparison, so NaN and infinite costs,
    budgets, probabilities, travel times and alpha values are refused by
    name."""

    @staticmethod
    def instance():
        return generate_instance(n=8, edge_factor=1.5, m=3, j_count=3, budget=12, seed=1)

    @pytest.mark.parametrize("field, value", [
        ("budget", math.nan), ("budget", math.inf),
        ("sensor_costs", (math.nan,) + (5,) * 7), ("sensor_costs", (math.inf,) + (5,) * 7),
        ("source_probabilities", (math.nan, 0.5, 0.5)),
        ("source_probabilities", (math.inf, 0.5, 0.5)),
    ])
    def test_network_refuses(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            replace(self.instance().network, **{field: value})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 0.5, 0, -1])
    def test_scenario_refuses_travel_time(self, weight):
        # serialize_instance would write a file parse_instance refuses; the
        # check reads every weight, the last one included
        for weights in ((weight, 1, 1), (1, weight, 1), (1, 1, weight), (weight, -weight, 1)):
            with pytest.raises(ValueError, match="edge travel times must be >= 1 and finite"):
                Scenario(weights)

    # The largest float's int plus one rounds to that float, so only an
    # exact comparison refuses it, as parse_instance does.
    BEYOND = [10**400, int(sys.float_info.max) + 1, -10**400]

    @pytest.mark.parametrize("value", BEYOND, ids=["huge", "rounds-to-max", "minus-huge"])
    def test_ints_beyond_float_range_refused(self, value):
        # a positive one used to pass: build_oracles raised OverflowError,
        # or the written file read back as a ParseError
        inst = self.instance()
        with pytest.raises(ValueError, match="travel time beyond float range"):
            Scenario((value, 2))
        with pytest.raises(ValueError):  # after a NaN, refused under either name
            Scenario((math.nan, value))
        with pytest.raises(ValueError, match="cost beyond float range"):
            replace(inst.network, sensor_costs=(value,) + (5,) * 7)
        with pytest.raises(ValueError, match="budget beyond float range"):
            replace(inst.network, budget=value)
        with pytest.raises(ValueError, match="source probability beyond float range"):
            replace(inst.network, source_probabilities=(value, 0.5, 0.5))
        # the parser refuses each in a file, under the same name
        lines = serialize_instance(inst).splitlines()
        for field, what in (("budget", "budget"), ("costs", "cost")):
            text = "\n".join(f"{field} {value}" + " 5" * 7 * (field == "costs")
                             if ln.split()[0] == field else ln for ln in lines)
            with pytest.raises(ParseError, match=f"{what} beyond float range"):
                parse_instance(text)

    def test_largest_float_range_values_accepted(self):
        # the largest int a float holds is in range, as in a file
        top = int(sys.float_info.max)
        assert Scenario((top, 1, sys.float_info.max)).edge_weights[0] == top
        inst = self.instance()
        assert replace(inst.network, budget=top).budget == top
        costs = (top,) + (5,) * 7
        assert replace(inst.network, sensor_costs=costs).sensor_costs == costs

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_instance_refuses_alpha_values(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            replace(self.instance(), alpha_mode="values", alpha_values=(alpha, 1.0, 1.0))

    @pytest.mark.parametrize("probs, line", [("nan 0.5 0.5", "line 16"),
                                             ("-0.5 0.5 1.0", "line 16")])
    def test_bad_probabilities_are_parse_errors(self, probs, line):
        lines = serialize_instance(self.instance()).splitlines()
        text = "\n".join(f"probs {probs}" if ln.startswith("probs") else ln for ln in lines)
        with pytest.raises(ParseError, match=line) as exc:
            parse_instance(text)
        # the probs line itself, not the last line read
        assert f"line {exc.value.line_no}" == line


class TestMalformedInstanceData:
    """Network and Instance refuse malformed data given directly, not only
    in a file."""

    @staticmethod
    def instance():
        return generate_instance(n=8, edge_factor=1.5, m=3, j_count=3, budget=12, seed=1)

    @pytest.mark.parametrize("field, value, message", [
        ("edges", ((0, 8), (1, 2)), "edge (0, 8) out of range"),
        ("source_probabilities", (0.5, 0.5), "one probability per source is required"),
        ("sources", (0, 1, 8), "source 8 out of range"),
        ("source_probabilities", (0.5, 0.25, 0.125), "source probabilities must sum to 1"),
        ("sensor_costs", (5,) * 7, "one sensor cost per node is required"),
    ], ids=["edge", "probability-count", "source", "probability-sum", "cost-count"])
    def test_network_refuses_malformed(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(self.instance().network, **{field: value})

    @pytest.mark.parametrize("changes, message", [
        (dict(alpha_mode="bogus"), "unknown alpha mode 'bogus'"),
        (dict(alpha_mode="values", alpha_values=(1.0, 1.0)),
         "alpha values must match the scenario count"),
        # the file would read back without them
        (dict(alpha_mode="unit", alpha_values=(1.0, 2.0, 3.0)),
         "alpha values need alpha mode 'values', not 'unit'"),
        (dict(alpha_mode="solve", alpha_values=(1.0, 2.0, 3.0)),
         "alpha values need alpha mode 'values', not 'solve'"),
    ], ids=["mode", "count", "values-under-unit", "values-under-solve"])
    def test_instance_refuses_malformed(self, changes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(self.instance(), **changes)


class TestSerializeIntegers:
    """The format holds integer costs, budgets and travel times; values the
    dataclasses accept but the format cannot hold are refused on writing."""

    @staticmethod
    def instance():
        return generate_instance(n=8, edge_factor=1.5, m=2, j_count=3, budget=12, seed=1)

    def with_cost(self, cost):
        inst = self.instance()
        costs = (cost,) + inst.network.sensor_costs[1:]
        return replace(inst, network=replace(inst.network, sensor_costs=costs))

    def with_travel_time(self, weight):
        inst = self.instance()
        first = inst.scenarios[0]
        scenarios = (Scenario((weight,) + first.edge_weights[1:]),) + inst.scenarios[1:]
        return replace(inst, scenarios=scenarios)

    def test_budget(self):
        with pytest.raises(ValueError, match="non-integer budget:"):
            serialize_instance(with_budget(self.instance(), 12.5))
        text = serialize_instance(with_budget(self.instance(), 12.0))
        assert "budget 12\n" in text
        assert parse_instance(text) == self.instance()

    def test_cost(self):
        with pytest.raises(ValueError, match="non-integer cost:"):
            serialize_instance(self.with_cost(5.5))
        inst = self.with_cost(7)
        assert parse_instance(serialize_instance(self.with_cost(7.0))) == inst

    def test_travel_time(self):
        with pytest.raises(ValueError, match="non-integer travel time:"):
            serialize_instance(self.with_travel_time(1.5))
        inst = self.with_travel_time(3)
        assert parse_instance(serialize_instance(self.with_travel_time(3.0))) == inst


class TestParseLimits:
    @staticmethod
    def lines():
        inst = generate_instance(n=8, edge_factor=1.5, m=3, j_count=3, budget=12, seed=1)
        return serialize_instance(inst).splitlines()

    @pytest.mark.parametrize("keep_probs", [False, True])
    def test_zero_sources_refused_at_sources_line(self, keep_probs):
        lines = [ln for ln in self.lines() if keep_probs or not ln.startswith("probs")]
        line_no = next(i for i, ln in enumerate(lines, 1) if ln.startswith("sources"))
        lines[line_no - 1] = "sources 0"
        with pytest.raises(ParseError) as exc:
            parse_instance("\n".join(lines))
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("prefix, offset", [("costs", 0), ("budget", 0), ("scenarios", 1)],
                             ids=["costs", "budget", "travel-time"])
    def test_integer_beyond_float_range_refused_at_its_line(self, prefix, offset):
        # offset 1: the first travel-time line, after the scenario count
        lines = self.lines()
        line_no = offset + next(i for i, ln in enumerate(lines, 1) if ln.startswith(prefix))
        toks = lines[line_no - 1].split()
        lines[line_no - 1] = " ".join(toks[:-1] + [str(10 ** 400)])
        with pytest.raises(ParseError, match="float") as exc:
            parse_instance("\n".join(lines))
        assert exc.value.line_no == line_no


class TestGenerateInstance:
    def test_scale_dimensions(self):
        inst = generate_instance(n=36, edge_factor=41 / 36, m=50, j_count=12,
                                 budget=30, seed=1)
        assert inst.network.node_count == 36
        assert len(inst.network.edges) == 41
        assert len(inst.scenarios) == 50
        assert len(inst.network.sources) == 12
        assert inst.network.budget == 30

    def test_same_seed_identical(self):
        a = generate_instance(n=12, edge_factor=1.2, m=3, j_count=4, budget=25, seed=9)
        b = generate_instance(n=12, edge_factor=1.2, m=3, j_count=4, budget=25, seed=9)
        assert serialize_instance(a) == serialize_instance(b)
        c = generate_instance(n=12, edge_factor=1.2, m=3, j_count=4, budget=25, seed=10)
        assert serialize_instance(a) != serialize_instance(c)

    def test_parameter_ranges(self):
        for seed in range(100):
            inst = generate_instance(n=6, edge_factor=1.2, m=2, j_count=2,
                                     budget=12, seed=seed)
            assert all(1 <= w <= 10 for sc in inst.scenarios for w in sc.edge_weights)
            assert all(5 <= c <= 10 for c in inst.network.sensor_costs)
            assert inst.network.source_probabilities == (0.5, 0.5)
            assert all(u != v for u, v in inst.network.edges)
            assert len(set(inst.network.edges)) == len(inst.network.edges)

    def test_infeasible_budget_is_flagged_not_fatal(self):
        inst = generate_instance(n=5, edge_factor=1.2, m=1, j_count=1,
                                 budget=2, seed=0)
        assert inst.budget_infeasible

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(n=4, edge_factor=0.0, m=1, j_count=1, budget=10, seed=0)

    def test_too_many_sources_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(n=4, edge_factor=1.2, m=1, j_count=5, budget=10, seed=0)

    @pytest.mark.parametrize("changes, message", [
        (dict(m=0), "at least one scenario is required"),
        (dict(edge_factor=7 / 3), "7 edges do not fit among the 6 directed pairs of 3 nodes"),
        (dict(n=5, edge_factor=-0.5), "edge_factor must be positive and finite, got -0.5"),
        (dict(edge_factor=math.inf), "edge_factor must be positive and finite, got inf"),
        (dict(edge_factor=math.nan), "edge_factor must be positive and finite, got nan"),
    ], ids=["no-scenarios", "too-many-edges", "negative-edge-factor", "infinite-edge-factor",
            "nan-edge-factor"])
    def test_refusals(self, changes, message):
        # the edge count and the edge factor are refused before any edge is
        # drawn
        params = dict(n=3, edge_factor=1.0, m=1, j_count=1, budget=10, seed=0) | changes
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_instance(**params)

    def test_all_pairs_fit(self):
        # the most edges n nodes take; one more is refused (test_cli runs
        # that case in a child process, as a regression would loop forever)
        inst = generate_instance(n=3, edge_factor=2.0, m=1, j_count=1, budget=10, seed=0)
        assert len(set(inst.network.edges)) == 6

    @pytest.mark.parametrize("span", range(1, 17))
    def test_randints_match_randint(self, span):
        # the same values and the same generator state as one randint call
        # per value, over spans that are powers of two and spans that are not
        for seed in range(40):
            a = seed - 20
            for count in (0, 1, 7, 600):
                rng, twin = Random(seed), Random(seed)
                assert water._randints(rng, a, a + span - 1, count) == [
                    twin.randint(a, a + span - 1) for _ in range(count)]
                assert rng.getstate() == twin.getstate()

    def test_instance_bytes_are_pinned(self):
        # a seed fixes the file byte for byte: the benchmark's grid seeds
        # 0-199, desk seeds 1-5 and ratio seeds 1-2, and the larger n=54 and
        # n=72 instances, under one sha256 of their files in that order
        families = [(dict(n=12, edge_factor=2.0, m=5, j_count=5, budget=15), range(200)),
                    (dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30), range(1, 6)),
                    (dict(n=36, edge_factor=41 / 36, m=10, j_count=12, budget=30), range(1, 3))]
        families += [(dict(n=n, edge_factor=41 / 36, m=50, j_count=n // 3, budget=5 * n // 6),
                      range(1, 4)) for n in (54, 72)]
        digest = hashlib.sha256()
        for params, seeds in families:
            for seed in seeds:
                digest.update(serialize_instance(generate_instance(seed=seed, **params)).encode())
        assert digest.hexdigest() == (
            "8252b9f51a63dda199161270833f79f299a288c454bb60f08e3faf63f3ee910c")

    def test_with_budget_updates_flag(self):
        inst = generate_instance(n=5, edge_factor=1.2, m=1, j_count=1,
                                 budget=20, seed=0)
        assert not inst.budget_infeasible
        tight = with_budget(inst, 1)
        assert tight.budget_infeasible and tight.network.budget == 1
        assert parse_instance(serialize_instance(tight)) == tight
