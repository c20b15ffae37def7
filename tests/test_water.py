from __future__ import annotations

import heapq
import math
import re
import sys
import threading
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmax import (Network, ParseError, Scenario, check_submodular,
                       expected_reduction_oracle, generate_instance,
                       parse_instance, reduction_matrix, serialize_instance)


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
        assert reduction_matrix(net, Scenario((5,))).tolist() == [[0.0], [0.0], [1.0]]

    def test_weight_count_must_match(self, figure_network):
        net, _ = figure_network
        with pytest.raises(ValueError, match="weight count"):
            reduction_matrix(net, Scenario((1, 2)))


class TestReductionMatrix:
    def test_worked_entries(self, figure_network):
        net, sc = figure_network
        saved = reduction_matrix(net, sc)
        assert saved.shape == (4, 2) and saved.dtype == np.float64
        assert saved[0, 0] == 3  # source, gray, gray
        assert saved[1, 1] == 2
        assert saved[2, 0] == 1
        assert saved[1, 0] == 0

    def test_sensor_at_source_saves_everything(self, figure_network):
        net, sc = figure_network
        saved = reduction_matrix(net, sc)
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
                saved = reduction_matrix(net, sc)
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
        saved = reduction_matrix(net, sc)
        expect, total = reference_saved(net, sc)
        assert saved.dtype == np.float64 and saved.shape == expect.shape
        assert (saved == expect).all()
        assert (saved[list(net.sources), range(len(net.sources))] == total).all()


class TestExpectedReductionOracle:
    def test_worked_values(self, figure_network):
        net, sc = figure_network
        fn = expected_reduction_oracle(net, sc)
        assert fn.value({1, 2}) == pytest.approx(1.5, abs=1e-12)
        assert fn.value(()) == 0.0
        assert fn.value({2}) == pytest.approx(0.5, abs=1e-12)

    def test_full_placement_saves_all_reachable(self):
        for seed in range(5):
            inst = generate_instance(n=8, edge_factor=1.4, m=2, j_count=3,
                                     budget=20, seed=seed)
            net = inst.network
            for sc in inst.scenarios:
                fn = expected_reduction_oracle(net, sc)
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
        saved = reduction_matrix(inst.network, inst.scenarios[0])
        covers = fn.covers
        assert (covers == (saved[:, None] >= saved[None]).all(axis=2)).all()
        pairs = np.argwhere(covers & ~np.eye(n, dtype=bool)).tolist()
        for k, j in pairs:
            for _ in range(4):
                S = frozenset(v for v in range(n) if rng.random() < 0.3)
                assert fn.value(S | {k}) >= fn.value(S | {j})
                assert fn.value(S | {j, k}) == fn.value(S | {k})

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((4, 12, 36, 72)), st.integers(0, 2**32 - 1), st.data())
    def test_batch_equals_scalar_evaluation(self, n, seed, data):
        # the vectorised form must give the scalar value itself, not a
        # rounding of it, at every size (n = 72 is past int64 bitmasks)
        j_count = data.draw(st.integers(1, n))
        inst = generate_instance(n=n, edge_factor=41 / 36, m=1, j_count=j_count,
                                 budget=n, seed=seed % 1000)
        evaluate = expected_reduction_oracle(inst.network, inst.scenarios[0])._eval
        rng = np.random.default_rng(seed)
        members = rng.random((300, n)) < rng.random((300, 1))
        members[0] = False
        members[1] = True
        scalar = [evaluate(frozenset(np.flatnonzero(row).tolist())) for row in members]
        assert evaluate.batch(members).tolist() == scalar

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(3, 40), st.integers(0, 2**32 - 1), st.data())
    def test_stacked_reads_equal_batch_rows(self, m, n, seed, data):
        # An instance's oracles share one stack and its last evaluated set:
        # reads that alternate between scenarios and sets (S in scenario 0,
        # T in 3, S in 1, ...) must each give the scenario's own batch row,
        # which the one-scenario oracle gives as well.
        inst = generate_instance(n=n, edge_factor=41 / 36, m=m,
                                 j_count=data.draw(st.integers(1, n)), budget=n,
                                 seed=seed % 1000)
        evaluators = [fn._eval for fn in inst.build_oracles()]
        rng = np.random.default_rng(seed)
        members = rng.random((4, n)) < rng.random((4, 1))
        sets = [frozenset(np.flatnonzero(row).tolist()) for row in members]
        rows = [evaluate.batch(members).tolist() for evaluate in evaluators]
        reads = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, 3)),
                                   min_size=1, max_size=30))
        for i, k in reads:
            assert evaluators[i](sets[k]) == rows[i][k]
        for i, scenario in enumerate(inst.scenarios):
            single = expected_reduction_oracle(inst.network, scenario)._eval
            assert [single(S) for S in sets] == rows[i]

    def test_concurrent_reads_of_alternating_sets(self):
        # Two threads read two sets in opposite phase, so each read may find
        # the other thread's set in the shared cache, or have it replaced
        # mid-read; every value must still be the scenario's own.
        n = 30
        inst = generate_instance(n=n, edge_factor=41 / 36, m=6, j_count=10, budget=n, seed=4)
        evaluators = [fn._eval for fn in inst.build_oracles()]
        members = np.zeros((2, n), dtype=bool)
        members[0, ::2] = True
        members[1, 1::3] = True
        sets = [frozenset(np.flatnonzero(row).tolist()) for row in members]
        rows = [evaluate.batch(members).tolist() for evaluate in evaluators]
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

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_scenario_refuses_travel_time(self, weight):
        # serialize_instance would write a file parse_instance refuses
        with pytest.raises(ValueError, match="finite"):
            Scenario((weight, 1, 1))

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
    ], ids=["mode", "count"])
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
    ], ids=["no-scenarios", "too-many-edges"])
    def test_refusals(self, changes, message):
        # the edge count is refused before any edge is drawn
        params = dict(n=3, edge_factor=1.0, m=1, j_count=1, budget=10, seed=0) | changes
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_instance(**params)

    def test_all_pairs_fit(self):
        # the most edges n nodes take; one more is refused (test_cli runs
        # that case in a child process, as a regression would loop forever)
        inst = generate_instance(n=3, edge_factor=2.0, m=1, j_count=1, budget=10, seed=0)
        assert len(set(inst.network.edges)) == 6

    def test_with_budget_updates_flag(self):
        inst = generate_instance(n=5, edge_factor=1.2, m=1, j_count=1,
                                 budget=20, seed=0)
        assert not inst.budget_infeasible
        tight = with_budget(inst, 1)
        assert tight.budget_infeasible and tight.network.budget == 1
        assert parse_instance(serialize_instance(tight)) == tight
