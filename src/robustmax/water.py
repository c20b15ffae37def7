"""Outbreak-detection objective on a water network, plus instance files.

A contamination event starts at a source node and travels along directed
edges; a sensor detects it when the flow first arrives.  The damage counter
for source j is the number of reachable nodes whose arrival time is strictly
below a threshold, so a sensor placed at travel time t from the source saves
every node at arrival time >= t, the sensed node included.  The expected
saving over sources, weighted by event probabilities, is the monotone
submodular objective the solvers maximize.

Travel times are static per-scenario edge weights; no hydraulics.  The
oracles of one instance read one (m, n, k) stack of the scenarios' saved
arrays, each its own slice, and share a one-entry cache: the last set
evaluated with its values in every scenario, one tuple that a miss replaces
atomically.  Reading a set in one scenario after another, as separation
does, computes it once.  The instance data is immutable after construction,
and oracles are shared freely across threads: a reader uses a cached tuple
only if it holds the reader's own set.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from random import Random

import numpy as np

from .core import SetFunction, TOL

# Most bool entries one chunk of a batched oracle evaluation holds at once.
BATCH_CHUNK = 1 << 16


class ParseError(ValueError):
    """Malformed instance file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message

    def __reduce__(self):  # pickles with both arguments, so a worker process can raise it
        return type(self), (self.line_no, self.message)


@dataclass(frozen=True)
class Network:
    node_count: int
    edges: tuple
    sources: tuple
    source_probabilities: tuple
    sensor_costs: tuple
    budget: int

    def __post_init__(self):
        n = self.node_count
        if not self.edges:
            raise ValueError("a network needs at least one edge")
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
        if len(self.sources) != len(self.source_probabilities):
            raise ValueError("one probability per source is required")
        for j in self.sources:
            if not 0 <= j < n:
                raise ValueError(f"source {j} out of range")
        if not all(0 <= p < math.inf for p in self.source_probabilities):
            raise ValueError("source probabilities must be nonnegative and finite")
        if abs(sum(self.source_probabilities) - 1.0) > TOL:
            raise ValueError("source probabilities must sum to 1")
        if len(self.sensor_costs) != n:
            raise ValueError("one sensor cost per node is required")
        if not all(0 < c < math.inf for c in self.sensor_costs):
            raise ValueError("sensor costs must be positive and finite")
        if not 0 <= self.budget < math.inf:
            raise ValueError("budget must be nonnegative and finite")


@dataclass(frozen=True)
class Scenario:
    edge_weights: tuple

    def __post_init__(self):
        if not all(1 <= w < math.inf for w in self.edge_weights):  # a NaN fails too
            raise ValueError("edge travel times must be >= 1 and finite")


def reduction_matrix(network: Network, scenario: Scenario) -> np.ndarray:
    """saved[s, j]: reachable nodes from source j with arrival >= arrival at s.

    An (n, k) float64 array, one column per source.  A sensor on the source
    saves every node the source reaches, itself included, so
    ``saved[sources[j], j]`` is that count; an unreachable sensor saves 0.
    Dijkstra pops the nodes in order of arrival, so a node's saving is the
    reached count less the number popped at a strictly earlier time.
    """
    if len(scenario.edge_weights) != len(network.edges):
        raise ValueError("scenario weight count does not match edge count")
    n = network.node_count
    adj: list = [[] for _ in range(n)]
    for (u, v), w in zip(network.edges, scenario.edge_weights):
        adj[u].append((v, w))
    saved = np.zeros((n, len(network.sources)))
    for col, source in enumerate(network.sources):
        dist = [math.inf] * n
        dist[source] = 0.0
        reached, earlier = [], []
        heap = [(0.0, source)]
        last, first = -1.0, 0
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if d != last:  # the first node at this arrival time
                last, first = d, len(reached)
            reached.append(u)
            earlier.append(first)
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        saved[reached, col] = len(reached) - np.array(earlier)
    return saved


def expected_reduction_oracle(network: Network, scenario: Scenario,
                              name: str = "") -> SetFunction:
    """Monotone submodular oracle S -> expected number of saved nodes."""
    stack = _ScenarioStack(reduction_matrix(network, scenario)[None], network)
    return _scenario_oracle(stack, 0, name)


def _expected(best: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row r of the (B, k) best savings dotted with probs, B values: matmul
    of (1, k) by (k, 1) blocks, one product for every form of evaluation."""
    return np.matmul(best[:, None, :], probs[:, None]).ravel()


class _ScenarioStack:
    """The saved arrays of an instance's scenarios, stacked (m, n, k), and
    the last set evaluated: ``last`` is (S, its m values), one tuple that an
    evaluation replaces whole, so a reader that finds S there on any thread
    reads S's own values.  Scenario oracles usually read a set in one
    scenario after another; the first read computes it in all of them."""

    __slots__ = ("saved", "probs", "last")

    def __init__(self, saved: np.ndarray, network: Network):
        self.saved = saved
        self.probs = np.asarray(network.source_probabilities)
        self.last = (None, None)

    def values(self, subset: frozenset) -> np.ndarray:
        """f_i(S) for every scenario i: one gather, one max, one product."""
        last = self.last
        if last[0] != subset:
            best = self.saved[:, sorted(subset)].max(axis=1)
            last = self.last = (subset, _expected(best, self.probs))
        return last[1]


def _scenario_oracle(stack: _ScenarioStack, i: int, name: str) -> SetFunction:
    """The oracle of scenario i of the stack: it reads its own slice."""
    saved = stack.saved[i]

    def evaluate(subset: frozenset) -> float:
        if not subset:
            return 0.0
        return float(stack.values(subset)[i])

    def covers() -> np.ndarray:
        # k covers j when it saves at least as much for every source: then
        # max_{v in S+k} saved[v] >= max_{v in S+j} saved[v] for every S,
        # and the sums over sources with probs >= 0 keep that order.
        by_source = np.ascontiguousarray(saved.T)
        relation = np.ones((len(saved), len(saved)), dtype=bool)
        step = max(1, BATCH_CHUNK // relation.size)  # bounds the (step, n, n) temporary
        for lo in range(0, len(by_source), step):
            rows = by_source[lo:lo + step]
            relation &= (rows[:, :, None] >= rows[:, None, :]).all(axis=0)
        return relation

    evaluate.batch = _BatchEvaluation(saved, stack.probs)
    evaluate.covers = covers
    return SetFunction(len(saved), evaluate, name=name)


class _BatchEvaluation:
    """The vectorised form of the water oracle: a (B, n) bool membership
    matrix to B values, each equal with == to the scalar evaluation.

    Per source, the sensor nodes are ranked by saved count, descending, and
    the ranking ends with a sentinel node n that every set holds and that
    saves 0 (saved is >= 0, so the sentinel sets the value only where the
    members save 0 for that source or there are none).  A set's best sensor
    for that source is its first member in the ranking, found by argmax, and
    its count is an element of saved: the same max the scalar evaluation
    takes, dotted with probs by the same :func:`_expected`.
    """

    __slots__ = ("saved", "probs", "_ranking")

    def __init__(self, saved: np.ndarray, probs: np.ndarray):
        self.saved = saved
        self.probs = probs
        self._ranking = None  # built on the first call: building an oracle costs no more

    def __call__(self, members: np.ndarray) -> np.ndarray:
        saved, probs = self.saved, self.probs
        n, k = saved.shape
        if self._ranking is None:
            order = np.argsort(-saved, axis=0, kind="stable")
            ranked = np.vstack([np.take_along_axis(saved, order, axis=0), np.zeros(k)])
            self._ranking = np.vstack([order, np.full(k, n)]).T.copy(), ranked
        order, ranked = self._ranking  # (k, n + 1) node ids, (n + 1, k) counts
        held = np.ones((len(members), n + 1), dtype=bool)
        held[:, :n] = members
        sources = np.arange(k)
        out = np.empty(len(members))
        # chunks bound the (rows, k, n + 1) bool temporary
        step = max(1, BATCH_CHUNK // order.size)
        for lo in range(0, len(members), step):
            best = ranked[held[lo:lo + step, order].argmax(axis=2), sources]
            out[lo:lo + step] = _expected(best, probs)
        return out


@dataclass(frozen=True)
class Instance:
    network: Network
    scenarios: tuple
    alpha_mode: str = "unit"
    alpha_values: tuple | None = None

    def __post_init__(self):
        if self.alpha_mode not in ("unit", "values", "solve"):
            raise ValueError(f"unknown alpha mode {self.alpha_mode!r}")
        if self.alpha_mode == "values":
            if self.alpha_values is None or len(self.alpha_values) != len(self.scenarios):
                raise ValueError("alpha values must match the scenario count")
            if not all(0 < a < math.inf for a in self.alpha_values):
                raise ValueError("alpha values must be positive and finite")

    @property
    def budget_infeasible(self) -> bool:
        """Whether the budget is below the cheapest sensor, so only the
        empty placement is feasible."""
        return self.network.budget < min(self.network.sensor_costs)

    def build_oracles(self) -> list:
        """One oracle per scenario, each reading its slice of one (m, n, k)
        stack of the scenarios' saved arrays (see :class:`_ScenarioStack`)."""
        stack = _ScenarioStack(np.stack([reduction_matrix(self.network, sc)
                                         for sc in self.scenarios]), self.network)
        return [_scenario_oracle(stack, i, f"scenario-{i}") for i in range(len(self.scenarios))]


def _tokens(text: str):
    """Yield (line_no, token_list) for non-empty lines, comments stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield line_no, body.split()


class _LineReader:
    def __init__(self, text: str):
        self._lines = list(_tokens(text))
        self._pos = 0
        self.last_line = 0

    def peek(self):
        return self._lines[self._pos] if self._pos < len(self._lines) else None

    def take(self, expect: str | None = None):
        if self._pos >= len(self._lines):
            raise ParseError(self.last_line + 1, "unexpected end of file"
                             + (f", expected {expect!r}" if expect else ""))
        line_no, toks = self._lines[self._pos]
        self._pos += 1
        self.last_line = line_no
        if expect is not None and toks[0] != expect:
            raise ParseError(line_no, f"expected {expect!r}, found {toks[0]!r}")
        return line_no, toks


def _ints(line_no, toks, count=None, minimum=None, what="value"):
    try:
        vals = [int(t) for t in toks]
    except ValueError:
        raise ParseError(line_no, f"non-integer {what}") from None
    if any(abs(v) > sys.float_info.max for v in vals):
        raise ParseError(line_no, f"{what} beyond float range")
    if count is not None and len(vals) != count:
        raise ParseError(line_no, f"expected {count} {what}s, found {len(vals)}")
    if minimum is not None and any(v < minimum for v in vals):
        raise ParseError(line_no, f"{what} below {minimum}")
    return vals


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format (see serialize_instance)."""
    rd = _LineReader(text)
    ln, toks = rd.take("nodes")
    (n,) = _ints(ln, toks[1:], 1, 1, "node count")
    ln, toks = rd.take("edges")
    (e_count,) = _ints(ln, toks[1:], 1, 1, "edge count")
    edges = []
    for _ in range(e_count):
        ln, toks = rd.take()
        u, v = _ints(ln, toks, 2, 0, "endpoint")
        if u >= n or v >= n:
            raise ParseError(ln, f"edge ({u}, {v}) out of range for {n} nodes")
        edges.append((u, v))
    ln, toks = rd.take("sources")
    vals = _ints(ln, toks[1:], None, 0, "source")
    if not vals or len(vals) != vals[0] + 1:
        raise ParseError(ln, "source count does not match the listed sources")
    sources = vals[1:]
    if not sources:
        raise ParseError(ln, "at least one source is required")
    if any(j >= n for j in sources):
        raise ParseError(ln, "source id out of range")

    probs = None
    nxt = rd.peek()
    if nxt and nxt[1][0] == "probs":
        ln, toks = rd.take("probs")
        try:
            probs = [float(t) for t in toks[1:]]
        except ValueError:
            raise ParseError(ln, "non-numeric probability") from None
        if len(probs) != len(sources):
            raise ParseError(ln, "one probability per source is required")
        if not abs(sum(probs) - 1.0) <= TOL:  # a NaN fails this test too
            raise ParseError(ln, f"probabilities sum to {sum(probs)!r}, not 1")
        if not all(p >= 0 for p in probs):
            raise ParseError(ln, "probabilities must be nonnegative")
    if probs is None:
        probs = [1.0 / len(sources)] * len(sources)

    ln, toks = rd.take("costs")
    costs = _ints(ln, toks[1:], n, 1, "cost")
    ln, toks = rd.take("budget")
    (budget,) = _ints(ln, toks[1:], 1, 0, "budget")
    ln, toks = rd.take("scenarios")
    (m,) = _ints(ln, toks[1:], 1, 1, "scenario count")
    scenarios = []
    for _ in range(m):
        ln, toks = rd.take()
        weights = _ints(ln, toks, e_count, 1, "travel time")
        scenarios.append(Scenario(edge_weights=tuple(weights)))

    alpha_mode, alpha_values = "unit", None
    nxt = rd.peek()
    if nxt and nxt[1][0] == "alpha":
        ln, toks = rd.take("alpha")
        if len(toks) < 2:
            raise ParseError(ln, "alpha mode missing")
        alpha_mode = toks[1]
        if alpha_mode == "values":
            try:
                alpha_values = tuple(float(t) for t in toks[2:])
            except ValueError:
                raise ParseError(ln, "non-numeric alpha value") from None
            if len(alpha_values) != m:
                raise ParseError(ln, f"expected {m} alpha values, found {len(alpha_values)}")
        elif alpha_mode not in ("unit", "solve"):
            raise ParseError(ln, f"unknown alpha mode {alpha_mode!r}")
    if rd.peek() is not None:
        ln, toks = rd.take()
        raise ParseError(ln, f"unexpected trailing content {toks[0]!r}")

    try:
        network = Network(node_count=n, edges=tuple(edges), sources=tuple(sources),
                          source_probabilities=tuple(probs), sensor_costs=tuple(costs),
                          budget=budget)
        return Instance(network=network, scenarios=tuple(scenarios),
                        alpha_mode=alpha_mode, alpha_values=alpha_values)
    except ValueError as exc:
        raise ParseError(rd.last_line, str(exc)) from None


def _integers(values, what: str) -> str:
    """The values as the integers the format holds: 12.0 is written 12."""
    ints = list(map(int, values))
    if ints != list(values):
        raise ValueError(f"non-integer {what}: the instance format holds integers")
    return " ".join(map(str, ints))


def serialize_instance(instance: Instance) -> str:
    """Inverse of parse_instance: parse(serialize(x)) == x."""
    net = instance.network
    out = [f"nodes {net.node_count}", f"edges {len(net.edges)}"]
    out += [f"{u} {v}" for u, v in net.edges]
    out.append("sources " + " ".join(str(t) for t in (len(net.sources),) + net.sources))
    out.append("probs " + " ".join(repr(p) for p in net.source_probabilities))
    out.append("costs " + _integers(net.sensor_costs, "cost"))
    out.append("budget " + _integers((net.budget,), "budget"))
    out.append(f"scenarios {len(instance.scenarios)}")
    out += [_integers(sc.edge_weights, "travel time") for sc in instance.scenarios]
    if instance.alpha_mode == "values":
        out.append("alpha values " + " ".join(repr(a) for a in instance.alpha_values))
    else:
        out.append(f"alpha {instance.alpha_mode}")
    return "\n".join(out) + "\n"


def generate_instance(n: int, edge_factor: float, m: int, j_count: int,
                      budget: int, seed: int) -> Instance:
    """Seeded random instance: a reachability backbone plus extra edges,
    travel times ~ U(1,10) per scenario, sensor costs ~ U(5,10), uniform
    source probabilities.  Identical seeds give identical instances."""
    if not 1 <= j_count <= n:
        raise ValueError("source count must be between 1 and the node count")
    if m < 1:
        raise ValueError("at least one scenario is required")
    e_count = math.ceil(edge_factor * n - 1e-9)
    if e_count > n * (n - 1):
        raise ValueError(f"{e_count} edges do not fit among the {n * (n - 1)} "
                         f"directed pairs of {n} nodes")
    rng = Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    seen = set()
    for u, v in zip(order, order[1:]):
        if len(edges) == e_count:
            break
        edges.append((u, v))
        seen.add((u, v))
    while len(edges) < e_count:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and (u, v) not in seen:
            edges.append((u, v))
            seen.add((u, v))
    sources = tuple(rng.sample(range(n), j_count))
    costs = tuple(rng.randint(5, 10) for _ in range(n))
    scenarios = tuple(Scenario(edge_weights=tuple(rng.randint(1, 10) for _ in edges))
                      for _ in range(m))
    network = Network(node_count=n, edges=tuple(edges), sources=sources,
                      source_probabilities=tuple(1.0 / j_count for _ in sources),
                      sensor_costs=costs, budget=budget)
    return Instance(network=network, scenarios=scenarios)

