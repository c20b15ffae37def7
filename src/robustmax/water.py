"""Outbreak-detection objective on a water network, plus instance files.

A contamination event starts at a source node and travels along directed
edges; a sensor detects it when the flow first arrives.  The damage counter
for source j is the number of reachable nodes whose arrival time is strictly
below a threshold, so a sensor placed at travel time t from the source saves
every node at arrival time >= t, the sensed node included.  The expected
saving over sources, weighted by event probabilities, is the monotone
submodular objective the solvers maximize.

Travel times are static per-scenario edge weights; no hydraulics.  An
instance's (m, n, k) stack of saved arrays comes from one pass,
:func:`reduction_matrix`: one Dijkstra over every (scenario, source) pair at
once, in chunks of whole scenarios, where a node's saving is its pair's
reached count less the nodes popped at a strictly earlier arrival.  The
oracles of one instance are made by one evaluator, which holds that stack,
and they form one family: every miss reaches the stack's one read entry,
``rows``.  On ground sets of at most two rank blocks (n <= 104), two or
more rows that all read one scenario go to its ranking kernel, which finds
each row's best-ranked member per source from exact float64 products of
the rows with powers-of-two rank weights; any other read, one row, rows
that span scenarios or a larger ground set, goes to the gather-and-reduce
routine, which computes only the (scenario, set) rows it is given.

The family also declares the structural form of a facility-location
objective (Cornuejols, Fisher & Nemhauser 1977; Krause et al. 2008): a
set's best savings per source, best_S[t] = max_{v in S} saved[v, t], give
f(S) and, with one max per element, f(S + j) for every j, both from the
same gather-and-reduce routine; each scenario's top two counts per source
give f(N) and f(N - j), and one max per element, doubling the sets read
so far, gives f at every subset.  Separation and the exhaustive
lawfulness check read their values there, in a fixed number of calls,
and past the memo.  The family's covering relation, the
AND over any of its scenarios, is one call too.  The instance data is
immutable after construction, the kernels keep no state but the rankings
and the values at N and N - j, each built once for the whole stack, and
oracles are shared freely across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from random import Random
from typing import Collection, Sequence

import numpy as np

from .core import CHUNK, SetFunction, TOL

# Most multiply-adds one rank-weight product of the ranking kernel makes.
# OpenBLAS keeps a product of up to 65536 * GEMM_MULTITHREAD_THRESHOLD (4)
# multiply-adds on one thread; a second one spins for as much CPU as it.
BATCH_CHUNK = 1 << 18
# Ranks one float64 rank-weight product tells apart: its weights are
# distinct powers of two below 2**52, and every sum of them is an integer
# below 2**53, which float64 holds exactly.
RANK_BITS = 52


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
        # tuples, as the parser gives them: a network of lists would neither round-trip nor hash
        for name in ("sources", "source_probabilities", "sensor_costs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
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
        if not _least(self.source_probabilities, "source probability") >= 0:
            raise ValueError("source probabilities must be nonnegative and finite")
        if abs(sum(self.source_probabilities) - 1.0) > TOL:
            raise ValueError("source probabilities must sum to 1")
        if len(self.sensor_costs) != n:
            raise ValueError("one sensor cost per node is required")
        if not _least(self.sensor_costs, "cost") > 0:
            raise ValueError("sensor costs must be positive and finite")
        if not _least((self.budget,), "budget") >= 0:
            raise ValueError("budget must be nonnegative and finite")


@dataclass(frozen=True)
class Scenario:
    edge_weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "edge_weights", tuple(self.edge_weights))
        if not _least(self.edge_weights, "travel time") >= 1:
            raise ValueError("edge travel times must be >= 1 and finite")


def _least(values: tuple, what: str) -> float:
    """The least of ``values`` (inf for none), or NaN if any is NaN or
    +inf, so that a bound test refuses it: two C-level passes in the
    common case, where a generator takes one Python step per value.  An
    int beyond float range, which :func:`parse_instance` refuses, raises
    ValueError naming ``what``."""
    try:
        total = sum(values, 0.0)  # a float, NaN if any value is
    except OverflowError:  # an int that no float holds
        raise ValueError(f"{what} beyond float range") from None
    # A value that is +inf or an int past the largest float takes the sum
    # there, unless a negative value, which every bound test refuses, is read.
    if total >= sys.float_info.max:
        hi = max(values)
        if math.inf > hi > sys.float_info.max:
            raise ValueError(f"{what} beyond float range")
        if hi == math.inf:
            return math.nan
    return math.nan if total != total else min(values, default=math.inf)


def _out_edges(network: Network, weights: np.ndarray):
    """The network's out-edges padded to the most any node has: the (n,
    width) ``heads``, where ``heads[u]`` lists the nodes u leads to, and
    the (tail, slot) position of each kept edge in that table, with the
    (m, kept) weights to write there, from the (m, E) weights.

    Parallel edges act as one edge at their least travel time and a
    self-loop is dropped, as Dijkstra treats them; so no node is the head of
    two of u's edges.  A pad edge leads back to u at inf, which changes
    nothing, as u is popped when its edges are relaxed."""
    n = network.node_count
    ends = np.array(network.edges)
    key = ends[:, 0] * n + ends[:, 1]
    order = key.argsort(kind="stable")  # by tail, then head
    key, weights = key[order], weights[:, order]
    first = np.ones(len(key), dtype=bool)  # each (u, v) group's first edge
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = first.nonzero()[0]
    key, weights = key[starts], np.minimum.reduceat(weights, starts, axis=1)
    kept = key // n != key % n
    key, weights = key[kept], weights[:, kept]
    tail, head = np.divmod(key, n)
    slot = np.arange(len(key)) - tail.searchsorted(tail)  # rank among its tail's edges
    width = int(slot.max()) + 1 if len(key) else 1
    heads = np.repeat(np.arange(n), width).reshape(n, width)
    heads[tail, slot] = head
    return heads, (tail, slot), weights


def _arrivals(heads: np.ndarray, table: np.ndarray, rows: np.ndarray, sources: np.ndarray):
    """Dijkstra for P (scenario, source) pairs at once, pair p from node
    ``sources[p]`` over the out-edges of :func:`_out_edges`, whose travel
    times from node u are ``table[rows[p] + u]``: (n, P) arrays of the node
    each pair popped at each step and its arrival, inf once the pair has
    run out of reached nodes.

    Each step pops the nearest unpopped node of every pair with one argmin
    and relaxes its out-edges, so a pair pops its nodes in order of
    arrival, one per step.  A key is an arrival, inf until reached, or NaN
    once popped.  Keys are >= 0, so their bits read as int64 order as the
    floats do, with NaN above inf: the argmin over that view never picks a
    popped node while another is left, and ``np.minimum`` keeps a NaN, so
    a relaxation never reopens one."""
    pairs, n = len(rows), len(heads)
    first = np.arange(pairs) * n  # the pair's node 0 in the flat (pairs, n) keys
    keys = np.full((pairs, n), math.inf)
    flat, order = keys.ravel(), keys.view(np.int64)
    flat.put(first + sources, 0.0)
    popped = np.empty((n, pairs), dtype=np.intp)
    times = np.empty((n, pairs))
    for t in range(n):
        u = order.argmin(axis=1, out=popped[t])
        at = u + first
        d = flat.take(at, out=times[t])
        flat.put(at, math.nan)
        to = heads.take(u, axis=0)
        to += first[:, None]
        arrival = table.take(rows + u, axis=0)
        arrival += d[:, None]
        current = flat.take(to)
        np.minimum(current, arrival, out=current)
        flat.put(to, current)
    return popped, times


def reduction_matrix(network: Network, scenarios: Sequence[Scenario]) -> np.ndarray:
    """saved[i, s, j]: nodes reachable from source j in scenario i whose
    arrival is >= the arrival at s.

    An (m, n, k) float64 array, one (n, k) slice per scenario.  A sensor on
    the source saves every node the source reaches, itself included, so
    ``saved[i, sources[j], j]`` is that count; an unreachable sensor saves 0.

    One Dijkstra runs over every (scenario, source) pair of the instance at
    once (:func:`_arrivals`).  A pair pops its nodes in order of arrival,
    one per step, so a node's saving is the pair's reached count less the
    pops at a strictly earlier time, which the step index counts.  The
    pairs go in chunks of whole scenarios, as many as keep a chunk's
    (pairs, n + width) Dijkstra arrays and its (scenarios, n, width) edge
    table inside ``CHUNK`` entries, where width is the most out-edges
    any node has; a chunk holds at least one scenario, so one scenario's
    k * (n + width) + n * width entries is the floor.  Each step reads all
    n keys of every pair, so a pair costs O(n * (n + width)) where a heap
    Dijkstra costs O((n + E) log n): this pass wins while numpy's per-call
    cost dominates, on small networks with many pairs (see README).
    """
    n, m, e_count = network.node_count, len(scenarios), len(network.edges)
    if any(len(sc.edge_weights) != e_count for sc in scenarios):
        raise ValueError("scenario weight count does not match edge count")
    weights = np.array([sc.edge_weights for sc in scenarios], dtype=float).reshape(m, e_count)
    sources = np.array(network.sources)
    k = len(sources)
    saved = np.zeros(m * n * k + 1)  # the last entry takes the pops of pairs run dry
    heads, (tail, slot), weights = _out_edges(network, weights)
    width = heads.shape[1]
    step = max(1, CHUNK // (k * (n + width) + n * width))
    for lo in range(0, m, step):
        count = min(m, lo + step) - lo
        table = np.full((count, n, width), math.inf)  # row i * n + u: u's out-edges in lo + i
        table[:, tail, slot] = weights[lo:lo + count]
        table = table.reshape(count * n, width)
        # pair p is scenario lo + p // k, source p % k; rows[p] is its node 0 in table
        rows = np.repeat(np.arange(count) * n, k)
        popped, times = _arrivals(heads, table, rows, np.tile(sources, count))
        real = times < math.inf
        new = np.ones(times.shape, dtype=bool)  # the pair's first pop at this time
        np.not_equal(times[1:], times[:-1], out=new[1:])
        earlier = np.where(new, np.arange(len(times))[:, None], 0)
        np.maximum.accumulate(earlier, axis=0, out=earlier)
        np.subtract(real.sum(axis=0), earlier, out=earlier)  # each pop's saving
        # pair (lo + i, j) writes saved[lo + i, v, j] at ((lo + i) * n + v) * k + j
        popped += rows + lo * n
        popped *= k
        popped += np.tile(np.arange(k), count)
        popped[~real] = m * n * k
        saved.put(popped, earlier)
    return saved[:-1].reshape(m, n, k)


def _expected(best: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Row r of the (B, k) best savings dotted with probs, B values: matmul
    of (1, k) by (k, 1) blocks, one product for every form of evaluation."""
    return np.matmul(best[:, None, :], probs[:, None]).ravel()


class _ScenarioStack:
    """The saved arrays of an instance's scenarios, stacked (m, n, k): the
    instance's one evaluator.  :meth:`oracle` makes scenario i's oracle,
    S -> expected number of saved nodes; every keyed read of it goes to
    :meth:`rows`, which picks one of two kernels, :meth:`batch` (ranking) or
    :meth:`_gather` (gather and reduce), its structural form is
    :meth:`extensions`, which reads through :meth:`_gather` as well,
    :meth:`complements` and :meth:`lattice`, which fills every subset's
    best savings by doubling for the exhaustive lawfulness check, and the
    covering relation of any of its scenarios is :meth:`covers`.

    The per-scenario tables, the rankings and the values at N and N - j,
    are built for every scenario at once, each on its first use, in chunks
    of whole scenarios within ``CHUNK`` entries, and kept: building an
    oracle, or reading it by scalars, builds neither."""

    __slots__ = ("saved", "probs", "_flat", "_rankings", "_complements")

    def __init__(self, saved: np.ndarray, network: Network):
        self.saved = saved
        self.probs = np.asarray(network.source_probabilities)
        self._flat = saved.reshape(-1, saved.shape[2])  # row i * n + v: saved[i, v]; a view
        self._rankings: list | None = None  # per scenario (weights, ranked), see batch
        self._complements: list | None = None  # per scenario (f(N), f(N - j) for every j)

    def _chunks(self, entries: int) -> list:
        """Slices of the stack for a build that holds ``entries`` per
        scenario at once: as many whole scenarios per slice as fit in
        ``CHUNK`` entries, one at least."""
        step = max(1, CHUNK // entries)
        return [slice(lo, lo + step) for lo in range(0, len(self.saved), step)]

    def rows(self, scenario_of_row: np.ndarray, members: np.ndarray) -> np.ndarray:
        """f_i(S) for each row r: i = scenario_of_row[r] and S the members of
        row r of the (B, n) bool matrix; no row may be empty.  Two or more
        rows of one scenario over at most two rank blocks (n <= 2 *
        ``RANK_BITS``) go to :meth:`batch`, any other read to :meth:`_gather`:
        above two blocks the products cost more than the gather (README)."""
        if (len(members) > 1 and members.shape[1] <= 2 * RANK_BITS
                and (scenario_of_row == scenario_of_row[0]).all()):
            return self.batch(int(scenario_of_row[0]), members)
        n = members.shape[1]
        row, col = np.divmod(members.ravel().nonzero()[0], n)  # member col[e] of row row[e]
        return self._gather(scenario_of_row[row] * n + col,
                            row.searchsorted(np.arange(len(members) + 1)))[0]

    def extensions(self, scenario_of_row: Sequence[int], subsets: Sequence[Collection[int]],
                   extend: bool = True) -> tuple:
        """The family's structural form: f_i(S) for each row r, i =
        scenario_of_row[r] and S = subsets[r], which may be empty, and, with
        ``extend``, f_i(S + j) for every element j; a (B,) and a (B, n)
        float array (None without ``extend``), from :meth:`_gather`."""
        n = self.saved.shape[1]
        sizes = [len(subset) for subset in subsets]
        flat = [i * n + v for i, subset in zip(scenario_of_row, subsets) for v in subset]
        offsets = np.fromiter(accumulate(sizes, initial=0), np.intp, len(sizes) + 1)
        return self._gather(flat, offsets, scenario_of_row if extend else None, 0 in sizes)

    def _gather(self, flat: Sequence[int], offsets: np.ndarray,
                owners: Sequence[int] | None = None, empty: bool = False) -> tuple:
        """f at B rows, row r's members the rows of ``_flat`` named at
        ``flat[offsets[r]:offsets[r + 1]]`` (a row may have none only with
        ``empty``), and, given the rows' scenarios ``owners``, each row's
        value plus each element j, a (B, n) array (else None): every value
        the stack computes outside :meth:`batch` and :meth:`complements`.

        Row r's best savings, best_S[t] = max_{v in S} saved_i[v, t] (0 for
        an empty S, as saved is >= 0), come from one gather of the members'
        saved rows and one max per row, and S + j's are max(best_S,
        saved_i[j]): the max :meth:`batch` takes, through the one
        :func:`_expected` product, so every value equals the scalar read
        with ==.  A read past either bound is read chunk by chunk, each
        chunk whole rows that gather at most ``CHUNK`` saved entries, k per
        member (a longer row is a chunk of its own), and, when extending,
        whose (rows, n, k) block holds at most ``CHUNK``."""
        n, k = self.saved.shape[1:]
        count = len(offsets) - 1
        limit = max(1, CHUNK // k)  # members one chunk gathers
        step = count if owners is None else max(1, CHUNK // (n * k))  # rows one extends
        if (len(flat) > limit and count > 1) or count > step:  # past a bound: in chunks
            chunks, lo = [], 0
            while lo < count:  # rows lo..hi-1: whole rows within both bounds, one at least
                last = int(offsets.searchsorted(offsets[lo] + limit, side="right")) - 1
                hi = min(lo + step, max(lo + 1, last))
                chunks.append(self._gather(flat[offsets[lo]:offsets[hi]],
                                           offsets[lo:hi + 1] - offsets[lo],
                                           None if owners is None else owners[lo:hi], empty))
                lo = hi
            return (np.concatenate([values for values, _ in chunks]),
                    None if owners is None else np.concatenate([after for _, after in chunks]))
        starts = offsets[:-1]
        if empty:
            filled = (offsets[1:] > starts).nonzero()[0]
            starts = starts[filled]
        best = np.maximum.reduceat(self._flat.take(flat, axis=0), starts)
        if empty:  # a row without members saves 0
            best, some = np.zeros((count, k)), best
            best[filled] = some
        values = _expected(best, self.probs)
        if owners is None:
            return values, None
        block = self.saved.take(owners, axis=0)
        np.maximum(block, best[:, None], out=block)
        return values, _expected(block.reshape(-1, k), self.probs).reshape(-1, n)

    def lattice(self, i: int) -> np.ndarray:
        """f_i at every subset of the ground set, indexed by bitmask: a
        (2**n,) float array, for the exhaustive lawfulness check.

        The (2**n, k) best savings fill by doubling: the masks from 2**j
        up to 2**(j+1) are those below 2**j plus element j, so
        best[2**j:2**(j+1)] is max(best[:2**j], saved_i[j]), and best[0]
        is 0.  Each row is the
        max :meth:`_gather` and :meth:`batch` take, dotted with probs by
        the same :func:`_expected`, so every value equals :meth:`rows`'
        with ==."""
        saved = self.saved[i]
        best = np.zeros((1 << len(saved), saved.shape[1]))
        for j, row in enumerate(saved):
            np.maximum(best[:1 << j], row, out=best[1 << j:2 << j])
        return _expected(best, self.probs)

    def complements(self, i: int) -> tuple:
        """f_i(N) and f_i(N - j) for every element j: a float and an (n,)
        float array, read from one read-only (m, n + 1) table of every
        scenario, built on the first call and kept.

        Per source, the top count and the next one (0 when n is 1) give
        N's best savings, and N - j's wherever j is the source's first
        best sensor; a tie at the top leaves the next one equal to it.
        The values go through :func:`_expected`, so each equals its
        :meth:`rows` value with ==."""
        if self._complements is None:
            m, n, k = self.saved.shape
            table = np.empty((m, n + 1))
            for part in self._chunks(n * k):  # one (scenarios, n, k) copy of the counts
                saved = self.saved[part]
                first = saved.argmax(axis=1)[:, None]  # (scenarios, 1, k)
                top = np.take_along_axis(saved, first, axis=1)
                best = saved.copy()
                np.put_along_axis(best, first, 0.0, axis=1)
                second = best.max(axis=1, keepdims=True)
                np.copyto(best, top)  # N - j's best: the top count, or the next one at j = first
                np.put_along_axis(best, first, second, axis=1)
                table[part, 0] = _expected(top.reshape(-1, k), self.probs)
                table[part, 1:] = _expected(best.reshape(-1, k), self.probs).reshape(-1, n)
            table.setflags(write=False)  # kept, and shared by every caller
            self._complements = [(float(row[0]), row[1:]) for row in table]
        return self._complements[i]

    def batch(self, i: int, members: np.ndarray) -> np.ndarray:
        """f_i at each row of the (B, n) bool membership matrix, B values,
        each equal with == to the scalar read.

        Per source, the sensor nodes are ranked by saved count, descending,
        and ``ranked`` holds the counts in rank order and then a sentinel
        row of zeros (saved is >= 0, so the sentinel sets the value only
        where the members save 0 for that source or there are none).  A
        set's best sensor for that source is its best-ranked member, and its
        count is an element of saved: the same max :meth:`_gather` takes,
        dotted with probs by the same :func:`_expected`.

        The best rank is read from one float64 product per block of
        ``RANK_BITS`` ranks.  Block b holds ranks 52b up to its end e, which
        is 52(b + 1), or n for the last block; in it, node v weighs
        2**(e - 1 - r) for a source that ranks it r, and 0 for the others.
        A row's product is then a sum of distinct powers of two below
        2**52, so every partial sum is an integer below 2**53, and the sum
        is exact in any order of addition, fused multiply-adds included.
        Its frexp exponent x names the block's best-ranked member, rank
        e - x.  The first block that holds a member wins; a sum of 0 has
        exponent 0 and reads rank e, which for the last block is n, the
        sentinel.  Each product is bounded to ``BATCH_CHUNK`` multiply-adds,
        which keeps it on one BLAS thread.

        The first call builds every scenario's weights and ranked counts,
        from one stable argsort of the stack over its node axis.
        """
        m, n, k = self.saved.shape
        if self._rankings is None:
            starts = np.arange(0, n, RANK_BITS)[:, None, None]  # one (n, k) slice per block
            ends = np.minimum(starts + RANK_BITS, n)
            weights = np.zeros((m, len(starts), n, k))
            ranked = np.zeros((m, n + 1, k))  # row n: the sentinel
            for part in self._chunks(len(starts) * n * k):  # the (scenarios, blocks, n, k) exponents
                saved = self.saved[part]
                order = np.argsort(-saved, axis=1, kind="stable")
                rank = np.empty_like(order)  # rank[i, v, s]: node v's place in source s's order
                np.put_along_axis(rank, order, np.arange(n)[:, None], axis=1)
                rank = rank[:, None]
                np.ldexp(1.0, ends - 1 - rank, where=(starts <= rank) & (rank < ends),
                         out=weights[part])
                ranked[part, :n] = np.take_along_axis(saved, order, axis=1)
            self._rankings = list(zip(weights, ranked))
        weights, ranked = self._rankings[i]  # (blocks, n, k) weights, (n + 1, k) counts
        sources = np.arange(k)  # ranked[r, s] is flat entry r * k + s, one take reads it
        out = np.empty(len(members))
        step = max(1, BATCH_CHUNK // (n * k))
        for lo in range(0, len(members), step):
            chunk = members[lo:lo + step]
            best = n - np.frexp(chunk @ weights[-1])[1]
            for b in range(len(weights) - 2, -1, -1):  # an earlier block's member wins
                sums = chunk @ weights[b]
                np.copyto(best, RANK_BITS * (b + 1) - np.frexp(sums)[1], where=sums > 0)
            out[lo:lo + step] = _expected(ranked.take(best * k + sources), self.probs)
        return out

    def covers(self, members: Sequence[int]) -> np.ndarray:
        """The AND of the listed scenarios' (n, n) covering relations, one
        scenario at least: k covers j when it saves at least as much for
        every source in every listed scenario.  Then max_{v in S+k}
        saved_i[v] >= max_{v in S+j} saved_i[v] for every S, and the sums
        over sources with probs >= 0 keep that order.

        The first scenario's sources compare all (n, n) pairs, in chunks
        of sources whose (sources, n, n) block holds at most ``CHUNK``; only
        the pairs that survive are compared on the other scenarios' saved
        rows, in chunks of pairs whose (pairs, scenarios, k) block holds at
        most ``CHUNK``.  A repeated scenario is compared once."""
        first, *others = dict.fromkeys(members)
        by_source = np.ascontiguousarray(self.saved[first].T)
        k, n = by_source.shape
        relation = np.ones((n, n), dtype=bool)
        step = max(1, CHUNK // relation.size)  # bounds the (step, n, n) temporary
        for lo in range(0, k, step):
            rows = by_source[lo:lo + step]
            relation &= (rows[:, :, None] >= rows[:, None, :]).all(axis=0)
        if others:
            coverer, covered = relation.nonzero()
            off = coverer != covered  # a node covers itself everywhere
            coverer, covered = coverer[off], covered[off]
            offsets = np.array(others) * n  # node v of scenario i is row i * n + v of _flat
            held = np.empty(len(coverer), dtype=bool)
            step = max(1, CHUNK // (len(others) * k))  # bounds the (step, others, k) blocks
            for lo in range(0, len(held), step):
                pairs = slice(lo, lo + step)
                held[pairs] = (self._flat.take(coverer[pairs, None] + offsets, axis=0)
                               >= self._flat.take(covered[pairs, None] + offsets, axis=0)
                               ).all(axis=(1, 2))
            relation[coverer[~held], covered[~held]] = False
        return relation

    def oracle(self, i: int) -> SetFunction:
        """Scenario i's oracle, member i of the stack's family: a scalar
        read computes scenario i alone."""
        n = self.saved.shape[1]
        own = np.array([i])

        def evaluate(subset: frozenset) -> float:
            if not subset:
                return 0.0
            members = np.zeros((1, n), dtype=bool)
            members.put(list(subset), True)
            return float(self.rows(own, members)[0])

        evaluate.covers = partial(self.covers, (i,))
        evaluate.family = (self, i)
        return SetFunction(n, evaluate)


@dataclass(frozen=True)
class Instance:
    network: Network
    scenarios: tuple
    alpha_mode: str = "unit"
    alpha_values: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if self.alpha_mode not in ("unit", "values", "solve"):
            raise ValueError(f"unknown alpha mode {self.alpha_mode!r}")
        if self.alpha_mode != "values" and self.alpha_values is not None:
            # serialize_instance would write the mode alone and drop them
            raise ValueError(f"alpha values need alpha mode 'values', not {self.alpha_mode!r}")
        if self.alpha_mode == "values":
            if self.alpha_values is None or len(self.alpha_values) != len(self.scenarios):
                raise ValueError("alpha values must match the scenario count")
            object.__setattr__(self, "alpha_values", tuple(self.alpha_values))
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
        stack = _ScenarioStack(reduction_matrix(self.network, self.scenarios), self.network)
        return [stack.oracle(i) for i in range(len(self.scenarios))]


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
        vals = list(map(int, toks))
    except ValueError:
        raise ParseError(line_no, f"non-integer {what}") from None
    if vals and max(map(abs, vals)) > sys.float_info.max:
        raise ParseError(line_no, f"{what} beyond float range")
    if count is not None and len(vals) != count:
        raise ParseError(line_no, f"expected {count} {what}s, found {len(vals)}")
    if minimum is not None and vals and min(vals) < minimum:
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

    probs = [1.0 / len(sources)] * len(sources)
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
        scenarios.append(Scenario(weights))

    alpha_mode, alpha_values = "unit", None
    nxt = rd.peek()
    if nxt and nxt[1][0] == "alpha":
        ln, toks = rd.take("alpha")
        if len(toks) < 2:
            raise ParseError(ln, "alpha mode missing")
        alpha_mode = toks[1]
        if alpha_mode == "values":
            try:
                alpha_values = [float(t) for t in toks[2:]]
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
        network = Network(n, edges, sources, probs, costs, budget)
        return Instance(network, scenarios, alpha_mode, alpha_values)
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


def _randints(rng: Random, a: int, b: int, count: int) -> list:
    """``[rng.randint(a, b) for _ in range(count)]``, leaving ``rng`` in the
    same state, from one ``getrandbits`` call per block; the span b - a + 1
    must be below 2**32.

    randint takes one 32-bit Mersenne Twister word per attempt, keeps its
    top ``span.bit_length()`` bits and tries again while they reach the span
    (CPython's ``_randbelow_with_getrandbits``).  ``getrandbits(32 * c)``
    hands out the next c words, the first least significant, so the same
    rule on each word in turn keeps the same values; a block as long as the
    values still missing never takes a word randint would not."""
    span = b - a + 1
    shift = 32 - span.bit_length()
    out = []
    while len(out) < count:
        need = count - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        drawn = np.frombuffer(words, "<u4").astype(np.int64) >> shift
        out += (drawn[drawn < span] + a).tolist()
    return out


def generate_instance(n: int, edge_factor: float, m: int, j_count: int,
                      budget: int, seed: int) -> Instance:
    """Seeded random instance: a reachability backbone plus extra edges,
    travel times ~ U(1,10) per scenario, sensor costs ~ U(5,10), uniform
    source probabilities.

    A seed fixes the instance file byte for byte.  One ``Random(seed)``
    draws, in order, the backbone's node order, the extra edges, the
    sources, the n sensor costs, and then the travel times scenario by
    scenario, each scenario's in edge order."""
    if not 1 <= j_count <= n:
        raise ValueError("source count must be between 1 and the node count")
    if m < 1:
        raise ValueError("at least one scenario is required")
    if not 0 < edge_factor < math.inf:  # a NaN fails this test too
        raise ValueError(f"edge_factor must be positive and finite, got {edge_factor!r}")
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
    sources = rng.sample(range(n), j_count)
    costs = _randints(rng, 5, 10, n)
    times = _randints(rng, 1, 10, m * e_count)
    scenarios = [Scenario(times[i:i + e_count]) for i in range(0, m * e_count, e_count)]
    network = Network(n, edges, sources, [1.0 / j_count] * j_count, costs, budget)
    return Instance(network, scenarios)

