"""Delayed constraint generation for worst-case submodular maximization.

Maximize min_i f_i(x)/alpha_i over knapsack-feasible binary x by branch and
cut: one best-bound tree over a relaxed master (cut pool) lives for the whole
run, and every candidate it finds that beats the incumbent goes to exact
separation at once.  The violated scenarios receive a fresh hypograph cut.
With ``reduce`` on, only the scenarios attaining the worst scaled value are
separated, and when fewer than :data:`K` tie, the next most violated ones
up to K: cutting the worst alone suffices for optimality, and the few more
cuts shrink the tree while the pool stays small (Achterberg 2007, cut
selection).  A nonzero ``stop_pt`` routes the candidate's support through
:func:`strengthen_generating_sets`, which swaps covered support elements for
zero-marginal witnesses before the cut is built; the resulting inequality is
still tight at the candidate.  The tree keeps its open nodes as cuts arrive
and re-bounds each when it is next popped (Padberg & Rinaldi 1991).

Strengthening is one algorithm with two read routes.  When the oracles
are members of one family that declares a structural form (an instance's
water oracles are; see :class:`~robustmax.core.SetFunction`), a
separation reads through :func:`~robustmax.core.structural_values`, in a
fixed number of calls however many scenarios it cuts: the candidate in
every scenario; then, with ``stop_pt`` nonzero, the violated ones'
marginals together with f({k}) and f({j, k}) for each k in the support,
and one call per admission round, which checks every remaining
candidate; and last their cut rows.  These reads neither read nor fill
the value memo.  Other oracles make at most four batch
:func:`~robustmax.core.values_in` reads: the candidate, the marginals, the
pair keys and the cut keys.  Their admission rounds check one candidate
per function, reading its few other values one at a time, each miss a
one-key ``values_in`` read, since a keyed value may cost an evaluation.
Both routes decide alike: the witness test, the queues and the admission
identity are computed once, whatever the reads.  Each oracle
memoizes its strengthened sets and its cuts, so solves that share oracles
(the acceptance grid, ``robustmax verify``) build each once: a memoized
strengthening makes no marginal or pair read, and a memoized cut no
cut-row read.

Before the tree starts, locations that a no-dearer location covers in every
scenario are fixed at zero (:func:`kept_locations`), so the tree branches
only on the rest; cuts and the pool still span the whole ground set.  It
branches on them in one order, read from the empty-set cuts alone, so a
warm pool leaves it as a cold start has it.

The warm start, that order and the pool of empty-set cuts with its
node-bound tables, is kept for the last inputs solved without initial cuts,
keyed by the oracles, alphas, costs and budget, so the four configs that
the acceptance grid and ``robustmax verify`` run in a row on shared oracles
build it once; each solve starts from a shallow copy, whose read-only
arrays it replaces as its pool grows (:mod:`robustmax.master`).  The kept
start holds its oracles alive until a solve on other inputs replaces it.

A run is sequential (separation runs inside the tree's search); distinct runs
are independent.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Iterable, Sequence

import numpy as np

from .core import (TOL, SetFunction, SubmodularCut, build_cuts, element_set,
                   empty_set_cuts, objective_slack, structural_values, values_in)
from .master import MasterState, STATUS_OPTIMAL, check_knapsack

MAX_GROUND = 22  # largest ground set brute_force_robust enumerates
# Under ``reduce``, the fewest scenarios a separation cuts when that many are
# violated: 3 took less CPU time than 1 on the instances measured (the table
# is in CHANGES.md).
K = 3

@dataclass
class DcgConfig:
    """Knobs for the branch-and-cut solve.

    reduce      separate the scenarios attaining the worst value, and the next
                most violated ones up to :data:`K` when fewer tie (ties to the
                smaller index); off, every violated scenario
    stop_pt     witness count for generating-set strengthening (0 = off, the
                default: by measurement its reads cost more time than its
                stronger cuts save; 2 gives the paper's strengthened cuts)
    epsilon     objective gap accepted as optimal on the violation test (finite, >= 0)
    time_limit  seconds for the whole call, >= 0 (None = unlimited); the
                ratio pipeline splits it among its solves

    The pool always starts from every scenario's empty-set cut, inserted
    with any initial cuts in one call to
    :meth:`~robustmax.master.MasterState.add_cut`, and each separation
    inserts its cuts in one call; the pool drops pointwise-dominated cuts
    that share a generating set.  Tolerances follow the one policy of
    :mod:`robustmax.core`.
    """

    reduce: bool = True
    stop_pt: int = 0
    epsilon: float = 0.0
    time_limit: float | None = None

    def __post_init__(self):
        for name, value in (("epsilon", self.epsilon), ("time_limit", self.time_limit)):
            if isinstance(value, (bool, np.bool_)):  # a bool passes the range checks as 0 or 1
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and nonnegative")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be nonnegative")
        if not isinstance(self.reduce, (bool, np.bool_)):
            raise ValueError(f"reduce must be a bool, got {self.reduce!r}")
        if isinstance(self.stop_pt, bool) or not isinstance(self.stop_pt, (int, np.integer)):
            raise ValueError(f"stop_pt must be an integer, got {self.stop_pt!r}")
        if self.stop_pt < 0:
            raise ValueError("stop_pt must be nonnegative")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one cut-generation run.

    ``eta`` is the best certified objective value and ``x`` the placement
    attaining it; ``upper_bound`` is what the search proved, eta + epsilon
    at optimality and the tree's bound when time ran out, and ``gap`` is
    (upper_bound - eta)/upper_bound (0 unless upper_bound > 0).
    ``iterations`` is one plus the number of separations that added cuts,
    ``cuts_added`` counts pool growth beyond the warm start, ``nodes`` the
    tree nodes the master bounded (``MasterResult.nodes``), and
    ``master_values`` is the master's ``MasterResult.separation_bounds``: per
    separation, the bound of the tree node being expanded, nonincreasing.
    """

    eta: float
    x: tuple
    upper_bound: float
    gap: float
    iterations: int
    cuts_added: int
    wall_time: float
    status: str
    nodes: int
    master_values: tuple = ()
    pool: tuple = ()


def ground_size(fns: Sequence[SetFunction]) -> int:
    """The ground-set size of the scenario functions, which must be at least
    one function and share it."""
    if not fns:
        raise ValueError("at least one scenario function is required")
    n = fns[0].ground_size
    for i, fn in enumerate(fns):
        if fn.ground_size != n:
            raise ValueError(f"scenario function {i} has a ground set of size "
                             f"{fn.ground_size}, scenario function 0 one of size {n}")
    return n


def check_alphas(alphas: Sequence[float], m: int):
    """One positive, finite alpha per scenario function, ``m`` of them."""
    if len(alphas) != m:
        raise ValueError(f"expected {m} alphas, one per scenario function, found {len(alphas)}")
    if not all(0 < a < math.inf for a in alphas):
        raise ValueError("alphas must be positive and finite")


def support(x: Sequence[int]) -> frozenset:
    return frozenset(j for j, xj in enumerate(x) if xj)


def values_at(fns: Sequence[SetFunction], subset: Iterable[int]) -> list:
    """f_i(S) for every function, as floats, from the functions'
    structural forms, or else in one :func:`values_in` read."""
    subset = element_set(subset)
    key = fns[0].key(subset)
    read = structural_values(fns, [subset] * len(fns), extend=False)
    if read is not None:
        return read[0].tolist()
    return [v for v, in values_in(fns, [[key]] * len(fns))]


def strengthen_generating_set(fn: SetFunction, incumbent: Iterable[int],
                              stop_pt: int) -> frozenset:
    """:func:`strengthen_generating_sets` for fn alone, f(incumbent) read first."""
    incumbent = element_set(incumbent)
    if stop_pt == 0:
        return incumbent
    return strengthen_generating_sets((fn,), incumbent, (fn.value(incumbent),), stop_pt)[0]


def strengthen_generating_sets(fns: Sequence[SetFunction], incumbent: Iterable[int],
                               at: Sequence[float], stop_pt: int) -> list:
    """Rebuild the incumbent support into a stronger cut generating set for
    each function, ``at`` holding each f(incumbent).

    Scans every element j with zero marginal on the incumbent support; when
    it has stop_pt in-support witnesses k with fn.marginal(j, {k}) == 0, tmpQ
    is the covered set plus the first stop_pt of them in index order, and
    the interchange identity

        f(tmpQ) == f(S + j) + sum_{l in tmpQ} marginal(l, S + j)

    holds, both up to TOL * f(incumbent), j is admitted and its witnesses are
    marked as covered.  The result is the admitted elements plus the uncovered
    part of the incumbent; the cut built on it is valid and remains tight at
    the incumbent.  stop_pt = 0 returns the support unchanged.

    Each function memoizes its result under the incumbent, ``float(at)``
    and ``stop_pt`` (see :class:`~robustmax.core.SetFunction`), and a repeat
    returns the same frozenset, reading nothing.  The other functions go to
    :func:`_strengthen`, one algorithm whose reads alone depend on whether
    the functions share a structural form.  An element out of range is
    refused with ValueError before any read.
    """
    incumbent = element_set(incumbent)
    if stop_pt == 0:
        return [incumbent] * len(fns)
    ground_size(fns)
    stop_pt = index(stop_pt)
    entries = [(incumbent, float(a), stop_pt) for _, a in zip(fns, at, strict=True)]
    gens = [fn._strengthened.get(entry) for fn, entry in zip(fns, entries)]
    misses = [c for c, gen in enumerate(gens) if gen is None]
    if not misses:
        return gens
    fns, at = [fns[c] for c in misses], [at[c] for c in misses]
    key = fns[0].key(incumbent)  # the range check: a form read would not make it
    built = _strengthen(fns, incumbent, key, at, stop_pt)
    for c, fn, (admitted, covered) in zip(misses, fns, built):
        # setdefault: a set asked for twice in one call is one object
        gens[c] = fn._strengthened.setdefault(entries[c],
                                              frozenset(admitted) | (incumbent - covered))
    return gens


def _strengthen(fns, incumbent, key, at, stop_pt) -> list:
    """Each function's (admitted, covered) sets, ``key`` the incumbent's
    bitmask.

    With a structural form shared by the functions (see
    :func:`~robustmax.core.structural_values`), one call reads the
    marginals at the incumbent and, at each singleton {k} of it, f({k}) and
    f({j, k}) for every j.  Otherwise one :func:`values_in` read gives the
    marginals and a second the pair keys of the zero-gain elements and each
    singleton; the pairs of other elements stay NaN, which no witness test
    passes.

    The admission loops then run in rounds over every function at once: a
    round checks candidates of each function's queue against its current
    sets, admits the first that passes, and leaves the rest to the next
    round, so it decides as the loop one candidate at a time does.  A form
    round checks every remaining candidate in one call.  A keyed round
    checks only each queue's head, through scalar reads, since every keyed
    value may cost an evaluation and a candidate behind an admission is
    checked again anyway."""
    m, b, n = len(fns), len(incumbent), fns[0].ground_size
    bar = sorted(incumbent)
    slacks = [TOL * a for a in at]
    slack = np.array(slacks)[:, None]
    read = structural_values(fns + [fn for fn in fns for _ in bar],
                             [incumbent] * m + [(k,) for _ in fns for k in bar])
    form = read is not None
    if form:
        values, after = read
        gains, alone = after[:m], values[m:].reshape(m, 1, b)
        pairs = after[m:].reshape(m, b, n).transpose(0, 2, 1)
    else:
        gains = np.array(values_in(fns, [fns[0].marginal_keys(key)] * m))
    zeros = gains - np.array(at)[:, None] <= slack
    if not form:
        js = [np.flatnonzero(zero).tolist() for zero in zeros]
        # each function's pair keys, then each incumbent singleton once
        reads = values_in(fns, [[1 << j | 1 << k for j in fn_js for k in bar]
                                + [1 << k for k in bar] * bool(fn_js) for fn_js in js])
        pairs, alone = np.full((m, n, b), np.nan), np.full((m, 1, b), np.nan)
        for c, (fn_js, fn_read) in enumerate(zip(js, reads)):
            if fn_js:
                pairs[c, fn_js] = np.reshape(fn_read[:len(fn_js) * b], (len(fn_js), b))
                alone[c, 0] = fn_read[len(fn_js) * b:]
    # witness[c, j, r]: k = bar[r] is a witness for j, f({j, k}) - f({k}) within the slack
    witness = pairs - alone <= slack[:, :, None]
    enough = zeros & (witness.sum(axis=2) >= stop_pt)
    queues = [[(j, [k for k, w in zip(bar, witness[c, j].tolist()) if w][:stop_pt])
               for j in np.flatnonzero(enough[c]).tolist()] for c in range(m)]
    built = [(set(), set()) for _ in fns]
    while any(queues):
        checks = [(c, j, covered.union(found), frozenset(admitted | {j}))
                  for c, ((admitted, covered), queue) in enumerate(zip(built, queues))
                  for j, found in (queue if form else queue[:1])]
        if form:
            # rows 2r and 2r + 1: check r's tmp and its admitted elements and j
            at_rows, after_rows = structural_values(
                [fns[c] for c, *_ in checks for _ in (0, 1)],
                [s for *_, tmp, with_j in checks for s in (tmp, with_j)])
            at_rows = at_rows.tolist()
            sides = zip(after_rows[1::2].tolist(), at_rows[::2], at_rows[1::2])
        else:
            sides = [({l: fns[c].value(with_j | {l}) for l in tmp}, fns[c].value(tmp),
                      fns[c].value(with_j)) for c, _, tmp, with_j in checks]
        passed = set()  # the functions that admitted an element this round
        for (c, j, tmp, _), (after_with_j, lhs, at_with_j) in zip(checks, sides):
            if c in passed:
                continue
            queues[c] = queues[c][1:]
            # the interchange identity, W the admitted elements and j:
            # f(tmp) against f(W) plus the marginals on W of tmp's elements
            if abs(lhs - (at_with_j + sum(after_with_j[l] - at_with_j for l in tmp))) <= slacks[c]:
                built[c][0].add(j)
                built[c][1].update(tmp)
                passed.add(c)
    return built


def kept_locations(fns: Sequence[SetFunction], costs: Sequence[float]) -> np.ndarray:
    """The locations the tree branches on, in index order: those no other
    location beats by the oracles' covering relations and the costs; every
    location when some oracle declares no relation, or when the costs are
    not integers summing below 2**53 (then a swap below could round a cost
    sum up past the budget).

    With ``covers`` the AND of every oracle's relation (one k must cover j in
    every scenario), k beats j when k != j, covers[k, j] and either
    c_k < c_j, or c_k == c_j and (not covers[j, k] or k < j).  As covers is
    transitive, beating is a strict partial order, so every location beaten
    is beaten by an unbeaten one; the unbeaten are kept.

    Exchange argument: let S fit the budget and hold a dropped j, and let k
    be a kept location that beats j.  With T = S - j, S' = T + k costs no
    more than S and f_i(S') = f_i(T + k) >= f_i(T + j) = f_i(S) in every
    scenario i.  Each such swap removes one dropped location, so some
    optimum holds kept locations only, and the optimum is unchanged.  With
    integer costs summing below 2**53 every cost sum is exact in any order,
    so S' fits whenever S does.  A costs vector of the wrong length is left
    to :func:`~robustmax.master.check_knapsack` to refuse.
    """
    relations = [fn.covers for fn in fns]
    cost = np.asarray(costs, dtype=float)
    index = np.arange(ground_size(fns))
    if (any(relation is None for relation in relations) or len(cost) != len(index)
            or not cost.sum() < 2**53 or (cost != np.floor(cost)).any()):
        return index
    covers = np.logical_and.reduce(relations)
    tied = (cost[:, None] == cost) & (~covers.T | (index[:, None] < index))
    beats = covers & ((cost[:, None] < cost) | tied)
    np.fill_diagonal(beats, False)
    return np.flatnonzero(~beats.any(axis=0))


@lru_cache(maxsize=1)
def _warm_state(fns: tuple, alphas: tuple, costs: tuple, budget: float,
                initial_cuts: tuple = ()) -> MasterState:
    """The master a solve starts from: the branch order read from the
    empty-set cuts and restricted to :func:`kept_locations`, and the pool
    after one :meth:`~robustmax.master.MasterState.add_cut` of the
    empty-set cuts and ``initial_cuts``.  Its arrays are read-only, so
    copies of it may share them (see :mod:`robustmax.master`).  The last
    call without initial cuts is kept and answers a repeat of its inputs;
    ``__wrapped__`` builds one uncached."""
    n = len(costs)
    empty = empty_set_cuts(fns, alphas)
    score = np.min([cut.coefficients for cut in empty], axis=0) / np.asarray(costs, dtype=float)
    order = np.lexsort((np.arange(n), -score))
    kept = np.zeros(n, dtype=bool)
    kept[kept_locations(fns, costs)] = True
    state = MasterState(n, costs, budget, order[kept[order]])
    state.add_cut(*empty, *initial_cuts)
    state.freeze()
    return state


def solve_robust(fns: Sequence[SetFunction], alphas: Sequence[float],
                 costs: Sequence[float], budget: float,
                 config: DcgConfig | None = None,
                 initial_cuts: Iterable[SubmodularCut] = ()) -> SolveReport:
    """Branch-and-cut solve of max min_i f_i(x)/alpha_i over the knapsack.

    Terminates when no open node's bound exceeds the incumbent's true worst
    scaled value plus epsilon (upper_bound = eta + epsilon, up to the objective
    slack of the warm-start pool) or when the time limit runs out (upper_bound
    = the tree's bound); either way eta <= optimum <= upper_bound.  Never
    returns an infeasible x.  The tree branches only on :func:`kept_locations`,
    best first by the min over the empty-set cuts of each coefficient per
    unit cost, ties to the smaller index: the order a cold start's pool
    gives, whatever ``initial_cuts`` hold.

    The warm start (that order, the pool after inserting the empty-set cuts
    and ``initial_cuts`` in one call, and its node-bound tables) is built by
    ``_warm_state``.  Without initial cuts, the last one built is kept,
    under the key ``(tuple(fns), tuple(alphas), tuple(costs), budget)``
    taken after the input checks, so that no NaN is in it and every value
    compares exactly (oracles by identity; 5 and 5.0 are one key).  A
    solve on equal inputs runs on a shallow copy of it, and one on other
    inputs replaces it; the kept state holds the last inputs' oracles alive
    until then.  A solve with initial cuts builds its own start and neither
    reads nor replaces the kept one.
    """
    config = config or DcgConfig()
    m = len(fns)
    n = ground_size(fns)
    check_alphas(alphas, m)
    check_knapsack(n, costs, budget)
    start = time.monotonic()

    initial_cuts = tuple(initial_cuts)
    key = (tuple(fns), tuple(alphas), tuple(costs), budget)
    if initial_cuts:
        state = _warm_state.__wrapped__(*key, initial_cuts)
    else:
        state = copy.copy(_warm_state(*key))
        state.costs = tuple(costs)  # _fits sums the caller's costs, ints or floats
    warm_size = len(state.cut_pool)
    slack = objective_slack(state.cut_pool)

    separations = 0

    def separate(x_bar: tuple, value: float) -> float:
        """Cut off x_bar for its violated scenarios; x_bar's worst scaled
        value plus epsilon is what the tree must beat from now on."""
        nonlocal separations
        chosen = support(x_bar)
        at_x = values_at(fns, chosen)
        values = [v / a for v, a in zip(at_x, alphas)]
        worst = min(values)
        if value <= worst + config.epsilon + slack:
            return worst + config.epsilon  # no scenario is violated
        # the tied scenarios rank first, so the first max(K, tied) are every
        # tied one and the next most violated up to K; without reduce, K = m
        ranked = sorted(range(m), key=values.__getitem__)
        tied = sum(v <= worst + slack for v in values)
        targets = sorted(ranked[:max(K if config.reduce else m, tied)])
        violated = [i for i in targets if value > values[i] + config.epsilon + slack]
        cut_fns = [fns[i] for i in violated]
        gens = strengthen_generating_sets(cut_fns, chosen, [at_x[i] for i in violated],
                                          config.stop_pt)
        cuts = build_cuts(cut_fns, gens, [alphas[i] for i in violated], violated)
        if not state.add_cut(*cuts):
            raise RuntimeError("separation stalled: violated scenario produced no new cut")
        separations += 1
        return worst + config.epsilon

    remaining = None
    if config.time_limit is not None:
        remaining = max(0.0, config.time_limit - (time.monotonic() - start))
    result = state.solve(separate, time_limit=remaining)
    x = result.x
    eta = min(v / a for v, a in zip(values_at(fns, support(x)), alphas))
    upper = eta + config.epsilon if result.status == STATUS_OPTIMAL else max(result.bound, eta)
    gap = (upper - eta) / upper if upper > 0 else 0.0
    return SolveReport(eta=eta, x=x, upper_bound=upper, gap=gap,
                       iterations=separations + 1,
                       cuts_added=len(state.cut_pool) - warm_size,
                       wall_time=time.monotonic() - start, status=result.status,
                       nodes=result.nodes, master_values=result.separation_bounds,
                       pool=tuple(state.cut_pool))


def brute_force_robust(fns: Sequence[SetFunction], alphas: Sequence[float],
                       costs: Sequence[float], budget: float) -> tuple:
    """Exact reference by enumeration; refuses ground sets above MAX_GROUND.

    Returns (eta, x) with ties broken by the lexicographically smallest
    binary vector.
    """
    n = ground_size(fns)
    check_alphas(alphas, len(fns))
    if n > MAX_GROUND:
        raise ValueError(f"ground set of size {n} exceeds the enumeration guard {MAX_GROUND}")
    check_knapsack(n, costs, budget)
    # cost[mask] sums the chosen costs in ascending element order, as a
    # running sum over the tuple x would.
    cost = np.zeros(1 << n)
    for j, c in enumerate(costs):
        cost[1 << j:2 << j] = cost[:1 << j] + c
    feasible = np.flatnonzero(~(cost > budget))
    if not feasible.size:
        return -math.inf, None
    keys = feasible.tolist()
    worst = fns[0].values(keys) / alphas[0]
    for fn, a in zip(fns[1:], alphas[1:]):
        np.minimum(worst, fn.values(keys) / a, out=worst)
    best = worst.max()
    # Among tied masks, the lexicographically smallest x is the one whose
    # bit-reversed mask is smallest.
    tied = feasible[worst == best]
    bits = np.arange(n)
    reversed_masks = ((tied[:, None] >> bits & 1) << (n - 1 - bits)).sum(axis=1)
    mask = int(tied[reversed_masks.argmin()])
    return float(best), tuple((mask >> j) & 1 for j in range(n))
