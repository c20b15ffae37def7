"""Relaxed master problem: maximize eta under a cut pool and one knapsack row.

maximize   eta
subject to eta <= constant_k + coefficients_k . x   for every pool cut k
           costs . x <= budget,  x binary

Because every cut coefficient is nonnegative, each cut's exact 0-1 knapsack
over the free variables upper-bounds any feasible completion of a partial
assignment; the node bound is the minimum of those per-cut values.  That
bound drives a best-bound branch and cut, which keeps the artifact free of
an external MILP dependency: every improving candidate goes to a separation
callback, cuts join the pool while the tree is open, and the nodes bounded
before they arrived are re-bounded when popped.  A candidate is offered once,
when its node is created.  A callback that returns the pool value it is
given solves the fixed pool.

Branching fixes variables in one order, given when the state is built
(``order``; every variable in index order by default) and kept by every
solve and pool, so the free set of a node depends only on its depth.  The
order lists the variables the search ranges over; the others stay at zero
in every node and in the greedy start, while the cuts and the pool keep the
whole ground set.  The caller picks the order and vouches that some optimum
sets none of the others (:func:`robustmax.dcg.solve_robust`).  Per depth, one
table on an integer capacity grid (:func:`knapsack_grid`) holds each cut's
knapsack value over the free items at every capacity (Martello & Toth 1990,
*Knapsack Problems*), rebuilt from the pool's rows by :meth:`MasterState.add_cut`
whenever it accepts cuts (it reads each offered cut into rows once); a node's
bound is one row of a table plus the node's per-cut values.

A MasterState never writes an array, nor its pool list, after it builds
it: :meth:`MasterState.add_cut` replaces the pool, its rows and the tables
with new objects, and :meth:`MasterState.solve` only reads them.  So a
shallow ``copy.copy`` of a state is an independent state that shares them,
and :meth:`MasterState.freeze` makes the arrays read-only, so that an
in-place write raises instead of reaching another copy.
:func:`robustmax.dcg.solve_robust` keeps one frozen warm start and solves a
copy of it.  A state, or a copy, serves one solve call at a time; distinct
ones may run in parallel.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import TOL, SubmodularCut, dominance, objective_slack

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMIT = "time_limit"
CELLS = 256  # most capacity cells above 0 in a node-bound table


def knapsack_grid(cost: np.ndarray, budget: float):
    """Integer weights and the unit u of the tables' capacity grid.

    Exact grid: u = c_min / q for the smallest q that puts every cost within
    TOL/2 (relative) of a multiple of u, among q <= CELLS * c_min /
    max(budget, c_min), so the budget spans at most ``CELLS`` cells; integer
    costs get one whenever the budget is at most ``CELLS``.  Else u =
    max(budget, c_min) / ``CELLS``: an item cheaper than u weighs 0 and every
    table counts it free, so the bound is valid but loose there.  Weights
    round down, bar a cost within TOL/2 below a multiple of u, which a node's
    cost slack covers.  Scaling costs and budget keeps the weights.
    """
    c_min = cost.min()
    q = np.arange(1, int(CELLS * c_min / max(budget, c_min)) + 1)
    steps = q[:, None] * (cost / c_min)  # row q - 1: cost / (c_min / q)
    on_grid = (np.abs(steps - np.rint(steps)) <= TOL / 2 * steps).all(axis=1)
    unit = c_min / q[on_grid][0] if on_grid.any() else max(budget, c_min) / CELLS
    return np.floor(cost / unit * (1 + TOL / 2)).astype(np.intp), unit


def check_knapsack(n: int, costs: Sequence[float], budget: float):
    if len(costs) != n:
        raise ValueError("one cost per variable is required")
    if not all(0 < c < math.inf for c in costs):
        raise ValueError("costs must be positive and finite")
    if not math.isfinite(budget):
        raise ValueError("budget must be finite")


@dataclass(frozen=True)
class MasterResult:
    eta: float
    x: tuple
    bound: float
    status: str
    nodes: int  # node bounds evaluated in this solve
    separation_bounds: tuple = ()  # per separation call, the bound of the node being expanded


class MasterState:
    """Cut pool plus knapsack data; re-solvable as the pool grows."""

    def __init__(self, n: int, costs: Sequence[float], budget: float,
                 order: Sequence[int] | None = None):
        check_knapsack(n, costs, budget)
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        self.n = n
        # the variables the search may set to one, in branch order
        order = range(n) if order is None else list(order)
        if not (all(isinstance(j, (int, np.integer)) and not isinstance(j, bool)
                    and 0 <= j < n for j in order) and len(set(order)) == len(order)):
            raise ValueError("order must list distinct integer variables in 0..n-1")
        self._branch_order = np.array(order, dtype=np.intp)
        self._kept = np.zeros(n, dtype=bool)
        self._kept[self._branch_order] = True
        self.costs = tuple(costs)
        self.budget = budget
        self._cost = np.array(self.costs, dtype=float)
        # Search admits sets this far over budget, so no summation order or
        # weight rounding hides a set that fits; an incumbent must pass _fits.
        self._cost_slack = TOL * float(self._cost.sum())
        self._weights, self._unit = knapsack_grid(self._cost, budget)
        self._cells = min(CELLS, int((budget + self._cost_slack) / self._unit))
        # _prepare's steps, deepest depth first: the item's weight capped at
        # cells + 1 (too heavy for every cell) and its column, as Python ints
        self._steps = tuple((min(int(self._weights[j]), self._cells + 1), int(j))
                            for j in self._branch_order[::-1])
        self.cut_pool: list = []
        self._C, self._A = np.zeros(0), np.zeros((0, n))  # cut_pool's constants and rows
        self._tables = None  # built by _prepare
        self._changes = 0  # pool changes so far; a heap node records its own

    def add_cut(self, *cuts: SubmodularCut) -> int:
        """Insert ``cuts`` in order and return how many were accepted.

        A cut is accepted unless a pool cut with the same generating set
        pointwise dominates it (:func:`~robustmax.core.dominance`); pool cuts
        it dominates that way are dropped, and it is appended.  The pool, its
        order and the count are those of inserting the cuts one at a time,
        so a later cut of the call may drop or be refused by an earlier one.
        The insertions replay per generating set, on one comparison of the
        rows of the pool cuts and the call's cuts with that set, made when it
        holds two or more; one mask of kept positions selects the new pool and
        its rows, so ``_C[k]``/``_A[k]`` hold ``cut_pool[k]``'s numbers.  A cut
        of the wrong dimension, or whose constant, a coefficient or their sum
        is not finite, is refused before any cut is inserted.
        """
        for cut in cuts:
            if cut.ground_size != self.n:
                raise ValueError("cut dimension does not match the master")
            if not math.isfinite(cut.magnitude):  # so is every entry of a cut that passes
                raise ValueError("cut constant and coefficients must be finite, "
                                 "and so must their sum")
        # by position, not identity: the call may re-offer a pool cut it drops
        merged = self.cut_pool + list(cuts)
        C = np.concatenate((self._C, np.array([c.constant for c in cuts], dtype=float)))
        A = np.concatenate((self._A, np.array([c.coefficients for c in cuts], dtype=float)
                            .reshape(len(cuts), self.n)))
        by_set = {cut.generating_set: [] for cut in cuts}
        for p, cut in enumerate(merged):
            if cut.generating_set in by_set:
                by_set[cut.generating_set].append(p)
        keep, accepted = np.ones(len(merged), dtype=bool), 0
        for same in by_set.values():
            beats = dominance(C[same], A[same], [merged[p].magnitude for p in same]
                              ).tolist() if len(same) > 1 else None
            alive = [q for q, p in enumerate(same) if p < len(self.cut_pool)]
            for r in range(len(alive), len(same)):
                if not any(beats[q][r] for q in alive):
                    alive = [q for q in alive if not beats[r][q]] + [r]
                    accepted += 1
            keep[[p for q, p in enumerate(same) if q not in alive]] = False
        if accepted:
            if keep.all():
                self.cut_pool, self._C, self._A = merged, C, A
            else:
                self.cut_pool = [cut for cut, kept in zip(merged, keep) if kept]
                self._C, self._A = C[keep], A[keep]
            self._changes += 1
            self._prepare()
        return accepted

    def freeze(self):
        """Make the state's arrays read-only, so that copies of it can share
        them; :meth:`add_cut` on a copy still replaces them with its own."""
        for array in (self._C, self._A, self._tables, self._cost, self._weights,
                      self._branch_order, self._kept):
            if array is not None:
                array.setflags(write=False)

    # -- prepared arrays -----------------------------------------------------

    def _prepare(self):
        """Build the node-bound tables from the pool's rows ``_A``, each time
        :meth:`add_cut` accepts cuts.  ``_tables[L, r]`` holds each cut's best
        coefficient sum over the items free at depth L (branch rank >= L) that
        fit in r cells: zeros at the deepest depth, and each other depth is
        the one below plus a 0-1 knapsack step on its item of weight w, taken
        from the plan the state builds once (``_steps``): the cells below w
        are copied, and from cell w on the entry is the one below at r - w
        plus the item's column, then its max with the one below at r, in
        place and with no temporary array."""
        self._tables = None  # the old pool's tables go before the new ones are allocated
        A, cells = self._A, self._cells + 1
        tables = self._tables = np.empty((len(self._branch_order) + 1, cells, len(self._C)))
        below = tables[-1]
        below[:] = 0.0
        for table, (w, j) in zip(tables[-2::-1], self._steps):
            table[:w] = below[:w]
            tail = table[w:]
            np.add(below[:cells - w], A[:, j], out=tail)
            np.maximum(tail, below[w:], out=tail)
            below = table

    def _evaluate(self, base: np.ndarray, level: int, cost_ones: float) -> float:
        """Knapsack bound of the node at depth ``level`` whose fixed ones give
        per-cut values ``base`` and cost ``cost_ones``: min over cuts of base
        plus the table row of the cells left; -inf if they overrun the budget."""
        remaining = self.budget - cost_ones
        if remaining < -self._cost_slack:
            return -math.inf
        cell = min(self._cells, int((remaining + self._cost_slack) / self._unit))
        return float((base + self._tables[level, cell]).min())

    def _greedy_start(self, slack: float):
        """Greedy incumbent: repeatedly add the affordable kept item with the
        best pool-min increase, smallest index on ties."""
        ones = np.zeros(self.n, dtype=bool)
        base = self._C.copy()
        cost_ones = 0.0
        value = float(base.min())
        while True:
            affordable = self._kept & ~ones & (cost_ones + self._cost <= self.budget)
            if not affordable.any():
                break
            candidate_values = (base[:, None] + self._A).min(axis=0)
            candidate_values[~affordable] = -math.inf
            j = int(np.argmax(candidate_values))
            if candidate_values[j] <= value + slack:
                break
            ones[j] = True
            base = base + self._A[:, j]
            cost_ones += self._cost[j]
            value = candidate_values[j]
        return value, ones

    def _fits(self, ones: np.ndarray) -> bool:
        """Whether the chosen costs, summed in element order, fit the budget."""
        return sum(c for c, chosen in zip(self.costs, ones) if chosen) <= self.budget

    # -- solve ----------------------------------------------------------------

    def solve(self, separate: Callable[[tuple, float], float],
              time_limit: float | None = None) -> MasterResult:
        """Best-bound branch and cut over the pool, in one tree.

        Every candidate x that fits and whose pool value beats the incumbent
        by more than the starting pool's objective slack
        (:func:`~robustmax.core.objective_slack`) goes at once to
        ``separate(x, value)``, with its pool value.  The callback may add
        cuts with :meth:`add_cut` and returns the value later candidates must
        beat: the true objective at x plus any gap the caller accepts as
        optimal.  The incumbent and the pruning then follow those values, not
        pool values.  ``separation_bounds`` records, per call, the bound of
        the node being expanded (the best bound left, nonincreasing).  An open
        node is stored as its fixings and the pool at its push (a one child is
        pushed before its offer), and is re-bounded when popped under a newer
        pool.  Every pool branches in the state's one order.

        Each x is offered once, when its node is created: the greedy start
        and the root's zeros at the start, a one child as it is bounded (a
        zero child has its parent's ones).  The master relies on this: once
        ``separate(x, value)`` returns w, x's pool value is at most w plus
        the slack, as cuts tight at x make it.

        A node is pruned once its bound is within the slack of the incumbent.
        ``bound`` is the incumbent's value, or at a time limit the larger
        bound of the node popped then, the best one left open; either way no
        feasible x scores above it by more than the slack.  A time limit
        never raises: the incumbent and the bound are returned with status
        "time_limit".
        """
        if not self.cut_pool:
            raise ValueError("cut pool is empty; solve needs at least one cut")
        start = time.monotonic()
        slack = objective_slack(self.cut_pool)

        inc_value, inc_x = -math.inf, ()
        separation_bounds = []

        def offer(value: float, ones: np.ndarray) -> bool:  # True iff the pool changed
            nonlocal inc_value, inc_x
            # every value offered is bounded under the current pool
            if value <= inc_value + slack or not self._fits(ones):
                return False
            x = tuple(int(b) for b in ones)
            changes = self._changes
            separation_bounds.append(expanding)
            value = separate(x, value)
            if value > inc_value + slack:
                inc_value, inc_x = value, x
            elif value >= inc_value - slack and x < inc_x:
                inc_x = x
            return self._changes != changes

        # Heap entries hold a node's fixings, not its per-cut values: (-bound,
        # seq, ones, depth, cost of ones, pool changes when pushed), so a bound
        # is pushed before any offer that may change the pool.
        heap = []
        seq = itertools.count()

        def push(bound: float, ones: np.ndarray, depth: int, cost: float):
            if bound > inc_value + slack:
                heapq.heappush(heap, (-bound, next(seq), ones, depth, cost, self._changes))

        root_ones = np.zeros(self.n, dtype=bool)
        expanding = self._evaluate(self._C, 0, 0.0)  # bound of the node being expanded
        nodes = 1
        push(expanding, root_ones, 0, 0.0)
        offer(*self._greedy_start(slack))
        # the all-zeros x, valued under the pool the greedy start may have grown
        offer(float(self._C.min()), root_ones)
        status = STATUS_OPTIMAL
        open_bound = -math.inf  # bound of the node popped when time ran out

        while heap:
            neg_bound, _, ones, level, cost_ones, stamp = heapq.heappop(heap)
            bound = -neg_bound
            if bound <= inc_value + slack:
                # best-first order: nothing left can beat the incumbent
                break
            if time_limit is not None and time.monotonic() - start > time_limit:
                status = STATUS_TIME_LIMIT
                open_bound = bound
                break
            base = self._C + self._A @ ones
            if stamp != self._changes:
                # Cuts arrived since this node was bounded; its stale bound
                # is still valid, as cuts only lower bounds.  Re-bound it.
                bound = self._evaluate(base, level, cost_ones)
                nodes += 1
                if bound <= inc_value + slack or (heap and bound < -heap[0][0]):
                    push(bound, ones, level, cost_ones)
                    continue
            if level >= len(self._branch_order):
                continue
            expanding = bound
            j = int(self._branch_order[level])
            if cost_ones + self._cost[j] <= self.budget + self._cost_slack:
                child_ones = ones.copy()
                child_ones[j] = True
                child_base = base + self._A[:, j]
                child_cost = cost_ones + float(self._cost[j])
                push(self._evaluate(child_base, level + 1, child_cost),
                     child_ones, level + 1, child_cost)
                nodes += 1
                if offer(float(child_base.min()), child_ones):
                    base = self._C + self._A @ ones
            push(self._evaluate(base, level + 1, cost_ones), ones, level + 1, cost_ones)
            nodes += 1

        x_arr = np.array(inc_x, dtype=float)
        eta = float((self._C + self._A @ x_arr).min())
        bound = max(eta, inc_value, open_bound)
        return MasterResult(eta=eta, x=inc_x, bound=bound, status=status, nodes=nodes,
                            separation_bounds=tuple(separation_bounds))
