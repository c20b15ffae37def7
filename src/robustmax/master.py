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

Branching fixes variables in one order per solve, taken from the pool at its
start, so the free set of a node depends only on its depth.  A state may be
given the variables the search ranges over (``kept``); the others stay at
zero in every node and in the greedy start, while the cuts and the pool keep
the whole ground set.  The caller vouches that some optimum sets none of
them (:func:`robustmax.dcg.kept_locations`).  Per depth, one
table on an integer capacity grid (:func:`knapsack_grid`) holds each cut's
knapsack value over the free items at every capacity (Martello & Toth 1990,
*Knapsack Problems*), built for every depth after each pool change; a
node's bound is one row of it plus the node's per-cut values.

A MasterState is owned by a single solve call; distinct states may run in
parallel.
"""

from __future__ import annotations

import heapq
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


class MasterState:
    """Cut pool plus knapsack data; re-solvable as the pool grows."""

    def __init__(self, n: int, costs: Sequence[float], budget: float,
                 kept: Sequence[int] | None = None):
        check_knapsack(n, costs, budget)
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        self.n = n
        # variables the search may set to one; None keeps all of them
        kept = range(n) if kept is None else list(kept)
        if not all(0 <= j < n for j in kept):
            raise ValueError("kept variables must lie in 0..n-1")
        self._kept = np.zeros(n, dtype=bool)
        self._kept[kept] = True
        self.costs = tuple(costs)
        self.budget = budget
        self._cost = np.array(self.costs, dtype=float)
        # Search admits sets this far over budget, so no summation order or
        # weight rounding hides a set that fits; an incumbent must pass _fits.
        self._cost_slack = TOL * float(self._cost.sum())
        self._weights, self._unit = knapsack_grid(self._cost, budget)
        self._cells = min(CELLS, int((budget + self._cost_slack) / self._unit))
        self.cut_pool: list = []
        self._changes = 0  # pool changes so far; a heap node records its own

    def add_cut(self, *cuts: SubmodularCut) -> int:
        """Insert ``cuts`` in order and return how many were accepted.

        A cut is accepted unless a pool cut with the same generating set
        pointwise dominates it (:func:`~robustmax.core.dominance`); pool cuts
        it dominates that way are dropped, and it is appended.  The pool, its
        order and the count are those of inserting the cuts one at a time,
        so a later cut of the call may drop or be refused by an earlier one.
        One comparison covers every pair among the call's cuts and the pool
        cuts that share a generating set with one of them; the insertions
        then replay it.  A cut of the wrong dimension, or whose constant, a
        coefficient or their sum is not finite, is refused before any cut is
        inserted.
        """
        for cut in cuts:
            if cut.ground_size != self.n:
                raise ValueError("cut dimension does not match the master")
            if not math.isfinite(cut.magnitude):  # so is every entry of a cut that passes
                raise ValueError("cut constant and coefficients must be finite, "
                                 "and so must their sum")
        gens = {cut.generating_set for cut in cuts}
        shared = [i for i, c in enumerate(self.cut_pool) if c.generating_set in gens]
        group = [self.cut_pool[i] for i in shared] + list(cuts)
        # Only cuts that share a generating set are compared: no matrix when none do.
        beats = dominance(group).tolist() if len(gens) < len(group) else None
        alive = list(range(len(shared)))  # positions in group of the cuts in the pool
        accepted = 0
        for r in range(len(shared), len(group)):
            gen = group[r].generating_set
            same = [q for q in alive if group[q].generating_set == gen]
            if not any(beats[q][r] for q in same):
                drop = {q for q in same if beats[r][q]}
                alive = [q for q in alive if q not in drop] + [r]
                accepted += 1
        if accepted:
            # by position, not identity: the call may re-offer a pool cut it drops
            dropped = set(shared) - {shared[q] for q in alive if q < len(shared)}
            if dropped:
                self.cut_pool = [c for i, c in enumerate(self.cut_pool) if i not in dropped]
            self.cut_pool += [group[r] for r in alive if r >= len(shared)]
            self._changes += 1
        return accepted

    # -- prepared arrays -----------------------------------------------------

    def _prepare(self, branch_order: np.ndarray | None = None):
        """Build the per-pool arrays the node bounds read.  The branch order,
        over the kept variables, comes from the pool unless given, as it is
        when the pool grows during a solve.  ``_tables[L, r]`` holds each
        cut's best coefficient sum over the items free at depth L (branch
        rank >= L) that fit in r cells: zeros at the deepest depth, and each
        other depth is the one below plus a 0-1 knapsack step on its item."""
        self._A = np.array([c.coefficients for c in self.cut_pool], dtype=float)
        self._C = np.array([c.constant for c in self.cut_pool], dtype=float)
        if branch_order is None:
            # Branch priority: free variable with the best guaranteed (min
            # over cuts) coefficient per unit cost, ties to the smallest index.
            score = self._A.min(axis=0) / self._cost
            branch_order = np.lexsort((np.arange(self.n), -score))
            branch_order = branch_order[self._kept[branch_order]]
        self._branch_order = branch_order
        self._tables = None  # the old pool's tables go before the new ones are allocated
        tables = self._tables = np.zeros((len(branch_order) + 1, self._cells + 1, len(self._C)))
        for depth, j in reversed(list(enumerate(branch_order))):
            below, table = tables[depth + 1], tables[depth]
            w = min(self._weights[j], len(below))  # an item too heavy for every cell: no step
            table[:] = below
            np.maximum(table[w:], below[:len(below) - w] + self._A[:, j], out=table[w:])

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

    def solve(self, separate: Callable[[tuple, float, float], float],
              time_limit: float | None = None) -> MasterResult:
        """Best-bound branch and cut over the pool, in one tree.

        Every candidate x that fits and whose pool value beats the incumbent
        by more than the starting pool's objective slack
        (:func:`~robustmax.core.objective_slack`) goes at once to
        ``separate(x, value, bound)``, with its pool value and the bound of
        the node being expanded (the best bound left).  The callback may add
        cuts with :meth:`add_cut` and returns the value later candidates must
        beat: the true objective at x plus any gap the caller accepts as
        optimal.  The incumbent and the pruning then follow those values, not
        pool values.  Open nodes are kept when cuts arrive: a node bounded
        under an older pool is re-bounded when popped, in the branch order the
        solve began with.

        Each x is offered once, when its node is created: the greedy start
        and the root's zeros at the start, a one child as it is bounded (a
        zero child has its parent's ones).  The master relies on this: once
        ``separate(x, value, bound)`` returns w, x's pool value is at most w
        plus the slack, as cuts tight at x make it.

        A node is pruned once its bound is within the slack of the incumbent.
        ``bound`` is the incumbent's value, or at a time limit the larger
        bound of the node popped then, the best one left open; either way no
        feasible x scores above it by more than the slack.  A time limit
        never raises: the incumbent and the bound are returned with status
        "time_limit".
        """
        if not self.cut_pool:
            raise ValueError("cut pool is empty; solve needs at least one cut")
        self._prepare()
        start = time.monotonic()
        slack = objective_slack(self.cut_pool)

        inc_value, inc_x = -math.inf, ()

        def offer(value: float, ones: np.ndarray):
            nonlocal inc_value, inc_x
            # every value offered is bounded under the current pool
            if value <= inc_value + slack or not self._fits(ones):
                return
            x = tuple(int(b) for b in ones)
            changes = self._changes
            value = separate(x, value, expanding)
            if self._changes != changes:
                self._prepare(self._branch_order)
            if value > inc_value + slack:
                inc_value, inc_x = value, x
            elif value >= inc_value - slack and x < inc_x:
                inc_x = x

        root_ones = np.zeros(self.n, dtype=bool)
        root_bound = self._evaluate(self._C, 0, 0.0)
        nodes = 1
        # Heap entries: (-bound, seq, ones, per-cut value of ones, depth, cost
        # of ones, pool changes at the bound).
        heap = [(-root_bound, 0, root_ones, self._C, 0, 0.0, self._changes)]
        expanding = root_bound  # bound of the node being expanded
        offer(*self._greedy_start(slack))
        # the all-zeros x, valued under the pool the greedy start may have grown
        offer(float(self._C.min()), root_ones)
        seq = 0
        status = STATUS_OPTIMAL
        open_bound = -math.inf  # bound of the node popped when time ran out

        def push(bound: float, *node):
            nonlocal seq
            if bound > inc_value + slack:
                seq += 1
                heapq.heappush(heap, (-bound, seq, *node))

        while heap:
            neg_bound, _, ones, base, level, cost_ones, changes = heapq.heappop(heap)
            bound = -neg_bound
            if bound <= inc_value + slack:
                # best-first order: nothing left can beat the incumbent
                break
            if time_limit is not None and time.monotonic() - start > time_limit:
                status = STATUS_TIME_LIMIT
                open_bound = bound
                break
            if changes != self._changes:
                # Cuts arrived since this node was bounded; its stale bound
                # is still valid, as cuts only lower bounds.  Re-bound it
                # from its ones, since dominated cuts may have left the pool.
                base = self._C + self._A @ ones
                bound = self._evaluate(base, level, cost_ones)
                nodes += 1
                if bound <= inc_value + slack or (heap and bound < -heap[0][0]):
                    push(bound, ones, base, level, cost_ones, self._changes)
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
                b1 = self._evaluate(child_base, level + 1, child_cost)
                nodes += 1
                changes = self._changes
                offer(float(child_base.min()), child_ones)
                push(b1, child_ones, child_base, level + 1, child_cost, changes)
                if self._changes != changes:
                    base = self._C + self._A @ ones
            b0 = self._evaluate(base, level + 1, cost_ones)
            nodes += 1
            push(b0, ones, base, level + 1, cost_ones, self._changes)

        x_arr = np.array(inc_x, dtype=float)
        eta = float((self._C + self._A @ x_arr).min())
        bound = max(eta, inc_value, open_bound)
        return MasterResult(eta=eta, x=inc_x, bound=bound, status=status, nodes=nodes)
