"""Set-function oracles, marginal algebra, and linearized hypograph cuts.

A :class:`SetFunction` wraps a monotone submodular function on the ground set
``{0, .., n-1}`` with memoized evaluation.  The memo is keyed by bitmask (bit
j set iff element j is in the set); elements and bitmasks may be any Python
or numpy integers.  Callers that need many values read them in batches, and
every miss is filled by one routine, :func:`values_in`, which reads keys in
one or several functions: :meth:`SetFunction.values` is its call for one
function, a scalar miss its call for one key, and the lawfulness checks
read all their values in one batch.  Every oracle is a member of a family
whose one kernel evaluates rows of its members at once: all misses of a
family's functions in one read go to it in one call.  An oracle is
vectorised by declaring its family (``eval_fn.family``, of one member or
more), whose values must equal ``eval_fn``'s with ``==``, so the memo is the
same whichever form filled it.  An oracle that declares none is its own
one-member family, whose kernel calls ``eval_fn`` once per row.  An oracle
may also declare which elements cover which (``eval_fn.covers``, see
:class:`SetFunction`), so that the solvers never branch on a covered
element.

A family may also declare a structural form, which computes f(S) and
f(S + j) for every element j, and f(N) and f(N - j), from arrays of the
family's own (see :class:`SetFunction`).  :func:`structural_values` is the
one route to it: when every function of a read declares the form of one
family, cut building here and the separation reads of
:mod:`robustmax.dcg` take their values from it, in a fixed number of calls
however many functions they span, and neither read nor fill the value
memo; otherwise they make keyed :func:`values_in` reads.  The value memo
then holds what scalar reads, :meth:`SetFunction.values` and the
lawfulness checks read.  From an oracle and a generating set,
:func:`build_cut` produces the linear inequality

    eta <= constant + sum_j coefficients[j] * x[j]

that upper-bounds ``f(X)/alpha`` over all binary points and is tight at the
generating set; :func:`build_cuts` builds the cuts of several functions from
one read of every value they need.  Each oracle also memoizes the cuts built
from it, keyed by generating set, alpha and scenario index, so a cut is
built once per oracle and a repeat returns the same object, reading nothing.
Pointwise dominance between such cuts lives here as well, as one comparison
of the arrays of their constants, coefficient rows and magnitudes
(:func:`dominance`).

Oracles are immutable after construction and safe to share across threads;
the value, cut and strengthening memos tolerate concurrent insertion of
identical entries.  An ``eval_fn`` may keep state of its own if every call
still returns the same value on any thread; the water oracles keep none
(see :mod:`robustmax.water`).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import index
from random import Random
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

# The one tolerance: a comparison allows TOL times a magnitude the code
# already holds, so a certificate or a verdict means the same at any
# positive scale.  Objective values use objective_slack, generating-set tests
# f at the incumbent, the knapsack search the sum of the costs (a returned x
# fits exactly), the lawfulness checks the largest value of f.
TOL = 1e-9
# The one memory bound: the most entries one numpy temporary of a chunked
# loop holds at once, in dominance and in the water stack's gathers,
# extension blocks, covering relations and saved-array Dijkstra.
CHUNK = 1 << 18


class SetFunction:
    """Memoized oracle for a monotone submodular set function.

    ``eval_fn`` maps a frozenset of 0-based elements to a float, and
    ``eval_fn(frozenset())`` must be within TOL of 0.  The memo keeps the
    value the oracle returns there, so every marginal is a difference of two
    of its own values.

    ``ground_size`` is a positive Python or numpy integer, kept as a Python
    int; anything else, a bool or a float included, is refused with
    ValueError.  Elements and bitmasks may be any Python or numpy integers;
    the memo keys them as Python ints.

    ``eval_fn`` may also carry ``eval_fn.covers``: a function of no
    arguments that returns an (n, n) bool relation, read by :attr:`covers`.
    ``covers[k, j]`` may be true only if f(S + k) >= f(S + j) for every S;
    then f(S + j + k) == f(S + k) as well, by monotonicity.  The relation
    must be transitive, as such a relation between elements is.

    ``eval_fn`` may also carry ``eval_fn.family = (source, i)``, its one
    vectorised form: the function is member i of a family, of one member or
    more, whose members share ``source`` and its ground size.
    ``source.rows(scenario_of_row, members)`` takes an int array of B member
    indices and a (B, n) bool membership matrix with no empty row, and
    returns B floats: float r is member ``scenario_of_row[r]``'s value at
    row r, equal with ``==`` to that member's ``eval_fn``.  :func:`values_in`
    fills all misses of a family's functions in one read with one call to it.
    A function that declares no family is its own one-member family, with
    :meth:`rows` as its kernel.

    The source may also declare the family's structural form, two methods
    whose values equal ``rows``' with ``==``.
    ``source.extensions(scenario_of_row, subsets, extend)`` takes B member
    indices and B collections of elements in range, empty ones included,
    and returns a (B,) array of member ``scenario_of_row[r]``'s value at
    ``subsets[r]`` and, if ``extend``, a (B, n) array whose [r, j] entry is
    its value at ``subsets[r]`` plus element j (else None).
    ``source.complements(i)`` returns member i's value at the ground set N,
    as a float, and an (n,) array of its values at N - j.
    :func:`structural_values` calls them for reads whose functions all
    declare the form of one family; their values go into no memo.

    :func:`build_cuts` keeps every cut it builds from the function in a
    second memo, for the function's lifetime, and answers a repeat from it.
    :func:`robustmax.dcg.strengthen_generating_sets` keeps each generating
    set it builds for the function in a third, for the same lifetime, keyed
    by the incumbent, f at the incumbent and ``stop_pt``.
    """

    __slots__ = ("ground_size", "_eval", "_relate", "_family", "_form", "_covers", "_cache",
                 "_cuts", "_strengthened", "name")

    def __init__(self, ground_size: int, eval_fn: Callable[[frozenset], float],
                 name: str = ""):
        if (isinstance(ground_size, bool) or not isinstance(ground_size, (int, np.integer))
                or ground_size <= 0):
            raise ValueError(f"ground_size must be a positive integer, not {ground_size!r}")
        self.ground_size = int(ground_size)
        self._eval = eval_fn
        self._relate = getattr(eval_fn, "covers", None)
        self._family = getattr(eval_fn, "family", None)
        self._form = (self._family if self._family is not None
                      and hasattr(self._family[0], "extensions") else None)
        self._covers = None
        self.name = name
        empty = float(eval_fn(frozenset()))
        if not abs(empty) <= TOL:  # a NaN fails this test too
            raise ValueError(f"set function is not normalized: f(empty)={empty!r}")
        self._cache: dict = {0: empty}
        self._cuts: dict = {}  # (generating set, alpha, scenario) -> cut
        self._strengthened: dict = {}  # (incumbent, f there, stop_pt) -> set

    @property
    def covers(self) -> np.ndarray | None:
        """The relation ``eval_fn.covers`` declares, built on first read and
        kept (building an oracle costs no more); None if it declares none."""
        if self._covers is None and self._relate is not None:
            relation = np.asarray(self._relate(), dtype=bool)
            if relation.shape != (self.ground_size, self.ground_size):
                raise ValueError(f"covers relation has shape {relation.shape}, "
                                 f"not ({self.ground_size}, {self.ground_size})")
            self._covers = relation
        return self._covers

    def key(self, subset: Iterable[int]) -> int:
        """The bitmask of a subset of the ground set."""
        mask = 0
        n = self.ground_size
        for j in map(index, subset):
            if not 0 <= j < n:
                raise ValueError(f"element {j} out of range for ground set of size {n}")
            mask |= 1 << j
        return mask

    def _value_by_key(self, key: int) -> float:
        """f at a bitmask, a one-key :func:`values_in` read on a miss."""
        cached = self._cache.get(key)
        if cached is None:
            (cached,), = values_in((self,), ((key,),))
        return cached

    def value(self, subset: Iterable[int]) -> float:
        """f(S), cached by subset bitmask."""
        return self._value_by_key(self.key(subset))

    def marginal(self, j: int, subset: Iterable[int]) -> float:
        """f(S + j) - f(S); zero when j is already in S."""
        key = self.key(subset)
        return self._value_by_key(key | self.key((j,))) - self._value_by_key(key)

    def values(self, keys: Iterable[int]) -> np.ndarray:
        """f at each bitmask in ``keys``, as one float array: the
        :func:`values_in` read of this function alone."""
        return np.array(values_in((self,), (keys,))[0], dtype=float)

    def marginal_keys(self, key: int) -> list:
        """The bitmasks of S + j for every element j, S given by its bitmask."""
        return [key | 1 << j for j in range(self.ground_size)]

    def rows(self, scenario_of_row: np.ndarray, members: np.ndarray) -> list:
        """The kernel of this function's own one-member family: one
        ``eval_fn`` call per row of ``members``, on its elements ascending."""
        return [float(self._eval(frozenset(np.flatnonzero(row).tolist()))) for row in members]


def _members(parts: Collection[Collection[int]], n: int) -> np.ndarray:
    """The (B, n) bool membership matrix of the B bitmasks of ``parts``,
    each part's in turn, refusing with ValueError a bitmask out of range for
    the ground set.  Up to 64 elements the bitmasks go into one uint64
    array, which refuses a negative key or one past 64 bits, whose largest
    key is the range check and whose bytes are unpacked.  Above 64
    elements, and to name a refused key, the keys are read as Python ints,
    each key's bytes joined."""
    if n <= 64:
        packed = array("Q")
        try:
            for part in parts:
                packed.fromlist(list(part))
        except OverflowError:  # a negative key, or one past 64 bits
            pass
        else:
            keys = np.frombuffer(packed, dtype=np.uint64).astype("<u8", copy=False)
            if not int(keys.max()) >> n:
                return np.unpackbits(keys.view(np.uint8).reshape(-1, 8), axis=1, count=n,
                                     bitorder="little").view(bool)
    keys = list(chain.from_iterable(parts))
    lo, hi = min(keys), max(keys)
    if lo < 0 or hi >> n:
        raise ValueError(f"bitmask {lo if lo < 0 else hi} out of range "
                         f"for ground set of size {n}")
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([k.to_bytes(width, "little") for k in keys]),
                           dtype=np.uint8).reshape(len(keys), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def structural_values(fns: Sequence[SetFunction], subsets: Sequence[Collection[int]],
                      extend: bool = True) -> tuple | None:
    """fns[c] at subsets[c] and, with ``extend``, at subsets[c] + j for every
    element j: a (B,) and a (B, n) float array (None without ``extend``),
    from one call to the structural form of the functions' family (see
    :class:`SetFunction`).  None unless every function declares the form
    of one and the same family source; the subsets' elements must be in
    range.  No value memo is read or filled."""
    forms = [fn._form for fn in fns]
    if None in forms or any(source is not forms[0][0] for source, _ in forms):
        return None
    return forms[0][0].extensions([i for _, i in forms], subsets, extend)


def values_in(fns: Sequence[SetFunction], keys: Sequence[Iterable[int]]) -> list:
    """fns[i] at each bitmask of the iterable keys[i]: one list of floats
    per function.  The one routine that finds and fills misses.

    All distinct misses of a family's functions (see :class:`SetFunction`;
    a function that declares none is its own one-member family) go to its
    kernel as one (B, n) matrix in one call, however many keys and functions
    they span, each miss once even if its function is listed twice.  A
    family's misses are checked before its kernel is called, a function's
    memo changes only once all its misses are evaluated, and each memo gains
    exactly the keys its function's ``values`` would add.
    """
    if len(keys) != len(fns):
        raise ValueError("need one key list per set function")
    # index refuses a float key, which a warm memo would answer as an int
    keys = [list(map(index, fn_keys)) for fn_keys in keys]
    groups: dict = {}  # family source -> {(function, member index): its distinct misses}
    for fn, fn_keys in zip(fns, keys):
        missing = set(fn_keys).difference(fn._cache)
        if missing:
            source, i = fn._family or (fn, 0)
            group = groups.setdefault(source, {})
            if group.setdefault((fn, i), missing) is not missing:  # fn listed twice
                group[fn, i] |= missing
    for source, misses in groups.items():
        n = next(iter(misses))[0].ground_size  # a family shares one ground size
        owners = np.array([i for _, i in misses])
        read = source.rows(owners.repeat([len(missing) for missing in misses.values()]),
                           _members(misses.values(), n))
        read = iter(np.asarray(read, dtype=float).tolist())
        for (fn, _), missing in misses.items():
            fn._cache.update(zip(missing, read))  # zip stops at missing's end
    return [list(map(fn._cache.__getitem__, fn_keys)) for fn, fn_keys in zip(fns, keys)]


@dataclass(frozen=True)
class SubmodularCut:
    """One linearized hypograph inequality eta <= constant + coefficients . x.

    ``generating_set`` and ``scenario_index`` record where the cut came from;
    the divisor applied to constant and coefficients is that scenario's
    alpha in the solve that holds the cut.
    """

    constant: float
    coefficients: tuple
    scenario_index: int
    generating_set: frozenset = field(default_factory=frozenset)

    @property
    def ground_size(self) -> int:
        return len(self.coefficients)

    @cached_property
    def magnitude(self) -> float:
        """max |right-hand side| on [0, 1]^n: at x = 1, as coefficients are >= 0."""
        return abs(self.constant + sum(self.coefficients))


def build_cut(fn: SetFunction, subset: Iterable[int], alpha: float,
              scenario_index: int) -> SubmodularCut:
    """fn's hypograph linearized at the generating set, scaled by alpha, from
    fn's cut memo or one read: the one-cut call of :func:`build_cuts`."""
    return build_cuts((fn,), (subset,), (alpha,), (scenario_index,))[0]


def build_cuts(fns: Sequence[SetFunction], subsets: Sequence[Iterable[int]],
               alphas: Sequence[float], scenario_indices: Sequence[int]) -> list:
    """One cut per function: fns[c]'s hypograph linearized at subsets[c] and
    scaled by alphas[c], tight there and valid for ``fns[c](X)/alphas[c]`` at
    every binary point, filed under scenario_indices[c].  An alpha is read as
    a Python float and an index as a Python int, so a cut's fields have the
    same types whatever numbers built it.

    The constant f(S) - sum_{j in S} (f(N) - f(N - j)) takes its sum with
    :func:`math.fsum`, which rounds the exact sum once, so equal sets get
    one constant whatever order they iterate in.  Each function memoizes
    its cuts under the generating set, alpha and the scenario index; a
    memoized cut is returned as the same object and reads nothing.  Every
    other cut takes f(S) and f(S + j) for every j from one
    :func:`structural_values` read and f(N) and f(N - j) from its family's
    ``complements``, when every such function declares the structural
    form of one family; otherwise their keys go to one :func:`values_in` read (at S:
    S + j for every j, S, then N and N - j for each j in S, N only when S
    has an element).  Each cut is computed from its row and memoized."""
    if not len(fns) == len(subsets) == len(alphas) == len(scenario_indices):
        raise ValueError("need one generating set, alpha and scenario index per set function")
    if not all(0 < alpha < math.inf for alpha in alphas):  # a NaN fails this test too
        raise ValueError("alpha must be positive and finite")
    gens = [element_set(subset) for subset in subsets]
    if any(gen and (min(gen) < 0 or max(gen) >= fn.ground_size) for fn, gen in zip(fns, gens)):
        raise ValueError("generating set not within ground set")
    entries = [(gen, float(a), index(i)) for gen, a, i in zip(gens, alphas, scenario_indices)]
    cuts = [fn._cuts.get(entry) for fn, entry in zip(fns, entries)]
    misses = [c for c, cut in enumerate(cuts) if cut is None]
    if not misses:
        return cuts
    built = [(fns[c], gens[c]) for c in misses]
    # per cut: f(S), f(S + j) for every j, and f(N) - f(N - j) for each j in S
    read = structural_values([fn for fn, _ in built], [gen for _, gen in built])
    if read is not None:
        rows = []
        for (fn, gen), at, after in zip(built, read[0].tolist(), read[1]):
            # an empty S reads no complement: its full_minus is empty
            full, without = fn._form[0].complements(fn._form[1]) if gen else (0.0, after)
            rows.append((at, after, full - without[list(gen)]))
    else:
        keys = [fn.marginal_keys(key) + [key] + [full] * bool(gen) + [full ^ 1 << j for j in gen]
                for fn, gen in built
                for key, full in [(fn.key(gen), (1 << fn.ground_size) - 1)]]
        rows = [(row[n], np.array(row[:n]), np.subtract(row[n + 1:n + 2], row[n + 2:]))
                for (fn, _), row in zip(built, values_in([fn for fn, _ in built], keys))
                for n in [fn.ground_size]]
    for c, (fn, gen), (at, after, full_minus) in zip(misses, built, rows):
        _, alpha, i = entries[c]
        coeffs = after - at
        coeffs[list(gen)] = full_minus
        # setdefault: a cut asked for twice in one call is one object
        cuts[c] = fn._cuts.setdefault(entries[c], SubmodularCut(
            constant=(at - math.fsum(full_minus.tolist())) / alpha,
            coefficients=tuple((coeffs / alpha).tolist()), scenario_index=i, generating_set=gen))
    return cuts


def element_set(subset: Iterable[int]) -> frozenset:
    """``frozenset(subset)``, its elements read as Python ints, so a cut's
    generating set holds one type whatever numbers built it."""
    elements = frozenset(subset)
    if all(type(j) is int for j in elements):
        return elements
    return frozenset(map(index, elements))


def empty_set_cuts(fns: Sequence[SetFunction], alphas: Sequence[float]) -> list:
    """The standard warm start: one empty-set cut per function, filed under
    its position, all from one :func:`build_cuts` read."""
    if not fns:
        raise ValueError("at least one set function is required")
    if len(fns) != len(alphas):
        raise ValueError("need one alpha per set function")
    return build_cuts(fns, [frozenset()] * len(fns), alphas, range(len(fns)))


def objective_slack(cuts: Iterable[SubmodularCut]) -> float:
    """Slack for objective values bounded by ``cuts``: TOL times their largest magnitude."""
    return TOL * max(c.magnitude for c in cuts)


def dominance(constants: np.ndarray, coefficients: np.ndarray,
              magnitudes: Sequence[float]) -> np.ndarray:
    """The (g, g) bool matrix whose [a, b] entry is true iff cut a's
    right-hand side is pointwise <= cut b's, up to the objective slack of
    the two cuts, making cut b redundant; cut a is ``constants[a]``, row a of
    ``coefficients`` and its :attr:`SubmodularCut.magnitude` ``magnitudes[a]``.
    One comparison, chunked so that at most ``CHUNK`` (cut, cut, entry)
    elements are compared at once."""
    # entries[a]: a's constant and coefficients; slack[a, b, 0]: the pair's slack
    entries = np.concatenate((np.asarray(constants)[:, None], coefficients), axis=1)
    slack = TOL * np.maximum.outer(magnitudes, magnitudes)[:, :, None]
    g = len(entries)
    out = np.empty((g, g), dtype=bool)
    step = max(1, CHUNK // entries.size)
    for lo in range(0, g, step):
        rows = slice(lo, lo + step)
        out[rows] = (entries[rows, None] <= entries + slack[rows]).all(axis=2)
    return out


def dominates(a: SubmodularCut, b: SubmodularCut) -> bool:
    """True iff a's right-hand side is pointwise <= b's, up to the objective
    slack of the two cuts, making b redundant: :func:`dominance` of the pair."""
    return bool(dominance((a.constant, b.constant), (a.coefficients, b.coefficients),
                          (a.magnitude, b.magnitude))[0, 1])


def check_submodular(fn: SetFunction, exhaustive_limit: int = 12,
                     samples: int = 10_000, seed: int = 0) -> bool:
    """True iff no monotonicity or diminishing-returns violation is found.

    Exhaustive over all (X, j, k) triples when the ground set has at most
    ``exhaustive_limit`` elements, or fewer than two (no triple to draw);
    otherwise ``samples`` seeded random triples, which must be at least 1.
    The sampled sets depend only on (n, samples, seed) and are drawn once
    per such key, the most recent one kept, so checking the scenarios of
    one instance in a row draws them once.  Marginals compare up to TOL
    times the largest |f| of the exhaustive table, or |f(N)| when sampling,
    so the verdict does not depend on the oracle's scale.  Each check reads
    its values in one :meth:`SetFunction.values` call, f(N) with the
    samples.  f(empty) is the oracle's own value, read like any other.  A
    value that is not finite is a violation: no comparison with a NaN could
    find one.
    """
    n = fn.ground_size
    if n <= exhaustive_limit or n < 2:
        # F[mask] = f(mask).  Row j of M holds f(mask + j) - f(mask) for the
        # masks without bit j, ascending, from F's view that pairs each such
        # mask (index 0 of the middle axis) with mask + j.  The marginal at
        # a mask with bit j is 0, never a violation, and is left out.
        F = fn.values(range(1 << n))
        if not np.isfinite(F).all():
            return False
        slack = TOL * float(np.abs(F).max())
        M = np.empty((n, 1 << n - 1))
        for j in range(n):
            pairs = F.reshape(-1, 2, 1 << j)
            np.subtract(pairs[:, 1], pairs[:, 0], out=M[j].reshape(-1, 1 << j))
        if M.min() < -slack:  # F is finite, so M holds no NaN
            return False
        # Diminishing returns: bit b of row j's masks is element k = b, or
        # k = b + 1 from b = j on.  Pairing each mask without bit b with
        # mask + k, as above, compares f(mask + k + j) - f(mask + k) with
        # f(mask + j) - f(mask) + slack for every k but j, which compares 0
        # with M + slack and passes once M >= -slack holds.  numpy runs along
        # the out array's contiguous axis, so that axis is the longer of the
        # two a row splits into: blocks, or the masks of one block.
        bound = M + slack
        above = np.empty(M.size // 2, dtype=bool)
        for b in range(n - 1):
            blocks = 1 << n - 2 - b
            out = (above.reshape(n, 1 << b, blocks).transpose(0, 2, 1) if blocks > 1 << b
                   else above.reshape(n, blocks, 1 << b))
            if np.greater(M.reshape(n, blocks, 2, 1 << b)[:, :, 1],
                          bound.reshape(n, blocks, 2, 1 << b)[:, :, 0], out=out).any():
                return False
        return True
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    # f(N) is read last, in the same read as the samples
    F = fn.values(chain(_sample_keys(n, samples, seed), ((1 << n) - 1,)))
    if not np.isfinite(F).all():
        return False
    slack = TOL * abs(float(F[-1]))
    F = F[:-1].reshape(-1, 4)
    mj = F[:, 1] - F[:, 0]
    return not ((mj < -slack).any() or (F[:, 3] - F[:, 2] > mj + slack).any())


@lru_cache(maxsize=1)
def _sample_keys(n: int, samples: int, seed: int) -> tuple:
    """The bitmasks of X, X + j, X + k and X + j + k for each of ``samples``
    seeded random triples (X, j, k) over n >= 2 elements, four per sample.
    A tuple, so no caller can change the keys a later check reads."""
    rng = Random(seed)
    keys = []
    for _ in range(samples):
        size = rng.randint(0, n - 2)
        base = frozenset(rng.sample(range(n), size))
        j, k = rng.sample([v for v in range(n) if v not in base], 2)
        key = sum(1 << v for v in base)
        keys += (key, key | 1 << j, key | 1 << k, key | 1 << j | 1 << k)
    return tuple(keys)
