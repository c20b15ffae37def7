from __future__ import annotations

import sys
from pathlib import Path
from random import Random

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robustmax import Instance, Network, Scenario, SetFunction  # noqa: E402


def scenario_oracle(network: Network, scenario: Scenario) -> SetFunction:
    """The water oracle of one scenario: the one oracle of the one-scenario
    instance on the network."""
    (fn,) = Instance(network=network, scenarios=(scenario,)).build_oracles()
    return fn


class RowsOnly:
    """A family source that forwards its one kernel, ``rows``, to another
    and declares no structural form, so its oracles take the keyed path."""

    def __init__(self, source):
        self.source = source

    def rows(self, scenario_of_row, members):
        return self.source.rows(scenario_of_row, members)


def without_form(fns) -> list:
    """The oracles rebuilt on the same eval functions, whose family keeps
    its kernel but declares no structural form: every read is keyed, as
    before the form, and a family's misses still go to one kernel call."""
    sources: dict = {}
    out = []
    for fn in fns:
        source, i = fn._family

        def evaluate(subset, _eval=fn._eval):
            return _eval(subset)

        evaluate.family = (sources.setdefault(source, RowsOnly(source)), i)
        evaluate.covers = fn._relate
        out.append(SetFunction(fn.ground_size, evaluate))
    return out


def keyed_stand_in(fn) -> SetFunction:
    """fn's eval function with its family attribute removed: its own
    one-member family, read one ``eval_fn`` call per key."""
    def evaluate(subset):
        return fn._eval(subset)

    evaluate.covers = fn._relate
    return SetFunction(fn.ground_size, evaluate)


def modular_fn(weights) -> SetFunction:
    w = tuple(float(v) for v in weights)
    return SetFunction(len(w), lambda S: sum(w[j] for j in S))


def table_fn(table) -> SetFunction:
    """Set function read from a table of 2^n values indexed by bitmask."""
    values = tuple(float(v) for v in table)
    n = len(values).bit_length() - 1
    return SetFunction(n, lambda S: values[sum(1 << j for j in S)])


def coverage_fn(n, cover_sets, item_weights) -> SetFunction:
    """Weighted coverage: f(S) = total weight of the items covered by S."""
    def evaluate(S):
        covered = set()
        for j in S:
            covered |= cover_sets[j]
        return sum(item_weights[i] for i in covered)
    return SetFunction(n, evaluate)


def random_coverage(rng: Random, n: int, items: int = 6,
                    duplicates: bool = False) -> SetFunction:
    """Random monotone submodular coverage function (seeded)."""
    weights = [rng.randint(1, 5) for _ in range(items)]
    sets = []
    for _ in range(n):
        size = rng.randint(0, items)
        sets.append(set(rng.sample(range(items), size)))
    if duplicates and n >= 2:
        j, k = rng.sample(range(n), 2)
        sets[k] = set(sets[j])
    return coverage_fn(n, sets, weights)


@pytest.fixture
def facet_pair():
    """Two functions on four elements whose cut at {0, 1} is facet defining:
    a weighted coverage where elements 2 and 3 swallow 0 and 1, plus a
    modular partner that never attains the minimum around that set."""
    f1 = coverage_fn(4, ({0}, {1}, {0, 2}, {1, 3}), (1.0, 1.0, 2.0, 3.0))
    f2 = modular_fn((2, 3, 1, 4))
    return f1, f2


@pytest.fixture
def warmstart_triple():
    """Three modular functions whose empty-set cuts have coefficient rows
    (2,2,3), (1,3,4), (3,3,1)."""
    return [modular_fn((2, 2, 3)), modular_fn((1, 3, 4)), modular_fn((3, 3, 1))]


@pytest.fixture
def figure_network():
    """Four-node network with edges (0,2), (0,3), (1,3), travel times
    (4, 1, 2) and equiprobable sources {0, 1}."""
    net = Network(node_count=4, edges=((0, 2), (0, 3), (1, 3)), sources=(0, 1),
                  source_probabilities=(0.5, 0.5), sensor_costs=(1, 1, 1, 1),
                  budget=1)
    return net, Scenario(edge_weights=(4, 1, 2))


def all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(j for j in range(n) if mask >> j & 1)


def indicator(subset, n):
    return tuple(1 if j in subset else 0 for j in range(n))


def scaled_min(fns, alphas, subset) -> float:
    return min(fn.value(subset) / a for fn, a in zip(fns, alphas))


def rhs(cut, x) -> float:
    """A cut's right-hand side at a binary (or fractional) point."""
    assert len(x) == len(cut.coefficients), "point dimension does not match cut"
    return cut.constant + sum(c * xi for c, xi in zip(cut.coefficients, x))


def pool_value(x, value) -> float:
    """Separation callback of a fixed-pool solve: it adds no cut, and a
    candidate's value is its pool value."""
    return value


def cut_is_valid(cut, fn, alpha, tol=1e-9) -> bool:
    n = fn.ground_size
    return all(fn.value(X) / alpha <= rhs(cut, indicator(X, n)) + tol
               for X in all_subsets(n))


def tight_face_rank(fns, alphas, cut) -> int:
    """Affine rank of all max-eta points tight at the cut (facet iff == n)."""
    n = fns[0].ground_size
    points = []
    for X in all_subsets(n):
        top = scaled_min(fns, alphas, X)
        if abs(rhs(cut, indicator(X, n)) - top) <= 1e-9:
            points.append((top,) + indicator(X, n))
    if len(points) < 2:
        return 0
    arr = np.array(points, dtype=float)
    return int(np.linalg.matrix_rank(arr[1:] - arr[0], tol=1e-7))
