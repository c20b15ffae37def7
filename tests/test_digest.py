"""Pinned work digests: the full outcome of fixed-seed default solves.

Each run's record holds ``eta``, ``x``, ``status``, the upper bound,
``iterations``, ``cuts_added``, ``nodes``, ``master_values`` and the final
pool, every float rounded to 12 significant digits so that a last-bit
difference between BLAS builds cannot flip it.  A pin is the run's status,
its eta and nodes, readable, and the first 16 hex digits of the sha256 of the
whole record.  A change that keeps the solver's work the same keeps every
pin; one that changes a tree, a tie-break or a pool cut re-pins and logs
each pin old -> new in CHANGES.md, as ``TestNodeCounts`` does.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import robustmax as rm

DESK = dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30)
GRID = dict(n=12, edge_factor=2.0, m=5, j_count=5, budget=15)
RATIO = dict(n=36, edge_factor=41 / 36, m=10, j_count=12, budget=30)
N54 = dict(n=54, edge_factor=41 / 36, m=50, j_count=18, budget=45)
GRID_CONFIGS = ((False, 0), (False, 2), (True, 0), (True, 2))  # (reduce, stop_pt)


def rounded(value: float) -> float:
    return float(f"{value:.12g}")


def solve_record(report) -> dict:
    return {
        "eta": rounded(report.eta), "x": list(report.x), "status": report.status,
        "upper_bound": rounded(report.upper_bound), "iterations": report.iterations,
        "cuts_added": report.cuts_added, "nodes": report.nodes,
        "master_values": [rounded(v) for v in report.master_values],
        "pool": [[cut.scenario_index, sorted(cut.generating_set), rounded(cut.constant),
                  [rounded(c) for c in cut.coefficients]] for cut in report.pool],
    }


def ratio_record(report) -> dict:
    return {
        "lower_bound": rounded(report.lower_bound), "upper_bound": rounded(report.upper_bound),
        "x": list(report.x), "status": report.status, "iterations": report.iterations,
        "cuts_added": report.cuts_added, "nodes": report.nodes,
        "certified_exact": report.certified_exact,
        "per_scenario": [[rounded(b.lower), rounded(b.upper), b.solved_exactly]
                         for b in report.per_scenario],
    }


def robust(family: dict, seed: int, **config):
    inst = rm.generate_instance(seed=seed, **family)
    fns = inst.build_oracles()
    return rm.solve_robust(fns, [1.0] * len(fns), inst.network.sensor_costs,
                           inst.network.budget, rm.DcgConfig(**config))


def run(name: str) -> tuple:
    """The pin of one named run: (status, eta, nodes, digest)."""
    family, seed, config = name.split()
    seed = int(seed)
    if family == "ratio":
        inst = rm.generate_instance(seed=seed, **RATIO)
        report = rm.solve_ratio_robust(inst.build_oracles(), inst.network.sensor_costs,
                                       inst.network.budget)
        records, eta, nodes = ratio_record(report), report.lower_bound, report.nodes
    elif family == "grid":
        reports = [robust(GRID, seed, reduce=reduce, stop_pt=stop_pt)
                   for reduce, stop_pt in GRID_CONFIGS]
        records = [solve_record(report) for report in reports]
        report = reports[0]
        eta, nodes = report.eta, sum(r.nodes for r in reports)
    else:
        report = robust(DESK if family == "desk" else N54, seed,
                        **({} if config == "default" else {"reduce": False}))
        records, eta, nodes = solve_record(report), report.eta, report.nodes
    text = json.dumps(records, sort_keys=True)
    return report.status, rounded(eta), nodes, hashlib.sha256(text.encode()).hexdigest()[:16]


# name: "family seed config"; a grid pin covers its seed's four configs, with
# the first config's eta and the nodes of all four.
PINS = {
    "desk 1 default": ("optimal", 19.3333333333, 353, "8b9517c9a80c3c83"),
    "desk 1 no-reduce": ("optimal", 19.3333333333, 285, "903fd6781320cfc0"),
    "desk 2 default": ("optimal", 24.1666666667, 489, "88dbe7f9420b737c"),
    "desk 2 no-reduce": ("optimal", 24.1666666667, 325, "297c240fb8673df8"),
    "desk 3 default": ("optimal", 26.1666666667, 632, "4bbae662fd6d1ae8"),
    "desk 3 no-reduce": ("optimal", 26.1666666667, 434, "866496ab6f1959ee"),
    "desk 5 default": ("optimal", 25.25, 800, "8a97cf96f86c218e"),
    "desk 5 no-reduce": ("optimal", 25.25, 960, "455fe88a0f4355f8"),
    "ratio 1 default": ("optimal", 0.987288135593, 3146, "90d58bbac66b1be9"),
    "n54 1 default": ("optimal", 48.4444444444, 7938, "c2b1ffbebe994e33"),
    "n54 4 default": ("optimal", 35.9444444444, 4201, "61d49c800d2a374a"),
    "n54 6 default": ("optimal", 44.8333333333, 10978, "8fc122fa7fed5e62"),
    "grid 0 all": ("optimal", 10.4, 156, "bb5686792907d62d"),
    "grid 1 all": ("optimal", 9.6, 176, "d5f66b3935a817b0"),
    "grid 2 all": ("optimal", 7.0, 106, "0947bb1f534d086f"),
    "grid 3 all": ("optimal", 10.8, 106, "27bb0547ebacb130"),
    "grid 4 all": ("optimal", 10.6, 114, "74a9cc824f09b648"),
    "grid 5 all": ("optimal", 10.0, 46, "52fd1ea2e58c3286"),
    "grid 6 all": ("optimal", 9.4, 252, "8e4109e4075c1c50"),
    "grid 7 all": ("optimal", 8.6, 138, "e4f74ff467ba5c14"),
    "grid 8 all": ("optimal", 8.4, 124, "49a05cdef662c108"),
    "grid 9 all": ("optimal", 10.4, 132, "6209ddb31dfeca23"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_digest(name):
    assert run(name) == PINS[name]
