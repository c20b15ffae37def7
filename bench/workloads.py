"""The benchmark's workloads: instance families, timed library calls and the
checks every answer must pass.

A workload draws instances from one or more families, each with a seed list.
The seed lists go only to ``generate_instance``; the benchmark's own
``--seed`` shuffles the order of the timed calls and changes no instance.
Each instance goes through the user's set-up chain (generate, serialize,
parse, build oracles) before it is used, and every timed pass builds fresh
oracles, so the ``SetFunction`` memo starts cold as on a user's first solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import robustmax as rm

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))
EXACT_TOL = 1e-9

FAMILIES = {
    "desk": dict(n=36, edge_factor=41 / 36, m=50, j_count=12, budget=30),
    "grid": dict(n=12, edge_factor=2.0, m=5, j_count=5, budget=15),
    "ratio": dict(n=36, edge_factor=41 / 36, m=10, j_count=12, budget=30),
}
GRID_CONFIGS = ((False, 0), (False, 2), (True, 0), (True, 2))  # (reduce, stop_pt)
DESK_CONFIG = dict(reduce=True, stop_pt=2)
# Far above any scenario's solve time, so the budget path runs but never
# binds: a binding budget would make the work depend on host speed.
PER_SCENARIO_BUDGET = 60.0


@dataclass(frozen=True)
class Op:
    """One timed library call and the check its result must pass.

    ``check`` returns None for a correct result, else what was wrong.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Workload:
    families: tuple      # family of each seed list, in --seeds order
    default: tuple       # one seed tuple per family
    heldout: tuple       # seeds kept for re-checking a claim
    pass_seconds: float  # nominal time of one pass over the default seeds
    make_ops: Callable   # (built, references) -> list of op groups


def build(family: str, seed: int):
    """The set-up chain a user runs: generate, write, read back, build oracles."""
    instance = rm.generate_instance(seed=seed, **FAMILIES[family])
    parsed = rm.parse_instance(rm.serialize_instance(instance))
    return instance, parsed, parsed.build_oracles()


def setup(workload: Workload, seeds: tuple) -> list:
    """Per family, a list of (seed, parsed instance, fresh oracles)."""
    return [[(seed, *build(family, seed)[1:]) for seed in family_seeds]
            for family, family_seeds in zip(workload.families, seeds)]


def roundtrip_failures(workload: Workload, seeds: tuple) -> list:
    """Instances whose serialized form does not parse back to themselves."""
    failures = []
    for family, family_seeds in zip(workload.families, seeds):
        for seed in family_seeds:
            instance, parsed, _ = build(family, seed)
            if parsed != instance:
                failures.append(f"{family} seed {seed}: parse(serialize(x)) != x")
    return failures


def references(workload_name: str, seeds: tuple) -> dict:
    """Expected optimum per grid seed: the stored golden value, or a
    brute-force enumeration on fresh oracles for seeds without one."""
    if workload_name != "grid":
        return {}
    refs = {}
    for seed in seeds[0]:
        golden = GOLDEN["grid"].get(str(seed))
        if golden is None:
            _, inst, fns = build("grid", seed)
            golden, _ = rm.brute_force_robust(fns, [1.0] * len(fns),
                                              inst.network.sensor_costs, inst.network.budget)
        refs[seed] = golden
    return refs


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_TOL * max(1.0, abs(b))


def _placement_failure(inst, fns, x, alphas, eta) -> "str | None":
    """x must fit the budget and score eta under the scaled worst case."""
    net = inst.network
    if sum(c for c, xj in zip(net.sensor_costs, x) if xj) > net.budget:
        return f"x={x} exceeds the budget"
    chosen = rm.support(x)
    worst = min(fn.value(chosen) / a for fn, a in zip(fns, alphas))
    if not _close(worst, eta):
        return f"eta={eta!r} but x scores {worst!r}"
    return None


def _robust_op(label, inst, fns, config, expected) -> Op:
    net = inst.network
    alphas = [1.0] * len(fns)

    def call():
        return rm.solve_robust(fns, alphas, net.sensor_costs, net.budget,
                               rm.DcgConfig(**config))

    def check(report):
        if report.status != "optimal":
            return f"status {report.status!r}"
        if expected is not None and not _close(report.eta, expected):
            return f"eta={report.eta!r}, expected {expected!r}"
        return _placement_failure(inst, fns, report.x, alphas, report.eta)

    return Op(label, call, check)


def desk_ops(built, refs) -> list:
    return [[_robust_op(f"desk seed {seed}", inst, fns, DESK_CONFIG,
                        GOLDEN["desk"].get(str(seed)))]
            for seed, inst, fns in built[0]]


def grid_ops(built, refs) -> list:
    return [[_robust_op(f"grid seed {seed} reduce={reduce} stop_pt={stop_pt}", inst, fns,
                        dict(reduce=reduce, stop_pt=stop_pt), refs[seed])
             for reduce, stop_pt in GRID_CONFIGS]
            for seed, inst, fns in built[0]]


def ratio_ops(built, refs) -> list:
    groups = []
    for seed, inst, fns in built[0]:
        net = inst.network
        expected = GOLDEN["ratio"].get(str(seed))

        def call(fns=fns, net=net):
            return rm.solve_ratio_robust(fns, net.sensor_costs, net.budget,
                                         per_scenario_budget=PER_SCENARIO_BUDGET)

        def check(report, inst=inst, fns=fns, expected=expected):
            if not all(s.solved_exactly for s in report.per_scenario):
                return "a scenario was not solved exactly"
            if not report.certified_exact or report.gap != 0.0:
                return f"not certified exact (gap {report.gap!r})"
            if not _close(report.lower_bound, report.upper_bound):
                return f"LB={report.lower_bound!r} != UB={report.upper_bound!r}"
            if expected is not None and not _close(report.upper_bound, expected):
                return f"UB={report.upper_bound!r}, expected {expected!r}"
            scales = [b.upper for b in report.per_scenario]
            return _placement_failure(inst, fns, report.x, scales, report.lower_bound)

        groups.append([Op(f"ratio seed {seed}", call, check)])
    return groups


def oracle_ops(built, refs) -> list:
    def lawful(result):
        return None if result is True else f"check_submodular returned {result!r}"

    def op(label, fn, **kwargs):
        return Op(label, lambda: rm.check_submodular(fn, exhaustive_limit=12, **kwargs), lawful)

    exhaustive = [[op(f"exhaustive grid seed {seed} scenario {i}", fn)]
                  for seed, _, fns in built[0] for i, fn in enumerate(fns)]
    sampled = [[op(f"sampled desk seed {seed} scenario {i}", fn, samples=200, seed=7)]
               for seed, _, fns in built[1] for i, fn in enumerate(fns)]
    return exhaustive + sampled


WORKLOADS = {
    # The ROADMAP's headline user run: deep best-bound trees over pools that
    # keep growing, so the master does almost all the work.
    "desk": Workload(families=("desk",), default=((1, 2, 3),), heldout=((5,),),
                     pass_seconds=40.0, make_ops=desk_ops),
    # 400 short solves: per-solve overhead, separation and cold-cache oracle
    # misses weigh far more than at desk scale.
    "grid": Workload(families=("grid",), default=(tuple(range(100)),),
                     heldout=(tuple(range(100, 200)),), pass_seconds=10.0, make_ops=grid_ops),
    # The only workload with one-scenario pools, cut rescaling and cut reuse.
    "ratio": Workload(families=("ratio",), default=((1,),), heldout=((2,),),
                      pass_seconds=25.0, make_ops=ratio_ops),
    # The oracle layer does most of the work and the master none; its access
    # pattern is hit-heavy where grid's has far more misses.
    "oracle": Workload(families=("grid", "desk"), default=((0, 1, 2), (2,)),
                       heldout=((3, 4, 5), (3,)), pass_seconds=7.0,
                       make_ops=oracle_ops),
}


def parse_seeds(workload: Workload, spec: str) -> tuple:
    """``default``, ``heldout``, or comma lists of ints, one per family,
    separated by ``/`` (for example ``0,1,2/2`` for ``oracle``)."""
    if spec in ("default", "heldout"):
        return getattr(workload, spec)
    parts = spec.split("/")
    if len(parts) != len(workload.families):
        raise ValueError(f"expected {len(workload.families)} seed list(s) separated by '/'")
    return tuple(tuple(int(s) for s in part.split(",") if s.strip()) for part in parts)
