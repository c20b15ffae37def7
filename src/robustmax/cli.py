"""Command-line harness: generate instances, solve, verify, aggregate.

Exit codes: 0 for success (including time-limited solves, which carry a
``time_limit`` status column), 1 for a verification failure, 2 for usage
errors, malformed input and files that cannot be read or written: commands
raise these as ``ValueError`` or ``OSError``, and :func:`main` reports them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .core import TOL, check_submodular
from .dcg import MAX_GROUND, DcgConfig, brute_force_robust, solve_robust
from .ratio import solve_ratio_robust
from .water import Instance, generate_instance, parse_instance, serialize_instance


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, found {text!r}")
    return text == "true"


# CSV text of a RunRecord field, and back, by the field's annotated type.
_FORMAT = {"str": str, "bool": lambda v: "true" if v else "false", "int": str, "float": repr}
_PARSE = {"str": str, "bool": _parse_bool, "int": int, "float": float}


@dataclass(frozen=True)
class RunRecord:
    """One solve's CSV row; the field names are the columns, in order."""

    instance: str
    mode: str
    reduce: bool
    stop_pt: int
    time_s: float
    gap_pct: float
    iterations: int
    cuts: int
    eta: float
    ub: float
    lb: float
    status: str

    def to_csv_row(self) -> list:
        return [_FORMAT[f.type](getattr(self, f.name)) for f in fields(self)]

    @classmethod
    def from_csv_row(cls, row: list) -> "RunRecord":
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"expected {len(CSV_HEADER)} columns, found {len(row)}")
        return cls(*(_PARSE[f.type](text) for f, text in zip(fields(cls), row)))


CSV_HEADER = [f.name for f in fields(RunRecord)]


def _write_csv(handle, rows, header=CSV_HEADER):
    """CSV rows, after the header unless it is None."""
    writer = csv.writer(handle)
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)


def _load_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _resolve_alphas(instance: Instance, alpha_mode: str, alpha_spec) -> list:
    """Unit or given alpha values, from the CLI flag or else the instance
    file; solve_robust checks their count and range."""
    if alpha_mode == "unit":
        return [1.0] * len(instance.scenarios)
    return [float(v) for v in alpha_spec[1:]] if alpha_spec else list(instance.alpha_values)


def _solve_one(path: str, mode: str, alpha_spec, config: DcgConfig,
               scenario_budget) -> RunRecord:
    """One report row; alpha mode ``solve`` runs the rsm3 pipeline under mode rsm."""
    instance = _load_instance(path)
    fns = instance.build_oracles()
    costs = instance.network.sensor_costs
    budget = instance.network.budget
    alpha_mode = alpha_spec[0] if alpha_spec else instance.alpha_mode
    if mode == "rsm" and alpha_mode != "solve":
        alphas = _resolve_alphas(instance, alpha_mode, alpha_spec)
        report = solve_robust(fns, alphas, costs, budget, config)
        lb = report.eta
    else:
        report = solve_ratio_robust(fns, costs, budget,
                                    per_scenario_budget=scenario_budget, config=config)
        lb = report.lower_bound
    return RunRecord(instance=path, mode=mode, reduce=config.reduce,
                     stop_pt=config.stop_pt, time_s=report.wall_time,
                     gap_pct=100.0 * report.gap, iterations=report.iterations,
                     cuts=report.cuts_added, eta=report.eta,
                     ub=report.upper_bound, lb=lb, status=report.status)


def cmd_generate(args) -> int:
    if args.nodes < 1 or args.edges < 1:
        raise ValueError("--nodes and --edges must be at least 1")
    instance = generate_instance(n=args.nodes, edge_factor=args.edges / args.nodes,
                                 m=args.scenarios, j_count=args.sources,
                                 budget=args.budget, seed=args.seed)
    text = serialize_instance(instance)
    Path(args.out).write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if instance.budget_infeasible:
        print("warning: budget is below the cheapest sensor; only the empty "
              "placement is feasible", file=sys.stderr)
    print(f"{digest}  {args.out}")
    return 0


def _check_solve_flags(args):
    """Raise ValueError for a malformed flag, before any solve runs."""
    if args.alpha:
        alpha_mode, values = args.alpha[0], args.alpha[1:]
        if alpha_mode not in ("unit", "values", "solve"):
            raise ValueError(f"unknown alpha mode {alpha_mode!r}")
        if values and alpha_mode != "values":
            raise ValueError(f"alpha mode {alpha_mode} takes no values")
        if args.mode == "rsm3" and alpha_mode != "solve":
            raise ValueError("mode rsm3 computes its own scales; "
                             "only --alpha solve fits it")
    if args.scenario_budget is not None and not args.scenario_budget >= 0:
        raise ValueError("--scenario-budget must be nonnegative")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")


def cmd_solve(args) -> int:
    _check_solve_flags(args)
    config = DcgConfig(reduce=args.reduce, stop_pt=args.stop_pt,
                       epsilon=args.epsilon, time_limit=args.time_limit)
    jobs = [(path, args.mode, args.alpha, config, args.scenario_budget)
            for path in args.instance]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_solve_one, *zip(*jobs)))
    else:
        records = [_solve_one(*job) for job in jobs]
    rows = [rec.to_csv_row() for rec in records]
    _write_csv(sys.stdout, rows)
    if args.csv:
        with open(args.csv, "a", newline="", encoding="utf-8") as handle:
            _write_csv(handle, rows, CSV_HEADER if handle.tell() == 0 else None)
    return 0


def cmd_verify(args) -> int:
    failures = 0
    for path in args.instance:
        instance = _load_instance(path)
        n = instance.network.node_count
        if n > MAX_GROUND:
            raise ValueError(f"{path}: {n} nodes exceeds the brute-force guard ({MAX_GROUND})")
        fns = instance.build_oracles()
        unlawful = next((i for i, fn in enumerate(fns) if not check_submodular(fn)), None)
        if unlawful is not None:
            print(f"FAIL {path} scenario {unlawful} is not monotone submodular")
            failures += 1
            continue
        costs = instance.network.sensor_costs
        budget = instance.network.budget
        alphas = [1.0] * len(fns)
        reference, _ = brute_force_robust(fns, alphas, costs, budget)
        worst = max(abs(solve_robust(fns, alphas, costs, budget,
                                     DcgConfig(reduce=reduce, stop_pt=stop_pt)).eta - reference)
                    for reduce in (False, True) for stop_pt in (0, 2))
        verdict = "PASS" if worst <= TOL else "FAIL"
        print(f"{verdict} {path} max|eta-brute|={worst:.3g}")
        failures += verdict == "FAIL"
    return 1 if failures else 0


def cmd_report(args) -> int:
    records = []
    for path in args.csv_files:
        try:
            with open(path, newline="", encoding="utf-8") as handle:
                rows = csv.reader(handle)
                if next(rows, None) != CSV_HEADER:
                    raise ValueError("unexpected header")
                records.extend(RunRecord.from_csv_row(row) for row in rows if row)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: {exc}") from None
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.mode, rec.reduce, rec.stop_pt), []).append(rec)
    out_rows = []
    for (mode, reduce, stop_pt), recs in sorted(groups.items()):
        k = len(recs)
        out_rows.append([mode, _FORMAT["bool"](reduce), str(stop_pt), str(k),
                         f"{sum(r.time_s for r in recs) / k:.3f}",
                         f"{sum(r.gap_pct for r in recs) / k:.4f}",
                         f"{sum(r.iterations for r in recs) / k:.1f}",
                         f"{sum(r.cuts for r in recs) / k:.1f}"])
    header = ["mode", "reduce", "stop_pt", "runs", "mean_time_s", "mean_gap_pct",
              "mean_iterations", "mean_cuts"]
    widths = [max([len(h), *(len(r[i]) for r in out_rows)]) for i, h in enumerate(header)]
    for row in (header, *out_rows):
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            _write_csv(handle, out_rows, header)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustmax",
        description="Exact worst-case sensor placement on water networks")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded random instance file")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--edges", type=int, required=True)
    gen.add_argument("--scenarios", type=int, required=True)
    gen.add_argument("--sources", type=int, required=True)
    gen.add_argument("--budget", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run a solver and emit report rows")
    solve.add_argument("instance", nargs="+")
    solve.add_argument("--mode", choices=["rsm", "rsm3"], default="rsm")
    solve.add_argument("--alpha", nargs="+", default=None,
                       metavar="MODE", help="unit | values v1 .. vm | solve")
    defaults = DcgConfig()  # the library's solve defaults are the flags' defaults
    solve.add_argument("--reduce", action=argparse.BooleanOptionalAction,
                       default=defaults.reduce)
    solve.add_argument("--stop-pt", dest="stop_pt", type=int, default=defaults.stop_pt)
    solve.add_argument("--epsilon", type=float, default=defaults.epsilon)
    solve.add_argument("--time-limit", dest="time_limit", type=float, default=None)
    solve.add_argument("--scenario-budget", dest="scenario_budget", type=float, default=None)
    solve.add_argument("--jobs", type=int, default=1)
    solve.add_argument("--csv", default=None, help="append rows to this CSV file")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="cross-check the solver against enumeration")
    verify.add_argument("instance", nargs="+")
    verify.set_defaults(func=cmd_verify)

    report = sub.add_parser("report", help="aggregate solve CSVs into per-setting means")
    report.add_argument("csv_files", nargs="+")
    report.add_argument("--out", default=None)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
