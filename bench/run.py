"""Fixed-seed benchmark of robustmax: time to a certified optimum.

Run from the repository root.  With no ``--workload`` it runs every workload,
each in a fresh process and one at a time, untraced and then traced, and
prints every metric by name and unit:

    python3 bench/run.py [--seeds default|heldout]

One workload in this process, printing the result as the last line:

    python3 bench/run.py --workload desk --seed 0 --seconds 10 --trace 0

``--seed`` orders the timed calls; ``--seeds`` picks the instance seeds
(see workloads.py).  An untraced run makes max(1, round(--seconds / the
workload's nominal pass time)) timed passes and reports the end-to-end
metrics, its times scaled to a reference host speed (see hostspeed.py).  A traced run makes one untraced reference pass and one
traced pass and reports the per-layer metrics.  Metric names and units come
from BENCHMARK.json.  Each run also writes a record, host details included,
under bench/results/.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
# Set-up samples per untraced run: a batch before the passes, about this
# many spread between the op groups of each pass, and a batch after.
SETUP_BATCH = 5
SETUP_BETWEEN_GROUPS = 8
SETUP_WINDOW_S = 0.5
CHILD_TIMEOUT = 900
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Metrics recorded and printed but not declared in BENCHMARK.json.  The
# latency percentiles are meant for grid's 400 calls; elsewhere they rest on
# one to 65 calls.  failed_frac is 0 at a correct commit, so a spread
# relative to its median is undefined; the result line's attempted and
# failed carry it.
EXTRA_UNITS = {"solve_p50_ms": "ms", "solve_p97.5_ms": "ms", "cpu_s": "s",
               "failed_frac": "ratio", "trace.untraced_wall_s": "s", "wall_s": "s",
               "raw_setup_s": "s", "kernel_ms": "ms"}

clock = time.perf_counter


def load_program():
    """Import robustmax from this checkout's src/, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import robustmax
    except ImportError as exc:
        raise SystemExit(f"error: cannot import robustmax from {src}: {exc}")
    if not Path(robustmax.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: robustmax was imported from {robustmax.__file__}, not {src}")
    return robustmax


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# -- host record ----------------------------------------------------------------

def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    import numpy
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "loadavg_start": os.getloadavg(),
            "utc_start": datetime.now(timezone.utc).isoformat(timespec="seconds")}


# -- one workload in this process -----------------------------------------------

@dataclass
class Pass:
    setup_s: float
    ops: list            # (label, seconds, failure message or None)
    cpu_s: float
    window: tuple        # clock() at the first timed call and after the last
    setup_spans: dict = field(default_factory=dict)
    op_spans: dict = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return sum(seconds for _, seconds, _ in self.ops)

    @property
    def passed_times(self) -> list:
        """Times of the calls whose check passed; a failed call has no time."""
        return [seconds for _, seconds, failure in self.ops if failure is None]

    @property
    def passed_s(self) -> float:
        return sum(self.passed_times)


def run_pass(wl, workload, seeds, refs, rng, tracer=None, between=None) -> Pass:
    """Fresh set-up, then every timed call once; checks run afterwards,
    outside the timed region and with the trace removed.  ``between(i, n)``
    runs untimed after op group i of n."""
    from spans import Instrumentation
    setup_spans = op_spans = {}
    with Instrumentation(tracer) if tracer else nullcontext():
        start = clock()
        built = wl.setup(workload, seeds)
        setup_s = clock() - start
        if tracer:
            setup_spans = tracer.take()
        groups = workload.make_ops(built, refs)
        rng.shuffle(groups)
        ops = [op for group in groups for op in group]
        gc.collect()
        cpu_s = 0.0
        outcomes = []
        started = clock()
        for index, group in enumerate(groups):
            cpu_start = time.process_time()
            for op in group:
                start = clock()
                try:
                    value, error = op.call(), None
                except Exception:
                    value, error = None, traceback.format_exc()
                outcomes.append((clock() - start, value, error))
            cpu_s += time.process_time() - cpu_start
            if between:
                between(index, len(groups))
        ended = clock()
        if tracer:
            op_spans = tracer.take()
    records = []
    for op, (seconds, value, error) in zip(ops, outcomes):
        failure = error
        if failure is None:
            try:
                failure = op.check(value)
            except Exception:
                failure = traceback.format_exc()
        records.append((op.label, seconds, failure))
    return Pass(setup_s, records, cpu_s, (started, ended), setup_spans, op_spans)


class SetupSampler:
    """Set-up times taken at points spread over a whole untraced run, so that
    their median does not rest on one moment of a noisy host.  The number of
    samples is fixed per workload and never depends on the host's speed."""

    def __init__(self, wl, workload, seeds):
        self.setup = lambda: wl.setup(workload, seeds)
        self.samples = []   # (start, end)

    def sample(self, count: int = 1):
        for _ in range(count):
            start = clock()
            self.setup()
            self.samples.append((start, clock()))
        gc.collect()

    def between(self, index: int, total: int):
        """After every few op groups, never after the last one."""
        stride = math.ceil(total / SETUP_BETWEEN_GROUPS)
        if (index + 1) % stride == 0 and index + 1 < total:
            self.sample()


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(args) -> dict:
    import workloads as wl
    from hostspeed import HostSpeed
    from spans import LAYERS, Tracer, layer_metrics, span_table

    workload = wl.WORKLOADS[args.workload]
    seeds = wl.parse_seeds(workload, args.seeds)
    record = {"workload": args.workload, "trace": args.trace, "seed": args.seed,
              "seeds": seeds, "seconds": args.seconds, "host": host_record()}
    rng = random.Random(args.seed)
    setup_failures = wl.roundtrip_failures(workload, seeds)
    refs = wl.references(args.workload, seeds)

    metrics = {}
    if args.trace:
        reference = run_pass(wl, workload, seeds, refs, rng)
        tracer = Tracer()
        traced = run_pass(wl, workload, seeds, refs, rng, tracer)
        passes = [reference, traced]
        metrics.update(layer_metrics(traced.op_spans, traced.setup_spans))
        self_s = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        metrics["proc.cpu_s"] = reference.cpu_s
        metrics["trace.wall_s"] = traced.elapsed
        metrics["trace.untraced_wall_s"] = reference.elapsed
        metrics["trace.overhead_pct"] = 100.0 * (traced.elapsed / reference.elapsed - 1.0)
        metrics["trace.coverage_pct"] = 100.0 * self_s / traced.elapsed
        record["spans"] = {"setup": span_table(traced.setup_spans),
                           "ops": span_table(traced.op_spans)}
    else:
        sampler = SetupSampler(wl, workload, seeds)
        with HostSpeed() as speed:
            sampler.sample(SETUP_BATCH)
            passes = [run_pass(wl, workload, seeds, refs, rng, between=sampler.between)
                      for _ in range(max(1, round(args.seconds / workload.pass_seconds)))]
            sampler.sample(SETUP_BATCH)
        setup_samples = [end - start for start, end in sampler.samples]
        latencies = [s for p in passes for s in p.passed_times]
        # Each set-up sample is scaled by the kernel samples of the second
        # around it; one sample spans only a few ticks.
        metrics["call_s"] = statistics.median(speed.scale(p.passed_s, *p.window)
                                              for p in passes)
        metrics["setup_s"] = statistics.median(
            speed.scale(end - start, start - SETUP_WINDOW_S, end + SETUP_WINDOW_S)
            for start, end in sampler.samples)
        metrics["wall_s"] = statistics.median(p.passed_s for p in passes)
        metrics["raw_setup_s"] = statistics.median(setup_samples)
        metrics["kernel_ms"] = 1e3 * speed.kernel_s()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["solve_p50_ms"] = 1e3 * percentile(latencies, 0.5)
        metrics["solve_p97.5_ms"] = 1e3 * percentile(latencies, 0.975)
        metrics["cpu_s"] = statistics.median(p.cpu_s for p in passes)
        record["setup_samples"] = setup_samples
        record["kernel_samples"] = speed.samples
        record["setup_windows"] = sampler.samples
        record["latency_samples"] = len(latencies)

    failures = setup_failures + [f"{label}: {failure}" for p in passes
                                 for label, _, failure in p.ops if failure]
    # one round-trip check per instance, plus every timed call
    attempted = sum(len(s) for s in seeds) + sum(len(p.ops) for p in passes)
    metrics["failed_frac"] = len(failures) / attempted
    record.update(attempted=attempted, failed=len(failures), failures=failures[:20],
                  metrics=metrics, loadavg_end=os.getloadavg(),
                  passes=[{"setup_s": p.setup_s, "wall_s": p.elapsed, "cpu_s": p.cpu_s,
                           "window": p.window, "ops": p.ops} for p in passes])
    return record


def save(name: str, data: dict):
    RESULTS_DIR.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"{stamp}-{name}.json"
    path.write_text(json.dumps(data, indent=1, default=str) + "\n", encoding="utf-8")


def emit(record: dict, spec: dict):
    """Print every metric, save the record, print the result line."""
    units = spec["per_layer" if record["trace"] else "end_to_end"]
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in record["metrics"].items():
        unit = units.get(name) or EXTRA_UNITS[name]
        note = "" if name in units else " (recorded only)"
        print(f"{record['workload']:7s} {name:24s} {value:14.6g} {unit}{note}")
    save(f"{record['workload']}-trace{record['trace']}-seed{record['seed']}-{os.getpid()}",
         record)
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))


# -- every workload, each in a fresh process ------------------------------------

def run_child(args, workload: str, trace: int) -> dict | None:
    """One workload in a fresh process; it prints its own metrics."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--seeds", args.seeds]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {' '.join(cmd[1:])} exited with {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, one at a time, untraced and then traced."""
    import workloads as wl
    results = [run_child(args, name, trace) for name in wl.WORKLOADS for trace in (0, 1)]
    return 0 if all(r is not None and r["correct"] for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="desk, grid, ratio, oracle, or all (default)")
    parser.add_argument("--seed", type=int, default=0, help="orders the timed calls")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default="default",
                        help="instance seeds: default, heldout, or lists like 0,1,2/2")
    args = parser.parse_args(argv)
    # One thread per process, children included: a BLAS thread pool on a
    # small host would measure the scheduler.  numpy is not imported yet.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    load_program()
    if args.workload == "all":
        return run_all(args)
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        wl.parse_seeds(wl.WORKLOADS[args.workload], args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    emit(run_workload(args), load_spec())
    return 0


if __name__ == "__main__":
    sys.exit(main())
