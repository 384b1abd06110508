"""Benchmark of the squareful reproduction: four workloads, each in one process.

Run from the repository root:

    python3 perfbench/run.py --workload table1_game --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload in turn

With ``--trace 0`` the run repeats whole passes (a fresh import of the
library, set-up, then the timed phase with every output checked) for about
``--seconds`` seconds and reports the end-to-end metrics.  With ``--trace 1``
it runs an untraced, a traced and another untraced pass on the same inputs
and reports the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each
run also writes its full record, with the environment it ran in, under
``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

CLOCK = time.perf_counter
SETUP_SAMPLES = 5  # set-ups per run, at least; setup_s is their median
OUT_DIR = Path(".perfbench")
# Gated end-to-end metrics: BENCHMARK.json and the result line.  The timings
# are printed and recorded beside them but not gated, because on a host whose
# speed drifts their run-to-run spread exceeds any allowed bound (README.md).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}
TIMINGS = {"wall_s": "s", "task_p50_ms": "ms", "task_p90_ms": "ms"}


class SourcesMissing(RuntimeError):
    pass


def import_library(src_dir: Path) -> SimpleNamespace:
    """Import the package afresh from ``src_dir``, so each pass starts cold."""
    for name in [m for m in sys.modules if m.split(".")[0] == "squareful"]:
        del sys.modules[name]
    package = importlib.import_module("squareful")
    if not Path(package.__file__).resolve().is_relative_to(src_dir.resolve()):
        raise SourcesMissing(f"squareful was imported from {package.__file__}, not {src_dir}")
    modules = {short: importlib.import_module(f"squareful.{short}") for short in spans.LAYERS}
    return SimpleNamespace(package=package, modules=modules, **modules)


def one_pass(wl, inputs, src_dir: Path, tracer=None):
    """Import, set up and run one pass; returns (setup_s, wall_s, Pass)."""
    gc.collect()
    t0 = CLOCK()
    lib = import_library(src_dir)
    if tracer is not None:
        tracer.instrument(lib.package, lib.modules)
    try:
        state = wl.setup(lib, inputs)
        t1 = CLOCK()
        ctx = workloads.Pass(wl.task_kind, CLOCK, tracer)
        wl.run(lib, state, inputs, ctx)
        t2 = CLOCK()
    finally:
        if tracer is not None:
            tracer.restore()
    return t1 - t0, t2 - t1, ctx


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(wl, seed: int, seconds: float, trace: bool, src_dir: Path, size: str = "full") -> dict:
    """Run one workload and return its record (metrics, counts, passes)."""
    saved_modules = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "squareful"}
    saved_path = list(sys.path)
    sys.path.insert(0, str(src_dir))
    try:
        return _measure(wl, seed, seconds, trace, src_dir, size)
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "squareful"]:
            del sys.modules[name]
        sys.modules.update(saved_modules)
        sys.path[:] = saved_path


def _measure(wl, seed, seconds, trace, src_dir, size) -> dict:
    started = CLOCK()
    inputs = wl.inputs(seed, size)
    passes, setups = [], []
    record = {"workload": wl.name, "seed": seed, "size": size, "trace": int(trace)}
    if trace:
        tracer = spans.Tracer(f"{wl.name}-seed{seed}-pid{os.getpid()}")
        # untraced passes on both sides of the traced one, so the overhead
        # compares against a pass that ran in an equally warm process
        for t in (None, tracer, None):
            setup_s, wall_s, ctx = one_pass(wl, inputs, src_dir, t)
            passes.append((setup_s, wall_s, ctx))
        traced = passes[1][2]
        same_checks = all(ctx.units == traced.units for _, _, ctx in passes)
        overhead = passes[1][1] / min(passes[0][1], passes[2][1]) - 1
        summary = tracer.summarize()
        metrics = spans.layer_metrics(summary, traced.materialized, overhead)
        record["trace_spans"] = summary["spans"]
        record["traced_checks_match_untraced"] = same_checks
        record["per_name"] = summary["per_name"]
        if size == "full":
            tracer.write(OUT_DIR / f"{wl.name}.spans")
    else:
        for _ in range(SETUP_SAMPLES - 1):
            gc.collect()
            t0 = CLOCK()
            wl.setup(import_library(src_dir), inputs)
            setups.append(CLOCK() - t0)
        while True:
            setup_s, wall_s, ctx = one_pass(wl, inputs, src_dir)
            passes.append((setup_s, wall_s, ctx))
            setups.append(setup_s)
            typical = statistics.median(s + w for s, w, _ in passes)
            if CLOCK() - started + typical > seconds:
                break
        same_checks = True
        # The host's speed drifts between states up to 1.8x apart that last
        # from seconds to minutes.  Every pass runs the same units on
        # the same inputs, so each unit is timed by its fastest pass: wall_s
        # adds up those times (plus the least time spent between units), and
        # the task percentiles are taken over them.  All passes are kept in
        # the run record.
        latencies = [min(task) for task in zip(*(ctx.latencies for _, _, ctx in passes))]
        best_units = sum(min(unit) for unit in zip(*(ctx.times for _, _, ctx in passes)))
        rest = min(w - sum(ctx.times) for _, w, ctx in passes)
        values = {
            "wall_s": best_units + rest,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "task_p50_ms": 1000 * percentile(latencies, 50),
            "task_p90_ms": 1000 * percentile(latencies, 90),
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        record["timings"] = {k: {"value": values[k], "unit": unit} for k, unit in TIMINGS.items()}
        record["setup_samples"] = setups
        record["unit_times_s"] = [ctx.times for _, _, ctx in passes]
    attempted = sum(len(ctx.units) for _, _, ctx in passes)
    failed = sum(len(ctx.failed) for _, _, ctx in passes)
    record.update(
        correct=failed == 0 and same_checks,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        passes=[{"setup_s": s, "wall_s": w, "units": len(ctx.units), "failed": ctx.failed,
                 "letters_materialized": ctx.materialized} for s, w, ctx in passes],
    )
    return record


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": os.uname().machine,
        "kernel": os.uname().release,
        "commit": _git_commit(Path.cwd()),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args, src_dir: Path) -> int:
    wl = workloads.WORKLOADS[args.workload]
    record = measure(wl, args.seed, args.seconds, bool(args.trace), src_dir)
    record["environment"] = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(f"# {wl.name} seed={args.seed} trace={args.trace} passes={len(record['passes'])} "
          f"python={env['python']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"commit={env['commit']}")
    print(f"# attempted={record['attempted']} failed={record['failed']} "
          f"failed_frac={record['failed_frac']:g} record={out}")
    for label in {label for p in record["passes"] for label in p["failed"]}:
        print(f"# FAILED {label}")
    for name, m in {**record.get("timings", {}), **record["metrics"]}.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src_dir = Path.cwd() / "src"
    if not (src_dir / "squareful" / "__init__.py").is_file():
        print("perfbench: ./src/squareful not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args, src_dir)
    except SourcesMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
