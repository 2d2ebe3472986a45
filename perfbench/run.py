"""softgp benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sgp_fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a softgp checkout; the package is imported from its
`src` directory. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the workload runs twice,
untraced and then traced, and the metrics are the per-layer ones from the
traced pass. The lines before it give the machine, every fit with its
model digest, and every metric with its unit. The exit code is 1 when an
output check failed and 2 when the package cannot be imported.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-traces"
REF_NODES = 100

# name, unit, better
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("gens_per_s", "1/s", "higher"),
    ("train_fitness", "bacc", "higher"),
    ("test_bacc", "bacc", "higher"),
    ("predict_rows_per_s", "rows/s", "higher"),
    ("load_model_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_STAT_UNITS = {
    "calls": ("count", "lower"),
    "us_per_call": ("us", "lower"),
    "self_s": ("s", "lower"),
    "nodes_per_call": ("nodes", "lower"),
    "evals_per_call": ("count", "lower"),
    "accept_ratio": ("ratio", "higher"),
    "bytes": ("B", "lower"),
    "s": ("s", "lower"),
}
_GATED_STATS = ("calls", "us_per_call", "self_s", "evals_per_call", "accept_ratio")
_EVAL_STATS = ("calls", "us_per_call", "nodes_per_call", "self_s")
# span name -> stats reported for it
SPAN_STATS: Dict[str, Tuple[str, ...]] = {
    "tree.eval_batch.lt10k": _EVAL_STATS,
    "tree.eval_batch.ge10k": _EVAL_STATS,
    "tree.random_tree": ("calls", "us_per_call"),
    "tree.random_subtree": ("calls", "us_per_call"),
    "tree.set_weight": ("calls", "us_per_call"),
    "tree.collect_weights": ("calls", "us_per_call"),
    "genetics.fitness_of": ("calls", "us_per_call", "self_s"),
    "genetics.positive_crossover": _GATED_STATS,
    "genetics.positive_mutation": _GATED_STATS,
    "genetics.weight_adjustment": _GATED_STATS,
    "genetics.extension_mutation": _GATED_STATS,
    "genetics.crossover": ("calls", "us_per_call", "self_s"),
    "genetics.mutate": ("calls", "us_per_call", "self_s"),
    "genetics.rank_select": ("calls", "us_per_call", "self_s"),
    "sexpr.format_tree": ("calls", "self_s"),
    "sexpr.parse_model": ("us_per_call", "bytes"),
    "metrics.confusion": ("us_per_call",),
    "evolve.fit": ("self_s",),
    "data.gen_synthetic": ("s",),
    "data.shuffle_split": ("s",),
    "bench.boundary_grid": ("us_per_call",),
}
PER_LAYER: List[Tuple[str, str, str]] = [
    (f"{span}.{stat}", *_STAT_UNITS[stat]) for span, stats in SPAN_STATS.items() for stat in stats
] + [
    ("evolve.best_nodes", "nodes", "lower"),
    ("evolve.generations", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def import_softgp() -> bool:
    """Import softgp from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    try:
        import softgp
    except ImportError as e:
        print(f"perfbench: cannot import softgp from {SRC}: {e}", file=sys.stderr)
        return False
    if Path(softgp.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: softgp imported from {softgp.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def machine() -> Dict[str, object]:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def end_to_end(out, clock) -> Dict[str, float]:
    """End-to-end metrics; every time is corrected for host speed."""
    c = clock.corrected
    fit_s = [c(*f.wall) for f in out.fits]
    # load and predict cost grow with model size; counting each pass in
    # REF_NODES-node models keeps the corpus's size variation out of both
    ref_models = out.served * out.corpus_nodes / REF_NODES
    predict_s = statistics.median(c(*iv) for iv in out.predict)
    return {
        "setup_s": statistics.median(c(*iv) for iv in out.setup),
        "fit_s": statistics.median(fit_s),
        "gens_per_s": sum(f.cls.generations_run for f in out.fits) / sum(fit_s),
        "train_fitness": statistics.fmean(f.cls.train_fitness for f in out.fits),
        "test_bacc": statistics.fmean(out.heldout_bacc),
        "predict_rows_per_s": out.rows * ref_models / predict_s,
        "load_model_ms": 1e3 * statistics.median(c(*iv) for iv in out.load) / ref_models,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(stats, out, overhead_ratio: float) -> Dict[str, float]:
    from softgp.tree import node_count
    from tracing import SpanStats
    zero = SpanStats(0, 0.0, 0.0, 0.0, 0)
    values: Dict[str, float] = {}
    for span, wanted in SPAN_STATS.items():
        st = stats.get(span, zero)
        per_call = st.total_s / st.calls if st.calls else 0.0
        derived = {
            "calls": float(st.calls),
            "us_per_call": 1e6 * per_call,
            "self_s": st.self_s,
            "nodes_per_call": st.value_mean,
            "evals_per_call": st.child_calls / st.calls if st.calls else 0.0,
            "accept_ratio": st.value_mean,
            "bytes": st.value_mean,
            "s": per_call,
        }
        for stat in wanted:
            values[f"{span}.{stat}"] = derived[stat]
    values["evolve.best_nodes"] = statistics.fmean(
        node_count(f.cls.model.root) for f in out.fits) if out.fits else 0.0
    values["evolve.generations"] = statistics.fmean(
        f.cls.generations_run for f in out.fits) if out.fits else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def _seconds(intervals, clock, per: int = 1) -> str:
    """Raw wall and corrected milliseconds of each interval."""
    return " ".join(f"{1e3 * (t1 - t0) / per:.3f}/{1e3 * clock.corrected(t0, t1) / per:.3f}"
                    for t0, t1 in intervals)


def describe(label: str, out, clock) -> None:
    from softgp.tree import node_count
    for f, digest, bacc in zip(out.fits, out.digests, out.heldout_bacc):
        print(f"{label} {f.label}: wall {f.wall[1] - f.wall[0]:.3f} s, corrected "
              f"{clock.corrected(*f.wall):.3f} s, cpu {f.cpu_s:.3f} s, "
              f"{f.cls.generations_run} generations, train fitness {f.cls.train_fitness!r}, "
              f"held-out bacc {bacc!r}, {node_count(f.cls.model.root)} nodes, "
              f"model sha256 {digest}")
    if out.serve_passes:
        print(f"{label} served {out.serve_passes} passes over {out.served} models "
              f"(mean {out.corpus_nodes:.1f} nodes) at {out.rows} rows")
    print(f"{label} wall/corrected ms: setup {_seconds(out.setup, clock)}; "
          f"load per model {_seconds(out.load, clock, out.served)}; "
          f"predict per model {_seconds(out.predict, clock, out.served)}")
    for note in out.notes:
        print(f"{label} {note}")
    for unit, msg in out.failures.items():
        print(f"{label} FAILED {unit}: {msg}")
    print(f"{label} wall {out.wall[1] - out.wall[0]:.3f} s, corrected "
          f"{clock.corrected(*out.wall):.3f} s; {out.attempted} units attempted, "
          f"{len(out.failures)} failed (failed_frac {len(out.failures) / max(out.attempted, 1)!r})")


def run_all(args) -> int:
    """Run every workload, each in its own process, and combine the results."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        last = ""
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            for line in proc.stdout:
                sys.stdout.write(line)
                last = line
        try:
            result = json.loads(last)
        except ValueError:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="sgp_fit, gp_grid, predict_load, or all (each in its own process)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not import_softgp():
        return 2
    if args.workload == "all":
        return run_all(args)
    import workloads
    from hostclock import HostClock
    from tracing import Recorder, Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    run = workloads.WORKLOADS[args.workload]
    plan = workloads.plan_for(args.workload, args.seconds)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine()))

    with HostClock() as clock:
        out = run(args.seed, plan)
    describe("untraced", out, clock)
    attempted, failed = out.attempted, len(out.failures)
    if args.trace:
        rec = Recorder()
        with HostClock() as traced_clock, Tracer(rec, workloads.LAYERS, "softgp"):
            traced = run(args.seed, replace(plan, replay_fits=out.fit_units,
                                                 replay_passes=out.serve_passes))
        describe("traced", traced, traced_clock)
        attempted += traced.attempted
        failed += len(traced.failures)
        attempted += 1
        if traced.digests != out.digests:
            print("FAILED traced and untraced runs produced different models")
            failed += 1
        ratio = traced_clock.corrected(*traced.wall) / clock.corrected(*out.wall)
        raw = (traced.wall[1] - traced.wall[0]) / (out.wall[1] - out.wall[0])
        print(f"tracing overhead: traced / untraced time for the same work = {ratio:.4f} "
              f"corrected, {raw:.4f} raw wall, over {len(rec)} spans")
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv"
        rec.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        values = per_layer(rec.stats(child="genetics.fitness_of"), traced, ratio)
        catalogue = PER_LAYER
    else:
        values = end_to_end(out, clock) if out.fits and out.serve_passes else {}
        catalogue = END_TO_END
    metrics = {}
    for name, unit, better in catalogue:
        if name not in values:
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]!r} {unit} ({better} is better)")
    correct = failed == 0 and len(metrics) == len(catalogue)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
