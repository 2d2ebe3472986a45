"""Benchmark harness and decision-boundary grids.

Protocol per dataset and run: derive a run seed from the master seed,
shuffle-split 70/30, fit each algorithm on the train split, score
balanced accuracy on the test split. Run seeds are a stable hash of
(master_seed, dataset name, run index), so adding or reordering datasets
never perturbs other cells. Emits results.csv (one row per cell),
summary.csv (mean/stddev per dataset and algorithm), and summary.md (a
mean table with per-column rank annotations in place of the usual
heatmap shading).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .data import (DataError, Dataset, fetch_pmlb, gen_synthetic, load_table, shuffle_split,
                   unreadable_table)
from .evolve import Algo, EvolutionConfig, fit, score
from .metrics import MetricsError
from .tree import THRESHOLD, ExprTree, eval_batch

# The twelve PMLB datasets of the quantitative comparison, by PMLB slug.
PAPER_DATASETS = (
    "prnn_crabs", "heart_h", "crx", "haberman", "breast", "flare",
    "pima", "german", "heart_c", "credit_g", "buggyCrx", "prnn_synth",
)

RESULTS_HEADER = ("dataset", "run", "algo", "balanced_accuracy", "train_seconds", "seed")


@dataclass(frozen=True)
class BenchResult:
    dataset: str
    run: int
    algo: Algo
    balanced_accuracy: float
    train_seconds: float
    seed: int


def run_seed(master_seed: int, dataset: str, run: int) -> int:
    """Stable 64-bit seed for one benchmark cell."""
    digest = hashlib.sha256(f"{master_seed}:{dataset}:{run}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_dataset(name: str, cache_dir, master_seed: int) -> Dataset:
    """Turn a benchmark dataset argument into a Dataset.

    Accepts synth:<kind>[:<n>[:<noise>]] specs, paths to local delimited
    files, and PMLB dataset names (fetched through the cache). Synthetic
    tables are generated once per spec, seeded from (master_seed, spec, 0);
    runs 1..N then reshuffle that fixed table.
    """
    if name.startswith("synth:"):
        parts = name.split(":")
        kind = parts[1] if len(parts) > 1 else ""
        try:
            n = int(parts[2]) if len(parts) > 2 else 200
            noise = float(parts[3]) if len(parts) > 3 else 0.1
        except ValueError:
            raise DataError(f"bad synthetic spec {name!r} "
                            f"(want synth:<kind>[:<n>[:<noise>]])") from None
        if len(parts) > 4:
            raise DataError(f"bad synthetic spec {name!r}")
        ds = gen_synthetic(kind, n, noise, seed=run_seed(master_seed, name, 0))
        ds.name = name
        return ds
    if os.path.exists(name):
        return load_table(name)
    return fetch_pmlb(name, cache_dir)


def run_benchmark(datasets: Sequence[str], algos: Sequence[Algo], runs: int,
                  ratio: float, cfg: EvolutionConfig, master_seed: int,
                  cache_dir, log=None) -> Tuple[List[BenchResult], List[Tuple[str, str]]]:
    """Run the full dataset x run x algo grid.

    Failures (unfetchable dataset, impossible split, degenerate labels)
    are recorded as (dataset, message) and the affected cells skipped.
    Results come back sorted by (dataset, run, algo).
    """
    if runs < 1:
        raise DataError(f"need at least one run per dataset, got {runs}")
    results: List[BenchResult] = []
    failures: List[Tuple[str, str]] = []
    for name in datasets:
        try:
            ds = resolve_dataset(name, cache_dir, master_seed)
        except DataError as e:
            failures.append((name, str(e)))
            continue
        for run in range(1, runs + 1):
            seed = run_seed(master_seed, name, run)
            try:
                split = shuffle_split(ds, ratio, seed)
                for algo in algos:
                    t0 = time.perf_counter()
                    cls = fit(split.train, algo, replace(cfg, seed=seed))
                    elapsed = time.perf_counter() - t0
                    ba = score(cls, split.test)
                    results.append(BenchResult(name, run, algo, ba, elapsed, seed))
                    if log:
                        log(f"{name} run {run} {algo.value}: "
                            f"balanced accuracy {ba:.4f} in {elapsed:.1f}s")
            except (DataError, MetricsError) as e:
                failures.append((name, f"run {run}: {e}"))
    results.sort(key=lambda r: (r.dataset, r.run, r.algo.value))
    return results, failures


def write_results_csv(results: Sequence[BenchResult], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in results:
            writer.writerow([r.dataset, r.run, r.algo.value,
                             repr(r.balanced_accuracy), f"{r.train_seconds:.3f}", r.seed])


def read_results_csv(path) -> List[BenchResult]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != RESULTS_HEADER:
                raise DataError(f"{path}: not a results.csv (bad header)")
            out = []
            for row in reader:
                if not row:
                    continue
                try:
                    out.append(BenchResult(row[0], int(row[1]), Algo(row[2]),
                                           float(row[3]), float(row[4]), int(row[5])))
                except (ValueError, IndexError) as e:
                    raise DataError(f"{path}: bad row {row!r}: {e}") from None
        except (UnicodeDecodeError, csv.Error) as e:
            raise unreadable_table(path, reader, e) from e
    return out


def summarize(results: Sequence[BenchResult]) -> Dict[Tuple[str, str], Tuple[float, float, int]]:
    """Group scores by (dataset, algo): mean, sample stddev, run count."""
    groups: Dict[Tuple[str, str], List[float]] = {}
    for r in results:
        groups.setdefault((r.dataset, r.algo.value), []).append(r.balanced_accuracy)
    out = {}
    for key, scores in groups.items():
        arr = np.asarray(scores)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        out[key] = (float(arr.mean()), std, len(arr))
    return out


def write_summary_csv(results: Sequence[BenchResult], path) -> None:
    stats = summarize(results)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "algo", "mean_balanced_accuracy",
                         "stddev_balanced_accuracy", "runs"])
        for (dataset, algo), (mean, std, n) in sorted(stats.items()):
            writer.writerow([dataset, algo, f"{mean:.6f}", f"{std:.6f}", n])


def write_summary_md(results: Sequence[BenchResult], path,
                     failures: Sequence[Tuple[str, str]] = ()) -> None:
    """Render the mean table; (k) marks each cell's rank within its column."""
    stats = summarize(results)
    datasets = sorted({d for d, _ in stats})
    algos = sorted({a for _, a in stats})
    ranks: Dict[Tuple[str, str], int] = {}
    for algo in algos:
        col = sorted((d for d in datasets if (d, algo) in stats),
                     key=lambda d: -stats[(d, algo)][0])
        for i, d in enumerate(col, start=1):
            ranks[(d, algo)] = i
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# Benchmark summary\n\n")
        if stats:
            fh.write(f"Mean balanced accuracy over {max(s[2] for s in stats.values())} runs; "
                     "(k) is the rank within the column.\n\n")
            fh.write("| dataset | " + " | ".join(algos) + " |\n")
            fh.write("|---" * (len(algos) + 1) + "|\n")
        else:
            fh.write("No results.\n")
        for d in datasets:
            cells = []
            for a in algos:
                if (d, a) in stats:
                    cells.append(f"{stats[(d, a)][0]:.4f} ({ranks[(d, a)]})")
                else:
                    cells.append("-")
            fh.write(f"| {d} | " + " | ".join(cells) + " |\n")
        if failures:
            fh.write("\n## Failures\n\n")
            for name, msg in failures:
                fh.write(f"- {name}: {msg}\n")


def write_failures_csv(failures: Sequence[Tuple[str, str]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "error"])
        for name, msg in failures:
            writer.writerow([name, msg])


def emit_bench_files(results: Sequence[BenchResult],
                     failures: Sequence[Tuple[str, str]], out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_results_csv(results, os.path.join(out_dir, "results.csv"))
    write_summary_csv(results, os.path.join(out_dir, "summary.csv"))
    write_summary_md(results, os.path.join(out_dir, "summary.md"), failures)
    if failures:
        write_failures_csv(failures, os.path.join(out_dir, "failures.csv"))


# ---------------------------------------------------------------------------
# Decision-boundary grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryGrid:
    resolution: int
    x_range: Tuple[float, float]
    y_range: Tuple[float, float]
    activations: np.ndarray  # resolution**2 values, row-major over (y, x)


# 4M grid points: evaluation and the CSV writer hold several arrays of
# resolution**2 values at once, so a run at this resolution peaks at 220 to
# 320 MB of RSS, and memory grows with the square of the resolution
MAX_RESOLUTION = 2000


def boundary_grid(model: ExprTree, resolution: int,
                  x_range: Tuple[float, float], y_range: Tuple[float, float]) -> BoundaryGrid:
    """Evaluate a 2-feature model on a resolution x resolution lattice,
    2 <= resolution <= MAX_RESOLUTION."""
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise DataError(f"resolution must be in [2, {MAX_RESOLUTION}], got {resolution}")
    if not all(math.isfinite(v) for v in (*x_range, *y_range)):
        raise DataError(f"grid bounds must be finite, got x {x_range} and y {y_range}")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack((gx.ravel(), gy.ravel()))
    acts = eval_batch(model, pts)
    return BoundaryGrid(resolution, (float(x_range[0]), float(x_range[1])),
                        (float(y_range[0]), float(y_range[1])), acts)


def strict_border_fraction(grid: BoundaryGrid) -> float:
    """Fraction of activations strictly inside (0.01, 0.99).

    Near zero means the model behaves like a crisp decision surface even
    though its operators are continuous.
    """
    a = grid.activations
    return float(np.mean((a > 0.01) & (a < 0.99)))


def write_boundary_csv(grid: BoundaryGrid, path) -> None:
    xs = np.linspace(grid.x_range[0], grid.x_range[1], grid.resolution)
    ys = np.linspace(grid.y_range[0], grid.y_range[1], grid.resolution)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "activation", "label"])
        i = 0
        for y in ys:
            for x in xs:
                a = float(grid.activations[i])
                writer.writerow([repr(float(x)), repr(float(y)), repr(a),
                                 int(a >= THRESHOLD)])
                i += 1
