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

from .data import (DataError, Dataset, check_split_ratio, fetch_pmlb, gen_synthetic,
                   load_table, shuffle_split, unreadable_table)
from .evolve import Algo, EvolutionConfig, EvolveError, fit, score
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


def check_grid(datasets: Sequence[str], algos: Sequence[Algo]) -> None:
    """Refuse a dataset or algorithm named twice: each would repeat its
    cells under the same run seeds, and results.csv holds one row per
    (dataset, run, algo)."""
    for what, names in (("dataset", datasets), ("algorithm", [a.value for a in algos])):
        seen = set()
        for name in names:
            if name in seen:
                raise DataError(f"{what} {name!r} is named twice")
            seen.add(name)


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

    Failures (unfetchable dataset, impossible split, degenerate labels,
    infinite feature span) are recorded as (dataset, message) and the
    affected cells skipped. Results come back sorted by (dataset, run, algo).
    A dataset or algorithm named twice raises DataError before any runs.
    """
    if runs < 1:
        raise DataError(f"need at least one run per dataset, got {runs}")
    check_split_ratio(ratio)
    check_grid(datasets, algos)
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
            except (DataError, EvolveError, MetricsError) as e:
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


def _result_row(row: List[str]) -> BenchResult:
    # one results.csv row as run_benchmark writes it; ValueError otherwise
    if len(row) != len(RESULTS_HEADER):
        raise ValueError(f"{len(row)} cells, want {len(RESULTS_HEADER)}")
    r = BenchResult(row[0], int(row[1]), Algo(row[2]), float(row[3]), float(row[4]),
                    int(row[5]))
    if not 0.0 <= r.balanced_accuracy <= 1.0:
        raise ValueError("balanced accuracy outside [0, 1]")
    if not 0.0 <= r.train_seconds < math.inf:
        raise ValueError("train seconds not finite and non-negative")
    if r.run < 1:
        raise ValueError("run below 1")
    if r.seed < 0:
        raise ValueError("negative seed")
    return r


def read_results_csv(path) -> List[BenchResult]:
    """Read a results.csv back, refusing any row run_benchmark would not
    write: a bad cell count or value, or a second row for a (dataset, run,
    algo) cell."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != RESULTS_HEADER:
                raise DataError(f"{path}: not a results.csv (bad header)")
            out = []
            cells = set()
            for row in reader:
                if not row:
                    continue
                try:
                    r = _result_row(row)
                except ValueError as e:
                    raise DataError(f"{path}: bad row {row!r}: {e}") from None
                cell = (r.dataset, r.run, r.algo)
                if cell in cells:
                    raise DataError(f"{path}: a second row for {cell[0]} run {cell[1]} "
                                    f"{cell[2].value}")
                cells.add(cell)
                out.append(r)
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
    """Render the mean table; (k) marks each cell's rank within its column.

    The heading gives the run count when every cell averages the same
    number of runs; otherwise a second table gives each cell's count."""
    stats = summarize(results)
    counts = {n for _, _, n in stats.values()}
    datasets = sorted({d for d, _ in stats})
    algos = sorted({a for _, a in stats})
    ranks: Dict[Tuple[str, str], int] = {}
    for algo in algos:
        col = sorted((d for d in datasets if (d, algo) in stats),
                     key=lambda d: -stats[(d, algo)][0])
        for i, d in enumerate(col, start=1):
            ranks[(d, algo)] = i

    def table(fh, cell) -> None:
        fh.write("| dataset | " + " | ".join(algos) + " |\n")
        fh.write("|---" * (len(algos) + 1) + "|\n")
        for d in datasets:
            cells = [cell(d, a) if (d, a) in stats else "-" for a in algos]
            fh.write(f"| {d} | " + " | ".join(cells) + " |\n")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# Benchmark summary\n\n")
        if len(counts) == 1:
            fh.write(f"Mean balanced accuracy over {min(counts)} runs; "
                     "(k) is the rank within the column.\n\n")
        elif counts:
            fh.write("Mean balanced accuracy; (k) is the rank within the column. "
                     "Cells average different numbers of runs, given under Runs.\n\n")
        else:
            fh.write("No results.\n")
        if stats:
            table(fh, lambda d, a: f"{stats[(d, a)][0]:.4f} ({ranks[(d, a)]})")
        if len(counts) > 1:
            fh.write("\n## Runs\n\n")
            table(fh, lambda d, a: str(stats[(d, a)][2]))
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
# resolution**2 values at once, and memory grows with the square of the
# resolution. `softgp boundary --resolution 2000` peaked at 281 to 312 MB
# of max RSS on four soft models of 143 to 157 nodes (CSV written).
MAX_RESOLUTION = 2000


def boundary_grid(model: ExprTree, resolution: int,
                  x_range: Tuple[float, float], y_range: Tuple[float, float]) -> BoundaryGrid:
    """Evaluate a 2-feature model on a resolution x resolution lattice,
    2 <= resolution <= MAX_RESOLUTION, over ranges of finite bounds and
    width given low to high."""
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise DataError(f"resolution must be in [2, {MAX_RESOLUTION}], got {resolution}")
    if not all(math.isfinite(v) for v in (*x_range, *y_range)):
        raise DataError(f"grid bounds must be finite, got x {x_range} and y {y_range}")
    if not (x_range[0] < x_range[1] and y_range[0] < y_range[1]):
        raise DataError(f"grid ranges must run from low to high, got x {x_range} and y {y_range}")
    # linspace steps by the width, so it must be finite as well as its bounds
    if not (math.isfinite(x_range[1] - x_range[0]) and math.isfinite(y_range[1] - y_range[0])):
        raise DataError(f"grid ranges must have a finite width, got x {x_range} and y {y_range}")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    # the lattice row-major over (y, x), built column-major, the layout
    # eval_batch evaluates, so it is taken as it is rather than copied
    pts = np.empty((resolution * resolution, 2), order="F")
    pts[:, 0].reshape(resolution, resolution)[:] = xs
    pts[:, 1].reshape(resolution, resolution)[:] = ys[:, None]
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
    """Write the grid as CSV rows x,y,activation,label, row-major over (y, x).

    The bytes are those csv.writer writes: no field needs quoting, and
    every line ends in "\r\n". Each x and y is rendered once, and each
    lattice row goes out in one write.
    """
    r = grid.resolution
    xs = [repr(x) for x in np.linspace(grid.x_range[0], grid.x_range[1], r).tolist()]
    ys = np.linspace(grid.y_range[0], grid.y_range[1], r).tolist()
    acts = grid.activations.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,activation,label\r\n")
        for row, y in enumerate(ys):
            y = repr(y)
            fh.write("".join([f"{x},{y},{a!r},{1 if a >= THRESHOLD else 0}\r\n"
                              for x, a in zip(xs, acts[row * r:(row + 1) * r])]))
