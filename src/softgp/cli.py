"""Command-line surface.

Subcommands: fetch, synth, train, predict, bench, boundary, report.
Exit codes: 0 success, 1 usage error, 2 data error, 3 partial benchmark
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from typing import List, Optional

from .bench import (
    PAPER_DATASETS,
    boundary_grid,
    check_grid,
    emit_bench_files,
    read_results_csv,
    run_benchmark,
    strict_border_fraction,
    write_boundary_csv,
    write_summary_csv,
    write_summary_md,
)
from .data import (DataError, check_split_ratio, fetch_pmlb, gen_synthetic, load_table,
                   read_matrix, save_csv)
from .evolve import Algo, EvolutionConfig, EvolveError, fit, load_config
from .metrics import MetricsError
from .sexpr import ParseError, load_model, save_model
from .tree import THRESHOLD, TreeError, eval_batch

_FAULTS = (DataError, MetricsError, ParseError, TreeError, EvolveError, OSError)


def _default_cache() -> str:
    env = os.environ.get("SOFTGP_PMLB_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "softgp", "pmlb")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented usage exit code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="evolution seed (overrides the config file)")
    p.add_argument("--config", default=None,
                   help="flat key=value file with EvolutionConfig fields")


def _build_config(args, fast: bool = False) -> EvolutionConfig:
    cfg = EvolutionConfig()
    if fast:
        cfg = replace(cfg, population_size=50, max_generation=30)
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_fetch(args) -> int:
    ds = fetch_pmlb(args.name, args.cache)
    cached = os.path.join(args.cache, f"{args.name}.tsv.gz")
    print(f"{ds.name}: {ds.rows} rows, {ds.n_features} features; cached at {cached}")
    return 0


def cmd_synth(args) -> int:
    ds = gen_synthetic(args.kind, args.n, args.noise, args.seed)
    out = args.out or f"{args.kind}.csv"
    save_csv(ds, out)
    print(f"{args.kind}: wrote {ds.rows} rows to {out}")
    return 0


def cmd_train(args) -> int:
    ds = load_table(args.data, args.delimiter, args.target)
    cfg = _build_config(args)
    algo = Algo(args.algo)
    out = args.model_out or f"model.{algo.value}"
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(f"no directory for the model file {out}")
    if os.path.isdir(out):
        raise IsADirectoryError(f"the model file {out} is a directory")
    t0 = time.perf_counter()
    cls = fit(ds, algo, cfg)
    elapsed = time.perf_counter() - t0
    save_model(out, cls.model, cls.n_features)
    print(f"trained {algo.value} on {ds.name}: train balanced accuracy "
          f"{cls.train_fitness:.4f} after {cls.generations_run} generations "
          f"({elapsed:.1f}s); model -> {out}")
    return 0


def _load_valid_model(path, features: int):
    """Load a model file (load_model checks it with validate()) that takes
    exactly `features` features."""
    model, n_features = load_model(path)
    if n_features != features:
        raise DataError(f"need a {features}-feature model; {path} has {n_features}")
    return model


def cmd_predict(args) -> int:
    model, n_features = load_model(args.model)
    _, x, _ = read_matrix(args.data, args.delimiter, drop_column=args.target)
    if x.shape[1] != n_features:
        raise DataError(f"{args.data} has {x.shape[1]} features, "
                        f"model expects {n_features}")
    positive = (eval_batch(model, x) >= THRESHOLD).tolist()
    sink = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        # the bytes csv.writer writes, every line ending in "\r\n", in one write
        sink.write("label\r\n" + "".join(["1\r\n" if v else "0\r\n" for v in positive]))
    finally:
        if args.out:
            sink.close()
    if args.out:
        print(f"wrote {len(positive)} labels to {args.out}")
    return 0


def cmd_bench(args) -> int:
    datasets: List[str] = []
    for name in args.datasets:
        if name == "paper":
            datasets.extend(PAPER_DATASETS)
        else:
            datasets.append(name)
    try:
        algos = [Algo(a.strip()) for a in args.algos.split(",") if a.strip()]
    except ValueError:
        raise EvolveError(f"bad --algos value {args.algos!r} (want gp, sgp, or gp,sgp)")
    if not algos:
        raise EvolveError("no algorithms selected")
    runs = args.runs if args.runs is not None else (5 if args.fast else 20)
    # before --out is made, so a bad count, ratio or repeat writes nothing
    if runs < 1:
        raise DataError(f"need at least one run per dataset, got {runs}")
    check_split_ratio(args.ratio)
    check_grid(datasets, algos)
    cfg = _build_config(args, fast=args.fast)
    os.makedirs(args.out, exist_ok=True)  # before the grid, so a bad --out costs no fit
    master_seed = cfg.seed

    def log(msg: str) -> None:
        print(msg, flush=True)

    results, failures = run_benchmark(datasets, algos, runs, args.ratio, cfg,
                                      master_seed, args.cache, log=log)
    emit_bench_files(results, failures, args.out)
    print(f"wrote {len(results)} result rows to {os.path.join(args.out, 'results.csv')}")
    for name, msg in failures:
        print(f"FAILED {name}: {msg}", file=sys.stderr)
    if failures:
        return 3 if results else 2
    return 0


def cmd_boundary(args) -> int:
    model = _load_valid_model(args.model, features=2)
    grid = boundary_grid(model, args.resolution, (args.xmin, args.xmax),
                         (args.ymin, args.ymax))
    write_boundary_csv(grid, args.out)
    frac = strict_border_fraction(grid)
    print(f"strict-border fraction (activations in (0.01, 0.99)): {frac!r}")
    print(f"wrote {grid.resolution ** 2} grid points to {args.out}")
    return 0


def cmd_report(args) -> int:
    path = args.results
    if os.path.isdir(path):
        path = os.path.join(path, "results.csv")
    results = read_results_csv(path)
    out_dir = args.out or os.path.dirname(path) or "."
    os.makedirs(out_dir, exist_ok=True)
    write_summary_csv(results, os.path.join(out_dir, "summary.csv"))
    write_summary_md(results, os.path.join(out_dir, "summary.md"))
    print(f"rendered summary.csv and summary.md in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softgp",
                     description="GP/SGP binary classifiers over logical trees")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fetch", help="download a PMLB dataset into the cache")
    p.add_argument("name", help="PMLB dataset name, e.g. haberman")
    p.add_argument("--cache", default=_default_cache())
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("synth", help="generate a 2D synthetic dataset CSV")
    p.add_argument("--kind", required=True, choices=("linsep", "circles", "moons"))
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a classifier and write the model file")
    p.add_argument("--algo", required=True, choices=("gp", "sgp"))
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="target")
    p.add_argument("--delimiter", default=None)
    p.add_argument("--model-out", "-o", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a model file to a data file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--target", default="target",
                   help="label column to ignore if present")
    p.add_argument("--delimiter", default=None)
    p.add_argument("--out", "-o", default=None, help="default: stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="run the dataset x run x algo benchmark grid")
    p.add_argument("datasets", nargs="+",
                   help="PMLB names, local files, synth:<kind>[:<n>[:<noise>]] "
                        "specs, or 'paper' for the twelve paper datasets")
    p.add_argument("--algos", default="gp,sgp")
    p.add_argument("--runs", type=int, default=None, help="default 20 (5 with --fast)")
    p.add_argument("--ratio", type=float, default=0.7)
    p.add_argument("--out", "-o", default="bench_out")
    p.add_argument("--cache", default=_default_cache())
    p.add_argument("--fast", action="store_true",
                   help="population 50, 30 generations, 5 runs")
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("boundary", help="export a decision-boundary grid CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--xmin", type=float, default=-2.0)
    p.add_argument("--xmax", type=float, default=2.0)
    p.add_argument("--ymin", type=float, default=-2.0)
    p.add_argument("--ymax", type=float, default=2.0)
    p.add_argument("--out", "-o", default="boundary.csv")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("report", help="re-render summaries from a results.csv")
    p.add_argument("--results", required=True,
                   help="results.csv or a directory containing it")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FAULTS as e:
        print(f"softgp {args.command}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
