import csv
import hashlib

import numpy as np
import pytest

import softgp.bench
import softgp.data
from softgp.bench import (
    PAPER_DATASETS,
    RESULTS_HEADER,
    BenchResult,
    BoundaryGrid,
    boundary_grid,
    emit_bench_files,
    read_results_csv,
    resolve_dataset,
    run_benchmark,
    run_seed,
    strict_border_fraction,
    summarize,
    write_boundary_csv,
    write_results_csv,
    write_summary_md,
)
from softgp.data import DataError, Dataset, gen_synthetic, save_csv
from softgp.evolve import Algo, EvolutionConfig
from softgp.sexpr import parse_tree
from softgp.tree import ExprTree, OpKind, Variant, eval_batch, op, symbol

TINY = EvolutionConfig(max_generation=2, population_size=10, seed=0)


def seed_oracle(master, dataset, run):
    digest = hashlib.sha256(f"{master}:{dataset}:{run}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def test_run_seed_matches_the_hash_construction():
    for master, dataset, run in [(0, "circles", 1), (7, "pima", 20), (123, "a:b", 0)]:
        assert run_seed(master, dataset, run) == seed_oracle(master, dataset, run)


def test_run_seeds_are_stable_and_distinct():
    assert run_seed(0, "pima", 1) == run_seed(0, "pima", 1)
    seen = {run_seed(0, d, r) for d in ("pima", "flare") for r in range(1, 21)}
    assert len(seen) == 40  # no collisions across cells
    assert run_seed(0, "pima", 1) != run_seed(1, "pima", 1)


def test_paper_dataset_list():
    assert len(PAPER_DATASETS) == 12
    assert len(set(PAPER_DATASETS)) == 12


# --- resolve_dataset ----------------------------------------------------------------

def test_resolve_synth_spec_with_defaults(tmp_path):
    ds = resolve_dataset("synth:moons", tmp_path, master_seed=0)
    assert ds.name == "synth:moons"
    assert ds.rows == 200 and ds.n_features == 2


def test_resolve_synth_spec_full(tmp_path):
    ds = resolve_dataset("synth:circles:50:0.2", tmp_path, master_seed=3)
    assert ds.rows == 50
    again = resolve_dataset("synth:circles:50:0.2", tmp_path, master_seed=3)
    assert ds.x.tolist() == again.x.tolist()
    other = resolve_dataset("synth:circles:50:0.2", tmp_path, master_seed=4)
    assert ds.x.tolist() != other.x.tolist()


def test_resolve_bad_synth_specs(tmp_path):
    with pytest.raises(DataError, match="bad synthetic spec"):
        resolve_dataset("synth:circles:abc", tmp_path, 0)
    with pytest.raises(DataError, match="bad synthetic spec"):
        resolve_dataset("synth:circles:50:0.1:9", tmp_path, 0)
    with pytest.raises(DataError, match="unknown synthetic kind"):
        resolve_dataset("synth:spiral", tmp_path, 0)


def test_resolve_local_path(tmp_path):
    ds = gen_synthetic("linsep", 12, 0.1, seed=5)
    p = tmp_path / "local.csv"
    save_csv(ds, p)
    got = resolve_dataset(str(p), tmp_path, 0)
    assert got.rows == 12 and got.n_features == 2


def test_resolve_falls_back_to_pmlb(tmp_path, monkeypatch):
    def refuse(*a, **k):
        raise ConnectionRefusedError("no route")
    monkeypatch.setattr(softgp.data, "_http_get", refuse)
    with pytest.raises(DataError, match="network failure"):
        resolve_dataset("definitely_not_a_local_file", tmp_path, 0)


# --- run_benchmark ------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return run_benchmark(["synth:linsep:40", "synth:circles:40"],
                         [Algo.GP, Algo.SGP], runs=2, ratio=0.7,
                         cfg=TINY, master_seed=11, cache_dir=cache)


def test_benchmark_covers_the_grid(small_grid):
    results, failures = small_grid
    assert failures == []
    assert len(results) == 2 * 2 * 2
    cells = {(r.dataset, r.run, r.algo) for r in results}
    assert len(cells) == 8


def test_benchmark_results_are_sorted(small_grid):
    results, _ = small_grid
    keys = [(r.dataset, r.run, r.algo.value) for r in results]
    assert keys == sorted(keys)


@pytest.mark.parametrize("ratio", [1.5, 1.0, 0.0, float("nan")])
def test_benchmark_refuses_a_bad_ratio_before_resolving_a_dataset(monkeypatch, tmp_path, ratio):
    resolved = []
    monkeypatch.setattr(softgp.bench, "resolve_dataset", lambda *a: resolved.append(a))
    with pytest.raises(DataError, match="split ratio"):
        run_benchmark(["synth:moons:60"], [Algo.GP], runs=1, ratio=ratio, cfg=TINY,
                      master_seed=0, cache_dir=tmp_path)
    assert resolved == []


@pytest.mark.parametrize("datasets, algos, message", [
    (["synth:moons:60", "synth:linsep:40", "synth:moons:60"], [Algo.GP],
     "dataset 'synth:moons:60' is named twice"),
    (["synth:moons:60"], [Algo.GP, Algo.SGP, Algo.GP], "algorithm 'gp' is named twice"),
], ids=["dataset", "algo"])
def test_benchmark_refuses_a_repeat_before_resolving_a_dataset(monkeypatch, tmp_path,
                                                               datasets, algos, message):
    # a repeat would run its cells again under the same run seeds
    resolved = []
    monkeypatch.setattr(softgp.bench, "resolve_dataset", lambda *a: resolved.append(a))
    with pytest.raises(DataError, match=message):
        run_benchmark(datasets, algos, runs=1, ratio=0.7, cfg=TINY, master_seed=0,
                      cache_dir=tmp_path)
    assert resolved == []


def test_benchmark_uses_per_cell_seeds(small_grid):
    results, _ = small_grid
    for r in results:
        assert r.seed == seed_oracle(11, r.dataset, r.run)
        assert 0.0 <= r.balanced_accuracy <= 1.0
        assert r.train_seconds >= 0.0


def test_benchmark_records_resolve_failures(tmp_path, monkeypatch):
    def refuse(*a, **k):
        raise ConnectionRefusedError("no route")
    monkeypatch.setattr(softgp.data, "_http_get", refuse)
    results, failures = run_benchmark(["synth:linsep:30", "absent_ds"],
                                      [Algo.GP], runs=1, ratio=0.7,
                                      cfg=TINY, master_seed=0, cache_dir=tmp_path)
    assert len(results) == 1 and results[0].dataset == "synth:linsep:30"
    assert len(failures) == 1
    assert failures[0][0] == "absent_ds"
    assert "network failure" in failures[0][1]


def test_benchmark_records_per_run_failures(tmp_path):
    # one positive row: every shuffle leaves a single-class split
    ds = Dataset("t", ["x0"], np.arange(4, dtype=float).reshape(4, 1),
                 np.array([0, 0, 0, 1]))
    p = tmp_path / "lopsided.csv"
    save_csv(ds, p)
    results, failures = run_benchmark([str(p)], [Algo.GP], runs=2, ratio=0.5,
                                      cfg=TINY, master_seed=0, cache_dir=tmp_path)
    assert results == []
    assert [f[0] for f in failures] == [str(p), str(p)]
    assert failures[0][1].startswith("run 1:")
    assert failures[1][1].startswith("run 2:")


def test_benchmark_records_a_corrupt_gzip_file_and_scores_the_rest(tmp_path, corrupt_gzip):
    bad = tmp_path / "bad.csv.gz"
    bad.write_bytes(corrupt_gzip)
    results, failures = run_benchmark([str(bad), "synth:moons:60"], [Algo.GP], runs=1,
                                      ratio=0.7, cfg=TINY, master_seed=0, cache_dir=tmp_path)
    assert [r.dataset for r in results] == ["synth:moons:60"]
    assert len(failures) == 1 and failures[0][0] == str(bad)
    assert failures[0][1].startswith(f"cannot read {bad}: ")


def test_benchmark_log_callback(tmp_path):
    lines = []
    run_benchmark(["synth:linsep:30"], [Algo.SGP], runs=1, ratio=0.7,
                  cfg=TINY, master_seed=0, cache_dir=tmp_path, log=lines.append)
    assert len(lines) == 1
    assert "synth:linsep:30 run 1 sgp" in lines[0]


# --- results files ------------------------------------------------------------------

def sample_results():
    return [
        BenchResult("a", 1, Algo.GP, 0.8, 1.2345, 42),
        BenchResult("a", 1, Algo.SGP, 0.9, 2.5, 42),
        BenchResult("a", 2, Algo.GP, 1.0, 0.5, 43),
        BenchResult("b", 1, Algo.GP, 0.75, 0.25, 44),
    ]


def test_results_csv_round_trip(tmp_path):
    p = tmp_path / "results.csv"
    write_results_csv(sample_results(), p)
    back = read_results_csv(p)
    for orig, got in zip(sample_results(), back):
        assert (got.dataset, got.run, got.algo, got.seed) == \
            (orig.dataset, orig.run, orig.algo, orig.seed)
        assert got.balanced_accuracy == orig.balanced_accuracy  # repr round-trip
        assert got.train_seconds == pytest.approx(orig.train_seconds, abs=5e-4)


def test_read_results_rejects_other_files(tmp_path):
    p = tmp_path / "other.csv"
    p.write_text("x,y\n1,2\n")
    with pytest.raises(DataError, match="bad header"):
        read_results_csv(p)


_HEADER = ",".join(RESULTS_HEADER) + "\n"


@pytest.mark.parametrize("rows, message", [
    ("a,1,gp,nan,0.5,42\n", "balanced accuracy outside"),
    ("a,1,gp,7.5,0.5,42\n", "balanced accuracy outside"),
    ("a,1,gp,-0.1,0.5,42\n", "balanced accuracy outside"),
    ("a,1,gp,0.8,-inf,42\n", "train seconds not finite"),
    ("a,1,gp,0.8,inf,42\n", "train seconds not finite"),
    ("a,1,gp,0.8,nan,42\n", "train seconds not finite"),
    ("a,1,gp,0.8,-0.5,42\n", "train seconds not finite"),
    ("a,0,gp,0.8,0.5,42\n", "run below 1"),
    ("a,1,gp,0.8,0.5,-3\n", "negative seed"),
    ("a,1,gp,0.8,0.5\n", "5 cells, want 6"),
    ("a,1,gp,0.8,0.5,42,extra\n", "7 cells, want 6"),
    ("a,1,gp,0.8,0.5,42\na,2,gp,0.9,0.5,43\na,1,gp,0.7,0.5,42\n",
     "a second row for a run 1 gp"),
], ids=["bacc-nan", "bacc-above-1", "bacc-below-0", "seconds-minus-inf", "seconds-inf",
        "seconds-nan", "seconds-negative", "run-0", "negative-seed", "short-row",
        "long-row", "repeated-cell"])
def test_read_results_refuses_a_row_no_benchmark_writes(tmp_path, rows, message):
    p = tmp_path / "results.csv"
    p.write_text(_HEADER + rows)
    with pytest.raises(DataError, match=message):
        read_results_csv(p)


def test_read_results_accepts_the_range_ends(tmp_path):
    p = tmp_path / "results.csv"
    p.write_text(_HEADER + "a,1,gp,0.0,0.0,0\na,1,sgp,1.0,0.0,0\n")
    assert [(r.balanced_accuracy, r.seed) for r in read_results_csv(p)] == [(0.0, 0), (1.0, 0)]


def test_summarize_means_and_sample_stddev():
    results = [BenchResult("d", i, Algo.GP, ba, 0.0, i)
               for i, ba in enumerate([0.8, 0.9, 1.0], start=1)]
    results.append(BenchResult("d", 1, Algo.SGP, 0.7, 0.0, 1))
    stats = summarize(results)
    mean, std, n = stats[("d", "gp")]
    assert mean == pytest.approx(0.9)
    assert std == pytest.approx(0.1)  # ddof=1 over {0.8, 0.9, 1.0}
    assert n == 3
    assert stats[("d", "sgp")] == (pytest.approx(0.7), 0.0, 1)


def test_summary_md_ranks_within_columns(tmp_path):
    p = tmp_path / "summary.md"
    write_summary_md(sample_results(), p, failures=[("c", "boom")])
    text = p.read_text()
    assert "| 0.9000 (1) |" in text  # dataset a, sgp column
    assert "0.7500 (2)" in text  # dataset b ranks second under gp
    assert "-" in text  # dataset b has no sgp cell
    assert "## Failures" in text and "- c: boom" in text


def test_summary_md_gives_each_cell_its_run_count_when_counts_differ(tmp_path):
    p = tmp_path / "summary.md"
    results = [BenchResult("d", i, Algo.GP, 0.8, 0.0, i) for i in (1, 2, 3)]
    results.append(BenchResult("d", 1, Algo.SGP, 0.7, 0.0, 1))
    write_summary_md(results, p)
    text = p.read_text()
    assert "over 3 runs" not in text and "over 1 runs" not in text
    assert "| 0.8000 (1) | 0.7000 (1) |" in text
    assert "## Runs\n\n| dataset | gp | sgp |\n|---|---|---|\n| d | 3 | 1 |\n" in text
    write_summary_md(results[:2] + [BenchResult("d", 2, Algo.SGP, 0.7, 0.0, 2)] + results[3:], p)
    text = p.read_text()
    assert "Mean balanced accuracy over 2 runs;" in text and "## Runs" not in text


def test_emit_bench_files(tmp_path):
    out = tmp_path / "bench_out"
    emit_bench_files(sample_results(), [], out)
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "summary.md").exists()
    assert not (out / "failures.csv").exists()
    emit_bench_files(sample_results(), [("c", "boom")], out)
    assert (out / "failures.csv").exists()


# --- decision boundaries ------------------------------------------------------------

def le_model():
    # activation 1.0 where x0 <= x1, else 0.0
    return ExprTree(Variant.SOFT, op(OpKind.NOT,
                                     op(OpKind.GT, symbol(0), symbol(1), weight=1.0),
                                     weight=1.0))


def test_boundary_grid_is_row_major_over_y_then_x():
    grid = boundary_grid(le_model(), 3, (-1.0, 1.0), (-1.0, 1.0))
    assert grid.activations.shape == (9,)
    xs = ys = [-1.0, 0.0, 1.0]
    expect = [eval_batch(le_model(), np.array([[x, y]]))[0] for y in ys for x in xs]
    assert grid.activations.tolist() == expect


def test_boundary_grid_matches_eval_at_corners():
    grid = boundary_grid(le_model(), 5, (0.0, 4.0), (-2.0, 2.0))
    assert grid.activations[0] == 0.0  # (0, -2): x0 > x1
    assert grid.activations[4] == 0.0  # (4, -2)
    assert grid.activations[20] == 1.0  # (0, 2): x0 <= x1
    assert grid.x_range == (0.0, 4.0) and grid.y_range == (-2.0, 2.0)


def test_boundary_grid_resolution_bound():
    with pytest.raises(ValueError, match="resolution"):
        boundary_grid(le_model(), 1, (0.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("x_range, y_range", [((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0), (0.0, 1.0)),
                                              ((0.0, 1.0), (0.5, -0.5)), ((0.0, 1.0), (2.0, 2.0))])
def test_boundary_grid_refuses_a_reversed_or_empty_range(x_range, y_range):
    with pytest.raises(DataError, match="low to high"):
        boundary_grid(le_model(), 3, x_range, y_range)


@pytest.mark.parametrize("x_range, y_range", [((-1e308, 1e308), (-1.0, 1.0)),
                                              ((-1.0, 1.0), (-1.7e308, 1.7e308))])
def test_boundary_grid_refuses_a_range_without_a_finite_width(x_range, y_range):
    # finite bounds whose difference overflows: linspace would fill the
    # lattice with inf and nan
    with np.errstate(all="raise"), pytest.raises(DataError, match="finite width"):
        boundary_grid(le_model(), 10, x_range, y_range)


def test_strict_border_fraction_counts_the_open_interval():
    acts = np.array([0.0, 0.005, 0.01, 0.5, 0.985, 0.99, 1.0])
    grid = BoundaryGrid(3, (0.0, 1.0), (0.0, 1.0), acts)
    assert strict_border_fraction(grid) == pytest.approx(2 / 7)


def test_hard_model_has_zero_border_fraction():
    tree = ExprTree(Variant.HARD, op(OpKind.NOT, op(OpKind.GT, symbol(0), symbol(1))))
    grid = boundary_grid(tree, 20, (-2.0, 2.0), (-2.0, 2.0))
    assert strict_border_fraction(grid) == 0.0


def test_write_boundary_csv(tmp_path):
    grid = boundary_grid(le_model(), 3, (-1.0, 1.0), (-1.0, 1.0))
    p = tmp_path / "boundary.csv"
    write_boundary_csv(grid, p)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "activation", "label"]
    assert len(rows) == 1 + 9
    first = rows[1]
    assert (float(first[0]), float(first[1])) == (-1.0, -1.0)
    for x, y, act, label in rows[1:]:
        assert int(label) == (1 if float(act) >= 0.5 else 0)


def test_write_boundary_csv_bytes_are_pinned(tmp_path):
    # the bytes csv.writer wrote for this grid, "\r\n" line ends included;
    # the activations include ties at exactly 0.5, labelled 1
    model = parse_tree("(OR 1.0 (NOT 0.5 (GT 1.0 x0 x1)) "
                       "(LT 0.8 (SIGM (ADD x0 0.3)) (MUL x1 x1)))", Variant.SOFT)
    grid = boundary_grid(model, 7, (-1.3, 2.1), (-0.7, 1.9))
    assert 0.5 in grid.activations
    p = tmp_path / "boundary.csv"
    write_boundary_csv(grid, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == \
        "a95e81604803dee03b64580705d6a7abd8c09dc7382e34aea4788ddd3bcbccb1"


def test_write_boundary_csv_labels_a_tie_positive(tmp_path):
    grid = BoundaryGrid(2, (0.0, 1.0), (0.0, 1.0), np.array([0.0, 0.5, 0.4999999999999999, 1.0]))
    p = tmp_path / "boundary.csv"
    write_boundary_csv(grid, p)
    with open(p, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [(float(act), int(label)) for _, _, act, label in rows[1:]] == \
        [(0.0, 0), (0.5, 1), (0.4999999999999999, 0), (1.0, 1)]
