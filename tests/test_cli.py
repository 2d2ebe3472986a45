import csv
import gzip
import hashlib
import os

import numpy as np
import pytest

import softgp.bench
import softgp.cli
import softgp.data
from softgp.cli import main
from softgp.data import load_table
from softgp.evolve import Algo, Classifier, EvolutionConfig, predict_batch
from softgp.sexpr import load_model, parse_model, save_model
from softgp.tree import THRESHOLD, ExprTree, OpKind, Variant, const, op, symbol


def run(argv):
    return main(argv)


def test_usage_errors_exit_1(capsys):
    for argv in (["synth"],  # missing required --kind
                 ["train", "--data", "x.csv"],  # missing --algo
                 ["nonsense"],
                 []):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_synth_writes_a_loadable_csv(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run(["synth", "--kind", "circles", "--n", "50", "--noise", "0.2",
                "--seed", "3", "--out", str(out)]) == 0
    ds = load_table(out)
    assert ds.rows == 50 and ds.n_features == 2
    assert "wrote 50 rows" in capsys.readouterr().out


def test_synth_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["synth", "--kind", "moons", "--n", "20"]) == 0
    assert (tmp_path / "moons.csv").exists()


def test_train_predict_round_trip(tmp_path, capsys):
    data = tmp_path / "lin.csv"
    model = tmp_path / "m.sgp"
    run(["synth", "--kind", "linsep", "--n", "60", "--out", str(data)])
    rc = run(["train", "--algo", "sgp", "--data", str(data), "--model-out",
              str(model), "--seed", "5", "--config", str(write_cfg(tmp_path))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trained sgp" in out and "balanced accuracy" in out

    tree, n_features = load_model(model)
    assert tree.variant is Variant.SOFT and n_features == 2

    preds = tmp_path / "p.csv"
    assert run(["predict", "--model", str(model), "--data", str(data),
                "--out", str(preds)]) == 0
    with open(preds, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label"]
    assert len(rows) == 61
    assert set(v for (v,) in rows[1:]) <= {"0", "1"}


def write_cfg(tmp_path):
    p = tmp_path / "evo.cfg"
    p.write_text("max_generation = 3\npopulation_size = 12\n")
    return p


def test_train_gp_default_model_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(["synth", "--kind", "linsep", "--n", "40", "--out", "d.csv"])
    assert run(["train", "--algo", "gp", "--data", "d.csv",
                "--config", str(write_cfg(tmp_path))]) == 0
    tree, _ = load_model(tmp_path / "model.gp")
    assert tree.variant is Variant.HARD


def gt_model():
    # activation [x0 > x1]; OR of the comparison with itself keeps the
    # boolean root that validate() requires
    cmp_node = op(OpKind.GT, symbol(0), symbol(1), weight=1.0)
    return ExprTree(Variant.SOFT, op(OpKind.OR, cmp_node, cmp_node, weight=1.0))


def test_predict_to_stdout(tmp_path, capsys):
    model = tmp_path / "m.sgp"
    save_model(model, gt_model(), 2)
    data = tmp_path / "d.csv"
    data.write_text("x0,x1\n2,1\n1,2\n")
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["label", "1", "0"]


def test_predict_csv_bytes_are_pinned(tmp_path, capsys):
    # the bytes csv.writer wrote for these labels: a "label" header, then a 0
    # or a 1 per row, every line ending in "\r\n"
    data = tmp_path / "moons.csv"
    run(["synth", "--kind", "moons", "--n", "200", "--noise", "0.3", "--seed", "11",
         "--out", str(data)])
    model = tmp_path / "m.sgp"
    save_model(model, gt_model(), 2)
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "b6b3118c3a4c8b5ee3019ae93625a1f80ed55317dfc6d8a6d0a9932bfb67672d"
    capsys.readouterr()
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 0
    assert capsys.readouterr().out == out.read_bytes().decode()


def test_predict_labels_an_activation_of_one_half_positive(tmp_path, capsys):
    # activation 0.5 * (1 - [x0 < 0]): exactly 0.5 wherever x0 >= 0
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                     op(OpKind.LT, symbol(0), const(0.0), weight=1.0),
                                     weight=0.5))
    model = tmp_path / "m.sgp"
    save_model(model, tree, 1)
    data = tmp_path / "d.csv"
    data.write_text("x0\n2\n0\n-2\n")
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 0
    labels = [int(v) for v in capsys.readouterr().out.splitlines()[1:]]
    cls = Classifier(Algo.SGP, tree, THRESHOLD, 1.0, 0, EvolutionConfig(), 1)
    expected = predict_batch(cls, np.array([[2.0], [0.0], [-2.0]])).tolist()
    assert labels == expected == [1, 1, 0]


def test_predict_ignores_a_target_column(tmp_path, capsys):
    model = tmp_path / "m.sgp"
    save_model(model, gt_model(), 2)
    data = tmp_path / "d.csv"
    data.write_text("x0,x1,target\n2,1,0\n1,2,1\n")
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 0
    assert capsys.readouterr().out.splitlines() == ["label", "1", "0"]


def test_predict_feature_count_mismatch_exits_2(tmp_path, capsys):
    model = tmp_path / "m.sgp"
    save_model(model, gt_model(), 2)
    data = tmp_path / "d.csv"
    data.write_text("x0\n1\n")
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 2
    assert "model expects 2" in capsys.readouterr().err


def test_predict_invalid_model_exits_2(tmp_path, capsys):
    model = tmp_path / "bad.sgp"
    # structurally invalid: comparison at the root
    model.write_text("#sgp-tree v1 variant=soft n_features=2\n"
                     "(GT 1.0 x0 x1)\n")
    parse_model(model.read_text())  # parses fine; load_model refuses it
    data = tmp_path / "d.csv"
    data.write_text("x0,x1\n1,2\n")
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 2
    assert "invalid model" in capsys.readouterr().err


def test_predict_deeply_nested_model_exits_2(tmp_path, capsys):
    model = tmp_path / "deep.sgp"
    model.write_text("#sgp-tree v1 variant=soft n_features=2\n"
                     + "(NOT 1.0 " * 5000 + "(GT 1.0 x0 x1)" + ")" * 5000 + "\n")
    data = tmp_path / "d.csv"
    data.write_text("x0,x1\n1,2\n")
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert "line 2, column " in err and "nested deeper than" in err


@pytest.mark.parametrize("body", ["(NOT 1.0 (GT 5.0 x0 x1))", "(NOT nan (GT 1.0 x0 x1))",
                                  "(NOT 1.0 (GT 1.0 x0 1_0))", "(NOT 1.0 (GT 1.0 x0 \u0663))"])
def test_predict_model_with_a_refused_real_exits_2(tmp_path, capsys, body):
    model = tmp_path / "m.sgp"
    model.write_text("#sgp-tree v1 variant=soft n_features=2\n" + body + "\n", encoding="utf-8")
    data = tmp_path / "d.csv"
    data.write_text("x0,x1\n1,2\n")
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 2
    assert "line 2, column " in capsys.readouterr().err


_UNDECODABLE_MODEL = b"#sgp-tree v1 variant=soft n_features=2\n(GT 0.5 x0 \xff)\n"


def test_predict_undecodable_model_exits_2(tmp_path, capsys):
    model = tmp_path / "m.sgp"
    model.write_bytes(_UNDECODABLE_MODEL)
    data = tmp_path / "d.csv"
    data.write_text("x0,x1\n1,2\n")
    assert run(["predict", "--model", str(model), "--data", str(data)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "softgp predict: error: line 2, column 12: cannot decode byte 0xff as UTF-8"]


def test_boundary_undecodable_model_exits_2(tmp_path, capsys):
    model = tmp_path / "m.sgp"
    model.write_bytes(_UNDECODABLE_MODEL)
    out = tmp_path / "b.csv"
    assert run(["boundary", "--model", str(model), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "softgp boundary: error: line 2, column 12: cannot decode byte 0xff as UTF-8"]
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_train_on_non_finite_cells_exits_2(tmp_path, capsys, cell):
    data = tmp_path / "d.csv"
    data.write_text(f"x0,x1,target\n1,2,0\n{cell},1,1\n3,4,1\n")
    assert run(["train", "--algo", "sgp", "--data", str(data),
                "--config", str(write_cfg(tmp_path))]) == 2
    assert "line 3, column 'x0': non-finite value" in capsys.readouterr().err


def test_missing_files_exit_2(tmp_path, capsys):
    assert run(["train", "--algo", "gp", "--data", str(tmp_path / "no.csv")]) == 2
    assert run(["predict", "--model", str(tmp_path / "no.sgp"),
                "--data", str(tmp_path / "no.csv")]) == 2
    err = capsys.readouterr().err
    assert "softgp train: error:" in err
    assert "softgp predict: error:" in err


def test_negative_seed_exits_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["synth", "--kind", "linsep", "--n", "40", "--out", str(data)])
    assert run(["train", "--algo", "gp", "--data", str(data),
                "--seed", "-1", "--config", str(write_cfg(tmp_path))]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_fetch_uses_cache_and_reports(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    with gzip.open(cache / "demo.tsv.gz", "wt") as fh:
        fh.write("x0\ttarget\n0.5\t1\n1.5\t0\n")
    assert run(["fetch", "demo", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "demo: 2 rows, 1 features" in out


def test_fetch_refuses_a_path_as_a_name(tmp_path, monkeypatch, capsys):
    def refuse(*a, **k):
        raise AssertionError("network touched")
    monkeypatch.setattr(softgp.data, "_http_get", refuse)
    cache = tmp_path / "cache"
    assert run(["fetch", "../x", "--cache", str(cache)]) == 2
    assert "bad PMLB dataset name '../x'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fetch_network_failure_exits_2(tmp_path, monkeypatch, capsys):
    def refuse(*a, **k):
        raise ConnectionRefusedError("no route")
    monkeypatch.setattr(softgp.data, "_http_get", refuse)
    assert run(["fetch", "nosuch", "--cache", str(tmp_path)]) == 2
    assert "network failure" in capsys.readouterr().err


def test_bench_on_synthetics(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = run(["bench", "synth:linsep:40", "--algos", "gp,sgp", "--runs", "2",
              "--out", str(out), "--cache", str(tmp_path / "cache"),
              "--config", str(write_cfg(tmp_path))])
    assert rc == 0
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "summary.md").exists()
    captured = capsys.readouterr().out
    assert "wrote 4 result rows" in captured
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 2 runs x 2 algos


def test_bench_partial_failure_exits_3(tmp_path, monkeypatch, capsys):
    def refuse(*a, **k):
        raise ConnectionRefusedError("no route")
    monkeypatch.setattr(softgp.data, "_http_get", refuse)
    out = tmp_path / "bench"
    rc = run(["bench", "synth:linsep:40", "unfetchable", "--algos", "gp",
              "--runs", "1", "--out", str(out), "--cache", str(tmp_path / "cache"),
              "--config", str(write_cfg(tmp_path))])
    assert rc == 3
    assert (out / "failures.csv").exists()
    assert "FAILED unfetchable" in capsys.readouterr().err


def test_bench_total_failure_exits_2(tmp_path, monkeypatch, capsys):
    def refuse(*a, **k):
        raise ConnectionRefusedError("no route")
    monkeypatch.setattr(softgp.data, "_http_get", refuse)
    rc = run(["bench", "unfetchable", "--algos", "gp", "--runs", "1",
              "--out", str(tmp_path / "bench"), "--cache", str(tmp_path / "cache")])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_bench_without_runs_exits_2_and_writes_nothing(tmp_path, capsys, runs):
    out = tmp_path / "bench"
    rc = run(["bench", "synth:moons", "--runs", runs, "--out", str(out),
              "--cache", str(tmp_path / "cache")])
    assert rc == 2
    assert "at least one run" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["1.5", "1", "0", "-0.3", "nan"])
def test_bench_bad_ratio_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, ratio):
    resolved = []
    monkeypatch.setattr(softgp.bench, "resolve_dataset", lambda *a: resolved.append(a))
    out = tmp_path / "bench"
    rc = run(["bench", "synth:moons:60", "--ratio", ratio, "--algos", "gp", "--runs", "1",
              "--out", str(out), "--cache", str(tmp_path / "cache")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "split ratio must be in (0,1)" in err and len(err.strip().splitlines()) == 1
    assert not out.exists() and resolved == []


def test_bench_bad_algos_exits_2(tmp_path, capsys):
    rc = run(["bench", "synth:linsep:40", "--algos", "gradient_boosting",
              "--out", str(tmp_path / "b"), "--cache", str(tmp_path / "c")])
    assert rc == 2
    assert "bad --algos" in capsys.readouterr().err


def test_boundary_prints_the_strict_border_fraction(tmp_path, capsys):
    model = tmp_path / "m.sgp"
    tree = ExprTree(Variant.SOFT,
                    op(OpKind.NOT, op(OpKind.GT, symbol(0), symbol(1), weight=1.0),
                       weight=0.7))
    save_model(model, tree, 2)
    out = tmp_path / "b.csv"
    assert run(["boundary", "--model", str(model), "--resolution", "10",
                "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    line = next(l for l in printed.splitlines() if "strict-border fraction" in l)
    frac = float(line.rsplit(":", 1)[1])
    # activations are 0.0 or 0.7, so every 0.7 cell is strictly inside (0.01, 0.99)
    assert 0.0 < frac < 1.0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 100


def test_boundary_requires_two_features(tmp_path, capsys):
    model = tmp_path / "m.sgp"
    gt = op(OpKind.GT, symbol(0), const(0.0), weight=1.0)
    save_model(model, ExprTree(Variant.SOFT, op(OpKind.NOT, gt, weight=1.0)), 3)
    assert run(["boundary", "--model", str(model)]) == 2
    assert "2-feature" in capsys.readouterr().err


@pytest.mark.parametrize("body", ["(GT 1.0 x7 0.5)",
                                  "(NOT 1.0 (GT 1.0 x7 0.5))",
                                  "(ADD x0 x1)"])
def test_boundary_invalid_model_exits_2(tmp_path, capsys, body):
    model = tmp_path / "bad.sgp"
    model.write_text("#sgp-tree v1 variant=soft n_features=2\n" + body + "\n")
    out = tmp_path / "b.csv"
    assert run(["boundary", "--model", str(model), "--out", str(out)]) == 2
    assert "invalid model" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--resolution", "1"], ["--resolution=-3"],
                                   ["--xmin", "nan"], ["--xmax", "inf"],
                                   ["--ymin=-inf"], ["--ymax", "nan"],
                                   ["--resolution", "2001"],
                                   # finite bounds, but a width past the largest float
                                   ["--xmin=-1e308", "--xmax=1e308"],
                                   ["--ymin=-1.7e308", "--ymax=1.7e308"]])
def test_boundary_bad_grid_exits_2(tmp_path, capsys, flags):
    model = tmp_path / "m.sgp"
    save_model(model, ExprTree(Variant.SOFT,
                               op(OpKind.NOT, op(OpKind.GT, symbol(0), symbol(1), weight=1.0),
                                  weight=0.7)), 2)
    out = tmp_path / "b.csv"
    assert run(["boundary", "--model", str(model), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "softgp boundary: error:" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--xmin", "1", "--xmax", "0"], ["--xmin", "1", "--xmax", "1"],
                                   ["--ymin", "0.5", "--ymax=-0.5"],
                                   ["--ymin", "0.25", "--ymax", "0.25"]])
def test_boundary_reversed_or_empty_range_exits_2(tmp_path, capsys, flags):
    model = tmp_path / "m.sgp"
    save_model(model, ExprTree(Variant.SOFT,
                               op(OpKind.NOT, op(OpKind.GT, symbol(0), symbol(1), weight=1.0),
                                  weight=0.7)), 2)
    out = tmp_path / "b.csv"
    assert run(["boundary", "--model", str(model), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "softgp boundary: error: grid ranges must run from low to high" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


_NOT_UTF8_CONFIG = b"\xff\xfe seed = 3\n"
_RESULTS_HEADER = b"dataset,run,algo,balanced_accuracy,train_seconds,seed\n"
# one cell past the csv module's field size limit
_LONG_CELL = b"9" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("argv, bad, message", [
    (["train", "--algo", "gp", "--data", "{data}", "--config", "{bad}", "--model-out", "{out}"],
     _NOT_UTF8_CONFIG, "cannot read config"),
    (["bench", "synth:linsep:40", "--runs", "1", "--config", "{bad}", "--out", "{out}"],
     _NOT_UTF8_CONFIG, "cannot read config"),
    (["report", "--results", "{bad}", "--out", "{out}"], b"\xff" + _RESULTS_HEADER,
     "can't decode byte 0xff"),
    (["report", "--results", "{bad}", "--out", "{out}"],
     _RESULTS_HEADER + b"linsep,1,gp,0.5,0.1,7\nlinsep,2,gp,0.5,0.1,\xff\n",
     "can't decode byte 0xff"),
    (["report", "--results", "{bad}", "--out", "{out}"],
     _RESULTS_HEADER + b"linsep,1,gp,0.5,0.1," + _LONG_CELL,
     "line 2: field larger than field limit"),
    (["train", "--algo", "gp", "--data", "{bad}", "--model-out", "{out}"],
     b"x0,x1,target\n1,2,0\n3," + _LONG_CELL, "line 3: field larger than field limit"),
    (["predict", "--model", "{model}", "--data", "{bad}", "--out", "{out}"],
     b"x0,x1\n" + _LONG_CELL + b",1\n", "line 2: field larger than field limit"),
], ids=["train-config", "bench-config", "report-header-byte", "report-row-byte",
        "report-long-cell", "train-data-long-cell", "predict-data-long-cell"])
def test_an_unreadable_file_exits_2_with_one_error_line(tmp_path, capsys, argv, bad, message):
    # a config, results or data file the UTF-8 decoder or the csv module
    # refuses is a data error, not a crash
    paths = {name: tmp_path / name for name in ("bad", "data", "model", "out")}
    paths["bad"].write_bytes(bad)
    paths["data"].write_text("x0,x1,target\n1,2,0\n2,1,1\n")
    save_model(paths["model"], gt_model(), 2)
    assert run([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"softgp {argv[0]}: error: ") and message in err
    assert str(paths["bad"]) in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not paths["out"].exists()


def test_bench_records_an_unreadable_data_file_as_a_failure(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x0,x1,target\n1," + _LONG_CELL + b",0\n")
    assert run(["bench", str(bad), "--algos", "gp", "--runs", "1",
                "--out", str(tmp_path / "bench"), "--cache", str(tmp_path / "cache")]) == 2
    err = capsys.readouterr().err
    assert f"FAILED {bad}: cannot read {bad} line 2: field larger than field limit" in err
    assert "Traceback" not in err


def test_bench_records_features_of_no_finite_span_as_a_failure(tmp_path, capsys):
    # x0 spans [-1.7e308, 1.7e308], a width past FLOAT_MAX: constants cannot
    # be drawn over it, so its cells fail and the other dataset's stand
    wide = tmp_path / "wide.csv"
    wide.write_text("x0,x1,target\n" + "".join(
        f"{sign}1.7e308,{i},{i // 2 % 2}\n" for i, sign in enumerate("+-" * 6)))
    out = tmp_path / "bench"
    assert run(["bench", "synth:moons:60", str(wide), "--algos", "gp", "--runs", "1",
                "--out", str(out), "--cache", str(tmp_path / "cache"),
                "--config", str(write_cfg(tmp_path))]) == 3
    err = capsys.readouterr().err
    assert f"FAILED {wide}: run 1: feature values span" in err
    assert "Traceback" not in err
    assert (out / "results.csv").exists() and (out / "failures.csv").exists()


def test_bench_refuses_an_output_path_that_is_a_file_before_the_grid(tmp_path, capsys,
                                                                        monkeypatch):
    monkeypatch.setattr(softgp.cli, "run_benchmark",
                        lambda *a, **k: pytest.fail("the grid ran"))
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert run(["bench", "synth:linsep:40", "--algos", "gp", "--runs", "1",
                "--out", str(out), "--cache", str(tmp_path / "cache")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("softgp bench: error: ") and "File exists" in err
    assert out.read_text() == "kept\n"


def test_train_refuses_a_model_path_in_a_missing_directory_before_the_fit(tmp_path, capsys,
                                                                          monkeypatch):
    data = tmp_path / "d.csv"
    run(["synth", "--kind", "linsep", "--n", "40", "--out", str(data)])
    monkeypatch.setattr(softgp.cli, "fit", lambda *a, **k: pytest.fail("the fit ran"))
    model = tmp_path / "nodir" / "m.sgp"
    assert run(["train", "--algo", "gp", "--data", str(data), "--model-out", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("softgp train: error: ") and str(model) in err
    assert not model.parent.exists()


def test_train_refuses_a_model_path_that_is_a_directory_before_the_fit(tmp_path, capsys,
                                                                       monkeypatch):
    data = tmp_path / "d.csv"
    run(["synth", "--kind", "linsep", "--n", "40", "--out", str(data)])
    monkeypatch.setattr(softgp.cli, "fit", lambda *a, **k: pytest.fail("the fit ran"))
    model = tmp_path / "adir"
    model.mkdir()
    assert run(["train", "--algo", "gp", "--data", str(data), "--model-out", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("softgp train: error: ") and "is a directory" in err
    assert list(model.iterdir()) == []


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_synth_non_finite_noise_exits_2(tmp_path, capsys, noise):
    out = tmp_path / "s.csv"
    assert run(["synth", "--kind", "moons", "--noise", noise, "--out", str(out)]) == 2
    assert "noise" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--kind", "moons", "--seed", "-1", "--out", "{out}"],
     "seed must be nonnegative, got -1"),
    (["synth", "--kind", "moons", "--noise", "1e308", "--out", "{out}"],
     "noise 1e+308 makes non-finite moons points"),
    (["train", "--algo", "gp", "--data", "{data}", "--delimiter", "\\t", "--model-out", "{out}"],
     "delimiter must be one character, got '\\\\t'"),
    (["train", "--algo", "gp", "--data", "{data}", "--delimiter", "", "--model-out", "{out}"],
     "delimiter must be one character, got ''"),
    (["predict", "--model", "{model}", "--data", "{data}", "--delimiter", "ab", "--out", "{out}"],
     "delimiter must be one character, got 'ab'"),
    (["train", "--algo", "gp", "--data", "{gz}", "--model-out", "{out}"],
     "cannot read {gz}: Error -3 while decompressing data"),
    (["fetch", "haberman", "--cache", "{cache}"],
     "cannot read {cache}/haberman.tsv.gz: Error -3 while decompressing data"),
], ids=["synth-negative-seed", "synth-infinite-points", "train-backslash-t-delimiter",
        "train-empty-delimiter", "predict-two-character-delimiter", "train-corrupt-gzip",
        "fetch-corrupt-gzip-cache"])
def test_a_bad_input_exits_2_with_one_error_line(tmp_path, capsys, corrupt_gzip, argv, message):
    paths = {name: tmp_path / name for name in ("data", "model", "out", "cache")}
    paths["gz"] = tmp_path / "bad.csv.gz"
    paths["data"].write_text("x0,x1,target\n1,2,0\n2,1,1\n")
    save_model(paths["model"], gt_model(), 2)
    paths["gz"].write_bytes(corrupt_gzip)
    paths["cache"].mkdir()
    (paths["cache"] / "haberman.tsv.gz").write_bytes(corrupt_gzip)
    assert run([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"softgp {argv[0]}: error: {message.format(**paths)}")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not paths["out"].exists()


def test_bench_records_a_corrupt_gzip_file_as_a_failure(tmp_path, capsys, corrupt_gzip):
    bad = tmp_path / "bad.csv.gz"
    bad.write_bytes(corrupt_gzip)
    out = tmp_path / "bench"
    assert run(["bench", str(bad), "synth:moons:60", "--algos", "gp", "--runs", "1",
                "--out", str(out), "--cache", str(tmp_path / "cache"),
                "--config", str(write_cfg(tmp_path))]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"FAILED {bad}: cannot read {bad}: Error -3 while decompressing")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    with open(out / "results.csv", newline="") as fh:
        assert [row[0] for row in csv.reader(fh)][1:] == ["synth:moons:60"]


def test_report_re_renders_summaries(tmp_path, capsys):
    out = tmp_path / "bench"
    run(["bench", "synth:linsep:40", "--algos", "gp", "--runs", "1",
         "--out", str(out), "--cache", str(tmp_path / "cache"),
         "--config", str(write_cfg(tmp_path))])
    (out / "summary.csv").unlink()
    (out / "summary.md").unlink()
    assert run(["report", "--results", str(out)]) == 0
    assert (out / "summary.csv").exists() and (out / "summary.md").exists()
    capsys.readouterr()


def test_report_on_a_results_file_path(tmp_path, capsys):
    out = tmp_path / "bench"
    run(["bench", "synth:linsep:40", "--algos", "gp", "--runs", "1",
         "--out", str(out), "--cache", str(tmp_path / "cache"),
         "--config", str(write_cfg(tmp_path))])
    other = tmp_path / "rendered"
    assert run(["report", "--results", str(out / "results.csv"),
                "--out", str(other)]) == 0
    assert (other / "summary.md").exists()
    capsys.readouterr()


def test_report_on_a_non_results_file_exits_2(tmp_path, capsys):
    p = tmp_path / "junk.csv"
    p.write_text("a,b\n1,2\n")
    assert run(["report", "--results", str(p)]) == 2
    assert "bad header" in capsys.readouterr().err


def test_report_without_results_writes_no_table(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("dataset,run,algo,balanced_accuracy,train_seconds,seed\n")
    assert run(["report", "--results", str(results)]) == 0
    assert (tmp_path / "summary.md").read_text() == "# Benchmark summary\n\nNo results.\n"
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1
    capsys.readouterr()
