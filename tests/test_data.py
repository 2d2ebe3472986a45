import gzip
import hashlib
import math
import threading
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

import softgp.data
from softgp.data import (
    DataError,
    Dataset,
    fetch_pmlb,
    gen_synthetic,
    load_table,
    read_matrix,
    save_csv,
    shuffle_split,
)


def write(path, text):
    path.write_text(text)
    return path


# --- read_matrix / load_table -------------------------------------------------------

def test_read_matrix_csv(tmp_path):
    p = write(tmp_path / "t.csv", "a,b,target\n1,2.5,0\n3,-4,1\n")
    cols, m, raw = read_matrix(p)
    assert cols == ["a", "b", "target"]
    assert raw is None
    assert m.tolist() == [[1.0, 2.5, 0.0], [3.0, -4.0, 1.0]]


def test_read_matrix_splits_off_the_drop_column(tmp_path):
    p = write(tmp_path / "t.csv", "a,b,target\n1,2.5,0\n3,-4,1\n")
    cols, m, raw = read_matrix(p, drop_column="b")
    assert cols == ["a", "target"]
    assert m.tolist() == [[1.0, 0.0], [3.0, 1.0]]
    assert raw.tolist() == [2.5, -4.0]


def test_read_matrix_sniffs_tab_delimiter(tmp_path):
    p = write(tmp_path / "t.tsv", "a\tb\ttarget\n1\t2\t0\n")
    cols, m, raw = read_matrix(p)
    assert cols == ["a", "b", "target"]
    assert m.tolist() == [[1.0, 2.0, 0.0]]


def test_read_matrix_reads_gzip(tmp_path):
    p = tmp_path / "t.tsv.gz"
    with gzip.open(p, "wt") as fh:
        fh.write("x0\ttarget\n0.5\t1\n1.5\t0\n")
    cols, m, raw = read_matrix(p)
    assert cols == ["x0", "target"]
    assert m.shape == (2, 2)


def test_read_matrix_reports_cell_position(tmp_path):
    p = write(tmp_path / "t.csv", "a,target\n1,0\nok,1\n")
    with pytest.raises(DataError, match="line 3, column 'a': non-numeric value"):
        read_matrix(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize("column", ["a", "target"])
def test_read_matrix_rejects_non_finite_cells(tmp_path, cell, column):
    row = f"{cell},1" if column == "a" else f"1,{cell}"
    p = write(tmp_path / "t.csv", f"a,target\n1,0\n{row}\n")
    with pytest.raises(DataError, match=f"line 3, column '{column}': non-finite value"):
        read_matrix(p, drop_column="target")


def test_read_matrix_rejects_ragged_rows(tmp_path):
    p = write(tmp_path / "t.csv", "a,target\n1,0,5\n")
    with pytest.raises(DataError, match="expected 2 cells, got 3"):
        read_matrix(p)


def test_read_matrix_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot open"):
        read_matrix(tmp_path / "absent.csv")


def test_read_matrix_rejects_binary_junk(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"\x1f\x8b\x00broken")
    with pytest.raises(DataError):
        read_matrix(p)


def test_read_matrix_maps_a_corrupt_deflate_stream_to_a_data_error(tmp_path, corrupt_gzip):
    p = tmp_path / "t.csv.gz"
    p.write_bytes(corrupt_gzip)
    with pytest.raises(DataError, match="cannot read") as exc:
        read_matrix(p)
    assert isinstance(exc.value.__cause__, zlib.error)


@pytest.mark.parametrize("delimiter", ["ab", "\\t", ""])
def test_load_table_refuses_a_delimiter_that_is_not_one_character(tmp_path, delimiter):
    # refused before the file is opened, so a missing file is not reached
    with pytest.raises(DataError, match="delimiter must be one character"):
        load_table(tmp_path / "absent.csv", delimiter=delimiter)


def test_load_table_maps_larger_label_to_one(tmp_path):
    p = write(tmp_path / "t.csv", "a,target\n0,1\n1,2\n2,1\n")
    ds = load_table(p)
    assert ds.y.tolist() == [0, 1, 0]
    assert ds.columns == ["a"]
    assert ds.x.tolist() == [[0.0], [1.0], [2.0]]


def test_load_table_handles_negative_labels(tmp_path):
    p = write(tmp_path / "t.csv", "a,target\n0,-1\n1,1\n")
    ds = load_table(p)
    assert ds.y.tolist() == [0, 1]


def test_load_table_keeps_zero_one(tmp_path):
    p = write(tmp_path / "t.csv", "a,target\n5,0\n6,1\n")
    ds = load_table(p)
    assert ds.y.tolist() == [0, 1]
    assert ds.name == "t"
    assert ds.rows == 2 and ds.n_features == 1


def test_load_table_honours_a_custom_target_column(tmp_path):
    p = write(tmp_path / "t.csv", "label,a\n1,5\n0,6\n")
    ds = load_table(p, target_column="label")
    assert ds.columns == ["a"]
    assert ds.y.tolist() == [1, 0]


def test_load_table_requires_the_target_column(tmp_path):
    p = write(tmp_path / "t.csv", "a,b\n1,2\n")
    with pytest.raises(DataError, match="target column 'target' not found"):
        load_table(p)


def test_load_table_requires_binary_labels(tmp_path):
    p = write(tmp_path / "t.csv", "a,target\n1,0\n2,1\n3,2\n")
    with pytest.raises(DataError, match="not binary"):
        load_table(p)
    q = write(tmp_path / "u.csv", "a,target\n1,1\n2,1\n")
    with pytest.raises(DataError, match="not binary"):
        load_table(q)


# --- fetch_pmlb ---------------------------------------------------------------------

def test_fetch_pmlb_uses_a_warm_cache(tmp_path):
    cache = tmp_path / "pmlb"
    cache.mkdir()
    with gzip.open(cache / "demo.tsv.gz", "wt") as fh:
        fh.write("x0\tx1\ttarget\n0.1\t0.2\t0\n0.3\t0.4\t1\n")
    ds = fetch_pmlb("demo", cache)  # must not touch the network
    assert ds.name == "demo"
    assert ds.rows == 2 and ds.n_features == 2


def test_fetch_pmlb_rejects_a_corrupt_cache_entry(tmp_path):
    cache = tmp_path / "pmlb"
    cache.mkdir()
    (cache / "demo.tsv.gz").write_bytes(b"not gzip at all")
    with pytest.raises(DataError, match="cannot read"):
        fetch_pmlb("demo", cache)


def demo_gzip():
    return gzip.compress(b"x0\ttarget\n0.5\t1\n1.5\t0\n", mtime=0)


def test_fetch_pmlb_downloads_into_the_cache(tmp_path, monkeypatch):
    urls = []

    def serve(url):
        urls.append(url)
        return 200, demo_gzip()

    monkeypatch.setattr(softgp.data, "_http_get", serve)
    ds = fetch_pmlb("demo", tmp_path)
    assert urls == [softgp.data.PMLB_URL.format(name="demo")]
    assert ds.name == "demo" and ds.rows == 2
    assert (tmp_path / "demo.tsv.gz").read_bytes() == demo_gzip()


@pytest.mark.parametrize("status, message", [(404, "unknown dataset 'demo' \\(HTTP 404"),
                                             (503, "fetching 'demo' failed: HTTP 503")])
def test_fetch_pmlb_reports_http_errors(tmp_path, monkeypatch, status, message):
    monkeypatch.setattr(softgp.data, "_http_get", lambda url: (status, b""))
    with pytest.raises(DataError, match=message):
        fetch_pmlb("demo", tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["../outside", "..", ".hidden", "a/b", "a\\b", "",
                                  "demo\n", "dem o", "dėmo"])
def test_fetch_pmlb_refuses_a_name_that_could_leave_the_cache(tmp_path, monkeypatch, name):
    def refuse(url):
        raise AssertionError(f"network touched for {url}")
    monkeypatch.setattr(softgp.data, "_http_get", refuse)
    cache = tmp_path / "cache"
    cache.mkdir()
    # a real file where "../outside" would resolve
    with gzip.open(tmp_path / "outside.tsv.gz", "wt") as fh:
        fh.write("x0\ttarget\n0.5\t1\n1.5\t0\n")
    with pytest.raises(DataError, match="bad PMLB dataset name"):
        fetch_pmlb(name, cache)
    assert list(cache.iterdir()) == []


def test_http_get_returns_status_and_body(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # keep the request on this host

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            found = self.path == "/demo"
            self.send_response(200 if found else 404)
            self.end_headers()
            self.wfile.write(demo_gzip() if found else b"missing")

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        assert softgp.data._http_get(base + "/demo") == (200, demo_gzip())
        assert softgp.data._http_get(base + "/absent") == (404, b"")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


# --- shuffle_split ------------------------------------------------------------------

def balanced(n, seed=0):
    return gen_synthetic("linsep", n, 0.1, seed=seed)


def test_shuffle_split_sizes_use_round():
    ds = balanced(10)
    pair = shuffle_split(ds, 0.7, seed=1)
    assert pair.train.rows == 7 and pair.test.rows == 3
    assert pair.ratio == 0.7
    pair = shuffle_split(ds, 0.75, seed=1)
    assert pair.train.rows == round(0.75 * 10)


def test_shuffle_split_partitions_the_rows():
    ds = balanced(30)
    pair = shuffle_split(ds, 0.6, seed=2)
    combined = np.vstack([pair.train.x, pair.test.x])
    assert combined.shape == ds.x.shape
    # every original row appears exactly once across the two splits
    orig = sorted(map(tuple, ds.x))
    got = sorted(map(tuple, combined))
    assert got == orig


def test_shuffle_split_is_deterministic():
    ds = balanced(24)
    a = shuffle_split(ds, 0.7, seed=3)
    b = shuffle_split(ds, 0.7, seed=3)
    assert a.train.x.tolist() == b.train.x.tolist()
    assert a.test.y.tolist() == b.test.y.tolist()
    c = shuffle_split(ds, 0.7, seed=4)
    assert a.train.x.tolist() != c.train.x.tolist()


def test_shuffle_split_guarantees_both_classes_in_both_halves():
    ds = balanced(40, seed=5)
    for seed in range(20):
        pair = shuffle_split(ds, 0.5, seed=seed)
        for part in (pair.train, pair.test):
            assert set(part.y.tolist()) == {0, 1}


def test_shuffle_split_ratio_bounds():
    ds = balanced(10)
    for ratio in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DataError, match="ratio"):
            shuffle_split(ds, ratio, seed=0)


def test_shuffle_split_refuses_a_negative_seed():
    with pytest.raises(DataError, match="seed must be nonnegative, got -1"):
        shuffle_split(balanced(10), 0.5, seed=-1)


def test_shuffle_split_gives_up_when_a_class_cannot_reach_both_halves():
    # 4 rows, one positive: the positive row can only land on one side
    ds = Dataset("t", ["x0"], np.arange(4, dtype=float).reshape(4, 1),
                 np.array([0, 0, 0, 1]))
    with pytest.raises(DataError, match="100 shuffles"):
        shuffle_split(ds, 0.5, seed=0)


# --- gen_synthetic ------------------------------------------------------------------

def test_synthetic_shapes_and_class_balance():
    for kind in ("linsep", "circles", "moons"):
        ds = gen_synthetic(kind, 101, 0.1, seed=0)
        assert ds.x.shape == (101, 2)
        assert ds.columns == ["x0", "x1"]
        assert int(ds.y.sum()) == 51  # odd n puts the extra row in class 1
        assert ds.name == kind


def test_synthetic_determinism():
    a = gen_synthetic("moons", 50, 0.2, seed=9)
    b = gen_synthetic("moons", 50, 0.2, seed=9)
    assert a.x.tolist() == b.x.tolist() and a.y.tolist() == b.y.tolist()
    c = gen_synthetic("moons", 50, 0.2, seed=10)
    assert a.x.tolist() != c.x.tolist()


def test_noiseless_circles_sit_on_exact_radii():
    ds = gen_synthetic("circles", 60, 0.0, seed=1)
    radii = np.hypot(ds.x[:, 0], ds.x[:, 1])
    assert radii[ds.y == 1] == pytest.approx(0.5)
    assert radii[ds.y == 0] == pytest.approx(1.0)


def test_noiseless_moons_trace_the_reference_arcs():
    ds = gen_synthetic("moons", 80, 0.0, seed=1)
    for x0, x1 in ds.x[ds.y == 0]:
        t = math.atan2(x1, x0)
        assert 0.0 <= t <= math.pi + 1e-9
        assert math.hypot(x0, x1) == pytest.approx(1.0)
    for x0, x1 in ds.x[ds.y == 1]:
        # lower moon: (1 - cos t, 0.5 - sin t)
        c, s = 1.0 - x0, 0.5 - x1
        assert math.hypot(c, s) == pytest.approx(1.0)
        assert -0.5 - 1e-9 <= x1 <= 0.5 + 1e-9


def test_noiseless_linsep_blob_means_are_separated():
    ds = gen_synthetic("linsep", 400, 0.0, seed=1)
    mean1 = ds.x[ds.y == 1].mean(axis=0)
    mean0 = ds.x[ds.y == 0].mean(axis=0)
    assert mean1 == pytest.approx([1.0, 1.0], abs=0.15)
    assert mean0 == pytest.approx([-1.0, -1.0], abs=0.15)


def test_synthetic_input_errors():
    with pytest.raises(DataError, match="unknown synthetic kind"):
        gen_synthetic("spiral", 10, 0.1, seed=0)
    with pytest.raises(DataError, match="n >= 4"):
        gen_synthetic("linsep", 3, 0.1, seed=0)
    for noise in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(DataError, match="noise"):
            gen_synthetic("linsep", 10, noise, seed=0)
    with pytest.raises(DataError, match="seed must be nonnegative, got -1"):
        gen_synthetic("moons", 10, 0.1, seed=-1)
    # noise this large draws points that are not finite
    for kind in ("linsep", "circles", "moons"):
        with pytest.raises(DataError, match=f"makes non-finite {kind} points"):
            gen_synthetic(kind, 200, 1e308, seed=0)


# --- save_csv -----------------------------------------------------------------------

def test_save_csv_round_trips_exactly(tmp_path):
    ds = gen_synthetic("circles", 20, 0.3, seed=7)
    p = tmp_path / "out.csv"
    save_csv(ds, p)
    back = load_table(p)
    assert back.columns == ds.columns
    assert back.x.tolist() == ds.x.tolist()  # repr() rendering is lossless
    assert back.y.tolist() == ds.y.tolist()


# --- layout -------------------------------------------------------------------------

# sha256 of the row-major bytes of gen_synthetic("linsep", 50, 0.2, seed=3).x
# and of its shuffle_split(ratio 0.7, seed 1) train and test matrices, as
# they were when the generator held its matrices row-major
LINSEP_DIGESTS = ("0bc037a0c8b7a892597c473f75904f4c399be63d28511e89d5a74f2aeb495291",
                  "77b20ac51146811c96a7d72981ba2b88691fdf0f064c6156b13d0fe290d07907",
                  "3d48d162d896871b609f0796b5789e4746040a98d1b2e28d02561deb14902883")


def assert_column_major(x):
    """x has the one feature-matrix layout, column-major float64, which
    eval_batch's conversion takes without a copy."""
    assert x.dtype == np.float64 and x.flags.f_contiguous and not x.flags.c_contiguous
    assert np.asarray(x, dtype=np.float64, order="F") is x


def test_read_and_loaded_matrices_are_column_major(tmp_path):
    text = "a,b,target\n1,2.5,0\n3,-4,1\n-0.5,7,1\n"
    rows = [[1.0, 2.5], [3.0, -4.0], [-0.5, 7.0]]
    plain = write(tmp_path / "t.csv", text)
    packed = tmp_path / "t.csv.gz"
    with gzip.open(packed, "wt") as fh:
        fh.write(text)
    for path in (plain, packed):
        x = load_table(path).x
        assert_column_major(x)
        assert x.tolist() == rows
    _, x, _ = read_matrix(plain)
    assert_column_major(x)
    assert x.tolist() == [r + [t] for r, t in zip(rows, [0.0, 1.0, 1.0])]


def test_a_dataset_converts_a_row_major_int_matrix_once():
    ints = np.arange(6).reshape(3, 2)
    ds = Dataset("t", ["a", "b"], ints, np.array([0, 1, 1]))
    assert_column_major(ds.x)
    assert ds.x.tolist() == ints.tolist()
    # a matrix already in the layout is kept, not copied
    assert Dataset("t", ["a", "b"], ds.x, ds.y).x is ds.x


def test_synthetic_and_split_matrices_are_column_major_with_unchanged_values():
    ds = gen_synthetic("linsep", 50, 0.2, seed=3)
    pair = shuffle_split(ds, 0.7, seed=1)
    for x, digest in zip((ds.x, pair.train.x, pair.test.x), LINSEP_DIGESTS):
        assert_column_major(x)
        assert hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest() == digest
