"""Dataset loading, PMLB fetching, shuffling/splitting, and 2D synthetics.

Label ingestion maps the larger of the two raw target values to 1 so runs
are reproducible without per-dataset tables. Categorical features are
consumed as the numeric codes they ship with; no encoding or scaling is
applied.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.client import HTTPException
from typing import List, Optional, Tuple

import numpy as np

PMLB_URL = "https://github.com/EpistasisLab/pmlb/raw/master/datasets/{name}/{name}.tsv.gz"
DEFAULT_TARGET = "target"


class DataError(ValueError):
    """Raised for unreadable, non-binary, or unfetchable datasets."""


@dataclass
class Dataset:
    name: str
    columns: List[str]
    x: np.ndarray  # (rows, n) float64
    y: np.ndarray  # (rows,) int64 in {0,1}

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset
    ratio: float


def _open_text(path):
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def _sniff_delimiter(path, delimiter: Optional[str]) -> str:
    if delimiter is not None:
        return delimiter
    base = str(path)
    if base.endswith(".gz"):
        base = base[:-3]
    return "\t" if base.endswith(".tsv") else ","


def _dataset_name(path) -> str:
    base = os.path.basename(str(path))
    for suffix in (".gz", ".tsv", ".csv", ".txt"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    return base


def unreadable_table(path, reader, exc: Exception) -> DataError:
    """The DataError for a csv reader that raised exc: a byte that is not
    UTF-8, or a csv.Error (a field longer than csv.field_size_limit(), or a
    NUL byte on Python 3.10). A csv.Error names the line being parsed; a
    bad byte names none, since the file is decoded in chunks and the lines
    read so far do not place it."""
    if isinstance(exc, csv.Error):
        return DataError(f"cannot read {path} line {reader.line_num}: {exc}")
    return DataError(f"cannot read {path}: {exc}")


def read_matrix(path, delimiter: Optional[str] = None,
                drop_column: Optional[str] = None
                ) -> Tuple[List[str], np.ndarray, Optional[np.ndarray]]:
    """Read a delimited numeric table.

    Returns (feature column names, feature matrix, raw values of
    drop_column or None if that column is absent). Non-numeric and
    non-finite cells are reported with their file line number and column
    name.
    """
    delim = _sniff_delimiter(path, delimiter)
    try:
        fh = _open_text(path)
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from e
    with fh:
        try:
            reader = csv.reader(fh, delimiter=delim)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path} is empty") from None
            header = [h.strip() for h in header]
            drop_idx = header.index(drop_column) if drop_column in header else None
            names = [h for i, h in enumerate(header) if i != drop_idx]
            feats: List[List[float]] = []
            dropped: List[float] = []
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path} line {lineno}: expected {len(header)} cells, "
                                    f"got {len(row)}")
                vals = []
                for i, cell in enumerate(row):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise DataError(f"{path} line {lineno}, column {header[i]!r}: "
                                        f"non-numeric value {cell.strip()!r}") from None
                    if not math.isfinite(v):
                        raise DataError(f"{path} line {lineno}, column {header[i]!r}: "
                                        f"non-finite value {cell.strip()!r}")
                    if i == drop_idx:
                        dropped.append(v)
                    else:
                        vals.append(v)
                feats.append(vals)
        except (OSError, EOFError) as e:
            # truncated gzip raises EOFError
            raise DataError(f"cannot read {path}: {e}") from e
        except (UnicodeDecodeError, csv.Error) as e:
            raise unreadable_table(path, reader, e) from e
    if not feats:
        raise DataError(f"{path} has no data rows")
    if not names:
        raise DataError(f"{path} has no feature columns")
    x = np.asarray(feats, dtype=np.float64)
    raw = np.asarray(dropped, dtype=np.float64) if drop_idx is not None else None
    return names, x, raw


def load_table(path, delimiter: Optional[str] = None,
               target_column: str = DEFAULT_TARGET) -> Dataset:
    """Load a delimited file with a header row into a Dataset.

    The target column must hold exactly two distinct values; the larger
    maps to label 1. Delimiter defaults by extension (.tsv tab, else
    comma); .gz files are decompressed transparently.
    """
    names, x, raw = read_matrix(path, delimiter, drop_column=target_column)
    if raw is None:
        raise DataError(f"{path}: target column {target_column!r} not found")
    distinct = np.unique(raw)
    if len(distinct) != 2:
        raise DataError(f"{path}: target column {target_column!r} has {len(distinct)} "
                        f"distinct values; expected 2 (not binary)")
    y = (raw == distinct[1]).astype(np.int64)
    return Dataset(_dataset_name(path), names, x, y)


def _http_get(url: str) -> Tuple[int, bytes]:
    """GET url and return (status code, body).

    An HTTP error status is returned, not raised; a network failure raises
    OSError or http.client.HTTPException.
    """
    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as e:
        e.close()
        return e.code, b""


def fetch_pmlb(name: str, cache_dir) -> Dataset:
    """Fetch a PMLB dataset by name, caching the raw gzip TSV.

    A warm cache skips the network entirely. Downloads are verified
    (gunzip + parse) before being moved into the cache atomically, so a
    concurrent or aborted fetch never leaves a corrupt cache entry. A name
    that could lead out of the cache directory or the URL is refused first.
    """
    if re.fullmatch(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*", name) is None:
        raise DataError(f"bad PMLB dataset name {name!r} (want [A-Za-z0-9_.-]+, no leading .)")
    os.makedirs(cache_dir, exist_ok=True)
    cached = os.path.join(cache_dir, f"{name}.tsv.gz")
    if os.path.exists(cached):
        return load_table(cached, delimiter="\t", target_column=DEFAULT_TARGET)
    url = PMLB_URL.format(name=name)
    try:
        status, body = _http_get(url)
    except (OSError, HTTPException) as e:
        raise DataError(f"network failure fetching {name!r}: {e}") from e
    if status == 404:
        raise DataError(f"unknown dataset {name!r} (HTTP 404 at {url})")
    if status != 200:
        raise DataError(f"fetching {name!r} failed: HTTP {status}")
    # the .gz suffix makes load_table decompress the download
    tmp = f"{cached}.{os.getpid()}.tmp.gz"
    with open(tmp, "wb") as fh:
        fh.write(body)
    try:
        ds = load_table(tmp, delimiter="\t", target_column=DEFAULT_TARGET)
    except Exception as e:
        os.unlink(tmp)
        if isinstance(e, DataError):
            raise
        raise DataError(f"downloaded file for {name!r} is corrupt: {e}") from e
    os.replace(tmp, cached)
    ds.name = name
    return ds


def shuffle_split(ds: Dataset, ratio: float = 0.7, seed: int = 0) -> SplitPair:
    """Shuffle uniformly under seed and split; train gets round(ratio*rows).

    Permutations are re-drawn (up to 100 times) until both splits contain
    both classes.
    """
    if not (0.0 < ratio < 1.0):
        raise DataError(f"split ratio must be in (0,1), got {ratio}")
    rows = ds.rows
    n_train = round(ratio * rows)
    if n_train < 1 or n_train >= rows:
        raise DataError(f"ratio {ratio} leaves an empty split for {rows} rows")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        perm = rng.permutation(rows)
        tr, te = perm[:n_train], perm[n_train:]
        if len(np.unique(ds.y[tr])) == 2 and len(np.unique(ds.y[te])) == 2:
            train = Dataset(ds.name, list(ds.columns), ds.x[tr], ds.y[tr])
            test = Dataset(ds.name, list(ds.columns), ds.x[te], ds.y[te])
            return SplitPair(train, test, ratio)
    raise DataError(f"could not produce two-class train/test splits of {ds.name!r} "
                    f"in 100 shuffles")


def gen_synthetic(kind: str, n: int, noise: float, seed: int) -> Dataset:
    """Generate one of the 2D demo datasets: linsep, circles, or moons.

    linsep: Gaussian blobs at (-1,-1) and (1,1), stdev noise+0.5.
    circles: rings of radius 1.0 (class 0) and 0.5 (class 1) with Gaussian
    radial noise. moons: two interleaved half-circle arcs with Gaussian
    noise on both coordinates. Classes are balanced (class 1 gets the
    extra row when n is odd) and generation is deterministic under seed.
    """
    if n < 4:
        raise DataError(f"need n >= 4, got {n}")
    if not (math.isfinite(noise) and noise >= 0):
        raise DataError(f"noise must be a finite number >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    n1 = (n + 1) // 2
    n0 = n - n1
    if kind == "linsep":
        std = noise + 0.5
        pts0 = rng.normal((-1.0, -1.0), std, size=(n0, 2))
        pts1 = rng.normal((1.0, 1.0), std, size=(n1, 2))
    elif kind == "circles":
        theta0 = rng.uniform(0.0, 2.0 * math.pi, n0)
        r0 = 1.0 + rng.normal(0.0, noise, n0)
        theta1 = rng.uniform(0.0, 2.0 * math.pi, n1)
        r1 = 0.5 + rng.normal(0.0, noise, n1)
        pts0 = np.column_stack((r0 * np.cos(theta0), r0 * np.sin(theta0)))
        pts1 = np.column_stack((r1 * np.cos(theta1), r1 * np.sin(theta1)))
    elif kind == "moons":
        t0 = np.linspace(0.0, math.pi, n0)
        t1 = np.linspace(0.0, math.pi, n1)
        pts0 = np.column_stack((np.cos(t0), np.sin(t0)))
        pts1 = np.column_stack((1.0 - np.cos(t1), 0.5 - np.sin(t1)))
        pts0 = pts0 + rng.normal(0.0, noise, pts0.shape)
        pts1 = pts1 + rng.normal(0.0, noise, pts1.shape)
    else:
        raise DataError(f"unknown synthetic kind {kind!r} "
                        f"(expected linsep, circles, or moons)")
    x = np.vstack((pts0, pts1))
    y = np.concatenate((np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)))
    return Dataset(kind, ["x0", "x1"], x, y)


def save_csv(ds: Dataset, path, target_column: str = DEFAULT_TARGET) -> None:
    """Write a dataset as CSV with a header row and integer labels."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.columns) + [target_column])
        for i in range(ds.rows):
            writer.writerow([repr(float(v)) for v in ds.x[i]] + [int(ds.y[i])])
