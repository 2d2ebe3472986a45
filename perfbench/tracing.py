"""Span recorder for the benchmark's traced run.

A span records a name, a start, an end and the index of the span that was
open when it started. Spans stay in memory, in flat arrays, until the run
ends; `Recorder.write` then dumps them as TSV and `Recorder.stats`
aggregates them per name.

softgp modules call each other through names bound at import time
(`from .tree import eval_batch` in genetics, evolve and bench), so
rebinding a function in its defining module alone would miss most calls.
`Tracer` therefore rebinds every module global of the package that holds
the original function object, plus class attributes for methods, and
restores each binding on exit. The wrappers draw no random numbers and
never touch arguments or results, so a traced run computes what an
untraced run computes.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

# Span covering the wrapper's own work after a call returns (measuring a
# result); being a child span, it keeps that work out of the caller's
# self time.
BOOKKEEPING = "trace.bookkeeping"


class Recorder:
    """Spans of one single-threaded run, in parallel arrays."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # one optional number per span (row bucket size, nodes, accept flag)
        self.value = array("d")
        self.current = -1

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.value.append(math.nan)
        self.end.append(0.0)
        self.current = i
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.current = self.parent[i]

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Dump every span as TSV: index, name, parent, start/end in us."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart_us\tend_us\tvalue\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.parent[i]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t"
                         f"{self.value[i]!r}\n")

    def stats(self, child: Optional[str] = None) -> Dict[str, "SpanStats"]:
        """Per-name totals. Self time is a span's duration minus the time
        its direct children cover (spans of one thread nest, so children
        never overlap). With `child` given, `child_calls` counts the spans
        of that name whose direct parent has the aggregated name."""
        n = len(self)
        if n == 0:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        value = np.frombuffer(self.value, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        child_counts = np.zeros(n)
        if child in self._ids:
            mask = (ids == self._ids[child]) & has_parent
            child_counts = np.bincount(parent[mask], minlength=n).astype(np.float64)
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            vals = value[sel]
            vals = vals[~np.isnan(vals)]
            out[name] = SpanStats(
                calls=int(sel.sum()),
                total_s=float(dur[sel].sum()),
                self_s=float(self_time[sel].sum()),
                value_mean=float(vals.mean()) if vals.size else 0.0,
                child_calls=int(child_counts[sel].sum()))
        return out


@dataclass(frozen=True)
class SpanStats:
    calls: int
    total_s: float
    self_s: float
    value_mean: float
    child_calls: int


@dataclass(frozen=True)
class Layer:
    """One function to trace.

    target is "module:attr" for a module-level function, traced at every
    binding in the package, or "module:Class.method" for a method. name_of
    picks the span name from the call's arguments; measure computes the
    span's value from (args, kwargs, result) after the call returns.
    """

    name: str
    target: str
    name_of: Optional[Callable[[tuple, dict], str]] = None
    measure: Optional[Callable[[tuple, dict, Any], float]] = None


def _wrap(rec: Recorder, layer: Layer, fn: Callable) -> Callable:
    name, name_of, measure = layer.name, layer.name_of, layer.measure

    def traced(*args, **kwargs):
        i = rec.open(name_of(args, kwargs) if name_of else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if measure is not None:
            j = rec.open(BOOKKEEPING)
            rec.value[i] = measure(args, kwargs, out)
            rec.close(j)
        return out

    traced.__wrapped__ = fn
    return traced


class Tracer:
    """Context manager that routes the given layers through `rec`."""

    def __init__(self, rec: Recorder, layers: List[Layer], package: str):
        self.rec = rec
        self.layers = layers
        self.package = package
        self._saved: List[Tuple[object, str, object]] = []

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        try:
            for layer in self.layers:
                mod_name, _, attr = layer.target.partition(":")
                owner = sys.modules[mod_name]
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    self._rebind(cls, method, _wrap(self.rec, layer, getattr(cls, method)))
                    continue
                orig = getattr(owner, attr)
                wrapper = _wrap(self.rec, layer, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._rebind(mod, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _rebind(self, owner, key, new) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def _restore(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def __exit__(self, *exc) -> None:
        self._restore()
