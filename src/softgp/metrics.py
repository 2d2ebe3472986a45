"""Confusion counting and balanced accuracy.

Balanced accuracy is the fitness function of the evolution loops and the
score reported by the benchmark harness, so these helpers are written to be
cheap on numpy arrays while still accepting plain lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Raised for malformed label vectors or undefined metrics."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int


def confusion(truth, pred) -> ConfusionMatrix:
    """Count a 2x2 confusion matrix. Positive class is label 1.

    Raises MetricsError on length mismatch or non-binary labels.
    """
    t = np.asarray(truth)
    p = np.asarray(pred)
    if t.shape != p.shape or t.ndim != 1:
        raise MetricsError(f"label vectors must be 1-D and equal length, got {t.shape} vs {p.shape}")
    if t.size == 0:
        raise MetricsError("empty label vectors")
    for name, v in (("truth", t), ("pred", p)):
        bad = ~np.isin(v, (0, 1))
        if bad.any():
            i = int(np.argmax(bad))
            raise MetricsError(f"non-binary label in {name} at index {i}: {v[i]!r}")
    t = t.astype(bool)
    p = p.astype(bool)
    tp = int(np.count_nonzero(t & p))
    tn = int(np.count_nonzero(~t & ~p))
    fp = int(np.count_nonzero(~t & p))
    fn = int(np.count_nonzero(t & ~p))
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """Mean of the two per-class recalls: (TP/(TP+FN) + TN/(TN+FP)) / 2.

    Undefined (raises) when either class is absent from the truth.
    """
    pos = cm.tp + cm.fn
    neg = cm.tn + cm.fp
    if pos == 0 or neg == 0:
        raise MetricsError("undefined balanced accuracy: a class is absent")
    return 0.5 * (cm.tp / pos + cm.tn / neg)
