"""Build logical trees by hand and evaluate them.

A model is an expression tree: boolean operators at the top, comparisons
below them, arithmetic below that, symbols/constants at the leaves. The
hard variant returns exactly 0 or 1; the soft variant carries a weight on
every boolean/comparison node and returns activations in [0, 1].
"""

import numpy as np

from softgp.sexpr import format_tree, parse_tree
from softgp.tree import (
    ExprTree,
    OpKind,
    Variant,
    const,
    eval_batch,
    op,
    symbol,
    validate,
)

# A hard rule: x0 > x1  OR  x0 < -0.5
hard = ExprTree(Variant.HARD, op(
    OpKind.OR,
    op(OpKind.GT, symbol(0), symbol(1)),
    op(OpKind.LT, symbol(0), const(-0.5)),
))
print("hard tree:", format_tree(hard))
print("validate:", validate(hard, n_features=2) or "ok")

rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5]])
print("hard activations:", eval_batch(hard, rows))  # exactly 0.0 or 1.0

# The same shape as a soft tree. Every boolean/comparison node takes a
# weight in [0, 1]; OR becomes w*max, GT becomes w*[x > y], and so on, so
# nudging a weight nudges the activation instead of flipping it.
soft = ExprTree(Variant.SOFT, op(
    OpKind.OR,
    op(OpKind.GT, symbol(0), symbol(1), weight=0.9),
    op(OpKind.LT, symbol(0), const(-0.5), weight=0.4),
    weight=1.0,
))
print("\nsoft tree:", format_tree(soft))
print("soft activations:", eval_batch(soft, rows))  # graded values in [0, 1]
print("one row:", float(eval_batch(soft, np.array([[1.0, 0.0]]))[0]))

# Soft trees also get richer arithmetic: sigm squashes into (0, 1), and
# lin2/lin3 are saturated linear blends with per-child coefficients.
blend = ExprTree(Variant.SOFT, op(
    OpKind.NOT,
    op(OpKind.GT,
       op(OpKind.LIN2, symbol(0), symbol(1), coeffs=(0.7, -0.3)),
       op(OpKind.SIGM, const(0.0)),
       weight=0.8),
    weight=1.0,
))
print("\nblend tree:", format_tree(blend))
print("blend activations:", eval_batch(blend, rows))

# Trees render as single-line s-expressions and parse back exactly.
text = format_tree(blend)
again = parse_tree(text, Variant.SOFT)
assert format_tree(again) == text
print("\nround trip ok:", text)
