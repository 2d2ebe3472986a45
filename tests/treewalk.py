"""Tree traversal and evaluation the tests use as oracles for the library's
walks."""

from typing import Iterator, Tuple

import numpy as np

from softgp.tree import FLOAT_MAX, ExprTree, Node, OpKind


def iter_nodes(node: Node, path: Tuple[int, ...] = ()) -> Iterator[Tuple[Tuple[int, ...], Node]]:
    """Preorder traversal yielding (path-from-root, node)."""
    stack = [(path, node)]
    while stack:
        path, node = stack.pop()
        yield path, node
        children = node.children
        for i in range(len(children) - 1, -1, -1):
            stack.append((path + (i,), children[i]))


def _sat(v):
    return np.minimum(np.maximum(v, -FLOAT_MAX), FLOAT_MAX)


def eval_fresh(tree: ExprTree, x: np.ndarray) -> np.ndarray:
    """The evaluator's reference semantics, one fresh result per node.

    A plain recursion that writes nothing in place: every node's result is
    a new array (or, for a subtree of constants, a new numpy scalar), and
    every mathematical result is clamped to +/-FLOAT_MAX. Each operation
    takes its operands in the order the formulas give them, so a NaN keeps
    the payload the library's evaluation gives it. Invalid operations warn
    or raise as the caller's numpy setting says.
    """
    x = np.asarray(x, dtype=np.float64)

    def go(node: Node):
        k = node.kind
        if k is OpKind.SYMBOL:
            return x[:, node.payload].copy()
        if k is OpKind.CONST:
            return np.float64(node.payload)
        v = [go(c) for c in node.children]
        if k is OpKind.ADD:
            r = _sat(np.add(v[0], v[1]))
        elif k is OpKind.MUL:
            r = _sat(np.multiply(v[0], v[1]))
        elif k is OpKind.LIN2 or k is OpKind.LIN3:
            cs = node.coeffs
            r = _sat(np.add(_sat(np.multiply(cs[0], v[0])), _sat(np.multiply(cs[1], v[1]))))
            if k is OpKind.LIN3:
                r = _sat(np.add(r, _sat(np.multiply(cs[2], v[2]))))
        elif k is OpKind.NEG:
            r = np.negative(v[0])
        elif k is OpKind.SIGM:
            r = np.divide(1.0, np.add(1.0, np.exp(np.negative(v[0]))))
        elif k is OpKind.GT:
            r = np.greater(v[0], v[1]).astype(np.float64)
        elif k is OpKind.LT:
            r = np.less(v[0], v[1]).astype(np.float64)
        elif k is OpKind.OR:
            r = np.maximum(v[0], v[1])
        elif k is OpKind.AND:
            r = np.minimum(v[0], v[1])
        elif k is OpKind.OR3:
            r = np.maximum(np.maximum(v[0], v[1]), v[2])
        elif k is OpKind.AND3:
            r = np.minimum(np.minimum(v[0], v[1]), v[2])
        elif k is OpKind.NOT:
            r = np.subtract(1.0, v[0])
        else:
            raise AssertionError(k)
        w = node.weight
        if w is not None and w != 1.0:
            r = np.multiply(r, w)
        return r

    out = go(tree.root)
    return np.full(x.shape[0], out) if np.ndim(out) == 0 else out
