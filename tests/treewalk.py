"""Tree traversal the tests use as an oracle for the library's walks."""

from typing import Iterator, Tuple

from softgp.tree import Node


def iter_nodes(node: Node, path: Tuple[int, ...] = ()) -> Iterator[Tuple[Tuple[int, ...], Node]]:
    """Preorder traversal yielding (path-from-root, node)."""
    stack = [(path, node)]
    while stack:
        path, node = stack.pop()
        yield path, node
        children = node.children
        for i in range(len(children) - 1, -1, -1):
            stack.append((path + (i,), children[i]))
