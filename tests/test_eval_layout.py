"""eval_batch against the layout of its input, and what it costs.

Evaluation reads one column of x per symbol and writes only into arrays
it creates itself, so the memory layout of x changes no bit of the result
and x is never written. EVAL_DIGEST pins the bytes eval_batch returns for
a seeded corpus of soft and hard trees at 10k rows, some of whose rows
overflow, so both the trapping and the saturating pass are pinned.
GRID_PEAKS and EVAL_PEAKS pin the traced peak memory of boundary grids at
resolution 600, whose arrays are above numpy's 256 KiB threshold for
reusing a temporary in place: an array a node binds to a name is not
reused that way, so keeping such arrays alive too long shows here.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import softgp.tree as tree_mod
from softgp.bench import boundary_grid
from softgp.tree import (
    DEFAULT_BOUNDS,
    ExprTree,
    Node,
    OpKind,
    Variant,
    eval_batch,
    random_tree,
)

N_FEATURES = 3

# sha256 of the concatenated eval_batch outputs over digest_corpus()
EVAL_DIGEST = "afa911061d22505439477dc0ed9e41ed4f23a1660e4986ffa3cb3f3c75946dd9"

# traced peak bytes, one per grid tree, of boundary_grid at GRID_RESOLUTION
# (lattice included) and of eval_batch alone on a column-major lattice, as
# the evaluation that wrote every node's result to a fresh array measured
# them. The interpreter's own allocations move a peak by a few KB from run
# to run, so a peak may exceed its pin by PEAK_SLACK, far below the 2.9 MB
# of one more array.
GRID_RESOLUTION = 600
PEAK_SLACK = 64 * 1024
GRID_PEAKS = (28_814_268, 31_692_522, 28_812_146, 28_812_034)
EVAL_PEAKS = (17_281_592, 20_161_704, 17_281_608, 17_281_496)


def sample_matrix(rows: int, seed: int) -> np.ndarray:
    """Row-major features; every seventh row's last feature is scaled to
    about 1e150, so multiplication chains over it overflow."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, size=(rows, N_FEATURES))
    x[::7, -1] *= 1e150
    return x


def sample_trees(seed: int, per_variant: int):
    rng = np.random.default_rng(seed)
    return [random_tree(variant, DEFAULT_BOUNDS, N_FEATURES, (-5.0, 5.0), rng)
            for variant in (Variant.SOFT, Variant.HARD) for _ in range(per_variant)]


def digest_corpus():
    return sample_matrix(10_000, 1901), sample_trees(1902, 8)


def corpus_digest() -> str:
    x, trees = digest_corpus()
    h = hashlib.sha256()
    for t in trees:
        h.update(eval_batch(t, x).tobytes())
    return h.hexdigest()


def grid_trees():
    rng = np.random.default_rng(1903)
    return [random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-3.0, 3.0), rng) for _ in range(4)]


def traced_peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid_peak(t: ExprTree) -> int:
    return traced_peak(boundary_grid, t, GRID_RESOLUTION, (-3.0, 3.0), (-3.0, 3.0))


def eval_peak(t: ExprTree) -> int:
    xs = np.linspace(-3.0, 3.0, GRID_RESOLUTION)
    gx, gy = np.meshgrid(xs, xs)
    lattice = np.asfortranarray(np.column_stack((gx.ravel(), gy.ravel())))
    del gx, gy
    return traced_peak(eval_batch, t, lattice)


def mirror(node: Node) -> Node:
    """node with every symbol index j mapped to N_FEATURES - 1 - j."""
    if node.kind is OpKind.SYMBOL:
        return Node(OpKind.SYMBOL, payload=N_FEATURES - 1 - node.payload)
    return Node(node.kind, tuple(map(mirror, node.children)), node.weight, node.coeffs,
                node.payload)


def test_the_corpus_takes_both_passes(monkeypatch):
    x, trees = digest_corpus()
    fallbacks = []
    real = tree_mod._eval_saturating

    def spy(*args, **kwargs):
        fallbacks.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tree_mod, "_eval_saturating", spy)
    for t in trees:
        eval_batch(t, x)
    assert 0 < len(fallbacks) < len(trees)


def test_eval_digest_is_pinned():
    assert corpus_digest() == EVAL_DIGEST


@pytest.mark.parametrize("t", sample_trees(1904, 6), ids=lambda t: t.variant.value)
def test_every_input_layout_gives_the_same_bytes_and_leaves_x_alone(t):
    x = sample_matrix(400, 1905)
    want = eval_batch(t, np.ascontiguousarray(x)).tobytes()
    half = eval_batch(t, np.ascontiguousarray(x[::2])).tobytes()
    read_only = x.copy()
    read_only.flags.writeable = False
    cases = [
        (t, x, want),
        (t, np.asfortranarray(x), want),
        (t, read_only, want),
        (t, x[::2], half),
        (t, np.asfortranarray(x)[::2], half),
        (ExprTree(t.variant, mirror(t.root)), x[:, ::-1], want),
    ]
    for tree, xs, expect in cases:
        before = xs.tobytes()
        assert eval_batch(tree, xs).tobytes() == expect
        assert xs.tobytes() == before


@pytest.mark.parametrize("measure, pins", [(grid_peak, GRID_PEAKS), (eval_peak, EVAL_PEAKS)],
                         ids=["boundary_grid", "eval_batch"])
def test_boundary_grid_peak_memory_is_pinned(measure, pins):
    peaks = [measure(t) for t in grid_trees()]
    assert all(p <= pin + PEAK_SLACK for p, pin in zip(peaks, pins, strict=True)), (peaks, pins)
