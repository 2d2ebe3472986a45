"""Parsed and generated trees hold one SYMBOL leaf per feature index.

The parser keeps a leaf per symbol token, and the generator a leaf per
drawn index, so every occurrence of a feature in one tree is the same
object. Trees are immutable, so sharing changes no value: these tests pin
the sharing itself, that shared trees round-trip and edit like any other,
and the memory that sharing saves.
"""

import gc
import pickle
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

from softgp.sexpr import format_model, parse_model
from softgp.tree import (
    DEFAULT_BOUNDS,
    OpClass,
    OpKind,
    Variant,
    const,
    eval_batch,
    random_subtree,
    random_tree,
    replace_subtree,
)

from treewalk import iter_nodes

N_FEATURES = 3


def symbol_leaves(root):
    """{feature index: {id of each SYMBOL node holding it}} and the paths of
    every SYMBOL occurrence, by index."""
    ids, paths = defaultdict(set), defaultdict(list)
    for path, node in iter_nodes(root):
        if node.kind is OpKind.SYMBOL:
            ids[node.payload].add(id(node))
            paths[node.payload].append(path)
    return ids, paths


def assert_one_leaf_per_index(root):
    ids, paths = symbol_leaves(root)
    assert ids and all(len(v) == 1 for v in ids.values()), dict(ids)
    return paths


def soft_trees(seed, count):
    rng = np.random.default_rng(seed)
    return [random_tree(Variant.SOFT, DEFAULT_BOUNDS, N_FEATURES, (-1.0, 1.0), rng)
            for _ in range(count)]


def test_random_tree_holds_one_leaf_per_feature_index():
    trees = soft_trees(7, 20)
    repeats = 0
    for t in trees:
        paths = assert_one_leaf_per_index(t.root)
        repeats += sum(len(p) > 1 for p in paths.values())
    # the check above means something only if indices do repeat
    assert repeats > 0


@pytest.mark.parametrize("cls", [OpClass.BOOLEAN, OpClass.COMPARISON, OpClass.MATHEMATICAL])
def test_random_subtree_holds_one_leaf_per_feature_index(cls):
    rng = np.random.default_rng(11)
    repeats = 0
    for _ in range(20):
        sub = random_subtree(cls, Variant.SOFT, DEFAULT_BOUNDS, N_FEATURES, (-1.0, 1.0), rng, 3)
        ids, paths = symbol_leaves(sub)
        assert all(len(v) == 1 for v in ids.values()), dict(ids)
        repeats += sum(len(p) > 1 for p in paths.values())
    assert repeats > 0


def test_parsed_model_holds_one_leaf_per_feature_index():
    for t in soft_trees(8, 20):
        parsed, _ = parse_model(format_model(t, N_FEATURES))
        assert parsed == t
        assert_one_leaf_per_index(parsed.root)


def test_a_tree_with_shared_leaves_round_trips_and_pickles_equal():
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (50, N_FEATURES))
    for t in soft_trees(9, 10):
        text = format_model(t, N_FEATURES)
        parsed, n = parse_model(text)
        assert (parsed, n) == (t, N_FEATURES)
        assert format_model(parsed, n) == text
        back = pickle.loads(pickle.dumps(t))
        assert back == t
        # pickle memoizes the shared leaf, so the copy shares it too
        assert_one_leaf_per_index(back.root)
        assert eval_batch(back, x).tobytes() == eval_batch(t, x).tobytes()


def test_replacing_one_occurrence_of_a_shared_leaf_leaves_the_others():
    for t in soft_trees(10, 20):
        paths = assert_one_leaf_per_index(t.root)
        index, where = max(paths.items(), key=lambda kv: len(kv[1]))
        if len(where) < 2:
            continue
        text = format_model(t, N_FEATURES)
        edited = replace_subtree(t.root, where[0], const(0.25))
        # the original is untouched, and in the edit only the one
        # occurrence changed
        assert format_model(t, N_FEATURES) == text
        _, edited_paths = symbol_leaves(edited)
        assert edited_paths[index] == where[1:]
        for path in where[1:]:
            node = edited
            for i in path:
                node = node.children[i]
            assert node.kind is OpKind.SYMBOL and node.payload == index
        return
    pytest.fail("no tree repeats a feature index")


def retained_bytes(make):
    """Bytes still allocated after make() returns, with its result alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return after - before


def test_parsing_retains_one_leaf_per_feature_index_of_memory():
    # 60 soft models of 2 features from seed 1. On CPython 3.11 parsing
    # them retained 1,316,224 B with a fresh SYMBOL node per occurrence and
    # 1,133,920 B with one per feature index.
    rng = np.random.default_rng(1)
    texts = [format_model(random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-1.0, 1.0), rng), 2)
             for _ in range(60)]
    assert retained_bytes(lambda: [parse_model(t) for t in texts]) < 1_225_000


def test_generation_retains_one_leaf_per_feature_index_of_memory():
    # the same 60 trees, generated: 1,310,864 B with a fresh SYMBOL node
    # per occurrence and 1,128,328 B with one per feature index
    rng = np.random.default_rng(1)
    assert retained_bytes(lambda: [
        random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-1.0, 1.0), rng) for _ in range(60)
    ]) < 1_220_000

