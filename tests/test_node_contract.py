"""Nodes are immutable by contract.

tree.Node is a plain slotted class: nothing stops a store into a value
field at run time, since a frozen dataclass would pay a descriptor call
per field on every construction. These tests hold the library to the
contract instead. The guard below makes a second store into any value
field (kind, children, weight, coeffs, payload) raise, while a node's
first stores and its summary and acts slots stay writable; with it on,
generation, parsing, pickling, every variation operator and small fits
must run as before.
"""

import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import softgp.evolve as evolve_mod
from softgp.data import gen_synthetic
from softgp.evolve import EvolutionConfig, fit_gp, fit_sgp
from softgp.genetics import (
    EvalContext,
    Individual,
    crossover,
    extension_mutation,
    mutate,
    positive_crossover,
    positive_mutation,
    weight_adjustment,
)
from softgp.sexpr import format_model, parse_model
from softgp.tree import (
    DEFAULT_BOUNDS,
    SUMMARY_SLOTS,
    Node,
    OpClass,
    OpKind,
    Variant,
    const,
    op,
    random_subtree,
    random_tree,
    replace_subtree,
    set_weight,
    summary,
    symbol,
)

N_FEATURES = 2
CONST_RANGE = (-2.0, 2.0)
VALUE_FIELDS = frozenset({"kind", "children", "weight", "coeffs", "payload"})
SMALL = EvolutionConfig(max_generation=3, population_size=12, population_num=2,
                        migration_period=2)


@pytest.fixture
def guard(monkeypatch):
    """Make Node raise FrozenInstanceError on a second store into a value
    field. Not autouse: it slows every node construction several-fold."""

    def setattr_once(node, name, value):
        if name in VALUE_FIELDS:
            try:
                getattr(node, name)
            except AttributeError:  # the slot's first store
                pass
            else:
                raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(node, name, value)

    monkeypatch.setattr(Node, "__setattr__", setattr_once)


def soft_trees(seed, count):
    rng = np.random.default_rng(seed)
    return [random_tree(Variant.SOFT, DEFAULT_BOUNDS, N_FEATURES, CONST_RANGE, rng)
            for _ in range(count)]


@pytest.fixture(scope="module")
def ctx():
    ds = gen_synthetic("circles", 80, 0.1, seed=9)
    return EvalContext(ds.x, ds.y)


def test_the_guard_refuses_a_second_store(guard):
    node = op(OpKind.GT, symbol(0), const(1.0), weight=0.5)
    with pytest.raises(FrozenInstanceError):
        node.weight = 0.2
    with pytest.raises(FrozenInstanceError):
        node.children = ()
    assert node.weight == 0.5
    # the caches stay writable
    summary(node)
    node.acts = None


def test_equal_nodes_built_apart_are_equal_and_hash_alike():
    def build():
        return op(OpKind.AND, op(OpKind.GT, op(OpKind.LIN2, symbol(0), const(0.5),
                                               coeffs=(0.25, -1.0)),
                                 symbol(1), weight=0.75),
                  op(OpKind.NOT, op(OpKind.LT, symbol(1), const(-1.0), weight=1.0),
                     weight=0.5), weight=0.125)

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    # a filled summary takes no part in == or hash
    summary(a)
    assert a == b and hash(a) == hash(b)
    assert a != op(OpKind.OR, *a.children, weight=a.weight)


def test_generation_keeps_the_contract(guard):
    rng = np.random.default_rng(3)
    for variant in Variant:
        for _ in range(10):
            random_tree(variant, DEFAULT_BOUNDS, N_FEATURES, CONST_RANGE, rng)
        for cls in OpClass:
            for _ in range(5):
                random_subtree(cls, variant, DEFAULT_BOUNDS, N_FEATURES, CONST_RANGE, rng, 3)


def test_parsing_formatting_and_pickling_keep_the_contract(guard):
    for t in soft_trees(4, 10):
        text = format_model(t, N_FEATURES)
        parsed, n = parse_model(text)
        assert (parsed, n) == (t, N_FEATURES)
        assert format_model(parsed, n) == text
        assert pickle.loads(pickle.dumps(t)) == t


def test_edits_and_variation_keep_the_contract(guard):
    rng = np.random.default_rng(5)
    trees = soft_trees(5, 12)
    for t in trees:
        text = format_model(t, N_FEATURES)
        root = t.root
        replace_subtree(root, (0,), const(0.5))
        for k in range(0, summary(root)[SUMMARY_SLOTS], 3):
            set_weight(t, k, 0.3)
        mutate(t, N_FEATURES, CONST_RANGE, rng)
        # the parent reads as before
        assert format_model(t, N_FEATURES) == text
    for a, b in zip(trees[::2], trees[1::2]):
        crossover(a, b, rng)


def test_the_gated_operators_keep_the_contract(guard, ctx):
    rng = np.random.default_rng(7)
    pop = [Individual(t, ctx.fitness_of(t)) for t in soft_trees(7, 8)]
    for a, b in zip(pop[::2], pop[1::2]):
        positive_crossover(a, b, ctx, rng)
        positive_mutation(a, 5, ctx, rng)
        weight_adjustment(b, 5, ctx, rng)
        extension_mutation(b, ctx, rng)


@pytest.mark.parametrize("workers", [1, 2])
def test_fits_keep_the_contract(guard, workers, monkeypatch):
    # GP evolves in this process; SGP's islands in W processes, and a
    # forked worker inherits the guard
    monkeypatch.setattr(evolve_mod, "_worker_count", lambda population_num: workers)
    moons = gen_synthetic("moons", 90, 0.3, seed=4)
    for fit in (fit_sgp, fit_gp):
        fit(moons, replace(SMALL, seed=workers))
