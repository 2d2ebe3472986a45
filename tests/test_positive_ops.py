import numpy as np
import pytest

from softgp.data import gen_synthetic
from softgp.genetics import (
    EvalContext,
    Individual,
    crossover,
    extension_mutation,
    positive_crossover,
    positive_mutation,
    weight_adjustment,
)
from softgp.sexpr import format_tree
from softgp.tree import (
    BOOL_DEPTH_CAP,
    DEFAULT_BOUNDS,
    NODE_CAP,
    ExprTree,
    OpKind,
    TreeError,
    Variant,
    collect_weights,
    const,
    SUMMARY_BOOL_DEPTH,
    node_count,
    op,
    random_tree,
    summary,
    symbol,
    validate,
)

from treewalk import iter_nodes

CONST_RANGE = (-2.0, 2.0)


@pytest.fixture(scope="module")
def circles():
    return gen_synthetic("circles", 80, 0.1, seed=9)


@pytest.fixture(scope="module")
def ctx(circles):
    return EvalContext(circles.x, circles.y)


def scored(ctx, tree):
    return Individual(tree, ctx.fitness_of(tree))


def soft_ind(ctx, rng):
    return scored(ctx, random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, CONST_RANGE, rng))


def test_positive_crossover_never_loses_the_pairwise_max(ctx):
    rng = np.random.default_rng(61)
    for _ in range(150):
        a, b = soft_ind(ctx, rng), soft_ind(ctx, rng)
        best_in = max(a.fitness, b.fitness)
        o1, o2 = positive_crossover(a, b, ctx, rng)
        assert o1.fitness >= o2.fitness
        assert o1.fitness >= best_in
        assert o1.fitness == ctx.fitness_of(o1.tree)
        assert o2.fitness == ctx.fitness_of(o2.tree)
        assert validate(o1.tree, 2) == [] and validate(o2.tree, 2) == []


def test_positive_crossover_is_deterministic(ctx):
    gen = np.random.default_rng(63)
    a, b = soft_ind(ctx, gen), soft_ind(ctx, gen)
    r1 = positive_crossover(a, b, ctx, np.random.default_rng(5))
    r2 = positive_crossover(a, b, ctx, np.random.default_rng(5))
    assert [format_tree(i.tree) for i in r1] == [format_tree(i.tree) for i in r2]


def test_positive_crossover_returns_the_children_when_all_four_tie():
    # identical rows make every tree predict one label for all of them,
    # so every candidate scores balanced accuracy 0.5
    flat = EvalContext(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    gen = np.random.default_rng(65)
    a, b = soft_ind(flat, gen), soft_ind(flat, gen)
    o1, o2 = positive_crossover(a, b, flat, np.random.default_rng(6))
    c1, c2 = crossover(a.tree, b.tree, np.random.default_rng(6))
    assert a.fitness == b.fitness == o1.fitness == o2.fitness == 0.5
    assert all(o is not a and o is not b for o in (o1, o2))
    assert (format_tree(o1.tree), format_tree(o2.tree)) == (format_tree(c1), format_tree(c2))


def test_positive_mutation_only_improves_or_returns_the_original(ctx):
    rng = np.random.default_rng(64)
    for _ in range(150):
        ind = soft_ind(ctx, rng)
        out = positive_mutation(ind, 10, ctx, rng)
        if out is ind:
            continue
        assert out.fitness > ind.fitness
        assert out.fitness == ctx.fitness_of(out.tree)
        assert validate(out.tree, 2) == []


def test_positive_mutation_zero_tries_is_identity(ctx):
    rng = np.random.default_rng(65)
    ind = soft_ind(ctx, rng)
    state = rng.bit_generator.state
    assert positive_mutation(ind, 0, ctx, rng) is ind
    assert rng.bit_generator.state == state  # no draws consumed


def test_positive_mutation_skips_perfect_individuals(ctx):
    rng = np.random.default_rng(66)
    ind = Individual(soft_ind(ctx, rng).tree, 1.0)
    state = rng.bit_generator.state
    assert positive_mutation(ind, 10, ctx, rng) is ind
    assert rng.bit_generator.state == state


def test_weight_adjustment_only_improves_or_returns_the_original(ctx):
    rng = np.random.default_rng(67)
    for _ in range(150):
        ind = soft_ind(ctx, rng)
        out = weight_adjustment(ind, 10, ctx, rng)
        if out is ind:
            continue
        assert out.fitness > ind.fitness
        assert out.fitness == ctx.fitness_of(out.tree)
        assert validate(out.tree, 2) == []


def test_weight_adjustment_changes_exactly_one_slot(ctx):
    rng = np.random.default_rng(68)
    changed = 0
    for _ in range(80):
        ind = soft_ind(ctx, rng)
        out = weight_adjustment(ind, 10, ctx, rng)
        if out is ind:
            continue
        changed += 1
        # the same shape, so slot k is the same real in both trees
        assert [(p, n.kind) for p, n in iter_nodes(ind.tree.root)] == \
            [(p, n.kind) for p, n in iter_nodes(out.tree.root)]
        before = collect_weights(ind.tree)
        after = collect_weights(out.tree)
        diffs = [i for i, (w0, w1) in enumerate(zip(before, after)) if w0 != w1]
        assert len(diffs) == 1
    assert changed > 0  # the loop actually exercised accepted adjustments


def test_weight_adjustment_can_fix_a_known_weight():
    # y = [x0 > 0]; the tree is right except its root weight drowns the signal
    x = np.array([[1.0], [2.0], [-1.0], [-2.0]])
    y = np.array([1, 1, 0, 0])
    ctx = EvalContext(x, y)
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                     op(OpKind.LT, symbol(0), const(0.0), weight=1.0),
                                     weight=0.45))
    ind = scored(ctx, tree)
    assert ind.fitness == 0.5
    out = weight_adjustment(ind, 50, ctx, np.random.default_rng(3))
    assert out.fitness == 1.0


def test_weight_adjustment_rejects_hard_trees(ctx):
    rng = np.random.default_rng(69)
    ind = scored(ctx, random_tree(Variant.HARD, DEFAULT_BOUNDS, 2, CONST_RANGE, rng))
    with pytest.raises(TreeError, match="soft"):
        weight_adjustment(ind, 10, ctx, rng)


def test_weight_adjustment_zero_tries_and_perfect_skip(ctx):
    rng = np.random.default_rng(70)
    ind = soft_ind(ctx, rng)
    assert weight_adjustment(ind, 0, ctx, rng) is ind
    ind = Individual(ind.tree, 1.0)
    state = rng.bit_generator.state
    assert weight_adjustment(ind, 10, ctx, rng) is ind
    assert rng.bit_generator.state == state


def test_extension_mutation_grafts_an_or_root(ctx):
    rng = np.random.default_rng(71)
    extended = 0
    for _ in range(150):
        ind = soft_ind(ctx, rng)
        out = extension_mutation(ind, ctx, rng)
        assert out.fitness >= ind.fitness
        if out is ind:
            continue
        extended += 1
        root = out.tree.root
        assert root.kind is OpKind.OR
        assert root.weight == 1.0
        assert root.children[0] is ind.tree.root  # old tree kept verbatim
        assert validate(out.tree, 2) == []
        assert summary(root)[SUMMARY_BOOL_DEPTH] <= BOOL_DEPTH_CAP
    assert extended > 0


def test_extension_mutation_accepts_fitness_ties(ctx):
    # gating is non-strict, so ties are kept; over many draws some extension
    # with exactly equal fitness must appear
    rng = np.random.default_rng(72)
    tied = 0
    for _ in range(200):
        ind = soft_ind(ctx, rng)
        out = extension_mutation(ind, ctx, rng)
        if out is not ind and out.fitness == ind.fitness:
            tied += 1
    assert tied > 0


def test_extension_mutation_respects_caps(ctx):
    rng = np.random.default_rng(73)
    # boolean depth already at the cap: extension must return the original
    node = op(OpKind.GT, symbol(0), const(0.0), weight=1.0)
    for _ in range(BOOL_DEPTH_CAP):
        node = op(OpKind.NOT, node, weight=1.0)
    deep = scored(ctx, ExprTree(Variant.SOFT, node))
    for _ in range(30):
        assert extension_mutation(deep, ctx, rng) is deep

    # shallow but node-heavy tree: any graft would cross NODE_CAP while the
    # boolean depth stays well under the depth cap
    m = op(OpKind.LIN3, symbol(0), symbol(1), const(0.5), coeffs=(0.2, 0.3, 0.4))
    for _ in range(2):
        m = op(OpKind.LIN3, m, m, m, coeffs=(0.2, 0.3, 0.4))
    cmp = op(OpKind.GT, m, const(0.0), weight=1.0)
    wide = op(OpKind.OR3, op(OpKind.OR3, cmp, cmp, cmp, weight=1.0), cmp, cmp,
              weight=1.0)
    assert node_count(wide) > NODE_CAP
    assert summary(wide)[SUMMARY_BOOL_DEPTH] + 1 <= BOOL_DEPTH_CAP
    fat = scored(ctx, ExprTree(Variant.SOFT, wide))
    for _ in range(30):
        assert extension_mutation(fat, ctx, rng) is fat


def test_extension_mutation_rejects_hard_trees(ctx):
    rng = np.random.default_rng(74)
    ind = scored(ctx, random_tree(Variant.HARD, DEFAULT_BOUNDS, 2, CONST_RANGE, rng))
    with pytest.raises(TreeError, match="soft"):
        extension_mutation(ind, ctx, rng)


def test_gated_operators_draw_symbols_below_the_context_feature_count(circles, monkeypatch):
    # the trees start on feature 0 alone, so features 1 and 2 come from the
    # operators' draws, which must cover the context's three and no more
    x = circles.x
    wide = EvalContext(np.column_stack((x, x[:, 0] * x[:, 1])), circles.y)
    rng = np.random.default_rng(75)
    seen = set()
    real = EvalContext.fitness_of

    def recording(self, tree):
        seen.update(n.payload for _, n in iter_nodes(tree.root) if n.kind is OpKind.SYMBOL)
        return real(self, tree)

    monkeypatch.setattr(EvalContext, "fitness_of", recording)
    operators = {
        "positive_mutation": lambda ind: positive_mutation(ind, 10, wide, rng),
        "extension_mutation": lambda ind: extension_mutation(ind, wide, rng),
    }
    for name, step in operators.items():
        seen.clear()
        for _ in range(60):
            step(scored(wide, random_tree(Variant.SOFT, DEFAULT_BOUNDS, 1, CONST_RANGE, rng)))
        assert seen == {0, 1, 2}, name
