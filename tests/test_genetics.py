from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from softgp.genetics import (
    EvalContext,
    Individual,
    _draw_mutation,
    crossover,
    mutate,
    rank_select,
)
from softgp.metrics import MetricsError, balanced_accuracy, confusion
from softgp.sexpr import format_tree
from softgp.tree import (
    DEFAULT_BOUNDS,
    ExprTree,
    OP_CLASS,
    GenBounds,
    OpClass,
    OpKind,
    TreeError,
    Variant,
    const,
    SUMMARY_BOOL_DEPTH,
    SUMMARY_MATH_CHAIN,
    eval_batch,
    node_count,
    op,
    random_tree,
    replace_subtree,
    summary,
    symbol,
    validate,
)

BOOL_KINDS = {OpKind.OR, OpKind.AND, OpKind.NOT, OpKind.OR3, OpKind.AND3}
CMP_KINDS = {OpKind.GT, OpKind.LT}
MATH_KINDS = {OpKind.ADD, OpKind.MUL, OpKind.NEG, OpKind.SIGM, OpKind.LIN2, OpKind.LIN3}


def class_of(kind):
    if kind in BOOL_KINDS:
        return "boolean"
    if kind in CMP_KINDS:
        return "comparison"
    if kind in MATH_KINDS:
        return "mathematical"
    return "terms"


def replaced_class(original, mutant):
    """Recover which node class a mutation replaced, by structural diff.

    Sound for trees whose math nodes are all LIN2/LIN3: fresh boolean and
    comparison subtrees carry fresh uniform weights, fresh LIN roots carry
    fresh coefficients, and term payload updates are continuous draws, so
    the replacement point itself is the first local mismatch (collisions
    have probability zero). An unchanged tree means a symbol re-drew its
    own feature index."""
    def walk(a, b):
        if a == b:
            return None
        if (a.kind != b.kind or a.weight != b.weight or a.coeffs != b.coeffs
                or a.payload != b.payload or len(a.children) != len(b.children)):
            return class_of(a.kind)
        for ca, cb in zip(a.children, b.children):
            hit = walk(ca, cb)
            if hit is not None:
                return hit
        raise AssertionError("trees differ but no mismatch found")

    got = walk(original.root, mutant.root)
    return "terms" if got is None else got


def lin2(a, b, c1, c2):
    return op(OpKind.LIN2, c1, c2, coeffs=(a, b))


def attribution_tree():
    # all math nodes are LIN so replaced_class() attribution is exact
    return ExprTree(Variant.SOFT, op(
        OpKind.OR,
        op(OpKind.GT, lin2(0.3, -0.4, symbol(0), const(1.5)),
           lin2(0.9, 0.2, symbol(1), const(-0.5)), weight=0.25),
        op(OpKind.NOT,
           op(OpKind.LT,
              op(OpKind.LIN3, symbol(0), symbol(1), const(2.0), coeffs=(0.1, 0.2, 0.3)),
              lin2(-0.7, 0.6, symbol(1), const(0.25)), weight=0.6),
           weight=0.75),
        weight=0.5))


@pytest.fixture
def rows():
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 2.0, size=(40, 2))
    return x, (x[:, 0] + x[:, 1] > 0).astype(np.int64)


@pytest.fixture
def ctx(rows):
    return EvalContext(*rows)


# --- EvalContext ----------------------------------------------------------------

def test_context_fitness_matches_metrics_route(rows, ctx):
    x, y = rows
    rng = np.random.default_rng(31)
    for variant in (Variant.HARD, Variant.SOFT):
        for _ in range(100):
            tree = random_tree(variant, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng)
            preds = (eval_batch(tree, x) >= 0.5).astype(np.int64)
            expected = balanced_accuracy(confusion(y, preds))
            assert ctx.fitness_of(tree) == expected


def test_context_draws_constants_over_the_range_of_its_cells(rows, ctx):
    x, y = rows
    assert ctx.n_features == 2
    assert ctx.const_range == (float(x.min()), float(x.max()))
    # a matrix with no cells falls back to [-1, 1]
    empty = EvalContext(np.empty((2, 0)), np.array([1, 0]))
    assert (empty.n_features, empty.const_range) == (0, (-1.0, 1.0))


def test_context_keeps_an_infinite_range_and_still_scores():
    # the range is not checked where it is built; the fits check it
    x = np.array([[np.inf, 1.0], [0.5, -2.0], [2.0, 0.0], [-np.inf, 3.0]])
    y = np.array([1, 0, 1, 0])
    ctx = EvalContext(x, y)
    assert ctx.const_range == (-np.inf, np.inf)
    tree = ExprTree(Variant.SOFT, op(OpKind.GT, symbol(0), const(1.0), weight=1.0))
    preds = (eval_batch(tree, x) >= 0.5).astype(np.int64)
    assert ctx.fitness_of(tree) == balanced_accuracy(confusion(y, preds)) == 1.0


def test_context_threshold_tie_counts_positive():
    x = np.array([[1.0], [1.0], [-1.0]])
    y = np.array([1, 0, 0])
    ctx = EvalContext(x, y)
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                     op(OpKind.LT, symbol(0), const(0.0), weight=1.0),
                                     weight=0.5))
    # activations are 0.5, 0.5, 0.0; the 0.5s must label 1
    assert ctx.fitness_of(tree) == 0.75


def test_context_rejects_bad_labels():
    x = np.zeros((4, 2))
    with pytest.raises(MetricsError, match="single class"):
        EvalContext(x, np.array([1, 1, 1, 1]))
    with pytest.raises(ValueError, match="binary"):
        EvalContext(x, np.array([0, 1, 2, 1]))
    with pytest.raises(ValueError, match="one label per row"):
        EvalContext(x, np.array([0, 1]))


def test_an_individual_is_an_immutable_scored_tree(ctx):
    tree = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), np.random.default_rng(32))
    with pytest.raises(TypeError):
        Individual(tree)  # there is no unscored individual
    ind = Individual(tree, ctx.fitness_of(tree))
    with pytest.raises(FrozenInstanceError):
        ind.fitness = 0.123
    with pytest.raises(FrozenInstanceError):
        ind.tree = tree


# --- rank selection ---------------------------------------------------------------

def make_pop(ctx, n, variant=Variant.SOFT, seed=33):
    rng = np.random.default_rng(seed)
    trees = [random_tree(variant, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng) for _ in range(n)]
    return [Individual(t, ctx.fitness_of(t)) for t in trees]


def test_rank_select_keeps_the_best_in_slot_zero(ctx):
    pop = make_pop(ctx, 30)
    out = rank_select(pop, np.random.default_rng(1))
    assert len(out) == len(pop)
    assert out[0].fitness == max(ind.fitness for ind in pop)
    # the selected individuals themselves, neither copies nor mutants
    assert all(any(ind is p for p in pop) for ind in out)


def test_rank_select_prefers_higher_ranks(ctx):
    pop = make_pop(ctx, 20)
    ranked = sorted(pop, key=lambda i: i.fitness)
    best_tree, worst_tree = ranked[-1].tree, ranked[0].tree
    rng = np.random.default_rng(2)
    hits_best = hits_worst = 0
    for _ in range(300):
        out = rank_select(pop, rng)
        hits_best += sum(1 for i in out[1:] if i.tree is best_tree)
        hits_worst += sum(1 for i in out[1:] if i.tree is worst_tree)
    # linear ranks: the best is 20x more likely than the worst
    assert hits_best > 10 * max(hits_worst, 1)


def test_rank_select_ranks_ties_by_population_order(ctx):
    pop = make_pop(ctx, 12)
    tied = [Individual(ind.tree, 0.5) for ind in pop]
    out = rank_select(tied, np.random.default_rng(8))
    # with every fitness equal, rank i is population slot i
    n = len(tied)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    idx = np.random.default_rng(8).choice(n, size=n - 1, replace=True, p=ranks / ranks.sum())
    assert [i.tree for i in out] == [tied[-1].tree] + [tied[i].tree for i in idx]
    assert all(i.fitness == 0.5 for i in out)


def test_rank_select_is_deterministic(ctx):
    pop = make_pop(ctx, 15)
    a = rank_select(pop, np.random.default_rng(7))
    b = rank_select(pop, np.random.default_rng(7))
    assert [format_tree(i.tree) for i in a] == [format_tree(i.tree) for i in b]


def test_rank_select_refuses_an_empty_population():
    with pytest.raises(ValueError, match="empty"):
        rank_select([], np.random.default_rng(0))


# --- crossover ---------------------------------------------------------------------

def test_crossover_conserves_total_node_count():
    rng = np.random.default_rng(41)
    for variant in (Variant.HARD, Variant.SOFT):
        for _ in range(300):
            t1 = random_tree(variant, DEFAULT_BOUNDS, 3, (-1.0, 1.0), rng)
            t2 = random_tree(variant, DEFAULT_BOUNDS, 3, (-1.0, 1.0), rng)
            c1, c2 = crossover(t1, t2, rng)
            assert node_count(c1.root) + node_count(c2.root) == \
                node_count(t1.root) + node_count(t2.root)
            assert validate(c1, 3) == []
            assert validate(c2, 3) == []


def test_crossover_respects_depth_limits():
    rng = np.random.default_rng(42)
    for _ in range(300):
        t1 = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 3, (-1.0, 1.0), rng)
        t2 = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 3, (-1.0, 1.0), rng)
        c1, c2 = crossover(t1, t2, rng)
        limit = max(DEFAULT_BOUNDS.bool_max, summary(t1.root)[SUMMARY_BOOL_DEPTH],
                    summary(t2.root)[SUMMARY_BOOL_DEPTH])
        assert summary(c1.root)[SUMMARY_BOOL_DEPTH] <= limit
        assert summary(c2.root)[SUMMARY_BOOL_DEPTH] <= limit
        assert summary(c1.root)[SUMMARY_MATH_CHAIN] <= DEFAULT_BOUNDS.math_max
        assert summary(c2.root)[SUMMARY_MATH_CHAIN] <= DEFAULT_BOUNDS.math_max


def test_crossover_rejects_variant_mixing():
    rng = np.random.default_rng(43)
    t1 = random_tree(Variant.HARD, DEFAULT_BOUNDS, 2, (-1.0, 1.0), rng)
    t2 = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-1.0, 1.0), rng)
    with pytest.raises(TreeError, match="variant"):
        crossover(t1, t2, rng)


def test_crossover_is_deterministic():
    rng1, rng2 = np.random.default_rng(44), np.random.default_rng(44)
    gen = np.random.default_rng(45)
    t1 = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-1.0, 1.0), gen)
    t2 = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-1.0, 1.0), gen)
    a = crossover(t1, t2, rng1)
    b = crossover(t1, t2, rng2)
    assert format_tree(a[0]) == format_tree(b[0])
    assert format_tree(a[1]) == format_tree(b[1])


# --- mutation ----------------------------------------------------------------------

def test_mutants_stay_valid():
    rng = np.random.default_rng(51)
    for variant in (Variant.HARD, Variant.SOFT):
        for _ in range(300):
            tree = random_tree(variant, DEFAULT_BOUNDS, 3, (-1.0, 1.0), rng)
            mut = mutate(tree, 3, (-1.0, 1.0), rng)
            assert validate(mut, 3) == [], format_tree(mut)
            assert mut.variant is variant
            assert summary(mut.root)[SUMMARY_BOOL_DEPTH] <= DEFAULT_BOUNDS.bool_max
            assert summary(mut.root)[SUMMARY_MATH_CHAIN] <= DEFAULT_BOUNDS.math_max


def test_mutation_class_frequencies_match_the_table():
    # boolean 0.1, comparison 0.2, mathematical 0.3, terms 0.5, normalized
    expected = {"boolean": 1 / 11, "comparison": 2 / 11,
                "mathematical": 3 / 11, "terms": 5 / 11}
    rng = np.random.default_rng(52)
    original = attribution_tree()
    n = 10_000
    seen = {k: 0 for k in expected}
    for _ in range(n):
        mut = mutate(original, 2, (-1.0, 1.0), rng)
        seen[replaced_class(original, mut)] += 1
    for cls, want in expected.items():
        assert seen[cls] / n == pytest.approx(want, abs=0.02), cls


def test_symbol_mutation_redraws_the_feature_index():
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                     op(OpKind.GT, symbol(3), const(0.5), weight=1.0),
                                     weight=1.0))
    rng = np.random.default_rng(54)
    counts = np.zeros(7, dtype=int)
    for _ in range(8000):
        _, old, new = _draw_mutation(tree, 7, (-1.0, 1.0), rng)
        if old.kind is OpKind.SYMBOL:  # a term mutation that targets the symbol
            counts[new.payload] += 1
    total = counts.sum()
    assert total > 2000
    for i in range(7):
        assert counts[i] / total == pytest.approx(1 / 7, abs=0.04), i


def test_const_mutation_adds_standard_normal_noise():
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                     op(OpKind.GT, const(10.0), const(10.0), weight=1.0),
                                     weight=1.0))
    rng = np.random.default_rng(55)
    deltas = []
    terms = 0
    while terms < 3000:
        path, old, new = _draw_mutation(tree, 2, (-1.0, 1.0), rng)
        if OP_CLASS[old.kind] is not OpClass.TERM:
            continue
        terms += 1
        mut = replace_subtree(tree.root, path, new)
        for child in mut.children[0].children:
            if child.payload != 10.0:
                deltas.append(child.payload - 10.0)
    deltas = np.asarray(deltas)
    assert len(deltas) == 3000  # exactly one constant changes per term mutation
    assert deltas.mean() == pytest.approx(0.0, abs=0.08)
    assert deltas.std() == pytest.approx(1.0, abs=0.08)


def test_mutation_never_exceeds_math_budget_mid_chain():
    # a term at the bottom of a full-length math chain can only be replaced
    # by another term, never by a chain that would overflow the budget
    chain = symbol(0)
    for _ in range(DEFAULT_BOUNDS.math_max):
        chain = op(OpKind.NEG, chain)
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                     op(OpKind.GT, chain, const(0.0), weight=1.0),
                                     weight=1.0))
    rng = np.random.default_rng(56)
    for _ in range(400):
        mut = mutate(tree, 2, (-1.0, 1.0), rng)
        assert summary(mut.root)[SUMMARY_MATH_CHAIN] <= DEFAULT_BOUNDS.math_max
