"""The activation cache EvalContext keeps for a generation.

Every evaluation served partly from the cache must give the bytes of an
uncached evaluation; only trees that enter the population may fill it;
it holds nothing between SGP island generations; between GP generations
it carries the arrays of the population's operator nodes and nothing
else, with the roots that hold those nodes; and no id key may outlive
its node.
"""

import gc
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import softgp.evolve as evolve_mod
import softgp.genetics as genetics_mod
import softgp.tree as tree_mod
from softgp.data import gen_synthetic
from softgp.evolve import EvolutionConfig, fit_gp, fit_sgp
from softgp.genetics import (
    EvalContext,
    Individual,
    _draw_mutation,
    extension_mutation,
    positive_crossover,
    positive_mutation,
    weight_adjustment,
)
from softgp.metrics import balanced_accuracy, confusion
from softgp.tree import (
    DEFAULT_BOUNDS,
    SUMMARY_SLOTS,
    OP_CLASS,
    THRESHOLD,
    ExprTree,
    OpClass,
    OpKind,
    Variant,
    eval_batch,
    eval_trapped,
    op,
    random_tree,
    replace_subtree,
    set_weight,
    summary,
    symbol,
    weight_at,
)

from treewalk import iter_nodes

SMALL = EvolutionConfig(max_generation=3, population_size=12, population_num=2,
                        migration_period=2)


def moons(scale=1.0):
    ds = gen_synthetic("moons", 90, 0.3, seed=4)
    return replace(ds, x=ds.x * scale)


def node_ids(*roots):
    return {id(n) for r in roots for _, n in iter_nodes(r)}


class Recording(EvalContext):
    """An EvalContext that remembers every instance a fit creates."""

    made = []

    def __init__(self, x, y):
        super().__init__(x, y)
        Recording.made.append(self)


@pytest.fixture
def recorded(monkeypatch):
    Recording.made = []
    monkeypatch.setattr(evolve_mod, "EvalContext", Recording)
    return Recording.made


# --- whole fits -----------------------------------------------------------------

@pytest.mark.parametrize("scale, seed", [(1.0, 0), (1.0, 5), (1e200, 1), (1e200, 8)])
def test_every_evaluation_of_a_fit_equals_an_uncached_one(scale, seed, monkeypatch):
    # at 1e200 products overflow, so many evaluations take the saturating
    # fallback with a cache in use
    real, real_trapped = eval_batch, tree_mod.eval_trapped
    seen = {}

    def check(tree, x, memo, got):
        assert got.tobytes() == real(tree, x).tobytes()
        seen["evaluations"] += 1
        if memo:
            seen["hits"] += any(id(n) in memo for _, n in iter_nodes(tree.root))
        return got

    def checked(tree, x):
        return check(tree, x, None, real(tree, x))

    def checked_trapped(tree, x, memo, store, finite, invalid):
        # inside a generation block: the uncached reference runs with the
        # invalid setting the block was opened under (eval_batch sets over)
        got = real_trapped(tree, x, memo, store, finite, invalid)
        with np.errstate(invalid=invalid):
            return check(tree, x, memo, got)

    monkeypatch.setattr(genetics_mod, "eval_batch", checked)
    monkeypatch.setattr(genetics_mod, "eval_trapped", checked_trapped)
    real_pass = tree_mod._eval_saturating

    def counting(*args, **kwargs):
        seen["fallbacks"] += 1
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(tree_mod, "_eval_saturating", counting)
    for fit in (fit_sgp, fit_gp):
        seen.update(evaluations=0, hits=0, fallbacks=0)
        fit(moons(scale), replace(SMALL, seed=seed))
        assert seen["evaluations"] > 0
        # SGP candidates hit their parents' arrays, GP children the arrays
        # carried over from the population they were bred from
        assert seen["hits"] > 0
        if scale > 1.0:
            assert seen["fallbacks"] > 0


def test_no_training_evaluation_runs_outside_a_generation_block(monkeypatch):
    # fitness_of evaluates through eval_batch only outside a block
    def refuse(tree, x):
        raise AssertionError("a training evaluation ran outside a generation block")

    monkeypatch.setattr(genetics_mod, "eval_batch", refuse)
    monkeypatch.setattr(evolve_mod, "_worker_count", lambda population_num: 1)
    for fit in (fit_gp, fit_sgp):
        assert fit(moons(), SMALL).generations_run == SMALL.max_generation


def test_the_cache_is_empty_between_island_generations(recorded, monkeypatch):
    sizes = []

    def check_empty():
        ctx = recorded[0]
        assert ctx._cache is None and ctx._pinned == []

    real_best = evolve_mod._best

    def best(pop):
        # called after each island's generation and around migration
        check_empty()
        return real_best(pop)

    real_select = evolve_mod.rank_select

    def select(pop, rng):
        # the first call of an island's generation
        ctx = recorded[0]
        assert ctx._cache == {} and ctx._pinned == []
        return real_select(pop, rng)

    real_weights = evolve_mod.weight_adjustment

    def weights(ind, tries, ctx, rng):
        out = real_weights(ind, tries, ctx, rng)
        sizes.append(len(ctx._cache))
        return out

    monkeypatch.setattr(evolve_mod, "_best", best)
    monkeypatch.setattr(evolve_mod, "rank_select", select)
    monkeypatch.setattr(evolve_mod, "weight_adjustment", weights)
    fit_sgp(moons(), SMALL)
    check_empty()
    assert max(sizes) > 0


class Carrying(EvalContext):
    """An EvalContext that checks its carried cache when a keep block
    opens, after the prune, and when it closes, after scoring."""

    def __init__(self, x, y):
        super().__init__(x, y)
        self.carried_in = []  # entries each keep block opened with

    def check(self, keep):
        ops = {id(n): n for ind in keep for _, n in iter_nodes(ind.tree.root) if n.children}
        # every key is an operator node of the population, so the cache
        # never holds more entries than the population has operator nodes
        assert set(self._cache) <= set(ops)
        assert set(self._cache) <= node_ids(*self._pinned)
        # and its own: the bytes an uncached pass computes for that node
        want = {}
        for ind in keep:
            tree_mod._eval_saturating(ind.tree, self._rows, want, want, self._invalid)
        for key, acts in self._cache.items():
            assert acts.tobytes() == want[key].tobytes()

    @contextmanager
    def generation(self, keep=None):
        with super().generation(keep):
            if keep is not None:
                self.carried_in.append(len(self._cache))
                self.check(keep)
            yield
            if keep is not None:
                self.check(keep)


def test_gp_carries_the_population_s_activations_and_nothing_else(monkeypatch):
    # between blocks rank_select drops trees and variation makes new nodes,
    # which reuse the freed nodes' ids unless the carried pins hold them
    made = []
    monkeypatch.setattr(evolve_mod, "EvalContext",
                        lambda x, y: made.append(Carrying(x, y)) or made[-1])
    cfg = EvolutionConfig(max_generation=30, population_size=40, seed=2)
    assert fit_gp(moons(), cfg).generations_run == 30
    ctx, = made
    assert len(ctx.carried_in) == 31
    # the first block starts empty; later ones start from what they carry
    assert ctx.carried_in[0] == 0 and min(ctx.carried_in[1:]) > 0


# --- operators one at a time ------------------------------------------------------

@pytest.fixture
def ctx():
    ds = moons()
    return EvalContext(ds.x, ds.y)


def population(ctx, rng, n=16):
    return [ctx.evaluate(Individual(random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0),
                                                rng)))
            for _ in range(n)]


def test_rejected_candidates_never_enter_the_cache(ctx, monkeypatch):
    rng = np.random.default_rng(12)
    pop = population(ctx, rng)
    scored = []  # every candidate tree fitness_of scored, kept alive
    real = EvalContext.fitness_of

    def recording(self, tree, fresh=None):
        scored.append(tree)
        return real(self, tree, fresh)

    monkeypatch.setattr(EvalContext, "fitness_of", recording)
    operators = [
        lambda i: positive_crossover(pop[i], pop[(i + 1) % len(pop)], ctx, rng),
        lambda i: (positive_mutation(pop[i], 10, ctx, (-2.0, 2.0), rng),),
        lambda i: (weight_adjustment(pop[i], 10, ctx, rng),),
        lambda i: (extension_mutation(pop[i], ctx, (-2.0, 2.0), rng),),
    ]
    rejected = kept = 0
    with ctx.generation():
        for step in range(120):
            i = step % len(pop)
            before = len(scored)
            out = operators[step % 4](i)
            for ind in out:
                pop[i] = ind
            outputs = {id(ind.tree) for ind in out}
            pinned = node_ids(*ctx._pinned)
            assert set(ctx._cache) <= pinned
            for cand in scored[before:]:
                if id(cand) in outputs:
                    kept += 1
                    continue
                rejected += 1
                own = node_ids(cand.root) - pinned
                assert all(cand.root is not root for root in ctx._pinned)
                assert not own & set(ctx._cache)
    assert rejected > 50 and kept > 5


def test_no_stale_id_hit_after_many_dropped_candidates(ctx):
    rng = np.random.default_rng(3)
    x = ctx._rows
    uncached = lambda t: eval_batch(t, x).tobytes()  # noqa: E731
    with ctx.generation():
        for _ in range(60):
            # admitted trees are held only by the cache's pins
            t = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng)
            fresh = {}
            ctx.fitness_of(t, fresh)
            if rng.random() < 0.5:
                ctx.admit(t, fresh)
            else:
                ctx.fill(t)
            # edits of it, scored and dropped, as rejected candidates are
            for _ in range(5):
                k = int(rng.integers(0, summary(t.root)[SUMMARY_SLOTS]))
                cand = set_weight(t, k, weight_at(t, k) + 0.3)
                fresh = {}
                ctx.fitness_of(cand, fresh)
                assert fresh[id(cand.root)].tobytes() == uncached(cand)
            del t, cand, fresh
            gc.collect()
            # new trees reuse the freed memory, and so the ids
            for _ in range(5):
                new = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng)
                acts = eval_trapped(new, x, ctx._cache, None, True, ctx._invalid)
                assert acts.tobytes() == uncached(new)
        for root in ctx._pinned:
            t = ExprTree(Variant.SOFT, root)
            assert eval_trapped(t, x, ctx._cache, None, ctx._finite, ctx._invalid).tobytes() == \
                uncached(t)


# --- the smaller parts ------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
def test_fitness_matches_the_metrics_module_on_non_finite_rows():
    x = np.array([[np.inf, 1.0], [0.5, -np.inf], [2.0, 0.0], [-np.inf, 3.0], [1.0, 1.0]])
    y = np.array([1, 0, 1, 0, 0])
    ctx = EvalContext(x, y)
    assert not ctx._finite
    rng = np.random.default_rng(2)
    for _ in range(30):
        t = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng)
        preds = (eval_batch(t, x) >= THRESHOLD).astype(np.int64)
        assert ctx.fitness_of(t) == balanced_accuracy(confusion(y, preds))


@pytest.mark.parametrize("invalid", ["warn", "ignore", "raise"])
@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_a_generation_block_keeps_values_and_warnings(scale, invalid, monkeypatch):
    # the block makes overflow and invalid operations raise once for all its
    # evaluations, so its saturating fallback has to put back the invalid
    # setting the block was opened under: rows with infinite cells (and, at
    # 1e200, finite rows whose products overflow) give the same bytes, the
    # same warnings and the same errors inside a block as outside one
    x = scale * np.array([[np.inf, 1.0], [0.5, -np.inf], [2.0, 0.0], [-np.inf, 3.0],
                          [1.0, 1.0], [0.3, -0.2]])
    ctx = EvalContext(x, np.array([1, 0, 1, 0, 0, 1]))
    # x0 + -x0 is inf - inf on the rows where x0 is infinite
    cancel = op(OpKind.ADD, symbol(0), op(OpKind.NEG, symbol(0)))
    trees = [ExprTree(Variant.SOFT, op(OpKind.GT, cancel, symbol(1), weight=0.7))]
    rng = np.random.default_rng(3)
    trees += [random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng) for _ in range(25)]

    # the activations fitness_of computes: through eval_batch outside a
    # block, eval_trapped inside one
    acts = []

    def keeping(real):
        def evaluate(*args):
            acts.append(real(*args))
            return acts[-1]
        return evaluate

    monkeypatch.setattr(genetics_mod, "eval_batch", keeping(genetics_mod.eval_batch))
    monkeypatch.setattr(genetics_mod, "eval_trapped", keeping(genetics_mod.eval_trapped))

    def run(tree, in_block):
        acts.clear()
        with warnings.catch_warnings(record=True) as caught, np.errstate(invalid=invalid):
            warnings.simplefilter("always")
            try:
                if in_block:
                    with ctx.generation():
                        fitness = ctx.fitness_of(tree, {})
                else:
                    fitness = ctx.fitness_of(tree)
            except FloatingPointError as e:
                fitness = f"raised {e}"
        return (fitness, [a.tobytes() for a in acts],
                [(w.category, str(w.message)) for w in caught])

    outcomes = [run(t, False) for t in trees]
    assert [run(t, True) for t in trees] == outcomes
    if scale == 1.0:
        # the cancelling tree does reach an invalid operation
        assert {"warn": bool(outcomes[0][2]), "ignore": outcomes[0][2] == [],
                "raise": str(outcomes[0][0]).startswith("raised")}[invalid]


def test_a_mutant_equal_to_its_parent_is_not_scored(ctx, monkeypatch):
    # one feature: every term mutation redraws symbol 0 as symbol 0
    ctx = EvalContext(ctx.x[:, :1], ctx.y)
    root = op(OpKind.GT, op(OpKind.ADD, symbol(0), symbol(0)), symbol(0), weight=0.8)
    ind = ctx.evaluate(Individual(ExprTree(Variant.SOFT, op(OpKind.NOT, root, weight=0.9))))
    scored = []
    monkeypatch.setattr(EvalContext, "fitness_of",
                        lambda self, tree, fresh=None: scored.append(tree) or 0.0)
    rng = np.random.default_rng(8)
    assert positive_mutation(ind, 10, ctx, (-2.0, 2.0), rng) is ind
    # it drew exactly what ten calls of mutate draw, and scored only the
    # mutants whose target was not a term
    twin = np.random.default_rng(8)
    want = []
    terms = 0
    for _ in range(10):
        path, old, new = _draw_mutation(ind.tree, 1, (-2.0, 2.0), twin)
        if OP_CLASS[old.kind] is OpClass.TERM:
            terms += 1
            assert new == old
        else:
            want.append(ExprTree(Variant.SOFT, replace_subtree(ind.tree.root, path, new)))
    assert terms > 0
    assert scored == want
    assert twin.bit_generator.state == rng.bit_generator.state
