"""The activations a fit keeps on the nodes while it trains.

Inside a generation block every operator node evaluated stores its
activation array on itself, for the row matrix it was computed on. Every
evaluation served partly from stored arrays must give the bytes of an
uncached evaluation, and an array may serve only the matrix it was
computed on. Outside a block nothing is stored, and every block's arrays
are read again. A block traps overflow and nothing else, so the warnings
and errors of invalid operations are those of the caller's setting,
inside a block as outside one. A pickled node carries no array; SGP
scores its initial trees outside any block, drops the arrays of an
island's population when its generation ends, and places each migrant as
a copy; GP keeps its population's arrays from one generation to the
next; and the model a fit returns holds none.
"""

import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import softgp.evolve as evolve_mod
import softgp.genetics as genetics_mod
import softgp.tree as tree_mod
from softgp.data import gen_synthetic
from softgp.evolve import EvolutionConfig, fit_gp, fit_sgp
from softgp.genetics import EvalContext, Individual, mutate, positive_mutation
from softgp.metrics import balanced_accuracy, confusion
from softgp.tree import (
    DEFAULT_BOUNDS,
    SUMMARY_SLOTS,
    THRESHOLD,
    ExprTree,
    OpClass,
    OpKind,
    Variant,
    eval_batch,
    eval_trapped,
    op,
    random_tree,
    set_weight,
    summary,
    symbol,
    weight_at,
)

from treewalk import iter_nodes

SMALL = EvolutionConfig(max_generation=3, population_size=12, population_num=2,
                        migration_period=2)


def moons(scale=1.0, seed=4):
    ds = gen_synthetic("moons", 90, 0.3, seed=seed)
    return replace(ds, x=ds.x * scale)


def held(*roots):
    """The nodes under roots that hold an activation."""
    return [n for r in roots for _, n in iter_nodes(r) if n.acts is not None]


def one_worker(monkeypatch):
    # every island in this process, where arrays left on one island's
    # population would stay for the whole fit
    monkeypatch.setattr(evolve_mod, "_worker_count", lambda population_num: 1)


# --- whole fits -----------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scale, seed", [(1.0, 0), (1.0, 5), (1e200, 1), (1e200, 8)])
def test_every_evaluation_of_a_fit_equals_an_uncached_one(scale, seed, workers, monkeypatch):
    # at 1e200 products overflow, so many evaluations take the saturating
    # fallback with caching on. With one worker this process evolves every
    # island, and an island's population must drop its arrays when its
    # generation ends, before the next island's generation runs; with two,
    # the forked worker runs the same checks on its island
    monkeypatch.setattr(evolve_mod, "_worker_count", lambda population_num: workers)
    real, real_trapped = eval_batch, tree_mod.eval_trapped
    seen = {}

    def check(tree, x, got):
        assert got.tobytes() == real(tree, x).tobytes()
        seen["evaluations"] += 1
        return got

    def checked(tree, x):
        return check(tree, x, real(tree, x))

    def checked_trapped(tree, x, cache, finite):
        seen["hits"] += any(n.acts is not None and n.acts[0] is x
                            for _, n in iter_nodes(tree.root))
        return check(tree, x, real_trapped(tree, x, cache, finite))

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
        # SGP candidates hit the arrays their parents' subtrees hold, GP
        # children those carried over from the population they were bred from
        assert seen["hits"] > 0
        if scale > 1.0:
            assert seen["fallbacks"] > 0


def test_only_the_initial_sgp_build_evaluates_outside_a_generation_block(monkeypatch):
    # fitness_of evaluates through eval_batch only outside a block; a
    # generation's evaluations enter the trapping state once, for its block
    building = []
    uncached = []

    def refuse(tree, x):
        if not building:
            raise AssertionError("a training evaluation ran outside a generation block")
        uncached.append(tree)
        return eval_batch(tree, x)

    real_init = evolve_mod._Islands.__init__

    def init(self, *args):
        building.append(True)
        try:
            real_init(self, *args)
        finally:
            building.clear()

    monkeypatch.setattr(genetics_mod, "eval_batch", refuse)
    monkeypatch.setattr(evolve_mod._Islands, "__init__", init)
    one_worker(monkeypatch)
    for fit in (fit_gp, fit_sgp):
        assert fit(moons(), SMALL).generations_run == SMALL.max_generation
    # the SGP initial build scored each fresh tree once, and GP none
    assert len(uncached) == SMALL.population_size * SMALL.population_num == 24


@pytest.mark.parametrize("fit", [fit_gp, fit_sgp], ids=["gp", "sgp"])
def test_a_fitted_model_holds_no_activations(fit, monkeypatch):
    # a model is kept long after its fit, and its training arrays with it
    one_worker(monkeypatch)
    cls = fit(moons(), SMALL)
    assert summary(cls.model.root)[OpClass.BOOLEAN] > 0
    assert held(cls.model.root) == []


def test_the_cache_is_empty_between_island_generations(monkeypatch):
    one_worker(monkeypatch)
    owners = []
    drops = []

    def none_held():
        islands = owners[-1]
        for pop in islands.pops.values():
            assert held(*(ind.tree.root for ind in pop)) == []

    stored = []

    def set_acts(node, acts):
        if acts is not None:
            stored.append(id(node))
        real_set_acts(node, acts)

    real_set_acts = tree_mod._set_acts
    real_init = evolve_mod._Islands.__init__

    def init(self, *args):
        stored.clear()
        real_init(self, *args)
        # the initial build stores no array, not even for a moment
        assert stored == []
        owners.append(self)
        none_held()  # after the initial build

    real_select = evolve_mod.rank_select

    def select(pop, rng):
        # the first call of each island's generation: no island, whether
        # it ran before this one or not, holds an array
        none_held()
        return real_select(pop, rng)

    real_drop = evolve_mod.drop_activations

    def drop(root):
        drops.append(len(held(root)))
        real_drop(root)

    monkeypatch.setattr(tree_mod, "_set_acts", set_acts)
    monkeypatch.setattr(evolve_mod._Islands, "__init__", init)
    monkeypatch.setattr(evolve_mod, "rank_select", select)
    monkeypatch.setattr(evolve_mod, "drop_activations", drop)
    # with migration every generation, a migrant sharing its nodes with the
    # island it left would take that island the arrays its new island
    # stores on them
    migrating = [replace(SMALL, population_num=3, migration_period=1, seed=s) for s in (0, 2)]
    for cfg in [SMALL] + migrating:
        fit_sgp(moons(), cfg)
        none_held()
    assert len(owners) == 3
    # there were arrays to drop
    assert max(drops) > 0


def test_gp_population_nodes_hold_their_own_activations_between_generations(monkeypatch):
    train = moons()
    carried = []
    kept = computed = 0
    real_score = evolve_mod._score_gp

    def score(ctx, trees, parents):
        nonlocal kept, computed
        roots = {id(t.root): t.root for t in trees}.values()
        carried.append(len(held(*roots)))
        pop = real_score(ctx, trees, parents)
        # a kept parent's fitness and a computed one are both the fitness
        # a fresh context gives outside a block, where nothing is cached
        fresh = EvalContext(train.x, train.y)
        assert [ind.tree for ind in pop] == list(trees)
        for ind in pop:
            assert ind.fitness == fresh.fitness_of(ind.tree)
            if any(ind is p for p in parents):
                kept += 1
            else:
                computed += 1
        x = ctx._rows
        nodes = {id(n): n for r in roots for _, n in iter_nodes(r)}.values()
        for n in nodes:
            # an operator result is an array exactly when its subtree reads x
            if not n.children or all(m.kind is not OpKind.SYMBOL for _, m in iter_nodes(n)):
                assert n.acts is None
                continue
            assert n.acts is not None and n.acts[0] is x
            want = tree_mod._eval_saturating(ExprTree(Variant.HARD, n), x)
            assert n.acts[1].tobytes() == want.tobytes()
        return pop

    monkeypatch.setattr(evolve_mod, "_score_gp", score)
    cfg = EvolutionConfig(max_generation=10, population_size=30, seed=2)
    assert fit_gp(train, cfg).generations_run == 10
    assert len(carried) == 11
    assert kept > 0 and computed > 0
    # the first population starts with nothing; every later one brings in
    # the arrays of the nodes it shares with the one it was bred from
    assert carried[0] == 0 and min(carried[1:]) > 0


def test_gp_never_scores_a_mutant_that_is_a_parents_own_tree(monkeypatch):
    # every population tree was scored once, so a tree fitness_of has seen
    # is a parent's own; a mutant that reproduces one must keep its fitness
    seen, reproduced, rescored = {}, {}, []
    real_fitness, real_mutate = EvalContext.fitness_of, evolve_mod.mutate

    def fitness_of(self, tree):
        if id(tree) in reproduced:
            rescored.append(tree)
        seen[id(tree)] = tree
        return real_fitness(self, tree)

    def mutate(tree, *args):
        mut = real_mutate(tree, *args)
        if id(tree) in seen and mut == tree:
            reproduced[id(mut)] = mut
        return mut

    monkeypatch.setattr(EvalContext, "fitness_of", fitness_of)
    monkeypatch.setattr(evolve_mod, "mutate", mutate)
    cfg = EvolutionConfig(max_generation=10, population_size=30, seed=2)
    assert fit_gp(moons(), cfg).generations_run == 10
    assert reproduced
    assert rescored == []


# --- the node slot ----------------------------------------------------------------

def test_two_contexts_over_different_rows_never_share_activations():
    # the trees are shared, the rows are not: an array stored for one
    # matrix must never serve the other, though both have the same shape
    contexts = [EvalContext(ds.x, ds.y) for ds in (moons(seed=4), moons(seed=9))]
    assert contexts[0]._rows.shape == contexts[1]._rows.shape
    rng = np.random.default_rng(3)
    trees = [random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng) for _ in range(20)]
    for _ in range(3):
        for t in trees:
            for ctx in contexts:
                with ctx.generation():
                    got = eval_trapped(t, ctx._rows, True, ctx._finite)
                assert got.tobytes() == eval_batch(t, ctx._rows).tobytes()
        # edited copies share all but one path with the trees just scored
        edits = []
        for t in trees:
            k = int(rng.integers(0, summary(t.root)[SUMMARY_SLOTS]))
            edits.append(set_weight(t, k, weight_at(t, k) + 0.3))
        trees = edits


def test_a_pickled_node_carries_no_activation_or_summary():
    ds = moons()
    ctx = EvalContext(ds.x, ds.y)
    tree = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), np.random.default_rng(6))
    summary(tree.root)
    with ctx.generation():
        fitness = ctx.fitness_of(tree)
    assert held(tree.root) and tree.root.summary is not None
    back = pickle.loads(pickle.dumps(tree))
    assert back == tree
    assert held(back.root) == []
    assert all(n.summary is None for _, n in iter_nodes(back.root))
    assert ctx.fitness_of(back) == fitness


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


@pytest.mark.parametrize("layout", ["F", "C"])
def test_training_rows_are_one_column_major_gather(layout):
    # positive rows first, then negative ones, each in their order in x:
    # the matrix the mask gathers and concatenation built, in one copy
    rng = np.random.default_rng(5)
    x = np.asarray(rng.normal(size=(40, 3)), order=layout)
    x[3, 1], x[7, 2] = np.nan, -np.inf
    y = (rng.random(40) < 0.4).astype(np.int64)
    ctx = EvalContext(x, y)
    want = np.concatenate((x[y == 1], x[y == 0]))
    assert ctx._rows.flags.f_contiguous
    assert ctx._rows.shape == want.shape
    assert ctx._rows.tobytes(order="C") == want.tobytes(order="C")


def test_training_rows_copy_x_once():
    # one copy of x and an index per row: the peak stays well under the
    # two copies a gather followed by a relayout holds at once
    x = np.asfortranarray(np.random.default_rng(6).normal(size=(20_000, 16)))
    y = np.arange(20_000) % 3 == 0
    tracemalloc.start()
    try:
        EvalContext(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * x.nbytes, (peak, x.nbytes)


@pytest.mark.parametrize("invalid", ["warn", "ignore", "raise"])
@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_a_generation_block_keeps_values_and_warnings(scale, invalid, monkeypatch):
    # the block makes overflow raise once for all its evaluations and
    # leaves every other setting the caller's, so its saturating fallback
    # meets invalid operations under the caller's own setting: rows with
    # infinite cells (and, at 1e200, finite rows whose products overflow)
    # give the same bytes, the same warnings and the same errors inside a
    # block as outside one
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
                        fitness = ctx.fitness_of(tree)
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


def test_a_mutant_equal_to_its_parent_is_not_scored(monkeypatch):
    # one feature: every term mutation redraws symbol 0 as symbol 0
    ds = moons()
    ctx = EvalContext(ds.x[:, :1], ds.y)
    root = op(OpKind.GT, op(OpKind.ADD, symbol(0), symbol(0)), symbol(0), weight=0.8)
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT, root, weight=0.9))
    ind = Individual(tree, ctx.fitness_of(tree))
    scored = []
    monkeypatch.setattr(EvalContext, "fitness_of",
                        lambda self, tree: scored.append(tree) or 0.0)
    rng = np.random.default_rng(8)
    assert positive_mutation(ind, 10, ctx, rng) is ind
    # it drew exactly what ten calls of mutate draw, and scored only the
    # mutants that are not the parent's own tree
    twin = np.random.default_rng(8)
    want = []
    ties = 0
    for _ in range(10):
        mut = mutate(ind.tree, 1, ctx.const_range, twin)
        if mut is ind.tree:
            ties += 1
        else:
            assert mut != ind.tree
            want.append(mut)
    assert ties > 0 and want
    assert scored == want
    assert twin.bit_generator.state == rng.bit_generator.state
