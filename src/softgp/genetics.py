"""Selection and variation operators.

An individual is an immutable scored tree. crossover and mutate map trees
to trees; the fitness-gated operators, which compare a candidate's fitness
with its parent's, take and return individuals, and draw the subtrees
they graft over the features and constant range of the EvalContext that
scores them. A variation that changes nothing returns its input object
(crossover its parents, mutate its tree), and neither the GP loop nor the
hill climbers score a tree that is still its parent's own.

Classical side: rank selection with elitism, class-matched subtree
crossover, and mutation of a node whose class is drawn from the fixed
table MUTATION_WEIGHTS (boolean 0.1, comparison 0.2, mathematical 0.3,
terms 0.5), normalised over the classes present in the tree.

Soft side: the fitness-gated operators - positive crossover (keep the
top two of parents plus children), positive mutation (first strict
improvement wins), weight adjustment (bounded hill climbing over weight
slots), and extension mutation (graft a new OR root, kept only when
fitness does not drop).
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .metrics import MetricsError
from .tree import (
    BOOL_DEPTH_CAP,
    DEFAULT_BOUNDS,
    NODE_CAP,
    OP_CLASS,
    THRESHOLD,
    ExprTree,
    Node,
    OpClass,
    OpKind,
    SUMMARY_BOOL_DEPTH,
    SUMMARY_MATH_CHAIN,
    SUMMARY_SIZE,
    SUMMARY_SLOTS,
    TreeError,
    Variant,
    const,
    eval_batch,
    eval_trapped,
    locate_node,
    random_subtree,
    replace_subtree,
    set_weight,
    summary,
    symbol,
    weight_at,
)


@dataclass(frozen=True, slots=True)
class Individual:
    """A tree and its fitness on the training split, both fixed when it is
    built: a changed tree is a new individual, so populations share them."""

    tree: ExprTree
    fitness: float


# Mutation picks the class of the node it replaces with these weights,
# indexed by OpClass and normalised over the classes the tree holds.
MUTATION_WEIGHTS = (0.1, 0.2, 0.3, 0.5)


def _pick_table(mask: int) -> Tuple[Tuple[OpClass, ...], List[float]]:
    # the classes in mask (a bit mask over OpClass) and the cumulative
    # table Generator.choice builds from p = w / w.sum() for them
    present = tuple(c for c in OpClass if mask >> c & 1)
    w = np.array([MUTATION_WEIGHTS[c] for c in present], dtype=np.float64)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return present, cdf.tolist()


# entry mask - 1 serves the trees whose classes are mask; every tree has a
# node, so mask 0 never occurs
_PICK_TABLES = tuple(_pick_table(mask) for mask in range(1, 1 << len(OpClass)))


def _pick_class(counts: Sequence[int], rng: np.random.Generator) -> OpClass:
    """Pick a class among those with a node (counts is indexed by class),
    with probability proportional to its MUTATION_WEIGHTS entry.

    Draws one random() and returns what rng.choice(len(present),
    p=w / w.sum()) returns for it, leaving the generator in the same state.
    """
    present, cdf = _PICK_TABLES[((counts[0] > 0) | (counts[1] > 0) << 1
                                 | (counts[2] > 0) << 2 | (counts[3] > 0) << 3) - 1]
    return present[bisect.bisect_right(cdf, rng.random())]


class EvalContext:
    """Binds one training split, and the features and constant range
    drawn over it (n_features and const_range, which the gated operators
    read), and scores trees on it.

    Fitness is the balanced accuracy of thresholded activations (>=
    THRESHOLD maps to label 1, as in prediction). The counts feed the
    formula of metrics.balanced_accuracy, so both routes agree bit for
    bit. Trees are evaluated on the rows reordered positives first, which
    makes the counts two slices; x is checked for non-finite cells once.

    While a generation() block is open, fitness_of evaluates with caching
    on: an activation lives on its node (tree.Node.acts), so a tree that
    shares subtrees with trees already scored on these rows evaluates only
    its new nodes, and an array is freed with its node. Rejected
    candidates take their new arrays with them; the arrays of the nodes a
    population holds stay until the caller drops them. Outside a block no
    activation is read or stored. Inside one, floating-point overflow
    raises (the state eval_batch's trapping pass runs under), entered once
    for the block rather than once per tree.

    One rule says where a fit stores arrays: a training evaluation stores
    them only inside a generation block, and every block's arrays are read
    again. fit_sgp opens a block for each island generation, whose
    candidates read the arrays their parents' subtrees hold, then drops
    the population's arrays and places each migrant as a copy, so they
    never cross island generations, islands or processes; its initial
    trees share no node and are scored outside any block. fit_gp opens a
    block for every generation, the initial one included, and keeps the
    arrays from one generation to the next, so a child evaluates only the
    nodes it does not share with the population it was bred from. Both
    build each Individual from a tree and its fitness.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be (rows, features) with one label per row")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary")
        pos = y == 1
        self.n_pos = int(pos.sum())
        self.n_neg = len(pos) - self.n_pos
        if self.n_pos == 0 or self.n_neg == 0:
            raise MetricsError("degenerate labels: training split contains a single class")
        self.n_features = x.shape[1]
        # constants are drawn commensurate with the data they are compared
        # against, over [-1,1] for a matrix with no cells; the range is not
        # checked here, since non-finite rows must still score
        self.const_range = (float(x.min()), float(x.max())) if x.size else (-1.0, 1.0)
        # activations are elementwise per row, so reordering the rows
        # reorders them and changes no count; stored column-major, so each
        # symbol reads a contiguous column
        self._rows = np.asfortranarray(np.concatenate((x[pos], x[~pos])))
        self._finite = bool(np.isfinite(self._rows).all())
        self._caching = False

    @contextmanager
    def generation(self):
        """Evaluate with caching on for the duration of the block (one
        generation)."""
        self._caching = True
        try:
            with np.errstate(over="raise"):
                yield
        finally:
            self._caching = False

    def fitness_of(self, tree: ExprTree) -> float:
        """The tree's fitness; inside a generation block it reads and
        stores activations on the tree's nodes, outside one it reads and
        stores none."""
        if self._caching:
            acts = eval_trapped(tree, self._rows, True, self._finite)
        else:
            acts = eval_batch(tree, self._rows)
        pred = acts >= THRESHOLD
        tp = int(np.count_nonzero(pred[:self.n_pos]))
        tn = self.n_neg - int(np.count_nonzero(pred[self.n_pos:]))
        return 0.5 * (tp / self.n_pos + tn / self.n_neg)


def rank_select(pop: Sequence[Individual], rng: np.random.Generator) -> List[Individual]:
    """Linear rank selection with elite size 1.

    The best individual always fills slot 0; the remaining size-1 slots
    are drawn with replacement, probability proportional to rank (worst
    1 ... best N). The sort is stable, so fitness ties keep population
    order and the draw stays deterministic under the seed. It returns the
    selected individuals themselves.
    """
    if not pop:
        raise ValueError("empty population")
    ranked = sorted(pop, key=lambda ind: ind.fitness)
    n = len(ranked)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    probs = ranks / ranks.sum()
    idx = rng.choice(n, size=n - 1, replace=True, p=probs)
    return [ranked[-1]] + [ranked[i] for i in idx]


def _bool_limit(*roots: Node) -> int:
    # The boolean depth variation may reach: DEFAULT_BOUNDS.bool_max, or
    # the deepest of the roots when extension has grown one past it, never
    # more than BOOL_DEPTH_CAP. Both callers have filled the root summaries.
    depth = max(summary(r)[SUMMARY_BOOL_DEPTH] for r in roots)
    return min(BOOL_DEPTH_CAP, max(DEFAULT_BOUNDS.bool_max, depth))


def crossover(t1: ExprTree, t2: ExprTree,
              rng: np.random.Generator) -> Tuple[ExprTree, ExprTree]:
    """Swap class-matched random subtrees between two trees.

    The crossover point p1 is uniform over t1's nodes; p2 is uniform over
    t2's nodes of the same operator class. Swaps that would push a path
    past the boolean/math depth limits are resampled (new p2) up to 20
    times, after which the parents are returned unchanged.
    """
    if t1.variant is not t2.variant:
        raise TreeError("cannot cross trees of different variants")
    path1, node1 = locate_node(t1.root, int(rng.integers(0, summary(t1.root)[SUMMARY_SIZE])))
    cls = OP_CLASS[node1.kind]
    n_candidates = summary(t2.root)[cls]
    if not n_candidates:
        return t1, t2
    bool_max = _bool_limit(t1.root, t2.root)
    math_max = DEFAULT_BOUNDS.math_max
    for _ in range(20):
        path2, node2 = locate_node(t2.root, int(rng.integers(0, n_candidates)), cls)
        c1 = replace_subtree(t1.root, path1, node2)
        c2 = replace_subtree(t2.root, path2, node1)
        # only the rebuilt path nodes of c1 and c2 fill a summary here
        s1 = summary(c1)
        s2 = summary(c2)
        if (s1[SUMMARY_BOOL_DEPTH] <= bool_max and s2[SUMMARY_BOOL_DEPTH] <= bool_max
                and s1[SUMMARY_MATH_CHAIN] <= math_max and s2[SUMMARY_MATH_CHAIN] <= math_max):
            return ExprTree(t1.variant, c1), ExprTree(t2.variant, c2)
    return t1, t2


def mutate(tree: ExprTree, n_features: int, const_range: Tuple[float, float],
           rng: np.random.Generator) -> ExprTree:
    """Mutate one node of a class picked by MUTATION_WEIGHTS.

    Boolean/comparison/mathematical targets are replaced by fresh random
    subtrees of the same class sized to respect the path depth limits.
    Term targets mutate in place: a symbol re-draws its feature index, a
    constant c becomes c + r with r standard normal. A replacement equal
    to its target changes nothing, and tree itself is returned.
    """
    counts = summary(tree.root)
    cls = _pick_class(counts, rng)
    path, node = locate_node(tree.root, int(rng.integers(0, counts[cls])), cls)

    if cls is OpClass.TERM:
        if node.kind is OpKind.SYMBOL:
            new: Node = symbol(int(rng.integers(0, n_features)))
        else:
            new = const(float(node.payload) + float(rng.standard_normal()))
    elif cls is OpClass.COMPARISON:
        new = random_subtree(cls, tree.variant, DEFAULT_BOUNDS, n_features, const_range, rng,
                             depth_budget=DEFAULT_BOUNDS.math_max)
    else:
        if cls is OpClass.BOOLEAN:
            # every ancestor of a boolean node is boolean
            budget = _bool_limit(tree.root) - len(path)
        else:
            maths_above = 0
            cursor = tree.root
            for i in path:
                if OP_CLASS[cursor.kind] is OpClass.MATHEMATICAL:
                    maths_above += 1
                cursor = cursor.children[i]
            budget = DEFAULT_BOUNDS.math_max - maths_above
        new = random_subtree(cls, tree.variant, DEFAULT_BOUNDS, n_features, const_range, rng,
                             depth_budget=max(1, budget))
    if new == node:
        return tree
    return ExprTree(tree.variant, replace_subtree(tree.root, path, new))


def positive_crossover(ind1: Individual, ind2: Individual, ctx: EvalContext,
                       rng: np.random.Generator) -> Tuple[Individual, Individual]:
    """Crossover that never loses ground: returns the two fittest of
    {parents, children}, preferring children on ties for diversity.

    A child evaluates only its nodes that hold no activation yet, so each
    subtree the children share with their parents is evaluated once."""
    c1, c2 = crossover(ind1.tree, ind2.tree, rng)
    k1 = Individual(c1, ctx.fitness_of(c1))
    k2 = Individual(c2, ctx.fitness_of(c2))
    # children come first and the sort is stable, so they win fitness ties
    pool = [k1, k2, ind1, ind2]
    pool.sort(key=lambda ind: -ind.fitness)
    return pool[0], pool[1]


def _first_gain(ind: Individual, max_tries: int, ctx: EvalContext,
                draw: Callable[[], ExprTree]) -> Individual:
    # the hill climbers' loop: the first of up to max_tries drawn trees that
    # strictly beats ind, else ind. A draw that is ind's own tree can only
    # tie, so it is not scored, and at fitness 1 no draw is made at all.
    if ind.fitness >= 1.0:
        return ind
    for _ in range(max_tries):
        candidate = draw()
        if candidate is not ind.tree:
            f = ctx.fitness_of(candidate)
            if f > ind.fitness:
                return Individual(candidate, f)
    return ind


def positive_mutation(ind: Individual, max_tries: int, ctx: EvalContext,
                      rng: np.random.Generator) -> Individual:
    """Return the first of up to max_tries mutants (drawn by mutate over
    ctx's features and constant range) that strictly improves fitness,
    else the original. Mutants share every untouched subtree with the
    original, so they evaluate only their new nodes."""
    return _first_gain(ind, max_tries, ctx,
                       lambda: mutate(ind.tree, ctx.n_features, ctx.const_range, rng))


def weight_adjustment(ind: Individual, max_tries: int, ctx: EvalContext,
                      rng: np.random.Generator) -> Individual:
    """Hill climbing over weight slots.

    Each try perturbs one uniformly chosen weight of the original tree by
    Normal(0, 0.1) (operator weights clamp to [0,1]) and accepts the first
    strict fitness improvement. Candidates share all untouched subtrees
    with the original, so their evaluation reuses the activations those
    subtrees hold.
    """
    tree = ind.tree
    if tree.variant is not Variant.SOFT:
        raise TreeError("weight adjustment requires a soft tree")
    n_slots = summary(tree.root)[SUMMARY_SLOTS]
    if not n_slots:
        return ind

    def draw() -> ExprTree:
        k = int(rng.integers(0, n_slots))
        return set_weight(tree, k, weight_at(tree, k) + float(rng.normal(0.0, 0.1)))

    return _first_gain(ind, max_tries, ctx, draw)


def extension_mutation(ind: Individual, ctx: EvalContext,
                       rng: np.random.Generator) -> Individual:
    """Graft a new OR root joining the tree with a fresh random subtree
    over ctx's features and constant range.

    The new root's weight is 1.0 so the old behavior is preserved wherever
    the old branch dominates. The result is kept only if fitness does not
    decrease. Extension never grows a tree past BOOL_DEPTH_CAP, the absolute
    depth cap, or past NODE_CAP, which bounds only this operator: a tree
    already over NODE_CAP is returned unchanged.
    """
    if ind.tree.variant is not Variant.SOFT:
        raise TreeError("extension mutation requires a soft tree")
    graft = random_subtree(OpClass.BOOLEAN, Variant.SOFT, DEFAULT_BOUNDS, ctx.n_features,
                           ctx.const_range, rng, depth_budget=DEFAULT_BOUNDS.bool_max)
    root = Node(OpKind.OR, (ind.tree.root, graft), weight=1.0)
    s = summary(root)
    if s[SUMMARY_BOOL_DEPTH] > BOOL_DEPTH_CAP or s[SUMMARY_SIZE] > NODE_CAP:
        return ind
    extended = ExprTree(Variant.SOFT, root)
    f = ctx.fitness_of(extended)
    if f >= ind.fitness:
        return Individual(extended, f)
    return ind
