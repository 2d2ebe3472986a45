"""GP and SGP evolution loops and the trained-classifier surface.

fit_gp runs the canonical single-population loop (rank selection,
pairwise crossover, mutation). fit_sgp runs population_num independent
islands whose generations apply only fitness-gated operators (positive
crossover, positive mutation, weight adjustment on everyone, extension),
with the best individual of each island migrating one step around the
ring every migration_period generations, displacing the target island's
worst. Both loops stop once the best fitness reaches 1 or the generation
budget is spent, and return the best individual ever seen.

Island i draws from the i-th child of np.random.SeedSequence(seed), so
island loops are independent, no two seeds share an island stream, and
the whole fit is reproducible from (dataset, config, seed).

fit_sgp runs its islands on W processes: this one, which owns the
islands i = 0, W, 2W, ..., and W-1 workers forked for the length of the
fit, worker k owning the islands i = k (mod W). W is population_num or the
number of CPUs this process may run on, whichever is smaller, so
`taskset -c 0` makes a fit sequential. W is 1, and no process is started,
for a single island, where the fork start method does not exist, and
inside a daemonic process or one running other threads. Islands meet only
between generations, where this process keeps the early-stop test and the
best ever seen, in island order, and routes each island's migrant to the
owner of the next island; the model a seed yields therefore does not
depend on W. A migrant arrives as its own copy at every W, as one sent
between processes does.
"""

from __future__ import annotations

import enum
import math
import multiprocessing
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import Dataset
from .genetics import (
    EvalContext,
    Individual,
    crossover,
    extension_mutation,
    mutate,
    positive_crossover,
    positive_mutation,
    rank_select,
    weight_adjustment,
)
from .metrics import balanced_accuracy, confusion
from .tree import (
    DEFAULT_BOUNDS,
    THRESHOLD,
    ExprTree,
    Variant,
    drop_activations,
    eval_batch,
    random_tree,
)


class EvolveError(ValueError):
    """Raised for invalid evolution configs or prediction inputs."""


class Algo(enum.Enum):
    GP = "gp"
    SGP = "sgp"


@dataclass(frozen=True)
class EvolutionConfig:
    max_generation: int = 100
    population_size: int = 100
    population_num: int = 4
    cx_prob: float = 0.5
    mut_prob: float = 0.5
    ext_prob: float = 0.2
    migration_period: int = 5
    max_tries_mutation: int = 10
    max_tries_weight: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.max_generation < 0:
            raise EvolveError("max_generation must be >= 0")
        if self.population_size < 1 or self.population_num < 1:
            raise EvolveError("population sizes must be >= 1")
        for name in ("cx_prob", "mut_prob", "ext_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise EvolveError(f"{name} must be in [0,1], got {v}")
        if self.migration_period < 1:
            raise EvolveError("migration_period must be >= 1")
        if self.max_tries_mutation < 0 or self.max_tries_weight < 0:
            raise EvolveError("max_tries must be >= 0")
        if self.seed < 0:
            raise EvolveError(f"seed must be nonnegative, got {self.seed}")


# Config files are flat "key = value" lines whose keys are the fields, each
# value converted to the type of its field's default.
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(EvolutionConfig)}


def parse_config(text: str, base: Optional[EvolutionConfig] = None) -> EvolutionConfig:
    """Parse flat `key = value` config text over a base config.

    Keys are EvolutionConfig field names; unknown keys are errors. Blank
    lines and lines starting with # are skipped.
    """
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise EvolveError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        convert = _CONFIG_TYPES.get(key)
        if convert is None:
            raise EvolveError(f"config line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = convert(value)
        except ValueError:
            raise EvolveError(f"config line {lineno}: bad value for {key!r}: {value!r}") from None
    return replace(base or EvolutionConfig(), **overrides)


def load_config(path, base: Optional[EvolutionConfig] = None) -> EvolutionConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise EvolveError(f"cannot read config {path}: {e}") from None
    return parse_config(text, base)


@dataclass(frozen=True)
class Classifier:
    algo: Algo
    model: ExprTree
    threshold: float
    train_fitness: float
    generations_run: int
    config: EvolutionConfig
    n_features: int


def _const_range(x: np.ndarray) -> Tuple[float, float]:
    # Constants are drawn commensurate with the data they will be compared
    # against; fall back to [-1,1] for degenerate input.
    if x.size == 0:
        return (-1.0, 1.0)
    lo, hi = float(x.min()), float(x.max())
    # uniform draws over [lo, hi] need a finite width; NaN cells fail here too
    if not math.isfinite(hi - lo):
        raise EvolveError(f"feature values span [{lo!r}, {hi!r}], which is not a finite range")
    return (lo, hi)


# Individuals are picked by fitness alone. max and min return the first of
# equal keys, so the best or worst of equally fit individuals is the first
# in order, a rule every seed's model depends on.
_FITNESS = attrgetter("fitness")


def _score_gp(ctx: EvalContext, trees: Sequence[ExprTree],
              parents: Sequence[Individual]) -> List[Individual]:
    """One generation's individuals: trees bred from parents (none for the
    first). A tree that is still a parent's own tree object keeps that
    parent's fitness; every other tree is scored. The nodes a child shares
    with the previous population still hold their activations, so it
    evaluates only its new nodes, and the arrays stay on the population's
    nodes for the next generation."""
    # the parents hold their trees, so no id here is reused meanwhile
    scored = {id(p.tree): p for p in parents}
    with ctx.generation():
        return [scored[id(t)] if id(t) in scored else Individual(t, ctx.fitness_of(t))
                for t in trees]


def fit_gp(train: Dataset, cfg: EvolutionConfig) -> Classifier:
    """Evolve a hard-variant classifier on the training split."""
    ctx = EvalContext(train.x, train.y)
    rng = np.random.default_rng(cfg.seed)
    n = ctx.n_features
    const_range = _const_range(ctx.x)

    pop = _score_gp(ctx, [random_tree(Variant.HARD, DEFAULT_BOUNDS, n, const_range, rng)
                          for _ in range(cfg.population_size)], ())
    best_ever = max(pop, key=_FITNESS)
    gen = 0
    while best_ever.fitness < 1.0 and gen < cfg.max_generation:
        parents = rank_select(pop, rng)
        trees = [ind.tree for ind in parents]
        for i in range(0, len(trees) - 1, 2):
            if rng.random() < cfg.cx_prob:
                trees[i], trees[i + 1] = crossover(trees[i], trees[i + 1], rng)
        for i in range(len(trees)):
            if rng.random() < cfg.mut_prob:
                trees[i] = mutate(trees[i], n, const_range, rng)
        pop = _score_gp(ctx, trees, parents)
        gen += 1
        best_ever = max((best_ever, *pop), key=_FITNESS)
    # the model must not hold training arrays for as long as it is kept
    drop_activations(best_ever.tree.root)
    return Classifier(Algo.GP, best_ever.tree, THRESHOLD, best_ever.fitness, gen, cfg, n)


class _Islands:
    """The islands of one SGP fit that one process evolves: i = k, k + w,
    k + 2w, ... below population_num. Each method returns the best
    individual of each of them, keyed by island."""

    def __init__(self, ctx: EvalContext, const_range: Tuple[float, float],
                 cfg: EvolutionConfig, k: int, w: int):
        self.ctx, self.const_range, self.cfg = ctx, const_range, cfg
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.population_num)
        self.rngs = {i: np.random.default_rng(seeds[i])
                     for i in range(k, cfg.population_num, w)}
        self.pops: Dict[int, List[Individual]] = {i: [] for i in self.rngs}
        # outside a generation block: a fresh tree shares no node, so it
        # is scored without storing an array
        for i, rng in self.rngs.items():
            for _ in range(cfg.population_size):
                tree = random_tree(Variant.SOFT, DEFAULT_BOUNDS, ctx.n_features,
                                   const_range, rng)
                self.pops[i].append(Individual(tree, ctx.fitness_of(tree)))

    def bests(self) -> Dict[int, Individual]:
        return {i: max(pop, key=_FITNESS) for i, pop in self.pops.items()}

    def evolve(self) -> Dict[int, Individual]:
        """Run one generation on each island."""
        ctx, cfg, const_range = self.ctx, self.cfg, self.const_range
        for i, rng in self.rngs.items():
            # the operators share activations within one island's generation
            with ctx.generation():
                pop = rank_select(self.pops[i], rng)
                for j in range(0, len(pop) - 1, 2):
                    if rng.random() < cfg.cx_prob:
                        pop[j], pop[j + 1] = positive_crossover(pop[j], pop[j + 1], ctx, rng)
                for j in range(len(pop)):
                    if rng.random() < cfg.mut_prob:
                        pop[j] = positive_mutation(pop[j], cfg.max_tries_mutation, ctx,
                                                   const_range, rng)
                for j in range(len(pop)):
                    pop[j] = weight_adjustment(pop[j], cfg.max_tries_weight, ctx, rng)
                for j in range(len(pop)):
                    if rng.random() < cfg.ext_prob:
                        pop[j] = extension_mutation(pop[j], ctx, const_range, rng)
            # carrying the arrays to the next generation costs more than it
            # saves; dropping them also keeps them out of migrants
            for ind in pop:
                drop_activations(ind.tree.root)
            self.pops[i] = pop
        return self.bests()

    def migrate(self, migrants: Dict[int, Individual]) -> Dict[int, Individual]:
        """Put a copy of each migrant, as the pipe from another process
        delivers it, in place of the worst of the island it is keyed by: a
        shared node would take this island's arrays into the island it left."""
        for i, migrant in migrants.items():
            pop = self.pops[i]
            worst = min(range(len(pop)), key=lambda j: pop[j].fitness)
            pop[worst] = pickle.loads(pickle.dumps(migrant))
        return self.bests()


def _worker_count(population_num: int) -> int:
    """W, the number of processes that evolve a fit's islands, this one
    included: one per island up to the CPUs this process may run on. A
    daemonic process may not start children, and a process running other
    threads is not forked, since a lock one of them holds stays locked in
    the child."""
    if (population_num < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(population_num, cpus)


_JOIN_S = 5.0  # how long close() waits for a worker before terminating it


def _serve(conn, parent_ends, ctx: EvalContext, const_range: Tuple[float, float],
           cfg: EvolutionConfig, k: int, w: int) -> None:
    """Worker k's loop: build its islands, then run each (method, args)
    request on them and send back (True, result) or (False, exception).
    Returns at end of file, which comes when the parent closes its pipe end
    or dies, since this process closes every parent end it inherited."""
    for end in parent_ends:
        end.close()
    # Ctrl-C reaches the whole process group; the parent handles it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        islands, failure = _Islands(ctx, const_range, cfg, k, w), None
    except Exception as exc:
        islands, failure = None, exc
    while True:
        try:
            name, args = conn.recv()
        except EOFError:
            return
        try:
            if failure is not None:
                raise failure
            reply = (True, getattr(islands, name)(*args))
        except Exception as exc:
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(f"raised in island worker {k}:\n{traceback.format_exc()}")
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the parent has gone
            return


class _Owners:
    """Every island of one SGP fit and the processes that evolve them.

    This process owns the islands i = 0 (mod w) and forked worker k the
    islands i = k (mod w), 0 < k < w; w = 1 starts no process. call() runs
    one _Islands method on every owner, the workers' alongside this
    process's. close() ends the workers.
    """

    def __init__(self, ctx: EvalContext, const_range: Tuple[float, float],
                 cfg: EvolutionConfig, w: int):
        self.w = w
        self.conns: list = []
        self.procs: list = []
        try:
            if w > 1:
                # fork flushes stdio first and the child leaves by os._exit,
                # so nothing the parent buffered is written twice
                mp = multiprocessing.get_context("fork")
                for k in range(1, w):
                    parent_end, child_end = mp.Pipe()
                    self.conns.append(parent_end)
                    proc = mp.Process(target=_serve, name=f"softgp-islands-{k}", daemon=True,
                                      args=(child_end, tuple(self.conns), ctx, const_range,
                                            cfg, k, w))
                    proc.start()
                    self.procs.append(proc)
                    # later workers must not inherit it, so a worker's death
                    # is end of file here
                    child_end.close()
            self.local = _Islands(ctx, const_range, cfg, 0, w)
        except BaseException:
            self.close()
            raise

    def call(self, name: str, routed: Optional[Dict[int, Individual]] = None
             ) -> Dict[int, Individual]:
        """Run _Islands.<name> on every owner and merge what they return.
        routed, when given, maps islands to migrants; each owner is passed
        the part for its own islands."""
        w = self.w
        if routed is None:
            args = [()] * w
        else:
            args = [({i: m for i, m in routed.items() if i % w == k},) for k in range(w)]
        for conn, a in zip(self.conns, args[1:]):
            conn.send((name, a))
        bests = getattr(self.local, name)(*args[0])
        for k, conn in enumerate(self.conns, start=1):
            try:
                ok, value = conn.recv()
            except EOFError:
                raise RuntimeError(f"island worker {k} exited unexpectedly") from None
            if not ok:
                raise value
            bests.update(value)
        return bests

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(_JOIN_S)
            if proc.exitcode is None:
                proc.terminate()
                proc.join()


def fit_sgp(train: Dataset, cfg: EvolutionConfig) -> Classifier:
    """Evolve a soft-variant classifier with the island model."""
    ctx = EvalContext(train.x, train.y)
    const_range = _const_range(ctx.x)
    num = cfg.population_num
    islands = _Owners(ctx, const_range, cfg, _worker_count(num))
    try:
        bests = islands.call("bests")
        best_ever = max((bests[i] for i in range(num)), key=_FITNESS)
        gen = 0
        while best_ever.fitness < 1.0 and gen < cfg.max_generation:
            bests = islands.call("evolve")
            if gen % cfg.migration_period == 0:
                # island i's best displaces the worst of island i + 1
                migrants = {(i + 1) % num: b for i, b in bests.items()}
                bests = islands.call("migrate", migrants)
            gen += 1
            best_ever = max((best_ever, *(bests[i] for i in range(num))), key=_FITNESS)
    finally:
        islands.close()
    return Classifier(Algo.SGP, best_ever.tree, THRESHOLD, best_ever.fitness, gen, cfg,
                      ctx.n_features)


def fit(train: Dataset, algo: Algo, cfg: EvolutionConfig) -> Classifier:
    return fit_gp(train, cfg) if algo is Algo.GP else fit_sgp(train, cfg)


def predict_batch(cls: Classifier, x: np.ndarray) -> np.ndarray:
    """Predict labels for a (rows, n_features) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cls.n_features:
        raise EvolveError(f"expected {cls.n_features} features, got shape {x.shape}")
    acts = eval_batch(cls.model, x)
    # activations equal to the threshold count as positive
    return (acts >= cls.threshold).astype(np.int64)


def predict(cls: Classifier, row: Sequence[float]) -> int:
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise EvolveError(f"expected a 1-D feature vector, got shape {row.shape}")
    return int(predict_batch(cls, row.reshape(1, -1))[0])


def score(cls: Classifier, test: Dataset) -> float:
    """Balanced accuracy of the classifier's predictions on a dataset."""
    preds = predict_batch(cls, test.x)
    return balanced_accuracy(confusion(test.y, preds))
