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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

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
from .tree import DEFAULT_BOUNDS, THRESHOLD, ExprTree, Variant, eval_batch, random_tree


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
            raise EvolveError("seed must be a nonnegative integer")


# Config files are flat "key = value" lines with exactly these keys.
_CONFIG_INT_KEYS = ("max_generation", "population_size", "population_num",
                    "migration_period", "max_tries_mutation", "max_tries_weight", "seed")
_CONFIG_FLOAT_KEYS = ("cx_prob", "mut_prob", "ext_prob")


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
        if key in _CONFIG_INT_KEYS:
            convert = int
        elif key in _CONFIG_FLOAT_KEYS:
            convert = float
        else:
            raise EvolveError(f"config line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = convert(value)
        except ValueError:
            raise EvolveError(f"config line {lineno}: bad value for {key!r}: {value!r}") from None
    return replace(base or EvolutionConfig(), **overrides)


def load_config(path, base: Optional[EvolutionConfig] = None) -> EvolutionConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base)


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


def _best(pop: Sequence[Individual]) -> Individual:
    best = pop[0]
    for ind in pop[1:]:
        if ind.fitness > best.fitness:
            best = ind
    return best


def _worst_index(pop: Sequence[Individual]) -> int:
    worst = 0
    for i in range(1, len(pop)):
        if pop[i].fitness < pop[worst].fitness:
            worst = i
    return worst


def fit_gp(train: Dataset, cfg: EvolutionConfig) -> Classifier:
    """Evolve a hard-variant classifier on the training split."""
    ctx = EvalContext(train.x, train.y)
    rng = np.random.default_rng(cfg.seed)
    n = ctx.n_features
    const_range = _const_range(ctx.x)

    pop = [ctx.evaluate(Individual(random_tree(Variant.HARD, DEFAULT_BOUNDS, n, const_range, rng)))
           for _ in range(cfg.population_size)]
    best_ever = _best(pop)
    gen = 0
    while best_ever.fitness < 1.0 and gen < cfg.max_generation:
        pop = rank_select(pop, rng)
        for i in range(0, len(pop) - 1, 2):
            if rng.random() < cfg.cx_prob:
                c1, c2 = crossover(pop[i].tree, pop[i + 1].tree, rng)
                pop[i], pop[i + 1] = Individual(c1), Individual(c2)
        for i in range(len(pop)):
            if rng.random() < cfg.mut_prob:
                pop[i] = mutate(pop[i], n, const_range, rng)
        for ind in pop:
            ctx.evaluate(ind)
        gen += 1
        cur = _best(pop)
        if cur.fitness > best_ever.fitness:
            best_ever = cur
    return Classifier(Algo.GP, best_ever.tree, THRESHOLD, best_ever.fitness, gen, cfg, n)


def fit_sgp(train: Dataset, cfg: EvolutionConfig) -> Classifier:
    """Evolve a soft-variant classifier with the island model."""
    ctx = EvalContext(train.x, train.y)
    n = ctx.n_features
    const_range = _const_range(ctx.x)
    num = cfg.population_num
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(num)]

    pops: List[List[Individual]] = []
    for i in range(num):
        pops.append([ctx.evaluate(Individual(
            random_tree(Variant.SOFT, DEFAULT_BOUNDS, n, const_range, rngs[i])))
            for _ in range(cfg.population_size)])
    best_ever = _best([_best(p) for p in pops])
    gen = 0
    while best_ever.fitness < 1.0 and gen < cfg.max_generation:
        for i in range(num):
            rng = rngs[i]
            # the operators share activations within one island's generation
            with ctx.generation():
                pop = rank_select(pops[i], rng)
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
            pops[i] = pop
        if gen % cfg.migration_period == 0:
            migrants = [Individual(b.tree, b.fitness) for b in map(_best, pops)]
            for i in range(num):
                target = pops[(i + 1) % num]
                target[_worst_index(target)] = migrants[i]
        gen += 1
        for pop in pops:
            cur = _best(pop)
            if cur.fitness > best_ever.fitness:
                best_ever = cur
    return Classifier(Algo.SGP, best_ever.tree, THRESHOLD, best_ever.fitness, gen, cfg, n)


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
