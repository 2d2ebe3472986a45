"""The softgp benchmark workloads, their inputs and their output checks.

Every input is synthetic and derived from the workload seed through
`bench.run_seed`; nothing touches the network or PMLB. Each workload fits
models and checks every fitted model, then serves a corpus of serialized
models the way a user of trained models does: `parse_model`, then
`predict_batch` on 10k held-out rows. The workloads differ in where the
time goes:

- sgp_fit: the paper's headline path, soft trees on the island model with
  all four fitness-gated operators and the activation memo. Evaluation is
  at 140 training rows, where Python dispatch per tree node dominates.
- gp_grid: `bench.run_benchmark` with classical GP over three synthetic
  datasets. Tree walks in mutation, crossover and the sort tie-break
  dominate, not evaluation.
- predict_load: a few short soft fits, then repeated loading of the corpus
  with `predict_batch`, `score` and `boundary_grid` at 10k rows, where
  numpy work per node dominates.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from softgp import bench, data, evolve, genetics, sexpr, tree
from softgp.evolve import Algo, EvolutionConfig

from tracing import Layer

MOONS = "synth:moons:200:0.35"
GRID_SPECS = (MOONS, "synth:circles:200:0.3", "synth:linsep:200:0.5")
RATIO = 0.7
HELDOUT_ROWS = 10_000
GRID_RESOLUTION = 100  # 10k lattice points
LARGE_ROWS = 10_000  # eval_batch calls at or above this are "ge10k"
# The served models are random trees, not the fitted ones: fitted model
# size swings several-fold between seeds, while a corpus of many random
# trees varies little in make-up. Trees are drawn until their nodes reach
# this total, so a serving pass costs about the same for soft and for the
# smaller hard trees (about 64 soft or 150 hard trees).
CORPUS_NODES = 9000
SETUP_REPS = 5
SERVE_PASSES = 5
# run_benchmark only reads its cache for PMLB names; synthetic specs never do
CACHE_DIR = ".pmlb-cache"


@dataclass(frozen=True)
class Plan:
    """How much work one pass does.

    sgp_fit fits, and gp_grid calls run_benchmark for one run per dataset,
    at least min_fits times and then while the next one is expected to end
    within `seconds`; predict_load fits min_fits times, then serves the
    corpus until `seconds` have passed. A traced pass sets replay_fits and
    replay_passes to redo exactly the work of the untraced pass.
    """

    seconds: float
    config: EvolutionConfig
    min_fits: int
    corpus_nodes: int = CORPUS_NODES
    replay_fits: Optional[int] = None
    replay_passes: Optional[int] = None


def plan_for(workload: str, seconds: float) -> Plan:
    """Many short fits rather than a few long ones: fit time follows tree
    growth, which differs from seed to seed, and a median over many short
    fits keeps that out of the run-to-run spread."""
    if workload == "sgp_fit":
        return Plan(seconds, EvolutionConfig(max_generation=2), min_fits=3)
    if workload == "gp_grid":
        return Plan(seconds, EvolutionConfig(max_generation=25), min_fits=2)
    if workload == "predict_load":
        return Plan(seconds, EvolutionConfig(max_generation=1), min_fits=3)
    raise ValueError(f"unknown workload {workload!r}")


# (start, end) in time.perf_counter() seconds; the host clock corrects
# these for host speed when the metrics are computed
Interval = Tuple[float, float]


@dataclass
class Fit:
    label: str
    wall: Interval
    cpu_s: float
    cls: evolve.Classifier
    train: data.Dataset
    heldout: data.Dataset


@dataclass
class Outcome:
    """What one pass over a workload produced and measured."""

    setup: List[Interval] = field(default_factory=list)
    fits: List[Fit] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    heldout_bacc: List[float] = field(default_factory=list)
    # per serving pass: parsing every corpus model, then predicting with each
    load: List[Interval] = field(default_factory=list)
    predict: List[Interval] = field(default_factory=list)
    served: int = 0  # models per pass
    rows: int = 0
    corpus_nodes: float = 0.0  # mean nodes per served model
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failures: Dict[str, str] = field(default_factory=dict)
    wall: Interval = (0.0, 0.0)
    fit_units: int = 0  # fits, or run_benchmark calls for gp_grid

    @property
    def serve_passes(self) -> int:
        return len(self.load)


@dataclass(frozen=True)
class Inputs:
    heldout: Dict[str, data.Dataset]  # by dataset spec
    corpus: List[Tuple[tree.ExprTree, str]]  # (tree, model text)
    train: Optional[data.Dataset] = None


def _heldout(spec: str, seed: int) -> data.Dataset:
    _, kind, _, noise = spec.split(":")
    return data.gen_synthetic(kind, HELDOUT_ROWS, float(noise),
                              bench.run_seed(seed, spec + ":heldout", 0))


def _inputs(seed: int, specs: Tuple[str, ...], variant: tree.Variant, corpus_nodes: int,
            with_train: bool) -> Inputs:
    heldout = {spec: _heldout(spec, seed) for spec in specs}
    train = None
    if with_train:
        ds = bench.resolve_dataset(MOONS, CACHE_DIR, seed)
        train = data.shuffle_split(ds, RATIO, bench.run_seed(seed, MOONS, 1)).train
    x = heldout[MOONS].x
    rng = np.random.default_rng(bench.run_seed(seed, "corpus", 0))
    trees: List[tree.ExprTree] = []
    nodes = 0
    while nodes < corpus_nodes:
        trees.append(tree.random_tree(variant, tree.DEFAULT_BOUNDS, x.shape[1],
                                      (float(x.min()), float(x.max())), rng))
        nodes += tree.node_count(trees[-1].root)
    return Inputs(heldout, [(t, sexpr.format_model(t, x.shape[1])) for t in trees], train)


def _setup(out: Outcome, build: Callable[[], Inputs]) -> Inputs:
    t0 = time.perf_counter()
    inputs = build()
    out.setup.append((t0, time.perf_counter()))
    return inputs


def _repeat(plan: Plan, start: float, replay: Optional[int], minimum: int,
            unit: Callable[[int], None]) -> int:
    """Call unit(0), unit(1), ...: `replay` times when given, else at least
    `minimum` times and then while the next call, taking as long as the
    median call so far, would end within plan.seconds of `start`."""
    took: List[float] = []
    while (len(took) < replay if replay is not None else
           len(took) < minimum
           or time.perf_counter() - start + statistics.median(took) <= plan.seconds):
        t0 = time.perf_counter()
        unit(len(took))
        took.append(time.perf_counter() - t0)
    return len(took)


def _unit(out: Outcome, label: str, body: Callable[[], List[str]]) -> None:
    """Run one checked unit of work; an exception or failed check fails it."""
    out.attempted += 1
    try:
        problems = body()
    except Exception as e:  # the benchmark must report the failure and go on
        traceback.print_exc(file=sys.stderr)
        problems = [f"raised {e!r}"]
    if problems:
        out.failures[label] = "; ".join(problems)


def _fit(label: str, train: data.Dataset, heldout: data.Dataset, algo: Algo,
         cfg: EvolutionConfig, fit_fn: Callable) -> Fit:
    w0, c0 = time.perf_counter(), time.process_time()
    cls = fit_fn(train, algo, cfg)
    return Fit(label, (w0, time.perf_counter()), time.process_time() - c0, cls, train, heldout)


def check_fit(out: Outcome, f: Fit) -> List[str]:
    """Check a fitted model and record its digest and held-out score.

    Checks: the model is structurally valid; re-scoring it on its train
    split reproduces the reported train fitness exactly; the model loaded
    from its own text gives bit-identical activations on the held-out
    rows; predictions are labels in {0,1}.
    """
    cls, problems = f.cls, []
    text = sexpr.format_model(cls.model, cls.n_features)
    violations = tree.validate(cls.model, cls.n_features)
    if violations:
        problems.append(f"invalid model: {violations[0]}")
    refit = genetics.EvalContext(f.train.x, f.train.y).fitness_of(cls.model)
    if refit != cls.train_fitness:
        problems.append(f"train fitness {cls.train_fitness!r} recomputes as {refit!r}")
    parsed, n_features = sexpr.parse_model(text)
    if n_features != cls.n_features:
        problems.append(f"loaded n_features {n_features} != {cls.n_features}")
    x = f.heldout.x
    if tree.eval_batch(parsed, x).tobytes() != tree.eval_batch(cls.model, x).tobytes():
        problems.append("loaded model's activations differ from the fitted model's")
    loaded = replace(cls, model=parsed)
    if not np.isin(evolve.predict_batch(loaded, x), (0, 1)).all():
        problems.append("predictions outside {0,1}")
    out.digests.append(hashlib.sha256(text.encode()).hexdigest())
    out.heldout_bacc.append(evolve.score(loaded, f.heldout))
    out.fits.append(f)
    return problems


def _fit_and_check(out: Outcome, label: str, train: data.Dataset, heldout: data.Dataset,
                   algo: Algo, cfg: EvolutionConfig) -> None:
    _unit(out, label, lambda: check_fit(out, _fit(label, train, heldout, algo, cfg, evolve.fit)))


class Server:
    """Serves the corpus: loads every model, then predicts with each.

    Every pass must reproduce the predictions of the trees the corpus was
    generated from. With full, a pass also scores every model and computes
    its decision-boundary grid.
    """

    def __init__(self, inputs: Inputs, algo: Algo, full: bool):
        self.corpus = inputs.corpus
        self.heldout = inputs.heldout[MOONS]
        self.algo = algo
        self.full = full
        x = self.heldout.x
        self.reference = [self.classify(t).tobytes() for t, _ in self.corpus]
        self.box = ((float(x[:, 0].min()), float(x[:, 0].max())),
                    (float(x[:, 1].min()), float(x[:, 1].max())))
        self.nodes = statistics.fmean(tree.node_count(t.root) for t, _ in self.corpus)

    def classifier(self, model: tree.ExprTree) -> evolve.Classifier:
        return evolve.Classifier(self.algo, model, 0.5, math.nan, 0, EvolutionConfig(),
                                 self.heldout.n_features)

    def classify(self, model: tree.ExprTree) -> np.ndarray:
        return evolve.predict_batch(self.classifier(model), self.heldout.x)

    def serve(self, out: Outcome) -> None:
        _unit(out, f"serve pass {out.serve_passes}", lambda: self._pass(out))

    def _pass(self, out: Outcome) -> List[str]:
        x = self.heldout.x
        t0 = time.perf_counter()
        loaded = [sexpr.parse_model(text) for _, text in self.corpus]
        t1 = time.perf_counter()
        models = [self.classifier(model) for model, _ in loaded]
        t2 = time.perf_counter()
        preds = [evolve.predict_batch(cls, x) for cls in models]
        t3 = time.perf_counter()
        out.load.append((t0, t1))
        out.predict.append((t2, t3))
        out.served = len(models)
        out.rows = x.shape[0]
        out.corpus_nodes = self.nodes
        problems = []
        if [p.tobytes() for p in preds] != self.reference:
            problems.append("loaded models predict differently from the generated trees")
        if not all(np.isin(p, (0, 1)).all() for p in preds):
            problems.append("predictions outside {0,1}")
        if self.full:
            for cls in models:
                evolve.score(cls, self.heldout)
                acts = bench.boundary_grid(cls.model, GRID_RESOLUTION, *self.box).activations
                if not ((acts >= 0.0) & (acts <= 1.0)).all():
                    problems.append("boundary activations outside [0,1]")
                    break
        return problems


def _top_up(out: Outcome, build: Callable[[], Inputs], server: Optional[Server]) -> None:
    # every workload reports medians over at least this many set-ups and
    # serving passes, however few fits the time allowed
    while len(out.setup) < SETUP_REPS:
        _setup(out, build)
    while server is not None and out.serve_passes < SERVE_PASSES:
        server.serve(out)


def sgp_fit(seed: int, plan: Plan) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    build = partial(_inputs, seed, (MOONS,), tree.Variant.SOFT, plan.corpus_nodes, True)
    inputs = _setup(out, build)
    server = Server(inputs, Algo.SGP, full=False)

    def unit(k: int) -> None:
        cfg = replace(plan.config, seed=bench.run_seed(seed, "sgp_fit", k))
        _fit_and_check(out, f"fit {k}", inputs.train, inputs.heldout[MOONS], Algo.SGP, cfg)
        # set-ups and serving passes go between the fits, sampling the whole
        # run; two passes, since a pass is short and its time jitters
        _setup(out, build)
        server.serve(out)
        server.serve(out)

    out.fit_units = _repeat(plan, start, plan.replay_fits, plan.min_fits, unit)
    _top_up(out, build, server)
    out.wall = (start, time.perf_counter())
    return out


def gp_grid(seed: int, plan: Plan) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    build = partial(_inputs, seed, GRID_SPECS, tree.Variant.HARD, plan.corpus_nodes, False)
    inputs = _setup(out, build)
    server = Server(inputs, Algo.GP, full=False)
    fits: List[Fit] = []
    run_fit = bench.fit  # the name run_benchmark calls, traced or not

    def recording_fit(train, algo, cfg):
        f = _fit(f"{train.name} seed {cfg.seed}", train, inputs.heldout[train.name], algo, cfg,
                 run_fit)
        fits.append(f)
        # a serving pass after every cell: hard trees are small, so passes
        # are short and the medians need more of them
        server.serve(out)
        return f.cls

    def unit(k: int) -> None:
        results, failures = bench.run_benchmark(GRID_SPECS, [Algo.GP], 1, RATIO, plan.config,
                                                bench.run_seed(seed, "gp_grid", k), CACHE_DIR)
        for name, msg in failures:
            out.attempted += 1
            out.failures[f"{name} call {k} (run_benchmark)"] = msg
        for r in results:
            out.notes.append(f"{r.dataset} call {k}: split-test balanced accuracy "
                             f"{r.balanced_accuracy!r}")
        _setup(out, build)

    bench.fit = recording_fit
    try:
        out.fit_units = _repeat(plan, start, plan.replay_fits, plan.min_fits, unit)
    finally:
        bench.fit = run_fit
    for f in fits:
        _unit(out, f.label, lambda f=f: check_fit(out, f))
    _top_up(out, build, server)
    out.wall = (start, time.perf_counter())
    return out


def predict_load(seed: int, plan: Plan) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    build = partial(_inputs, seed, (MOONS,), tree.Variant.SOFT, plan.corpus_nodes, True)
    inputs = _setup(out, build)
    server = Server(inputs, Algo.SGP, full=True)
    for k in range(plan.min_fits):
        cfg = replace(plan.config, seed=bench.run_seed(seed, "predict_load", k))
        _fit_and_check(out, f"fit {k}", inputs.train, inputs.heldout[MOONS], Algo.SGP, cfg)
        _setup(out, build)
    out.fit_units = plan.min_fits
    _repeat(plan, start, plan.replay_passes, 1, lambda k: server.serve(out))
    _top_up(out, build, None)
    out.wall = (start, time.perf_counter())
    return out


WORKLOADS: Dict[str, Callable[[int, Plan], Outcome]] = {
    "sgp_fit": sgp_fit,
    "gp_grid": gp_grid,
    "predict_load": predict_load,
}


# ---------------------------------------------------------------------------
# Layers for the traced run
# ---------------------------------------------------------------------------

GATED = ("positive_crossover", "positive_mutation", "weight_adjustment", "extension_mutation")


def _rows_bucket(args, kwargs) -> str:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return "tree.eval_batch.ge10k" if np.shape(x)[0] >= LARGE_ROWS else "tree.eval_batch.lt10k"


def _tree_nodes(args, kwargs, result) -> float:
    t = args[0] if args else kwargs["tree"]
    return float(tree.node_count(t.root))


def _accepted(args, kwargs, result) -> float:
    # a gated operator accepted when its result is not the input object;
    # positive crossover when it kept at least one child over the parents
    if isinstance(result, tuple):
        return float(any(r is not args[0] and r is not args[1] for r in result))
    return float(result is not args[0])


def _text_bytes(args, kwargs, result) -> float:
    return float(len((args[0] if args else kwargs["text"]).encode()))


LAYERS: List[Layer] = [
    Layer("tree.eval_batch", "softgp.tree:eval_batch", name_of=_rows_bucket, measure=_tree_nodes),
    Layer("tree.random_tree", "softgp.tree:random_tree"),
    Layer("tree.random_subtree", "softgp.tree:random_subtree"),
    Layer("tree.set_weight", "softgp.tree:set_weight"),
    Layer("tree.collect_weights", "softgp.tree:collect_weights"),
    Layer("genetics.fitness_of", "softgp.genetics:EvalContext.fitness_of"),
    *(Layer(f"genetics.{op}", f"softgp.genetics:{op}", measure=_accepted) for op in GATED),
    Layer("genetics.crossover", "softgp.genetics:crossover"),
    Layer("genetics.mutate", "softgp.genetics:mutate"),
    Layer("genetics.rank_select", "softgp.genetics:rank_select"),
    Layer("sexpr.format_tree", "softgp.sexpr:format_tree"),
    Layer("sexpr.parse_model", "softgp.sexpr:parse_model", measure=_text_bytes),
    Layer("metrics.confusion", "softgp.metrics:confusion"),
    Layer("evolve.fit", "softgp.evolve:fit"),
    Layer("data.gen_synthetic", "softgp.data:gen_synthetic"),
    Layer("data.shuffle_split", "softgp.data:shuffle_split"),
    Layer("bench.boundary_grid", "softgp.bench:boundary_grid"),
]
