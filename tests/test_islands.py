"""fit_sgp's islands on forked worker processes.

The model a seed yields must not depend on W, the number of processes
that evolve the islands; tests set W by replacing evolve._worker_count,
the one function that computes it. Workers must pass their errors back,
and must go when the fit ends or the parent's pipe end closes.
"""

import hashlib
import multiprocessing
import os
import threading

import numpy as np
import pytest

from test_golden import GOLDEN

import softgp.evolve as evolve_mod
from softgp.data import Dataset, gen_synthetic, shuffle_split
from softgp.evolve import Algo, EvolutionConfig, EvolveError, fit_sgp
from softgp.genetics import EvalContext, Individual
from softgp.sexpr import format_model
from softgp.tree import ExprTree, OpKind, Variant, const, op, symbol


def with_workers(monkeypatch, w):
    monkeypatch.setattr(evolve_mod, "_worker_count", lambda population_num: min(w, population_num))


def outcome(cls):
    return format_model(cls.model, cls.n_features), cls.train_fitness, cls.generations_run


@pytest.fixture(scope="module")
def moons():
    # the golden pins' training split
    return shuffle_split(gen_synthetic("moons", 120, 0.3, seed=3), seed=3).train


@pytest.mark.parametrize("w", [1, 2])
def test_the_golden_sgp_pin_holds_at_any_worker_count(w, moons, monkeypatch):
    with_workers(monkeypatch, w)
    cfg, digest = GOLDEN[Algo.SGP]
    cls = fit_sgp(moons, cfg)
    assert hashlib.sha256(format_model(cls.model, cls.n_features).encode()).hexdigest() == digest


@pytest.mark.parametrize("cfg", [
    EvolutionConfig(max_generation=3, population_size=12, population_num=2, seed=4),
    EvolutionConfig(max_generation=3, population_size=12, population_num=3, seed=5,
                    migration_period=2),
    EvolutionConfig(max_generation=3, population_size=10, population_num=5, seed=6,
                    migration_period=1),
    EvolutionConfig(max_generation=0, population_size=12, population_num=3, seed=7),
], ids=["2 islands", "3 islands", "5 islands, migration every generation", "0 generations"])
def test_one_and_two_workers_give_the_same_fit(cfg, moons, monkeypatch):
    fits = []
    for w in (1, 2):
        with_workers(monkeypatch, w)
        fits.append(outcome(fit_sgp(moons, cfg)))
    assert fits[0] == fits[1]


def test_an_early_stop_is_the_same_at_any_worker_count(monkeypatch):
    separable = gen_synthetic("linsep", 60, 0.0, seed=1)
    cfg = EvolutionConfig(max_generation=20, population_size=20, population_num=3, seed=1,
                          migration_period=2)
    fits = []
    for w in (1, 2, 3):
        with_workers(monkeypatch, w)
        fits.append(outcome(fit_sgp(separable, cfg)))
    assert fits[0][1] == 1.0 and 0 < fits[0][2] < 20
    assert fits[1] == fits[0] and fits[2] == fits[0]


class IslandFailure(Exception):
    pass


def test_an_error_in_a_worker_island_reaches_the_caller(moons, monkeypatch):
    with_workers(monkeypatch, 2)
    parent = os.getpid()
    real = evolve_mod._Islands.evolve

    def evolve(self):
        # worker 1 of 2 owns the odd islands; this process never raises
        if os.getpid() != parent:
            raise IslandFailure(f"islands {sorted(self.rngs)}")
        return real(self)

    monkeypatch.setattr(evolve_mod._Islands, "evolve", evolve)
    with pytest.raises(IslandFailure, match=r"islands \[1, 3\]"):
        fit_sgp(moons, EvolutionConfig(max_generation=2, population_size=8, population_num=4))


def test_an_error_building_a_worker_island_reaches_the_caller(moons, monkeypatch):
    with_workers(monkeypatch, 2)
    parent = os.getpid()
    real = evolve_mod.random_tree

    def random_tree(*args):
        if os.getpid() != parent:
            raise IslandFailure("generation")
        return real(*args)

    monkeypatch.setattr(evolve_mod, "random_tree", random_tree)
    with pytest.raises(IslandFailure, match="generation"):
        fit_sgp(moons, EvolutionConfig(max_generation=2, population_size=8, population_num=2))


def test_a_failure_here_leaves_a_worker_with_an_unread_reply_to_exit_cleanly(
        moons, monkeypatch, capfd):
    with_workers(monkeypatch, 2)
    parent = os.getpid()
    owners = []
    real_init = evolve_mod._Owners.__init__
    real_evolve = evolve_mod._Islands.evolve

    def init(self, *args):
        owners.append(self)
        real_init(self, *args)

    def evolve(self):
        if os.getpid() != parent:
            return real_evolve(self)
        # raise once worker 1's reply is waiting, so close() discards it
        assert owners[0].conns[0].poll(60.0)
        raise IslandFailure("this process")

    monkeypatch.setattr(evolve_mod._Owners, "__init__", init)
    monkeypatch.setattr(evolve_mod._Islands, "evolve", evolve)
    with pytest.raises(IslandFailure, match="this process"):
        fit_sgp(moons, EvolutionConfig(max_generation=2, population_size=8, population_num=2))
    assert [proc.exitcode for proc in owners[0].procs] == [0]
    assert "Traceback" not in capfd.readouterr().err


def test_a_fit_refuses_a_range_without_a_finite_width_before_forking(monkeypatch):
    def owners(*args):
        raise AssertionError("islands were built")

    monkeypatch.setattr(evolve_mod, "_Owners", owners)
    x = np.array([[0.0, 1.0], [np.inf, 2.0], [0.5, 3.0], [1.0, 4.0]])
    data = Dataset("inf", ["x0", "x1"], x, np.array([1, 0, 1, 0]))
    with pytest.raises(EvolveError, match="not a finite range"):
        fit_sgp(data, EvolutionConfig(max_generation=1, population_size=4, population_num=2))


def test_a_worker_exits_when_the_parent_end_of_its_pipe_closes(moons):
    cfg = EvolutionConfig(max_generation=2, population_size=6, population_num=3)
    ctx = EvalContext(moons.x, moons.y)
    owners = evolve_mod._Owners(ctx, cfg, 3)
    try:
        assert sorted(owners.call("bests")) == [0, 1, 2]
        # only this process still holds worker 1's parent end: the worker
        # closed its copy, and so did worker 2, forked after it
        owners.conns[0].close()
        owners.procs[0].join(10.0)
        assert owners.procs[0].exitcode == 0
        assert owners.procs[1].is_alive()
    finally:
        owners.close()
    assert owners.procs[1].exitcode == 0


def _worker_count_and_fit(train, cfg, conn):
    conn.send((evolve_mod._worker_count(cfg.population_num), outcome(fit_sgp(train, cfg))))


def test_a_daemonic_caller_evolves_every_island_itself(moons, monkeypatch):
    cfg = EvolutionConfig(max_generation=2, population_size=8, population_num=4, seed=3)
    mp = multiprocessing.get_context("fork")
    parent_end, child_end = mp.Pipe()
    proc = mp.Process(target=_worker_count_and_fit, args=(moons, cfg, child_end), daemon=True)
    proc.start()
    child_end.close()
    try:
        assert parent_end.poll(60.0)
        w, fit = parent_end.recv()
    finally:
        proc.join(10.0)
    assert proc.exitcode == 0
    assert w == 1
    with_workers(monkeypatch, 2)
    assert fit == outcome(fit_sgp(moons, cfg))


def test_the_worker_count_follows_islands_and_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert [evolve_mod._worker_count(n) for n in (1, 2, 3, 4)] == [1, 2, 3, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert evolve_mod._worker_count(4) == 1


def test_a_process_running_other_threads_is_not_forked():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60.0,))
    thread.start()
    try:
        assert evolve_mod._worker_count(4) == 1
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive()


def scored(fitnesses):
    """Individuals of the given fitnesses, each with a tree of its own."""
    return [Individual(ExprTree(Variant.SOFT, op(OpKind.GT, symbol(0), const(float(j)),
                                                 weight=1.0)), f)
            for j, f in enumerate(fitnesses)]


@pytest.fixture
def islands(moons):
    cfg = EvolutionConfig(population_size=4, population_num=2, seed=8)
    ctx = EvalContext(moons.x, moons.y)
    return evolve_mod._Islands(ctx, cfg, 0, 1)


def test_the_best_of_equally_fit_individuals_is_the_first(islands):
    islands.pops = {0: scored([0.5, 0.9, 0.7, 0.9, 0.9, 0.1]), 1: scored([0.8] * 4)}
    bests = islands.bests()
    assert bests[0] is islands.pops[0][1]
    assert bests[1] is islands.pops[1][0]


def test_a_migrant_replaces_the_first_of_equally_worst_individuals(islands):
    before = {0: scored([0.5, 0.2, 0.7, 0.2, 0.9, 0.2]), 1: scored([0.6] * 4)}
    islands.pops = {i: list(pop) for i, pop in before.items()}
    migrants = {0: Individual(before[1][3].tree, 0.95), 1: Individual(before[0][0].tree, 0.3)}
    islands.migrate(migrants)
    for i, first_worst in ((0, 1), (1, 0)):
        pop = islands.pops[i]
        # a copy takes the place of the first worst; everyone else stays
        assert pop[first_worst] == migrants[i] and pop[first_worst] is not migrants[i]
        assert all(pop[j] is ind for j, ind in enumerate(before[i]) if j != first_worst)
