"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import signal
import time
from dataclasses import replace

import pytest

import run

assert run.import_softgp()

import softgp  # noqa: E402
import workloads  # noqa: E402
from softgp import bench, evolve, genetics, tree  # noqa: E402
from softgp.evolve import EvolutionConfig  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import Recorder, Tracer  # noqa: E402

# seconds=0 runs the minimum number of fits and serving passes
TINY = {
    "sgp_fit": workloads.Plan(0.0, EvolutionConfig(
        max_generation=1, population_size=8, population_num=2), min_fits=2, corpus_nodes=200),
    "gp_grid": workloads.Plan(0.0, EvolutionConfig(
        max_generation=2, population_size=8), min_fits=1, corpus_nodes=200),
    "predict_load": workloads.Plan(0.0, EvolutionConfig(
        max_generation=1, population_size=8, population_num=2), min_fits=1, corpus_nodes=200),
}


def test_benchmark_json_lists_the_harness_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_checks_pass_and_tracing_changes_no_model(name):
    plan = TINY[name]
    with HostClock() as clock:
        out = workloads.WORKLOADS[name](3, plan)
    assert out.failures == {}
    assert out.fits and len(out.digests) == len(out.fits)
    values = run.end_to_end(out, clock)
    assert [n for n, _, _ in run.END_TO_END] == list(values)
    assert all(v > 0 for v in values.values())

    originals = (tree.eval_batch, genetics.EvalContext.fitness_of, evolve.fit)
    rec = Recorder()
    with Tracer(rec, workloads.LAYERS, "softgp"):
        assert genetics.eval_batch is not originals[0]
        assert bench.fit is not originals[2]
        traced = workloads.WORKLOADS[name](3, replace(plan, replay_fits=out.fit_units,
                                                      replay_passes=out.serve_passes))
    assert (genetics.eval_batch, bench.eval_batch, evolve.eval_batch, softgp.eval_batch) == \
        (originals[0],) * 4
    assert (genetics.EvalContext.fitness_of, bench.fit, evolve.fit) == \
        (originals[1], originals[2], originals[2])
    assert traced.failures == {}
    assert traced.digests == out.digests
    layer = run.per_layer(rec.stats(child="genetics.fitness_of"), traced, 1.0)
    assert [n for n, _, _ in run.PER_LAYER] == list(layer)
    assert layer["evolve.fit.self_s"] > 0
    assert layer["genetics.fitness_of.calls"] >= len(traced.fits)
    if name == "gp_grid":
        assert layer["genetics.mutate.calls"] > 0
        assert layer["genetics.positive_crossover.calls"] == 0
    else:
        assert layer["genetics.weight_adjustment.calls"] > 0
        assert 0 <= layer["genetics.weight_adjustment.accept_ratio"] <= 1


def test_host_clock_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.durations) >= 5
    assert clock.corrected(t0, t1) > 0


def test_self_time_excludes_child_spans():
    rec = Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    rec.start[outer], rec.end[outer] = 0.0, 10.0
    rec.start[inner], rec.end[inner] = 2.0, 5.0
    stats = rec.stats(child="inner")
    assert stats["outer"].self_s == 7.0
    assert stats["inner"].self_s == 3.0
    assert stats["outer"].child_calls == 1


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "plan_for", lambda name, seconds: TINY[name])
    assert run.main(["--workload", "sgp_fit", "--seed", "1", "--seconds", "1"]) == 0
    good = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert good["correct"] and good["failed"] == 0
    assert good["attempted"] == 2 + 2 * 2 + 1  # fits, two passes after each, a top-up pass

    monkeypatch.setattr(workloads.tree, "validate", lambda t, n: ["planted violation"])
    assert run.main(["--workload", "sgp_fit", "--seed", "1", "--seconds", "1"]) == 1
    bad = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not bad["correct"] and bad["failed"] == 2
