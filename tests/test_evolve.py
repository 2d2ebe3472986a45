from dataclasses import replace

import numpy as np
import pytest

from softgp.data import Dataset, gen_synthetic, shuffle_split
from softgp.evolve import (
    Algo,
    EvolutionConfig,
    EvolveError,
    fit,
    fit_gp,
    fit_sgp,
    load_config,
    parse_config,
    predict,
    predict_batch,
    score,
)
from softgp.metrics import MetricsError
from softgp.sexpr import format_model
from softgp.tree import ExprTree, OpKind, Variant, const, op, symbol, validate

TINY = EvolutionConfig(max_generation=5, population_size=20, seed=1)


def test_config_validation():
    with pytest.raises(EvolveError, match="max_generation"):
        EvolutionConfig(max_generation=-1)
    with pytest.raises(EvolveError, match="population"):
        EvolutionConfig(population_size=0)
    with pytest.raises(EvolveError, match="population"):
        EvolutionConfig(population_num=0)
    with pytest.raises(EvolveError, match="cx_prob"):
        EvolutionConfig(cx_prob=1.5)
    with pytest.raises(EvolveError, match="migration_period"):
        EvolutionConfig(migration_period=0)
    with pytest.raises(EvolveError, match="max_tries"):
        EvolutionConfig(max_tries_weight=-1)
    with pytest.raises(EvolveError, match="seed"):
        EvolutionConfig(seed=-3)


def test_parse_config_overrides_and_comments():
    text = """
    # evolution settings
    max_generation = 42
    cx_prob = 0.25

    seed=7
    """
    cfg = parse_config(text)
    assert cfg.max_generation == 42
    assert cfg.cx_prob == 0.25
    assert cfg.seed == 7
    assert cfg.population_size == EvolutionConfig().population_size


def test_parse_config_layers_over_a_base():
    base = EvolutionConfig(population_size=10, seed=3)
    cfg = parse_config("max_generation = 8", base)
    assert cfg.population_size == 10 and cfg.seed == 3 and cfg.max_generation == 8


def test_parse_config_errors():
    with pytest.raises(EvolveError, match="unknown key 'populationsize'"):
        parse_config("populationsize = 5")
    with pytest.raises(EvolveError, match="bad value"):
        parse_config("max_generation = many")
    with pytest.raises(EvolveError, match="expected 'key = value'"):
        parse_config("max_generation")
    with pytest.raises(EvolveError, match="unknown key 'bounds'"):
        parse_config("bounds = 3")
    # invalid combinations still go through EvolutionConfig validation
    with pytest.raises(EvolveError, match="cx_prob"):
        parse_config("cx_prob = 2.0")


def test_load_config(tmp_path):
    p = tmp_path / "evo.cfg"
    p.write_text("population_size = 12\nmut_prob = 0.9\n")
    cfg = load_config(p)
    assert cfg.population_size == 12 and cfg.mut_prob == 0.9


@pytest.fixture(scope="module")
def linsep():
    return gen_synthetic("linsep", 80, 0.1, seed=2)


@pytest.fixture(scope="module")
def circles():
    return gen_synthetic("circles", 80, 0.1, seed=2)


def test_fit_gp_returns_a_valid_hard_classifier(linsep):
    cls = fit_gp(linsep, TINY)
    assert cls.algo is Algo.GP
    assert cls.model.variant is Variant.HARD
    assert validate(cls.model, linsep.n_features) == []
    assert 0.0 <= cls.train_fitness <= 1.0
    assert cls.generations_run <= TINY.max_generation
    assert cls.n_features == 2


def test_fit_sgp_returns_a_valid_soft_classifier(circles):
    cls = fit_sgp(circles, TINY)
    assert cls.algo is Algo.SGP
    assert cls.model.variant is Variant.SOFT
    assert validate(cls.model, circles.n_features) == []
    assert 0.0 <= cls.train_fitness <= 1.0


def test_fit_dispatches_on_algo(linsep):
    assert fit(linsep, Algo.GP, TINY).model.variant is Variant.HARD
    assert fit(linsep, Algo.SGP, TINY).model.variant is Variant.SOFT


@pytest.mark.parametrize("algo", list(Algo))
@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, float("nan"))])
def test_fit_rejects_a_feature_span_that_is_not_finite(algo, lo, hi):
    ds = Dataset("wide", ["a"], np.array([[lo], [hi], [0.0], [1.0]]), np.array([0, 1, 0, 1]))
    with pytest.raises(EvolveError, match="not a finite range"):
        fit(ds, algo, TINY)


def test_fit_is_deterministic_under_seed(circles):
    for fitter in (fit_gp, fit_sgp):
        a = fitter(circles, TINY)
        b = fitter(circles, TINY)
        assert format_model(a.model, a.n_features) == format_model(b.model, b.n_features)
        assert a.train_fitness == b.train_fitness
        assert a.generations_run == b.generations_run


def test_different_seeds_usually_differ(circles):
    a = fit_sgp(circles, TINY)
    b = fit_sgp(circles, EvolutionConfig(max_generation=5, population_size=20, seed=2))
    assert format_model(a.model, 2) != format_model(b.model, 2)


def test_sgp_seeds_0_to_3_give_four_distinct_models(circles):
    # islands seeded with seed ^ i made seed 2 run seed 0's four generators
    # rotated two places round the migration ring, and seed 3 seed 1's
    models = {format_model(fit_sgp(circles, replace(TINY, max_generation=2, seed=s)).model, 2)
              for s in range(4)}
    assert len(models) == 4


def test_zero_generations_returns_the_initial_best(circles):
    cfg = EvolutionConfig(max_generation=0, population_size=30, seed=4)
    cls = fit_sgp(circles, cfg)
    assert cls.generations_run == 0
    assert validate(cls.model, 2) == []


def test_more_generations_never_hurt_the_returned_fitness(circles):
    # the loops track the best individual ever seen
    base = fit_sgp(circles, EvolutionConfig(max_generation=0, population_size=20, seed=5))
    more = fit_sgp(circles, EvolutionConfig(max_generation=8, population_size=20, seed=5))
    assert more.train_fitness >= base.train_fitness


def test_gp_tracks_best_ever_across_generations(linsep):
    base = fit_gp(linsep, EvolutionConfig(max_generation=0, population_size=20, seed=5))
    more = fit_gp(linsep, EvolutionConfig(max_generation=8, population_size=20, seed=5))
    assert more.train_fitness >= base.train_fitness


def test_perfect_fitness_stops_early(linsep):
    cfg = EvolutionConfig(max_generation=200, population_size=60, seed=6)
    cls = fit_gp(linsep, cfg)
    if cls.train_fitness == 1.0:
        assert cls.generations_run < 200
    else:  # ran the full budget without a perfect tree
        assert cls.generations_run == 200


def test_single_island_sgp_works(circles):
    cfg = EvolutionConfig(max_generation=4, population_size=15, population_num=1, seed=7)
    cls = fit_sgp(circles, cfg)
    assert validate(cls.model, 2) == []


def test_sgp_uses_all_islands(circles):
    # the best model must beat a single island run only rarely, but the
    # multi-island run must at least match the best single island's result,
    # because migration shares the best individual around the ring
    multi = fit_sgp(circles, EvolutionConfig(max_generation=6, population_size=15,
                                             population_num=3, seed=8))
    assert 0.0 <= multi.train_fitness <= 1.0


def test_degenerate_training_labels_raise():
    ds = gen_synthetic("linsep", 20, 0.1, seed=3)
    ds.y[:] = 1
    with pytest.raises(MetricsError, match="single class"):
        fit_gp(ds, TINY)


# --- prediction -------------------------------------------------------------------

def hand_classifier():
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                     op(OpKind.LT, symbol(0), const(0.0), weight=1.0),
                                     weight=0.5))
    return_cfg = EvolutionConfig(max_generation=0, population_size=1)
    from softgp.evolve import Classifier
    return Classifier(Algo.SGP, tree, 0.5, 1.0, 0, return_cfg, 1)


def test_predict_batch_thresholds_at_one_half_inclusive():
    cls = hand_classifier()
    # activations: 0.5 for x0 >= 0 (tie must map to 1), 0.0 otherwise
    got = predict_batch(cls, np.array([[2.0], [0.0], [-2.0]]))
    assert got.tolist() == [1, 1, 0]
    assert got.dtype == np.int64


def test_predict_single_row():
    cls = hand_classifier()
    assert predict(cls, [3.0]) == 1
    assert predict(cls, [-3.0]) == 0


def test_predict_shape_errors():
    cls = hand_classifier()
    with pytest.raises(EvolveError, match="expected 1 features"):
        predict_batch(cls, np.zeros((4, 3)))
    with pytest.raises(EvolveError, match="2-D|features"):
        predict_batch(cls, np.zeros(4))
    with pytest.raises(EvolveError, match="1-D"):
        predict(cls, np.zeros((2, 2)))


def test_score_is_balanced_accuracy_on_the_dataset():
    from softgp.data import Dataset
    cls = hand_classifier()
    ds = Dataset("t", ["x0"], np.array([[1.0], [2.0], [-1.0], [-2.0]]),
                 np.array([1, 0, 0, 0]))
    # predictions 1,1,0,0: recall1 = 1, recall0 = 2/3
    assert score(cls, ds) == pytest.approx(0.5 * (1.0 + 2.0 / 3.0))


def test_gp_learns_linearly_separable_data():
    ds = gen_synthetic("linsep", 200, 0.1, seed=10)
    split = shuffle_split(ds, 0.7, seed=10)
    cls = fit_gp(split.train, EvolutionConfig(max_generation=30, population_size=50,
                                              seed=10))
    assert cls.train_fitness >= 0.9
    assert score(cls, split.test) >= 0.85


def test_sgp_learns_circles_data():
    ds = gen_synthetic("circles", 200, 0.1, seed=11)
    split = shuffle_split(ds, 0.7, seed=11)
    cls = fit_sgp(split.train, EvolutionConfig(max_generation=15, population_size=40,
                                               seed=11))
    assert cls.train_fitness >= 0.85
    assert score(cls, split.test) >= 0.8
