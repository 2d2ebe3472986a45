"""Golden-model regression: what a seed produces, pinned.

The digests are sha256 sums of format_model for one short GP fit and one
short SGP fit. They fail whenever a change alters the model a seed yields,
which a speed-up must never do. Only a change that declares it alters the
evolution trajectory (and re-runs the qualitative acceptance gates) may
update these pins.
"""

import hashlib

import pytest

from softgp.data import gen_synthetic, shuffle_split
from softgp.evolve import Algo, EvolutionConfig, fit
from softgp.sexpr import format_model

GOLDEN = {
    Algo.GP: (EvolutionConfig(seed=1, max_generation=15, population_size=40),
              "37eadf6f7e831954905ed2aff1f28db060f8c5852dbc27feff1922132dd7cd3a"),
    Algo.SGP: (EvolutionConfig(seed=2, max_generation=4, population_size=20, population_num=2),
               "8b07999315f03ad14f0ba2a357f676e31c2b2cb9b3104e09ca3d46e18162d0bf"),
}


@pytest.mark.parametrize("algo", list(GOLDEN), ids=lambda a: a.value)
def test_a_seed_yields_the_pinned_model(algo):
    cfg, digest = GOLDEN[algo]
    split = shuffle_split(gen_synthetic("moons", 120, 0.3, seed=3), seed=3)
    cls = fit(split.train, algo, cfg)
    text = format_model(cls.model, cls.n_features)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
