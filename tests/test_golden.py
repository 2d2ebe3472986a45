"""Golden-model regression: what a seed produces, pinned.

GOLDEN holds sha256 sums of format_model for one short GP fit and one
short SGP fit. GENERATION holds sha256 sums of what random_tree and
random_subtree draw from one seed, for both variants, two generation
bounds and three constant ranges, each tree followed by the generator's
next random(), so the pins also fail when generation consumes a different
number of draws. They fail whenever a change alters the model or tree a
seed yields, which a speed-up must never do. Only a change that declares
it alters the evolution trajectory (and re-runs the qualitative
acceptance gates) may update these pins.
"""

import hashlib

import numpy as np
import pytest

from softgp.data import gen_synthetic, shuffle_split
from softgp.evolve import Algo, EvolutionConfig, fit
from softgp.sexpr import format_model, format_tree
from softgp.tree import (
    DEFAULT_BOUNDS,
    ExprTree,
    GenBounds,
    OpClass,
    Variant,
    random_subtree,
    random_tree,
)

GOLDEN = {
    Algo.GP: (EvolutionConfig(seed=1, max_generation=15, population_size=40),
              "37eadf6f7e831954905ed2aff1f28db060f8c5852dbc27feff1922132dd7cd3a"),
    Algo.SGP: (EvolutionConfig(seed=2, max_generation=4, population_size=20, population_num=2),
               "c83b11d45780481d3f38d5e9b891abdee3007003777b592cfda63462cd920185"),
}


@pytest.mark.parametrize("algo", list(GOLDEN), ids=lambda a: a.value)
def test_a_seed_yields_the_pinned_model(algo):
    cfg, digest = GOLDEN[algo]
    split = shuffle_split(gen_synthetic("moons", 120, 0.3, seed=3), seed=3)
    cls = fit(split.train, algo, cfg)
    text = format_model(cls.model, cls.n_features)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


GEN_BOUNDS = {"default": DEFAULT_BOUNDS,
              "wide": GenBounds(bool_max=6, math_min=0, math_max=4)}
CONST_RANGES = {"narrow": (-3.0, 7.5), "point": (0.0, 0.0), "huge": (-1e300, 1e300)}

GENERATION = {
    ("hard", "default", "narrow"): "d4f0d40817ae707054f7d8216ff42023bc6e11de15269908d62ac19343732140",
    ("hard", "default", "point"): "95168cd05e75b6a30b1ec47e2ec408f153f307ee6f60d6a16cdc3792136a601c",
    ("hard", "default", "huge"): "f8f011326ac5a93a71832a277ff40f536c6ac87cd0b81273a92b379231e3b11a",
    ("hard", "wide", "narrow"): "66d8a13bfb84a0f9b3d73ad4b3980f4d53e1a5ab62b8d276da7c1e80879017e5",
    ("hard", "wide", "point"): "959c901538fc5b607b37a938d12303a3d20f29a2110d2f8e56fa4d4bc5f123a1",
    ("hard", "wide", "huge"): "b2815ad50a252d42f8ab8eca6c1c395aa3bf61dd70d150fe428788b9c81f1e4e",
    ("soft", "default", "narrow"): "e7977686a7631a85815e58c7638aa27ea777a6afdc8cce48b258542c6814ddd8",
    ("soft", "default", "point"): "ba16ac9ad8c7987368546d02b23e29a6784b7175545cca9adac5714199e78960",
    ("soft", "default", "huge"): "8e2862d435d336a7ebbd6d23a4e1587ca112e3ab99da54435b4747693a23f686",
    ("soft", "wide", "narrow"): "71b69d800b6afd4771e54f56972eb4c36ecf6c5d67651b857d6e7495f670397c",
    ("soft", "wide", "point"): "ef77411bf7051558854db194c6d28f3bb5d12b8cf7aa312cd10468b6897a7907",
    ("soft", "wide", "huge"): "81997c880a424d1d17b06aa2010a238de84ce9d5b486757a7dc824138f42da2f",
}


def generation_transcript(variant, bounds, const_range):
    """Three random trees, then a random subtree of every class at depth
    budgets 1, 2 and 4, each line followed by the generator's next
    random()."""
    rng = np.random.default_rng(5)
    lines = []
    for _ in range(3):
        lines.append(format_tree(random_tree(variant, bounds, 3, const_range, rng)))
        lines.append(repr(rng.random()))
    for cls in OpClass:
        for budget in (1, 2, 4):
            node = random_subtree(cls, variant, bounds, 3, const_range, rng, depth_budget=budget)
            lines.append(format_tree(ExprTree(variant, node)))
            lines.append(repr(rng.random()))
    return "\n".join(lines)


@pytest.mark.parametrize("key", list(GENERATION), ids="-".join)
def test_a_seed_generates_the_pinned_trees(key):
    variant, bounds, const_range = key
    text = generation_transcript(Variant(variant), GEN_BOUNDS[bounds], CONST_RANGES[const_range])
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATION[key]


@pytest.mark.parametrize("low", [0, 1, 4, 6])
def test_a_draw_from_a_single_value_leaves_the_generator_as_it_was(low):
    # random generation skips integers(low, low + 1) where a stop rule has
    # one depth left; the pins above hold only while numpy returns low
    # without advancing the generator
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert rng.integers(low, low + 1) == low
    assert rng.bit_generator.state == before
