"""The PCG64 word stream behind random generation, held to numpy.

tree._PCG64Stream computes Generator.integers and Generator.random in
Python from raw PCG64 words. The stream must return numpy's values and
leave numpy's generator state to the last field, the half-word buffer
included, or a seed would stop reproducing its models. Generation over
any other bit generator, a PCG64 subclass included, calls the Generator's
own methods; that path is the reference the stream is compared with.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softgp.sexpr import format_tree
from softgp.tree import (
    DEFAULT_BOUNDS,
    ExprTree,
    GenBounds,
    OpClass,
    TreeError,
    Variant,
    _PCG64Stream,
    random_subtree,
    random_tree,
    validate,
)

seeds = st.integers(0, 2**64 - 1)

# 1 draws nothing; 2**31 + 1 and 3 * 2**30 make Lemire's method reject
# about half and a quarter of the time; 2**32 - 1 and 2**32 are the ends
# of the 32-bit path
SPANS = [1, 2, 3, 5, 6, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]

# a program is a list of draws: (lo, span) for integers(lo, lo + span),
# None for random(); long enough to cross several 64-word blocks
draws = st.one_of(st.tuples(st.integers(-7, 7), st.sampled_from(SPANS)), st.none())
programs = st.lists(draws, max_size=300)


class SubPCG64(np.random.PCG64):
    """A PCG64 whose type is not exactly PCG64, so generation over it takes
    the Generator's own methods."""


def state_of(rng):
    """The bit generator's state without its class name, as plain values
    (MT19937 keeps its key in an array)."""
    state = rng.bit_generator.state
    del state["bit_generator"]
    state["state"] = {k: np.asarray(v).tolist() for k, v in state["state"].items()}
    return state


@given(seeds, st.booleans(), programs)
def test_stream_draws_what_the_generator_draws(seed, buffered, program):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        # a 32-bit draw leaves the high half of its word buffered
        ours.integers(0, 2)
        theirs.integers(0, 2)
    assert ours.bit_generator.state["has_uint32"] == buffered
    stream = _PCG64Stream(ours.bit_generator)
    for step in program:
        if step is None:
            assert stream.random() == theirs.random()
        else:
            lo, span = step
            assert stream.integers(lo, lo + span) == theirs.integers(lo, lo + span)
    stream.close()
    # the whole state dict, so a spent half word that numpy keeps in
    # uinteger must be handed back too
    assert ours.bit_generator.state == theirs.bit_generator.state


def transcript(rng, variant, bounds, n_features, const_range):
    """Three random trees, then a random subtree of every class at depth
    budgets 1, 2 and 4, each with the generator state after it."""
    out = []
    for _ in range(3):
        tree = random_tree(variant, bounds, n_features, const_range, rng)
        out.append((format_tree(tree), state_of(rng)))
    for cls in OpClass:
        for budget in (1, 2, 4):
            node = random_subtree(cls, variant, bounds, n_features, const_range, rng,
                                  depth_budget=budget)
            out.append((format_tree(ExprTree(variant, node)), state_of(rng)))
    return out


BOUNDS = [DEFAULT_BOUNDS, GenBounds(bool_max=6, math_min=0, math_max=4)]


@given(seeds, st.sampled_from(list(Variant)), st.sampled_from(BOUNDS),
       st.sampled_from([1, 3, 2**32]), st.sampled_from([(-3.0, 7.5), (0.0, 0.0), (-1e300, 1e300)]),
       st.booleans())
def test_generation_over_pcg64_matches_the_reference_path(seed, variant, bounds, n_features,
                                                          const_range, buffered):
    ours = np.random.Generator(np.random.PCG64(seed))
    theirs = np.random.Generator(SubPCG64(seed))
    if buffered:
        ours.integers(0, 2)
        theirs.integers(0, 2)
    assert transcript(ours, variant, bounds, n_features, const_range) == \
        transcript(theirs, variant, bounds, n_features, const_range)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_more_features_than_the_stream_spans_take_the_reference_path(variant):
    # integers(0, n) with n > 2**32 runs numpy's 64-bit method, which the
    # stream does not reproduce
    n_features = 2**32 + 1
    ours = np.random.Generator(np.random.PCG64(4))
    theirs = np.random.Generator(SubPCG64(4))
    assert transcript(ours, variant, DEFAULT_BOUNDS, n_features, (-1.0, 1.0)) == \
        transcript(theirs, variant, DEFAULT_BOUNDS, n_features, (-1.0, 1.0))


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_generation_over_mt19937_is_valid_and_reproducible(variant):
    def run(seed):
        return transcript(np.random.Generator(np.random.MT19937(seed)), variant,
                          DEFAULT_BOUNDS, 3, (-2.0, 2.0))
    for seed in range(5):
        assert run(seed) == run(seed)
        rng = np.random.Generator(np.random.MT19937(seed))
        for _ in range(10):
            assert validate(random_tree(variant, DEFAULT_BOUNDS, 3, (-2.0, 2.0), rng), 3) == []


def test_a_rejected_constant_range_draws_nothing():
    rng = np.random.default_rng(2)
    rng.integers(0, 2)
    before = rng.bit_generator.state
    with pytest.raises(TreeError):
        random_tree(Variant.SOFT, DEFAULT_BOUNDS, 3, (1.0, -1.0), rng)
    with pytest.raises(TreeError):
        random_subtree(OpClass.TERM, Variant.SOFT, DEFAULT_BOUNDS, 3, (0.0, np.inf), rng, 1)
    assert rng.bit_generator.state == before
