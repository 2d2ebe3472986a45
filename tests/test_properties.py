"""Property tests: the evaluator against its saturating reference, and the
model-file parser against arbitrary text."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import softgp.tree as tree_mod
from softgp.sexpr import ParseError, format_model, parse_model
from softgp.tree import (
    DEFAULT_BOUNDS,
    OP_CLASS,
    ExprTree,
    Variant,
    eval_batch,
    random_subtree,
    random_tree,
    replace_subtree,
)

N_FEATURES = 3

seeds = st.integers(0, 2**32 - 1)
variants = st.sampled_from([Variant.HARD, Variant.SOFT])
# decimal exponent of the largest magnitude in x and in the constants
exponents = st.floats(-3.0, 300.0)


def draw(seed, variant, exponent, rows=16):
    """A random tree and a row matrix whose cells have magnitudes spread
    log-uniformly over [1e-3, 10**exponent], both signs."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    tree = random_tree(variant, DEFAULT_BOUNDS, N_FEATURES, (-scale, scale), rng)
    mags = 10.0 ** rng.uniform(-3.0, exponent, size=(rows, N_FEATURES))
    x = np.where(rng.random((rows, N_FEATURES)) < 0.5, -mags, mags)
    return tree, x, rng, scale


def reference(tree, x):
    return tree_mod._eval_saturating(tree, x).tobytes()


@given(seeds, variants, exponents)
def test_eval_batch_matches_the_saturating_pass(seed, variant, exponent):
    tree, x, rng, scale = draw(seed, variant, exponent)
    memo = {}
    assert eval_batch(tree, x, memo=memo, fill_memo=True).tobytes() == reference(tree, x)
    # an edited copy served partly from that memo, as the gated operators do
    child = tree.root.children[0]
    fresh = random_subtree(OP_CLASS[child.kind], variant, DEFAULT_BOUNDS, N_FEATURES,
                           (-scale, scale), rng, depth_budget=2)
    edited = ExprTree(variant, replace_subtree(tree.root, (0,), fresh))
    assert eval_batch(edited, x, memo=memo).tobytes() == reference(edited, x)


@given(seeds, variants, exponents)
def test_model_round_trip_reproduces_evaluation_bytes(seed, variant, exponent):
    tree, x, _, _ = draw(seed, variant, exponent)
    back, n_features = parse_model(format_model(tree, N_FEATURES))
    assert n_features == N_FEATURES
    assert back == tree
    assert eval_batch(back, x).tobytes() == eval_batch(tree, x).tobytes()


_HEADERS = ["", "#sgp-tree v1 variant=soft n_features=2\n",
            "#sgp-tree v1 variant=hard n_features=2\n"]
_TOKENS = ["(", ")", "OR", "AND", "NOT", "OR3", "AND3", "GT", "LT", "ADD", "MUL", "NEG",
           "SIGM", "LIN2", "LIN3", "x0", "x7", "0.5", "-2", "1e999", "inf", "nan", "?", "\n"]

model_texts = st.one_of(
    st.text(),
    st.builds(str.__add__, st.sampled_from(_HEADERS), st.text()),
    st.builds(lambda head, toks: head + " ".join(toks),
              st.sampled_from(_HEADERS), st.lists(st.sampled_from(_TOKENS), max_size=40)),
)


@given(model_texts)
@example("#sgp-tree v1 variant=soft n_features=2\n(GT 0.5 x" + "9" * 5000 + " 1.0)\n")
@example("#sgp-tree v1 variant=soft n_features=" + "9" * 5000 + "\n(GT 0.5 x0 1.0)\n")
def test_parse_model_raises_only_parse_error(text):
    try:
        parse_model(text)
    except ParseError:
        pass
