"""Property tests: the evaluator against its saturating reference, the
model-file parser against arbitrary text and a recursive reference
parser, the model-file writer against trees that break its rules, and
subtree summaries, the locators and the weight-slot accessors
against from-scratch walks."""

import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import softgp.tree as tree_mod
from softgp.genetics import (
    MUTATION_WEIGHTS,
    EvalContext,
    Individual,
    _pick_class,
    crossover,
    extension_mutation,
    mutate,
)
from softgp.sexpr import (
    ParseError,
    format_model,
    format_tree,
    load_model,
    parse_model,
    save_model,
)
from softgp.tree import (
    DEFAULT_BOUNDS,
    OP_CLASS,
    ExprTree,
    LocatorError,
    Node,
    OpClass,
    OpKind,
    TreeError,
    Variant,
    collect_weights,
    eval_batch,
    locate_node,
    node_count,
    random_subtree,
    random_tree,
    replace_subtree,
    set_weight,
    summary,
    validate,
    weight_at,
)

import sexpr_oracle
from sexpr_oracle import _TOKEN_RE
from treewalk import iter_nodes

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


def cached_eval(tree, x):
    """eval_batch with caching on, as EvalContext evaluates in a generation
    block."""
    with np.errstate(over="raise"):
        return tree_mod.eval_trapped(tree, x, True, bool(np.isfinite(x).all()))


@given(seeds, variants, exponents)
def test_eval_batch_matches_the_saturating_pass(seed, variant, exponent):
    tree, x, rng, scale = draw(seed, variant, exponent)
    assert eval_batch(tree, x).tobytes() == reference(tree, x)
    assert cached_eval(tree, x).tobytes() == reference(tree, x)
    # an edited copy served partly from the activations its shared subtrees
    # hold, as the gated operators' candidates are
    child = tree.root.children[0]
    fresh = random_subtree(OP_CLASS[child.kind], variant, DEFAULT_BOUNDS, N_FEATURES,
                           (-scale, scale), rng, depth_budget=2)
    edited = ExprTree(variant, replace_subtree(tree.root, (0,), fresh))
    assert cached_eval(edited, x).tobytes() == reference(edited, x)


@given(seeds, variants, st.floats(0.0, 307.9))
@example(0, Variant.SOFT, 307.9)
@example(0, Variant.HARD, 307.9)
def test_the_trapping_pass_meets_no_invalid_operation(seed, variant, exponent):
    # why the trapping pass traps overflow alone: on finite rows and
    # literals only an overflow makes an inf, so it raises before any
    # inf - inf or inf * 0. Constants reach about +/-8e307 (10**307.9), and
    # about a tenth of the cells are 0 or +/-FLOAT_MAX
    tree, x, rng, _ = draw(seed, variant, exponent)
    edges = rng.random(x.shape) < 0.1
    x[edges] = rng.choice([0.0, tree_mod.FLOAT_MAX, -tree_mod.FLOAT_MAX], int(edges.sum()))
    with np.errstate(over="raise", invalid="raise"):
        try:
            tree_mod._walk(tree.root, np.asfortranarray(x), False, trap=True)
        except FloatingPointError as e:
            assert "overflow" in str(e)


@given(seeds, variants, exponents)
def test_model_round_trip_reproduces_evaluation_bytes(seed, variant, exponent):
    tree, x, _, _ = draw(seed, variant, exponent)
    back, n_features = parse_model(format_model(tree, N_FEATURES))
    assert n_features == N_FEATURES
    assert back == tree
    assert eval_batch(back, x).tobytes() == eval_batch(tree, x).tobytes()


# NaN never equals itself, so a tree holding one could not compare equal
# to the tree read back
reals = st.floats(allow_nan=False)
hand_built = st.recursive(
    st.one_of(st.builds(Node, st.just(OpKind.SYMBOL),
                        payload=st.one_of(st.integers(-1, N_FEATURES), st.booleans())),
              st.builds(Node, st.just(OpKind.CONST), payload=reals)),
    lambda children: st.builds(
        Node, st.sampled_from(list(OpKind)), st.lists(children, max_size=3).map(tuple),
        st.one_of(st.none(), reals), st.one_of(st.none(), st.lists(reals, max_size=3)),
        st.one_of(st.none(), st.integers(0, N_FEATURES), reals)),
    max_leaves=6)


@given(seeds, variants, st.data())
def test_every_model_save_model_writes_loads_back_equal(tmp_path_factory, seed, variant, data):
    # a random tree, possibly with one subtree (the root, say) replaced by
    # a hand-built one that may break any rule, saved under a feature
    # count that may be too small or too large for the header
    tree = random_tree(variant, DEFAULT_BOUNDS, N_FEATURES, (-2.0, 2.0),
                       np.random.default_rng(seed))
    if data.draw(st.booleans()):
        path, _ = locate_node(tree.root, data.draw(st.integers(0, node_count(tree.root) - 1)))
        tree = ExprTree(variant, replace_subtree(tree.root, path, data.draw(hand_built)))
    n_features = data.draw(st.sampled_from([N_FEATURES, N_FEATURES + 1, 10 ** 9 - 1,
                                            10 ** 9, 0, -1]))
    file = tmp_path_factory.getbasetemp() / "saved.sgp"
    file.unlink(missing_ok=True)
    try:
        save_model(file, tree, n_features)
    except TreeError:
        assert not file.exists()
    else:
        assert load_model(file) == (tree, n_features)


_SEPARATORS = st.lists(st.sampled_from(["\t", "\r\n", "\x0b", "\x85", " "]), min_size=1,
                       max_size=3).map("".join)


@given(seeds, variants, st.data())
def test_any_whitespace_between_tokens_parses_to_the_same_tree(seed, variant, data):
    tree, _, _, _ = draw(seed, variant, 1.0, rows=1)
    tokens = format_tree(tree).replace("(", "( ").replace(")", " )").split(" ")
    seps = data.draw(st.lists(_SEPARATORS, min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    body = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))
    header = f"#sgp-tree v1 variant={variant.value} n_features={N_FEATURES}\n"
    back, n_features = parse_model(header + body)
    assert n_features == N_FEATURES
    assert back == tree


_HEADERS = ["", "#sgp-tree v1 variant=soft n_features=2\n",
            "#sgp-tree v1 variant=hard n_features=2\n"]
_TOKENS = ["(", ")", "OR", "AND", "NOT", "OR3", "AND3", "GT", "LT", "ADD", "MUL", "NEG",
           "SIGM", "LIN2", "LIN3", "x0", "x7", "0.5", "-2", "1e999", "inf", "nan", "?", "\n"]

# the 29 characters str.isspace() accepts
_SPACES = st.sampled_from([c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()])


@st.composite
def respaced_models(pick):
    """A random tree's tokens joined by runs of any str.isspace()
    characters, with no run at all beside some parentheses, under a header
    whose variant need not be the tree's, so that some fail to parse."""
    tree, _, _, _ = draw(pick(seeds), pick(variants), 1.0, rows=1)
    tokens = _TOKEN_RE.findall(format_tree(tree))
    text = pick(st.sampled_from(_HEADERS[1:]))
    # before the first token, as beside a parenthesis, no run is needed
    for prev, tok in zip(["("] + tokens, tokens):
        least = 0 if {prev, tok} & {"(", ")"} else 1
        text += pick(st.text(_SPACES, min_size=least, max_size=3)) + tok
    return text + pick(st.text(_SPACES, max_size=3))


model_texts = st.one_of(
    st.text(),
    st.builds(str.__add__, st.sampled_from(_HEADERS), st.text()),
    st.builds(lambda head, toks: head + " ".join(toks),
              st.sampled_from(_HEADERS), st.lists(st.sampled_from(_TOKENS), max_size=40)),
    respaced_models(),
)


@given(model_texts)
@example("#sgp-tree v1 variant=soft n_features=2\n(GT 0.5 x" + "9" * 5000 + " 1.0)\n")
@example("#sgp-tree v1 variant=soft n_features=" + "9" * 5000 + "\n(GT 0.5 x0 1.0)\n")
def test_parse_model_raises_only_parse_error(text):
    try:
        parse_model(text)
    except ParseError:
        pass


def parsed(parse, text):
    """What parse makes of text: the tree's repr (which spells NaN and -0.0,
    where == does not) and the feature count, or the error's text and
    position."""
    try:
        tree, n_features = parse(text)
    except ParseError as e:
        return str(e), e.line, e.col
    return repr(tree), n_features


@given(model_texts)
@example("")
@example("#sgp-tree v1 variant=soft n_features=2\n(OR3 1.0 (GT 1.0 x0 x1) (NOT 1.0 ))")
def test_parse_model_agrees_with_the_recursive_parser(text):
    assert parsed(parse_model, text) == parsed(sexpr_oracle.parse_model, text)


@given(seeds, variants, st.data())
def test_edited_model_files_parse_as_the_recursive_parser_does(seed, variant, data):
    tree, _, _, _ = draw(seed, variant, 1.0, rows=1)
    tokens = _TOKEN_RE.findall(format_model(tree, N_FEATURES))
    # the header is tokens[:4]; edit one body token: drop it, repeat it,
    # or put another in its place
    i = data.draw(st.integers(4, len(tokens) - 1))
    edit = data.draw(st.sampled_from(["drop", "repeat", "replace"]))
    if edit == "drop":
        tokens[i:i + 1] = []
    elif edit == "repeat":
        tokens.insert(i, tokens[i])
    else:
        tokens[i] = data.draw(st.sampled_from(_TOKENS))
    text = " ".join(tokens[:4]) + "\n" + " ".join(tokens[4:])
    assert parsed(parse_model, text) == parsed(sexpr_oracle.parse_model, text)


def bool_depth(node):
    if OP_CLASS[node.kind] is not OpClass.BOOLEAN:
        return 0
    return 1 + max((bool_depth(c) for c in node.children), default=0)


def math_chain(node):
    cls = OP_CLASS[node.kind]
    if cls is OpClass.TERM:
        return 0
    best = max((math_chain(c) for c in node.children), default=0)
    return best + 1 if cls is OpClass.MATHEMATICAL else best


def recomputed(node):
    """A subtree summary computed from scratch, reading no stored summary."""
    nodes = [n for _, n in iter_nodes(node)]
    counts = [sum(OP_CLASS[n.kind] is cls for n in nodes) for cls in OpClass]
    slots = sum((n.weight is not None) + len(n.coeffs or ()) for n in nodes)
    return (*counts, len(nodes), slots, bool_depth(node), math_chain(node))


def assert_summaries_hold(root):
    assert summary(root) == recomputed(root)
    # every summary stored anywhere in the tree, shared subtrees included
    for _, node in iter_nodes(root):
        if node.summary is not None:
            assert node.summary == recomputed(node)


def small_context(rng):
    x = rng.normal(size=(24, N_FEATURES))
    return EvalContext(x, np.arange(24) % 2)


@given(seeds, variants)
def test_summaries_match_a_recomputation_through_every_edit(seed, variant):
    rng = np.random.default_rng(seed)
    crange = (-2.0, 2.0)
    t1 = random_tree(variant, DEFAULT_BOUNDS, N_FEATURES, crange, rng)
    t2 = random_tree(variant, DEFAULT_BOUNDS, N_FEATURES, crange, rng)
    assert_summaries_hold(t1.root)

    path, node = locate_node(t1.root, int(rng.integers(0, node_count(t1.root))))
    fresh = random_subtree(OP_CLASS[node.kind], variant, DEFAULT_BOUNDS, N_FEATURES, crange,
                           rng, depth_budget=2)
    assert_summaries_hold(replace_subtree(t1.root, path, fresh))

    if variant is Variant.SOFT:
        k = int(rng.integers(0, summary(t1.root)[tree_mod.SUMMARY_SLOTS]))
        assert_summaries_hold(set_weight(t1, k, weight_at(t1, k) + 0.25).root)

    c1, c2 = crossover(t1, t2, rng)
    assert_summaries_hold(c1.root)
    assert_summaries_hold(c2.root)

    mutant = mutate(c1, N_FEATURES, crange, rng)
    assert_summaries_hold(mutant.root)

    if variant is Variant.SOFT:
        ctx = small_context(rng)
        ind = Individual(c2, ctx.fitness_of(c2))
        extended = extension_mutation(ind, ctx, rng)
        assert_summaries_hold(extended.tree.root)

    back, _ = parse_model(format_model(mutant, N_FEATURES))
    assert_summaries_hold(back.root)


@given(seeds, variants)
def test_locators_agree_with_the_walks(seed, variant):
    rng = np.random.default_rng(seed)
    t1 = random_tree(variant, DEFAULT_BOUNDS, N_FEATURES, (-2.0, 2.0), rng)
    t2 = random_tree(variant, DEFAULT_BOUNDS, N_FEATURES, (-2.0, 2.0), rng)
    # an edited tree mixes summarised shared subtrees with new path nodes
    tree, _ = crossover(t1, t2, rng)
    walked = list(iter_nodes(tree.root))
    for cls in (None, *OpClass):
        expected = [(p, n) for p, n in walked if cls is None or OP_CLASS[n.kind] is cls]
        for k, (path, node) in enumerate(expected):
            got_path, got_node = locate_node(tree.root, k, cls)
            assert got_path == path and got_node is node
        for k in (-1, len(expected)):
            with pytest.raises(LocatorError):
                locate_node(tree.root, k, cls)
    slots = walked_slots(tree.root)
    assert collect_weights(tree) == [w for _, w in slots]
    for k in (-1, len(slots)):
        with pytest.raises(LocatorError):
            weight_at(tree, k)


def walked_slots(root):
    """(is an operator weight, value) for every weight slot, in the preorder
    a plain walk gives: a node's weight, then its coefficients."""
    out = []
    for _, node in iter_nodes(root):
        if node.weight is not None:
            out.append((True, node.weight))
        out.extend((False, c) for c in node.coeffs or ())
    return out


@given(seeds, st.floats(allow_nan=False))
@example(0, -0.0)
@example(0, 0.5)
@example(0, 1.5)
def test_set_weight_changes_only_its_slot(seed, value):
    rng = np.random.default_rng(seed)
    tree = random_tree(Variant.SOFT, DEFAULT_BOUNDS, N_FEATURES, (-2.0, 2.0), rng)
    before = walked_slots(tree.root)
    assert_summaries_hold(tree.root)
    for k, (is_weight, _) in enumerate(before):
        edited = set_weight(tree, k, value)
        want = min(1.0, max(0.0, value)) if is_weight else value
        assert weight_at(edited, k) == want
        after = walked_slots(edited.root)
        assert after[:k] + after[k + 1:] == before[:k] + before[k + 1:]
        assert after[k] == (is_weight, want)
        # set_weight changes no shape, so every summary, on the rebuilt
        # path or shared, equals the checked one at the same place in tree
        for (p1, new), (p2, old) in zip(iter_nodes(edited.root), iter_nodes(tree.root)):
            assert (p1, new.kind, summary(new)) == (p2, old.kind, summary(old))
    for k in (-1, len(before)):
        with pytest.raises(LocatorError):
            set_weight(tree, k, value)
        with pytest.raises(LocatorError):
            weight_at(tree, k)


@given(seeds, variants)
def test_summary_takes_no_part_in_eq_hash_or_repr(seed, variant):
    tree, _, _, _ = draw(seed, variant, 1.0)
    bare, _ = parse_model(format_model(tree, N_FEATURES))
    summary(tree.root)
    assert tree.root.summary is not None and bare.root.summary is None
    assert tree == bare
    assert hash(tree) == hash(bare)
    assert repr(tree) == repr(bare)


@given(seeds, variants)
def test_fresh_tree_readers_fill_no_summary(seed, variant):
    tree, x, _, _ = draw(seed, variant, 1.0)
    parsed, _ = parse_model(format_model(tree, N_FEATURES))
    for t in (tree, parsed):
        node_count(t.root)
        validate(t, N_FEATURES)
        eval_batch(t, x)
        assert all(n.summary is None for _, n in iter_nodes(t.root))
    # node_count agrees with the size a filled summary stores
    s = summary(tree.root)
    assert node_count(tree.root) == s[tree_mod.SUMMARY_SIZE]


def test_class_pick_matches_generator_choice():
    # every set of classes a tree can hold, in counts of 1 to 4 nodes
    for mask in range(1, 1 << len(OpClass)):
        counts = [(c + 1) * (mask >> c & 1) for c in OpClass]
        present = [c for c in OpClass if counts[c]]
        w = np.array([MUTATION_WEIGHTS[c] for c in present], dtype=np.float64)
        ours, theirs = np.random.default_rng(mask), np.random.default_rng(mask)
        for _ in range(2000):
            want = present[theirs.choice(len(present), p=w / w.sum())]
            assert _pick_class(counts, ours) is want
        assert ours.bit_generator.state == theirs.bit_generator.state
