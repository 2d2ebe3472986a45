import dataclasses
import pickle

import numpy as np
import pytest

from softgp.sexpr import format_tree
from softgp.tree import (
    ARITY,
    BOOL_DEPTH_CAP,
    DEFAULT_BOUNDS,
    OP_CLASS,
    SUMMARY_BOOL_DEPTH,
    SUMMARY_MATH_CHAIN,
    ExprTree,
    GenBounds,
    LocatorError,
    Node,
    OpClass,
    OpKind,
    TreeError,
    Variant,
    collect_weights,
    const,
    iter_nodes,
    locate_node,
    node_count,
    op,
    random_subtree,
    random_tree,
    replace_subtree,
    set_weight,
    summary,
    symbol,
    validate,
    weight_at,
)

BOOL_KINDS = {OpKind.OR, OpKind.AND, OpKind.NOT, OpKind.OR3, OpKind.AND3}
CMP_KINDS = {OpKind.GT, OpKind.LT}
MATH_KINDS = {OpKind.ADD, OpKind.MUL, OpKind.NEG, OpKind.SIGM, OpKind.LIN2, OpKind.LIN3}
TERM_KINDS = {OpKind.SYMBOL, OpKind.CONST}

# the chain limits validate() accepts: boolean depth up to the extension
# cap, math chains empty or up to the generation bound
VALIDATION_BOUNDS = GenBounds(bool_min=1, bool_max=BOOL_DEPTH_CAP, math_min=0, math_max=4)


def path_chains(tree):
    """Independent reference for the layer rule: the class sequence of every
    root-to-leaf path, collapsed to (boolean run, comparison run, math run,
    term run). Returns None for a path that does not fit that shape at all."""
    chains = []

    def walk(node, classes):
        if node.kind in BOOL_KINDS:
            classes = classes + "b"
        elif node.kind in CMP_KINDS:
            classes = classes + "c"
        elif node.kind in MATH_KINDS:
            classes = classes + "m"
        else:
            classes = classes + "t"
        if not node.children:
            b = len(classes) - len(classes.lstrip("b"))
            rest = classes[b:]
            c = len(rest) - len(rest.lstrip("c"))
            rest = rest[c:]
            m = len(rest) - len(rest.lstrip("m"))
            rest = rest[m:]
            chains.append((b, c, m) if rest == "t" else None)
        for child in node.children:
            walk(child, classes)

    walk(tree.root, "")
    return chains


def chain_ok(tree, bounds):
    for chain in path_chains(tree):
        if chain is None:
            return False
        b, c, m = chain
        if not (bounds.bool_min <= b <= bounds.bool_max and c == 1
                and bounds.math_min <= m <= bounds.math_max):
            return False
    return True


def test_generated_trees_satisfy_the_chain_oracle():
    rng = np.random.default_rng(11)
    for variant in (Variant.HARD, Variant.SOFT):
        for _ in range(500):
            t = random_tree(variant, DEFAULT_BOUNDS, 3, (-1.0, 1.0), rng)
            assert chain_ok(t, DEFAULT_BOUNDS)
            assert validate(t, 3) == []


def test_validate_agrees_with_oracle_on_malformed_trees():
    cases = [
        # boolean below a comparison
        op(OpKind.GT, op(OpKind.OR, const(1.0), const(1.0)), const(0.0)),
        # comparison below a comparison
        op(OpKind.GT, op(OpKind.LT, const(1.0), const(0.0)), const(0.0)),
        # term directly under a boolean
        op(OpKind.AND, symbol(0), op(OpKind.GT, symbol(0), const(0.0))),
        # math at the root
        op(OpKind.ADD, const(1.0), const(2.0)),
    ]
    for root in cases:
        t = ExprTree(Variant.HARD, root)
        assert not chain_ok(t, VALIDATION_BOUNDS)
        assert validate(t, 2) != []


def test_exact_depths_when_bounds_are_degenerate():
    rng = np.random.default_rng(12)
    bounds = GenBounds(bool_min=2, bool_max=2, math_min=3, math_max=3)
    for _ in range(60):
        t = random_tree(Variant.SOFT, bounds, 2, (-1.0, 1.0), rng)
        assert all(chain == (2, 1, 3) for chain in path_chains(t))


def test_leftmost_path_depths_are_uniform():
    rng = np.random.default_rng(13)
    bool_runs = {1: 0, 2: 0, 3: 0}
    math_runs = {1: 0, 2: 0, 3: 0, 4: 0}
    n = 6000
    for _ in range(n):
        node = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-1.0, 1.0), rng).root
        b = 0
        while node.kind in BOOL_KINDS:
            b += 1
            node = node.children[0]
        node = node.children[0]  # past the comparison
        m = 0
        while node.kind in MATH_KINDS:
            m += 1
            node = node.children[0]
        bool_runs[b] += 1
        math_runs[m] += 1
    for depth, count in bool_runs.items():
        assert count / n == pytest.approx(1 / 3, abs=0.03), f"bool depth {depth}"
    for depth, count in math_runs.items():
        assert count / n == pytest.approx(1 / 4, abs=0.03), f"math depth {depth}"


def test_generation_is_deterministic_under_seed():
    a = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 4, (-2.0, 2.0), np.random.default_rng(99))
    b = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 4, (-2.0, 2.0), np.random.default_rng(99))
    assert format_tree(a) == format_tree(b)


def test_generation_argument_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(TreeError, match="feature"):
        random_tree(Variant.HARD, DEFAULT_BOUNDS, 0, (-1.0, 1.0), rng)
    with pytest.raises(TreeError, match="constant range"):
        random_tree(Variant.HARD, DEFAULT_BOUNDS, 2, (1.0, -1.0), rng)


@pytest.mark.parametrize("const_range", [(0.0, float("nan")), (-1e308, 1e308),
                                         (float("-inf"), 0.0)])
def test_generation_rejects_a_constant_range_without_a_finite_width(const_range):
    # rejected up front, before any draw, so a draw of only symbols cannot
    # let the range through
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(TreeError, match="constant range"):
        random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, const_range, rng)
    for cls in OpClass:
        with pytest.raises(TreeError, match="constant range"):
            random_subtree(cls, Variant.SOFT, DEFAULT_BOUNDS, 2, const_range, rng,
                           depth_budget=2)
    assert rng.bit_generator.state == state


def test_random_subtree_root_class_and_budget():
    rng = np.random.default_rng(14)
    for _ in range(200):
        b = random_subtree(OpClass.BOOLEAN, Variant.SOFT, DEFAULT_BOUNDS, 2,
                           (-1.0, 1.0), rng, depth_budget=2)
        assert b.kind in BOOL_KINDS and summary(b)[SUMMARY_BOOL_DEPTH] <= 2
        m = random_subtree(OpClass.MATHEMATICAL, Variant.SOFT, DEFAULT_BOUNDS, 2,
                           (-1.0, 1.0), rng, depth_budget=3)
        assert m.kind in MATH_KINDS and summary(m)[SUMMARY_MATH_CHAIN] <= 3
        c = random_subtree(OpClass.COMPARISON, Variant.HARD, DEFAULT_BOUNDS, 2,
                           (-1.0, 1.0), rng, depth_budget=1)
        assert c.kind in CMP_KINDS
        t = random_subtree(OpClass.TERM, Variant.HARD, DEFAULT_BOUNDS, 2,
                           (-1.0, 1.0), rng, depth_budget=1)
        assert t.kind in TERM_KINDS


def test_term_kinds_are_balanced():
    rng = np.random.default_rng(15)
    n = 4000
    kinds = [random_subtree(OpClass.TERM, Variant.HARD, DEFAULT_BOUNDS, 2,
                            (-1.0, 1.0), rng, depth_budget=1).kind
             for _ in range(n)]
    frac = sum(1 for k in kinds if k is OpKind.SYMBOL) / n
    assert frac == pytest.approx(0.5, abs=0.03)


# --- structure helpers --------------------------------------------------------

def sample_tree():
    # OR(GT(ADD(x0, 2.0), x1), NOT(LT(x1, LIN2(0.5, -0.5; x0, 1.0))))
    return ExprTree(Variant.SOFT, op(
        OpKind.OR,
        op(OpKind.GT, op(OpKind.ADD, symbol(0), const(2.0)), symbol(1), weight=0.7),
        op(OpKind.NOT,
           op(OpKind.LT, symbol(1),
              op(OpKind.LIN2, symbol(0), const(1.0), coeffs=(0.5, -0.5)),
              weight=0.2),
           weight=0.9),
        weight=0.4))


def node_at(root, path):
    for i in path:
        root = root.children[i]
    return root


def test_op_class_has_exactly_one_entry_per_kind():
    assert len(OP_CLASS) == len(OpKind) == len(ARITY)
    expected = {}
    for kinds, cls in ((BOOL_KINDS, OpClass.BOOLEAN), (CMP_KINDS, OpClass.COMPARISON),
                       (MATH_KINDS, OpClass.MATHEMATICAL), (TERM_KINDS, OpClass.TERM)):
        expected.update(dict.fromkeys(kinds, cls))
    assert {k: OP_CLASS[k] for k in OpKind} == expected
    arity = {OpKind.OR: 2, OpKind.AND: 2, OpKind.NOT: 1, OpKind.OR3: 3, OpKind.AND3: 3,
             OpKind.GT: 2, OpKind.LT: 2, OpKind.ADD: 2, OpKind.MUL: 2, OpKind.NEG: 1,
             OpKind.SIGM: 1, OpKind.LIN2: 2, OpKind.LIN3: 3, OpKind.SYMBOL: 0,
             OpKind.CONST: 0}
    assert {k: ARITY[k] for k in OpKind} == arity


def test_iter_nodes_is_preorder_with_paths():
    t = sample_tree()
    walked = list(iter_nodes(t.root))
    assert walked[0] == ((), t.root)
    paths = [p for p, _ in walked]
    assert paths == [(), (0,), (0, 0), (0, 0, 0), (0, 0, 1), (0, 1),
                     (1,), (1, 0), (1, 0, 0), (1, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1)]
    for path, node in walked:
        assert node_at(t.root, path) is node


def test_node_count():
    t = sample_tree()
    assert node_count(t.root) == 12


def test_summary_of_the_sample_tree():
    t = sample_tree()
    # counts per class, then size, weight slots, boolean depth, math chain
    assert summary(t.root) == (2, 2, 2, 6, 12, 6, 2, 1)
    assert locate_node(t.root, 5) == ((0, 1), node_at(t.root, (0, 1)))
    assert locate_node(t.root, 1, OpClass.MATHEMATICAL) == ((1, 0, 1), node_at(t.root, (1, 0, 1)))
    assert weight_at(t, 5) == -0.5


def test_summary_follows_the_readers_on_a_malformed_tree():
    # a boolean below a comparison and a term with a child: validate rejects
    # both, but a summary still agrees with node_count's walk and with the
    # depths by definition (a boolean run starts at the node; a math run
    # ends at a term, whatever lies below it)
    inner = op(OpKind.NOT, op(OpKind.GT, op(OpKind.NEG, symbol(0)), const(1.0)))
    odd = op(OpKind.AND, op(OpKind.GT, inner, const(0.0)),
             Node(OpKind.CONST, (op(OpKind.NEG, symbol(1)),), payload=1.0))
    # preorder: AND GT NOT GT NEG x0 1.0 0.0 CONST NEG x1
    nodes = [n for _, n in iter_nodes(odd)]
    expected = ([node_count(n) for n in nodes], [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                [1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0])
    summary(odd)
    assert expected == ([summary(n)[4] for n in nodes], [summary(n)[6] for n in nodes],
                        [summary(n)[7] for n in nodes])
    assert summary(odd)[6] == 1 and summary(odd.children[0])[6] == 0


def test_replace_subtree_errors():
    t = sample_tree()
    with pytest.raises(LocatorError, match="leaves the tree"):
        replace_subtree(t.root, (2,), const(1.0))


def test_replace_subtree_shares_untouched_parts():
    t = sample_tree()
    new = op(OpKind.GT, symbol(1), const(0.0), weight=1.0)
    root2 = replace_subtree(t.root, (0,), new)
    assert root2.children[0] is new
    assert root2.children[1] is t.root.children[1]  # untouched branch shared
    assert t.root.children[0].kind is OpKind.GT  # original unchanged
    assert replace_subtree(t.root, (), new) is new


def test_node_constructor_clamps_operator_weights():
    assert op(OpKind.OR, const(0.0), const(0.0), weight=1.7).weight == 1.0
    assert op(OpKind.OR, const(0.0), const(0.0), weight=-0.3).weight == 0.0
    assert op(OpKind.OR, const(0.0), const(0.0), weight=0.25).weight == 0.25


def test_node_constructor_normalises_sequences_and_supports_replace():
    n = Node(OpKind.LIN2, [symbol(0), const(1.0)], coeffs=[1, 2])
    assert n.children == (symbol(0), const(1.0)) and type(n.children) is tuple
    assert n.coeffs == (1.0, 2.0) and all(type(c) is float for c in n.coeffs)
    summary(n)
    m = dataclasses.replace(n, coeffs=(0.5, 0.25))
    assert m.coeffs == (0.5, 0.25) and m.children is n.children and m.summary is None
    assert pickle.loads(pickle.dumps(n)) == n


def test_node_constructor_keeps_a_float_already_in_range():
    for w in (0.25, 1.0, 5e-324, np.nextafter(1.0, 0.0).item()):
        assert op(OpKind.OR, const(0.0), const(0.0), weight=w).weight is w


@pytest.mark.parametrize("given, stored", [
    (-0.0, 0.0),
    (0.0, 0.0),
    (float("nan"), 0.0),
    (1.5, 1.0),
    (-2.0, 0.0),
    (float("inf"), 1.0),
    (float("-inf"), 0.0),
    (1, 1.0),
    (0, 0.0),
    (True, 1.0),
    (np.float64(0.5), 0.5),
    (np.float64(-0.0), 0.0),
    (np.float32(0.25), 0.25),
    (np.int64(1), 1.0),
])
def test_node_constructor_clamps_every_other_weight_to_a_python_float(given, stored):
    w = op(OpKind.OR, const(0.0), const(0.0), weight=given).weight
    assert type(w) is float
    assert w == stored
    # a stored zero is always +0.0, whatever the sign of the input
    assert np.copysign(1.0, w) == 1.0


# --- weight slots ---------------------------------------------------------------

def test_collect_weights_preorder_order_and_values():
    t = sample_tree()
    # the weights of OR, GT, NOT and LT, then LIN2's two coefficients
    assert collect_weights(t) == [0.4, 0.7, 0.9, 0.2, 0.5, -0.5]


def test_hard_trees_have_no_weight_slots():
    rng = np.random.default_rng(16)
    for _ in range(50):
        t = random_tree(Variant.HARD, DEFAULT_BOUNDS, 2, (-1.0, 1.0), rng)
        assert collect_weights(t) == []


def test_set_weight_updates_and_clamps_operator_weights():
    t = sample_tree()
    t2 = set_weight(t, 1, 1.7)
    assert node_at(t2.root, (0,)).weight == 1.0  # clamped into [0,1]
    t3 = set_weight(t, 1, 0.55)
    assert node_at(t3.root, (0,)).weight == 0.55
    assert node_at(t.root, (0,)).weight == 0.7  # original untouched


def test_set_weight_leaves_coefficients_unclamped():
    t = sample_tree()
    t2 = set_weight(t, 5, 2.5)
    assert node_at(t2.root, (1, 0, 1)).coeffs == (0.5, 2.5)


# --- validation of malformed trees ----------------------------------------------

def v_messages(tree, n_features=2):
    return [v.message for v in validate(tree, n_features)]


def test_validate_flags_soft_only_operators_in_hard_trees():
    t = ExprTree(Variant.HARD, op(OpKind.OR3,
                                  op(OpKind.GT, symbol(0), const(0.0)),
                                  op(OpKind.GT, symbol(0), const(0.0)),
                                  op(OpKind.GT, symbol(0), const(0.0))))
    assert any("soft-only" in m for m in v_messages(t))


def test_validate_flags_arity_errors():
    t = ExprTree(Variant.HARD, Node(OpKind.AND, (op(OpKind.GT, symbol(0), const(0.0)),)))
    assert any("expects 2 children" in m for m in v_messages(t))


def test_validate_flags_weight_presence_by_variant():
    gt = op(OpKind.GT, symbol(0), const(0.0))
    t = ExprTree(Variant.SOFT, op(OpKind.NOT, Node(OpKind.GT, gt.children, None)))
    msgs = v_messages(t)
    assert any("missing weight" in m for m in msgs)
    t = ExprTree(Variant.HARD, op(OpKind.NOT, op(OpKind.GT, symbol(0), const(0.0),
                                                 weight=0.5)))
    assert any("weight on hard" in m for m in v_messages(t))


def test_validate_flags_weight_on_math_node():
    t = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                  op(OpKind.GT,
                                     Node(OpKind.ADD, (symbol(0), const(1.0)), 0.5),
                                     const(0.0), weight=1.0),
                                  weight=1.0))
    assert any("weight on ADD" in m for m in v_messages(t))


def test_validate_flags_coefficient_problems():
    t = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                  op(OpKind.GT,
                                     Node(OpKind.LIN2, (symbol(0), const(1.0))),
                                     const(0.0), weight=1.0),
                                  weight=1.0))
    assert any("needs 2 coefficients" in m for m in v_messages(t))
    t = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                  op(OpKind.GT,
                                     Node(OpKind.ADD, (symbol(0), const(1.0)),
                                          None, (1.0, 2.0)),
                                     const(0.0), weight=1.0),
                                  weight=1.0))
    assert any("coefficients on ADD" in m for m in v_messages(t))


def test_validate_flags_symbol_index_out_of_range():
    t = ExprTree(Variant.HARD, op(OpKind.NOT, op(OpKind.GT, symbol(7), const(0.0))))
    msgs = v_messages(t, n_features=3)
    assert any("symbol index 7" in m for m in msgs)


def test_validate_reports_paths():
    t = ExprTree(Variant.HARD, op(OpKind.AND,
                                  op(OpKind.GT, symbol(0), const(0.0)),
                                  op(OpKind.GT, symbol(9), const(0.0))))
    bad = validate(t, 2)
    assert len(bad) == 1 and bad[0].path == (1, 0)
    assert "1/0" in str(bad[0])


def test_validate_depth_limits():
    # boolean chain of 7 NOTs over one comparison: too deep even for the cap
    node = op(OpKind.GT, symbol(0), const(0.0))
    for _ in range(BOOL_DEPTH_CAP + 1):
        node = op(OpKind.NOT, node)
    t = ExprTree(Variant.HARD, node)
    assert any("boolean depth exceeds" in m for m in v_messages(t))
    # depth 4, past the generation bound, is fine (extension headroom)
    node = op(OpKind.GT, symbol(0), const(0.0))
    for _ in range(4):
        node = op(OpKind.NOT, node)
    t = ExprTree(Variant.HARD, node)
    assert v_messages(t) == []


def test_validate_math_chain_limits():
    node = symbol(0)
    for _ in range(5):
        node = op(OpKind.NEG, node)
    t = ExprTree(Variant.HARD, op(OpKind.NOT, op(OpKind.GT, node, const(0.0))))
    assert any("math depth exceeds 4" in m for m in v_messages(t))
    # an empty math chain, below the generation bound, is legal
    t = ExprTree(Variant.HARD, op(OpKind.NOT, op(OpKind.GT, symbol(0), const(0.0))))
    assert v_messages(t) == []


def test_validate_rejects_non_boolean_root():
    t = ExprTree(Variant.HARD, op(OpKind.GT, symbol(0), const(0.0)))
    assert any("root is not a boolean" in m for m in v_messages(t))


def test_genbounds_validation():
    with pytest.raises(TreeError):
        GenBounds(bool_min=0)
    with pytest.raises(TreeError):
        GenBounds(bool_min=3, bool_max=2)
    with pytest.raises(TreeError):
        GenBounds(math_min=3, math_max=2)
