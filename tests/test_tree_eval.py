import itertools
import math

import numpy as np
import pytest

import softgp.tree as tree_mod
from softgp.tree import (
    ARITY,
    DEFAULT_BOUNDS,
    FLOAT_MAX,
    OP_CLASS,
    ExprTree,
    OpClass,
    OpKind,
    TreeError,
    Variant,
    const,
    eval_batch,
    op,
    random_tree,
    replace_subtree,
    symbol,
)

from treewalk import eval_fresh


def sat_ref(v):
    return max(-FLOAT_MAX, min(FLOAT_MAX, v))


def eval_ref(tree, row):
    """Independent scalar reference: recursive per-row evaluation straight
    from the operator formulas (weight applied last, saturation after every
    mathematical combination, strict comparisons mapping ties to 0)."""

    def go(node):
        k = node.kind
        if k is OpKind.SYMBOL:
            return float(row[node.payload])
        if k is OpKind.CONST:
            return float(node.payload)
        vals = [go(c) for c in node.children]
        if k is OpKind.ADD:
            r = sat_ref(vals[0] + vals[1])
        elif k is OpKind.MUL:
            r = sat_ref(vals[0] * vals[1])
        elif k is OpKind.NEG:
            r = -vals[0]
        elif k is OpKind.SIGM:
            try:
                r = 1.0 / (1.0 + math.exp(-vals[0]))
            except OverflowError:
                r = 0.0
        elif k is OpKind.LIN2:
            a, b = node.coeffs
            r = sat_ref(sat_ref(a * vals[0]) + sat_ref(b * vals[1]))
        elif k is OpKind.LIN3:
            a, b, c = node.coeffs
            r = sat_ref(sat_ref(sat_ref(a * vals[0]) + sat_ref(b * vals[1]))
                        + sat_ref(c * vals[2]))
        elif k in (OpKind.GT,):
            r = 1.0 if vals[0] > vals[1] else 0.0
        elif k in (OpKind.LT,):
            r = 1.0 if vals[0] < vals[1] else 0.0
        elif k in (OpKind.OR, OpKind.OR3):
            r = max(vals)
        elif k in (OpKind.AND, OpKind.AND3):
            r = min(vals)
        elif k is OpKind.NOT:
            r = 1.0 - vals[0]
        else:
            raise AssertionError(k)
        if node.weight is not None:
            r = node.weight * r
        return r

    return go(tree.root)


def soft(node):
    return ExprTree(Variant.SOFT, node)


def hard(node):
    return ExprTree(Variant.HARD, node)


def col(*vals):
    return np.array(vals, dtype=np.float64).reshape(-1, 1)


def test_matches_scalar_reference_on_random_trees():
    rng = np.random.default_rng(101)
    for variant in (Variant.HARD, Variant.SOFT):
        for _ in range(250):
            tree = random_tree(variant, DEFAULT_BOUNDS, 4, (-3.0, 3.0), rng)
            x = rng.uniform(-5.0, 5.0, size=(8, 4))
            got = eval_batch(tree, x)
            for i in range(8):
                assert got[i] == pytest.approx(eval_ref(tree, x[i]), rel=1e-12, abs=1e-300)


# --- operator formula table -------------------------------------------------

def test_soft_or_is_weighted_max():
    t = soft(op(OpKind.OR, const(0.3), const(0.7), weight=0.5))
    assert eval_batch(t, np.zeros((1, 1)))[0] == pytest.approx(0.35)


def test_soft_and_is_weighted_min():
    t = soft(op(OpKind.AND, const(0.3), const(0.7), weight=0.9))
    assert eval_batch(t, np.zeros((1, 1)))[0] == pytest.approx(0.27)


def test_soft_not_is_weighted_complement():
    t = soft(op(OpKind.NOT, const(0.2), weight=1.0))
    assert eval_batch(t, np.zeros((1, 1)))[0] == pytest.approx(0.8)


def test_soft_or3_and3():
    x = np.zeros((1, 1))
    t = soft(op(OpKind.OR3, const(0.1), const(0.9), const(0.4), weight=0.5))
    assert eval_batch(t, x)[0] == pytest.approx(0.45)
    t = soft(op(OpKind.AND3, const(0.1), const(0.9), const(0.4), weight=1.0))
    assert eval_batch(t, x)[0] == pytest.approx(0.1)


def test_soft_gt_maps_ties_to_zero():
    t = soft(op(OpKind.GT, symbol(0), const(0.5), weight=0.8))
    got = eval_batch(t, col(1.0, 0.25, 0.5))
    assert got.tolist() == [0.8, 0.0, 0.0]


def test_soft_lt_maps_ties_to_zero():
    t = soft(op(OpKind.LT, symbol(0), const(0.5), weight=0.6))
    got = eval_batch(t, col(1.0, 0.25, 0.5))
    assert got.tolist() == [0.0, 0.6, 0.0]


def test_math_layer_has_no_weights():
    t = soft(op(OpKind.ADD, symbol(0), const(2.0)))
    assert eval_batch(t, col(1.5))[0] == pytest.approx(3.5)
    t = soft(op(OpKind.MUL, symbol(0), const(-2.0)))
    assert eval_batch(t, col(1.5))[0] == pytest.approx(-3.0)
    t = soft(op(OpKind.NEG, symbol(0)))
    assert eval_batch(t, col(1.5))[0] == pytest.approx(-1.5)


def test_sigm_formula():
    t = soft(op(OpKind.SIGM, symbol(0)))
    got = eval_batch(t, col(0.0, 2.0, -800.0, 800.0))
    assert got[0] == pytest.approx(0.5)
    assert got[1] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))
    assert got[2] == 0.0  # exp overflow saturates cleanly
    assert got[3] == 1.0


def test_lin2_lin3_formulas():
    t = soft(op(OpKind.LIN2, symbol(0), symbol(1), coeffs=(2.0, 3.0)))
    assert eval_batch(t, np.array([[1.0, 2.0]]))[0] == pytest.approx(8.0)
    t = soft(op(OpKind.LIN3, symbol(0), symbol(1), const(1.0), coeffs=(2.0, 3.0, -1.0)))
    assert eval_batch(t, np.array([[1.0, 2.0]]))[0] == pytest.approx(7.0)


def test_weight_zero_kills_any_subtree():
    rng = np.random.default_rng(33)
    x = rng.uniform(-2, 2, size=(16, 2))
    for _ in range(50):
        inner = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng).root
        t = soft(op(OpKind.OR, inner, inner, weight=0.0))
        assert (eval_batch(t, x) == 0.0).all()


def test_weight_one_is_identity_scaling():
    rng = np.random.default_rng(34)
    x = rng.uniform(-2, 2, size=(16, 2))
    for _ in range(50):
        inner = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 2, (-2.0, 2.0), rng).root
        a = op(OpKind.AND, inner, inner, weight=1.0)
        assert np.array_equal(eval_batch(soft(a), x),
                              np.minimum(eval_batch(soft(inner), x),
                                         eval_batch(soft(inner), x)))


# --- codomain closure ---------------------------------------------------------

def test_soft_eval_stays_in_unit_interval():
    rng = np.random.default_rng(77)
    for _ in range(400):
        tree = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 3, (-100.0, 100.0), rng)
        x = rng.uniform(-1e6, 1e6, size=(25, 3))
        acts = eval_batch(tree, x)
        assert np.isfinite(acts).all()
        assert (acts >= 0.0).all() and (acts <= 1.0).all()


def test_hard_eval_stays_binary():
    rng = np.random.default_rng(78)
    for _ in range(400):
        tree = random_tree(Variant.HARD, DEFAULT_BOUNDS, 3, (-100.0, 100.0), rng)
        x = rng.uniform(-1e6, 1e6, size=(25, 3))
        acts = eval_batch(tree, x)
        assert set(np.unique(acts)) <= {0.0, 1.0}


def test_hard_tree_example():
    # AND(GT(x0 + x1, 7), NOT(LT(x2, 1))) at (3, 5, 1): 8 > 7 and not (1 < 1)
    t = hard(op(OpKind.AND,
                op(OpKind.GT, op(OpKind.ADD, symbol(0), symbol(1)), const(7.0)),
                op(OpKind.NOT, op(OpKind.LT, symbol(2), const(1.0)))))
    assert eval_batch(t, np.array([[3.0, 5.0, 1.0]]))[0] == 1.0
    assert eval_batch(t, np.array([[3.0, 3.0, 0.0]]))[0] == 0.0


# --- saturation ---------------------------------------------------------------

def test_mul_chain_saturates_instead_of_overflowing():
    big = const(1e300)
    t = soft(op(OpKind.MUL, op(OpKind.MUL, big, big), big))
    got = eval_batch(t, np.zeros((1, 1)))
    assert got[0] == FLOAT_MAX


def test_add_of_saturated_values_stays_finite():
    big = const(FLOAT_MAX)
    t = soft(op(OpKind.ADD, big, big))
    assert eval_batch(t, np.zeros((1, 1)))[0] == FLOAT_MAX
    t = soft(op(OpKind.ADD, op(OpKind.NEG, big), op(OpKind.NEG, big)))
    assert eval_batch(t, np.zeros((1, 1)))[0] == -FLOAT_MAX


def test_opposite_saturations_do_not_produce_nan():
    big = const(1e300)
    inf_pos = op(OpKind.MUL, big, big)
    inf_neg = op(OpKind.MUL, op(OpKind.NEG, big), big)
    t = soft(op(OpKind.ADD, inf_pos, inf_neg))
    got = eval_batch(t, np.zeros((1, 1)))
    assert np.isfinite(got).all()
    assert got[0] == 0.0


def test_lin_saturates_per_product():
    t = soft(op(OpKind.LIN2, symbol(0), symbol(0), coeffs=(1e300, -1e300)))
    got = eval_batch(t, col(1e10))
    assert np.isfinite(got).all()
    assert got[0] == 0.0  # both products clamp to +/-FLOAT_MAX and cancel


# --- array overflow: the trapping pass against the saturating reference ------
#
# The cases above only reach _sat's Python-scalar branch. These put the
# overflow in array operands, so the trapping pass raises and eval_batch
# falls back; each must equal the saturating pass bit for bit.

BIG = col(1e200, -1e200, 3.0, -0.5, 0.0)
saturating = tree_mod._eval_saturating  # bound before any spy replaces it


def cached_eval(t, x):
    """eval_batch with caching on, as EvalContext evaluates in a generation
    block: each operator node's activation is read from and stored on the
    node."""
    with np.errstate(over="raise"):
        return tree_mod.eval_trapped(t, x, True, bool(np.isfinite(x).all()))


def same_bits(t, x, cached=False):
    got = cached_eval(t, x) if cached else eval_batch(t, x)
    assert got.tobytes() == saturating(t, x).tobytes()
    return got


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the saturating passes eval_batch runs."""
    calls = []
    real = tree_mod._eval_saturating

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(tree_mod, "_eval_saturating", spy)
    return calls


x0 = symbol(0)


@pytest.mark.parametrize("node, expect", [
    # MUL: the second product overflows
    (op(OpKind.MUL, op(OpKind.MUL, x0, x0), x0), [FLOAT_MAX, -FLOAT_MAX, 27.0, -0.125, 0.0]),
    # ADD: 1e308 + 1e308 is the first overflow
    (op(OpKind.ADD, op(OpKind.MUL, x0, const(1e108)), op(OpKind.MUL, x0, const(1e108))),
     [FLOAT_MAX, -FLOAT_MAX, 3.0 * 1e108 + 3.0 * 1e108, -1e108, 0.0]),
    # ADD of two opposite saturations cancels instead of making NaN
    (op(OpKind.ADD, op(OpKind.MUL, x0, x0), op(OpKind.MUL, x0, op(OpKind.NEG, x0))),
     [0.0, 0.0, 0.0, 0.0, 0.0]),
    # LIN2: each product saturates before the sum
    (op(OpKind.LIN2, x0, x0, coeffs=(1e200, -1e200)), [0.0, 0.0, 0.0, 0.0, 0.0]),
    # LIN3: the partial sum overflows
    (op(OpKind.LIN3, x0, x0, x0, coeffs=(1e108, 1e108, -0.5)),
     [FLOAT_MAX, -FLOAT_MAX, (1e108 * 3.0 + 1e108 * 3.0) + -0.5 * 3.0, -1e108, 0.0]),
])
def test_array_overflow_matches_the_saturating_pass(node, expect, fallbacks):
    got = same_bits(soft(node), BIG)
    assert got.tolist() == expect
    assert len(fallbacks) == 1


# A Python-float constant product overflows to inf without raising, so the
# trapping pass must clamp it before it joins the sum: inf + x stays inf,
# FLOAT_MAX + x rounds to FLOAT_MAX.
@pytest.mark.parametrize("lin", [
    op(OpKind.LIN2, const(1e308), x0, coeffs=(10.0, 1.0)),
    op(OpKind.LIN3, x0, const(1e308), x0, coeffs=(1.0, 10.0, 1.0)),
], ids=["LIN2", "LIN3"])
@pytest.mark.parametrize("cached", [False, True], ids=["batch", "cached"])
def test_lin_clamps_an_overflowing_constant_product(lin, cached, fallbacks):
    x = col(1.0, 2.0, -3.0)
    assert same_bits(soft(lin), x, cached).tolist() == [FLOAT_MAX] * 3
    # the comparison carries the clamp to the output: inf > FLOAT_MAX would be 1
    gt = soft(op(OpKind.GT, lin, const(FLOAT_MAX), weight=1.0))
    assert same_bits(gt, x, cached).tolist() == [0.0] * 3
    assert fallbacks == []


def test_sigm_array_overflow_matches_the_saturating_pass(fallbacks):
    got = same_bits(soft(op(OpKind.SIGM, x0)), col(-800.0, 800.0, 0.0, -1.0))
    assert got[:3].tolist() == [0.0, 1.0, 0.5]
    assert len(fallbacks) == 1


# --- where an operator writes -------------------------------------------------
#
# Every operator over every mix of a symbol, a constant and an operator
# child (NEG of a symbol), each written as a tree of its own so that no
# comparison hides a NaN's payload: an uncached evaluation writes into the
# operator child's array only, never into x, and gives the bytes of the
# fresh-array oracle with its operands in their order. The rows hold every
# pair of NaNs of two signs and two payloads, infinities, overflowing
# magnitudes and ordinary values. The hard operators are also written as
# hard trees whose operands include comparisons: an uncached walk keeps
# those as bool arrays and writes into them, while a float operand beside
# one takes both back to float64.

EDGES = [math.nan, -math.nan, float(np.uint64(0x7FF8_0000_0000_0123).view(np.float64)),
         math.inf, -math.inf, 1e308, -1e308, 0.0, 1.5, -2.5]
OPERANDS = [symbol(0), const(-1.5), op(OpKind.NEG, symbol(1))]
BOOL_OPERANDS = [op(OpKind.GT, symbol(0), symbol(1)),
                 op(OpKind.NOT, op(OpKind.LT, symbol(1), const(-1.5)))]


def operator_trees(kind):
    """kind over every mix of OPERANDS as a soft tree and, for the hard
    operators, over every mix of those and BOOL_OPERANDS as a hard one."""
    weighted = OP_CLASS[kind] in (OpClass.BOOLEAN, OpClass.COMPARISON)
    coeffs = (1.5, -0.5, 2.0)[:ARITY[kind]] if kind in (OpKind.LIN2, OpKind.LIN3) else None
    for children in itertools.product(OPERANDS, repeat=ARITY[kind]):
        yield soft(op(kind, *children, weight=0.75 if weighted else None, coeffs=coeffs))
    if kind in (OpKind.GT, OpKind.LT, OpKind.NOT, OpKind.OR, OpKind.AND):
        for children in itertools.product(OPERANDS + BOOL_OPERANDS, repeat=ARITY[kind]):
            yield hard(op(kind, *children))


@pytest.mark.parametrize("kind", [k for k in OpKind if k not in (OpKind.SYMBOL, OpKind.CONST)],
                         ids=lambda k: k.name)
@pytest.mark.parametrize("cached", [False, True], ids=["batch", "cached"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_an_operator_writes_only_an_operand_it_owns(kind, cached):
    x = np.asfortranarray(list(itertools.product(EDGES, repeat=2)))
    before = x.tobytes()
    for t in operator_trees(kind):
        with np.errstate(over="ignore", invalid="ignore"):
            want = eval_fresh(t, x).tobytes()
        assert (cached_eval(t, x) if cached else eval_batch(t, x)).tobytes() == want
        assert x.tobytes() == before


# --- the bool layer beside float operands ---------------------------------------
#
# Trees validate() rejects, and a comparison of two constants (a numpy bool,
# not an array), put a bool operand of the uncached walk beside a float one
# or where a float is expected. Each gives the bytes of the float64 oracle in
# the trapping pass (finite rows) and the saturating pass (EDGES), cached or
# not, and leaves x unwritten.

def mixed_trees():
    x1 = symbol(1)
    gt = op(OpKind.GT, x0, x1)
    lt = op(OpKind.LT, x1, const(0.5))
    soft_gt = op(OpKind.GT, x0, x1, weight=0.5)
    soft_lt = op(OpKind.LT, x1, const(0.5), weight=0.25)
    return {
        "weightless comparison in a soft tree": soft(op(OpKind.OR, gt, soft_lt, weight=0.75)),
        "weightless soft root": soft(op(OpKind.AND, soft_gt, soft_lt)),
        "weightless AND in a soft tree": soft(op(OpKind.OR, op(OpKind.AND, gt, lt), soft_gt,
                                                 weight=0.75)),
        "weighted comparison in a hard tree": hard(op(OpKind.OR, soft_gt, lt)),
        "weighted NOT in a hard tree": hard(op(OpKind.AND, op(OpKind.NOT, gt, weight=0.5), lt)),
        "NOT of a math node": hard(op(OpKind.OR, op(OpKind.NOT, op(OpKind.ADD, x0, x1)), gt)),
        "NOT of a symbol": hard(op(OpKind.AND, gt, op(OpKind.NOT, x0))),
        "OR of a symbol": hard(op(OpKind.OR, x0, gt)),
        "AND of a constant": hard(op(OpKind.AND, gt, const(0.5))),
        "OR3 of comparisons and a math node": hard(op(OpKind.OR3, gt, lt, op(OpKind.MUL, x0, x1))),
        "AND3 of comparisons": hard(op(OpKind.AND3, gt, lt, op(OpKind.NOT, gt))),
        "NOT of two constants compared": hard(op(OpKind.OR, gt, op(OpKind.NOT, op(
            OpKind.GT, const(1.0), const(2.0))))),
        "OR of two constants compared": hard(op(OpKind.AND, op(OpKind.OR, op(
            OpKind.GT, const(2.0), const(1.0)), op(OpKind.LT, const(2.0), const(1.0))), gt)),
        "math over comparisons": hard(op(OpKind.GT, op(OpKind.ADD, gt, lt), op(OpKind.NEG, gt))),
        "comparison of comparisons": hard(op(OpKind.OR, op(OpKind.LT, gt, lt), lt)),
        "LIN2 and SIGM of comparisons": soft(op(OpKind.GT, op(
            OpKind.LIN2, gt, op(OpKind.SIGM, lt), coeffs=(0.5, 2.0)), const(0.6), weight=0.5)),
    }


@pytest.mark.parametrize("name", list(mixed_trees()))
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_bool_operand_beside_a_float_one_gives_the_fresh_bytes(name, fallbacks):
    t = mixed_trees()[name]
    finite = np.asfortranarray(list(itertools.product([-2.0, 0.0, 0.5, 1.5], repeat=2)))
    edges = np.asfortranarray(list(itertools.product(EDGES, repeat=2)))
    for x, passes in ((finite, 0), (edges, 2)):
        before = x.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            want = eval_fresh(t, x).tobytes()
        assert eval_batch(t, x).tobytes() == want
        assert cached_eval(t, x).tobytes() == want
        assert x.tobytes() == before
        assert len(fallbacks) == passes


def test_finite_evaluation_takes_no_fallback(fallbacks):
    t = soft(op(OpKind.GT, op(OpKind.LIN2, x0, op(OpKind.SIGM, x0), coeffs=(0.5, -2.0)),
                const(0.1), weight=0.7))
    same_bits(t, col(-2.0, -0.1, 0.0, 0.3, 4.0))
    assert fallbacks == []


def test_non_finite_input_takes_the_saturating_pass():
    # trapping would give inf + -FLOAT_MAX = inf > 1; saturating gives
    # FLOAT_MAX + -FLOAT_MAX = 0, which is not
    t = hard(op(OpKind.GT, op(OpKind.ADD, op(OpKind.MUL, x0, const(2.0)), const(-FLOAT_MAX)),
                const(1.0)))
    assert same_bits(t, col(np.inf)).tolist() == [0.0]


@pytest.mark.parametrize("node", [
    # inf operands overflow nothing, so only the literal check traps them
    op(OpKind.GT, op(OpKind.ADD, x0, const(np.inf)), const(FLOAT_MAX), weight=1.0),
    op(OpKind.GT, op(OpKind.LIN2, x0, x0, coeffs=(np.inf, 0.5)), const(FLOAT_MAX), weight=1.0),
    op(OpKind.LT, op(OpKind.MUL, x0, op(OpKind.NEG, const(np.inf))), const(-FLOAT_MAX), weight=1.0),
])
def test_non_finite_literals_take_the_saturating_pass(node):
    assert same_bits(soft(node), col(1.0, 2.0)).tolist() == [0.0, 0.0]


def test_memo_never_carries_a_non_finite_literal_past_the_trap():
    neg_inf = op(OpKind.NEG, const(np.inf))
    x = col(1.0, 2.0)
    cached_eval(soft(op(OpKind.GT, neg_inf, x0, weight=1.0)), x)
    # a stored -inf would reach MUL as an operand and leave it unclamped
    assert neg_inf.acts is None
    t = soft(op(OpKind.LT, op(OpKind.MUL, x0, neg_inf), const(-FLOAT_MAX), weight=1.0))
    assert same_bits(t, x, cached=True).tolist() == [0.0, 0.0]


def test_memo_from_a_fallback_serves_a_trapping_pass(fallbacks):
    shared = op(OpKind.MUL, x0, x0)  # overflows at 1e200
    first = soft(op(OpKind.GT, shared, const(1.0), weight=0.5))
    cached_eval(first, BIG)
    assert len(fallbacks) == 1
    assert shared.acts[0] is BIG and shared.acts[1][0] == FLOAT_MAX
    second = soft(op(OpKind.LT, shared, const(5.0), weight=0.25))
    same_bits(second, BIG, cached=True)
    assert len(fallbacks) == 1  # the stored array kept the evaluation on the trapping pass


def test_memo_from_a_trapping_pass_serves_a_fallback(fallbacks):
    shared = op(OpKind.ADD, x0, x0)  # finite at 1e200
    first = soft(op(OpKind.GT, shared, const(1.0), weight=0.5))
    cached_eval(first, BIG)
    assert fallbacks == []
    stored = shared.acts[1]
    # shared is served from first's trapping pass; MUL then overflows and
    # the fallback must reuse that array rather than recompute it
    second = soft(op(OpKind.OR, op(OpKind.LT, shared, const(0.0), weight=1.0),
                     op(OpKind.GT, op(OpKind.MUL, shared, x0), const(0.0), weight=1.0),
                     weight=1.0))
    got = cached_eval(second, BIG)
    assert len(fallbacks) == 1
    assert got.tobytes() == saturating(second, BIG).tobytes()
    assert shared.acts[1] is stored


# --- batching, caching, input checking -------------------------------------------

def test_constant_tree_broadcasts_over_rows():
    t = soft(op(OpKind.GT, const(2.0), const(1.0), weight=0.4))
    got = eval_batch(t, np.zeros((5, 3)))
    assert got.shape == (5,)
    assert (got == 0.4).all()


def test_memo_reuse_matches_fresh_evaluation():
    rng = np.random.default_rng(55)
    x = rng.uniform(-2, 2, size=(30, 3))
    for _ in range(40):
        tree = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 3, (-2.0, 2.0), rng)
        base = cached_eval(tree, x)
        # edit one branch; the other subtrees are served from their nodes
        edited = ExprTree(tree.variant,
                          replace_subtree(tree.root, (0,),
                                          op(OpKind.GT, symbol(0), const(0.1), weight=0.9)))
        assert all(c.acts[0] is x for c in edited.root.children[1:])
        via_cache = cached_eval(edited, x)
        fresh = eval_batch(edited, x)
        assert np.array_equal(via_cache, fresh)
        assert np.array_equal(cached_eval(tree, x), base)


def test_eval_rejects_non_matrix_input():
    t = soft(op(OpKind.GT, symbol(0), const(0.0), weight=1.0))
    with pytest.raises(TreeError, match="2-D"):
        eval_batch(t, np.zeros(4))


def test_symbol_out_of_range_raises():
    t = soft(op(OpKind.GT, symbol(5), const(0.0), weight=1.0))
    with pytest.raises(TreeError, match="cannot evaluate"):
        eval_batch(t, np.zeros((3, 2)))


def test_symbol_refuses_a_negative_index():
    # eval_batch would read x[:, -1], the last column
    with pytest.raises(TreeError, match="negative"):
        symbol(-1)


def not_chain(levels):
    node = op(OpKind.GT, symbol(0), symbol(1), weight=1.0)
    for _ in range(levels - 1):
        node = op(OpKind.NOT, node, weight=1.0)
    return soft(node)


@pytest.mark.parametrize("t", [
    not_chain(5000),
    soft(tree_mod.Node(OpKind.GT, (symbol(0),), 1.0)),
], ids=["5000-level chain", "comparison short of a child"])
def test_a_tree_evaluation_cannot_walk_raises_tree_error(t):
    x = np.zeros((3, 2))
    for evaluate in (eval_batch, cached_eval):
        with pytest.raises(TreeError, match="cannot evaluate"):
            evaluate(t, x)
