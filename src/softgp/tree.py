"""Typed logical expression trees for GP/SGP binary classifiers.

A tree is layered along every root-to-leaf path: boolean operators on top,
then exactly one comparison, then a chain of mathematical operators, then a
single term (feature reference or constant). Hard trees evaluate to {0,1}
with strict comparisons; soft trees carry a weight on every boolean and
comparison node and evaluate to [0,1] via weighted continuous operators
(OR -> w*max, AND -> w*min, NOT -> w*(1-x), GT -> w*[x>y], ...).

Trees are immutable by contract, which Node does not enforce at run time
(see its docstring; tests/test_node_contract.py checks it): every
"mutation" here returns a new tree that shares unchanged subtrees with
the original. Within one tree, too, a node may sit at several places:
random generation builds one SYMBOL leaf per feature index, and the
parser in sexpr one per symbol token, and each reuses it at every
occurrence. Sharing changes no value, since no node is ever changed in
place; a term never stores a summary or an activation, and pickling
memoizes a shared node.

Evaluation is pure and vectorized over a whole row matrix at once.
Mathematical operators saturate at +/-FLOAT_MAX. Evaluation first runs a
trapping pass that leaves arrays unclamped and traps overflow, and
nothing else: it runs only on finite rows and literals, where only an
overflow makes an inf, so no invalid operation (inf - inf, inf * 0) can
come before an overflow has raised. When it raises, a constant or
coefficient is not finite, or the input has a non-finite cell, a
saturating pass that clamps every math-node result runs instead, under
the caller's numpy setting for invalid operations. Both give the same
bits.

Evaluation reads the row matrix column-major, so each symbol is a
contiguous column. eval_batch converts x once to that layout, a no-op for
the matrices softgp.data builds (Dataset fixes the layout), and
EvalContext stores its rows in it. A node writes only into arrays it
created itself, never into a child's result, a stored activation or x,
with the bits of a fresh array per pass (_walk says how). Callers must
not mutate the arrays evaluation returns.

Every node carries a summary of its subtree: its node count per operator
class, its size, its weight-slot count (operator weights plus linear
coefficients), its boolean depth and its math chain. summary() fills it
from the children's summaries the first time a variation operator asks,
and locate_node and the weight-slot accessors use the per-child counts to
find the k-th node or weight slot by walking a single root-to-node path. A
node never changes after construction, so a summary cannot go stale, and a
tree edited by replace_subtree rebuilds only the nodes on the edited path;
every shared subtree keeps its summary. node_count neither reads nor
fills a summary: it walks every node, since its callers count fresh
trees that hold none, and a fill costs more than a plain walk.

A caching evaluation (eval_trapped with cache=True, which training runs
inside a generation block) also leaves each operator node's activation
array on the node, so a tree that shares subtrees with one already
evaluated on the same rows computes only its new nodes. An activation
lives exactly as long as its node, or until drop_activations clears it;
eval_batch never reads or stores one.

Random generation (random_tree, random_subtree) makes its draws from the
caller's Generator in a fixed order, and a seed reproduces a model only
while that order holds; tests/test_golden.py pins it. Every uniform real
is drawn as lo + (hi - lo) * random(): Generator.uniform computes exactly
that from the same single double, so the numbers and the generator state
are those of a uniform() call, at a third of its cost. Over a plain PCG64
bit generator (what default_rng makes) the draws come from a word stream:
raw 64-bit words pulled in blocks, turned into the numbers integers() and
random() would return, with the generator handed back in the state those
calls would have left (tests/test_draw_stream.py holds it to numpy).
Generator.integers spends most of each call on fixed overhead, which the
stream skips; batching the draws in any way that changed the numbers
would change every tree a seed yields.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

FLOAT_MAX = float(np.finfo(np.float64).max)
_ndarray = np.ndarray  # a global load, for the per-node type checks

# Structural caps. Generation and ordinary variation respect the tighter
# DEFAULT_BOUNDS below; only root extension may grow boolean depth past
# bool_max. BOOL_DEPTH_CAP is the only absolute cap: crossover, mutation
# and extension never exceed it, and validate() checks it. NODE_CAP is a
# limit on extension alone: extension_mutation refuses to grow a tree past
# it, while random generation, crossover and mutation make trees of any
# size (about a quarter of fresh soft trees are over it), and enforcing it
# there would change the trees a seed evolves.
BOOL_DEPTH_CAP = 6
NODE_CAP = 200

# An activation at or above THRESHOLD is label 1. Hard activations are
# exactly 0 or 1, so the one rule serves both variants.
THRESHOLD = 0.5


class TreeError(ValueError):
    """Raised for malformed trees or invalid tree operations."""


class LocatorError(TreeError):
    """Raised when a path, a node index or a weight-slot index does not
    resolve."""


class Variant(enum.Enum):
    HARD = "hard"
    SOFT = "soft"


class OpClass(enum.IntEnum):
    # IntEnum numbered from 0 so a class indexes per-class lists directly
    BOOLEAN = 0
    COMPARISON = 1
    MATHEMATICAL = 2
    TERM = 3


class OpKind(enum.IntEnum):
    # IntEnum numbered from 0 so a kind indexes OP_CLASS directly; the
    # operator's spelled name is .name
    OR = 0
    AND = 1
    NOT = 2
    OR3 = 3
    AND3 = 4
    GT = 5
    LT = 6
    ADD = 7
    MUL = 8
    NEG = 9
    SIGM = 10
    LIN2 = 11
    LIN3 = 12
    SYMBOL = 13
    CONST = 14


# The arity and the operator class of every kind, as tuples indexed by the
# kind: the tree walks and the generator look them up per node, and a tuple
# index skips the enum hashing a dict lookup pays. Building either fails if
# a kind is missing.
ARITY: Tuple[int, ...] = tuple({
    OpKind.OR: 2, OpKind.AND: 2, OpKind.NOT: 1, OpKind.OR3: 3, OpKind.AND3: 3,
    OpKind.GT: 2, OpKind.LT: 2,
    OpKind.ADD: 2, OpKind.MUL: 2, OpKind.NEG: 1, OpKind.SIGM: 1,
    OpKind.LIN2: 2, OpKind.LIN3: 3,
    OpKind.SYMBOL: 0, OpKind.CONST: 0,
}[kind] for kind in OpKind)

OP_CLASS: Tuple[OpClass, ...] = tuple({
    OpKind.OR: OpClass.BOOLEAN, OpKind.AND: OpClass.BOOLEAN, OpKind.NOT: OpClass.BOOLEAN,
    OpKind.OR3: OpClass.BOOLEAN, OpKind.AND3: OpClass.BOOLEAN,
    OpKind.GT: OpClass.COMPARISON, OpKind.LT: OpClass.COMPARISON,
    OpKind.ADD: OpClass.MATHEMATICAL, OpKind.MUL: OpClass.MATHEMATICAL,
    OpKind.NEG: OpClass.MATHEMATICAL, OpKind.SIGM: OpClass.MATHEMATICAL,
    OpKind.LIN2: OpClass.MATHEMATICAL, OpKind.LIN3: OpClass.MATHEMATICAL,
    OpKind.SYMBOL: OpClass.TERM, OpKind.CONST: OpClass.TERM,
}[kind] for kind in OpKind)

# The classes and kinds as module globals for the per-node loops: on
# Python 3.11 reading an enum member off its class is a descriptor call,
# about 100 ns, several times a global load.
_BOOLEAN, _COMPARISON, _MATHEMATICAL, _TERM = OpClass
(_OR, _AND, _NOT, _OR3, _AND3, _GT, _LT, _ADD, _MUL, _NEG, _SIGM, _LIN2, _LIN3,
 _SYMBOL, _CONST) = OpKind

# Operators that only exist in the soft variant.
SOFT_ONLY = frozenset({OpKind.OR3, OpKind.AND3, OpKind.SIGM, OpKind.LIN2, OpKind.LIN3})

_HARD_BOOL_OPS = (OpKind.OR, OpKind.AND, OpKind.NOT)
_SOFT_BOOL_OPS = (OpKind.OR, OpKind.AND, OpKind.NOT, OpKind.OR3, OpKind.AND3)
_CMP_OPS = (OpKind.GT, OpKind.LT)
_HARD_MATH_OPS = (OpKind.ADD, OpKind.MUL, OpKind.NEG)
_SOFT_MATH_OPS = (OpKind.ADD, OpKind.MUL, OpKind.NEG, OpKind.SIGM, OpKind.LIN2, OpKind.LIN3)


@dataclass(slots=True, init=False, unsafe_hash=True)
class Node:
    """One tree node.

    weight is present on boolean/comparison nodes of soft trees (clamped to
    [0,1] at construction), coeffs on LIN2/LIN3 nodes, payload on terms
    (feature index for SYMBOL, float for CONST).

    summary caches what summary() returns for this subtree: node counts
    per class, size, weight slots, boolean depth and math chain. It is None
    until summary() first runs on the node, and stays None on terms with
    no weight or coefficients, which share one constant. A node is
    immutable, so its summary never goes stale.

    acts is None or (x, a): the activation array a of this operator node
    on the row matrix x, stored by a caching evaluation (eval_trapped with
    cache=True) and read only by one whose matrix is x itself. Holding x
    keeps it alive, so no other matrix can take its place at the same
    address. The array lives as long as the node or until
    drop_activations clears it.

    Neither slot takes part in ==, hash or repr, and neither is pickled: a
    node is rebuilt from its five value fields. Evaluation, summary(), ==
    and pickling recurse per level: they expect trees validate() accepts
    (at most about 12 levels). On far deeper ones evaluation raises
    TreeError, as it does for a symbol past the row matrix's last column,
    while summary(), == and pickling raise RecursionError.

    A node may be a child of several nodes, or sit at several places in one
    tree: a parsed or generated tree holds one SYMBOL leaf per feature
    index. Nothing changes a node's value fields after construction, and a
    term's summary and acts slots stay None, so which parent reaches a node
    never matters. That is a contract the class does not enforce: frozen,
    its __init__ would store each slot through a descriptor call, and
    Node(k, (a, b)) took 1039 ns against 388 ns with plain stores
    (Python 3.11). tests/test_node_contract.py checks it.
    """

    kind: OpKind
    children: Tuple["Node", ...]
    weight: Optional[float]
    coeffs: Optional[Tuple[float, ...]]
    payload: Union[int, float, None]
    summary: Optional[tuple] = field(init=False, compare=False, repr=False)
    acts: Optional[tuple] = field(init=False, compare=False, repr=False)

    def __init__(self, kind: OpKind, children: Tuple["Node", ...] = (),
                 weight: Optional[float] = None, coeffs: Optional[Tuple[float, ...]] = None,
                 payload: Union[int, float, None] = None):
        # Written out rather than generated: a generated __init__ would also
        # call a __post_init__, and the call saved pays for storing summary
        # and acts. Plain slot stores: a node is immutable by contract only,
        # unchecked here since frozen stores took 1039 ns a node against
        # 388 ns; tests/test_node_contract.py checks it.
        self.kind = kind
        self.children = children if isinstance(children, tuple) else tuple(children)
        # a float already in (0, 1] is stored as given; anything else (an
        # int, a numpy scalar, NaN, -0.0, a value out of range) is clamped
        # to a Python float, which stores -0.0 and NaN as 0.0
        if weight is not None and not (type(weight) is float and 0.0 < weight <= 1.0):
            weight = min(1.0, max(0.0, float(weight)))
        self.weight = weight
        if coeffs is not None and not isinstance(coeffs, tuple):
            coeffs = tuple(float(c) for c in coeffs)
        self.coeffs = coeffs
        self.payload = payload
        self.summary = None
        self.acts = None

    def __reduce__(self):
        return Node, (self.kind, self.children, self.weight, self.coeffs, self.payload)


# The one place an activation array is stored; tests wrap it.
_set_acts = Node.__dict__["acts"].__set__


@dataclass(frozen=True, slots=True)
class ExprTree:
    variant: Variant
    root: Node


@dataclass(frozen=True)
class GenBounds:
    """Per-path boolean and math chain bounds used by the random generator
    (every path has exactly one comparison and one term)."""

    bool_max: int = 3
    math_min: int = 1
    math_max: int = 4

    def __post_init__(self):
        if self.bool_max < 1:
            raise TreeError(f"bad boolean bounds [1, {self.bool_max}]")
        if not (0 <= self.math_min <= self.math_max):
            raise TreeError(f"bad math bounds [{self.math_min}, {self.math_max}]")


# The tree shape evolution uses: every fit generates and varies trees
# under these bounds.
DEFAULT_BOUNDS = GenBounds()


@dataclass(frozen=True)
class Violation:
    path: Tuple[int, ...]
    message: str

    def __str__(self) -> str:
        loc = "/".join(map(str, self.path)) if self.path else "root"
        return f"at {loc}: {self.message}"


# ---------------------------------------------------------------------------
# Node constructors
# ---------------------------------------------------------------------------

def symbol(index: int) -> Node:
    index = int(index)
    if index < 0:
        raise TreeError(f"symbol index {index} is negative")
    return Node(_SYMBOL, payload=index)


def const(value: float) -> Node:
    return Node(_CONST, payload=float(value))


def op(kind: OpKind, *children: Node, weight: Optional[float] = None,
       coeffs: Optional[Sequence[float]] = None) -> Node:
    return Node(kind, tuple(children), weight=weight,
                coeffs=None if coeffs is None else tuple(float(c) for c in coeffs))


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def node_count(node: Node) -> int:
    """Number of nodes in the subtree at node, counted by a walk over every node."""
    count = 0
    stack = [node]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def replace_subtree(root: Node, path: Sequence[int], new: Node) -> Node:
    """Return a copy of root with the subtree at path replaced by new."""
    if not path:
        return new
    i = path[0]
    if i >= len(root.children):
        raise LocatorError(f"path {tuple(path)} leaves the tree")
    children = list(root.children)
    children[i] = replace_subtree(children[i], path[1:], new)
    return Node(root.kind, tuple(children), root.weight, root.coeffs, root.payload)


# ---------------------------------------------------------------------------
# Subtree summaries
# ---------------------------------------------------------------------------

# A summary is a tuple whose entries 0-3 are the subtree's node counts per
# OpClass (so a class indexes its own count), followed by these entries.
SUMMARY_SIZE = 4        # node count
SUMMARY_SLOTS = 5       # weight slots, as collect_weights lists them
SUMMARY_BOOL_DEPTH = 6  # longest boolean run on a path starting at the node
SUMMARY_MATH_CHAIN = 7  # longest mathematical run on a path at or below it

# The summary of every term without a weight or coefficients: terms are
# about half of all nodes, so they share this instead of storing one.
_TERM_SUMMARY = (0, 0, 0, 1, 1, 0, 0, 0)


def summary(node: Node) -> tuple:
    """The subtree summary of node, filled and stored on first use.

    Filling reads each child's summary, so it visits only the nodes that
    have none yet: after replace_subtree, the rebuilt path.
    """
    s = node.summary
    if s is not None:
        return s
    cls = OP_CLASS[node.kind]
    w = node.weight
    coeffs = node.coeffs
    children = node.children
    if cls is _TERM and w is None and coeffs is None and not children:
        return _TERM_SUMMARY
    counts = [0, 0, 0, 0]
    counts[cls] = 1
    size = 1
    slots = (0 if w is None else 1) + (0 if coeffs is None else len(coeffs))
    bool_depth = math_chain = 0
    for c in children:
        cs = c.summary or summary(c)
        counts[0] += cs[0]
        counts[1] += cs[1]
        counts[2] += cs[2]
        counts[3] += cs[3]
        size += cs[4]
        slots += cs[5]
        if cs[6] > bool_depth:
            bool_depth = cs[6]
        if cs[7] > math_chain:
            math_chain = cs[7]
    if cls is _BOOLEAN:
        bool_depth += 1
    else:
        bool_depth = 0
        if cls is _MATHEMATICAL:
            math_chain += 1
        elif cls is _TERM:
            math_chain = 0
    s = (counts[0], counts[1], counts[2], counts[3], size, slots, bool_depth, math_chain)
    node.summary = s
    return s


def locate_node(root: Node, k: int,
                cls: Optional[OpClass] = None) -> Tuple[Tuple[int, ...], Node]:
    """The k-th node in preorder and its path, counting only nodes of class
    cls, or every node when cls is None.

    Walks down one path, skipping every subtree its summary shows to hold
    fewer than the remaining count, so the cost is the depth of the node.
    """
    col = SUMMARY_SIZE if cls is None else cls
    total = summary(root)[col]
    if not 0 <= k < total:
        what = "nodes" if cls is None else f"nodes of class {cls.name}"
        raise LocatorError(f"node {k} requested from a tree with {total} {what}")
    path: list[int] = []
    node = root
    while True:
        if cls is None or OP_CLASS[node.kind] is cls:
            if k == 0:
                return tuple(path), node
            k -= 1
        for i, c in enumerate(node.children):
            n = (c.summary or summary(c))[col]
            if k < n:
                break
            k -= n
        path.append(i)
        node = c


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(tree: ExprTree, n_features: int) -> list[Violation]:
    """Check every structural invariant; returns a list of violations.

    An empty list means the tree is well formed for its variant: boolean
    depth 1 to BOOL_DEPTH_CAP, and math chains empty (legal after crossover
    and in hand-written models) or up to DEFAULT_BOUNDS.math_max.
    """
    math_max = DEFAULT_BOUNDS.math_max
    soft = tree.variant is Variant.SOFT
    out: list[Violation] = []

    def bad(path, msg):
        out.append(Violation(path, msg))

    if OP_CLASS[tree.root.kind] is not _BOOLEAN:
        bad((), "root is not a boolean operator")
    # (node, path, phase, booleans above, maths above), visited in preorder
    # from an explicit stack, so a deep hand-written tree cannot exhaust
    # the interpreter's recursion limit
    stack = [(tree.root, (), "bool", 0, 0)]
    while stack:
        node, path, phase, booleans, maths = stack.pop()
        cls = OP_CLASS[node.kind]
        if not soft and node.kind in SOFT_ONLY:
            bad(path, f"soft-only operator {node.kind.name} in hard tree")
        if len(node.children) != ARITY[node.kind]:
            bad(path, f"{node.kind.name} expects {ARITY[node.kind]} children, has {len(node.children)}")
            continue  # child phases are meaningless past an arity error
        # weight slots
        if cls is _BOOLEAN or cls is _COMPARISON:
            if soft and node.weight is None:
                bad(path, f"missing weight on soft {node.kind.name}")
            if not soft and node.weight is not None:
                bad(path, f"weight on hard {node.kind.name}")
        elif node.weight is not None:
            bad(path, f"weight on {node.kind.name}")
        if node.weight is not None and not (0.0 <= node.weight <= 1.0):
            bad(path, f"weight {node.weight} outside [0,1]")
        # coefficient slots
        if node.kind is _LIN2 or node.kind is _LIN3:
            want = ARITY[node.kind]
            if node.coeffs is None or len(node.coeffs) != want:
                bad(path, f"{node.kind.name} needs {want} coefficients")
            else:
                # a str would be saved as its float and load back unequal
                for c in node.coeffs:
                    if not isinstance(c, numbers.Real):
                        bad(path, f"{node.kind.name} coefficient {c!r} is not a real")
        elif node.coeffs is not None:
            bad(path, f"coefficients on {node.kind.name}")
        # terms
        if node.kind is _SYMBOL:
            i = node.payload
            # exactly an int: a bool payload would be written as xTrue
            if type(i) is not int or not (0 <= i < n_features):
                bad(path, f"symbol index {i!r} outside [0, {n_features})")
        elif node.kind is _CONST:
            if not isinstance(node.payload, float):
                bad(path, f"constant payload {node.payload!r} is not a real")
        elif node.payload is not None:
            bad(path, f"payload {node.payload!r} on {node.kind.name}")

        # layer-chain phases: each case names the state its children start in
        if phase == "bool":
            if cls is _BOOLEAN:
                if booleans + 1 > BOOL_DEPTH_CAP:
                    bad(path, f"boolean depth exceeds {BOOL_DEPTH_CAP}")
                below = ("bool", booleans + 1, 0)
            elif cls is _COMPARISON:
                if booleans < 1:
                    bad(path, f"boolean depth {booleans} below 1")
                below = ("math", booleans, 0)
            else:
                bad(path, f"{node.kind.name} where a boolean or comparison operator is required")
                continue
        else:
            if cls is _MATHEMATICAL:
                if maths + 1 > math_max:
                    bad(path, f"math depth exceeds {math_max}")
                below = ("math", booleans, maths + 1)
            else:
                if cls is not _TERM:
                    bad(path, f"{node.kind.name} below a comparison operator")
                continue
        # pushed last child first, so the first child is visited next
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((node.children[i], path + (i,)) + below)
    return out


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _sat(v):
    # Saturate a math-layer result to the largest finite magnitude so that
    # evaluation stays total (MUL/ADD chains cannot smuggle inf/NaN upward).
    # The saturating pass applies it to every math-node result; the
    # trapping pass only needs it for scalars (see _sat_scalar).
    if isinstance(v, np.ndarray):
        return np.minimum(np.maximum(v, -FLOAT_MAX), FLOAT_MAX)
    return _sat_scalar(v)


def _sat_scalar(v):
    # The trapping pass's saturation step. An array result that overflowed
    # has already raised, so arrays pass through; a scalar from a
    # constants-only subtree is a Python float, which overflows to inf
    # without raising, so it is clamped exactly as _sat clamps it.
    if isinstance(v, np.ndarray):
        return v
    v = float(v)
    if v > FLOAT_MAX:
        return FLOAT_MAX
    if v < -FLOAT_MAX:
        return -FLOAT_MAX
    return v


def _add_own(a, b):
    # a + b, where a and b are each a scalar or an array the calling node
    # created: the sum goes into an array operand, the operands kept in
    # their order. Two scalars add as Python floats, which overflow to inf
    # without raising; the caller clamps them.
    if type(a) is _ndarray:
        a += b
        return a
    if type(b) is _ndarray:
        return np.add(a, b, out=b)
    return a + b


def _walk(root: Node, x: np.ndarray, cache: bool, trap: bool) -> np.ndarray:
    """One recursive evaluation pass; eval_batch documents the two modes.

    With trap=True the caller has made overflow raise, array results are
    left unclamped, and a non-finite constant or coefficient raises
    FloatingPointError too, since inf operands yield inf without raising;
    on finite x every operand, a stored array included, is finite until an
    overflow raises. With cache=True an operator node returns the array
    its acts slot holds for x, and stores every array it computes there.
    Only operator results that are arrays are read and stored: a symbol's
    column of x is a view, cheaper to take again than to look up, and
    scalars are cheap to recompute; keeping them out of the slot means
    every literal passes the trap before it reaches an array.

    A symbol reads column x[:, j], contiguous when x is column-major. An
    operator that needs several array passes runs its later passes in
    place, in the array its own first pass created: LIN2/LIN3 add into
    one of their products, SIGM runs exp, 1 + and 1 / on its negated
    child, and a weighted node multiplies its fresh result by its weight.
    A node writes only into arrays it created itself: never into an array
    a child returned, which may be a stored activation or a column of x.
    Each element still goes through the same operations in the same
    order, so the bits are those of fresh arrays. Every LIN product passes
    sat (_sat_scalar in the trapping pass) before it is added, so a
    Python-float product that overflowed to inf is clamped to FLOAT_MAX
    before any in-place add.
    """
    sat = _sat_scalar if trap else _sat
    isfinite = math.isfinite

    def ev(node: Node):
        k = node.kind
        if k is _CONST:
            r = node.payload
            if trap and not isfinite(r):
                raise FloatingPointError(f"non-finite constant {r!r}")
            return r
        if k is _SYMBOL:
            return x[:, node.payload]
        if cache:
            hit = node.acts
            if hit is not None and hit[0] is x:
                return hit[1]
        ch = node.children
        # ordered by frequency: the math layer is most of the operators
        if k is _ADD:
            r = sat(ev(ch[0]) + ev(ch[1]))
        elif k is _MUL:
            r = sat(ev(ch[0]) * ev(ch[1]))
        elif k is _LIN2 or k is _LIN3:
            cs = node.coeffs
            if trap and not all(map(isfinite, cs)):
                raise FloatingPointError(f"non-finite coefficient in {cs!r}")
            # products passed straight to _add_own, not bound to names: at
            # numpy's temporary-elision size a product then reuses its
            # operand's fresh array, and no product outlives the add
            r = sat(_add_own(sat(cs[0] * ev(ch[0])), sat(cs[1] * ev(ch[1]))))
            if k is _LIN3:
                r = sat(_add_own(r, sat(cs[2] * ev(ch[2]))))
        elif k is _NEG:
            r = -ev(ch[0])
        elif k is _SIGM:
            r = -ev(ch[0])
            if type(r) is _ndarray:
                np.exp(r, out=r)
                np.add(1.0, r, out=r)
                np.divide(1.0, r, out=r)
            else:
                r = 1.0 / (1.0 + np.exp(r))
        else:
            if k is _GT or k is _LT:
                r = (np.greater if k is _GT else np.less)(ev(ch[0]), ev(ch[1])).astype(np.float64)
            elif k is _OR:
                r = np.maximum(ev(ch[0]), ev(ch[1]))
            elif k is _AND:
                r = np.minimum(ev(ch[0]), ev(ch[1]))
            elif k is _NOT:
                r = 1.0 - ev(ch[0])
            elif k is _OR3:
                r = np.maximum(np.maximum(ev(ch[0]), ev(ch[1])), ev(ch[2]))
            elif k is _AND3:
                r = np.minimum(np.minimum(ev(ch[0]), ev(ch[1])), ev(ch[2]))
            else:  # pragma: no cover
                raise TreeError(f"unknown operator {k}")
            w = node.weight
            if w is not None and w != 1.0:
                r *= w
        if cache and type(r) is _ndarray:
            _set_acts(node, (x, r))
        return r

    try:
        out = np.asarray(ev(root), dtype=np.float64)
    finally:
        # ev refers to itself through its closure; breaking that cycle here
        # frees the closure, and the x it holds, now rather than at the
        # next cyclic garbage collection
        del ev
    if out.ndim == 0:
        out = np.full(x.shape[0], float(out))
    return out


def _eval_saturating(tree: ExprTree, x: np.ndarray, cache: bool = False) -> np.ndarray:
    # The reference semantics: every math-node result is clamped.
    # eval_trapped falls back to it, and the tests compare eval_batch against
    # it. Invalid operations warn or raise as the caller's setting says.
    with np.errstate(over="ignore"):
        return _walk(tree.root, x, cache, trap=False)


def eval_batch(tree: ExprTree, x: np.ndarray) -> np.ndarray:
    """Evaluate the tree on a (rows, n_features) matrix; returns (rows,).

    Hard trees yield values in {0,1}, soft trees in [0,1]. Mathematical
    operators saturate at +/-FLOAT_MAX. x is converted once to a
    column-major float64 matrix and is never written; a Dataset's x, and
    every matrix softgp.data reads or generates, already is one, so it is
    not copied. A trapping pass that leaves arrays unclamped with
    overflow raising computes the result; clamping a finite array changes
    nothing, so while nothing overflows it equals the saturating pass bit
    for bit. When an operation overflows, a constant or coefficient is not
    finite, or x has a non-finite cell, the saturating pass (which clamps
    every math-node result) runs instead, under the caller's numpy setting
    for invalid operations. It neither reads nor stores the nodes'
    activations. Both passes recurse per level, so a tree far deeper than
    validate() accepts raises TreeError, as do a symbol at or past x's
    column count and an operator short of children.
    """
    x = np.asarray(x, dtype=np.float64, order="F")
    if x.ndim != 2:
        raise TreeError(f"expected a 2-D row matrix, got shape {x.shape}")
    finite = bool(np.isfinite(x).all())
    with np.errstate(over="raise"):
        return eval_trapped(tree, x, False, finite)


def eval_trapped(tree: ExprTree, x: np.ndarray, cache: bool, finite: bool) -> np.ndarray:
    """eval_batch for a caller that evaluates many trees on one matrix
    (genetics.EvalContext, for a generation) and has checked x and
    entered the trapping state once for all of them.

    The caller has entered np.errstate(over="raise"), changing no other
    setting; x is a float64 (rows, n_features) matrix, column-major for
    speed as eval_batch and EvalContext leave it (any layout gives the
    same bits), and finite says whether every cell of it is finite.

    cache=True makes re-evaluating a slightly edited copy of a tree cheap,
    since unchanged subtrees are shared: an activation lives on its node.
    An operator node whose acts slot holds an array for this very x
    returns it, and every array computed is stored in its node's slot,
    where it stays (8 bytes per row of x) while the node lives or until
    the caller clears it with drop_activations. Symbols and constants are
    never read or stored. Stored arrays are exact whichever pass wrote
    them, so the fallback reuses those an aborted trapped pass wrote. A
    node writes only into arrays it created, before it stores one, so a
    stored array is never written again; returned arrays must not be
    mutated, since they may be stored ones.
    """
    try:
        if finite:
            try:
                return _walk(tree.root, x, cache, trap=True)
            except FloatingPointError:
                pass
        return _eval_saturating(tree, x, cache)
    # a symbol past x's last column or a node short of children
    except IndexError as e:
        raise TreeError(f"cannot evaluate a malformed tree: {e}") from None
    except RecursionError:
        raise TreeError("cannot evaluate a tree this deep") from None


def drop_activations(root: Node) -> None:
    """Clear the activation every node of the subtree at root holds."""
    stack = [root]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        children = node.children
        if children:  # a term never holds one
            node.acts = None
            push(children)


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

_BLOCK = 64  # raw words a _PCG64Stream pulls per random_raw call


class _PCG64Stream:
    """Generator.integers(lo, hi) and Generator.random() over a plain PCG64,
    computed in Python from raw 64-bit words pulled in blocks.

    Each value is the one numpy's method returns from the same state, and
    close() leaves the bit generator in the state numpy's calls would have
    left, so the caller cannot tell the two apart. integers() reproduces
    the default int64 dtype for hi - lo <= 2**32: a single value costs no
    draw, and any other span runs Lemire's multiply-and-reject on one
    32-bit half word at a time. A 32-bit draw returns the buffered high
    half of the previous word when PCG64 holds one, otherwise the low half
    of a new word, buffering its high half; a spent half stays in uinteger
    as numpy leaves it. random() is (word >> 11) * 2**-53 and leaves the
    half-word buffer alone.
    """

    __slots__ = ("bg", "start", "words", "pos", "pulled", "has_half", "half")

    def __init__(self, bg: np.random.PCG64):
        self.bg = bg
        self.start = start = bg.state
        self.has_half = start["has_uint32"]
        self.half = start["uinteger"]
        self.words: list[int] = []
        self.pos = 0
        self.pulled = 0

    def word(self) -> int:
        pos = self.pos
        if pos == len(self.words):
            self.words = self.bg.random_raw(_BLOCK).tolist()
            self.pulled += _BLOCK
            pos = 0
        self.pos = pos + 1
        return self.words[pos]

    def uint32(self) -> int:
        if self.has_half:
            self.has_half = 0
            return self.half
        w = self.word()
        self.has_half = 1
        self.half = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if n == 1:
            return lo
        m = self.uint32() * n
        if (m & 0xFFFFFFFF) < n:
            floor = (0x100000000 - n) % n
            while (m & 0xFFFFFFFF) < floor:
                m = self.uint32() * n
        return lo + (m >> 32)

    def random(self) -> float:
        return (self.word() >> 11) * 2.0 ** -53

    def close(self) -> None:
        """Hand the bit generator back: reset it to its opening state with
        the half-word buffer as drawn, then replay the words used."""
        start = self.start
        if not self.pulled and self.has_half == start["has_uint32"]:
            return
        start["has_uint32"] = self.has_half
        start["uinteger"] = self.half
        self.bg.state = start
        used = self.pulled - len(self.words) + self.pos
        if used:
            self.bg.random_raw(used)


class _Gen:
    """Shared machinery for random node generation.

    At each level the path's stop rule redraws the target depth uniformly
    over what is still reachable and stops on equality, which makes the
    per-path depth uniform over the allowed range. When only one depth is
    reachable the rule takes it without a draw: integers(a, a + 1)
    returns a and leaves the generator state as it was.

    The draw methods are bound once: those of a _PCG64Stream when the
    generator's bit generator is exactly PCG64 (and every span fits the
    stream's 32-bit path), otherwise the Generator's own. Both give the
    same numbers and leave the same state; the stream skips numpy's cost
    per call. A _Gen is a context manager, and leaving it hands the
    stream's generator back. Uniform reals are drawn through random(), as
    the module docstring explains: a constant is lo + (hi - lo) * random(),
    a weight random() itself and a linear coefficient -1.0 + 2.0 * random().
    leaves maps each feature index drawn so far to its one SYMBOL leaf,
    which every later draw of that index reuses; a cache hit draws what a
    miss does.
    """

    __slots__ = ("stream", "integers", "random", "soft", "n_features", "lo", "span",
                 "leaves", "bool_ops", "math_ops", "bool_end", "math_min", "math_end")

    def __init__(self, variant: Variant, bounds: GenBounds, n_features: int,
                 const_range: Tuple[float, float], rng: np.random.Generator):
        if n_features < 1:
            raise TreeError("need at least one feature")
        lo, hi = map(float, const_range)
        if lo > hi:
            raise TreeError(f"bad constant range ({lo}, {hi})")
        span = hi - lo
        # an infinite or NaN bound makes the width inf or NaN too
        if not math.isfinite(span):
            raise TreeError(f"constant range ({lo}, {hi}) does not have a finite width")
        bg = rng.bit_generator
        if type(bg) is np.random.PCG64 and n_features <= 1 << 32:
            self.stream = stream = _PCG64Stream(bg)
            self.integers = stream.integers
            self.random = stream.random
        else:
            self.stream = None
            self.integers = rng.integers
            self.random = rng.random
        self.soft = variant is Variant.SOFT
        self.n_features = n_features
        self.lo = lo
        self.span = span
        self.leaves = {}
        self.bool_ops = _SOFT_BOOL_OPS if self.soft else _HARD_BOOL_OPS
        self.math_ops = _SOFT_MATH_OPS if self.soft else _HARD_MATH_OPS
        # the stop rules draw a target depth from [min, end)
        self.bool_end = bounds.bool_max + 1
        self.math_min = bounds.math_min
        self.math_end = bounds.math_max + 1

    def __enter__(self) -> "_Gen":
        return self

    def __exit__(self, *exc) -> None:
        if self.stream is not None:
            self.stream.close()

    def term(self) -> Node:
        integers = self.integers
        if integers(0, 2):
            return Node(_CONST, (), None, None, self.lo + self.span * self.random())
        j = int(integers(0, self.n_features))
        leaf = self.leaves.get(j)
        if leaf is None:
            leaf = self.leaves[j] = Node(_SYMBOL, (), None, None, j)
        return leaf

    def math_child(self, level: int) -> Node:
        integers = self.integers
        m = self.math_min
        lo = level if level > m else m
        end = self.math_end
        if (lo if lo + 1 == end else integers(lo, end)) != level:
            return self.math(level + 1)
        return self.term()

    def math(self, level: int) -> Node:
        ops = self.math_ops
        kind = ops[self.integers(0, len(ops))]
        child = self.math_child
        n = ARITY[kind]
        if kind is _LIN2 or kind is _LIN3:
            # coefficients are drawn before the children
            r = self.random
            if n == 2:
                coeffs = (-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
                return Node(kind, (child(level), child(level)), None, coeffs)
            coeffs = (-1.0 + 2.0 * r(), -1.0 + 2.0 * r(), -1.0 + 2.0 * r())
            return Node(kind, (child(level), child(level), child(level)), None, coeffs)
        if n == 2:
            return Node(kind, (child(level), child(level)))
        return Node(kind, (child(level),))

    def cmp(self) -> Node:
        kind = _CMP_OPS[self.integers(0, 2)]
        w = self.random() if self.soft else None
        child = self.math_child
        return Node(kind, (child(0), child(0)), w)

    def bool_child(self, level: int) -> Node:
        # the boolean min is 1, so at level >= 1 the target is drawn from
        # [level, end)
        end = self.bool_end
        if level + 1 == end or self.integers(level, end) == level:
            return self.cmp()
        return self.bool(level + 1)

    def bool(self, level: int) -> Node:
        ops = self.bool_ops
        kind = ops[self.integers(0, len(ops))]
        w = self.random() if self.soft else None
        child = self.bool_child
        n = ARITY[kind]
        if n == 2:
            return Node(kind, (child(level), child(level)), w)
        if n == 1:
            return Node(kind, (child(level),), w)
        return Node(kind, (child(level), child(level), child(level)), w)


def random_tree(variant: Variant, bounds: GenBounds, n_features: int,
                const_range: Tuple[float, float], rng: np.random.Generator) -> ExprTree:
    """Generate a random valid tree.

    Along every root-to-leaf path the boolean depth is uniform on
    [1, bool_max] and the math depth uniform on [math_min, math_max] (the
    comparison layer is always exactly one level). Weights are uniform on
    [0,1], linear coefficients on [-1,1], constants on const_range,
    symbols uniform over the features.
    """
    with _Gen(variant, bounds, n_features, const_range, rng) as gen:
        return ExprTree(variant, gen.bool(1))


def random_subtree(cls: OpClass, variant: Variant, bounds: GenBounds, n_features: int,
                   const_range: Tuple[float, float], rng: np.random.Generator,
                   depth_budget: int) -> Node:
    """Generate a random subtree whose root has the given operator class.

    depth_budget caps how many levels of cls-typed operators the subtree may
    stack (relevant for boolean and mathematical subtrees planted mid-tree).
    """
    if cls is _TERM or cls is _COMPARISON:
        with _Gen(variant, bounds, n_features, const_range, rng) as gen:
            return gen.term() if cls is _TERM else gen.cmp()
    bool_max = bounds.bool_max
    math_max = bounds.math_max
    if cls is _BOOLEAN:
        bool_max = max(1, min(bool_max, depth_budget))
    else:
        math_max = max(1, min(math_max, depth_budget))
    inner = GenBounds(bool_max=bool_max,
                      math_min=min(max(bounds.math_min, 1), math_max), math_max=math_max)
    with _Gen(variant, inner, n_features, const_range, rng) as gen:
        return gen.bool(1) if cls is _BOOLEAN else gen.math(1)


# ---------------------------------------------------------------------------
# Weight access
# ---------------------------------------------------------------------------

def _weight_slot(tree: ExprTree, k: int) -> Tuple[list, Node, Optional[int]]:
    """The path to the node holding weight slot k, the node, and None for
    its operator weight or the index of a linear coefficient; walks down
    one path as locate_node does."""
    root = tree.root
    total = summary(root)[SUMMARY_SLOTS]
    if not 0 <= k < total:
        raise LocatorError(f"weight slot {k} requested from a tree with {total} slots")
    path: list[int] = []
    node = root
    while True:
        if node.weight is not None:
            if k == 0:
                return path, node, None
            k -= 1
        coeffs = node.coeffs
        if coeffs is not None:
            if k < len(coeffs):
                return path, node, k
            k -= len(coeffs)
        for i, c in enumerate(node.children):
            n = (c.summary or summary(c))[SUMMARY_SLOTS]
            if k < n:
                break
            k -= n
        path.append(i)
        node = c


def weight_at(tree: ExprTree, k: int) -> float:
    """The value of weight slot k. A tree's weight slots are its operator
    weights and linear coefficients, numbered in preorder, a node's weight
    before its coefficients; k is the only address of a slot."""
    _, node, coeff = _weight_slot(tree, k)
    return node.weight if coeff is None else node.coeffs[coeff]


def set_weight(tree: ExprTree, k: int, value: float) -> ExprTree:
    """Return a copy of tree with weight slot k set to value.

    Operator weights are clamped to [0,1]; linear coefficients are stored
    as given. The input tree is never modified.
    """
    path, node, coeff = _weight_slot(tree, k)
    if coeff is None:  # Node clamps the weight on construction
        new = Node(node.kind, node.children, float(value), node.coeffs, node.payload)
    else:
        coeffs = node.coeffs[:coeff] + (float(value),) + node.coeffs[coeff + 1:]
        new = Node(node.kind, node.children, node.weight, coeffs, node.payload)
    return ExprTree(tree.variant, replace_subtree(tree.root, path, new))


def collect_weights(tree: ExprTree) -> list[float]:
    """The value of every weight slot, in slot order."""
    return [weight_at(tree, k) for k in range(summary(tree.root)[SUMMARY_SLOTS])]
