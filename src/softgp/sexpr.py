"""S-expression serialization for expression trees.

Grammar (whitespace separated, UTF-8):

    tree   := bool
    bool   := "(" ("OR"|"AND") w bool bool ")" | "(" ("OR3"|"AND3") w bool bool bool ")"
            | "(" "NOT" w bool ")" | cmp
    cmp    := "(" ("GT"|"LT") w math math ")"
    math   := "(" ("ADD"|"MUL") math math ")" | "(" ("NEG"|"SIGM") math ")"
            | "(" "LIN2" a a math math ")" | "(" "LIN3" a a a math math math ")" | term
    term   := "x" NAT | REAL
    w, a   := REAL          # w omitted entirely in hard-variant files

Model files carry a header line "#sgp-tree v1 variant=<hard|soft>
n_features=<n>" followed by one tree. Reals are rendered with repr(), whose
shortest round-trip form re-parses to the identical float, so serialization
preserves evaluation exactly.

A token is "(", ")" or a run of other non-whitespace characters, where
whitespace is what str.isspace() accepts, which is also where str.split()
cuts. So _tokens pads each parenthesis with spaces and splits the text
once. The tokens are plain strings; a line and column are worked out only
when a ParseError is raised. Only whitespace lies between two tokens, so
the error walks the tokens up to the bad one, finding each with str.find()
from where the one before it ends. Columns count code points from the
start of the line, and only a line feed starts a new line.

A REAL is an ASCII token that float() accepts without "_" separators,
so inf, nan and 1e999 (which is inf) are reals. A weight must lie in
[0, 1]; NaN is refused.

The parser checks token shape, arity, weight range and nesting depth
only; layer-chain legality is validate()'s job.

Both directions are single flat passes with no recursion. The parser
walks the token list once and builds each Node when its ")" arrives. The
innermost open operator lives in local variables, and the ones around it
wait on an explicit stack: an operator is pushed only when another opens
inside it, so a child is appended without unpacking a stack entry. An
empty-string sentinel follows the last token. It is no "(", ")",
operator, real or term, so the happy path needs no bounds checks and
reaches an error branch at it, and only the error branches ask whether
they stand at the end. The formatter writes from an explicit stack. So a
tree of any depth formats, and MAX_DEPTH is a policy on what a model
file may hold, not a guard for Python's stack.

The parser builds one SYMBOL leaf per symbol token in a tree and puts it
at every place the token occurs, as random generation does per feature
index. Nodes are immutable, so a shared leaf changes no value, text or
evaluation; it saves a Node per repeat.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .tree import ARITY, OP_CLASS, ExprTree, Node, OpClass, OpKind, TreeError, Variant, validate

# Indices and counts are capped at 9 digits: int() refuses strings past
# 4300 digits with a ValueError, and no real model comes near the cap.
_SYMBOL_RE = re.compile(r"^x([0-9]{1,9})$")
_HEADER_RE = re.compile(r"^#sgp-tree v1 variant=(hard|soft) n_features=([0-9]{1,9})\s*$")

_SYMBOL, _CONST = OpKind.SYMBOL, OpKind.CONST

# Every operator by its spelled name: (kind, arity, carries a weight in soft
# files, number of LIN coefficients).
_OPERATORS = {
    kind.name: (kind, ARITY[kind], OP_CLASS[kind] in (OpClass.BOOLEAN, OpClass.COMPARISON),
                ARITY[kind] if kind in (OpKind.LIN2, OpKind.LIN3) else 0)
    for kind in OpKind if kind not in (_SYMBOL, _CONST)
}

# The text that opens each operator, indexed by kind; None for terms.
_OPEN = tuple(None if kind in (_SYMBOL, _CONST) else "(" + kind.name for kind in OpKind)

# Deepest operator nesting the parser accepts; valid trees are at most
# about 12 levels deep.
MAX_DEPTH = 64


def _float(tok: str) -> Optional[float]:
    """tok as a float when it is a REAL, else None."""
    # float() also reads "_" separators and non-ASCII digits, which
    # format_model would write back as other text; refuse them
    if tok.isascii() and "_" not in tok:
        try:
            return float(tok)
        except ValueError:
            pass
    return None


def _tokens(text: str) -> List[str]:
    """The tokens of text, in order."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _parse(text: str, variant: Variant, first_line: int) -> ExprTree:
    # text holds exactly one tree and starts on line first_line
    tokens = _tokens(text)
    n = len(tokens)
    tokens.append("")  # the sentinel the module docstring describes
    soft = variant is Variant.SOFT
    symbol = _SYMBOL_RE.match
    # each symbol token's one leaf in this tree
    leaves = {}

    def error(message: str, i: int) -> ParseError:
        """A ParseError at token i, or at column 1 of the text's last line
        when i is the sentinel."""
        if i == n:
            return ParseError(message, first_line + text.count("\n"), 1)
        off = 0
        for tok in tokens[:i]:
            off = text.find(tok, off) + len(tok)
        off = text.find(tokens[i], off)
        return ParseError(message, first_line + text.count("\n", 0, off),
                          off - text.rfind("\n", 0, off))

    def expected(what: str, i: int) -> str:
        """The message for token i where the grammar expects what."""
        if i == n:
            return f"unexpected end of input, expected {what}"
        return f"expected {what}, got {tokens[i]!r}"

    # The innermost open operator lives in locals: kind, arity, weight,
    # coeffs and children so far. Outside every operator they hold the
    # root's holder, kind None and arity 1. The stack holds the enclosing
    # ones, outermost first, as (kind, arity, weight, coeffs, children).
    kind, arity, weight, coeffs, children = None, 1, None, None, []
    stack = []
    i = 0
    while True:
        # a node starts at token i
        tok = tokens[i]
        if tok == "(":
            if len(stack) >= MAX_DEPTH:
                raise error(f"operators nested deeper than {MAX_DEPTH} levels", i)
            i += 1
            entry = _OPERATORS.get(tokens[i])
            if entry is None:
                raise error("unexpected end of input, expected an operator name" if i == n
                            else f"unknown operator {tokens[i]!r}", i)
            stack.append((kind, arity, weight, coeffs, children))
            kind, arity, weighted, n_coeffs = entry
            i += 1
            weight = coeffs = None
            if soft and weighted:
                weight = _float(tokens[i])
                # Node would clamp it, loading a value the file does not hold
                if weight is None or not 0.0 <= weight <= 1.0:
                    what = f"a weight for {kind.name}"
                    if weight is not None:
                        what += " in [0, 1]"
                    raise error(expected(what, i), i)
                i += 1
            if n_coeffs:
                # a slice running past the end holds the sentinel, a None
                coeffs = tuple(map(_float, tokens[i:i + n_coeffs]))
                if None in coeffs:
                    j = i + coeffs.index(None)
                    raise error(expected(f"a coefficient for {kind.name}", j), j)
                i += n_coeffs
            children = []
            continue
        node = leaves.get(tok)
        if node is None:
            if tok == ")" or i == n:
                if kind is not None:
                    raise error(f"{kind.name} expects {arity} children, got {len(children)}", i)
                raise error("unexpected end of input, expected a term or '('" if i == n
                            else "expected a term or '('", i)
            if tok[0] == "x":
                m = symbol(tok)
                if m is None:
                    raise error(f"expected a term, got {tok!r}", i)
                node = leaves[tok] = Node(_SYMBOL, (), None, None, int(m.group(1)))
            else:
                value = _float(tok)
                if value is None:
                    raise error(f"expected a term, got {tok!r}", i)
                node = Node(_CONST, (), None, None, value)
        i += 1
        # the node completes its parent when it is the last child, and so on
        # up the stack, each completed operator closed by a ")"
        while True:
            children.append(node)
            if len(children) < arity:
                break
            if kind is None:
                if i < n:
                    raise error(f"unexpected trailing input {tokens[i]!r}", i)
                return ExprTree(variant, node)
            if tokens[i] != ")":
                raise error("unexpected end of input, expected ')'" if i == n else
                            f"{kind.name} expects {arity} children; unexpected {tokens[i]!r}", i)
            i += 1
            node = Node(kind, tuple(children), weight, coeffs)
            kind, arity, weight, coeffs, children = stack.pop()


def parse_tree(text: str, variant: Variant) -> ExprTree:
    """Parse one s-expression into a tree of the given variant.

    The variant decides whether boolean/comparison operators carry a weight
    token; hard and soft renderings of the same structure are not mutually
    parseable, so callers must know which they hold (model files record it
    in the header).
    """
    return _parse(text, variant, 1)


def format_tree(tree: ExprTree) -> str:
    """Render a tree as a single-line s-expression (inverse of parse_tree)."""
    out = []
    emit = out.append
    # nodes still to write, the next on top; None closes an operator
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node is None:
            emit(")")
            continue
        head = _OPEN[node.kind]
        if head is None:
            emit(f"x{node.payload}" if node.kind is _SYMBOL else repr(float(node.payload)))
            continue
        emit(head)
        if node.weight is not None:
            emit(repr(float(node.weight)))
        if node.coeffs is not None:
            out.extend([repr(float(c)) for c in node.coeffs])
        stack.append(None)
        stack.extend(reversed(node.children))
    # no token holds a space or a ")", and a ")" is the only token not
    # preceded by a space
    return " ".join(out).replace(" )", ")")


def format_model(tree: ExprTree, n_features: int) -> str:
    header = f"#sgp-tree v1 variant={tree.variant.value} n_features={int(n_features)}"
    return header + "\n" + format_tree(tree) + "\n"


def parse_model(text: str) -> Tuple[ExprTree, int]:
    """Parse a model file (header + tree); returns (tree, n_features)."""
    newline = text.find("\n")
    if newline < 0:
        raise ParseError("missing model body after header", 1, 1)
    m = _HEADER_RE.match(text[:newline])
    if not m:
        raise ParseError("bad or missing '#sgp-tree v1' header", 1, 1)
    return _parse(text[newline + 1:], Variant(m.group(1)), 2), int(m.group(2))


def save_model(path, tree: ExprTree, n_features: int) -> None:
    """Write a model file. A tree validate() rejects, or a feature count
    the header's nine digits cannot hold, raises TreeError before the file
    is opened, so every file written loads back as the same tree."""
    if not 0 <= n_features < 10 ** 9:
        raise TreeError(f"cannot save a model of {n_features} features")
    problems = validate(tree, n_features)
    if problems:
        raise TreeError(f"cannot save an invalid model: {problems[0]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_model(tree, n_features))


def _universal_newlines(text: str) -> str:
    # what open() in text mode makes of "\r\n" and a lone "\r"
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_model(path) -> Tuple[ExprTree, int]:
    """Read a model file. A tree validate() rejects raises TreeError, as
    save_model refuses to write one; parse_model does not check."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the bytes before the first bad one decode; count lines and
        # columns in them as the parser does
        before = _universal_newlines(data[:e.start].decode("utf-8"))
        raise ParseError(f"cannot decode byte {data[e.start]:#04x} as UTF-8",
                         1 + before.count("\n"), len(before) - before.rfind("\n")) from None
    tree, n_features = parse_model(_universal_newlines(text))
    problems = validate(tree, n_features)
    if problems:
        raise TreeError(f"invalid model {path}: {problems[0]}")
    return tree, n_features
