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
whitespace is what str.isspace() accepts. The tokens are plain strings; a
line and column are worked out only when a ParseError is raised. Columns
count code points from the start of the line, and only a line feed starts
a new line.

The parser checks token shape, arity and nesting depth only; layer-chain
legality is validate()'s job.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional, Tuple

from .tree import ARITY, OP_CLASS, ExprTree, Node, OpClass, OpKind, Variant

# Indices and counts are capped at 9 digits: int() refuses strings past
# 4300 digits with a ValueError, and no real model comes near the cap.
_SYMBOL_RE = re.compile(r"^x([0-9]{1,9})$")
_HEADER_RE = re.compile(r"^#sgp-tree v1 variant=(hard|soft) n_features=([0-9]{1,9})\s*$")

# For str patterns \s matches exactly the characters str.isspace() accepts.
_TOKEN_RE = re.compile(r"[()]|[^\s()]+")

_KIND_BY_NAME = {k.name: k for k in OpKind if k not in (OpKind.SYMBOL, OpKind.CONST)}

# Deepest operator nesting the parser accepts. Valid trees are at most
# about 12 levels deep; the limit keeps hostile input far from Python's
# recursion limit.
MAX_DEPTH = 64


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class _Parser:
    def __init__(self, text: str, soft: bool, first_line: int):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.soft = soft
        self.pos = 0
        self.first_line = first_line

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at token i, or at column 1 of the text's last line
        when i is past the last token."""
        text = self.text
        if i >= len(self.tokens):
            return ParseError(message, self.first_line + text.count("\n"), 1)
        off = next(islice(_TOKEN_RE.finditer(text), i, None)).start()
        return ParseError(message, self.first_line + text.count("\n", 0, off),
                          off - text.rfind("\n", 0, off))

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error(f"unexpected end of input, expected {what}", self.pos)
        self.pos += 1
        return tok

    def real(self, what: str) -> float:
        tok = self.take(what)
        try:
            return float(tok)
        except ValueError:
            raise self.error(f"expected {what}, got {tok!r}", self.pos - 1) from None

    def node(self, depth: int) -> Node:
        tok = self.take("a term or '('")
        if tok == "(":
            if depth >= MAX_DEPTH:
                raise self.error(f"operators nested deeper than {MAX_DEPTH} levels",
                                 self.pos - 1)
            return self.operator(depth + 1)
        if tok == ")":
            raise self.error("expected a term or '('", self.pos - 1)
        m = _SYMBOL_RE.match(tok)
        if m:
            return Node(OpKind.SYMBOL, payload=int(m.group(1)))
        try:
            return Node(OpKind.CONST, payload=float(tok))
        except ValueError:
            raise self.error(f"expected a term, got {tok!r}", self.pos - 1) from None

    def operator(self, depth: int) -> Node:
        tok = self.take("an operator name")
        kind = _KIND_BY_NAME.get(tok)
        if kind is None:
            raise self.error(f"unknown operator {tok!r}", self.pos - 1)
        weight = None
        if self.soft and OP_CLASS[kind] in (OpClass.BOOLEAN, OpClass.COMPARISON):
            weight = self.real(f"a weight for {kind.name}")
        coeffs = None
        if kind in (OpKind.LIN2, OpKind.LIN3):
            coeffs = tuple(self.real(f"a coefficient for {kind.name}")
                           for _ in range(ARITY[kind]))
        children = []
        for _ in range(ARITY[kind]):
            if self.peek() in (None, ")"):
                raise self.error(
                    f"{kind.name} expects {ARITY[kind]} children, got {len(children)}",
                    self.pos)
            children.append(self.node(depth))
        closer = self.take("')'")
        if closer != ")":
            raise self.error(f"{kind.name} expects {ARITY[kind]} children; "
                             f"unexpected {closer!r}", self.pos - 1)
        return Node(kind, tuple(children), weight=weight, coeffs=coeffs)


def _parse(text: str, variant: Variant, first_line: int) -> ExprTree:
    # text holds exactly one tree and starts on line first_line
    p = _Parser(text, variant is Variant.SOFT, first_line)
    root = p.node(0)
    rest = p.peek()
    if rest is not None:
        raise p.error(f"unexpected trailing input {rest!r}", p.pos)
    return ExprTree(variant, root)


def parse_tree(text: str, variant: Variant) -> ExprTree:
    """Parse one s-expression into a tree of the given variant.

    The variant decides whether boolean/comparison operators carry a weight
    token; hard and soft renderings of the same structure are not mutually
    parseable, so callers must know which they hold (model files record it
    in the header).
    """
    return _parse(text, variant, 1)


def _real(v: float) -> str:
    return repr(float(v))


def format_tree(tree: ExprTree) -> str:
    """Render a tree as a single-line s-expression (inverse of parse_tree)."""

    def fmt(node: Node) -> str:
        if node.kind is OpKind.SYMBOL:
            return f"x{node.payload}"
        if node.kind is OpKind.CONST:
            return _real(node.payload)
        parts = [node.kind.name]
        if node.weight is not None:
            parts.append(_real(node.weight))
        if node.coeffs is not None:
            parts.extend(_real(c) for c in node.coeffs)
        parts.extend(fmt(c) for c in node.children)
        return "(" + " ".join(parts) + ")"

    return fmt(tree.root)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_model(tree, n_features))


def load_model(path) -> Tuple[ExprTree, int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
