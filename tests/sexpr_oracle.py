"""A recursive-descent model-file parser, kept as a reference for the
single-pass parser in softgp.sexpr.

It reads the grammar in the sexpr module docstring one production per
method, so each check sits where the grammar asks for it. The tests run
both parsers on the same text and require an equal tree, or a ParseError
with the same message, line and column.
"""

import re
from itertools import islice

from softgp.sexpr import _HEADER_RE, _SYMBOL_RE, MAX_DEPTH, ParseError
from softgp.tree import ARITY, OP_CLASS, ExprTree, Node, OpClass, OpKind, Variant

# A token as the grammar defines it. For str patterns \s matches exactly
# the characters str.isspace() accepts.
_TOKEN_RE = re.compile(r"[()]|[^\s()]+")

_KIND_BY_NAME = {k.name: k for k in OpKind if k not in (OpKind.SYMBOL, OpKind.CONST)}


def _float(tok):
    if not tok.isascii() or "_" in tok:
        raise ValueError(tok)
    return float(tok)


class _Parser:
    def __init__(self, text, soft, first_line):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.soft = soft
        self.pos = 0
        self.first_line = first_line

    def error(self, message, i):
        text = self.text
        if i >= len(self.tokens):
            return ParseError(message, self.first_line + text.count("\n"), 1)
        off = next(islice(_TOKEN_RE.finditer(text), i, None)).start()
        return ParseError(message, self.first_line + text.count("\n", 0, off),
                          off - text.rfind("\n", 0, off))

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, what):
        tok = self.peek()
        if tok is None:
            raise self.error(f"unexpected end of input, expected {what}", self.pos)
        self.pos += 1
        return tok

    def real(self, what):
        tok = self.take(what)
        try:
            return _float(tok)
        except ValueError:
            raise self.error(f"expected {what}, got {tok!r}", self.pos - 1) from None

    def node(self, depth):
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
            return Node(OpKind.CONST, payload=_float(tok))
        except ValueError:
            raise self.error(f"expected a term, got {tok!r}", self.pos - 1) from None

    def operator(self, depth):
        tok = self.take("an operator name")
        kind = _KIND_BY_NAME.get(tok)
        if kind is None:
            raise self.error(f"unknown operator {tok!r}", self.pos - 1)
        weight = None
        if self.soft and OP_CLASS[kind] in (OpClass.BOOLEAN, OpClass.COMPARISON):
            weight = self.real(f"a weight for {kind.name}")
            if not 0.0 <= weight <= 1.0:
                raise self.error(f"expected a weight for {kind.name} in [0, 1], "
                                 f"got {self.tokens[self.pos - 1]!r}", self.pos - 1)
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


def _parse(text, variant, first_line):
    p = _Parser(text, variant is Variant.SOFT, first_line)
    root = p.node(0)
    rest = p.peek()
    if rest is not None:
        raise p.error(f"unexpected trailing input {rest!r}", p.pos)
    return ExprTree(variant, root)


def parse_tree(text, variant):
    return _parse(text, variant, 1)


def parse_model(text):
    newline = text.find("\n")
    if newline < 0:
        raise ParseError("missing model body after header", 1, 1)
    m = _HEADER_RE.match(text[:newline])
    if not m:
        raise ParseError("bad or missing '#sgp-tree v1' header", 1, 1)
    return _parse(text[newline + 1:], Variant(m.group(1)), 2), int(m.group(2))
