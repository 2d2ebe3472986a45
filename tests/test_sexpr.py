import re
import sys

import numpy as np
import pytest

from softgp.sexpr import (
    MAX_DEPTH,
    ParseError,
    _tokens,
    format_model,
    format_tree,
    load_model,
    parse_model,
    parse_tree,
    save_model,
)
from softgp.tree import (
    DEFAULT_BOUNDS,
    ExprTree,
    Node,
    OpKind,
    TreeError,
    Variant,
    const,
    eval_batch,
    op,
    random_tree,
    symbol,
    validate,
)

from sexpr_oracle import _TOKEN_RE


def test_soft_example_round_trip():
    text = "(AND 1.0 (GT 1.0 x0 0.5) (NOT 1.0 (LT 1.0 x1 x0)))"
    tree = parse_tree(text, Variant.SOFT)
    assert format_tree(tree) == text
    assert tree.root.kind is OpKind.AND
    assert tree.root.weight == 1.0
    assert tree.root.children[0].children[1].payload == 0.5


def test_hard_rendering_has_no_weights():
    t = op(OpKind.AND,
           op(OpKind.GT, symbol(0), const(0.5)),
           op(OpKind.NOT, op(OpKind.LT, symbol(1), symbol(0))))
    text = format_tree(ExprTree(Variant.HARD, t))
    assert text == "(AND (GT x0 0.5) (NOT (LT x1 x0)))"
    again = parse_tree(text, Variant.HARD)
    assert format_tree(again) == text


def test_random_trees_round_trip_exactly():
    rng = np.random.default_rng(21)
    x = rng.uniform(-3, 3, size=(10, 4))
    for variant in (Variant.HARD, Variant.SOFT):
        for _ in range(200):
            tree = random_tree(variant, DEFAULT_BOUNDS, 4, (-3.0, 3.0), rng)
            text = format_tree(tree)
            back = parse_tree(text, variant)
            assert format_tree(back) == text
            assert back.root == tree.root  # deep structural equality
            assert np.array_equal(eval_batch(back, x), eval_batch(tree, x))


def test_reals_render_via_repr():
    t = ExprTree(Variant.SOFT, op(OpKind.NOT, op(OpKind.GT, const(7), const(0.1),
                                                 weight=1.0), weight=0.5))
    text = format_tree(t)
    assert "7.0" in text and "0.1" in text
    assert format_tree(parse_tree(text, Variant.SOFT)) == text


def test_awkward_floats_survive():
    vals = [1 / 3, 1e-17, -0.0, 123456789.123456789, 2.0 ** -1074]
    for v in vals:
        t = ExprTree(Variant.SOFT, op(OpKind.NOT,
                                      op(OpKind.GT, const(v), symbol(0), weight=1.0),
                                      weight=1.0))
        back = parse_tree(format_tree(t), Variant.SOFT)
        got = back.root.children[0].children[0].payload
        assert got == v or (got == 0.0 and v == 0.0)


def test_whitespace_and_newlines_are_insignificant():
    text = "(AND 1.0\n  (GT 1.0 x0 0.5)\n  (NOT 1.0 (LT 1.0 x1 x0)))"
    tree = parse_tree(text, Variant.SOFT)
    assert format_tree(tree) == "(AND 1.0 (GT 1.0 x0 0.5) (NOT 1.0 (LT 1.0 x1 x0)))"


def test_arity_error_positions():
    with pytest.raises(ParseError, match="GT expects 2 children, got 1"):
        parse_tree("(GT 1.0 x0)", Variant.SOFT)
    with pytest.raises(ParseError, match="NOT expects 1 children"):
        parse_tree("(NOT 0.5 (GT 1.0 x0 x1) (GT 1.0 x0 x1))", Variant.SOFT)


def test_unknown_operator():
    with pytest.raises(ParseError, match="unknown operator 'NAND'"):
        parse_tree("(NAND 1.0 x0 x1)", Variant.SOFT)


def test_missing_weight_in_soft_text():
    # the first child token lands where the weight should be
    with pytest.raises(ParseError, match="expected a weight for GT"):
        parse_tree("(GT (ADD x0 x1) 0.5)", Variant.SOFT)


_HARD_HEADER = "#sgp-tree v1 variant=hard n_features=2\n"

# (variant, text, message, line, column); variant None parses a model file.
# Only a line feed starts a new line; every other whitespace character,
# "\r" and "\x85" included, is one column.
_POSITIONED_ERRORS = [
    (Variant.SOFT, "(AND 1.0\n  (GT 1.0 x0 0.5)\n  (WAT 1.0 x1 x0))",
     "unknown operator 'WAT'", 3, 4),
    (Variant.SOFT, "(NOT 1.0\n\t(GT heavy x0 x1))",
     "expected a weight for GT, got 'heavy'", 2, 6),
    (Variant.SOFT, "(GT 0.5 (LIN2 0.1 zz x0 x1)\x0b x0)",
     "expected a coefficient for LIN2, got 'zz'", 1, 19),
    (Variant.SOFT, "(AND 1.0 (GT 1.0 x0 x1)\r\n  )",
     "AND expects 2 children, got 1", 2, 3),
    (Variant.SOFT, "(AND 1.0 (GT 1.0 x0 x1)\n\n",
     "AND expects 2 children, got 1", 3, 1),
    (Variant.SOFT, "(NOT 1.0 (GT 1.0 x0 x1)\u2028",
     "unexpected end of input, expected ')'", 1, 1),
    (Variant.SOFT, "(NOT 1.0 (GT 1.0 x0 x1))\n  x3",
     "unexpected trailing input 'x3'", 2, 3),
    (Variant.SOFT, "(GT 1.0 x0\u2003?)", "expected a term, got '?'", 1, 12),
    (Variant.SOFT, "\x85)", "expected a term or '('", 1, 2),
    (None, _HARD_HEADER + "(OR (GT x0 x1)\n (LT 1.0 x0 x1))",
     "LT expects 2 children; unexpected 'x1'", 3, 13),
    (None, _HARD_HEADER + "(OR (GT x0 x1)\n (LT x0 x1)) extra\n",
     "unexpected trailing input 'extra'", 3, 14),
    # reals that float() reads as a value the file does not spell, and
    # weights that Node would clamp
    (Variant.SOFT, "(GT 1.0 x0 1_0)", "expected a term, got '1_0'", 1, 12),
    (Variant.SOFT, "(GT 1.0 x0 \u0663)", "expected a term, got '\u0663'", 1, 12),
    (Variant.SOFT, "(GT 1.0 x0 \uff11)", "expected a term, got '\uff11'", 1, 12),
    (Variant.SOFT, "(GT 0_5 x0 x1)", "expected a weight for GT, got '0_5'", 1, 5),
    (Variant.SOFT, "(GT \u0661.0 x0 x1)", "expected a weight for GT, got '\u0661.0'", 1, 5),
    (Variant.SOFT, "(GT 0.5 (LIN2 0.1 \u0660.5 x0 x1) x0)",
     "expected a coefficient for LIN2, got '\u0660.5'", 1, 19),
    (Variant.SOFT, "(GT 5.0 x0 x1)", "expected a weight for GT in [0, 1], got '5.0'", 1, 5),
    (Variant.SOFT, "(NOT -3 (GT 1.0 x0 x1))",
     "expected a weight for NOT in [0, 1], got '-3'", 1, 6),
    (Variant.SOFT, "(AND nan (GT 1.0 x0 x1) (GT 1.0 x1 x0))",
     "expected a weight for AND in [0, 1], got 'nan'", 1, 6),
    (Variant.SOFT, "(OR 1.0\n  (GT inf x0 x1)\n  (GT 1.0 x1 x0))",
     "expected a weight for GT in [0, 1], got 'inf'", 2, 7),
    (None, _HARD_HEADER + "(NOT\n (GT x0 1_000))", "expected a term, got '1_000'", 3, 9),
    # input that ends where the grammar still expects a token
    (Variant.SOFT, "", "unexpected end of input, expected a term or '('", 1, 1),
    (None, _HARD_HEADER + " \n", "unexpected end of input, expected a term or '('", 3, 1),
    (Variant.SOFT, "(", "unexpected end of input, expected an operator name", 1, 1),
    (Variant.SOFT, "(GT", "unexpected end of input, expected a weight for GT", 1, 1),
    (Variant.HARD, "(GT", "GT expects 2 children, got 0", 1, 1),
    (Variant.SOFT, "(GT 0.5 (LIN3 0.1 0.2\n",
     "unexpected end of input, expected a coefficient for LIN3", 2, 1),
    # an operator name that is no operator, a closer where a child belongs,
    # and the first '(' past MAX_DEPTH
    (Variant.SOFT, "(x0 x1)", "unknown operator 'x0'", 1, 2),
    (Variant.SOFT, "(NOT 1.0 )", "NOT expects 1 children, got 0", 1, 10),
    (Variant.SOFT, "(OR3 1.0 (GT 1.0 x0 x1) (GT 1.0 x0 x1))",
     "OR3 expects 3 children, got 2", 1, 39),
    (Variant.SOFT, "(NOT 1.0 " * MAX_DEPTH + "(GT 1.0 x0 x1" + ")" * (MAX_DEPTH + 1),
     f"operators nested deeper than {MAX_DEPTH} levels", 1, 9 * MAX_DEPTH + 1),
]


def test_error_reports_line_and_column():
    for variant, text, message, line, col in _POSITIONED_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_model(text) if variant is None else parse_tree(text, variant)
        assert (str(err.value), err.value.line, err.value.col) == (
            f"line {line}, column {col}: {message}", line, col), text


def test_token_whitespace_is_exactly_str_isspace():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    kept = "".join(_tokens(every))
    assert kept == "".join(c for c in every if not c.isspace())


def test_tokens_are_the_grammar_tokens():
    # every code point, then parentheses beside runs, whitespace and each other
    for text in ("".join(map(chr, range(sys.maxunicode + 1))),
                 "((x0\u2028)\x1c(\x85 ))x1(\u3000LT)\t1e9)(", ""):
        assert _tokens(text) == _TOKEN_RE.findall(text)


def test_numbers_are_ascii_digits_only():
    # format_model would write these back as x2 and 3, so accepting them
    # would break the round trip
    with pytest.raises(ParseError, match="expected a term, got 'x\u0662'"):
        parse_tree("(GT 1.0 x\u0662 x0)", Variant.SOFT)
    with pytest.raises(ParseError, match="header"):
        parse_model("#sgp-tree v1 variant=soft n_features=\u0663\n(GT 1.0 x0 x1)\n")


def test_non_finite_constants_and_weight_bounds_still_parse():
    t = parse_tree("(AND 0.0 (GT 1.0 x0 inf) (LT 1e-999 nan 1e999))", Variant.SOFT)
    gt, lt = t.root.children
    assert t.root.weight == 0.0 and gt.weight == 1.0 and lt.weight == 0.0
    assert gt.children[1].payload == float("inf")
    assert np.isnan(lt.children[0].payload)
    assert lt.children[1].payload == float("inf")


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_tree("(NOT 1.0 (GT 1.0 x0 x1)) x3", Variant.SOFT)


def test_unclosed_tree_rejected():
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_tree("(NOT 1.0 (GT 1.0 x0 x1)", Variant.SOFT)
    with pytest.raises(ParseError, match="AND expects 2 children, got 1"):
        parse_tree("(AND 1.0 (GT 1.0 x0 x1)", Variant.SOFT)


def nested_nots(levels):
    return "(NOT 1.0 " * (levels - 1) + "(GT 1.0 x0 x1)" + ")" * (levels - 1)


def test_nesting_depth_is_bounded():
    t = parse_tree(nested_nots(MAX_DEPTH), Variant.SOFT)
    assert t.root.kind is OpKind.NOT
    header = "#sgp-tree v1 variant=soft n_features=2\n"
    for text, parse in ((nested_nots(MAX_DEPTH + 1), lambda s: parse_tree(s, Variant.SOFT)),
                        (header + nested_nots(5000), parse_model)):
        with pytest.raises(ParseError, match="nested deeper than") as err:
            parse(text)
        assert err.value.col == 9 * MAX_DEPTH + 1  # the first '(' past the limit


def test_trees_of_any_depth_format_and_save(tmp_path):
    # far deeper than the parser accepts or Python's recursion limit allows
    levels = 3000
    node = op(OpKind.GT, symbol(0), symbol(1), weight=1.0)
    for _ in range(levels - 1):
        node = op(OpKind.NOT, node, weight=1.0)
    text = nested_nots(levels)
    assert format_tree(ExprTree(Variant.SOFT, node)) == text
    path = tmp_path / "deep.sgp"
    # save_model refuses a tree this deep, so the file is written directly
    path.write_text(format_model(ExprTree(Variant.SOFT, node), 2), encoding="utf-8")
    header = "#sgp-tree v1 variant=soft n_features=2\n"
    assert path.read_text(encoding="utf-8") == header + text + "\n"
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as err:
        load_model(path)
    assert (err.value.line, err.value.col) == (2, 9 * MAX_DEPTH + 1)


@pytest.mark.parametrize("tree, n_features", [
    (ExprTree(Variant.SOFT, Node(OpKind.GT, (Node(OpKind.SYMBOL, payload=-1), const(0.0)), 1.0)),
     2),
    (ExprTree(Variant.SOFT, op(OpKind.GT, symbol(0), const(0.0), weight=1.0)), 10 ** 9),
    (ExprTree(Variant.SOFT, op(OpKind.ADD, symbol(0), symbol(1))), 2),
], ids=["negative symbol", "features past the header", "math root"])
def test_save_model_refuses_an_invalid_model_before_opening_the_file(tmp_path, tree,
                                                                     n_features):
    path = tmp_path / "m.sgp"
    with pytest.raises(TreeError, match="cannot save"):
        save_model(path, tree, n_features)
    assert not path.exists()


@pytest.mark.parametrize("body, problem", [
    ("(ADD x0 x0)", "root is not a boolean operator"),
    ("(NOT 1.0 (GT 1.0 x0 x1))", "symbol index 1 outside"),
], ids=["math root", "symbol past the header's features"])
def test_load_model_refuses_an_invalid_model(tmp_path, body, problem):
    path = tmp_path / "m.sgp"
    text = f"#sgp-tree v1 variant=soft n_features=1\n{body}\n"
    path.write_text(text, encoding="utf-8")
    # the file parses, and (ADD x0 x0) would give 6.0 and -2.0 on rows 3
    # and -1, outside the soft codomain [0, 1]
    tree, n_features = parse_model(text)
    assert validate(tree, n_features)
    with pytest.raises(TreeError, match=f"invalid model {re.escape(str(path))}: .*{problem}"):
        load_model(path)


def test_save_model_refuses_a_lin_coefficient_that_is_not_a_real(tmp_path):
    # Node keeps a coefficient tuple as given; saved, '0.5' would be
    # written as 0.5 and load back as a different tree
    lin = Node(OpKind.LIN2, (symbol(0), symbol(1)), None, ("0.5", 1))
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT, op(OpKind.GT, lin, const(0.0), weight=1.0),
                                     weight=1.0))
    assert [str(v) for v in validate(tree, 2)] == [
        "at 0/0: LIN2 coefficient '0.5' is not a real"]
    path = tmp_path / "m.sgp"
    with pytest.raises(TreeError, match="coefficient '0.5' is not a real"):
        save_model(path, tree, 2)
    assert not path.exists()
    # ints, bools and numpy floats are reals and load back equal
    lin = Node(OpKind.LIN2, (symbol(0), symbol(1)), None, (1, np.float64(-0.25)))
    tree = ExprTree(Variant.SOFT, op(OpKind.NOT, op(OpKind.GT, lin, const(0.0), weight=1.0),
                                     weight=1.0))
    assert validate(tree, 2) == []
    save_model(path, tree, 2)
    assert load_model(path) == (tree, 2)


def test_bare_term_parses():
    t = parse_tree("x2", Variant.SOFT)
    assert t.root.kind is OpKind.SYMBOL and t.root.payload == 2
    t = parse_tree("-1.5e3", Variant.HARD)
    assert t.root.kind is OpKind.CONST and t.root.payload == -1500.0


def test_bad_term_rejected():
    with pytest.raises(ParseError, match="expected a term"):
        parse_tree("y0", Variant.SOFT)


def test_lin_coefficients_parse_before_children():
    t = parse_tree("(LIN2 0.25 -0.75 x0 x1)", Variant.SOFT)
    assert t.root.coeffs == (0.25, -0.75)
    assert [c.kind for c in t.root.children] == [OpKind.SYMBOL, OpKind.SYMBOL]


# --- model files ------------------------------------------------------------------

def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    tree = random_tree(Variant.SOFT, DEFAULT_BOUNDS, 5, (-1.0, 1.0), rng)
    text = format_model(tree, 5)
    assert text.startswith("#sgp-tree v1 variant=soft n_features=5\n")
    back, n = parse_model(text)
    assert n == 5 and back.root == tree.root and back.variant is Variant.SOFT

    path = tmp_path / "model.sgp"
    save_model(path, tree, 5)
    loaded, n2 = load_model(path)
    assert n2 == 5 and loaded.root == tree.root


def test_model_header_carries_variant():
    tree = parse_tree("(NOT (GT x0 1.0))", Variant.HARD)
    text = format_model(tree, 1)
    back, _ = parse_model(text)
    assert back.variant is Variant.HARD


def test_model_header_errors():
    with pytest.raises(ParseError, match="header"):
        parse_model("(NOT 1.0 (GT 1.0 x0 x1))\n")
    with pytest.raises(ParseError, match="header"):
        parse_model("#sgp-tree v2 variant=soft n_features=2\n(GT 1.0 x0 x1)\n")
    with pytest.raises(ParseError, match="missing model body"):
        parse_model("#sgp-tree v1 variant=soft n_features=2")


def test_model_body_errors_count_lines_past_the_header():
    text = "#sgp-tree v1 variant=soft n_features=2\n(GT 1.0 x0)\n"
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 2


def test_load_model_names_the_line_of_an_undecodable_byte(tmp_path):
    path = tmp_path / "m.sgp"
    # lines end as universal newlines read them: "\r\n", "\r" and "\n"
    path.write_bytes(b"#sgp-tree v1 variant=soft n_features=2\r\n"
                     b"(AND 1.0\r (GT 0.5 x0 \xc3\xa9\xff) (GT 1.0 x1 x0))\n")
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert (str(err.value), err.value.line, err.value.col) == (
        "line 3, column 14: cannot decode byte 0xff as UTF-8", 3, 14)


def test_load_model_reads_universal_newlines(tmp_path):
    path = tmp_path / "m.sgp"
    path.write_bytes(b"#sgp-tree v1 variant=soft n_features=2\r(NOT 1.0\r\n(GT 1.0 x0 x1))\r")
    tree, n = load_model(path)
    assert n == 2 and format_tree(tree) == "(NOT 1.0 (GT 1.0 x0 x1))"
    path.write_bytes(b"#sgp-tree v1 variant=soft n_features=2\r(NOT 1.0\r\n(GT 1.0 x0))\r")
    with pytest.raises(ParseError, match="GT expects 2 children, got 1") as err:
        load_model(path)
    assert (err.value.line, err.value.col) == (3, 11)
