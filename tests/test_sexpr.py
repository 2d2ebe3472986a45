import sys

import numpy as np
import pytest

from softgp.sexpr import (
    _TOKEN_RE,
    MAX_DEPTH,
    ParseError,
    format_model,
    format_tree,
    load_model,
    parse_model,
    parse_tree,
    save_model,
)
from softgp.tree import (
    DEFAULT_BOUNDS,
    OpKind,
    Variant,
    const,
    eval_batch,
    op,
    random_tree,
    symbol,
)


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
    from softgp.tree import ExprTree
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
    from softgp.tree import ExprTree
    t = ExprTree(Variant.SOFT, op(OpKind.NOT, op(OpKind.GT, const(7), const(0.1),
                                                 weight=1.0), weight=0.5))
    text = format_tree(t)
    assert "7.0" in text and "0.1" in text
    assert format_tree(parse_tree(text, Variant.SOFT)) == text


def test_awkward_floats_survive():
    vals = [1 / 3, 1e-17, -0.0, 123456789.123456789, 2.0 ** -1074]
    for v in vals:
        from softgp.tree import ExprTree
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
]


def test_error_reports_line_and_column():
    for variant, text, message, line, col in _POSITIONED_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_model(text) if variant is None else parse_tree(text, variant)
        assert (str(err.value), err.value.line, err.value.col) == (
            f"line {line}, column {col}: {message}", line, col), text


def test_token_whitespace_is_exactly_str_isspace():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    kept = "".join(_TOKEN_RE.findall(every))
    assert kept == "".join(c for c in every if not c.isspace())


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
