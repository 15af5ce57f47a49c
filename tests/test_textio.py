"""Lexing, parsing, printing, and JSON export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulam.gen import gen_random
from mulam.syntax import BOOL, NAT, App, Lam, RApp, RLam, RVar, Sum, Var, alpha_eq
from mulam.textio import (
    ParseError,
    lex,
    parse_res,
    parse_sum,
    parse_term,
    print_res,
    print_sum,
    print_term,
    sum_to_json,
    to_json,
)


# ---------- lexer ----------


def test_lexer_spans_are_half_open():
    toks = lex(r"\x. mu 'ab.<'ab> x 1")
    kinds = [t.kind for t in toks]
    assert kinds == [
        "LAM", "VAR", "DOT", "MU", "NAME", "DOT", "LT", "NAME", "GT",
        "VAR", "NUM", "EOF",
    ]
    lam = toks[0]
    assert (lam.start, lam.end) == (0, 1)
    name = toks[4]
    assert name.text == "ab"
    assert (name.start, name.end) == (7, 10)  # includes the quote


def test_lexer_rejects_stray_characters():
    with pytest.raises(ParseError) as e:
        lex("x $ y")
    assert e.value.start == 2 and e.value.end == 3


def test_lexer_rejects_bare_quote():
    with pytest.raises(ParseError):
        lex("mu '.")


def test_identifiers_must_start_lowercase_ascii():
    with pytest.raises(ParseError):
        parse_res("X")


# ---------- parsing/printing roundtrips ----------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_res_print_parse_roundtrip(seed):
    t = gen_random("resterm", 16, seed)
    assert parse_res(print_res(t)) == t


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_term_print_parse_roundtrip(seed):
    t = gen_random("term", 14, seed)
    assert parse_term(print_term(t)) == t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5_000))
def test_sum_print_parse_roundtrip(seed):
    items = [(gen_random("resterm", 10, seed * 7 + k), k + 1) for k in range(3)]
    s = Sum(NAT, items)
    assert parse_sum(print_sum(s), NAT) == s


def test_application_is_left_associative():
    assert parse_term("x y z") == parse_term("(x y) z")
    assert parse_term("x (y z)") != parse_term("x y z")


def test_lambda_body_extends_right():
    assert parse_term(r"\x.x y") == parse_term(r"\x.(x y)")


def test_bag_application_chains_left():
    t = parse_res("x[y][z]")
    assert isinstance(t, RApp) and isinstance(t.head, RApp)
    assert parse_res("x 1 1") == RApp(RApp(RVar("x"), ()), ())


def test_printer_parenthesizes_only_where_needed():
    for src in (
        "x (y z)",
        r"(\x.x) y",
        r"\x.\y.x",
        "mu 'a.<'a> x y",
        "(mu 'a.<'a> x) y",
    ):
        t = parse_term(src)
        assert parse_term(print_term(t)) == t


def test_bags_canonicalize_on_parse():
    assert parse_res("x[z, y]") == parse_res("x[y, z]")
    assert parse_res("x[y, y]") == parse_res("x[y, y]")
    assert parse_res("x[y, y]") != parse_res("x[y]")


def test_alpha_variants_parse_equal():
    assert parse_term(r"\x.x") == parse_term(r"\y.y")
    assert parse_res("mu 'a.<'a> x") == parse_res("mu 'b.<'b> x")
    assert alpha_eq(parse_term(r"\x.\y.x"), parse_term(r"\a.\b.a"))


def test_printer_avoids_capturing_free_variables():
    # a bound variable may not be displayed as any free variable in scope
    t = parse_term(r"\w.x w")
    shown = print_term(t)
    assert "x" in shown
    assert parse_term(shown) == t


def test_mu_naming_resolution():
    # the named name is resolved in a scope that includes the binder itself
    own = parse_res("mu 'a.<'a> x")
    free = parse_res("mu 'a.<'b> x")
    assert own != free
    assert print_res(free).count("'") == 2


# ---------- sums ----------


def test_zero_sum_parses_and_prints():
    z = parse_sum("0", NAT)
    assert z.is_zero
    assert print_sum(z) == "0"
    assert parse_sum(print_sum(z), NAT) == z


def test_sum_coefficients_merge():
    s = parse_sum("2*x + x", NAT)
    assert s.coeff(parse_res("x")) == 3


def test_bool_sums_saturate():
    s = parse_sum("2*x + 3*x", BOOL)
    assert s.coeff(parse_res("x")) == 1
    assert print_sum(s) == "x"


def test_sum_printing_is_deterministic():
    a = parse_sum("y + x + 2*z", NAT)
    b = parse_sum("2*z + x + y", NAT)
    assert print_sum(a) == print_sum(b)


# ---------- error reporting ----------


def test_bare_number_in_resource_term_is_rejected():
    with pytest.raises(ParseError) as e:
        parse_res("x 2")
    assert "expected '1' (the empty bag) or '['" in str(e.value)
    assert (e.value.start, e.value.end) == (2, 3)


def test_unclosed_bag_points_at_end():
    with pytest.raises(ParseError):
        parse_res("x[y")


def test_trailing_garbage_is_an_error():
    with pytest.raises(ParseError):
        parse_term("x )")


def test_lambda_missing_dot():
    with pytest.raises(ParseError):
        parse_term(r"\x x")


# An underscore may continue an identifier but never start a token.
UNDERSCORE_STARTS = [
    (parse_term, "_0", (0, 1)),
    (parse_term, r"\x._0", (3, 4)),
    (parse_term, "_1 _00", (0, 1)),
    (parse_res, "x[_1]", (2, 3)),
]


@pytest.mark.parametrize("parse, src, span", UNDERSCORE_STARTS, ids=[s for _, s, _ in UNDERSCORE_STARTS])
def test_underscore_is_a_parse_error_at_its_position(parse, src, span):
    with pytest.raises(ParseError, match="unexpected character '_'") as e:
        parse(src)
    assert (e.value.start, e.value.end) == span


def test_underscore_continues_an_identifier():
    assert parse_term("x_1") == Var("x_1")
    assert print_term(parse_term("mu 'a_1.<'a_1> x_1")) == "mu 'a.<'a> x_1"


# A quote before a non-identifier, and a quote that ends the input.
@pytest.mark.parametrize("src, at", [("mu 'a.<'> x", 7), ("mu 'a.<'a> x'", 12)])
def test_quote_needs_an_identifier(src, at):
    with pytest.raises(ParseError, match="expected identifier after quote") as e:
        parse_term(src)
    assert (e.value.start, e.value.end) == (at, at + 1)


# ---------- JSON ----------


def test_term_json_shape():
    j = to_json(parse_term(r"\x.mu 'a.<'a> x y"))
    assert j["tag"] == "lam"
    body = j["body"]
    assert body["tag"] == "mu"
    assert body["named"] == body["binder"]
    app = body["body"]
    assert app["tag"] == "app"
    assert app["fun"] == {"tag": "var", "name": j["binder"]}


def test_res_json_shape():
    j = to_json(parse_res("x[y, y] 1"))
    assert j["tag"] == "bagapp" and j["bag"] == []
    inner = j["head"]
    assert inner["tag"] == "bagapp"
    assert [e["name"] for e in inner["bag"]] == ["y", "y"]


def test_sum_json_shape():
    j = sum_to_json(parse_sum("2*x + y", NAT))
    assert j["tag"] == "sum" and j["semiring"] == "nat"
    assert [(a["coeff"], a["term"]["name"]) for a in j["addends"]] == [
        (2, "x"),
        (1, "y"),
    ]


def test_to_json_dispatches_and_rejects():
    assert to_json(parse_term("x"))["tag"] == "var"
    assert to_json(parse_res("x 1"))["tag"] == "bagapp"
    assert to_json(parse_sum("0", BOOL))["tag"] == "sum"
    with pytest.raises(TypeError):
        to_json(42)


def test_deep_terms_print_and_export():
    # Deeper than the interpreter's recursion limit: the printer and the
    # JSON export walk with their own stacks.
    n = 1500
    t, r = Var("x"), RVar("x")
    for _ in range(n):
        t, r = App(Var("x"), t), RApp(RVar("x"), [r])
    assert print_term(t) == "x (" * (n - 1) + "x x" + ")" * (n - 1)
    assert print_res(r) == "x[" * n + "x" + "]" * n
    for j, child in ((to_json(t), lambda d: d["arg"]), (to_json(r), lambda d: d["bag"][0])):
        for _ in range(n):
            assert j["tag"] in ("app", "bagapp")
            j = child(j)
        assert j == {"tag": "var", "name": "x"}
    lam, rlam = Var(0), RVar(0)
    for _ in range(1100):
        lam, rlam = Lam(lam), RLam(rlam)
    assert print_term(lam) == print_res(rlam)
    assert print_term(lam).count("\\") == 1100
