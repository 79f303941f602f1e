"""Property and regression tests for the lexer and parser on hostile input.

The lexer may fail only with LexError and the parser only with LexError or
ParseError, whatever the text. Nesting up to MAX_NESTING levels must pass
through every recursive stage; one level more is a positioned ParseError.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halgen.completion
from halgen.analysis import ElementKind, Project, build_symbol_table, detect_missing
from halgen.c_ast import LexError, ParseError, lex, parse, pretty_print
from halgen.c_ast.parser import MAX_NESTING
from halgen.cli import main
from halgen.completion import insert_patch
from halgen.generation import Rejection, VettedPatch, vet_patch
from halgen.retrieval import embed
from halgen.simulate import Scenario, exec_program

FRAGMENTS = [
    "int", "uint8_t", "uint32_t", "void", "volatile", "unsigned", "if", "else",
    "while", "for", "return", "x", "y", "_f1", "(", ")", "{", "}", ";", ",", "=",
    "+=", "<<=", "++", "--", "+", "-", "*", "&", "~", "!", "<<", ">>", "|", "^",
    "&&", "||", "==", "<", "?", "[", "->", "0", "42", "0x1F", "0x", "9z",
    "#define", "#include <a.h>", "#pragma", "/*", "*/", "//", "\n", " ", "\t",
    "@", "\"", "²", "٣", "é",
]

c_like_text = st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(" ".join)
hostile_text = st.one_of(st.text(max_size=80), c_like_text)

DEEP_PARENS = "int x = " + "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1) + ";"


@settings(max_examples=300, deadline=None)
@given(hostile_text)
@example("1²")
@example("0x1٣")
@example("1" * 5000)
@example("(" * (MAX_NESTING + 1))
def test_lex_raises_only_lex_error(text):
    try:
        lex(text)
    except LexError:
        pass


@settings(max_examples=300, deadline=None)
@given(hostile_text)
@example("1²")
@example(DEEP_PARENS)
@example("void f(void) { " + "x = " * 1000 + "1; }")
@example("int x = " + "+".join(["1"] * 3000) + ";")
@example("void f(void) { " + "if (x) " * 1000 + "x; }")
@example("void f(void) { if (x)")
def test_parse_raises_only_lex_or_parse_error(text):
    try:
        parse(text)
    except (LexError, ParseError):
        pass


_SKIPPED = re.compile(r"(?:[ \t\r\f\v\n]+|//[^\n]*|/\*.*?\*/)*", re.DOTALL)

lexable_text = st.lists(
    st.sampled_from([f for f in FRAGMENTS if f not in ("/*", "@", "\"", "0x", "9z",
                                                         "#pragma", "²", "٣", "é")]
                    + ["/* c */", "/* a\nb */", "// c\n", "\r\n"]),
    max_size=40,
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(lexable_text)
def test_tokens_and_skipped_text_cover_generated_source(source):
    try:
        tokens = lex(source)
    except LexError:
        return  # e.g. a directive after code on its line
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    pos = 0
    for tok in tokens:
        start = line_starts[tok.span.start_line - 1] + tok.span.start_col - 1
        assert _SKIPPED.fullmatch(source, pos, start), repr(source[pos:start])
        assert source[start:start + len(tok.text)] == tok.text
        pos = start + len(tok.text)
    assert _SKIPPED.fullmatch(source, pos)


@pytest.mark.parametrize("source", [
    "void f(void) { if (x)",
    "void f(void) { if (x) x; else",
    "void f(void) { while (x)",
    "void f(void) { for (;;)",
    "void f(void) { for (",
])
def test_truncated_statement_is_a_parse_error_at_the_end(source):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert "end of input" in err.value.message
    assert err.value.span.end_col == len(source)


# --- the nesting limit ------------------------------------------------------------

def _expression(shape, depth):
    """An expression whose parse opens exactly `depth` nesting levels."""
    return {
        "parens": "(" * depth + "1" + ")" * depth,
        "unary": "~" * depth + "1",
        "cast": "(uint32_t)" * depth + "1",
        "call": "f(" * depth + "1" + ")" * depth,
        "chain": " + ".join(["1"] * (depth + 1)),
        "assign": "x = " * depth + "1",
    }[shape]


def _deep_function(shape, depth):
    """`uint32_t deep(void)` whose body reaches `depth` nesting levels."""
    if shape == "if":
        body = "if (1) " * (depth - 1) + "return 1;"
    elif shape == "block":
        body = "{ " * (depth - 1) + "return 1;" + " }" * (depth - 1)
    elif shape == "else-if":
        body = "if (x) x; " + "else if (x) x; " * (depth - 2) + "else return 1;"
    else:  # the return statement is the first level
        body = f"return {_expression(shape, depth - 1)};"
    return f"uint32_t deep(void) {{ {body} return 0; }}\n"


SHAPES = ["parens", "unary", "cast", "call", "chain", "assign", "if", "block", "else-if"]

MAIN = "uint32_t x;\nuint32_t f(uint32_t a) { return a; }\nvoid main(void) { x = deep(); }\n"


@pytest.mark.parametrize("shape", SHAPES)
def test_every_stage_handles_the_nesting_limit(shape, board):
    deep_text = _deep_function(shape, MAX_NESTING)
    unit = parse(deep_text, "hal.c")
    assert parse(pretty_print(unit), "hal.c") == unit
    app = parse(MAIN, "main.c")
    table = build_symbol_table(Project((app,), "main.c"))
    (elem,) = detect_missing(table)
    assert isinstance(vet_patch(deep_text, elem, table), VettedPatch)
    assert embed(deep_text)
    project = Project((unit, app), "hal.c")
    assert not detect_missing(build_symbol_table(project))
    state, _ = exec_program(project, board, Scenario())
    assert state.steps_used > MAX_NESTING


@pytest.mark.parametrize("shape", SHAPES)
def test_one_level_past_the_limit_is_a_positioned_parse_error(shape, tmp_path, capsys):
    deep_text = _deep_function(shape, MAX_NESTING + 1)
    with pytest.raises(ParseError) as err:
        parse(deep_text, "hal.c")
    assert "nesting deeper than" in err.value.message
    assert err.value.span.file_id == "hal.c"
    assert err.value.span.start_line == 1 and err.value.span.start_col > 1
    app = parse(MAIN, "main.c")
    table = build_symbol_table(Project((app,), "main.c"))
    (elem,) = detect_missing(table)
    assert vet_patch(deep_text, elem, table) == Rejection(["ParseFailed"])
    (tmp_path / "hal.c").write_text(deep_text, encoding="utf-8")
    (tmp_path / "main.c").write_text(MAIN, encoding="utf-8")
    assert main(["analyze", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_macro_past_the_limit_makes_analyze_exit_1(tmp_path, capsys):
    (tmp_path / "hal.c").write_text(
        "#define X " + "(" * 100 + "1" + ")" * 100 + "\n", encoding="utf-8")
    assert main(["analyze", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hal.c:1:")
    assert "nesting deeper than" in err and "Traceback" not in err


def test_non_ascii_digit_makes_analyze_exit_1(tmp_path, capsys):
    (tmp_path / "hal.c").write_text("uint32_t x = 1²;\n", encoding="utf-8")
    assert main(["analyze", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: hal.c:1:15: unexpected character '²'\n"


# --- print/parse round trip on generated programs ----------------------------------
# insert_patch places each item of the merged HAL unit where the printer
# would and parses it from its printed text, so printing must lose nothing
# the parser keeps.

NAMES = ["a", "b", "reg", "_t1", "GPIOA_BASE"]
LITERALS = ["0", "7", "255", "0x1F", "0XffffFFFF", "4294967295"]
TYPES = ["int", "uint8_t", "uint16_t", "uint32_t", "unsigned", "unsigned int",
         "volatile uint32_t", "uint32_t *", "volatile uint32_t *", "uint8_t **"]
BINARY_OPS = ["||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
              "<<", ">>", "+", "-", "*", "/", "%"]
ASSIGN_OPS = ["=", "&=", "|=", "^=", "<<=", ">>=", "+=", "-="]


def _expressions(unary_ops, binary_ops, full=True):
    def extend(inner):
        forms = [
            st.tuples(inner, st.sampled_from(binary_ops), inner).map(" ".join),
            # spaced operators, so the printer has to keep "- -x" apart itself
            st.tuples(st.sampled_from(unary_ops), inner).map(" ".join),
            inner.map("({})".format),
        ]
        if full:
            forms.append(st.tuples(st.sampled_from(TYPES), inner).map("({0[0]}) {0[1]}".format))
            forms.append(st.tuples(st.sampled_from(["f", "g"]), st.lists(inner, max_size=3))
                         .map(lambda t: f"{t[0]}({', '.join(t[1])})"))
        return st.one_of(forms)

    return st.recursive(st.sampled_from(NAMES + LITERALS), extend, max_leaves=6)


EXPRESSIONS = _expressions(["-", "~", "!", "*", "&"], BINARY_OPS)
MACRO_EXPRESSIONS = _expressions(["-", "~"], ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"],
                                 full=False)
optional_expr = st.none() | EXPRESSIONS


def _declaration(t):
    ctype, name, init = t
    return f"{ctype} {name} = {init}" if init is not None else f"{ctype} {name}"


DECLARATIONS = st.tuples(st.sampled_from(TYPES), st.sampled_from(NAMES), optional_expr) \
    .map(_declaration)
LVALUES = st.sampled_from(NAMES) | EXPRESSIONS.map("*({})".format)
ASSIGNMENTS = st.tuples(LVALUES, st.sampled_from(ASSIGN_OPS), EXPRESSIONS).map(" ".join)
INCREMENTS = st.tuples(st.sampled_from(NAMES), st.sampled_from(["++", "--"]), st.booleans()) \
    .map(lambda t: t[0] + t[1] if t[2] else t[1] + t[0])

SIMPLE_STATEMENTS = st.one_of(
    EXPRESSIONS.map("{};".format),
    ASSIGNMENTS.map("{};".format),
    INCREMENTS.map("{};".format),
    DECLARATIONS.map("{};".format),
    optional_expr.map(lambda e: "return;" if e is None else f"return {e};"),
)


TYPE_WORDS = {ctype.split()[0] for ctype in TYPES}


def _braced_if_declaration(statement):
    """A declaration cannot be the body of if, else, while or for."""
    return "{ " + statement + " }" if statement.split()[0] in TYPE_WORDS else statement


def _compound_statements(inner):
    for_init = st.sampled_from([""]) | ASSIGNMENTS | DECLARATIONS
    for_step = st.sampled_from([""]) | ASSIGNMENTS | INCREMENTS
    body = inner.map(_braced_if_declaration)
    return st.one_of(
        st.lists(inner, max_size=3).map(lambda stmts: "{ " + " ".join(stmts) + " }"),
        st.tuples(EXPRESSIONS, body).map("if ({0[0]}) {0[1]}".format),
        st.tuples(EXPRESSIONS, body, body).map("if ({0[0]}) {0[1]} else {0[2]}".format),
        st.tuples(EXPRESSIONS, body).map("while ({0[0]}) {0[1]}".format),
        st.tuples(for_init, optional_expr, for_step, body)
        .map(lambda t: f"for ({t[0]}; {t[1] or ''}; {t[2]}) {t[3]}"),
    )


STATEMENTS = st.recursive(SIMPLE_STATEMENTS, _compound_statements, max_leaves=8)


def _function(t):
    return_type, name, params, body = t
    param_text = ", ".join(f"{ctype} {p}" for ctype, p in params) if params else "void"
    return f"{return_type} {name}({param_text}) {{ {' '.join(body)} }}"


TOP_LEVEL_ITEMS = st.one_of(
    st.sampled_from(["#include <stdint.h>", '#include "hal.h"']),
    st.tuples(st.sampled_from(["RCC_BASE", "MASK"]), MACRO_EXPRESSIONS)
    .map("#define {0[0]} {0[1]}".format),
    DECLARATIONS.map("{};".format),
    st.tuples(st.sampled_from(["void"] + TYPES), st.sampled_from(["f", "main"]),
              st.lists(st.tuples(st.sampled_from(TYPES), st.sampled_from(["p", "q", "r"])),
                       max_size=3, unique_by=lambda param: param[1]),
              st.lists(STATEMENTS, max_size=4)).map(_function),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(TOP_LEVEL_ITEMS, max_size=6).map("\n".join))
@example("uint32_t x = a - - b & & c / * p + (uint8_t) - - 1;")
@example("void f(void) { if (a) if (b) a++; else --b; }")
def test_print_then_parse_round_trips_generated_programs(source):
    unit = parse(source, "gen.c")
    printed = pretty_print(unit)
    assert parse(printed, "gen.c") == unit  # spans are not compared
    assert pretty_print(parse(printed, "gen.c")) == printed


@settings(max_examples=100, deadline=None)
@given(st.lists(TOP_LEVEL_ITEMS, max_size=6).map("\n".join),
       st.lists(TOP_LEVEL_ITEMS.filter(lambda text: not text.startswith("#include")),
                min_size=1, max_size=3).map("\n".join))
@example("#include <stdint.h>\nvoid f(void) { }", "#define A 0x1F\nvoid g(void) { x--; }")
def test_insert_patch_equals_print_then_parse(source, patch_source):
    project = Project((parse(source, "hal.c"),), "hal.c")
    patch_items = parse(patch_source, "<patch>").items
    patch = VettedPatch("p", ElementKind.CONSTANT, list(patch_items), patch_source)
    halgen.completion._parse_item.cache_clear()
    for _ in ("cold", "warm"):
        merged = insert_patch(project, patch).hal_unit()
        # repr includes spans and literal spellings, which == ignores
        assert repr(merged) == repr(parse(pretty_print(merged), "hal.c"))
        assert len(merged.items) == len(project.hal_unit().items) + len(patch_items)


# --- declarations as bodies ---------------------------------------------------------
# C11 6.8: a declaration is not a statement, so it cannot be the body of if,
# else, while or for. The tree-walking interpreter scoped such a body by
# whether it ran: the first program set the global x to 8, the second n to 9.

BARE_IF = "uint32_t x = 7;\nint main(void) { if (0) int x = 5; x = x + 1; return 0; }\n"
BARE_WHILE = ("uint32_t x = 0;\nuint32_t n = 0;\n"
              "int main(void) { while (x < 3) uint8_t x = 9; n = x; return 0; }\n")


@pytest.mark.parametrize("source, keyword, declaration", [
    (BARE_IF, "if", "int x = 5"),
    (BARE_WHILE, "while", "uint8_t x = 9"),
])
def test_declaration_as_a_bare_body_is_a_parse_error(source, keyword, declaration):
    with pytest.raises(ParseError) as err:
        parse(source, "main.c")
    assert err.value.message == f"a declaration cannot be the body of '{keyword}'; put it in braces"
    line = source[:source.index(declaration)].count("\n") + 1
    col = source.index(declaration) - source.rfind("\n", 0, source.index(declaration))
    assert (err.value.span.start_line, err.value.span.start_col) == (line, col)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["if", "else", "while", "for"]), EXPRESSIONS,
       st.sampled_from([""]) | DECLARATIONS, DECLARATIONS)
def test_bare_declaration_body_is_a_parse_error_at_the_declaration(keyword, cond, for_init,
                                                                     declaration):
    head = {"if": f"if ({cond}) ", "else": f"if ({cond}) x; else ", "while": f"while ({cond}) ",
            "for": f"for ({for_init}; {cond}; ) "}[keyword]
    prefix = "void f(void) { " + head
    with pytest.raises(ParseError) as err:
        parse(prefix + declaration + "; }", "gen.c")
    assert f"the body of '{keyword}'" in err.value.message
    assert (err.value.span.start_line, err.value.span.start_col) == (1, len(prefix) + 1)
    parse(prefix + "{ " + declaration + "; } }", "gen.c")  # a declaration in braces is fine
