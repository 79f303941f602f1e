import pytest
from conftest import span_text

from halgen.c_ast import (
    Assign,
    BaseType,
    Binary,
    Call,
    Cast,
    CType,
    ExprStmt,
    FunctionDef,
    GlobalDecl,
    Ident,
    If,
    IncludeDirective,
    IntLit,
    LocalDecl,
    MacroConst,
    Paren,
    ParseError,
    Return,
    While,
    lex,
    parse,
)


def test_empty_unit():
    unit = parse("")
    assert unit.items == []


def test_pin_mode_function_structure(canonical_set_io_mode):
    unit = parse(canonical_set_io_mode, "snippet.c")
    assert len(unit.items) == 1
    fn = unit.items[0]
    assert isinstance(fn, FunctionDef)
    assert fn.name == "set_io_mode"
    assert fn.return_type == CType(BaseType.VOID)
    assert [(p.name, p.ctype.base) for p in fn.params] == [
        ("gpio_base", BaseType.U32),
        ("pin_mask", BaseType.U32),
        ("mode", BaseType.U8),
    ]
    body = fn.body.stmts
    assert [type(s) for s in body] == [LocalDecl, LocalDecl, While, ExprStmt, ExprStmt]
    pointer_decl = body[0]
    assert pointer_decl.ctype == CType(BaseType.U32, pointer_depth=1, volatile_qualified=True)
    assert isinstance(pointer_decl.init, Cast)
    # the while condition: (pin_mask >> pin_number) != 1
    cond = body[2].cond
    assert isinstance(cond, Binary) and cond.op == "!="
    assert isinstance(cond.lhs, Paren)
    assert cond.lhs.inner == Binary(">>", Ident("pin_mask", None), Ident("pin_number", None), None)


def test_postfix_increment_desugars(canonical_set_io_mode):
    unit = parse(canonical_set_io_mode)
    loop = unit.items[0].body.stmts[2]
    step = loop.body.stmts[0]
    assert isinstance(step, ExprStmt)
    assert step.expr == Assign("+=", Ident("pin_number", None), IntLit(1, "1", None), None)


def test_prefix_increment_and_decrement():
    unit = parse("void f(void) { uint32_t i = 0; ++i; i--; }")
    stmts = unit.items[0].body.stmts
    assert stmts[1].expr.op == "+="
    assert stmts[2].expr.op == "-="


@pytest.mark.parametrize("source", [
    "void f(uint32_t x) { uint32_t y = x++; }",
    "void f(uint32_t x) { g(x++); }",
    "void f(uint32_t x) { if (x++) { } }",
])
def test_value_consumed_increment_rejected(source):
    with pytest.raises(ParseError):
        parse(source)


def test_macro_constant():
    unit = parse("#define RCC_BASE 0x40023800")
    assert unit.items == [MacroConst("RCC_BASE", IntLit(0x40023800, "", None), None)]


def test_macro_expression_body():
    unit = parse("#define AHB1ENR_ADDR (RCC_BASE + 0x30)")
    macro = unit.items[0]
    assert isinstance(macro.value_expr, Paren)
    assert macro.value_expr.inner.op == "+"


@pytest.mark.parametrize("source", [
    "#define BAD f(1)",
    "#define BAD x = 1",
    "#define BAD *p",
    "#define BAD a < b",
    "#define BAD",
])
def test_macro_body_must_be_constant_expression(source):
    with pytest.raises(ParseError):
        parse(source)


def test_function_like_macro_rejected():
    with pytest.raises(ParseError) as err:
        parse("#define SQUARE(x) x * x")
    assert "function-like" in str(err.value)


def test_object_macro_with_adjacent_paren_body_ok():
    unit = parse("#define MASK (1 << 5)")
    assert isinstance(unit.items[0].value_expr, Paren)


def test_include_forms():
    unit = parse('#include <stdint.h>\n#include "hal.h"')
    assert unit.items == [
        IncludeDirective("stdint.h", True, None),
        IncludeDirective("hal.h", False, None),
    ]


def test_global_declarations():
    unit = parse("uint32_t counter = 0;\nvolatile uint32_t *reg;")
    first, second = unit.items
    assert first == GlobalDecl("counter", CType(BaseType.U32), IntLit(0, "", None), None)
    assert second.ctype == CType(BaseType.U32, 1, True)
    assert second.init is None


def test_unsigned_int_normalizes_to_u32():
    unit = parse("unsigned int a = 1; unsigned b = 2; int c = 3;")
    assert unit.items[0].ctype.base is BaseType.U32
    assert unit.items[1].ctype.base is BaseType.U32
    assert unit.items[2].ctype.base is BaseType.I32


@pytest.mark.parametrize("source,fragment", [
    ("struct point { int x; };", "struct"),
    ("typedef int myint;", "typedef"),
    ("int values[4];", "array"),
    ("void f(void) { switch (1) { } }", "switch"),
    ("void f(void) { break; }", "break"),
    ("int f(void);", "prototype"),
    ("void f(void) { goto end; }", "goto"),
    ("int a, b;", "declarator"),
    ("char c;", "char"),
    ("void f(void) { int x = a ? 1 : 2; }", "?:"),
    ("void f(void) { x *= 2; }", "*="),
])
def test_out_of_subset_constructs_rejected(source, fragment):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert fragment.rstrip(":") in str(err.value) or fragment in str(err.value)


def test_void_variables_rejected():
    with pytest.raises(ParseError):
        parse("void x;")
    with pytest.raises(ParseError):
        parse("void f(void x) { }")


def test_void_pointer_allowed():
    unit = parse("void *p;")
    assert unit.items[0].ctype == CType(BaseType.VOID, 1)


def test_pointer_depth_limit():
    assert parse("uint32_t **pp;").items[0].ctype.pointer_depth == 2
    with pytest.raises(ParseError):
        parse("uint32_t ***ppp;")


def test_duplicate_parameter_names_rejected():
    with pytest.raises(ParseError):
        parse("void f(uint32_t a, uint32_t a) { }")


def test_precedence_shift_binds_tighter_than_compare():
    expr = parse("uint32_t x = a >> b != c;").items[0].init
    assert expr.op == "!="
    assert expr.lhs.op == ">>"


def test_precedence_bitand_below_equality():
    # classic C gotcha: a & b == c parses as a & (b == c)
    expr = parse("uint32_t x = a & b == c;").items[0].init
    assert expr.op == "&"
    assert expr.rhs.op == "=="


def test_left_associativity():
    expr = parse("uint32_t x = a - b + c;").items[0].init
    assert expr.op == "+"
    assert expr.lhs.op == "-"


def test_cast_parses():
    decl = parse("void f(uint32_t base) { volatile uint32_t *p = (uint32_t *)(base + 0x00); }")
    init = decl.items[0].body.stmts[0].init
    assert isinstance(init, Cast)
    assert init.ctype == CType(BaseType.U32, 1)
    assert isinstance(init.operand, Paren)


def test_cast_to_plain_void_rejected():
    with pytest.raises(ParseError):
        parse("void f(void) { (void)g(); }")


def test_dangling_else_binds_to_nearest_if():
    unit = parse("void f(uint32_t a, uint32_t b) { if (a) if (b) g(); else h(); }")
    outer = unit.items[0].body.stmts[0]
    assert isinstance(outer, If)
    assert outer.else_branch is None
    inner = outer.then_branch
    assert isinstance(inner, If)
    assert inner.else_branch is not None


def test_for_loop_forms():
    unit = parse("void f(void) { for (uint32_t i = 0; i < 4; i++) { g(i); } for (;;) { } }")
    first, second = unit.items[0].body.stmts
    assert isinstance(first.init, LocalDecl)
    assert first.step == Assign("+=", Ident("i", None), IntLit(1, "1", None), None)
    assert second.init is None and second.cond is None and second.step is None


def test_assignment_requires_lvalue():
    with pytest.raises(ParseError):
        parse("void f(void) { 1 = 2; }")
    with pytest.raises(ParseError):
        parse("void f(uint32_t a) { g(a) = 2; }")


def test_assignment_through_deref_and_paren():
    unit = parse("void f(uint32_t *p) { (*p) = 1; *p &= 2; }")
    stmts = unit.items[0].body.stmts
    assert isinstance(stmts[0].expr, Assign)
    assert stmts[1].expr.op == "&="


def test_return_with_and_without_value():
    unit = parse("uint32_t f(void) { return 1; }\nvoid g(void) { return; }")
    assert unit.items[0].body.stmts[0] == Return(IntLit(1, "", None), None)
    assert unit.items[1].body.stmts[0] == Return(None, None)


def test_empty_statement_rejected():
    with pytest.raises(ParseError):
        parse("void f(void) { ; }")


def test_call_with_nested_calls():
    expr = parse("void f(void) { g(h(1), 2); }").items[0].body.stmts[0].expr
    assert isinstance(expr, Call)
    assert isinstance(expr.args[0], Call)


@pytest.mark.parametrize("truncated", [
    "void f(", "void f(uint32_t", "void f(uint32_t a,", "void f(void) {",
    "uint32_t x =", "#define X",
])
def test_truncated_input_is_a_parse_error(truncated):
    with pytest.raises(ParseError):
        parse(truncated)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("void f(void) {\n    uint32_t x = ;\n}", "bad.c")
    assert err.value.span.file_id == "bad.c"
    assert err.value.span.start_line == 2


def test_fixture_files_parse(demo_sources):
    for name, source in demo_sources.items():
        unit = parse(source, name)
        assert unit.items


def test_span_soundness(demo_sources):
    # the text sliced by any item/statement span must re-lex to exactly the
    # tokens the full lex produced inside that span
    for name, source in demo_sources.items():
        unit = parse(source, name)
        all_tokens = lex(source, name)

        def tokens_within(span):
            return [t.text for t in all_tokens
                    if (t.span.start_line, t.span.start_col) >= (span.start_line, span.start_col)
                    and (t.span.end_line, t.span.end_col) <= (span.end_line, span.end_col)]

        spans = [item.span for item in unit.items]
        for item in unit.items:
            if isinstance(item, FunctionDef):
                spans.extend(s.span for s in item.body.stmts)
        for span in spans:
            sliced = span_text(source, span)
            assert [t.text for t in lex(sliced, name)] == tokens_within(span)
