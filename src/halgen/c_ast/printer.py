"""Canonical source renderer for the C subset.

The printer emits parentheses only where the tree carries Paren nodes, so
any tree produced by the parser re-parses to a structurally identical
tree. Integer literals keep their original spelling (hex stays hex).
`print_item` is memoised per item, so an unchanged item is printed once.
"""

from __future__ import annotations

from halgen.c_ast.nodes import (
    Assign,
    Binary,
    Call,
    Cast,
    Compound,
    CType,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    GlobalDecl,
    Ident,
    If,
    IncludeDirective,
    IntLit,
    LocalDecl,
    MacroConst,
    Paren,
    Return,
    Stmt,
    TopLevelItem,
    TranslationUnit,
    Unary,
    While,
    per_item,
)

_UNARY_TEXT = {"deref": "*", "addr_of": "&", "bitnot": "~", "lognot": "!", "neg": "-"}

# pairs that would fuse into a different token if printed without a space
_FUSING = {"--", "++", "&&"}

_INDENT = "    "


def print_type(ctype: CType, name: str | None = None) -> str:
    base = ctype.base.value
    if ctype.volatile_qualified:
        base = "volatile " + base
    stars = "*" * ctype.pointer_depth
    if name is None:
        return f"{base} {stars}" if stars else base
    if stars:
        return f"{base} {stars}{name}"
    return f"{base} {name}"


def print_expr(expr: Expr) -> str:
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, IntLit):
        return expr.lexeme if expr.lexeme else str(expr.value)
    if isinstance(expr, Unary):
        op = _UNARY_TEXT[expr.op]
        inner = print_expr(expr.operand)
        if inner and op + inner[0] in _FUSING:
            return f"{op} {inner}"
        return op + inner
    if isinstance(expr, Binary):
        return f"{print_expr(expr.lhs)} {expr.op} {print_expr(expr.rhs)}"
    if isinstance(expr, Assign):
        return f"{print_expr(expr.target)} {expr.op} {print_expr(expr.value)}"
    if isinstance(expr, Call):
        return f"{expr.callee}({', '.join(print_expr(a) for a in expr.args)})"
    if isinstance(expr, Cast):
        return f"({print_type(expr.ctype)}){print_expr(expr.operand)}"
    if isinstance(expr, Paren):
        return f"({print_expr(expr.inner)})"
    raise TypeError(f"cannot print expression node {type(expr).__name__}")


def _decl_text(name: str, ctype: CType, init: Expr | None) -> str:
    text = print_type(ctype, name)
    if init is not None:
        text += f" = {print_expr(init)}"
    return text + ";"


def _stmt_lines(stmt: Stmt, indent: int) -> list[str]:
    pad = _INDENT * indent
    if isinstance(stmt, Compound):
        lines = [pad + "{"]
        for inner in stmt.stmts:
            lines.extend(_stmt_lines(inner, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(stmt, ExprStmt):
        return [pad + print_expr(stmt.expr) + ";"]
    if isinstance(stmt, LocalDecl):
        return [pad + _decl_text(stmt.name, stmt.ctype, stmt.init)]
    if isinstance(stmt, Return):
        return [pad + ("return;" if stmt.value is None else f"return {print_expr(stmt.value)};")]
    if isinstance(stmt, If):
        return _if_lines(stmt, indent)
    if isinstance(stmt, While):
        header = f"{pad}while ({print_expr(stmt.cond)})"
        return _attach_body(header, stmt.body, indent)
    if isinstance(stmt, For):
        init = ""
        if isinstance(stmt.init, LocalDecl):
            init = _decl_text(stmt.init.name, stmt.init.ctype, stmt.init.init)[:-1]
        elif isinstance(stmt.init, ExprStmt):
            init = print_expr(stmt.init.expr)
        cond = f" {print_expr(stmt.cond)}" if stmt.cond is not None else ""
        step = f" {print_expr(stmt.step)}" if stmt.step is not None else ""
        header = f"{pad}for ({init};{cond};{step})"
        return _attach_body(header, stmt.body, indent)
    raise TypeError(f"cannot print statement node {type(stmt).__name__}")


def _attach_body(header: str, body: Stmt, indent: int) -> list[str]:
    if isinstance(body, Compound):
        lines = [header + " {"]
        for inner in body.stmts:
            lines.extend(_stmt_lines(inner, indent + 1))
        lines.append(_INDENT * indent + "}")
        return lines
    return [header] + _stmt_lines(body, indent + 1)


def _if_lines(stmt: If, indent: int) -> list[str]:
    pad = _INDENT * indent
    lines: list[str] = []
    braced = isinstance(stmt.then_branch, Compound)
    if braced:
        lines.append(f"{pad}if ({print_expr(stmt.cond)}) {{")
        lines.extend(line for inner in stmt.then_branch.stmts for line in _stmt_lines(inner, indent + 1))  # type: ignore[union-attr]
        closing = pad + "}"
    else:
        lines.append(f"{pad}if ({print_expr(stmt.cond)})")
        lines.extend(_stmt_lines(stmt.then_branch, indent + 1))
        closing = ""
    if stmt.else_branch is None:
        if braced:
            lines.append(closing)
        return lines
    if braced and isinstance(stmt.else_branch, Compound):
        lines.append(closing + " else {")
        lines.extend(line for inner in stmt.else_branch.stmts for line in _stmt_lines(inner, indent + 1))
        lines.append(pad + "}")
        return lines
    if braced:
        lines.append(closing + " else")
        lines.extend(_stmt_lines(stmt.else_branch, indent + 1))
        return lines
    lines.append(pad + "else")
    lines.extend(_stmt_lines(stmt.else_branch, indent + 1))
    return lines


@per_item
def print_item(item: TopLevelItem) -> str:
    if isinstance(item, IncludeDirective):
        return f"#include <{item.path}>" if item.system else f'#include "{item.path}"'
    if isinstance(item, MacroConst):
        return f"#define {item.name} {print_expr(item.value_expr)}"
    if isinstance(item, GlobalDecl):
        return _decl_text(item.name, item.ctype, item.init)
    if isinstance(item, FunctionDef):
        params = ", ".join(print_type(p.ctype, p.name) for p in item.params) or "void"
        header = f"{print_type(item.return_type)} {item.name}({params})"
        lines = [header + " {"]
        for stmt in item.body.stmts:
            lines.extend(_stmt_lines(stmt, 1))
        lines.append("}")
        return "\n".join(lines)
    raise TypeError(f"cannot print item node {type(item).__name__}")


def _is_line_item(item: TopLevelItem) -> bool:
    return isinstance(item, (IncludeDirective, MacroConst, GlobalDecl))


def layout_items(items: list[TopLevelItem]) -> list[tuple[str, int]]:
    """Each item's printed text and the 1-based line it starts on.

    Every item starts at column 1. Two one-line items in a row (includes,
    macros, globals) sit on adjacent lines; any other pair is separated by
    one blank line. This is the only statement of the layout `pretty_print`
    writes.
    """
    placed: list[tuple[str, int]] = []
    line = 1
    prev: TopLevelItem | None = None
    for item in items:
        text = print_item(item)
        if prev is not None:
            line += 1 if _is_line_item(prev) and _is_line_item(item) else 2
        placed.append((text, line))
        line += text.count("\n")
        prev = item
    return placed


def pretty_print(unit: TranslationUnit) -> str:
    """Render a unit as compilable source; re-parsing yields an equal tree."""
    chunks: list[str] = []
    end = 1  # line the previous item ends on
    for text, line in layout_items(unit.items):
        chunks.append("\n" * (line - end))
        chunks.append(text)
        end = line + text.count("\n")
    return "".join(chunks) + "\n" if chunks else ""
