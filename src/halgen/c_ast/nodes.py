"""AST node types for the embedded C subset.

Equality on nodes is structural: spans (and the preserved literal
spellings) are excluded from comparison, so two parses of equivalent text
compare equal regardless of layout. No code changes a node after parsing,
so facts derived from an item can be memoised per item (`per_item`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import wraps

from halgen.c_ast.lexer import SourceSpan


class BaseType(Enum):
    VOID = "void"
    U8 = "uint8_t"
    U16 = "uint16_t"
    U32 = "uint32_t"
    I32 = "int"


@dataclass
class CType:
    base: BaseType
    pointer_depth: int = 0
    volatile_qualified: bool = False


class Expr:
    """Marker base for expression nodes."""

    span: SourceSpan


class Stmt:
    """Marker base for statement nodes."""

    span: SourceSpan


class TopLevelItem:
    """Marker base for translation-unit items."""

    span: SourceSpan


@dataclass
class Ident(Expr):
    name: str
    span: SourceSpan = field(compare=False)


@dataclass
class IntLit(Expr):
    value: int
    lexeme: str = field(compare=False)  # original spelling, kept for printing
    span: SourceSpan = field(compare=False)


@dataclass
class Unary(Expr):
    op: str  # deref, addr_of, bitnot, lognot, neg
    operand: Expr
    span: SourceSpan = field(compare=False)


@dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    span: SourceSpan = field(compare=False)


@dataclass
class Assign(Expr):
    op: str  # =, &=, |=, ^=, <<=, >>=, +=, -=
    target: Expr
    value: Expr
    span: SourceSpan = field(compare=False)


@dataclass
class Call(Expr):
    callee: str
    args: list[Expr]
    span: SourceSpan = field(compare=False)


@dataclass
class Cast(Expr):
    ctype: CType
    operand: Expr
    span: SourceSpan = field(compare=False)


@dataclass
class Paren(Expr):
    inner: Expr
    span: SourceSpan = field(compare=False)


@dataclass
class Compound(Stmt):
    stmts: list[Stmt]
    span: SourceSpan = field(compare=False)


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    span: SourceSpan = field(compare=False)


@dataclass
class If(Stmt):
    cond: Expr
    then_branch: Stmt
    else_branch: Stmt | None
    span: SourceSpan = field(compare=False)


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt
    span: SourceSpan = field(compare=False)


@dataclass
class For(Stmt):
    init: Stmt | None  # LocalDecl or ExprStmt
    cond: Expr | None
    step: Expr | None
    body: Stmt
    span: SourceSpan = field(compare=False)


@dataclass
class Return(Stmt):
    value: Expr | None
    span: SourceSpan = field(compare=False)


@dataclass
class LocalDecl(Stmt):
    name: str
    ctype: CType
    init: Expr | None
    span: SourceSpan = field(compare=False)


@dataclass
class Param:
    name: str
    ctype: CType
    span: SourceSpan = field(compare=False)


@dataclass
class FunctionDef(TopLevelItem):
    name: str
    return_type: CType
    params: list[Param]
    body: Compound
    span: SourceSpan = field(compare=False)


@dataclass
class GlobalDecl(TopLevelItem):
    name: str
    ctype: CType
    init: Expr | None
    span: SourceSpan = field(compare=False)


@dataclass
class MacroConst(TopLevelItem):
    name: str
    value_expr: Expr
    span: SourceSpan = field(compare=False)


@dataclass
class IncludeDirective(TopLevelItem):
    path: str
    system: bool  # <...> vs "..."
    span: SourceSpan = field(compare=False)


@dataclass
class TranslationUnit:
    items: list[TopLevelItem]
    file_id: str = field(compare=False)


def item_name(item: TopLevelItem) -> str | None:
    """Defined name of an item, or None for includes."""
    if isinstance(item, (FunctionDef, GlobalDecl, MacroConst)):
        return item.name
    return None


_ABSENT = object()


def per_item(fn):
    """Memoise `fn(item)` by the item's identity.

    Items are unhashable (their equality is structural), so the memo is
    keyed by `id(item)`, and each entry is dropped by a `weakref.finalize`
    when its item is collected, before the id can name another item. The
    entries are in the wrapper's `memo`. A memoised value must not refer to
    its item, or the item would never be collected.
    """
    memo: dict[int, object] = {}

    @wraps(fn)
    def memoised(item):
        key = id(item)
        value = memo.get(key, _ABSENT)
        if value is _ABSENT:
            value = memo[key] = fn(item)
            weakref.finalize(item, memo.pop, key, None)
        return value

    memoised.memo = memo
    return memoised
