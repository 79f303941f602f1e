"""Lexing, parsing, printing, and token normalization for the C subset."""

from halgen.c_ast.lexer import (
    LexError,
    SourceSpan,
    Token,
    TokenKind,
    KEYWORDS,
    lex,
    normalize_tokens,
    read_source,
)
from halgen.c_ast.nodes import (
    Assign,
    BaseType,
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
    Param,
    Paren,
    Return,
    Stmt,
    TopLevelItem,
    TranslationUnit,
    Unary,
    While,
    item_name,
    per_item,
)
from halgen.c_ast.parser import ParseError, parse
from halgen.c_ast.printer import (
    layout_items,
    pretty_print,
    print_expr,
    print_item,
    print_type,
)

__all__ = [
    "Assign", "BaseType", "Binary", "Call", "Cast", "Compound", "CType",
    "Expr", "ExprStmt", "For", "FunctionDef", "GlobalDecl", "Ident", "If",
    "IncludeDirective", "IntLit", "KEYWORDS", "LexError", "LocalDecl",
    "MacroConst", "Param", "Paren", "ParseError", "Return", "SourceSpan",
    "Stmt", "Token", "TokenKind", "TopLevelItem", "TranslationUnit",
    "Unary", "While", "item_name", "layout_items", "lex", "normalize_tokens", "parse",
    "per_item", "read_source",
    "pretty_print", "print_expr", "print_item", "print_type",
]
