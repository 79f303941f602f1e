"""Recursive-descent parser for the embedded C subset.

Binary operators are parsed by precedence climbing over one
``{operator: precedence}`` table (Pratt 1973, "Top Down Operator
Precedence").

Accepted top-level constructs: function definitions, global variable
declarations, object-like ``#define`` constants with constant-expression
bodies, and ``#include`` directives (recorded verbatim, never expanded).
Anything else in the C grammar (structs, typedefs, arrays, switch,
function-like macros, prototypes, ...) is rejected with a positioned
ParseError.

Postfix/prefix ``++``/``--`` are accepted only where their value is
discarded (expression statements and for-loop steps) and are desugared to
``+= 1`` / ``-= 1`` so later stages see only the core expression forms.

Nesting is capped at MAX_NESTING levels so that neither the parser nor the
recursive walkers of later stages can exhaust the Python stack. Each
statement, parenthesis (grouping or call), unary or cast operand, and each
binary or assignment operator of a chain opens one level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from halgen.errors import HalgenError
from halgen.c_ast.lexer import SourceSpan, Token, TokenKind, lex
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
)


class ParseError(HalgenError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span.file_id}:{span.start_line}:{span.start_col}: {message}")
        self.message = message
        self.span = span


@dataclass(eq=False)
class _IncrDecr(Expr):
    """Parse-time only; converted to Assign or rejected before parse() returns."""

    op: str  # "++" or "--"
    target: Expr
    span: SourceSpan = field(compare=False)


_TYPE_STARTERS = {"void", "int", "unsigned", "uint8_t", "uint16_t", "uint32_t", "volatile"}

_BASE_BY_KEYWORD = {
    "void": BaseType.VOID,
    "uint8_t": BaseType.U8,
    "uint16_t": BaseType.U16,
    "uint32_t": BaseType.U32,
    "int": BaseType.I32,
}

_ASSIGN_OPS = {"=", "&=", "|=", "^=", "<<=", ">>=", "+=", "-="}
_REJECTED_ASSIGN_OPS = {"*=", "/=", "%="}

# binding strength of each binary operator; higher binds tighter
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "<<": 8, ">>": 8,
    "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}

_UNARY_OPS = {"*": "deref", "&": "addr_of", "~": "bitnot", "!": "lognot", "-": "neg"}

# C keywords outside the subset; they lex as identifiers, so name them in
# errors instead of letting them fail as stray expressions
_UNSUPPORTED_WORDS = {
    "struct", "union", "enum", "typedef", "switch", "case", "default",
    "goto", "break", "continue", "do", "sizeof", "static", "extern",
    "const", "char", "short", "long", "float", "double", "signed", "auto",
    "register", "inline",
}

_INCLUDE_RE = re.compile(r'^#include\s+(<[^<>]+>|"[^"]+")$')

_MACRO_BINARY_OPS = {"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"}
_MACRO_UNARY_OPS = {"bitnot", "neg"}

MAX_NESTING = 64


def parse(source: str, file_id: str = "<input>") -> TranslationUnit:
    """Parse `source` into a TranslationUnit. Raises LexError or ParseError."""
    parser = _Parser(lex(source, file_id), file_id)
    unit = parser.parse_unit()
    if parser.stray_incr:
        first = min(parser.stray_incr, key=lambda e: (e.span.start_line, e.span.start_col))
        raise ParseError("'++'/'--' are only allowed as standalone statements", first.span)
    return unit


class _Parser:
    def __init__(self, tokens: list[Token], file_id: str):
        self.tokens = tokens
        self.file_id = file_id
        self.pos = 0
        self.depth = 0  # open nesting levels, see MAX_NESTING
        self.stray_incr: set[_IncrDecr] = set()  # built but not yet desugared

    def _nest(self, opener: Token) -> None:
        """Open one nesting level; the caller closes it with `depth -= 1`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", opener.span)

    # token plumbing ------------------------------------------------------

    def _eof_span(self) -> SourceSpan:
        if self.tokens:
            last = self.tokens[-1].span
            return SourceSpan(self.file_id, last.end_line, last.end_col, last.end_line, last.end_col)
        return SourceSpan(self.file_id, 1, 1, 1, 1)

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_span())
        self.pos += 1
        return tok

    def check_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind is TokenKind.PUNCT and tok.text == text

    def check_keyword(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind is TokenKind.KEYWORD and tok.text == text

    def accept_punct(self, text: str) -> Token | None:
        if self.check_punct(text):
            return self.advance()
        return None

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected '{text}', found end of input", self._eof_span())
        if tok.kind is not TokenKind.PUNCT or tok.text != text:
            raise ParseError(f"expected '{text}', found '{tok.text}'", tok.span)
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {what}, found end of input", self._eof_span())
        if tok.kind is not TokenKind.IDENT:
            raise ParseError(f"expected {what}, found '{tok.text}'", tok.span)
        return self.advance()

    # top level ------------------------------------------------------------

    def parse_unit(self) -> TranslationUnit:
        items: list[TopLevelItem] = []
        while not self.at_end():
            items.append(self._parse_top_level())
        return TranslationUnit(items, self.file_id)

    def _parse_top_level(self) -> TopLevelItem:
        tok = self.peek()
        assert tok is not None
        if tok.kind is TokenKind.DIRECTIVE:
            return self._parse_directive()
        if tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_STARTERS:
            return self._parse_decl_or_function()
        if tok.kind is TokenKind.IDENT and tok.text in _UNSUPPORTED_WORDS:
            raise ParseError(f"unsupported construct '{tok.text}'", tok.span)
        raise ParseError(
            f"expected a declaration, function definition, or directive, found '{tok.text}'",
            tok.span,
        )

    def _parse_directive(self) -> TopLevelItem:
        tok = self.advance()
        if tok.text.startswith("#include"):
            match = _INCLUDE_RE.match(tok.text)
            if not match:
                raise ParseError("malformed #include directive", tok.span)
            raw = match.group(1)
            return IncludeDirective(raw[1:-1], system=raw.startswith("<"), span=tok.span)
        # "#define": the name and body lex as normal tokens on the same line
        name_tok = self.peek()
        if name_tok is None or name_tok.kind is not TokenKind.IDENT \
                or name_tok.span.start_line != tok.span.start_line:
            raise ParseError("expected macro name after #define", tok.span)
        self.advance()
        follower = self.peek()
        if (
            follower is not None
            and follower.kind is TokenKind.PUNCT
            and follower.text == "("
            and follower.span.start_line == name_tok.span.start_line
            and follower.span.start_col == name_tok.span.end_col + 1
        ):
            raise ParseError("function-like macros are not supported", follower.span)
        body_start = self.pos
        while not self.at_end() and self.tokens[self.pos].span.start_line == tok.span.start_line:
            self.pos += 1
        body = self.tokens[body_start:self.pos]
        if not body:
            raise ParseError(f"macro '{name_tok.text}' has no value expression", name_tok.span)
        sub = _Parser(body, self.file_id)
        expr = sub.parse_expression()
        if not sub.at_end():
            extra = sub.peek()
            assert extra is not None
            raise ParseError("unexpected token in macro value", extra.span)
        _validate_macro_expr(expr)
        return MacroConst(name_tok.text, expr, span=tok.span.merge(body[-1].span))

    def _parse_decl_or_function(self) -> TopLevelItem:
        start = self.peek()
        assert start is not None
        ctype = self._parse_type()
        name_tok = self.expect_ident("a name")
        if self.check_punct("("):
            return self._parse_function(start, ctype, name_tok)
        init, span = self._parse_var_rest(start, ctype, name_tok)
        return GlobalDecl(name_tok.text, ctype, init, span=span)

    def _parse_var_rest(self, start: Token, ctype: CType,
                        name_tok: Token) -> tuple[Expr | None, SourceSpan]:
        """The part of a variable declaration after its name, through the ';'."""
        if ctype.base is BaseType.VOID and ctype.pointer_depth == 0:
            raise ParseError("variables cannot have type void", name_tok.span)
        init = None
        if self.accept_punct("="):
            init = self.parse_expression()
        if self.check_punct(","):
            raise ParseError("one declarator per declaration", self.peek().span)  # type: ignore[union-attr]
        if self.check_punct("["):
            raise ParseError("arrays are not supported", self.peek().span)  # type: ignore[union-attr]
        end = self.expect_punct(";")
        return init, start.span.merge(end.span)

    def _parse_function(self, start: Token, return_type: CType, name_tok: Token) -> FunctionDef:
        params = self._parse_params()
        if self.check_punct(";"):
            raise ParseError("function prototypes are not supported", self.peek().span)  # type: ignore[union-attr]
        body = self._parse_compound()
        return FunctionDef(name_tok.text, return_type, params, body, span=start.span.merge(body.span))

    def _parse_params(self) -> list[Param]:
        self.expect_punct("(")
        params: list[Param] = []
        if self.accept_punct(")"):
            return params
        if self.check_keyword("void") and self.peek(1) is not None \
                and self.peek(1).kind is TokenKind.PUNCT and self.peek(1).text == ")":  # type: ignore[union-attr]
            self.advance()
            self.advance()
            return params
        seen: set[str] = set()
        while True:
            p_start = self.peek()
            if p_start is None:
                raise ParseError("expected a parameter type, found end of input", self._eof_span())
            ctype = self._parse_type()
            if ctype.base is BaseType.VOID and ctype.pointer_depth == 0:
                raise ParseError("parameters cannot have type void", p_start.span)
            name_tok = self.expect_ident("a parameter name")
            if name_tok.text in seen:
                raise ParseError(f"duplicate parameter name '{name_tok.text}'", name_tok.span)
            seen.add(name_tok.text)
            params.append(Param(name_tok.text, ctype, span=p_start.span.merge(name_tok.span)))
            if self.accept_punct(","):
                continue
            self.expect_punct(")")
            return params

    def _parse_type(self) -> CType:
        volatile = False
        if self.check_keyword("volatile"):
            self.advance()
            volatile = True
        base_tok = self.peek()
        if base_tok is None or base_tok.kind is not TokenKind.KEYWORD \
                or base_tok.text not in _BASE_BY_KEYWORD and base_tok.text != "unsigned":
            span = base_tok.span if base_tok is not None else self._eof_span()
            found = base_tok.text if base_tok is not None else "end of input"
            raise ParseError(f"expected a type name, found '{found}'", span)
        self.advance()
        if base_tok.text == "unsigned":
            # "unsigned" and "unsigned int" both mean u32
            if self.check_keyword("int"):
                self.advance()
            base = BaseType.U32
        else:
            base = _BASE_BY_KEYWORD[base_tok.text]
        depth = 0
        while self.check_punct("*"):
            star = self.advance()
            depth += 1
            if depth > 2:
                raise ParseError("pointer depth greater than 2 is not supported", star.span)
        return CType(base, depth, volatile)

    # statements -----------------------------------------------------------

    def _parse_compound(self) -> Compound:
        open_tok = self.expect_punct("{")
        stmts: list[Stmt] = []
        while not self.check_punct("}"):
            if self.at_end():
                raise ParseError("unterminated block, expected '}'", self._eof_span())
            stmts.append(self._parse_stmt())
        close = self.expect_punct("}")
        return Compound(stmts, span=open_tok.span.merge(close.span))

    def _parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok is None:  # a truncated if/while/for body
            raise ParseError("expected a statement, found end of input", self._eof_span())
        self._nest(tok)
        if tok.kind is TokenKind.PUNCT and tok.text == "{":
            stmt: Stmt = self._parse_compound()
        elif tok.kind is TokenKind.KEYWORD and tok.text in _STATEMENT_PARSERS:
            stmt = _STATEMENT_PARSERS[tok.text](self)
        elif tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_STARTERS:
            stmt = self._parse_local_decl()
        elif tok.kind is TokenKind.KEYWORD:
            raise ParseError(f"unexpected '{tok.text}'", tok.span)
        elif tok.kind is TokenKind.IDENT and tok.text in _UNSUPPORTED_WORDS:
            raise ParseError(f"unsupported construct '{tok.text}'", tok.span)
        elif tok.kind is TokenKind.PUNCT and tok.text == ";":
            raise ParseError("expected a statement, found ';'", tok.span)
        elif tok.kind is TokenKind.DIRECTIVE:
            raise ParseError("directives are only allowed at the top level", tok.span)
        else:
            stmt = self._parse_expr_stmt()
        self.depth -= 1
        return stmt

    def _parse_expr_stmt(self) -> ExprStmt:
        expr = self.parse_expression()
        end = self.expect_punct(";")
        return ExprStmt(self._convert_incr(expr), span=expr.span.merge(end.span))

    def _parse_if(self) -> If:
        start = self.advance()
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then_branch = self._parse_body("if")
        else_branch = None
        if self.check_keyword("else"):
            self.advance()
            else_branch = self._parse_body("else")
        end = else_branch if else_branch is not None else then_branch
        return If(cond, then_branch, else_branch, span=start.span.merge(end.span))

    def _parse_while(self) -> While:
        start = self.advance()
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        body = self._parse_body("while")
        return While(cond, body, span=start.span.merge(body.span))

    def _parse_for(self) -> For:
        start = self.advance()
        self.expect_punct("(")
        init: Stmt | None = None
        if not self.check_punct(";"):
            tok = self.peek()
            if tok is not None and tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_STARTERS:
                init = self._parse_local_decl()  # consumes the ';'
            else:
                init = self._parse_expr_stmt()
        else:
            self.expect_punct(";")
        cond = None if self.check_punct(";") else self.parse_expression()
        self.expect_punct(";")
        step = None
        if not self.check_punct(")"):
            step = self._convert_incr(self.parse_expression())
        self.expect_punct(")")
        body = self._parse_body("for")
        return For(init, cond, step, body, span=start.span.merge(body.span))

    def _parse_body(self, keyword: str) -> Stmt:
        """The substatement of `keyword`, which C does not allow to be a
        declaration (C11 6.8): a bare one would be scoped by whether it ran."""
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.KEYWORD and tok.text in _TYPE_STARTERS:
            raise ParseError(f"a declaration cannot be the body of '{keyword}'; "
                             "put it in braces", tok.span)
        return self._parse_stmt()

    def _parse_return(self) -> Return:
        start = self.advance()
        value = None
        if not self.check_punct(";"):
            value = self.parse_expression()
        end = self.expect_punct(";")
        return Return(value, span=start.span.merge(end.span))

    def _parse_local_decl(self) -> LocalDecl:
        start = self.peek()
        assert start is not None
        ctype = self._parse_type()
        name_tok = self.expect_ident("a variable name")
        init, span = self._parse_var_rest(start, ctype, name_tok)
        return LocalDecl(name_tok.text, ctype, init, span=span)

    # expressions ----------------------------------------------------------

    def parse_expression(self) -> Expr:
        """An assignment expression; assignment is right-associative."""
        lhs = self._parse_binary(1)
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.PUNCT:
            if tok.text in _REJECTED_ASSIGN_OPS:
                raise ParseError(f"assignment operator '{tok.text}' is not supported", tok.span)
            if tok.text in _ASSIGN_OPS:
                self.advance()
                _require_lvalue(lhs, tok.span)
                self._nest(tok)
                value = self.parse_expression()
                self.depth -= 1
                return Assign(tok.text, lhs, value, span=lhs.span.merge(value.span))
            if tok.text == "?":
                raise ParseError("the conditional operator '?:' is not supported", tok.span)
        return lhs

    def _parse_binary(self, min_precedence: int) -> Expr:
        """Precedence climbing: fold operators binding at least `min_precedence`."""
        expr = self._parse_unary()
        depth = self.depth
        while True:
            tok = self.peek()
            precedence = _BINARY_PRECEDENCE.get(tok.text, 0) if tok is not None else 0
            if precedence < min_precedence:
                self.depth = depth
                return expr
            self.advance()
            # a left-associative chain grows the tree one level per operator
            self._nest(tok)
            rhs = self._parse_binary(precedence + 1)
            expr = Binary(tok.text, expr, rhs, span=expr.span.merge(rhs.span))

    def _parse_unary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an expression, found end of input", self._eof_span())
        if tok.kind is not TokenKind.PUNCT:
            return self._parse_postfix()
        if tok.text in ("++", "--"):
            self.advance()
            operand = self._parse_operand(tok)
            _require_lvalue(operand, tok.span)
            expr: Expr = _IncrDecr(tok.text, operand, span=tok.span.merge(operand.span))
            self.stray_incr.add(expr)
            return expr
        if tok.text in _UNARY_OPS:
            self.advance()
            operand = self._parse_operand(tok)
            return Unary(_UNARY_OPS[tok.text], operand, span=tok.span.merge(operand.span))
        if tok.text == "(" and self._is_cast_ahead():
            open_tok = self.advance()
            ctype = self._parse_type()
            if ctype.base is BaseType.VOID and ctype.pointer_depth == 0:
                raise ParseError("cast to void is not supported", open_tok.span)
            self.expect_punct(")")
            operand = self._parse_operand(open_tok)
            return Cast(ctype, operand, span=open_tok.span.merge(operand.span))
        return self._parse_postfix()

    def _parse_operand(self, operator: Token) -> Expr:
        """The operand of a prefix operator or cast, one nesting level down."""
        self._nest(operator)
        operand = self._parse_unary()
        self.depth -= 1
        return operand

    def _is_cast_ahead(self) -> bool:
        nxt = self.peek(1)
        return nxt is not None and nxt.kind is TokenKind.KEYWORD and nxt.text in _TYPE_STARTERS

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            tok = self.peek()
            if tok is None or tok.kind is not TokenKind.PUNCT:
                return expr
            if tok.text in ("++", "--"):
                self.advance()
                _require_lvalue(expr, tok.span)
                expr = _IncrDecr(tok.text, expr, span=expr.span.merge(tok.span))
                self.stray_incr.add(expr)
                continue
            if tok.text == "[":
                raise ParseError("array indexing is not supported", tok.span)
            if tok.text in (".", "->"):
                raise ParseError(f"member access '{tok.text}' is not supported", tok.span)
            return expr

    def _parse_primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected an expression, found end of input", self._eof_span())
        if tok.kind is TokenKind.INT_LIT:
            self.advance()
            assert tok.value is not None
            return IntLit(tok.value, tok.text, span=tok.span)
        if tok.kind is TokenKind.IDENT:
            if tok.text in _UNSUPPORTED_WORDS:
                raise ParseError(f"unsupported construct '{tok.text}'", tok.span)
            self.advance()
            if self.check_punct("("):
                self._nest(self.advance())
                args: list[Expr] = []
                if not self.check_punct(")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self.accept_punct(","):
                            break
                close = self.expect_punct(")")
                self.depth -= 1
                return Call(tok.text, args, span=tok.span.merge(close.span))
            return Ident(tok.text, span=tok.span)
        if tok.kind is TokenKind.PUNCT and tok.text == "(":
            open_tok = self.advance()
            self._nest(open_tok)
            inner = self.parse_expression()
            close = self.expect_punct(")")
            self.depth -= 1
            return Paren(inner, span=open_tok.span.merge(close.span))
        raise ParseError(f"expected an expression, found '{tok.text}'", tok.span)

    def _convert_incr(self, expr: Expr) -> Expr:
        """Desugar a whole-statement ++/-- into a compound assignment."""
        if isinstance(expr, _IncrDecr):
            self.stray_incr.discard(expr)
            op = "+=" if expr.op == "++" else "-="
            one = IntLit(1, "1", span=expr.span)
            return Assign(op, expr.target, one, span=expr.span)
        return expr


_STATEMENT_PARSERS = {
    "if": _Parser._parse_if,
    "while": _Parser._parse_while,
    "for": _Parser._parse_for,
    "return": _Parser._parse_return,
}


def _require_lvalue(expr: Expr, at: SourceSpan) -> None:
    target = expr
    while isinstance(target, Paren):
        target = target.inner
    if isinstance(target, Ident):
        return
    if isinstance(target, Unary) and target.op == "deref":
        return
    raise ParseError("assignment target must be a variable or dereference", at)


def _validate_macro_expr(expr: Expr) -> None:
    """Macro bodies are constant expressions: literals, names, arithmetic."""
    if isinstance(expr, (IntLit, Ident)):
        return
    if isinstance(expr, Paren):
        _validate_macro_expr(expr.inner)
        return
    if isinstance(expr, Unary) and expr.op in _MACRO_UNARY_OPS:
        _validate_macro_expr(expr.operand)
        return
    if isinstance(expr, Binary) and expr.op in _MACRO_BINARY_OPS:
        _validate_macro_expr(expr.lhs)
        _validate_macro_expr(expr.rhs)
        return
    raise ParseError("macro value must be a constant expression", expr.span)
