"""Tokenizer for the embedded C subset.

Table-driven: one compiled regex with a named group per token class, read
by a single loop. Produces a flat token stream with exact 1-based,
end-inclusive source spans. Comments are skipped. An ``#include`` line collapses into a single
directive token (the parser never expands it); ``#define`` emits a bare
directive token so the macro name and value lex as ordinary tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from halgen.errors import HalgenError


class LexError(HalgenError):
    """Raised on malformed input; carries the offending span."""

    def __init__(self, message: str, span: "SourceSpan"):
        super().__init__(f"{span.file_id}:{span.start_line}:{span.start_col}: {message}")
        self.message = message
        self.span = span


class TokenKind(Enum):
    IDENT = "Ident"
    INT_LIT = "IntLit"
    PUNCT = "Punct"
    KEYWORD = "Keyword"
    DIRECTIVE = "Directive"


@dataclass(frozen=True)
class SourceSpan:
    """Region of one source file; lines and columns are 1-based, end-inclusive."""

    file_id: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        lo = min((self.start_line, self.start_col), (other.start_line, other.start_col))
        hi = max((self.end_line, self.end_col), (other.end_line, other.end_col))
        return SourceSpan(self.file_id, lo[0], lo[1], hi[0], hi[1])


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: SourceSpan
    value: int | None = None  # decoded integer, IntLit only


KEYWORDS = frozenset({
    "void", "int", "unsigned", "uint8_t", "uint16_t", "uint32_t",
    "volatile", "if", "else", "while", "for", "return",
})

# Longest first so maximal munch falls out of the regex alternation. Some
# of these (e.g. "->", "?", "[") are lexed only so the parser can reject the
# construct with a positioned error instead of a lex failure.
PUNCTS = (
    "<<=", ">>=",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "&=", "|=", "^=", "+=", "-=", "*=", "/=", "%=", "++", "--", "->",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", ";", ",", "[", "]", ".", "?", ":",
)

_MAX_U64 = (1 << 64) - 1

# One alternative per token class, tried in order. Identifiers and digits
# are ASCII only. A number followed by an identifier character is matched
# with that character as `tail` so it can be reported as malformed.
_TOKEN_RE = re.compile("|".join((
    r"(?P<newline>\n)",
    r"(?P<skip>[ \t\r\f\v]+|//[^\n]*|/\*.*?\*/)",
    r"(?P<open_comment>/\*)",
    # an include path is not otherwise lexable, so the whole line is the token
    r"(?P<include>#include(?![A-Za-z0-9_])[^\n]*)",
    r"(?P<directive>#[A-Za-z0-9_]*)",
    r"(?P<number>0[xX][0-9a-fA-F]*|[0-9]+)(?P<tail>[A-Za-z0-9_])?",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
    "(?P<punct>" + "|".join(map(re.escape, PUNCTS)) + ")",
    r"(?P<other>.)",
)), re.DOTALL)


def lex(source: str, file_id: str = "<input>") -> list[Token]:
    """Tokenize `source`, skipping whitespace and comments.

    Raises LexError on unterminated block comments, malformed numeric
    literals, unknown directives, or characters outside the subset.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0  # current line number and offset of its first char
    line_has_code = False  # directives must be the first thing on their line

    for m in _TOKEN_RE.finditer(source):
        group, text, begin = m.lastgroup, m.group(), m.start()
        if group == "newline":
            line, line_start, line_has_code = line + 1, m.end(), False
            continue
        if group == "skip":
            # a block comment's newlines do not end the line for directives
            if "\n" in text:
                line += text.count("\n")
                line_start = begin + text.rindex("\n") + 1
            continue
        col = begin - line_start + 1
        if group == "number" or group == "tail":
            text = m.group("number")
        span = SourceSpan(file_id, line, col, line, col + len(text) - 1)
        if group == "open_comment":
            raise LexError("unterminated block comment", SourceSpan(file_id, line, col, line, col))
        if group == "other":
            raise LexError(f"unexpected character {text!r}", span)
        if group == "include" or group == "directive":
            if line_has_code:
                raise LexError("'#' is only valid at the start of a directive line",
                               SourceSpan(file_id, line, col, line, col))
            if group == "include":
                text = text.rstrip()
                span = SourceSpan(file_id, line, col, line, col + len(text) - 1)
            elif text != "#define":
                raise LexError(f"unsupported directive '{text}'", span)
            tokens.append(Token(TokenKind.DIRECTIVE, text, span))
        elif group == "word":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, span))
        elif group == "punct":
            tokens.append(Token(TokenKind.PUNCT, text, span))
        else:
            is_hex = text[1:2] in ("x", "X")
            if is_hex and len(text) == 2:
                raise LexError("hex literal has no digits", span)
            if group == "tail":
                raise LexError(f"malformed numeric literal {text + m.group('tail')!r}",
                               SourceSpan(file_id, line, col, line, col + len(text)))
            # int() refuses decimal strings past 4300 digits; 21 significant
            # digits already exceed 64 bits
            digits = text.lstrip("0")
            value = int(text, 16) if is_hex else int(digits[:21] or "0")
            if value > _MAX_U64:
                raise LexError(f"integer literal {text} exceeds 64 bits", span)
            tokens.append(Token(TokenKind.INT_LIT, text, span, value=value))
        line_has_code = True
    return tokens


def read_source(path: Path) -> str:
    """A UTF-8 source file's text, with newlines translated as `read_text` does.

    A byte that does not decode is a LexError at its line, named by the
    file's name as its file id.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        col = err.start - data.rfind(b"\n", 0, err.start)
        raise LexError(f"byte 0x{data[err.start]:02X} is not UTF-8",
                       SourceSpan(path.name, line, col, line, col)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def normalize_tokens(source: str) -> list[str]:
    """Collapse a source text to its token-class sequence.

    Identifiers become ``"ID"`` and integer literals ``"LIT"``; every other
    token keeps its exact text. The result is invariant under consistent
    identifier renaming and literal substitution, which is what the clone
    similarity metric needs.
    """
    out = []
    for tok in lex(source, "<normalize>"):
        if tok.kind is TokenKind.IDENT:
            out.append("ID")
        elif tok.kind is TokenKind.INT_LIT:
            out.append("LIT")
        else:
            out.append(tok.text)
    return out
