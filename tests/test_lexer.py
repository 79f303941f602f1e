import re

import pytest
from conftest import span_text

from halgen.c_ast import KEYWORDS, LexError, TokenKind, lex, normalize_tokens


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in lex(source)]


def test_hex_literal_decodes():
    tokens = lex("0x20")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.INT_LIT
    assert tokens[0].value == 32


def test_hex_decoding_is_case_insensitive():
    assert lex("0XaB")[0].value == 0xAB
    assert lex("0xab")[0].value == 0xAB


def test_register_masking_fragment():
    tokens = lex("*GPIO_MODER &= ~(0x3")
    assert [(t.kind, t.text) for t in tokens] == [
        (TokenKind.PUNCT, "*"),
        (TokenKind.IDENT, "GPIO_MODER"),
        (TokenKind.PUNCT, "&="),
        (TokenKind.PUNCT, "~"),
        (TokenKind.PUNCT, "("),
        (TokenKind.INT_LIT, "0x3"),
    ]
    assert tokens[-1].value == 3


def test_empty_input():
    assert lex("") == []


def test_whitespace_and_comments_skipped():
    source = "x // trailing\n/* block\nspanning */ y"
    assert [(t.kind, t.text) for t in lex(source)] == [
        (TokenKind.IDENT, "x"),
        (TokenKind.IDENT, "y"),
    ]


def test_token_concatenation_covers_source(demo_sources):
    # stripping all tokens out of the source must leave only whitespace
    # and comments
    for name, source in demo_sources.items():
        remaining = source
        for tok in reversed(lex(source, name)):
            start = tok.span
            lines = remaining.splitlines(keepends=True)
            offset = sum(len(l) for l in lines[:start.start_line - 1]) + start.start_col - 1
            assert remaining[offset:offset + len(tok.text)] == tok.text
            remaining = remaining[:offset] + remaining[offset + len(tok.text):]


def test_keywords_classified():
    kinds = {t.text: t.kind for t in lex("void uint32_t while foo")}
    assert kinds["void"] is TokenKind.KEYWORD
    assert kinds["uint32_t"] is TokenKind.KEYWORD
    assert kinds["while"] is TokenKind.KEYWORD
    assert kinds["foo"] is TokenKind.IDENT


def test_maximal_munch():
    assert [t.text for t in lex("a <<= b << c <= d < e")] == [
        "a", "<<=", "b", "<<", "c", "<=", "d", "<", "e"]


def test_include_is_one_directive_token():
    tokens = lex("#include <stdint.h>\nint x = 1;")
    assert tokens[0].kind is TokenKind.DIRECTIVE
    assert tokens[0].text == "#include <stdint.h>"
    assert tokens[1].text == "int"


def test_define_directive_keeps_body_tokens():
    tokens = lex("#define RCC_BASE 0x40023800")
    assert [(t.kind, t.text) for t in tokens] == [
        (TokenKind.DIRECTIVE, "#define"),
        (TokenKind.IDENT, "RCC_BASE"),
        (TokenKind.INT_LIT, "0x40023800"),
    ]


def test_unterminated_comment_reports_span():
    with pytest.raises(LexError) as err:
        lex("x /* never closed", "f.c")
    assert "comment" in str(err.value)
    assert err.value.span.start_line == 1


@pytest.mark.parametrize("bad", ["0x", "123abc", "0x20g"])
def test_malformed_numeric_literal(bad):
    with pytest.raises(LexError):
        lex(bad)


def test_literal_must_fit_64_bits():
    assert lex("0xFFFFFFFFFFFFFFFF")[0].value == (1 << 64) - 1
    with pytest.raises(LexError):
        lex("0x10000000000000000")


def test_unknown_character_rejected():
    with pytest.raises(LexError):
        lex("a @ b")


def test_unknown_directive_rejected():
    with pytest.raises(LexError):
        lex("#pragma once")


def test_directive_must_start_line():
    with pytest.raises(LexError):
        lex("int x; #define Y 1")


def test_spans_are_one_based_and_inclusive():
    tokens = lex("ab + cd\n  efg", "f.c")
    spans = [(t.span.start_line, t.span.start_col, t.span.end_line, t.span.end_col)
             for t in tokens]
    assert spans == [(1, 1, 1, 2), (1, 4, 1, 4), (1, 6, 1, 7), (2, 3, 2, 5)]


def test_span_text_round_trips():
    source = "uint32_t value = 0x40;\n*ptr |= mask;\n"
    for tok in lex(source):
        assert span_text(source, tok.span) == tok.text


def test_normalize_classes_identifiers_and_literals():
    assert normalize_tokens("x = 1;") == ["ID", "=", "LIT", ";"]


def test_normalize_is_rename_invariant():
    assert normalize_tokens("y = 2;") == normalize_tokens("x = 1;")
    assert normalize_tokens("longer_name = 0xFF ;") == normalize_tokens("x=1;")


def test_normalize_rename_invariance_on_function(canonical_set_io_mode):
    renamed = canonical_set_io_mode
    for old, new in [("set_io_mode", "configure_pin"), ("gpio_base", "b"),
                     ("pin_mask", "m"), ("pin_number", "n"), ("mode", "md"),
                     ("GPIO_MODER", "reg")]:
        renamed = re.sub(rf"\b{old}\b", new, renamed)
    assert normalize_tokens(renamed) == normalize_tokens(canonical_set_io_mode)


def test_normalize_leaves_no_raw_identifier_names(canonical_set_io_mode):
    # class tags and subset keywords are the only word-shaped tokens allowed
    word = re.compile(r"[A-Za-z_]\w*")
    allowed = {"ID", "LIT"} | set(KEYWORDS)
    for tok in normalize_tokens(canonical_set_io_mode):
        if word.fullmatch(tok):
            assert tok in allowed, f"raw identifier leaked: {tok}"


def test_lexer_total_on_fixtures_and_kb(demo_sources, kb_snippet_texts):
    for name, source in demo_sources.items():
        assert lex(source, name)
    for name, source in kb_snippet_texts.items():
        assert lex(source, name)
