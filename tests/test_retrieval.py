import math
import random

import pytest

from halgen.analysis import Project
from halgen.c_ast import TokenKind, lex, parse
from halgen.retrieval import (
    EMBED_CACHE_SIZE,
    EMBEDDING_DIM,
    EmptyIndex,
    FormatError,
    SnippetKind,
    VectorIndex,
    build_index,
    chunk_codebase,
    cosine,
    embed,
    load_index,
    load_snippets,
    save_index,
    save_snippets,
    search,
)


# --- independent embedding oracle: reimplements hash + count + normalize ----

def oracle_embed(text):
    def fnv1a(data: bytes) -> int:
        h = 14695981039346656037
        for byte in data:
            h = ((h ^ byte) * 1099511628211) % (1 << 64)
        return h

    tokens = []
    for tok in lex(text, "<oracle>"):
        tokens.append("LIT" if tok.kind is TokenKind.INT_LIT else tok.text)
    buckets = [0.0] * EMBEDDING_DIM
    for tok in tokens:
        buckets[fnv1a(tok.encode()) % EMBEDDING_DIM] += 1.0
    for i in range(len(tokens) - 1):
        feature = tokens[i].encode() + b"\x00" + tokens[i + 1].encode()
        buckets[fnv1a(feature) % EMBEDDING_DIM] += 1.0
    norm = math.sqrt(sum(v * v for v in buckets))
    return tuple(v / norm for v in buckets) if norm else tuple(buckets)


def project_of(*sources) -> Project:
    units = tuple(parse(src, f"u{i}.c") for i, src in enumerate(sources))
    return Project(units, units[0].file_id)


# --- chunking -----------------------------------------------------------------

def test_functions_and_one_constant_block():
    consts = "\n".join(f"#define C{i} {i}" for i in range(8))
    funcs = "\n".join(f"void f{i}(void) {{ }}" for i in range(5))
    snippets = chunk_codebase(project_of(consts + "\n" + funcs))
    kinds = [s.kind for s in snippets]
    assert kinds.count(SnippetKind.FUNCTION) == 5
    assert kinds.count(SnippetKind.CONSTANT_GROUP) == 1
    group = next(s for s in snippets if s.kind is SnippetKind.CONSTANT_GROUP)
    assert group.name == "C0"
    assert group.text.count("#define") == 8


def test_empty_project_no_snippets():
    assert chunk_codebase(project_of("")) == []


def test_interleaved_constants_split_into_runs():
    source = (
        "#define A 1\n#define B 2\n"
        "void f(void) { }\n"
        "uint32_t g1 = 3;\n"
        "void h(void) { }\n"
        "#define C 4\n")
    snippets = chunk_codebase(project_of(source))
    assert [(s.kind, s.name) for s in snippets] == [
        (SnippetKind.CONSTANT_GROUP, "A"),
        (SnippetKind.FUNCTION, "f"),
        (SnippetKind.CONSTANT_GROUP, "g1"),
        (SnippetKind.FUNCTION, "h"),
        (SnippetKind.CONSTANT_GROUP, "C"),
    ]


def test_includes_break_constant_runs():
    source = "#define A 1\n#include <stdint.h>\n#define B 2\n"
    snippets = chunk_codebase(project_of(source))
    assert [s.name for s in snippets] == ["A", "B"]


def test_ids_dense_and_in_source_order(demo_project):
    snippets = chunk_codebase(demo_project)
    assert [s.id for s in snippets] == list(range(len(snippets)))
    hal_names = [s.name for s in snippets if s.file_id == "hal.c"]
    assert hal_names == ["RCC_BASE", "enable_gpioa_clk", "set_io_mode", "hal_gpio_write",
                        "hal_gpio_read", "hal_gpio_toggle", "usart_send_byte"]


# --- embedding ------------------------------------------------------------------

def test_self_similarity_is_one(canonical_set_io_mode):
    vec = embed(canonical_set_io_mode)
    assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-9)


def test_empty_text_embeds_to_zero_vector():
    assert embed("") == (0.0,) * EMBEDDING_DIM


def test_embed_matches_independent_oracle(kb_snippet_texts):
    for name, text in kb_snippet_texts.items():
        assert embed(text) == oracle_embed(text), name


def test_cross_snippet_cosine_matches_oracle(kb_snippet_texts):
    a = kb_snippet_texts["set_io_mode"]
    b = kb_snippet_texts["hal_gpio_write"]
    expected = sum(x * y for x, y in zip(oracle_embed(a), oracle_embed(b)))
    assert cosine(embed(a), embed(b)) == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= cosine(embed(a), embed(b)) <= 1.0


def test_embed_is_pure():
    text = "void f(uint32_t x) { return; }"
    assert embed(text) == embed(text)


def test_unit_norm():
    vec = embed("uint32_t a = b + 0x20;")
    assert math.sqrt(sum(v * v for v in vec)) == pytest.approx(1.0, abs=1e-9)


# --- search ----------------------------------------------------------------------

def test_indexed_snippet_ranks_itself_first(demo_project):
    snippets = chunk_codebase(demo_project)
    index = build_index(snippets)
    for snip in snippets:
        results = search(index, embed(snip.text), k=1)
        top_id, score = results[0]
        assert score == pytest.approx(1.0, abs=1e-9)
        # identical texts tie at 1.0; the tie-break keeps ids ascending
        assert embed(snippets[top_id].text) == embed(snip.text)


def test_k_larger_than_corpus_returns_everything(demo_project):
    snippets = chunk_codebase(demo_project)
    index = build_index(snippets)
    results = search(index, embed("anything"), k=10 * len(snippets))
    assert len(results) == len(snippets)
    scores = [s for _, s in results]
    assert scores == sorted(scores, reverse=True)


def test_search_empty_index_raises():
    with pytest.raises(EmptyIndex):
        search(VectorIndex([]), embed("x"), k=1)


def test_search_rejects_nonpositive_k(demo_project):
    index = build_index(chunk_codebase(demo_project))
    with pytest.raises(ValueError):
        search(index, embed("x"), k=0)


def random_corpus(rng, size):
    words = ["reg", "base", "mask", "pin", "mode", "clk", "usart", "gpio",
             "value", "state", "offset", "x", "y"]
    ops = ["+", "-", "<<", ">>", "&", "|", "^", "=", ";", "(", ")"]
    snippets = []
    for i in range(size):
        length = rng.randrange(1, 30)
        parts = [rng.choice(words + ["0x%x" % rng.randrange(256)] + ops)
                 for _ in range(length)]
        snippets.append(" ".join(parts))
    return snippets


def brute_force_ranking(vectors, query):
    scored = [(sid, sum(q * v for q, v in zip(query, vec))) for sid, vec in vectors]
    return sorted(scored, key=lambda e: (-e[1], e[0]))


def test_search_equals_brute_force_on_random_corpora():
    rng = random.Random(2024)
    for _ in range(120):
        texts = random_corpus(rng, rng.randrange(1, 12))
        entries = [(i, embed(t)) for i, t in enumerate(texts)]
        index = VectorIndex(entries)
        query = embed(" ".join(rng.choice(texts).split()[:5]) or "x")
        k = rng.randrange(1, len(texts) + 3)
        expected = brute_force_ranking(entries, query)[:k]
        assert search(index, query, k) == expected


# --- persistence -------------------------------------------------------------------

def test_index_round_trip(tmp_path, demo_project):
    snippets = chunk_codebase(demo_project)
    assert len(snippets) == 12
    index = build_index(snippets)
    path = tmp_path / "demo.idx"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index  # bit-exact: tuples of floats compare exactly


def test_empty_index_round_trip(tmp_path):
    path = tmp_path / "empty.idx"
    save_index(VectorIndex([]), path)
    assert load_index(path) == VectorIndex([])


def test_truncated_index_rejected(tmp_path, demo_project):
    path = tmp_path / "trunc.idx"
    save_index(build_index(chunk_codebase(demo_project)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(FormatError):
        load_index(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_index(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "vers.idx"
    save_index(VectorIndex([]), path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_index(path)


def test_snippet_store_round_trip(tmp_path, demo_project):
    snippets = chunk_codebase(demo_project)
    path = tmp_path / "demo.idx.snippets"
    save_snippets(snippets, path)
    loaded = load_snippets(path)
    assert [(s.id, s.kind, s.name, s.text, s.file_id) for s in loaded] == \
           [(s.id, s.kind, s.name, s.text, s.file_id) for s in snippets]


def test_snippet_store_rejects_corruption(tmp_path):
    path = tmp_path / "bad.snippets"
    path.write_text("WRONG 1\n0\n")
    with pytest.raises(FormatError):
        load_snippets(path)


def test_save_index_rejects_dimension_mismatch(tmp_path):
    bad = VectorIndex([(0, (1.0, 0.0))])  # dimension defaults to 256
    with pytest.raises(ValueError):
        save_index(bad, tmp_path / "bad.idx")


# --- the memo by text -----------------------------------------------------------

def test_memoized_embed_matches_oracle_cold_and_warm(kb_snippet_texts):
    texts = list(kb_snippet_texts.values()) + ["", "set_io_mode GPIOA_BASE 0x20 1"]
    embed.cache_clear()
    cold = [embed(text) for text in texts]
    assert embed.cache_info().hits == 0
    warm = [embed(text) for text in texts]
    assert embed.cache_info().hits == len(texts)
    for text, first, second in zip(texts, cold, warm):
        assert first == second == oracle_embed(text), text
        assert second is first  # served from the memo, not recomputed


def test_embed_memo_is_bounded():
    embed.cache_clear()
    for i in range(EMBED_CACHE_SIZE + 10):
        embed(f"uint32_t v{i} = {i};")
    assert embed.cache_info().currsize == EMBED_CACHE_SIZE
    evicted = "uint32_t v0 = 0;"
    assert embed(evicted) == oracle_embed(evicted)
