"""Deterministic code embeddings and an exact cosine-similarity index.

Snippets are hashed token n-gram vectors (FNV-1a into 256 buckets,
L2-normalized), so identical text embeds bit-identically on every platform
and run. Search is an exhaustive scan; corpora here are tens of snippets,
where approximate indexing would only cost determinism.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

from halgen.errors import HalgenError
from halgen.analysis import Project
from halgen.c_ast import (
    FunctionDef,
    GlobalDecl,
    MacroConst,
    SourceSpan,
    TokenKind,
    lex,
    print_item,
)

EMBEDDING_DIM = 256
# Distinct texts kept by `embed`'s memo. An experiment re-embeds the same
# few dozen snippets and queries on every iteration; one entry is ~8 kB.
EMBED_CACHE_SIZE = 256

INDEX_MAGIC = b"HGVI"
INDEX_VERSION = 1
SNIPPET_MAGIC = "HGSNIP"

Vector = tuple[float, ...]


class EmptyIndex(HalgenError):
    pass


class FormatError(HalgenError):
    pass


class SnippetKind(Enum):
    FUNCTION = "Function"
    CONSTANT_GROUP = "ConstantGroup"
    DOC = "Doc"


@dataclass
class Snippet:
    id: int
    kind: SnippetKind
    name: str
    text: str
    file_id: str
    span: SourceSpan


@dataclass
class VectorIndex:
    entries: list[tuple[int, Vector]]
    dimension: int = EMBEDDING_DIM
    version: int = INDEX_VERSION


def chunk_codebase(project: Project) -> list[Snippet]:
    """Split a project into retrieval snippets, in source order.

    Each function becomes one snippet; each maximal run of adjacent
    constants/globals becomes one ConstantGroup snippet.
    """
    snippets: list[Snippet] = []
    for unit in project.units:
        group: list = []

        def flush():
            if not group:
                return
            text = "\n".join(print_item(item) for item in group)
            span = group[0].span
            for item in group[1:]:
                span = span.merge(item.span)
            snippets.append(Snippet(len(snippets), SnippetKind.CONSTANT_GROUP,
                                    group[0].name, text, unit.file_id, span))
            group.clear()

        for item in unit.items:
            if isinstance(item, (MacroConst, GlobalDecl)):
                group.append(item)
            elif isinstance(item, FunctionDef):
                flush()
                snippets.append(Snippet(len(snippets), SnippetKind.FUNCTION,
                                        item.name, print_item(item), unit.file_id, item.span))
            else:
                flush()
        flush()
    return snippets


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


def _feature_tokens(text: str) -> list[str]:
    # like normalize_tokens, but identifiers keep their raw spelling so
    # same-peripheral snippets land near each other
    out = []
    for tok in lex(text, "<embed>"):
        out.append("LIT" if tok.kind is TokenKind.INT_LIT else tok.text)
    return out


@lru_cache(maxsize=EMBED_CACHE_SIZE)
def embed(text: str) -> Vector:
    """Hashed unigram+bigram token counts, L2-normalized.

    Pure function of the text: identical input yields a bit-identical
    vector, which is what makes the memo by text exact. An empty token
    stream embeds to the zero vector.
    """
    tokens = _feature_tokens(text)
    counts = [0.0] * EMBEDDING_DIM
    for tok in tokens:
        counts[_fnv1a(tok.encode("utf-8")) % EMBEDDING_DIM] += 1.0
    for first, second in zip(tokens, tokens[1:]):
        feature = first.encode("utf-8") + b"\x00" + second.encode("utf-8")
        counts[_fnv1a(feature) % EMBEDDING_DIM] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    if norm == 0.0:
        return tuple(counts)
    return tuple(c / norm for c in counts)


def build_index(snippets: list[Snippet]) -> VectorIndex:
    return VectorIndex([(s.id, embed(s.text)) for s in snippets])


def cosine(a: Vector, b: Vector) -> float:
    return sum(map(operator.mul, a, b))


def search(index: VectorIndex, query: Vector, k: int) -> list[tuple[int, float]]:
    """Top-k entries by cosine score, ties broken by ascending snippet id.

    Exhaustive exact scan over the whole index.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not index.entries:
        raise EmptyIndex("cannot search an empty index")
    scored = [(sid, cosine(query, vec)) for sid, vec in index.entries]
    scored.sort(key=lambda entry: (-entry[1], entry[0]))
    return scored[:k]


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Write the index: magic, version, dimension, count, then per entry a
    u32 snippet id followed by dimension little-endian f64 values."""
    blob = bytearray()
    blob += struct.pack("<4sIII", INDEX_MAGIC, index.version, index.dimension, len(index.entries))
    for sid, vec in index.entries:
        if len(vec) != index.dimension:
            raise ValueError(f"entry {sid} has dimension {len(vec)}, expected {index.dimension}")
        blob += struct.pack("<I", sid)
        blob += struct.pack(f"<{index.dimension}d", *vec)
    Path(path).write_bytes(bytes(blob))


def load_index(path: str | Path) -> VectorIndex:
    data = Path(path).read_bytes()
    header_size = struct.calcsize("<4sIII")
    if len(data) < header_size:
        raise FormatError(f"{path}: truncated index header")
    magic, version, dimension, count = struct.unpack_from("<4sIII", data)
    if magic != INDEX_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != INDEX_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    entry_size = 4 + 8 * dimension
    if len(data) != header_size + count * entry_size:
        raise FormatError(f"{path}: truncated index body")
    entries: list[tuple[int, Vector]] = []
    offset = header_size
    for _ in range(count):
        (sid,) = struct.unpack_from("<I", data, offset)
        vec = struct.unpack_from(f"<{dimension}d", data, offset + 4)
        entries.append((sid, tuple(vec)))
        offset += entry_size
    return VectorIndex(entries, dimension, version)


def save_snippets(snippets: list[Snippet], path: str | Path) -> None:
    """Sidecar UTF-8 snippet store; text lengths make records unambiguous."""
    lines = [f"{SNIPPET_MAGIC} 1", str(len(snippets))]
    for s in snippets:
        span = s.span
        origin = f"{span.start_line}:{span.start_col}:{span.end_line}:{span.end_col}"
        lines.append("\t".join([str(s.id), s.kind.value, s.name, s.file_id, origin, str(len(s.text))]))
        lines.append(s.text)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_snippets(path: str | Path) -> list[Snippet]:
    content = Path(path).read_text(encoding="utf-8")
    pos = 0

    def next_line() -> str:
        nonlocal pos
        end = content.find("\n", pos)
        if end < 0:
            raise FormatError(f"{path}: truncated snippet store")
        line = content[pos:end]
        pos = end + 1
        return line

    header = next_line()
    if header != f"{SNIPPET_MAGIC} 1":
        raise FormatError(f"{path}: bad snippet store header {header!r}")
    try:
        count = int(next_line())
    except ValueError as exc:
        raise FormatError(f"{path}: bad snippet count") from exc
    snippets: list[Snippet] = []
    for _ in range(count):
        fields = next_line().split("\t")
        if len(fields) != 6:
            raise FormatError(f"{path}: malformed snippet record")
        sid, kind, name, file_id, origin, length = fields
        text = content[pos:pos + int(length)]
        if len(text) != int(length):
            raise FormatError(f"{path}: truncated snippet text")
        pos += int(length) + 1  # skip the trailing newline
        sl, sc, el, ec = (int(v) for v in origin.split(":"))
        snippets.append(Snippet(int(sid), SnippetKind(kind), name, text,
                                file_id, SourceSpan(file_id, sl, sc, el, ec)))
    return snippets
