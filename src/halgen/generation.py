"""Code-generation backends, response extraction, and patch vetting.

Two interchangeable backends produce candidate C code from a rendered
prompt: an HTTP chat-completion client (always temperature 0, one system
message for the cue and one user message for the rest) and an offline
knowledge-base backend that resolves element names to canonical snippets
and is fully deterministic, which makes it the test oracle. Vetting parses
each distinct candidate text once.
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path

from halgen.errors import HalgenError
from halgen.config import HttpSettings
from halgen.analysis import (
    ElementKind,
    MissingElement,
    SymbolTable,
    collect_external_references,
)
from halgen.c_ast import (
    FunctionDef,
    GlobalDecl,
    IncludeDirective,
    LexError,
    MacroConst,
    ParseError,
    TopLevelItem,
    TranslationUnit,
    item_name,
    parse,
    read_source,
)
from halgen.prompting import RenderedPrompt

NETWORK = "network"
AUTH = "auth"
RATE_LIMIT = "rate_limit"
MALFORMED_RESPONSE = "malformed_response"

_RETRYABLE = (NETWORK, RATE_LIMIT)

# Seconds slept before each retry of the HTTP backend; the last one repeats.
RETRY_DELAYS_S = (1.0, 4.0)

# Distinct candidate texts whose parse `vet_patch` keeps. The KB backend
# returns the same dozen snippets on every experiment iteration.
PATCH_CACHE_SIZE = 256


class BackendError(HalgenError):
    def __init__(self, category: str, message: str):
        super().__init__(f"{category}: {message}")
        self.category = category


class EmptyGeneration(HalgenError):
    pass


class KnowledgeBaseError(HalgenError):
    pass


@dataclass
class GenerationResult:
    raw_text: str
    extracted_code: str
    backend_id: str
    call_index: int  # 1-based within one backend instance
    provisional: bool = False  # True for knowledge-base fallback stubs


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_code(raw_text: str) -> str:
    """Contents of the first fenced code block, else the trimmed raw text."""
    match = _FENCE_RE.search(raw_text)
    code = match.group(1) if match else raw_text
    code = code.strip()
    if not code:
        raise EmptyGeneration("generation produced no code")
    return code


def generate(backend, prompt: RenderedPrompt) -> GenerationResult:
    """Invoke `backend` exactly once for `prompt`."""
    return backend.generate(prompt)


# --- HTTP backend ----------------------------------------------------------


class HttpBackend:
    """POSTs the chat wire format to a configured endpoint.

    The five prompt sections become a two-message chat: the cue is the
    system message, the remaining sections joined by blank lines are the
    user one. The bearer token comes from the configured environment
    variable only. Network and rate-limit failures are retried after the
    `RETRY_DELAYS_S` delays; auth failures and malformed responses are not.
    """

    backend_id = "http"

    def __init__(self, config: HttpSettings, sleep=time.sleep):
        self.config = config
        self._sleep = sleep
        self._calls = 0

    def generate(self, prompt: RenderedPrompt) -> GenerationResult:
        body = json.dumps({
            "model": self.config.model,
            "temperature": 0,
            "messages": [
                {"role": "system", "content": prompt.sections[0][1]},
                {"role": "user", "content": "\n\n".join(text for _, text in prompt.sections[1:])},
            ],
        })
        attempt = 0
        while True:
            try:
                raw = self._post(body)
                break
            except BackendError as err:
                if err.category not in _RETRYABLE or attempt >= self.config.max_retries:
                    raise
                self._sleep(RETRY_DELAYS_S[min(attempt, len(RETRY_DELAYS_S) - 1)])
                attempt += 1
        self._calls += 1
        return GenerationResult(raw, extract_code(raw), self.backend_id, self._calls)

    def _post(self, body: str) -> str:
        token = os.environ.get(self.config.auth_env)
        if not token:
            raise BackendError(AUTH, f"environment variable {self.config.auth_env} is not set")
        if not (token.isascii() and token.isprintable()):
            # http.client cannot send it as a header value
            raise BackendError(AUTH, f"environment variable {self.config.auth_env} "
                                     "holds characters a bearer token cannot contain")
        request = urllib.request.Request(
            self.config.endpoint,
            data=body.encode("utf-8"),
            headers={"Authorization": f"Bearer {token}", "Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout_s) as response:
                payload = response.read()
        except urllib.error.HTTPError as err:
            if err.code in (401, 403):
                raise BackendError(AUTH, f"HTTP {err.code}") from err
            if err.code == 429:
                raise BackendError(RATE_LIMIT, "HTTP 429") from err
            raise BackendError(NETWORK, f"HTTP {err.code}") from err
        except (urllib.error.URLError, TimeoutError, OSError) as err:
            raise BackendError(NETWORK, str(err)) from err
        try:
            data = json.loads(payload.decode("utf-8"))
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise BackendError(MALFORMED_RESPONSE, f"unexpected response body: {err}") from err
        if not isinstance(content, str):
            raise BackendError(MALFORMED_RESPONSE, "message content is not a string")
        return content


# --- knowledge-base backend -------------------------------------------------


@dataclass
class KnowledgeBase:
    """Canonical element-name -> source-text store backing the offline backend."""

    entries: dict[str, str]
    kinds: dict[str, ElementKind]

    @classmethod
    def load(cls, directory: str | Path) -> "KnowledgeBase":
        """Load `<name>.c` snippets listed by `manifest.json`.

        The manifest is an object whose `entries` list holds one object per
        snippet, with a C identifier `name` and an element `kind`. Every
        entry must parse and define exactly its keyed name.
        """
        directory = Path(directory)
        manifest_path = directory / "manifest.json"
        if not manifest_path.is_file():
            raise KnowledgeBaseError(f"missing manifest: {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as err:
            raise KnowledgeBaseError(f"{manifest_path}: invalid JSON: {err}") from err
        if not isinstance(manifest, dict):
            raise KnowledgeBaseError(f"{manifest_path}: top level must be an object")
        records = manifest.get("entries", [])
        if not isinstance(records, list):
            raise KnowledgeBaseError(f"{manifest_path}: 'entries' must be a list")
        entries: dict[str, str] = {}
        kinds: dict[str, ElementKind] = {}
        for index, record in enumerate(records):
            where = f"{manifest_path}: entries[{index}]"
            if not isinstance(record, dict):
                raise KnowledgeBaseError(f"{where} must be an object")
            for key in ("name", "kind"):
                if key not in record:
                    raise KnowledgeBaseError(f"{where} has no '{key}'")
            name = record["name"]
            # checked before it becomes part of a path
            if not isinstance(name, str) or not _IDENTIFIER_RE.fullmatch(name):
                raise KnowledgeBaseError(f"{where}: name {name!r} is not a C identifier")
            try:
                kind = ElementKind(record["kind"])
            except ValueError:
                raise KnowledgeBaseError(f"{where}: unknown kind {record['kind']!r}") from None
            snippet_path = directory / f"{name}.c"
            if not snippet_path.is_file():
                raise KnowledgeBaseError(f"manifest entry '{name}' has no snippet file")
            try:
                text = read_source(snippet_path)
                unit = parse(text, snippet_path.name)
            except (ParseError, LexError) as err:
                raise KnowledgeBaseError(f"entry '{name}' does not parse: {err}") from err
            defined = [item_name(i) for i in unit.items if item_name(i) is not None]
            if defined != [name]:
                raise KnowledgeBaseError(
                    f"entry '{name}' must define exactly that name, found {defined}")
            entries[name] = text
            kinds[name] = kind
        return cls(entries, kinds)


_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_QUOTED_NAME_RE = re.compile(f"'({_IDENTIFIER_RE.pattern})'")
_ARITY_RE = re.compile(r"with (\d+) parameters")


def _fallback_stub(name: str, kind: ElementKind, arity: int) -> str:
    if kind is ElementKind.CONSTANT:
        return f"#define {name} 0x00"
    params = ", ".join(f"uint32_t p{i}" for i in range(arity)) or "void"
    return f"uint32_t {name}({params}) {{\n    return 0;\n}}"


class KbBackend:
    """Deterministic offline backend: looks the requested element name up in
    the knowledge base and falls back to a provisional stub on a miss."""

    backend_id = "kb"

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self._calls = 0

    def generate(self, prompt: RenderedPrompt) -> GenerationResult:
        instructions = prompt.section("Instructions")
        match = _QUOTED_NAME_RE.search(instructions)
        if not match:
            raise BackendError(MALFORMED_RESPONSE, "prompt instructions name no element")
        name = match.group(1)
        self._calls += 1
        text = self.kb.entries.get(name)
        if text is not None:
            return GenerationResult(text, extract_code(text), self.backend_id, self._calls)
        kind = ElementKind.CONSTANT if "`#define` constant definition" in instructions \
            else ElementKind.FUNCTION
        arity_match = _ARITY_RE.search(instructions)
        arity = int(arity_match.group(1)) if arity_match else 0
        stub = _fallback_stub(name, kind, arity)
        return GenerationResult(stub, extract_code(stub), "kb-fallback", self._calls, provisional=True)


# --- vetting ----------------------------------------------------------------


class RejectionReason(Enum):
    PARSE_FAILED = "ParseFailed"
    WRONG_NAME = "WrongName"
    WRONG_ARITY = "WrongArity"
    FORBIDDEN_REFERENCE = "ForbiddenReference"
    UNKNOWN_REFERENCE = "UnknownReference"
    MULTIPLE_DEFINITIONS = "MultipleDefinitions"


# Defaults target the vendor HAL namespace. The uppercase HAL_ prefix is
# matched case-sensitively: lowercase hal_* is the naming scheme of the
# generated layer itself and must stay legal.
DEFAULT_FORBIDDEN_PATTERNS = (r"^HAL_", r"(?i)^stm32", r"(?i)_hal")


@dataclass
class VetPolicy:
    forbidden_name_patterns: tuple[str, ...] = DEFAULT_FORBIDDEN_PATTERNS
    allowed_external_names: frozenset[str] = frozenset()
    strict: bool = False  # reject references to names nobody defines yet


@dataclass
class VettedPatch:
    name: str
    kind: ElementKind
    items: list[TopLevelItem]
    source_text: str


@dataclass
class Rejection:
    reasons: list[str]  # RejectionReason values, sorted, unique


def _matches_forbidden(name: str, patterns: tuple[str, ...]) -> bool:
    return any(re.search(pattern, name) for pattern in patterns)


@lru_cache(maxsize=PATCH_CACHE_SIZE)
def _parse_patch(code: str) -> TranslationUnit:
    """The candidate's parse, shared by every vetting of the same text.

    A text that fails to parse raises and so is not kept. Sharing the items
    is safe because no code changes a node after parsing.
    """
    return parse(code, "<patch>")


def vet_patch(
    code: str,
    elem: MissingElement,
    table: SymbolTable,
    policy: VetPolicy | None = None,
) -> VettedPatch | Rejection:
    """Accept `code` only if it cleanly defines the requested element.

    Checks: parses; defines exactly the requested name with the right kind
    (and arity, for functions); no referenced or defined name matches a
    forbidden pattern; and, in strict mode, no reference to a name that is
    neither defined, already expected, nor allowed by the policy.
    """
    policy = policy or VetPolicy()
    try:
        unit = _parse_patch(code)
    except (ParseError, LexError):
        return Rejection([RejectionReason.PARSE_FAILED.value])

    reasons: set[str] = set()
    named_items = [item for item in unit.items if item_name(item) is not None]
    targets = [item for item in named_items if item_name(item) == elem.name]
    if not targets:
        reasons.add(RejectionReason.WRONG_NAME.value)
    elif len(targets) > 1:
        reasons.add(RejectionReason.MULTIPLE_DEFINITIONS.value)
    else:
        target = targets[0]
        if elem.kind is ElementKind.FUNCTION:
            if not isinstance(target, FunctionDef):
                reasons.add(RejectionReason.WRONG_NAME.value)
            elif elem.arity is not None and len(target.params) != elem.arity:
                reasons.add(RejectionReason.WRONG_ARITY.value)
        elif not isinstance(target, (MacroConst, GlobalDecl)):
            reasons.add(RejectionReason.WRONG_NAME.value)

    if policy.strict and (len(named_items) > 1 or any(
            isinstance(item, IncludeDirective) for item in unit.items)):
        reasons.add(RejectionReason.MULTIPLE_DEFINITIONS.value)

    defined_names = {item_name(item) for item in named_items}
    referenced = {ref.name for ref in collect_external_references(unit)} - defined_names

    for name in sorted(defined_names | referenced):
        if name and _matches_forbidden(name, policy.forbidden_name_patterns):
            reasons.add(RejectionReason.FORBIDDEN_REFERENCE.value)

    unknown = referenced - set(table.definitions) - set(policy.allowed_external_names) - {elem.name}
    if unknown and policy.strict:
        reasons.add(RejectionReason.UNKNOWN_REFERENCE.value)

    # extra definitions that collide with existing ones would corrupt the
    # project on insertion, in any mode
    collisions = (defined_names - {elem.name}) & set(table.definitions)
    if collisions:
        reasons.add(RejectionReason.MULTIPLE_DEFINITIONS.value)

    if reasons:
        return Rejection(sorted(reasons))
    insertable = [item for item in unit.items if not isinstance(item, IncludeDirective)]
    return VettedPatch(elem.name, elem.kind, insertable, code)
