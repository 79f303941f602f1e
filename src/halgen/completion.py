"""Fixed-point completion loop and HAL element deletion utilities.

`complete` repeatedly detects missing elements, generates candidates with
retrieved context, vets them, and inserts accepted patches until the
project closes or a limit trips. Projects are treated as immutable values:
every mutation returns a new Project, and no code changes a node after
parsing, so callers can reuse a pristine parse across experiment iterations
and `insert_patch` can share its memoized items between projects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from halgen.errors import HalgenError
from halgen.analysis import (
    ElementKind,
    MissingElement,
    Project,
    build_symbol_table,
    definition_of,
    detect_missing,
    infer_signature,
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
    layout_items,
    parse,
)
from halgen.generation import (
    BackendError,
    EmptyGeneration,
    Rejection,
    VetPolicy,
    VettedPatch,
    generate,
    vet_patch,
)
from halgen.prompting import PromptTemplate, RenderedPrompt, build_prompt
from halgen.retrieval import EmptyIndex, Snippet, VectorIndex, embed, search


# Parsed items kept by insert_patch, keyed by (printed text, start line, file
# id). An experiment run touches a few dozen distinct keys.
ITEM_CACHE_SIZE = 256


class NotFound(HalgenError):
    pass


class NotInHalUnit(HalgenError):
    pass


class InternalError(HalgenError):
    pass


@dataclass
class CompletionLimits:
    max_iterations: int = 10
    max_calls: int = 50
    max_rejections_per_element: int = 3

    def __post_init__(self):
        if min(self.max_iterations, self.max_calls, self.max_rejections_per_element) < 1:
            raise ValueError("completion limits must be positive")


@dataclass
class CompletionReport:
    iterations_used: int = 0
    total_calls: int = 0
    inserted: list[tuple[str, str, str, int]] = field(default_factory=list)  # name, kind, backend, rejections
    failures: list[tuple[str, list[str]]] = field(default_factory=list)
    closed: bool = False

    def to_json_dict(self) -> dict:
        return {
            "iterations_used": self.iterations_used,
            "total_calls": self.total_calls,
            "inserted": [list(entry) for entry in self.inserted],
            "failures": [[name, list(reasons)] for name, reasons in self.failures],
            "closed": self.closed,
            "per_element_similarity": None,  # kept so report files keep their shape
        }


def _retrieve_context(
    index: VectorIndex,
    by_id: dict[int, Snippet],
    elem: MissingElement,
    k: int,
) -> list[Snippet]:
    if not index.entries or k < 1:
        return []
    query = embed(" ".join([elem.name] + elem.sample_args))
    try:
        ranked = search(index, query, k)
    except EmptyIndex:
        return []
    return [by_id[sid] for sid, _ in ranked if sid in by_id]


def _with_feedback(prompt: RenderedPrompt, reasons: list[str]) -> RenderedPrompt:
    """Append the rejection reasons to the final (user-visible) section."""
    sections = list(prompt.sections)
    name, text = sections[-1]
    note = (
        f"\n\nThe previous attempt was rejected for: {', '.join(reasons)}. "
        "Provide a corrected implementation."
    )
    sections[-1] = (name, text + note)
    flattened = "\n\n".join(sec_text for _, sec_text in sections)
    return RenderedPrompt(sections, flattened)


def complete(
    project: Project,
    backend,
    index: VectorIndex,
    snippets: list[Snippet],
    limits: CompletionLimits | None = None,
    policy: VetPolicy | None = None,
    template: PromptTemplate | None = None,
    retrieval_k: int = 3,
) -> tuple[Project, CompletionReport]:
    """Drive the project to a fixed point of missing-element detection.

    Per element: retrieve context, render the prompt, generate, vet, and
    insert. Rejected candidates are regenerated with the rejection reasons
    appended, up to the per-element limit; each inserted element costs
    exactly one successful generation call (rejected attempts count only
    toward total_calls). Backend failures mark the element failed rather
    than aborting the run. Returns the (possibly unchanged) project and a
    report; `closed` is True only when nothing is missing and nothing
    failed.
    """
    limits = limits or CompletionLimits()
    base_policy = policy or VetPolicy()
    report = CompletionReport()
    failed: dict[str, list[str]] = {}
    snippets_by_id = {s.id: s for s in snippets}

    current = project
    while report.iterations_used < limits.max_iterations:
        report.iterations_used += 1
        table = build_symbol_table(current)
        missing = detect_missing(table)
        if not missing:
            report.closed = not failed
            break
        pending = [m for m in missing if m.name not in failed]
        if not pending:
            break  # every remaining gap already failed; no progress possible
        progress = False
        # Names still missing this round may be referenced by any patch;
        # vet_patch itself allows every name the table defines.
        vet_policy = replace(
            base_policy,
            allowed_external_names=frozenset(base_policy.allowed_external_names)
            | {m.name for m in missing},
        )
        for elem in pending:
            if elem.name in table.definitions:
                continue  # an earlier patch of this round defined it as an extra item
            if report.total_calls >= limits.max_calls:
                failed.setdefault(elem.name, ["limit:max_calls"])
                continue
            signature = infer_signature(elem) if elem.kind is ElementKind.FUNCTION else None
            retrieved = _retrieve_context(index, snippets_by_id, elem, retrieval_k)
            prompt = build_prompt(elem, signature, retrieved, template)
            rejections = 0
            outcome: VettedPatch | None = None
            reasons: list[str] = []
            while True:
                try:
                    result = generate(backend, prompt)
                    report.total_calls += 1
                    vetted = vet_patch(result.extracted_code, elem, table, vet_policy)
                except BackendError as err:
                    reasons = [f"backend:{err.category}"]
                    break
                except EmptyGeneration:
                    report.total_calls += 1
                    vetted = Rejection(["EmptyGeneration"])
                if isinstance(vetted, Rejection):
                    rejections += 1
                    reasons = vetted.reasons
                    if rejections >= limits.max_rejections_per_element:
                        break
                    prompt = _with_feedback(prompt, vetted.reasons)
                    continue
                outcome = vetted
                break
            if outcome is None:
                failed[elem.name] = reasons
                continue
            current = insert_patch(current, outcome)
            # Vetting reads only the table's definition names, so the round's
            # table is kept and given the patch's names (their spans are the
            # patch's own until the next build) instead of being rebuilt.
            for item in outcome.items:
                if item.name in table.definitions:
                    build_symbol_table(current)  # raises DuplicateDefinition, as a rebuild would
                table.definitions[item.name] = definition_of(item)
            report.inserted.append(
                (elem.name, elem.kind.value, result.backend_id, rejections))
            progress = True
        if not progress:
            break

    if not report.closed:
        table = build_symbol_table(current)
        # a failed element may have been defined anyway by another patch's
        # extra items; such failures are stale
        failed = {name: reasons for name, reasons in failed.items()
                  if name not in table.definitions}
        if not detect_missing(table) and not failed:
            report.closed = True
    report.failures = sorted(failed.items())
    return current, report


def _constant_insert_position(items: list) -> int:
    last_const = -1
    for i, item in enumerate(items):
        if isinstance(item, (MacroConst, GlobalDecl)):
            last_const = i
    if last_const >= 0:
        return last_const + 1
    # top of the unit, below any leading includes
    pos = 0
    while pos < len(items) and isinstance(items[pos], IncludeDirective):
        pos += 1
    return pos


@lru_cache(maxsize=ITEM_CACHE_SIZE)
def _parse_item(text: str, line: int, file_id: str) -> TopLevelItem:
    """The one item printed as `text`, parsed as if it started on `line`."""
    (item,) = parse("\n" * (line - 1) + text, file_id).items
    return item


def insert_patch(project: Project, patch: VettedPatch) -> Project:
    """Insert a vetted patch into the HAL unit.

    Constants and globals land after the last existing constant/global
    (top of the unit when there is none); functions append at the end. The
    result is the unit `parse(pretty_print(merged))` would give, spans
    included, built one item at a time: each item is printed, placed on the
    line `layout_items` gives it, and parsed on its own, which is exact
    because the printer starts every item at column 1 on a fresh line.
    Printed text is memoised per item and parsed items by (text, line, file
    id), so an item that is unchanged and has not moved is only looked up;
    the cached nodes are shared between projects, which is safe because no
    code changes a node after parsing.
    """
    hal = project.hal_unit()
    items = list(hal.items)
    for item in patch.items:
        if isinstance(item, FunctionDef):
            items.append(item)
        else:
            items.insert(_constant_insert_position(items), item)
    try:
        merged = [_parse_item(text, line, hal.file_id) for text, line in layout_items(items)]
    except (ParseError, LexError) as err:
        raise InternalError(f"inserted patch for '{patch.name}' broke the unit: {err}") from err
    return project.with_hal_unit(TranslationUnit(merged, hal.file_id))


def delete_element(project: Project, name: str) -> Project:
    """Remove the definition of `name` from the HAL unit."""
    defined_somewhere = any(
        item_name(item) == name for unit in project.units for item in unit.items)
    if not defined_somewhere:
        raise NotFound(f"'{name}' is not defined in this project")
    hal = project.hal_unit()
    kept = [item for item in hal.items if item_name(item) != name]
    if len(kept) == len(hal.items):
        raise NotInHalUnit(f"'{name}' is defined outside the HAL unit and cannot be deleted")
    return project.with_hal_unit(TranslationUnit(kept, hal.file_id))


def delete_all_hal(project: Project) -> tuple[Project, list[str]]:
    """Strip the HAL unit down to its include directives.

    Returns the new project and the deleted names in source order.
    """
    hal = project.hal_unit()
    deleted = [item_name(item) for item in hal.items if item_name(item) is not None]
    kept = [item for item in hal.items if isinstance(item, IncludeDirective)]
    new_hal = TranslationUnit(kept, hal.file_id)
    return project.with_hal_unit(new_hal), [n for n in deleted if n is not None]
