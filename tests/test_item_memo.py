"""The per-item memo of derived facts.

`print_item`, `definition_of` and the per-item references behind
`collect_external_references` are memoised by item identity; the facts a
completed project reads from the memo must equal those derived afresh from
a new parse of its text, and collected items must leave the memo.
"""

import gc

import pytest

from halgen.analysis import (
    _item_references,
    build_symbol_table,
    collect_external_references,
    definition_of,
    detect_missing,
    load_project,
)
from halgen.c_ast import item_name, parse, per_item, pretty_print, print_item
from halgen.completion import complete, delete_all_hal, delete_element
from halgen.config import default_project_path
from halgen.generation import RejectionReason, _parse_patch, vet_patch
from halgen.retrieval import build_index, chunk_codebase

MEMOISED = (print_item, definition_of, _item_references)

PRISTINE = load_project(default_project_path())
HAL_ELEMENTS = [item_name(i) for i in PRISTINE.hal_unit().items if item_name(i) is not None]


def _completed(project, kb_backend):
    snippets = chunk_codebase(project)
    completed, report = complete(project, kb_backend, build_index(snippets), snippets)
    assert report.closed
    return completed


def _facts(unit, derive):
    """Every memoised fact of `unit`, as reprs so that spans are compared too."""
    return repr([(derive[0](item), derive[1](item)) for item in unit.items]
                + [derive[2](unit)])


def _fresh_references(unit):
    return [ref for item in unit.items for ref in _item_references.__wrapped__(item)]


@pytest.mark.parametrize("deleted", HAL_ELEMENTS + [None])
def test_memoised_facts_equal_a_fresh_derivation(deleted, kb_backend):
    mutated = delete_all_hal(PRISTINE)[0] if deleted is None else delete_element(PRISTINE, deleted)
    completed = _completed(mutated, kb_backend)
    for unit in completed.units:
        memoised = _facts(unit, (print_item, definition_of, collect_external_references))
        # the inserts leave the HAL unit as a parse of its printed text
        text = (pretty_print(unit) if unit.file_id == completed.hal_unit_id
                else (default_project_path() / unit.file_id).read_text(encoding="utf-8"))
        fresh_unit = parse(text, unit.file_id)
        fresh = _facts(fresh_unit, (print_item.__wrapped__, definition_of.__wrapped__,
                                    _fresh_references))
        assert memoised == fresh


def test_an_item_is_derived_once(demo_project):
    calls = []

    @per_item
    def name_of(item):
        calls.append(item)
        return item_name(item)

    items = demo_project.hal_unit().items
    assert [name_of(i) for i in items] == [name_of(i) for i in items]
    assert calls == items


def test_collected_items_leave_the_memo():
    gc.collect()
    before = [len(fn.memo) for fn in MEMOISED]
    peak = before
    for i in range(1000):
        unit = parse(f"#define M{i} {i}\nuint32_t g{i}(void) {{\n    return M{i};\n}}\n")
        for item in unit.items:
            print_item(item)
            definition_of(item)
        collect_external_references(unit)
        if i == 0:
            peak = [len(fn.memo) for fn in MEMOISED]
    del unit, item
    gc.collect()
    assert all(p > b for p, b in zip(peak, before))
    assert [len(fn.memo) for fn in MEMOISED] == before


def test_a_text_that_fails_to_parse_is_not_kept(demo_project):
    mutated = delete_element(demo_project, "set_io_mode")
    table = build_symbol_table(mutated)
    (elem,) = detect_missing(table)
    misses = _parse_patch.cache_info().misses
    for _ in range(2):
        assert vet_patch("void set_io_mode(", elem, table).reasons == [
            RejectionReason.PARSE_FAILED.value]
    assert _parse_patch.cache_info().misses == misses + 2
