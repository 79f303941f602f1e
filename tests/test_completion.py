from dataclasses import replace

import pytest

import halgen.completion
from halgen.analysis import (
    DuplicateDefinition,
    ElementKind,
    Project,
    build_symbol_table,
    detect_missing,
)
from halgen.c_ast import (
    FunctionDef,
    MacroConst,
    ParseError,
    TranslationUnit,
    item_name,
    parse,
    pretty_print,
)
from halgen.completion import (
    ITEM_CACHE_SIZE,
    CompletionLimits,
    InternalError,
    NotFound,
    NotInHalUnit,
    complete,
    delete_all_hal,
    delete_element,
    insert_patch,
)
from halgen.generation import BackendError, GenerationResult, NETWORK, VetPolicy, VettedPatch, vet_patch
from halgen.retrieval import build_index, chunk_codebase
from halgen.simulate import exec_program

HAL_ELEMENTS = [
    "RCC_BASE", "RCC_AHB1ENR_OFFSET", "USART2_BASE", "USART_SR_OFFSET",
    "USART_DR_OFFSET", "USART_FLAG_TXE", "enable_gpioa_clk", "set_io_mode",
    "hal_gpio_write", "hal_gpio_read", "hal_gpio_toggle", "usart_send_byte",
]


def retrieval_for(project):
    snippets = chunk_codebase(project)
    return build_index(snippets), snippets


def run_complete(project, backend, **kwargs):
    index, snippets = retrieval_for(project)
    return complete(project, backend, index, snippets, **kwargs)


class ScriptedBackend:
    """Returns canned texts in order; repeats the last one when exhausted."""

    backend_id = "scripted"

    def __init__(self, texts):
        self.texts = list(texts)
        self.calls = 0

    def generate(self, prompt):
        text = self.texts[min(self.calls, len(self.texts) - 1)]
        self.calls += 1
        if isinstance(text, Exception):
            raise text
        return GenerationResult(text, text.strip(), self.backend_id, self.calls)


# --- complete() ----------------------------------------------------------------

def test_single_deletion_closes_in_one_call(demo_project, kb_backend):
    mutated = delete_element(demo_project, "set_io_mode")
    completed, report = run_complete(mutated, kb_backend)
    assert report.closed
    assert [entry[0] for entry in report.inserted] == ["set_io_mode"]
    assert report.total_calls == 1
    assert detect_missing(build_symbol_table(completed)) == []


def test_full_hal_deletion_closes_with_twelve_calls(demo_project, kb_backend):
    mutated, deleted = delete_all_hal(demo_project)
    assert len(deleted) == 12
    completed, report = run_complete(mutated, kb_backend)
    assert report.closed
    assert len(report.inserted) == 12
    assert report.total_calls == 12
    assert sorted(entry[0] for entry in report.inserted) == sorted(HAL_ELEMENTS)
    assert all(entry[2] == "kb" for entry in report.inserted)  # no fallbacks
    assert all(entry[3] == 0 for entry in report.inserted)  # no rejections


def test_already_closed_project_is_untouched(demo_project, kb_backend):
    completed, report = run_complete(demo_project, kb_backend)
    assert completed is demo_project
    assert report.closed
    assert report.total_calls == 0
    assert report.inserted == []


def test_call_accounting_invariant(demo_project, kb_backend):
    mutated, _ = delete_all_hal(demo_project)
    _, report = run_complete(mutated, kb_backend)
    assert len(report.inserted) <= report.total_calls <= CompletionLimits().max_calls


def test_rejection_retry_appends_feedback(demo_project, kb):
    mutated = delete_element(demo_project, "set_io_mode")
    bad = "void set_io_mode(uint32_t a) {\n}\n"  # wrong arity
    good = kb.entries["set_io_mode"]
    backend = ScriptedBackend([bad, good])
    completed, report = run_complete(mutated, backend)
    assert report.closed
    assert report.total_calls == 2
    name, kind, backend_id, rejections = report.inserted[0]
    assert (name, rejections) == ("set_io_mode", 1)
    assert detect_missing(build_symbol_table(completed)) == []


def test_unvettable_element_recorded_as_failure(demo_project):
    mutated = delete_element(demo_project, "set_io_mode")
    backend = ScriptedBackend(["void wrong_name(void) {\n}\n"])
    _, report = run_complete(mutated, backend)
    assert not report.closed
    assert report.failures == [("set_io_mode", ["WrongName"])]
    assert report.total_calls == CompletionLimits().max_rejections_per_element


def test_backend_error_aborts_element_not_run(demo_project):
    mutated = delete_element(demo_project, "set_io_mode")
    backend = ScriptedBackend([BackendError(NETWORK, "connection refused")])
    _, report = run_complete(mutated, backend)
    assert not report.closed
    assert report.failures == [("set_io_mode", ["backend:network"])]


def test_max_calls_limit_stops_run(demo_project, kb_backend):
    mutated, _ = delete_all_hal(demo_project)
    _, report = run_complete(mutated, kb_backend,
                             limits=CompletionLimits(max_calls=3))
    assert not report.closed
    assert report.total_calls <= 3
    assert any(reasons == ["limit:max_calls"] for _, reasons in report.failures)


def test_strict_vetting_blocks_cascading_unknowns(demo_project, kb_backend):
    # canonical enable_gpioa_clk references constants that are not defined
    # and not yet detected; strict mode must refuse it
    from halgen.generation import VetPolicy

    mutated = delete_element(demo_project, "enable_gpioa_clk")
    mutated = delete_element(mutated, "RCC_BASE")
    mutated = delete_element(mutated, "RCC_AHB1ENR_OFFSET")
    _, strict_report = run_complete(mutated, kb_backend, policy=VetPolicy(strict=True))
    assert not strict_report.closed
    assert any("UnknownReference" in reasons for _, reasons in strict_report.failures)


def test_permissive_mode_cascades_to_new_constants(demo_project, kb_backend):
    mutated = delete_element(demo_project, "enable_gpioa_clk")
    mutated = delete_element(mutated, "RCC_BASE")
    mutated = delete_element(mutated, "RCC_AHB1ENR_OFFSET")
    completed, report = run_complete(mutated, kb_backend)
    assert report.closed
    assert sorted(e[0] for e in report.inserted) == \
        ["RCC_AHB1ENR_OFFSET", "RCC_BASE", "enable_gpioa_clk"]
    assert report.iterations_used >= 2  # constants surface one wave later


def test_monotone_progress_terminates(demo_project, kb_backend):
    mutated, _ = delete_all_hal(demo_project)
    _, report = run_complete(mutated, kb_backend)
    assert report.iterations_used <= CompletionLimits().max_iterations


def test_report_json_keys(demo_project, kb_backend):
    mutated = delete_element(demo_project, "hal_gpio_read")
    _, report = run_complete(mutated, kb_backend)
    data = report.to_json_dict()
    assert list(data) == ["iterations_used", "total_calls", "inserted", "failures",
                          "closed", "per_element_similarity"]


# --- exhaustive single-deletion equivalence ------------------------------------

def test_every_single_deletion_regenerates_to_passing_project(
        demo_project, kb_backend, board, scenario):
    _, pristine_verdict = exec_program(demo_project, board, scenario)
    assert pristine_verdict.passed
    for name in HAL_ELEMENTS:
        mutated = delete_element(demo_project, name)
        completed, report = run_complete(mutated, kb_backend)
        assert report.closed, name
        _, verdict = exec_program(completed, board, scenario)
        assert verdict.passed == pristine_verdict.passed, name


def test_delete_then_reinsert_is_structurally_stable(demo_project, kb):
    original_items = {item_name(i): i for i in demo_project.hal_unit().items
                      if item_name(i) is not None}
    for name in HAL_ELEMENTS:
        mutated = delete_element(demo_project, name)
        table = build_symbol_table(mutated)
        elem = detect_missing(table)[0]
        patch = vet_patch(kb.entries[name], elem, table)
        assert isinstance(patch, VettedPatch), name
        restored = insert_patch(mutated, patch)
        restored_items = {item_name(i): i for i in restored.hal_unit().items
                          if item_name(i) is not None}
        assert set(restored_items) == set(original_items)
        assert restored_items[name] == original_items[name], name


# --- insert_patch -----------------------------------------------------------------

def _patch(code, kind=ElementKind.CONSTANT):
    unit = parse(code, "<patch>")
    name = item_name(unit.items[0])
    return VettedPatch(name, kind, list(unit.items), code)


def test_constant_inserted_after_existing_constants():
    consts = "\n".join(f"#define C{i} {i}" for i in range(7))
    unit_src = consts + "\nvoid f(void) { }\n"
    project = Project((parse(unit_src, "hal.c"),), "hal.c")
    patched = insert_patch(project, _patch("#define RCC_BASE 0x40023800"))
    items = patched.hal_unit().items
    assert item_name(items[7]) == "RCC_BASE"  # eighth constant
    assert isinstance(items[7], MacroConst)
    assert isinstance(items[8], FunctionDef)  # still before all functions


def test_constant_inserted_below_leading_includes():
    project = Project((parse("#include <stdint.h>\nvoid f(void) { }\n", "hal.c"),), "hal.c")
    patched = insert_patch(project, _patch("#define A 1"))
    names = [item_name(i) for i in patched.hal_unit().items]
    assert names == [None, "A", "f"]


def test_function_appends_to_empty_unit():
    project = Project((parse("", "hal.c"), parse("int main(void) { return 0; }", "main.c")),
                      "hal.c")
    patched = insert_patch(project, _patch("void f(void) { }", ElementKind.FUNCTION))
    assert [item_name(i) for i in patched.hal_unit().items] == ["f"]


def test_inserted_function_appears_once_in_print(demo_project, kb, kb_backend):
    mutated = delete_element(demo_project, "set_io_mode")
    completed, _ = run_complete(mutated, kb_backend)
    printed = pretty_print(completed.hal_unit())
    assert printed.count("void set_io_mode(") == 1


def test_insertion_result_reparses(demo_project, kb):
    mutated = delete_element(demo_project, "usart_send_byte")
    table = build_symbol_table(mutated)
    elem = detect_missing(table)[0]
    patch = vet_patch(kb.entries["usart_send_byte"], elem, table)
    restored = insert_patch(mutated, patch)
    reparsed = parse(pretty_print(restored.hal_unit()), "hal.c")
    assert reparsed == restored.hal_unit()


# --- deletion utilities --------------------------------------------------------------

def test_delete_element_only_touches_target(demo_project):
    mutated = delete_element(demo_project, "hal_gpio_write")
    assert [m.name for m in detect_missing(build_symbol_table(mutated))] == ["hal_gpio_write"]
    hal_names = [item_name(i) for i in mutated.hal_unit().items if item_name(i)]
    assert "hal_gpio_write" not in hal_names
    assert len(hal_names) == 11
    assert mutated.units[1] is demo_project.units[1]  # app unit untouched


def test_delete_nonexistent_name(demo_project):
    with pytest.raises(NotFound):
        delete_element(demo_project, "does_not_exist")


def test_delete_app_layer_definition_refused(demo_project):
    with pytest.raises(NotInHalUnit):
        delete_element(demo_project, "main")


def test_delete_all_hal_keeps_includes(demo_project):
    mutated, deleted = delete_all_hal(demo_project)
    assert deleted == HAL_ELEMENTS
    remaining = mutated.hal_unit().items
    assert len(remaining) == 1
    assert item_name(remaining[0]) is None  # the include survives


def test_delete_all_hal_idempotent_on_empty(demo_project):
    once, _ = delete_all_hal(demo_project)
    twice, deleted = delete_all_hal(once)
    assert deleted == []
    assert twice.hal_unit() == once.hal_unit()


def test_full_deletion_missing_covers_app_references(demo_project):
    mutated, deleted = delete_all_hal(demo_project)
    missing = {m.name for m in detect_missing(build_symbol_table(mutated))}
    # everything the app layer references directly is detected immediately
    assert {"enable_gpioa_clk", "set_io_mode", "hal_gpio_write", "hal_gpio_read",
            "hal_gpio_toggle", "usart_send_byte", "USART2_BASE"} <= missing
    assert missing <= set(deleted)


# --- edge guards -----------------------------------------------------------------------

def test_complete_with_empty_index_skips_retrieval(demo_project, kb_backend):
    from halgen.retrieval import VectorIndex

    mutated = delete_element(demo_project, "set_io_mode")
    completed, report = complete(mutated, kb_backend, VectorIndex([]), [])
    assert report.closed
    assert report.total_calls == 1


def test_stale_failure_pruned_when_sibling_patch_defines_it():
    # FOO_A's own generations are garbage, but FOO_B's patch also defines
    # FOO_A; the run still closes and the stale failure disappears
    source = "uint32_t a = FOO_A;\nuint32_t b = FOO_B;\n"
    project = Project((parse(source, "hal.c"),), "hal.c")
    backend = ScriptedBackend([
        "void wrong(void) {\n}\n",
        "void wrong(void) {\n}\n",
        "void wrong(void) {\n}\n",
        "#define FOO_B 1\n#define FOO_A 2\n",
    ])
    completed, report = run_complete(project, backend)
    assert report.closed
    assert report.failures == []
    assert detect_missing(build_symbol_table(completed)) == []
    assert [e[0] for e in report.inserted] == ["FOO_B"]
    assert report.total_calls == 4


def test_project_invariants_enforced(demo_project):
    units = demo_project.units
    with pytest.raises(ValueError):
        Project(units, "not_a_unit.c")
    with pytest.raises(ValueError):
        Project(units + (units[0],), "hal.c")


# --- one symbol table per fixed-point round ----------------------------------------

@pytest.fixture()
def table_builds(monkeypatch):
    builds = []
    original = halgen.completion.build_symbol_table

    def counting(project):
        builds.append(project)
        return original(project)

    monkeypatch.setattr(halgen.completion, "build_symbol_table", counting)
    return builds


def test_symbol_table_built_once_per_round(demo_project, kb_backend, table_builds):
    mutated, _ = delete_all_hal(demo_project)
    _, report = run_complete(mutated, kb_backend)
    assert report.closed and len(report.inserted) == 12
    assert len(table_builds) == report.iterations_used == 3


def test_symbol_table_builds_with_closing_check(demo_project, kb_backend, table_builds):
    mutated, _ = delete_all_hal(demo_project)
    _, report = run_complete(mutated, kb_backend, limits=CompletionLimits(max_calls=5))
    assert not report.closed
    assert len(table_builds) == report.iterations_used + 1


def test_collision_with_earlier_insert_of_the_round_is_rejected():
    # FOO_A is inserted first; FOO_B's first patch redefines it and must be
    # rejected although the round's table was built before FOO_A existed
    source = "uint32_t a = FOO_A;\nuint32_t b = FOO_B;\n"
    project = Project((parse(source, "hal.c"),), "hal.c")
    backend = ScriptedBackend([
        "#define FOO_A 1\n",
        "#define FOO_B 2\n#define FOO_A 3\n",
        "#define FOO_B 2\n",
    ])
    _, report = run_complete(project, backend)
    assert report.closed
    assert report.inserted == [("FOO_A", "Constant", "scripted", 0),
                               ("FOO_B", "Constant", "scripted", 1)]
    assert report.iterations_used == 2


def test_strict_vetting_allows_names_missing_in_the_same_round():
    # FOO_A's patch references FOO_B, which nobody defines yet but which
    # is itself missing in this round, so strict vetting lets it through
    source = "uint32_t a = FOO_A;\nuint32_t b = FOO_B;\n"
    project = Project((parse(source, "hal.c"),), "hal.c")
    backend = ScriptedBackend(["#define FOO_A (FOO_B + 1)\n", "#define FOO_B 2\n"])
    _, report = run_complete(project, backend, policy=VetPolicy(strict=True))
    assert report.closed
    assert report.inserted == [("FOO_A", "Constant", "scripted", 0),
                               ("FOO_B", "Constant", "scripted", 0)]
    assert report.iterations_used == 2


def test_duplicate_from_an_insert_of_the_round_is_not_silent():
    # FOO_B's patch also defines FOO_C, which is still pending in the same
    # round; the round's table already holds FOO_C, so it is skipped instead
    # of being generated and inserted a second time
    source = "uint32_t b = FOO_B;\nuint32_t c = FOO_C;\n"
    project = Project((parse(source, "hal.c"),), "hal.c")
    backend = ScriptedBackend(["#define FOO_B 1\n#define FOO_C 2\n", "#define FOO_C 3\n"])
    completed, report = run_complete(project, backend)
    assert report.closed
    assert backend.calls == 1
    assert [e[0] for e in report.inserted] == ["FOO_B"]
    assert detect_missing(build_symbol_table(completed)) == []


def test_patch_defining_an_extra_name_twice_is_not_silent():
    # vetting rejects an extra name that collides with the table, not one
    # the patch defines twice itself; the insert then duplicates it, and the
    # run stops with the error a full rebuild reports, at the lines the
    # printed layout gives the two items, before FOO_D is generated
    source = "uint32_t b = FOO_B;\nuint32_t c = FOO_C;\nuint32_t d = FOO_D;\n"
    project = Project((parse(source, "hal.c"),), "hal.c")
    backend = ScriptedBackend(["#define FOO_B 1\n#define FOO_C 2\n#define FOO_C 3\n",
                               "#define FOO_D 4\n"])
    with pytest.raises(DuplicateDefinition) as err:
        run_complete(project, backend)
    assert err.value.name == "FOO_C"
    assert [s.start_line for s in err.value.spans] == [5, 6]
    assert backend.calls == 1


# --- insert_patch places items one at a time ----------------------------------------

def _print_parse_insert(project, patch):
    """The merged HAL unit printed whole and parsed back: insert_patch's reference."""
    hal = project.hal_unit()
    items = list(hal.items)
    for item in patch.items:
        if isinstance(item, FunctionDef):
            items.append(item)
        else:
            items.insert(halgen.completion._constant_insert_position(items), item)
    merged = parse(pretty_print(TranslationUnit(items, hal.file_id)), hal.file_id)
    return project.with_hal_unit(merged)


def test_reinserting_every_demo_element_matches_print_then_parse(demo_project, kb):
    for cold in (True, False):
        if cold:
            halgen.completion._parse_item.cache_clear()
        for name in HAL_ELEMENTS:
            mutated = delete_element(demo_project, name)
            table = build_symbol_table(mutated)
            patch = vet_patch(kb.entries[name], detect_missing(table)[0], table)
            inserted = insert_patch(mutated, patch).hal_unit()
            # repr includes spans and literal spellings, which == ignores
            assert repr(inserted) == repr(_print_parse_insert(mutated, patch).hal_unit()), name
            assert repr(inserted) == repr(parse(pretty_print(inserted), "hal.c")), name
    assert halgen.completion._parse_item.cache_info().hits > 0


def test_completed_hollow_demo_matches_print_then_parse_inserts(
        demo_project, kb_backend, monkeypatch):
    hollow, _ = delete_all_hal(demo_project)
    halgen.completion._parse_item.cache_clear()
    completed, report = run_complete(hollow, kb_backend)
    warm, _ = run_complete(hollow, kb_backend)
    monkeypatch.setattr(halgen.completion, "insert_patch", _print_parse_insert)
    reference, reference_report = run_complete(hollow, kb_backend)
    assert report.closed
    assert report.to_json_dict() == reference_report.to_json_dict()
    assert repr(completed) == repr(warm) == repr(reference)


def test_second_complete_leaves_first_result_unchanged(demo_project, kb_backend, board, scenario):
    # the memoized items are shared between the two results, so neither
    # completion nor simulation may change a node
    hollow, _ = delete_all_hal(demo_project)
    first, _ = run_complete(hollow, kb_backend)
    before = repr(first)
    exec_program(first, board, scenario)
    second, _ = run_complete(hollow, kb_backend)
    exec_program(second, board, scenario)
    assert repr(first) == before == repr(second)
    assert all(a is b for a, b in zip(first.hal_unit().items, second.hal_unit().items))


def test_unparseable_item_raises_internal_error_positioned_in_the_unit():
    project = Project((parse("#define A 1\nvoid f(void) { }\n", "hal.c"),), "hal.c")
    (decl,) = parse("uint32_t w;", "<patch>").items
    patch = VettedPatch("w", ElementKind.CONSTANT, [replace(decl, name="while")], "")
    with pytest.raises(ParseError) as whole_unit:
        _print_parse_insert(project, patch)
    with pytest.raises(InternalError) as err:
        insert_patch(project, patch)
    assert str(err.value) == f"inserted patch for 'w' broke the unit: {whole_unit.value}"
    assert str(whole_unit.value).startswith("hal.c:2:10: ")


def test_item_memo_is_bounded():
    empty = Project((parse("", "hal.c"),), "hal.c")
    halgen.completion._parse_item.cache_clear()
    for i in range(ITEM_CACHE_SIZE + 10):
        insert_patch(empty, _patch(f"#define C{i} {i}"))
    assert halgen.completion._parse_item.cache_info().currsize == ITEM_CACHE_SIZE
    evicted = insert_patch(empty, _patch("#define C0 0")).hal_unit()
    assert repr(evicted) == repr(parse("#define C0 0\n", "hal.c"))
