import json

import pytest

from halgen.analysis import (
    ElementKind,
    MissingElement,
    build_symbol_table,
    detect_missing,
)
from halgen.c_ast import SourceSpan, parse
from halgen.completion import delete_element
from halgen.generation import (
    EmptyGeneration,
    KnowledgeBase,
    KnowledgeBaseError,
    Rejection,
    VetPolicy,
    VettedPatch,
    extract_code,
    vet_patch,
)
from halgen.prompting import build_prompt

SPAN = SourceSpan("t.c", 1, 1, 1, 1)


def elem_for(name, kind=ElementKind.FUNCTION, args=(), consumed=False):
    arity = len(args) if kind is ElementKind.FUNCTION else None
    return MissingElement(name, kind, SPAN, consumed, arity=arity,
                          sample_args=list(args))


def prompt_for(name, kind=ElementKind.FUNCTION, args=()):
    return build_prompt(elem_for(name, kind, args), None, [])


# --- extraction ---------------------------------------------------------------

def test_extract_fenced_block():
    assert extract_code("```c\nint f(void){return 0;}\n```") == "int f(void){return 0;}"


def test_extract_prose_then_fence():
    raw = "Here is the implementation you asked for:\n```\nuint32_t x = 1;\n```\nEnjoy!"
    assert extract_code(raw) == "uint32_t x = 1;"


def test_extract_first_of_two_fences():
    raw = "```c\nfirst();\n```\nand alternatively\n```c\nsecond();\n```"
    assert extract_code(raw) == "first();"


def test_extract_without_fence_trims():
    assert extract_code("  \nuint32_t x = 1;\n\n") == "uint32_t x = 1;"


def test_extract_empty_raises():
    with pytest.raises(EmptyGeneration):
        extract_code("   \n\n```\n\n```")


# --- knowledge base -------------------------------------------------------------

def test_kb_load_validates_entries(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"entries": [{"name": "f", "kind": "Function"}]}))
    (tmp_path / "f.c").write_text("void g(void) { }\n")  # defines the wrong name
    with pytest.raises(KnowledgeBaseError):
        KnowledgeBase.load(tmp_path)


def test_kb_load_requires_snippet_files(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"entries": [{"name": "f", "kind": "Function"}]}))
    with pytest.raises(KnowledgeBaseError):
        KnowledgeBase.load(tmp_path)


def test_kb_has_all_twelve_demo_elements(kb):
    assert len(kb.entries) == 12
    functions = [n for n, k in kb.kinds.items() if k is ElementKind.FUNCTION]
    constants = [n for n, k in kb.kinds.items() if k is ElementKind.CONSTANT]
    assert len(functions) == 6 and len(constants) == 6


def test_kb_backend_returns_canonical_text(kb_backend, canonical_set_io_mode):
    result = kb_backend.generate(prompt_for("set_io_mode", args=("GPIOA_BASE", "0x20", "1")))
    assert result.extracted_code == canonical_set_io_mode.strip()
    assert result.raw_text == canonical_set_io_mode
    assert result.backend_id == "kb"
    assert not result.provisional
    assert result.call_index == 1


def test_kb_backend_unknown_constant_falls_back(kb_backend):
    result = kb_backend.generate(prompt_for("FOO_OFFSET", ElementKind.CONSTANT))
    assert result.extracted_code == "#define FOO_OFFSET 0x00"
    assert result.provisional
    assert result.backend_id == "kb-fallback"


def test_kb_backend_unknown_function_stub_parses(kb_backend):
    result = kb_backend.generate(prompt_for("mystery_helper", args=("a", "b")))
    assert result.provisional
    unit = parse(result.extracted_code)
    assert unit.items[0].name == "mystery_helper"
    assert len(unit.items[0].params) == 2


def test_kb_backend_is_deterministic(kb_backend):
    prompt = prompt_for("hal_gpio_toggle", args=("GPIOA_BASE", "0x20"))
    first = kb_backend.generate(prompt)
    second = kb_backend.generate(prompt)
    assert first.raw_text == second.raw_text
    assert first.extracted_code == second.extracted_code
    assert (first.call_index, second.call_index) == (1, 2)


# --- vetting ---------------------------------------------------------------------

@pytest.fixture()
def gapped_table(demo_project):
    mutated = delete_element(demo_project, "set_io_mode")
    table = build_symbol_table(mutated)
    elem = detect_missing(table)[0]
    assert elem.name == "set_io_mode"
    return table, elem


def test_canonical_pin_mode_accepted(gapped_table, canonical_set_io_mode):
    table, elem = gapped_table
    verdict = vet_patch(canonical_set_io_mode, elem, table)
    assert isinstance(verdict, VettedPatch)
    assert verdict.name == "set_io_mode"
    assert len(verdict.items) == 1


def test_vendor_hal_reference_rejected(gapped_table, canonical_set_io_mode):
    table, elem = gapped_table
    poisoned = canonical_set_io_mode.replace(
        "    uint8_t pin_number = 0;",
        "    uint8_t pin_number = 0;\n    HAL_GPIO_WritePin(gpio_base, pin_mask, mode);")
    verdict = vet_patch(poisoned, elem, table)
    assert isinstance(verdict, Rejection)
    assert verdict.reasons == ["ForbiddenReference"]


def test_wrong_arity_rejected(gapped_table):
    table, elem = gapped_table
    two_param = "void set_io_mode(uint32_t gpio_base, uint32_t pin_mask) {\n}\n"
    verdict = vet_patch(two_param, elem, table)
    assert isinstance(verdict, Rejection)
    assert verdict.reasons == ["WrongArity"]


def test_parse_failure_rejected(gapped_table):
    table, elem = gapped_table
    verdict = vet_patch("void set_io_mode(uint32_t a { oops", elem, table)
    assert verdict.reasons == ["ParseFailed"]


def test_wrong_name_rejected(gapped_table):
    table, elem = gapped_table
    verdict = vet_patch("void somebody_else(void) {\n}\n", elem, table)
    assert verdict.reasons == ["WrongName"]


def test_kind_mismatch_is_wrong_name(gapped_table):
    table, elem = gapped_table
    verdict = vet_patch("#define set_io_mode 1", elem, table)
    assert verdict.reasons == ["WrongName"]


def test_forbidden_defined_name():
    source = "void app(void) { stm32_helper(); }"
    table = build_symbol_table(_single_unit_project(source))
    elem = detect_missing(table)[0]
    verdict = vet_patch("void stm32_helper(void) {\n}\n", elem, table)
    assert verdict.reasons == ["ForbiddenReference"]


def test_lowercase_hal_names_stay_legal(demo_project):
    mutated = delete_element(demo_project, "hal_gpio_write")
    table = build_symbol_table(mutated)
    elem = detect_missing(table)[0]
    canonical = (
        "void hal_gpio_write(uint32_t gpio_base, uint32_t pin_mask, uint8_t state) {\n"
        "    volatile uint32_t *gpio_odr = (uint32_t *)(gpio_base + 0x14);\n"
        "    if (state) {\n        *gpio_odr |= pin_mask;\n    } else {\n"
        "        *gpio_odr &= ~pin_mask;\n    }\n}\n")
    assert isinstance(vet_patch(canonical, elem, table), VettedPatch)


def test_unknown_reference_strict_vs_permissive(gapped_table):
    table, elem = gapped_table
    helperish = (
        "void set_io_mode(uint32_t gpio_base, uint32_t pin_mask, uint8_t mode) {\n"
        "    some_new_helper(gpio_base);\n}\n")
    permissive = vet_patch(helperish, elem, table, VetPolicy(strict=False))
    assert isinstance(permissive, VettedPatch)
    strict = vet_patch(helperish, elem, table, VetPolicy(strict=True))
    assert strict.reasons == ["UnknownReference"]


def test_allowed_external_names_silence_strict(gapped_table):
    table, elem = gapped_table
    code = ("void set_io_mode(uint32_t gpio_base, uint32_t pin_mask, uint8_t mode) {\n"
            "    pending_helper();\n}\n")
    policy = VetPolicy(strict=True, allowed_external_names=frozenset({"pending_helper"}))
    assert isinstance(vet_patch(code, elem, table, policy), VettedPatch)


def test_multiple_definitions_rejected_in_strict_mode(gapped_table):
    table, elem = gapped_table
    code = ("void helper(void) {\n}\n\n"
            "void set_io_mode(uint32_t a, uint32_t b, uint8_t c) {\n    helper();\n}\n")
    strict = vet_patch(code, elem, table, VetPolicy(strict=True))
    assert "MultipleDefinitions" in strict.reasons
    permissive = vet_patch(code, elem, table, VetPolicy(strict=False))
    assert isinstance(permissive, VettedPatch)
    assert len(permissive.items) == 2


def test_duplicate_target_definitions_rejected(gapped_table):
    table, elem = gapped_table
    code = ("void set_io_mode(uint32_t a, uint32_t b, uint8_t c) {\n}\n\n"
            "void set_io_mode(uint32_t a, uint32_t b, uint8_t c) {\n}\n")
    verdict = vet_patch(code, elem, table)
    assert verdict.reasons == ["MultipleDefinitions"]


def test_extra_definition_colliding_with_existing_rejected(gapped_table):
    table, elem = gapped_table
    code = ("#define GPIOA_BASE 0x40020000\n"
            "void set_io_mode(uint32_t a, uint32_t b, uint8_t c) {\n}\n")
    verdict = vet_patch(code, elem, table, VetPolicy(strict=False))
    assert "MultipleDefinitions" in verdict.reasons


def test_recursive_reference_to_own_name_allowed(gapped_table):
    table, elem = gapped_table
    code = ("void set_io_mode(uint32_t a, uint32_t b, uint8_t c) {\n"
            "    if (b) {\n        set_io_mode(a, b >> 1, c);\n    }\n}\n")
    assert isinstance(vet_patch(code, elem, table, VetPolicy(strict=True)), VettedPatch)


def _single_unit_project(source):
    from halgen.analysis import Project

    return Project((parse(source, "app.c"),), "app.c")
