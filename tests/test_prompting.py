import pytest

from halgen.analysis import ElementKind, MissingElement
from halgen.c_ast import SourceSpan
from halgen.prompting import (
    CONTEXT_SEPARATOR,
    NO_CONTEXT_TEXT,
    PromptTemplate,
    SECTION_NAMES,
    TemplateError,
    build_prompt,
    default_template,
    load_template,
)
from halgen.retrieval import Snippet, SnippetKind

SPAN = SourceSpan("t.c", 1, 1, 1, 1)


def function_elem(name="set_io_mode", args=("GPIOA_BASE", "0x20", "1")):
    return MissingElement(name, ElementKind.FUNCTION, SPAN, False,
                          arity=len(args), sample_args=list(args))


def constant_elem(name="USART_SR_OFFSET"):
    return MissingElement(name, ElementKind.CONSTANT, SPAN, True)


def snippet(sid, text):
    return Snippet(sid, SnippetKind.FUNCTION, f"s{sid}", text, "hal.c", SPAN)


def test_default_cue_sentence():
    assert default_template().cue == \
        "You will be my Custom Hardware Abstraction Layer Generator."


def test_default_constraints_sentences():
    constraints = default_template().constraints
    assert "Don't reference new variables or functions that are not implemented." in constraints
    assert "Don't reference stm32fxxx_hal.h functions." in constraints


def test_default_return_format_sentences():
    return_format = default_template().return_format
    assert ("Be well-documented with comments explaining its purpose, "
            "parameters, and return value.") in return_format
    assert "Create your own custom HAL functions without referencing other functions." in return_format


def test_default_context_frame():
    assert "existing code for an STM32F407 board" in default_template().context_frame


def test_instruction_fill():
    prompt = build_prompt(function_elem(), None, [])
    instructions = prompt.section("Instructions")
    assert "the function 'set_io_mode' with 3 parameters like: GPIOA_BASE, 0x20, 1" \
        in instructions


def test_empty_context_notice():
    prompt = build_prompt(function_elem(), None, [])
    assert prompt.section("Context").endswith(NO_CONTEXT_TEXT)
    assert [name for name, _ in prompt.sections] == list(SECTION_NAMES)
    assert all(text.strip() for _, text in prompt.sections)


def test_retrieved_snippets_in_rank_order():
    first = snippet(0, "void first(void) {\n}")
    second = snippet(1, "void second(void) {\n}")
    prompt = build_prompt(function_elem(), None, [first, second])
    context = prompt.section("Context")
    assert first.text in context and second.text in context
    assert context.index(first.text) < context.index(second.text)
    between = context[context.index(first.text) + len(first.text):context.index(second.text)]
    assert between.strip() == CONTEXT_SEPARATOR


def test_constant_instructions_variant():
    prompt = build_prompt(constant_elem(), None, [])
    assert "a `#define` constant definition for 'USART_SR_OFFSET'" \
        in prompt.section("Instructions")


def test_render_is_deterministic():
    a = build_prompt(function_elem(), None, [snippet(0, "void f(void) {\n}")])
    b = build_prompt(function_elem(), None, [snippet(0, "void f(void) {\n}")])
    assert a.flattened == b.flattened


def test_flattened_joins_sections_with_blank_lines():
    prompt = build_prompt(function_elem(), None, [])
    assert prompt.flattened == "\n\n".join(text for _, text in prompt.sections)


def test_no_placeholder_survives():
    prompt = build_prompt(function_elem(), None, [snippet(0, "uint32_t v = 1;")])
    for placeholder in ("{function_name}", "{length_parameters}",
                        "{sample_parameters}", "{context}"):
        assert placeholder not in prompt.flattened


def test_zero_arity_renders():
    prompt = build_prompt(function_elem("enable_gpioa_clk", ()), None, [])
    assert "'enable_gpioa_clk' with 0 parameters" in prompt.section("Instructions")


def test_load_template_rejects_unknown_placeholder(tmp_path):
    bad = tmp_path / "t.txt"
    bad.write_text("[cue]\nHi {bogus}\n[instructions]\nx '{function_name}'\n"
                   "[constraints]\nc\n[return_format]\nr\n[context_frame]\n{context}\n")
    with pytest.raises(TemplateError) as err:
        load_template(bad)
    assert "bogus" in str(err.value)


def test_load_template_rejects_unknown_section(tmp_path):
    bad = tmp_path / "t.txt"
    bad.write_text("[shenanigans]\nx\n")
    with pytest.raises(TemplateError):
        load_template(bad)


def test_load_template_requires_all_sections(tmp_path):
    bad = tmp_path / "t.txt"
    bad.write_text("[cue]\nonly a cue\n")
    with pytest.raises(TemplateError) as err:
        load_template(bad)
    assert "instructions" in str(err.value)


def test_empty_rendered_section_rejected():
    template = PromptTemplate(cue=" ", instructions="i '{function_name}'",
                              constraints="c", return_format="r",
                              context_frame="{context}")
    with pytest.raises(TemplateError):
        build_prompt(function_elem(), None, [], template)
