import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halgen.analysis import (
    ConflictingArity,
    DuplicateDefinition,
    ElementKind,
    MissingElement,
    Project,
    build_symbol_table,
    detect_missing,
    infer_signature,
    load_project,
    token_similarity,
)
from halgen.analysis import _levenshtein
from halgen.c_ast import BaseType, CType, SourceSpan, normalize_tokens, parse
from halgen.completion import delete_element

HAL_ELEMENTS = [
    "RCC_BASE", "RCC_AHB1ENR_OFFSET", "USART2_BASE", "USART_SR_OFFSET",
    "USART_DR_OFFSET", "USART_FLAG_TXE", "enable_gpioa_clk", "set_io_mode",
    "hal_gpio_write", "hal_gpio_read", "hal_gpio_toggle", "usart_send_byte",
]


def project_of(*sources: str) -> Project:
    units = tuple(parse(src, f"u{i}.c") for i, src in enumerate(sources))
    return Project(units, units[0].file_id)


# --- edit distance oracle: full-matrix DP, written independently of the
# two-row implementation under test -----------------------------------------

def dp_edit_distance(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            substitution = table[i - 1][j - 1] + (a[i - 1] != b[j - 1])
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1, substitution)
    return table[len(a)][len(b)]


def oracle_similarity(a: str, b: str) -> float:
    seq_a, seq_b = normalize_tokens(a), normalize_tokens(b)
    if not seq_a and not seq_b:
        return 1.0
    return 1.0 - dp_edit_distance(seq_a, seq_b) / max(len(seq_a), len(seq_b))


# --- symbol table -----------------------------------------------------------

def test_definition_and_single_call(canonical_set_io_mode):
    proj = project_of(canonical_set_io_mode + "\nvoid f(void) { set_io_mode(1, 2, 3); }")
    table = build_symbol_table(proj)
    assert table.definitions["set_io_mode"].kind is ElementKind.FUNCTION
    calls = [r for r in table.references["set_io_mode"] if r.site_kind == "Call"]
    assert len(calls) == 1


def test_empty_project_empty_table():
    table = build_symbol_table(project_of(""))
    assert table.definitions == {}
    assert table.references == {}


def test_parameters_and_locals_never_referenced():
    proj = project_of(
        "void f(uint32_t mode) {\n"
        "    uint32_t local = mode + 1;\n"
        "    if (local) { uint32_t inner = local; g(inner); }\n"
        "}\n")
    table = build_symbol_table(proj)
    assert "mode" not in table.references
    assert "local" not in table.references
    assert "inner" not in table.references
    assert "g" in table.references


def test_for_scope_binds_its_declaration():
    proj = project_of("void f(void) { for (uint32_t i = 0; i < 3; ++i) { g(i); } }")
    refs = build_symbol_table(proj).references
    assert "i" not in refs


def test_macro_and_global_initializers_are_references():
    proj = project_of("#define ADDR (BASE + OFFSET)\nuint32_t cached = ADDR;")
    refs = build_symbol_table(proj).references
    assert set(refs) == {"BASE", "OFFSET", "ADDR"}
    assert all(r.value_consumed for r in refs["BASE"])


def test_duplicate_definition_rejected():
    with pytest.raises(DuplicateDefinition) as err:
        build_symbol_table(project_of("#define X 1", "uint32_t X = 2;"))
    assert err.value.name == "X"
    assert len(err.value.spans) == 2


def test_demo_fixture_definition_census(demo_project):
    table = build_symbol_table(demo_project)
    for name in HAL_ELEMENTS:
        assert name in table.definitions
    assert table.definitions["hal_gpio_read"].kind is ElementKind.FUNCTION
    assert table.definitions["USART2_BASE"].kind is ElementKind.CONSTANT


# --- missing detection --------------------------------------------------------

def test_closed_project_has_no_missing(demo_project):
    assert detect_missing(build_symbol_table(demo_project)) == []


def test_undefined_function_and_constant():
    proj = project_of("void app(void) { hal_gpio_write(GPIOD_BASE, 0x1000, 1); }")
    missing = detect_missing(build_symbol_table(proj))
    by_name = {m.name: m for m in missing}
    assert set(by_name) == {"hal_gpio_write", "GPIOD_BASE"}
    fn = by_name["hal_gpio_write"]
    assert fn.kind is ElementKind.FUNCTION
    assert fn.arity == 3
    assert fn.sample_args == ["GPIOD_BASE", "0x1000", "1"]
    assert by_name["GPIOD_BASE"].kind is ElementKind.CONSTANT
    assert by_name["GPIOD_BASE"].value_consumed


def test_detection_order_is_first_reference_position():
    proj = project_of(
        "void app(void) {\n    second();\n    first();\n}\n",
        "void other(void) {\n    zeroth();\n}\n")
    # unit order: u0.c before u1.c; u0 references come first
    names = [m.name for m in detect_missing(build_symbol_table(proj))]
    assert names == ["second", "first", "zeroth"]


def test_detection_is_deterministic(demo_project):
    mutated = delete_element(demo_project, "usart_send_byte")
    first = detect_missing(build_symbol_table(mutated))
    second = detect_missing(build_symbol_table(mutated))
    assert [(m.name, m.kind, m.arity, tuple(m.sample_args)) for m in first] == \
           [(m.name, m.kind, m.arity, tuple(m.sample_args)) for m in second]


def test_single_deletion_yields_exactly_that_name(demo_project):
    # hand-built dependency expectation: in the demo fixture every element
    # is referenced by surviving code, so deleting any one definition
    # re-detects precisely that one name
    for name in HAL_ELEMENTS:
        mutated = delete_element(demo_project, name)
        missing = detect_missing(build_symbol_table(mutated))
        assert [m.name for m in missing] == [name], name


def test_conflicting_arity():
    proj = project_of("void app(void) { h(1); h(1, 2); }")
    with pytest.raises(ConflictingArity):
        detect_missing(build_symbol_table(proj))


def test_value_consumed_contexts():
    proj = project_of(
        "void app(void) {\n"
        "    used_in_assign();\n"
        "    uint32_t x = used_in_init();\n"
        "    if (used_in_cond()) { }\n"
        "    statement_only();\n"
        "    outer(inner());\n"
        "}\n"
        "uint32_t ret(void) { return used_in_return(); }\n")
    by_name = {m.name: m for m in detect_missing(build_symbol_table(proj))}
    assert not by_name["used_in_assign"].value_consumed  # result discarded
    assert by_name["used_in_init"].value_consumed
    assert by_name["used_in_cond"].value_consumed
    assert not by_name["statement_only"].value_consumed
    assert by_name["inner"].value_consumed
    assert not by_name["outer"].value_consumed
    assert by_name["used_in_return"].value_consumed


def test_plain_assignment_target_not_consumed():
    proj = project_of("void app(void) { MISSING = 1; }")
    elem = detect_missing(build_symbol_table(proj))[0]
    assert elem.kind is ElementKind.CONSTANT
    assert not elem.value_consumed


def test_compound_assignment_target_consumed():
    proj = project_of("void app(void) { MISSING |= 1; }")
    elem = detect_missing(build_symbol_table(proj))[0]
    assert elem.value_consumed


def test_soundness_missing_names_never_defined(demo_project):
    mutated = delete_element(demo_project, "hal_gpio_write")
    table = build_symbol_table(mutated)
    for elem in detect_missing(table):
        assert elem.name not in table.definitions


# --- signature inference ------------------------------------------------------

def _elem(name, args, consumed):
    span = SourceSpan("t.c", 1, 1, 1, 1)
    return MissingElement(name, ElementKind.FUNCTION, span, consumed,
                          arity=len(args), sample_args=list(args))


def test_pin_mode_signature_matches_declared():
    sig = infer_signature(_elem("set_io_mode", ["GPIOA_BASE", "0x20", "1"], False))
    assert sig.param_types == [CType(BaseType.U32), CType(BaseType.U32), CType(BaseType.U8)]
    assert sig.return_type == CType(BaseType.VOID)


def test_consumed_result_returns_u32():
    sig = infer_signature(_elem("hal_gpio_read", ["GPIOA_BASE", "0x20"], True))
    assert sig.return_type == CType(BaseType.U32)


def test_zero_arity_unused():
    sig = infer_signature(_elem("enable_gpioa_clk", [], False))
    assert sig.param_types == []
    assert sig.return_type == CType(BaseType.VOID)


def test_hex_literal_stays_u32_even_if_small():
    sig = infer_signature(_elem("f", ["0x01", "255", "256"], False))
    assert [t.base for t in sig.param_types] == [BaseType.U32, BaseType.U8, BaseType.U32]


def test_infer_signature_rejects_constants():
    span = SourceSpan("t.c", 1, 1, 1, 1)
    with pytest.raises(ValueError):
        infer_signature(MissingElement("C", ElementKind.CONSTANT, span, False))


# --- token similarity ----------------------------------------------------------

def test_identical_texts_score_one(canonical_set_io_mode):
    assert token_similarity(canonical_set_io_mode, canonical_set_io_mode) == 1.0


def test_rename_and_literal_invariance():
    assert token_similarity("x=1;", "longer_name = 0xFF ;") == 1.0


def test_both_empty_scores_one():
    assert token_similarity("", "") == 1.0


def test_one_empty_scores_zero():
    assert token_similarity("", "x = 1;") == 0.0


def test_loop_rewrite_matches_oracle(canonical_set_io_mode):
    rewritten = canonical_set_io_mode.replace(
        "    uint8_t pin_number = 0;\n"
        "    while ((pin_mask >> pin_number) != 1) {\n"
        "        pin_number++;\n"
        "    }\n",
        "    uint8_t pin_number = 0;\n"
        "    for (pin_number = 0; (pin_mask >> pin_number) != 1; pin_number++) {\n"
        "    }\n")
    assert rewritten != canonical_set_io_mode
    expected = oracle_similarity(canonical_set_io_mode, rewritten)
    assert 0.0 < expected < 1.0
    assert token_similarity(canonical_set_io_mode, rewritten) == pytest.approx(expected, abs=1e-12)


def test_similarity_matches_oracle_on_random_pairs():
    rng = random.Random(1234)
    vocabulary = ["alpha", "beta", "gamma", "reg", "mask", "0x1", "0x20", "42",
                  "+", "-", "<<", ">>", "&", "|", "^", "(", ")", ";", "=", "*"]
    for _ in range(50):
        a = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(0, 40)))
        b = " ".join(rng.choice(vocabulary) for _ in range(rng.randrange(0, 40)))
        assert token_similarity(a, b) == pytest.approx(oracle_similarity(a, b), abs=1e-12)


def test_similarity_is_symmetric():
    rng = random.Random(99)
    words = ["x", "y", "1", "2", "+", ";", "(", ")"]
    for _ in range(25):
        a = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 20)))
        b = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 20)))
        assert token_similarity(a, b) == token_similarity(b, a)


def test_load_project_requires_sources(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_project(tmp_path)


def test_load_project_hal_unit_defaults(demo_dir, tmp_path):
    proj = load_project(demo_dir)
    assert proj.hal_unit_id == "hal.c"
    (tmp_path / "app.c").write_text("int main(void) { return 0; }\n")
    assert load_project(tmp_path).hal_unit_id == "app.c"


token_runs = st.lists(st.sampled_from(["ID", "LIT", "(", ")", ";", "=", "+"]), max_size=10)


@settings(max_examples=400, deadline=None)
@given(token_runs, token_runs, token_runs, token_runs)
def test_levenshtein_matches_dp_oracle_around_shared_prefix_and_suffix(prefix, a, b, suffix):
    # the implementation strips a shared prefix and suffix before its DP;
    # the oracle runs the full matrix
    x, y = prefix + a + suffix, prefix + b + suffix
    assert _levenshtein(x, y) == dp_edit_distance(x, y)
    assert _levenshtein(a, b) == dp_edit_distance(a, b)
