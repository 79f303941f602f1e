import json

import pytest

from halgen.analysis import Project
from halgen.c_ast import parse
from halgen.simulate import (
    ConfigError,
    Scenario,
    SimSetupError,
    check_scenario,
    exec_program,
    load_board_map,
    load_scenario,
)

GPIOA = 0x40020000
GPIOD = 0x40020C00
USART2 = 0x40004400
RCC_AHB1ENR = 0x40023800 + 0x30


def project_of(*sources) -> Project:
    units = tuple(parse(src, f"u{i}.c") for i, src in enumerate(sources))
    return Project(units, units[0].file_id)


def run(source, board, scenario=None, strict=False):
    return exec_program(project_of(source), board, scenario or Scenario(), strict)


# --- board map loading ---------------------------------------------------------

def test_default_board_layout(board):
    assert board.name == "stm32f407"
    usart = next(p for p in board.peripherals if p.name == "USART2")
    sr = usart.register_named("SR")
    assert sr.offset == 0x00
    assert sr.behavior == "usart_sr"
    assert usart.register_named("DR").offset == 0x04
    assert usart.register_named("BRR").offset == 0x08
    assert usart.register_named("CR1").offset == 0x0C
    gpioa = next(p for p in board.peripherals if p.name == "GPIOA")
    assert (gpioa.clock_enable.peripheral, gpioa.clock_enable.bit) == ("RCC", 0)
    assert board.register_at(GPIOA + 0x14)[1].name == "ODR"
    assert board.register_at(GPIOD + 0x00)[1].name == "MODER"


def test_duplicate_register_addresses_rejected(tmp_path):
    bad = {
        "name": "dup",
        "peripherals": [{
            "name": "P",
            "base_address": "0x40000000",
            "registers": [
                {"name": "A", "offset": 0},
                {"name": "B", "offset": 0},
            ],
        }],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError) as err:
        load_board_map(path)
    assert "registers[1]" in str(err.value)


def test_clock_enable_must_reference_existing_register(tmp_path):
    bad = {
        "name": "dangling",
        "peripherals": [{
            "name": "P",
            "base_address": "0x40000000",
            "clock_enable": {"peripheral": "RCC", "register": "AHB1ENR", "bit": 0},
            "registers": [{"name": "A", "offset": 0}],
        }],
    }
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError):
        load_board_map(path)


def test_peripheral_without_clock_enable_is_ungated(board):
    # USART2 carries no clock_enable in the default map: touching it before
    # any clock setup is silent even in strict mode
    source = (
        "int main(void) {\n"
        "    volatile uint32_t *brr = (uint32_t *)(0x40004400 + 0x08);\n"
        "    *brr = 0x683;\n"
        "    return 0;\n"
        "}\n")
    state, verdict = run(source, board, strict=True)
    assert verdict.passed
    assert state.mmio[USART2 + 0x08] == 0x683


def test_scenario_loader_resolves_register_names(board, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "gpio_inputs": {"GPIOA:5": [1, 0]},
        "expected_log": "OK",
        "expected_registers": [["GPIOA.ODR", "0x20"], [RCC_AHB1ENR, 1]],
    }))
    scenario = load_scenario(path, board)
    assert scenario.gpio_inputs == {("GPIOA", 5): [1, 0]}
    assert scenario.expected_log == b"OK"
    assert scenario.expected_registers == [(GPIOA + 0x14, 0x20), (RCC_AHB1ENR, 1)]


def test_scenario_rejects_bad_pin(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"gpio_inputs": {"GPIOA:16": [1]}}))
    with pytest.raises(ConfigError):
        load_scenario(path)


# --- pin-mode semantics (independent bit-arithmetic oracle) ---------------------

def oracle_moder(preset: int, pin_mask: int, mode: int) -> int:
    pin = 0
    while (pin_mask >> pin) != 1:
        pin += 1
    cleared = preset & ~(0x3 << (pin * 2)) & 0xFFFFFFFF
    return cleared | (mode << (pin * 2))


PIN_MODE_PROGRAM = """\
#define GPIOA_BASE 0x40020000

void set_io_mode(uint32_t gpio_base, uint32_t pin_mask, uint8_t mode) {{
    volatile uint32_t *GPIO_MODER = (uint32_t *)(gpio_base + 0x00);
    uint8_t pin_number = 0;
    while ((pin_mask >> pin_number) != 1) {{
        pin_number++;
    }}
    *GPIO_MODER &= ~(0x3 << (pin_number * 2));
    *GPIO_MODER |= (mode << (pin_number * 2));
}}

int main(void) {{
    volatile uint32_t *moder = (uint32_t *)(GPIOA_BASE + 0x00);
    *moder = {preset};
    set_io_mode(GPIOA_BASE, {pin_mask}, {mode});
    return 0;
}}
"""


def test_specific_pin_mode_case(board):
    source = PIN_MODE_PROGRAM.format(preset="0xFFFFFFFF", pin_mask="0x20", mode=1)
    state, _ = run(source, board)
    assert state.mmio[GPIOA] == 0xFFFFF7FF


def test_pin_mode_table_against_oracle(board):
    for pin in range(16):
        for mode in range(4):
            mask = 1 << pin
            source = PIN_MODE_PROGRAM.format(preset="0xFFFFFFFF",
                                             pin_mask=hex(mask), mode=mode)
            state, _ = run(source, board)
            assert state.mmio[GPIOA] == oracle_moder(0xFFFFFFFF, mask, mode), (pin, mode)


def test_pin_mode_mask_one_exits_immediately(board):
    source = PIN_MODE_PROGRAM.format(preset="0x0", pin_mask="0x1", mode=3)
    state, verdict = run(source, board)
    assert state.mmio[GPIOA] == 0x3  # pin 0: loop never iterates
    assert verdict.steps_used < 100


def test_pin_mode_mask_zero_exhausts_fuel(board):
    source = PIN_MODE_PROGRAM.format(preset="0x0", pin_mask="0x0", mode=1)
    state, verdict = run(source, board, Scenario(fuel_limit=20_000))
    messages = [d.message for d in verdict.diagnostics]
    assert "fuel exhausted" in messages
    assert not verdict.passed
    assert verdict.steps_used <= 20_000


# --- demo fixture end to end ------------------------------------------------------

def test_demo_fixture_logs_pass(demo_project, board, scenario):
    state, verdict = exec_program(demo_project, board, scenario)
    assert state.usart_log == b"PASS\n"
    assert verdict.passed
    assert verdict.log_match
    assert all(ok for *_ignored, ok in verdict.register_matches)


def test_demo_fixture_passes_strict_gating(demo_project, board, scenario):
    _, verdict = exec_program(demo_project, board, scenario, strict_gating=True)
    assert verdict.passed
    assert not verdict.diagnostics


def test_wrong_expected_log_fails(demo_project, board, scenario):
    scenario.expected_log = b"FAIL\n"
    _, verdict = exec_program(demo_project, board, scenario)
    assert not verdict.log_match
    assert not verdict.passed


def test_write_then_register_expectation(board):
    source = (
        "#define GPIOA_BASE 0x40020000\n"
        "void hal_gpio_write(uint32_t gpio_base, uint32_t pin_mask, uint8_t state) {\n"
        "    volatile uint32_t *gpio_odr = (uint32_t *)(gpio_base + 0x14);\n"
        "    if (state) {\n        *gpio_odr |= pin_mask;\n    } else {\n"
        "        *gpio_odr &= ~pin_mask;\n    }\n}\n"
        "int main(void) {\n    hal_gpio_write(GPIOA_BASE, 0x1000, 1);\n    return 0;\n}\n")
    scenario = Scenario(expected_registers=[(GPIOA + 0x14, 0x1000)])
    _, verdict = run(source, board, scenario)
    assert verdict.register_matches == [(GPIOA + 0x14, 0x1000, 0x1000, True)]
    assert verdict.passed


# --- machine semantics ---------------------------------------------------------------

def test_32bit_wraparound(board):
    source = (
        "int main(void) {\n"
        "    volatile uint32_t *odr = (uint32_t *)(0x40020000 + 0x14);\n"
        "    *odr = 0xFFFFFFFF + 1;\n"
        "    return 0;\n}\n")
    state, _ = run(source, board)
    assert state.mmio[GPIOA + 0x14] == 0


def test_register_isolation(demo_project, board, scenario):
    state, _ = exec_program(demo_project, board, scenario)
    gpiod_addresses = {GPIOD + off for off in (0x00, 0x10, 0x14)}
    assert not gpiod_addresses & set(state.mmio)
    for addr in gpiod_addresses:
        assert state.register_value(addr) == 0


def test_strict_clock_gating_flags_early_access(board):
    source = (
        "int main(void) {\n"
        "    volatile uint32_t *moder = (uint32_t *)(0x40020000 + 0x00);\n"
        "    *moder = 1;\n"
        "    return 0;\n}\n")
    _, strict_verdict = run(source, board, strict=True)
    assert not strict_verdict.passed
    assert any("clock is disabled" in d.message and d.severity == "error"
               for d in strict_verdict.diagnostics)
    _, lax_verdict = run(source, board, strict=False)
    assert lax_verdict.passed
    assert any(d.severity == "warning" for d in lax_verdict.diagnostics)


def test_strict_usart_requires_transmit_enable(board):
    source = (
        "#define USART2_BASE 0x40004400\n"
        "int main(void) {\n"
        "    volatile uint32_t *dr = (uint32_t *)(USART2_BASE + 0x04);\n"
        "    *dr = 65;\n"
        "    return 0;\n}\n")
    state, verdict = run(source, board, strict=True)
    assert state.usart_log == b""
    assert not verdict.passed
    state, verdict = run(source, board, strict=False)
    assert state.usart_log == b"A"


def test_gpio_input_script_consumed_per_read(board):
    source = (
        "#define GPIOA_BASE 0x40020000\n"
        "uint32_t reads = 0;\n"
        "int main(void) {\n"
        "    volatile uint32_t *idr = (uint32_t *)(GPIOA_BASE + 0x10);\n"
        "    reads = reads + (*idr & 0x20);\n"
        "    reads = reads + (*idr & 0x20);\n"
        "    reads = reads + (*idr & 0x20);\n"
        "    return 0;\n}\n")
    scenario = Scenario(gpio_inputs={("GPIOA", 5): [1, 0]})
    state, _ = run(source, board, scenario)
    # reads: scripted 1, scripted 0, then sticky last value 0
    assert state.globals["reads"] == 0x20


def test_global_initializer_reads_the_input_script(board):
    # the script's read positions exist before the initializers run
    source = "uint32_t level = *(volatile uint32_t *) 0x40020010;\nint main(void) { return 0; }\n"
    state, _ = run(source, board, Scenario(gpio_inputs={("GPIOA", 3): [1]}))
    assert state.globals == {"level": 1 << 3}


@pytest.mark.parametrize("init, fuel, message", [
    ("1 + 2", 2, "fuel exhausted"),
    ("main", 100, "function 'main' used as a value"),
])
def test_a_global_initializer_that_halts_fails_the_verdict(board, init, fuel, message):
    source = f"uint32_t total = {init};\nuint32_t after = 5;\nint main(void) {{ after = 6; }}\n"
    state, verdict = run(source, board, Scenario(fuel_limit=fuel))
    assert not verdict.passed
    assert [(d.severity, d.message, d.span.start_line) for d in verdict.diagnostics] == [
        ("error", message, 1)]
    assert state.globals == {"total": 0, "after": 0}  # main never ran


def test_a_long_macro_chain_resolves(board):
    # longer than the default Python stack allows when each link recurses
    chain = "".join(f"#define M{i} M{i + 1}\n" for i in range(600))
    state, _ = run(chain + "#define M600 1\nuint32_t s = M0;\nint main(void) { }\n", board)
    assert state.globals == {"s": 1}


def test_wild_address_is_diagnosed_not_fatal(board):
    source = (
        "uint32_t got = 0;\n"
        "int main(void) {\n"
        "    volatile uint32_t *p = (uint32_t *)0x1234;\n"
        "    *p = 7;\n"
        "    got = *p + 1;\n"
        "    return 0;\n}\n")
    state, verdict = run(source, board)
    assert state.globals["got"] == 1  # wild reads yield zero
    assert any("wild-address" in d.message for d in verdict.diagnostics)
    assert not verdict.passed


def test_division_by_zero_diagnosed(board):
    source = (
        "uint32_t q = 0;\n"
        "int main(void) {\n    uint32_t z = 0;\n    q = 5 / z;\n    return 0;\n}\n")
    state, verdict = run(source, board)
    assert state.globals["q"] == 0
    assert any("division by zero" in d.message for d in verdict.diagnostics)


def test_oversized_shift_diagnosed(board):
    source = "uint32_t v = 0;\nint main(void) {\n    v = 1 << 40;\n    return 0;\n}\n"
    state, verdict = run(source, board)
    assert state.globals["v"] == 0
    assert any("shift count" in d.message for d in verdict.diagnostics)


def test_signed_comparison_only_for_plain_ints(board):
    source = (
        "uint32_t signed_result = 0;\n"
        "uint32_t unsigned_result = 0;\n"
        "int main(void) {\n"
        "    int a = 0 - 1;\n"
        "    if (a < 0) { signed_result = 1; }\n"
        "    uint32_t b = 0 - 1;\n"
        "    if (b < 1) { unsigned_result = 1; }\n"
        "    return 0;\n}\n")
    state, _ = run(source, board)
    assert state.globals["signed_result"] == 1  # -1 < 0 signed
    assert state.globals["unsigned_result"] == 0  # 0xFFFFFFFF not < 1 unsigned


def test_narrow_types_mask_on_store(board):
    source = (
        "uint32_t out = 0;\n"
        "int main(void) {\n"
        "    uint8_t small = 0x1FF;\n"
        "    uint16_t mid = 0x12345;\n"
        "    out = small + mid;\n"
        "    return 0;\n}\n")
    state, _ = run(source, board)
    assert state.globals["out"] == 0xFF + 0x2345


def test_globals_and_address_of(board):
    source = (
        "uint32_t cell = 5;\n"
        "int main(void) {\n"
        "    volatile uint32_t *p = &cell;\n"
        "    *p = *p + 1;\n"
        "    return 0;\n}\n")
    state, verdict = run(source, board)
    assert state.globals["cell"] == 6
    assert verdict.passed


def test_fuel_depletes_on_infinite_loop(board):
    source = "int main(void) {\n    while (1) {\n    }\n    return 0;\n}\n"
    state, verdict = run(source, board, Scenario(fuel_limit=5_000))
    assert state.fuel == 0
    assert verdict.steps_used == 5_000
    assert not verdict.passed


def test_recursion_depth_limited(board):
    source = (
        "uint32_t spin(uint32_t n) {\n    return spin(n + 1);\n}\n"
        "int main(void) {\n    spin(0);\n    return 0;\n}\n")
    _, verdict = run(source, board)
    assert any("call depth" in d.message for d in verdict.diagnostics)


# --- setup errors ----------------------------------------------------------------------

def test_open_project_is_setup_error(board):
    with pytest.raises(SimSetupError):
        exec_program(project_of("int main(void) { missing_helper(); return 0; }"),
                     board, Scenario())


def test_missing_main_is_setup_error(board):
    with pytest.raises(SimSetupError):
        exec_program(project_of("void not_main(void) { }"), board, Scenario())


def test_main_with_parameters_is_setup_error(board):
    with pytest.raises(SimSetupError):
        exec_program(project_of("int main(uint32_t argc) { return 0; }"), board, Scenario())


# --- check_scenario -----------------------------------------------------------------------

def test_empty_expectations_pass(demo_project, board):
    pin_high = Scenario(gpio_inputs={("GPIOA", 5): [1]}, expected_log=b"PASS\n")
    state, _ = exec_program(demo_project, board, pin_high)
    verdict = check_scenario(state, Scenario(expected_log=b"PASS\n"))
    assert verdict.log_match
    assert check_scenario(state, Scenario()).log_match is False  # log is non-empty


def test_log_mismatch_details(demo_project, board, scenario):
    state, _ = exec_program(demo_project, board, scenario)
    wrong = Scenario(expected_log=b"FAIL\n")
    verdict = check_scenario(state, wrong)
    assert not verdict.passed and not verdict.log_match


def test_verdict_json_shape(demo_project, board, scenario):
    _, verdict = exec_program(demo_project, board, scenario)
    data = verdict.to_json_dict()
    assert set(data) == {"passed", "log_match", "register_matches", "diagnostics",
                         "steps_used"}
    assert data["register_matches"][0]["ok"] is True


def test_determinism(demo_project, board, scenario, kb_backend):
    runs = [exec_program(demo_project, board, scenario) for _ in range(2)]
    (state_a, verdict_a), (state_b, verdict_b) = runs
    assert state_a.usart_log == state_b.usart_log
    assert state_a.mmio == state_b.mmio
    assert verdict_a.steps_used == verdict_b.steps_used
    assert verdict_a.passed == verdict_b.passed


def test_logical_operators_short_circuit(board):
    source = (
        "uint32_t hits = 0;\n"
        "uint32_t bump(void) {\n    hits = hits + 1;\n    return 1;\n}\n"
        "int main(void) {\n"
        "    uint32_t z = 0;\n"
        "    if (z != 0 && 5 / z) { hits = 100; }\n"
        "    if (z == 0 || bump()) { }\n"
        "    if (z != 0 && bump()) { }\n"
        "    return 0;\n}\n")
    state, verdict = run(source, board)
    # no division-by-zero diagnostic: the && never evaluated its right side
    assert not any("division" in d.message for d in verdict.diagnostics)
    assert state.globals["hits"] == 0  # both bump() calls were skipped
    assert verdict.passed
