"""Seeded long-running applications for the `simulate_long` workload.

Each application is a `main.c` written next to an unchanged copy of the
bundled `hal.c`. It mixes a 32-bit state through a helper function in a
counted loop, toggles an output pin on a state bit, samples a scripted
input pin and reports over USART, then folds its counters into a final
report and a final pin write.

The expected USART bytes and final RCC/GPIOA registers come from
`expected_run`, a Python model of the same program. It never calls
halgen, so a wrong interpreter cannot agree with it by construction.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

MASK32 = 0xFFFFFFFF

GPIOA_BASE = 0x40020000
RCC_AHB1ENR_NAME = "RCC.AHB1ENR"

# Loop rounds per program of one seed. The report period is fixed so that
# step counts (and so the work per operation) barely move with the seed;
# the seed changes constants, pins and the input script only.
LOOP_ROUNDS = (1_500, 4_000, 9_000)
REPORT_PERIOD = 8
INPUT_SCRIPT_BITS = 48

# Far above the largest program's step count (under 10^6): no verdict may
# end by fuel exhaustion, and `simulate_long` checks that none comes near.
FUEL_LIMIT = 50_000_000


@dataclass(frozen=True)
class Params:
    rounds: int
    period: int
    out_pin: int
    in_pin: int
    mul: int
    add: int
    shift: int
    toggle_bit: int
    final_bit: int
    weight: int
    init: int
    input_bits: tuple[int, ...]


@dataclass(frozen=True)
class Expected:
    log: bytes
    registers: dict[str, int]  # "PERIPH.REG" -> final stored value


def make_params(seed: int, slot: int) -> Params:
    rng = random.Random(f"simulate_long/{seed}/{slot}")
    out_pin = rng.randrange(16)
    in_pin = rng.choice([p for p in range(16) if p != out_pin])
    return Params(
        rounds=LOOP_ROUNDS[slot],
        period=REPORT_PERIOD,
        out_pin=out_pin,
        in_pin=in_pin,
        mul=rng.getrandbits(32) | 1,
        add=rng.getrandbits(32),
        shift=rng.randrange(5, 28),
        toggle_bit=rng.randrange(32),
        final_bit=rng.randrange(32),
        weight=rng.getrandbits(16) | 1,
        init=rng.getrandbits(32),
        input_bits=tuple(rng.getrandbits(1) for _ in range(INPUT_SCRIPT_BITS)),
    )


def render_main(p: Params) -> str:
    return f"""\
#include <stdint.h>
#include "hal.h"

#define GPIOA_BASE 0x{GPIOA_BASE:08X}
#define OUT_PIN 0x{1 << p.out_pin:X}
#define IN_PIN 0x{1 << p.in_pin:X}
#define MIX_MUL 0x{p.mul:08X}
#define MIX_ADD 0x{p.add:08X}
#define MIX_SHIFT {p.shift}
#define TOGGLE_BIT {p.toggle_bit}
#define FINAL_BIT {p.final_bit}
#define INPUT_WEIGHT {p.weight}
#define ROUNDS {p.rounds}
#define REPORT_EVERY {p.period}

uint32_t state = 0x{p.init:08X};
uint32_t toggles = 0;
uint16_t checksum = 0;

uint32_t mix(uint32_t x, uint32_t k) {{
    x = x * MIX_MUL + k;
    x = x ^ (x >> MIX_SHIFT);
    return x + MIX_ADD;
}}

void report(uint32_t value) {{
    usart_send_byte(value & 0x7F);
}}

int main(void) {{
    enable_gpioa_clk();
    set_io_mode(GPIOA_BASE, OUT_PIN, 1);
    set_io_mode(GPIOA_BASE, IN_PIN, 0);
    for (int i = 0; i < ROUNDS; i++) {{
        state = mix(state, i);
        if ((state >> TOGGLE_BIT) & 1) {{
            hal_gpio_toggle(GPIOA_BASE, OUT_PIN);
            toggles += 1;
        }}
        if (i % REPORT_EVERY == 0) {{
            uint32_t level = hal_gpio_read(GPIOA_BASE, IN_PIN);
            state = state + level * INPUT_WEIGHT;
            checksum = checksum + state;
            report(state);
        }}
    }}
    uint32_t spin = toggles;
    uint32_t ones = 0;
    while (spin != 0) {{
        ones = ones + (spin & 1);
        spin = spin >> 1;
    }}
    report(ones);
    report(toggles);
    report(toggles >> 7);
    report(checksum);
    report(checksum >> 7);
    hal_gpio_write(GPIOA_BASE, OUT_PIN, (state >> FINAL_BIT) & 1);
    return 0;
}}
"""


def expected_run(p: Params) -> Expected:
    """Python model of `render_main(p)` on the bundled board and HAL.

    Arithmetic wraps at 32 bits (16 for `checksum`); each input read takes
    the next scripted bit and repeats the last one once the script ends.
    USART bytes keep 7 bits, as `report` masks them: a scenario file holds
    the expected log as a JSON string that halgen encodes as UTF-8, so it
    cannot expect a byte of 0x80 or more.
    """
    out_mask = 1 << p.out_pin
    rcc = 0x1  # enable_gpioa_clk
    moder = 0
    for pin, mode in ((p.out_pin, 1), (p.in_pin, 0)):  # set_io_mode
        moder = (moder & ~(0x3 << (2 * pin)) & MASK32) | (mode << (2 * pin))
    odr = 0
    state, toggles, checksum = p.init, 0, 0
    reads = 0
    log = bytearray()
    for i in range(p.rounds):
        x = (state * p.mul + i) & MASK32
        x ^= x >> p.shift
        state = (x + p.add) & MASK32
        if (state >> p.toggle_bit) & 1:
            odr ^= out_mask
            toggles += 1
        if i % p.period == 0:
            level = p.input_bits[min(reads, len(p.input_bits) - 1)]
            reads += 1
            state = (state + level * p.weight) & MASK32
            checksum = (checksum + state) & 0xFFFF
            log.append(state & 0x7F)
    ones = bin(toggles).count("1")
    for value in (ones, toggles, toggles >> 7, checksum, checksum >> 7):
        log.append(value & 0x7F)
    if (state >> p.final_bit) & 1:
        odr |= out_mask
    else:
        odr &= ~out_mask & MASK32
    return Expected(bytes(log), {
        RCC_AHB1ENR_NAME: rcc,
        "GPIOA.MODER": moder,
        "GPIOA.ODR": odr,
    })


def scenario_json(p: Params, expected: Expected) -> dict:
    return {
        "gpio_inputs": {f"GPIOA:{p.in_pin}": list(p.input_bits)},
        "expected_log": expected.log.decode("ascii"),
        "expected_registers": [[name, f"0x{value:X}"] for name, value in expected.registers.items()],
        "fuel_limit": FUEL_LIMIT,
    }


@dataclass(frozen=True)
class Program:
    directory: Path
    scenario_path: Path
    params: Params
    expected: Expected


def write_program(p: Params, directory: Path, hal_source: Path) -> Program:
    """Write `main.c`, a copy of `hal_source` and `scenario.json` into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(hal_source, directory / "hal.c")
    (directory / "main.c").write_text(render_main(p), encoding="utf-8")
    expected = expected_run(p)
    scenario_path = directory / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_json(p, expected), indent=1) + "\n",
                             encoding="utf-8")
    return Program(directory, scenario_path, p, expected)


def write_programs(seed: int, root: Path, hal_source: Path) -> list[Program]:
    """One program per entry of LOOP_ROUNDS, each in its own directory."""
    return [write_program(make_params(seed, slot), root / f"program{slot}", hal_source)
            for slot in range(len(LOOP_ROUNDS))]
