"""Board map and scenario configuration for the MMIO simulator.

Both are JSON documents. Numeric fields accept plain integers or "0x.."
strings. A register's `behavior` selects its side-effect hook:

  plain     stored value only
  usart_sr  status register; the transmit-empty bit (bit 7) reads as set
  usart_dr  data register; writes append the low byte to the USART log
            (in strict mode only while bit 3 of a register named CR1 in
            the same peripheral is set)
  gpio_idr  input register; reads consume scripted per-pin input bits

A peripheral with a `clock_enable` of {"peripheral", "register", "bit"} is
gated: touching its registers while that bit is clear raises a diagnostic
(error under strict gating, warning otherwise).

The bundled stm32f407 map models RCC (AHB1ENR), GPIOA/GPIOD (MODER, IDR,
ODR) and USART2 (SR, DR, BRR, CR1) at their documented base addresses and
offsets; reset values are zeroed for fixture simplicity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from halgen.errors import HalgenError

BEHAVIORS = ("plain", "usart_sr", "usart_dr", "gpio_idr")

USART_TXE_BIT = 7
USART_TE_BIT = 3


class ConfigError(HalgenError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


def _num(value, where: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(where, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            raise ConfigError(where, f"not a number: {value!r}") from None
    raise ConfigError(where, f"expected an integer, found {type(value).__name__}")


def _word(value, where: str) -> int:
    """A 32-bit address or register value."""
    number = _num(value, where)
    if not 0 <= number <= 0xFFFFFFFF:
        raise ConfigError(where, f"{value!r} does not fit in 32 bits")
    return number


@dataclass
class RegisterSpec:
    name: str
    offset: int
    reset_value: int = 0
    behavior: str = "plain"


@dataclass
class ClockEnable:
    peripheral: str
    register: str
    bit: int


@dataclass
class PeripheralSpec:
    name: str
    base_address: int
    registers: list[RegisterSpec]
    clock_enable: ClockEnable | None = None

    def register_named(self, name: str) -> RegisterSpec | None:
        for reg in self.registers:
            if reg.name == name:
                return reg
        return None


@dataclass
class BoardMap:
    name: str
    peripherals: list[PeripheralSpec]
    _by_address: dict[int, tuple[PeripheralSpec, RegisterSpec]] = field(
        default_factory=dict, repr=False, compare=False)
    _gates: dict[tuple[str, str], tuple[int, RegisterSpec]] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._by_address = {}
        self._gates = {}
        for p_idx, periph in enumerate(self.peripherals):
            for r_idx, reg in enumerate(periph.registers):
                addr = (periph.base_address + reg.offset) & 0xFFFFFFFF
                if addr in self._by_address:
                    other = self._by_address[addr]
                    raise ConfigError(
                        f"peripherals[{p_idx}].registers[{r_idx}]",
                        f"address 0x{addr:08X} collides with {other[0].name}.{other[1].name}")
                self._by_address[addr] = (periph, reg)
        names = {p.name for p in self.peripherals}
        for p_idx, periph in enumerate(self.peripherals):
            ce = periph.clock_enable
            if ce is None:
                continue
            where = f"peripherals[{p_idx}].clock_enable"
            if ce.peripheral not in names:
                raise ConfigError(where, f"unknown peripheral '{ce.peripheral}'")
            target = next(p for p in self.peripherals if p.name == ce.peripheral)
            reg = target.register_named(ce.register)
            if reg is None:
                raise ConfigError(where, f"peripheral '{ce.peripheral}' has no register '{ce.register}'")
            if not 0 <= ce.bit <= 31:
                raise ConfigError(where, f"bit index {ce.bit} out of range")
            self._gates[ce.peripheral, ce.register] = (
                (target.base_address + reg.offset) & 0xFFFFFFFF, reg)

    def register_at(self, address: int) -> tuple[PeripheralSpec, RegisterSpec] | None:
        return self._by_address.get(address & 0xFFFFFFFF)

    def clock_gate(self, gate: ClockEnable) -> tuple[int, RegisterSpec]:
        """The address and register of a peripheral's clock-enable bit."""
        return self._gates[gate.peripheral, gate.register]

    def address_of(self, peripheral: str, register: str) -> int:
        for periph in self.peripherals:
            if periph.name == peripheral:
                reg = periph.register_named(register)
                if reg is not None:
                    return (periph.base_address + reg.offset) & 0xFFFFFFFF
        raise KeyError(f"{peripheral}.{register}")


def load_board_map(path: str | Path) -> BoardMap:
    """Load and validate a board map JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top level must be an object")
    name = data.get("name", path.stem)
    peripherals = []
    raw_periphs = data.get("peripherals")
    if not isinstance(raw_periphs, list):
        raise ConfigError("peripherals", "expected a list")
    for p_idx, raw in enumerate(raw_periphs):
        where = f"peripherals[{p_idx}]"
        if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
            raise ConfigError(where, "expected an object with a string name")
        raw_registers = raw.get("registers", [])
        if not isinstance(raw_registers, list):
            raise ConfigError(f"{where}.registers", "expected a list")
        registers = []
        for r_idx, reg in enumerate(raw_registers):
            r_where = f"{where}.registers[{r_idx}]"
            if not isinstance(reg, dict) or not isinstance(reg.get("name"), str):
                raise ConfigError(r_where, "expected an object with a string name")
            behavior = reg.get("behavior", "plain")
            if behavior not in BEHAVIORS:
                raise ConfigError(f"{r_where}.behavior", f"unknown behavior '{behavior}'")
            registers.append(RegisterSpec(
                name=reg["name"],
                offset=_num(reg.get("offset", 0), f"{r_where}.offset"),
                reset_value=_num(reg.get("reset_value", 0), f"{r_where}.reset_value") & 0xFFFFFFFF,
                behavior=behavior,
            ))
        clock_enable = None
        if raw.get("clock_enable") is not None:
            ce = raw["clock_enable"]
            ce_where = f"{where}.clock_enable"
            if not isinstance(ce, dict):
                raise ConfigError(ce_where, "expected an object")
            for key in ("peripheral", "register", "bit"):
                if key not in ce:
                    raise ConfigError(ce_where, f"missing key '{key}'")
            for key in ("peripheral", "register"):
                if not isinstance(ce[key], str):
                    raise ConfigError(f"{ce_where}.{key}", "expected a string")
            clock_enable = ClockEnable(ce["peripheral"], ce["register"], _num(ce["bit"], f"{ce_where}.bit"))
        peripherals.append(PeripheralSpec(
            name=raw["name"],
            base_address=_num(raw.get("base_address", 0), f"{where}.base_address") & 0xFFFFFFFF,
            registers=registers,
            clock_enable=clock_enable,
        ))
    return BoardMap(name, peripherals)


DEFAULT_FUEL_LIMIT = 1_000_000


@dataclass
class Scenario:
    """Scripted inputs and expected outputs for one program run."""

    gpio_inputs: dict[tuple[str, int], list[int]] = field(default_factory=dict)
    expected_log: bytes = b""
    expected_registers: list[tuple[int, int]] = field(default_factory=list)
    fuel_limit: int = DEFAULT_FUEL_LIMIT

    def __post_init__(self):
        for (periph, pin), bits in self.gpio_inputs.items():
            if not 0 <= pin <= 15:
                raise ConfigError(f"gpio_inputs[{periph}:{pin}]", "pin index must be in 0..15")
            for bit in bits:
                if bit not in (0, 1):
                    raise ConfigError(f"gpio_inputs[{periph}:{pin}]", "input bits must be 0 or 1")


def load_scenario(path: str | Path, board: BoardMap | None = None) -> Scenario:
    """Load a scenario JSON file.

    The top level is an object. `gpio_inputs` maps "PERIPHERAL:PIN" keys
    to lists of input bits; with a board map, the peripheral must be one of
    its own. `expected_registers` entries are [address, value] pairs of
    32-bit numbers; the address may also be a "PERIPHERAL.REGISTER" name
    when a board map is given. `expected_log` is a JSON string holding one
    byte per character, latin-1 encoded: "\\u00ff" is the byte 0xFF, and a
    character above U+00FF is a ConfigError, as is any malformed field.
    `fuel_limit` must be positive.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top level must be an object")
    raw_inputs = data.get("gpio_inputs", {})
    if not isinstance(raw_inputs, dict):
        raise ConfigError("gpio_inputs", "expected an object")
    gpio_inputs: dict[tuple[str, int], list[int]] = {}
    peripherals = {p.name for p in board.peripherals} if board is not None else None
    for key, bits in raw_inputs.items():
        periph, _, pin = key.partition(":")
        try:
            pin_index = int(pin)
        except ValueError:
            raise ConfigError(f"gpio_inputs[{key}]", 'keys must look like "GPIOA:5"') from None
        if peripherals is not None and periph not in peripherals:
            raise ConfigError(f"gpio_inputs[{key}]", f"unknown peripheral '{periph}'")
        if not isinstance(bits, list):
            raise ConfigError(f"gpio_inputs[{key}]", "expected a list of input bits")
        gpio_inputs[(periph, pin_index)] = [_num(b, f"gpio_inputs[{key}]") for b in bits]
    raw_registers = data.get("expected_registers", [])
    if not isinstance(raw_registers, list):
        raise ConfigError("expected_registers", "expected a list")
    expected_registers = []
    for i, entry in enumerate(raw_registers):
        where = f"expected_registers[{i}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ConfigError(where, "expected [address, value]")
        target, value = entry
        if isinstance(target, str) and "." in target:
            if board is None:
                raise ConfigError(where, f"named register '{target}' needs a board map")
            periph, _, reg = target.partition(".")
            try:
                address = board.address_of(periph, reg)
            except KeyError:
                raise ConfigError(where, f"unknown register '{target}'") from None
        else:
            address = _word(target, where)
        expected_registers.append((address, _word(value, where)))
    log_text = data.get("expected_log", "")
    if not isinstance(log_text, str):
        raise ConfigError("expected_log", f"expected a string, found {type(log_text).__name__}")
    try:
        expected_log = log_text.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise ConfigError("expected_log", f"character {log_text[exc.start]!r} at index "
                          f"{exc.start} is above U+00FF, not a byte") from None
    fuel_limit = _num(data.get("fuel_limit", DEFAULT_FUEL_LIMIT), "fuel_limit")
    if fuel_limit <= 0:
        raise ConfigError("fuel_limit", f"must be positive, found {fuel_limit}")
    return Scenario(
        gpio_inputs=gpio_inputs,
        expected_log=expected_log,
        expected_registers=expected_registers,
        fuel_limit=fuel_limit,
    )
