"""Interpreter for completed programs against a simulated MMIO board.

Semantics: all arithmetic is 32-bit unsigned with wraparound; comparisons
are signed only when both operands are statically plain ``int``. A
dereference whose address matches a mapped register goes through that
register's behavior hook; any other address is diagnosed as a wild access
(reads yield 0, writes are dropped, execution continues). Every statement
and expression evaluation costs one unit of fuel, charged before its
operands are evaluated; running out of fuel is the only way a diverging
program ends, and it fails the verdict.

Execution never raises for program-level misbehavior: shift counts >= 32,
division by zero, wild addresses, and clock-gating violations all record
diagnostics with a defined result so that a single run reports everything
it saw.

Function bodies and global initializers run as closures (see
`halgen.simulate.compiler`), compiled for the machine once its globals are
laid out: every function body before the global initializers run, each
initializer when it runs.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import NoReturn

from halgen.errors import HalgenError
from halgen.analysis import Project, build_symbol_table, detect_missing
from halgen.c_ast import (
    Binary,
    CType,
    Expr,
    FunctionDef,
    GlobalDecl,
    Ident,
    IntLit,
    MacroConst,
    Paren,
    SourceSpan,
    Unary,
)
from halgen.simulate.board import (
    BoardMap,
    PeripheralSpec,
    Scenario,
    USART_TE_BIT,
    USART_TXE_BIT,
)
from halgen.simulate.compiler import MASK32, compile_function, compile_initializer, width_mask

GLOBALS_BASE_ADDRESS = 0x20000000  # synthetic RAM slots for address-taken globals

_MAX_CALL_DEPTH = 64
_MAX_DIAGNOSTICS = 1000


class SimSetupError(HalgenError):
    pass


@dataclass
class Diagnostic:
    severity: str  # "error" or "warning"
    message: str
    span: SourceSpan | None = None


@dataclass
class MachineState:
    globals: dict[str, int]
    mmio: dict[int, int]
    usart_log: bytes
    fuel: int
    diagnostics: list[Diagnostic]
    steps_used: int
    board: BoardMap

    def register_value(self, address: int) -> int:
        """Current raw stored value (or reset default) at a register address."""
        address &= MASK32
        if address in self.mmio:
            return self.mmio[address]
        hit = self.board.register_at(address)
        return hit[1].reset_value if hit else 0


@dataclass
class Verdict:
    passed: bool
    log_match: bool
    register_matches: list[tuple[int, int, int, bool]]  # address, expected, actual, ok
    diagnostics: list[Diagnostic]
    steps_used: int

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "log_match": self.log_match,
            "register_matches": [
                {"address": f"0x{addr:08X}", "expected": expected, "actual": actual, "ok": ok}
                for addr, expected, actual, ok in self.register_matches
            ],
            "diagnostics": [
                {"severity": d.severity, "message": d.message,
                 "where": (f"{d.span.file_id}:{d.span.start_line}" if d.span else None)}
                for d in self.diagnostics
            ],
            "steps_used": self.steps_used,
        }


class _Halt(Exception):
    """Fatal condition: fuel exhausted, call depth, or diagnostic overflow."""


class _Unresolved(Exception):
    """A macro body names the macro in `args[0]`, which is not folded yet."""


class _Machine:
    def __init__(self, project: Project, board: BoardMap, scenario: Scenario,
                 strict_gating: bool):
        self.board = board
        self.scenario = scenario
        self.strict = strict_gating
        self.fuel = scenario.fuel_limit
        self.diagnostics: list[Diagnostic] = []
        self._seen_diags: set[tuple[str, str]] = set()
        self.mmio: dict[int, int] = {}
        self.usart_log = bytearray()
        self.call_depth = 0

        self.functions: dict[str, FunctionDef] = {}
        self.macro_items: dict[str, MacroConst] = {}
        global_items: list[GlobalDecl] = []
        for unit in project.units:
            for item in unit.items:
                if isinstance(item, FunctionDef):
                    self.functions[item.name] = item
                elif isinstance(item, MacroConst):
                    self.macro_items[item.name] = item
                elif isinstance(item, GlobalDecl):
                    global_items.append(item)

        # per-(peripheral, pin) scripted input positions and sticky last bit
        self._idr_pos: dict[tuple[str, int], int] = {k: 0 for k in scenario.gpio_inputs}
        self._idr_last: dict[tuple[str, int], int] = {}

        self.global_types: dict[str, CType] = {}
        self.global_masks: dict[str, int] = {}
        self.global_values: dict[str, int] = {}
        self.global_addresses: dict[str, int] = {}
        self.address_to_global: dict[int, str] = {}
        for i, decl in enumerate(global_items):
            address = GLOBALS_BASE_ADDRESS + 4 * i
            self.global_types[decl.name] = decl.ctype
            self.global_masks[decl.name] = width_mask(decl.ctype)
            self.global_addresses[decl.name] = address
            self.address_to_global[address] = decl.name
            self.global_values[decl.name] = 0
        self.initialized_globals = [decl for decl in global_items if decl.init is not None]

    # --- infrastructure ----------------------------------------------------

    def fail(self, message: str, span: SourceSpan | None) -> NoReturn:
        """Record a fatal error and stop the run."""
        self.diagnose("error", message, span)
        raise _Halt()

    def out_of_fuel(self, span: SourceSpan) -> NoReturn:
        self.fail("fuel exhausted", span)

    def diagnose(self, severity: str, message: str, span: SourceSpan | None = None) -> None:
        key = (severity, message)
        if key in self._seen_diags:
            return
        if len(self.diagnostics) >= _MAX_DIAGNOSTICS:
            raise _Halt()
        self._seen_diags.add(key)
        self.diagnostics.append(Diagnostic(severity, message, span))

    def _resolve_macros(self, macro_items: dict[str, MacroConst]) -> dict[str, int]:
        """Fold every macro; one whose body names an unfolded macro is folded
        again after it, so a chain of macros costs no Python stack."""
        resolved: dict[str, int] = {}

        def fold(expr: Expr) -> int:
            if isinstance(expr, IntLit):
                return expr.value & MASK32
            if isinstance(expr, Ident):
                if expr.name not in resolved:
                    raise _Unresolved(expr.name)
                return resolved[expr.name]
            if isinstance(expr, Paren):
                return fold(expr.inner)
            if isinstance(expr, Unary):
                operand = fold(expr.operand)
                if expr.op == "neg":
                    return (-operand) & MASK32
                if expr.op == "bitnot":
                    return (~operand) & MASK32
                raise SimSetupError(f"operator '{expr.op}' is not constant-foldable")
            if isinstance(expr, Binary):
                lhs, rhs = fold(expr.lhs), fold(expr.rhs)
                return self._binary_value(expr.op, lhs, rhs, expr.span)
            raise SimSetupError("macro value is not a constant expression")

        for root in macro_items:
            pending = {root: None}  # the macros being folded, innermost last
            while root not in resolved:
                name = next(reversed(pending))
                try:
                    resolved[name] = fold(macro_items[name].value_expr)
                    del pending[name]
                except _Unresolved as missing:
                    (needed,) = missing.args
                    if needed in pending:
                        raise SimSetupError(f"macro definitions form a cycle at '{needed}'") from None
                    if needed not in macro_items:
                        raise SimSetupError(
                            f"macro value references non-constant name '{needed}'") from None
                    pending[needed] = None
        return resolved

    # --- memory ------------------------------------------------------------

    def _check_clock(self, periph: PeripheralSpec, span: SourceSpan | None) -> None:
        ce = periph.clock_enable
        if ce is None:
            return
        gate_addr, gate_reg = self.board.clock_gate(ce)
        gate = self.mmio.get(gate_addr, gate_reg.reset_value)
        if not (gate >> ce.bit) & 1:
            severity = "error" if self.strict else "warning"
            self.diagnose(severity, f"access to {periph.name} while its clock is disabled", span)

    def read_memory(self, address: int, span: SourceSpan | None) -> int:
        address &= MASK32
        hit = self.board.register_at(address)
        if hit is not None:
            periph, reg = hit
            self._check_clock(periph, span)
            value = self.mmio.get(address, reg.reset_value)
            if reg.behavior == "usart_sr":
                value |= 1 << USART_TXE_BIT  # always-ready transmitter
            elif reg.behavior == "gpio_idr":
                value = self._idr_value(periph, value)
            return value & MASK32
        if address in self.address_to_global:
            return self.global_values[self.address_to_global[address]]
        self.diagnose("error", f"wild-address access at 0x{address:08X}", span)
        return 0

    def write_memory(self, address: int, value: int, span: SourceSpan | None) -> None:
        address &= MASK32
        value &= MASK32
        hit = self.board.register_at(address)
        if hit is not None:
            periph, reg = hit
            self._check_clock(periph, span)
            if reg.behavior == "usart_dr":
                self._usart_transmit(periph, value, span)
            self.mmio[address] = value
            return
        if address in self.address_to_global:
            name = self.address_to_global[address]
            self.global_values[name] = value & self.global_masks[name]
            return
        self.diagnose("error", f"wild-address access at 0x{address:08X}", span)

    def _usart_transmit(self, periph: PeripheralSpec, value: int, span: SourceSpan | None) -> None:
        # transmit-ready (SR TXE) is forced on reads, so a DR write always
        # logs; strict mode additionally demands the CR1 transmit-enable bit
        if self.strict:
            cr1 = periph.register_named("CR1")
            if cr1 is not None:
                cr1_addr = (periph.base_address + cr1.offset) & MASK32
                cr1_value = self.mmio.get(cr1_addr, cr1.reset_value)
                if not (cr1_value >> USART_TE_BIT) & 1:
                    self.diagnose("error",
                                  f"{periph.name} data write with transmitter disabled", span)
                    return
        self.usart_log.append(value & 0xFF)

    def _idr_value(self, periph: PeripheralSpec, stored: int) -> int:
        value = stored
        for (p_name, pin), bits in self.scenario.gpio_inputs.items():
            if p_name != periph.name:
                continue
            key = (p_name, pin)
            pos = self._idr_pos[key]
            if pos < len(bits):
                bit = bits[pos]
                self._idr_pos[key] = pos + 1
                self._idr_last[key] = bit
            else:
                bit = self._idr_last.get(key, (stored >> pin) & 1)
            value = (value | (1 << pin)) if bit else (value & ~(1 << pin) & MASK32)
        return value

    # --- evaluation ----------------------------------------------------------

    def run_main(self) -> None:
        """Fold the macros, initialize the globals in source order, then run `main`."""
        main = self.functions["main"]
        try:
            # folding diagnoses, so it may halt at the diagnostic limit
            self.macros = self._resolve_macros(self.macro_items)
            # compiled before any call nests, and inside this handler, so a
            # deep body compiled near the stack limit fails the verdict
            self.code = {name: compile_function(fn, self) for name, fn in self.functions.items()}
            for decl in self.initialized_globals:
                value = self.initial_value(decl)
                self.global_values[decl.name] = value & self.global_masks[decl.name]
            self.call(main, [], main.span)
        except _Halt:
            pass
        except RecursionError:
            # a call costs one Python frame per statement level of its
            # body, so deep calls of deep statements can exhaust the
            # interpreter's stack before _MAX_CALL_DEPTH is reached
            with suppress(_Halt):
                self.diagnose("error", "call nesting exceeds the interpreter stack", main.span)

    def call(self, fn: FunctionDef, args: list[int], span: SourceSpan) -> int:
        if len(args) != len(fn.params):
            self.fail(f"call to {fn.name} with {len(args)} arguments, expected {len(fn.params)}",
                      span)
        if self.call_depth >= _MAX_CALL_DEPTH:
            self.fail(f"call depth limit exceeded at {fn.name}", span)
        body, param_masks, local_slots = self.code[fn.name]
        frame = [a & mask for a, mask in zip(args, param_masks)]
        frame += local_slots
        self.call_depth += 1
        try:
            result = body(self, frame)
        finally:
            self.call_depth -= 1
        return 0 if result is None else result

    def initial_value(self, decl: GlobalDecl) -> int:
        """Evaluate a global's initializer; it has no local slots."""
        return compile_initializer(decl, self)(self, None)

    def _binary_value(self, op: str, lhs: int, rhs: int, span: SourceSpan | None) -> int:
        if op == "+":
            return (lhs + rhs) & MASK32
        if op == "-":
            return (lhs - rhs) & MASK32
        if op == "*":
            return (lhs * rhs) & MASK32
        if op in ("/", "%"):
            if rhs == 0:
                self.diagnose("error", "division by zero", span)
                return 0
            return (lhs // rhs if op == "/" else lhs % rhs) & MASK32
        if op in ("<<", ">>"):
            if rhs >= 32:
                self.diagnose("error", f"shift count {rhs} out of range", span)
                return 0
            return ((lhs << rhs) if op == "<<" else (lhs >> rhs)) & MASK32
        if op == "&":
            return lhs & rhs
        if op == "|":
            return lhs | rhs
        if op == "^":
            return lhs ^ rhs
        if op in ("==", "!="):
            return int((lhs == rhs) == (op == "=="))
        if op in ("<", ">", "<=", ">="):
            return int({"<": lhs < rhs, ">": lhs > rhs, "<=": lhs <= rhs, ">=": lhs >= rhs}[op])
        raise SimSetupError(f"unknown binary operator '{op}'")

    def state(self) -> MachineState:
        return MachineState(
            globals=dict(self.global_values),
            mmio=dict(self.mmio),
            usart_log=bytes(self.usart_log),
            fuel=self.fuel,
            diagnostics=list(self.diagnostics),
            steps_used=self.scenario.fuel_limit - self.fuel,
            board=self.board,
        )


def exec_program(
    project: Project,
    board: BoardMap,
    scenario: Scenario,
    strict_gating: bool = False,
) -> tuple[MachineState, Verdict]:
    """Run `main` of a closed project and judge it against the scenario."""
    table = build_symbol_table(project)
    missing = detect_missing(table)
    if missing:
        names = ", ".join(m.name for m in missing)
        raise SimSetupError(f"project is not closed; missing: {names}")
    main = None
    for unit in project.units:
        for item in unit.items:
            if isinstance(item, FunctionDef) and item.name == "main":
                main = item
    if main is None:
        raise SimSetupError("no function named 'main'")
    if main.params:
        raise SimSetupError("main must take no parameters")
    machine = _Machine(project, board, scenario, strict_gating)
    machine.run_main()
    state = machine.state()
    return state, check_scenario(state, scenario)


def check_scenario(state: MachineState, scenario: Scenario) -> Verdict:
    """Compare a finished machine state to the scenario's expectations.

    The log comparison is byte-exact; register comparisons use the raw
    stored values without behavior hooks.
    """
    log_match = state.usart_log == scenario.expected_log
    matches = []
    for address, expected in scenario.expected_registers:
        actual = state.register_value(address)
        matches.append((address, expected, actual, actual == expected))
    has_errors = any(d.severity == "error" for d in state.diagnostics)
    passed = log_match and all(ok for *_rest, ok in matches) and not has_errors
    return Verdict(passed, log_match, matches, list(state.diagnostics), state.steps_used)
