"""Interpreter for completed programs against a simulated MMIO board.

Semantics: all arithmetic is 32-bit unsigned with wraparound; comparisons
are signed only when both operands are statically plain ``int``. A
dereference whose address matches a mapped register goes through that
register's behavior hook; any other address is diagnosed as a wild access
(reads yield 0, writes are dropped, execution continues). Every statement
and expression evaluation costs one unit of fuel; running out of fuel is
the only way a diverging program ends, and it fails the verdict.

Execution never raises for program-level misbehavior: shift counts >= 32,
division by zero, wild addresses, and clock-gating violations all record
diagnostics with a defined result so that a single run reports everything
it saw.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

from halgen.errors import HalgenError
from halgen.analysis import Project, build_symbol_table, detect_missing
from halgen.c_ast import (
    Assign,
    Binary,
    Call,
    Cast,
    Compound,
    CType,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    GlobalDecl,
    Ident,
    If,
    IntLit,
    LocalDecl,
    MacroConst,
    Paren,
    Return,
    SourceSpan,
    Stmt,
    Unary,
    While,
)
from halgen.c_ast.nodes import BaseType
from halgen.simulate.board import (
    BoardMap,
    PeripheralSpec,
    Scenario,
    USART_TE_BIT,
    USART_TXE_BIT,
)

_MASK32 = 0xFFFFFFFF

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
        address &= _MASK32
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


class _ReturnSignal(Exception):
    def __init__(self, value: int):
        self.value = value


def _width_mask(ctype: CType) -> int:
    if ctype.pointer_depth > 0:
        return _MASK32
    if ctype.base is BaseType.U8:
        return 0xFF
    if ctype.base is BaseType.U16:
        return 0xFFFF
    return _MASK32


def _is_plain_int(ctype: CType | None) -> bool:
    return ctype is not None and ctype.base is BaseType.I32 and ctype.pointer_depth == 0


def _to_signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


_I32 = CType(BaseType.I32)
_U32 = CType(BaseType.U32)


class _Machine:
    def __init__(self, project: Project, board: BoardMap, scenario: Scenario,
                 strict_gating: bool):
        self.board = board
        self.scenario = scenario
        self.strict = strict_gating
        self.fuel = scenario.fuel_limit
        self.steps = 0
        self.diagnostics: list[Diagnostic] = []
        self._seen_diags: set[tuple[str, str]] = set()
        self.mmio: dict[int, int] = {}
        self.usart_log = bytearray()
        self.call_depth = 0

        self.functions: dict[str, FunctionDef] = {}
        macro_items: dict[str, MacroConst] = {}
        global_items: list[GlobalDecl] = []
        for unit in project.units:
            for item in unit.items:
                if isinstance(item, FunctionDef):
                    self.functions[item.name] = item
                elif isinstance(item, MacroConst):
                    macro_items[item.name] = item
                elif isinstance(item, GlobalDecl):
                    global_items.append(item)

        self.macros = self._resolve_macros(macro_items)

        self.global_types: dict[str, CType] = {}
        self.global_values: dict[str, int] = {}
        self.global_addresses: dict[str, int] = {}
        self.address_to_global: dict[int, str] = {}
        for i, decl in enumerate(global_items):
            address = GLOBALS_BASE_ADDRESS + 4 * i
            self.global_types[decl.name] = decl.ctype
            self.global_addresses[decl.name] = address
            self.address_to_global[address] = decl.name
            self.global_values[decl.name] = 0
        for decl in global_items:
            if decl.init is not None:
                value, _ = self.eval_expr(decl.init, [])
                self.global_values[decl.name] = value & _width_mask(decl.ctype)

        # per-(peripheral, pin) scripted input positions and sticky last bit
        self._idr_pos: dict[tuple[str, int], int] = {k: 0 for k in scenario.gpio_inputs}
        self._idr_last: dict[tuple[str, int], int] = {}

    # --- infrastructure ----------------------------------------------------

    def charge(self, span: SourceSpan | None = None) -> None:
        if self.fuel <= 0:
            self.diagnose("error", "fuel exhausted", span)
            raise _Halt()
        self.fuel -= 1
        self.steps += 1

    def diagnose(self, severity: str, message: str, span: SourceSpan | None = None) -> None:
        key = (severity, message)
        if key in self._seen_diags:
            return
        if len(self.diagnostics) >= _MAX_DIAGNOSTICS:
            raise _Halt()
        self._seen_diags.add(key)
        self.diagnostics.append(Diagnostic(severity, message, span))

    def _resolve_macros(self, macro_items: dict[str, MacroConst]) -> dict[str, int]:
        resolved: dict[str, int] = {}
        resolving: set[str] = set()

        def value_of(name: str) -> int:
            if name in resolved:
                return resolved[name]
            if name in resolving:
                raise SimSetupError(f"macro definitions form a cycle at '{name}'")
            if name not in macro_items:
                raise SimSetupError(f"macro value references non-constant name '{name}'")
            resolving.add(name)
            result = fold(macro_items[name].value_expr)
            resolving.discard(name)
            resolved[name] = result
            return result

        def fold(expr: Expr) -> int:
            if isinstance(expr, IntLit):
                return expr.value & _MASK32
            if isinstance(expr, Ident):
                return value_of(expr.name)
            if isinstance(expr, Paren):
                return fold(expr.inner)
            if isinstance(expr, Unary):
                operand = fold(expr.operand)
                if expr.op == "neg":
                    return (-operand) & _MASK32
                if expr.op == "bitnot":
                    return (~operand) & _MASK32
                raise SimSetupError(f"operator '{expr.op}' is not constant-foldable")
            if isinstance(expr, Binary):
                lhs, rhs = fold(expr.lhs), fold(expr.rhs)
                return self._binary_value(expr.op, lhs, rhs, expr.span)
            raise SimSetupError("macro value is not a constant expression")

        for name in macro_items:
            value_of(name)
        return resolved

    # --- memory ------------------------------------------------------------

    def _check_clock(self, periph: PeripheralSpec, span: SourceSpan | None) -> None:
        ce = periph.clock_enable
        if ce is None:
            return
        gate_addr = self.board.address_of(ce.peripheral, ce.register)
        hit = self.board.register_at(gate_addr)
        reset = hit[1].reset_value if hit else 0
        gate = self.mmio.get(gate_addr, reset)
        if not (gate >> ce.bit) & 1:
            severity = "error" if self.strict else "warning"
            self.diagnose(severity, f"access to {periph.name} while its clock is disabled", span)

    def read_memory(self, address: int, span: SourceSpan | None) -> int:
        address &= _MASK32
        hit = self.board.register_at(address)
        if hit is not None:
            periph, reg = hit
            self._check_clock(periph, span)
            value = self.mmio.get(address, reg.reset_value)
            if reg.behavior == "usart_sr":
                value |= 1 << USART_TXE_BIT  # always-ready transmitter
            elif reg.behavior == "gpio_idr":
                value = self._idr_value(periph, value)
            return value & _MASK32
        if address in self.address_to_global:
            return self.global_values[self.address_to_global[address]]
        self.diagnose("error", f"wild-address access at 0x{address:08X}", span)
        return 0

    def write_memory(self, address: int, value: int, span: SourceSpan | None) -> None:
        address &= _MASK32
        value &= _MASK32
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
            self.global_values[name] = value & _width_mask(self.global_types[name])
            return
        self.diagnose("error", f"wild-address access at 0x{address:08X}", span)

    def _usart_transmit(self, periph: PeripheralSpec, value: int, span: SourceSpan | None) -> None:
        # transmit-ready (SR TXE) is forced on reads, so a DR write always
        # logs; strict mode additionally demands the CR1 transmit-enable bit
        if self.strict:
            cr1 = periph.register_named("CR1")
            if cr1 is not None:
                cr1_addr = (periph.base_address + cr1.offset) & _MASK32
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
            value = (value | (1 << pin)) if bit else (value & ~(1 << pin) & _MASK32)
        return value

    # --- evaluation ----------------------------------------------------------

    def run_main(self) -> None:
        main = self.functions["main"]
        try:
            self.call(main, [], main.span)
        except _ReturnSignal:
            pass
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
            self.diagnose("error",
                          f"call to {fn.name} with {len(args)} arguments, expected {len(fn.params)}",
                          span)
            raise _Halt()
        if self.call_depth >= _MAX_CALL_DEPTH:
            self.diagnose("error", f"call depth limit exceeded at {fn.name}", span)
            raise _Halt()
        frame = [{p.name: [a & _width_mask(p.ctype), p.ctype]
                  for p, a in zip(fn.params, args)}]
        self.call_depth += 1
        try:
            self.exec_stmt(fn.body, frame)
        except _ReturnSignal as ret:
            return ret.value
        finally:
            self.call_depth -= 1
        return 0

    def exec_stmt(self, stmt: Stmt, frame: list[dict]) -> None:
        self.charge(stmt.span)
        if isinstance(stmt, Compound):
            frame.append({})
            try:
                for inner in stmt.stmts:
                    self.exec_stmt(inner, frame)
            finally:
                frame.pop()
        elif isinstance(stmt, ExprStmt):
            self.eval_expr(stmt.expr, frame)
        elif isinstance(stmt, LocalDecl):
            value = 0
            if stmt.init is not None:
                value, _ = self.eval_expr(stmt.init, frame)
            frame[-1][stmt.name] = [value & _width_mask(stmt.ctype), stmt.ctype]
        elif isinstance(stmt, If):
            cond, _ = self.eval_expr(stmt.cond, frame)
            if cond:
                self.exec_stmt(stmt.then_branch, frame)
            elif stmt.else_branch is not None:
                self.exec_stmt(stmt.else_branch, frame)
        elif isinstance(stmt, While):
            while True:
                cond, _ = self.eval_expr(stmt.cond, frame)
                if not cond:
                    break
                self.exec_stmt(stmt.body, frame)
        elif isinstance(stmt, For):
            frame.append({})
            try:
                if stmt.init is not None:
                    self.exec_stmt(stmt.init, frame)
                while True:
                    if stmt.cond is not None:
                        cond, _ = self.eval_expr(stmt.cond, frame)
                        if not cond:
                            break
                    self.exec_stmt(stmt.body, frame)
                    if stmt.step is not None:
                        self.eval_expr(stmt.step, frame)
            finally:
                frame.pop()
        elif isinstance(stmt, Return):
            value = 0
            if stmt.value is not None:
                value, _ = self.eval_expr(stmt.value, frame)
            raise _ReturnSignal(value)
        else:
            raise SimSetupError(f"cannot execute statement {type(stmt).__name__}")

    def _lookup(self, name: str, frame: list[dict]):
        for scope in reversed(frame):
            if name in scope:
                return scope[name]
        return None

    def eval_expr(self, expr: Expr, frame: list[dict]) -> tuple[int, CType | None]:
        self.charge(expr.span)
        if isinstance(expr, IntLit):
            value = expr.value & _MASK32
            return value, (_I32 if expr.value <= 0x7FFFFFFF else _U32)
        if isinstance(expr, Ident):
            slot = self._lookup(expr.name, frame)
            if slot is not None:
                return slot[0], slot[1]
            if expr.name in self.global_values:
                return self.global_values[expr.name], self.global_types[expr.name]
            if expr.name in self.macros:
                value = self.macros[expr.name]
                return value, (_I32 if value <= 0x7FFFFFFF else _U32)
            if expr.name in self.functions:
                self.diagnose("error", f"function '{expr.name}' used as a value", expr.span)
                raise _Halt()
            self.diagnose("error", f"undefined name '{expr.name}'", expr.span)
            raise _Halt()
        if isinstance(expr, Paren):
            return self.eval_expr(expr.inner, frame)
        if isinstance(expr, Cast):
            value, _ = self.eval_expr(expr.operand, frame)
            return value & _width_mask(expr.ctype), expr.ctype
        if isinstance(expr, Unary):
            return self._eval_unary(expr, frame)
        if isinstance(expr, Binary):
            return self._eval_binary(expr, frame)
        if isinstance(expr, Assign):
            return self._eval_assign(expr, frame)
        if isinstance(expr, Call):
            fn = self.functions.get(expr.callee)
            if fn is None:
                self.diagnose("error", f"call to undefined or non-function name '{expr.callee}'",
                              expr.span)
                raise _Halt()
            args = [self.eval_expr(a, frame)[0] for a in expr.args]
            return self.call(fn, args, expr.span) & _MASK32, fn.return_type
        raise SimSetupError(f"cannot evaluate expression {type(expr).__name__}")

    def _eval_unary(self, expr: Unary, frame: list[dict]) -> tuple[int, CType | None]:
        if expr.op == "deref":
            address, _ = self.eval_expr(expr.operand, frame)
            return self.read_memory(address, expr.span), None
        if expr.op == "addr_of":
            target = expr.operand
            while isinstance(target, Paren):
                target = target.inner
            if isinstance(target, Unary) and target.op == "deref":
                return self.eval_expr(target.operand, frame)
            if isinstance(target, Ident):
                if self._lookup(target.name, frame) is not None:
                    self.diagnose("error", "address-of a local variable is not supported",
                                  expr.span)
                    raise _Halt()
                if target.name in self.global_addresses:
                    return self.global_addresses[target.name], _U32
            self.diagnose("error", "cannot take the address of this expression", expr.span)
            raise _Halt()
        value, ctype = self.eval_expr(expr.operand, frame)
        if expr.op == "neg":
            return (-value) & _MASK32, ctype
        if expr.op == "bitnot":
            return (~value) & _MASK32, _U32
        if expr.op == "lognot":
            return (0 if value else 1), _I32
        raise SimSetupError(f"unknown unary operator '{expr.op}'")

    def _binary_value(self, op: str, lhs: int, rhs: int, span: SourceSpan | None,
                      signed: bool = False) -> int:
        if op == "+":
            return (lhs + rhs) & _MASK32
        if op == "-":
            return (lhs - rhs) & _MASK32
        if op == "*":
            return (lhs * rhs) & _MASK32
        if op in ("/", "%"):
            if rhs == 0:
                self.diagnose("error", "division by zero", span)
                return 0
            return (lhs // rhs if op == "/" else lhs % rhs) & _MASK32
        if op in ("<<", ">>"):
            if rhs >= 32:
                self.diagnose("error", f"shift count {rhs} out of range", span)
                return 0
            return ((lhs << rhs) if op == "<<" else (lhs >> rhs)) & _MASK32
        if op == "&":
            return lhs & rhs
        if op == "|":
            return lhs | rhs
        if op == "^":
            return lhs ^ rhs
        if op in ("==", "!="):
            return int((lhs == rhs) == (op == "=="))
        if op in ("<", ">", "<=", ">="):
            a, b = (_to_signed(lhs), _to_signed(rhs)) if signed else (lhs, rhs)
            return int({"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[op])
        raise SimSetupError(f"unknown binary operator '{op}'")

    def _eval_binary(self, expr: Binary, frame: list[dict]) -> tuple[int, CType | None]:
        if expr.op in ("&&", "||"):
            lhs, _ = self.eval_expr(expr.lhs, frame)
            if expr.op == "&&" and not lhs:
                return 0, _I32
            if expr.op == "||" and lhs:
                return 1, _I32
            rhs, _ = self.eval_expr(expr.rhs, frame)
            return (1 if rhs else 0), _I32
        lhs, lt = self.eval_expr(expr.lhs, frame)
        rhs, rt = self.eval_expr(expr.rhs, frame)
        signed = _is_plain_int(lt) and _is_plain_int(rt)
        value = self._binary_value(expr.op, lhs, rhs, expr.span, signed)
        if expr.op in ("+", "-", "*", "/", "%"):
            result_type = _I32 if signed else _U32
        elif expr.op in ("==", "!=", "<", ">", "<=", ">="):
            result_type = _I32
        else:
            result_type = _U32
        return value, result_type

    def _eval_assign(self, expr: Assign, frame: list[dict]) -> tuple[int, CType | None]:
        target = expr.target
        while isinstance(target, Paren):
            target = target.inner
        if isinstance(target, Ident):
            slot = self._lookup(target.name, frame)
            if slot is not None:
                old, ctype = slot[0], slot[1]
                new = self._assigned_value(expr, old, frame)
                slot[0] = new & _width_mask(ctype)
                return slot[0], ctype
            if target.name in self.global_values:
                ctype = self.global_types[target.name]
                old = self.global_values[target.name]
                new = self._assigned_value(expr, old, frame)
                self.global_values[target.name] = new & _width_mask(ctype)
                return self.global_values[target.name], ctype
            self.diagnose("error", f"assignment to non-variable '{target.name}'", expr.span)
            raise _Halt()
        if isinstance(target, Unary) and target.op == "deref":
            address, _ = self.eval_expr(target.operand, frame)
            old = self.read_memory(address, expr.span) if expr.op != "=" else 0
            new = self._assigned_value(expr, old, frame)
            self.write_memory(address, new, expr.span)
            return new & _MASK32, None
        self.diagnose("error", "assignment target is not an lvalue", expr.span)
        raise _Halt()

    def _assigned_value(self, expr: Assign, old: int, frame: list[dict]) -> int:
        rhs, _ = self.eval_expr(expr.value, frame)
        if expr.op == "=":
            return rhs & _MASK32
        op = expr.op[:-1]  # "&=" -> "&", "<<=" -> "<<"
        return self._binary_value(op, old, rhs, expr.span)

    def state(self) -> MachineState:
        return MachineState(
            globals=dict(self.global_values),
            mmio=dict(self.mmio),
            usart_log=bytes(self.usart_log),
            fuel=self.fuel,
            diagnostics=list(self.diagnostics),
            steps_used=self.steps,
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
