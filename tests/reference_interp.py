"""The tree-walking interpreter, kept as the oracle for the compiled one.

`ReferenceMachine` shares the board, memory, diagnostics, macro folding and
`_binary_value` of `halgen.simulate.interp._Machine`, and replaces what the
closures of `halgen.simulate.compiler` do: it dispatches on node types at
every step, keeps locals in a stack of scope dictionaries and returns
through an exception.
"""

from __future__ import annotations

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
    Paren,
    Return,
    SourceSpan,
    Stmt,
    Unary,
    While,
)
from halgen.c_ast.nodes import BaseType
from halgen.simulate.compiler import MASK32, is_plain_int, width_mask
from halgen.simulate.interp import _MAX_CALL_DEPTH, SimSetupError, _Halt, _Machine

_I32 = CType(BaseType.I32)
_U32 = CType(BaseType.U32)


def _to_signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


class _ReturnSignal(Exception):
    def __init__(self, value: int):
        self.value = value


class ReferenceMachine(_Machine):
    def charge(self, span: SourceSpan | None = None) -> None:
        if self.fuel <= 0:
            self.diagnose("error", "fuel exhausted", span)
            raise _Halt()
        self.fuel -= 1

    def initial_value(self, decl: GlobalDecl) -> int:
        value, _ = self.eval_expr(decl.init, [])
        return value

    def call(self, fn: FunctionDef, args: list[int], span: SourceSpan) -> int:
        if len(args) != len(fn.params):
            self.diagnose("error",
                          f"call to {fn.name} with {len(args)} arguments, expected {len(fn.params)}",
                          span)
            raise _Halt()
        if self.call_depth >= _MAX_CALL_DEPTH:
            self.diagnose("error", f"call depth limit exceeded at {fn.name}", span)
            raise _Halt()
        frame = [{p.name: [a & width_mask(p.ctype), p.ctype]
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
            frame[-1][stmt.name] = [value & width_mask(stmt.ctype), stmt.ctype]
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
            value = expr.value & MASK32
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
            return value & width_mask(expr.ctype), expr.ctype
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
            return self.call(fn, args, expr.span) & MASK32, fn.return_type
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
            return (-value) & MASK32, ctype
        if expr.op == "bitnot":
            return (~value) & MASK32, _U32
        if expr.op == "lognot":
            return (0 if value else 1), _I32
        raise SimSetupError(f"unknown unary operator '{expr.op}'")

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
        signed = is_plain_int(lt) and is_plain_int(rt)
        if signed and expr.op in ("<", ">", "<=", ">="):
            lhs, rhs = _to_signed(lhs), _to_signed(rhs)
        value = self._binary_value(expr.op, lhs, rhs, expr.span)
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
                slot[0] = new & width_mask(ctype)
                return slot[0], ctype
            if target.name in self.global_values:
                ctype = self.global_types[target.name]
                old = self.global_values[target.name]
                new = self._assigned_value(expr, old, frame)
                self.global_values[target.name] = new & width_mask(ctype)
                return self.global_values[target.name], ctype
            self.diagnose("error", f"assignment to non-variable '{target.name}'", expr.span)
            raise _Halt()
        if isinstance(target, Unary) and target.op == "deref":
            address, _ = self.eval_expr(target.operand, frame)
            old = self.read_memory(address, expr.span) if expr.op != "=" else 0
            new = self._assigned_value(expr, old, frame)
            self.write_memory(address, new, expr.span)
            return new & MASK32, None
        self.diagnose("error", "assignment target is not an lvalue", expr.span)
        raise _Halt()

    def _assigned_value(self, expr: Assign, old: int, frame: list[dict]) -> int:
        rhs, _ = self.eval_expr(expr.value, frame)
        if expr.op == "=":
            return rhs & MASK32
        op = expr.op[:-1]  # "&=" -> "&", "<<=" -> "<<"
        return self._binary_value(op, old, rhs, expr.span)

