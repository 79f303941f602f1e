"""Compilation of function bodies and global initializers into closures.

Each function body and each global initializer is compiled into nested
closures, one per node kind and operator class, for the machine
(`halgen.simulate.interp._Machine`) that runs it. Every name is resolved
when compiled: a local to a slot of one flat list per call, else a global,
a macro's value or a function. A name unfit for its use compiles to a
closure that stops the run, and so costs nothing unless evaluated.

A compiled statement is a closure (machine, frame) -> None, or the
returned value once a `return` has run; a compiled expression is a closure
(machine, frame) -> value. `frame` is the call's flat list of local slots.
Each closure first charges its node one unit of fuel, in the line
    m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
(`out_of_fuel` raises), and only then evaluates the node's operands.
"""

from __future__ import annotations

import operator

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
    Stmt,
    Unary,
    While,
)
from halgen.c_ast.nodes import BaseType

MASK32 = 0xFFFFFFFF


def width_mask(ctype: CType) -> int:
    if ctype.pointer_depth > 0:
        return MASK32
    if ctype.base is BaseType.U8:
        return 0xFF
    if ctype.base is BaseType.U16:
        return 0xFFFF
    return MASK32


def is_plain_int(ctype: CType | None) -> bool:
    return ctype is not None and ctype.base is BaseType.I32 and ctype.pointer_depth == 0


def _strip_parens(expr: Expr) -> Expr:
    while isinstance(expr, Paren):
        expr = expr.inner
    return expr


_SIGN_BIT = 0x80000000  # xor with it maps signed 32-bit order onto unsigned order

# operators whose operands cannot make them diagnose, their results masked to 32 bits
_TOTAL = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "&": operator.and_, "|": operator.or_, "^": operator.xor}
_EQUALITY = {"==": operator.eq, "!=": operator.ne}
_COMPARE = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def compile_function(fn: FunctionDef, machine):
    """(body, parameter masks, initial local slots) of a function."""
    compiler = _Compiler(machine)
    for param in fn.params:
        compiler.declare(param.name, param.ctype)
    body = compiler.stmt(fn.body)
    param_masks = tuple(width_mask(p.ctype) for p in fn.params)
    return body, param_masks, [0] * (len(compiler.slot_types) - len(fn.params))


def compile_initializer(decl: GlobalDecl, machine):
    """The compiled initializer of a global, which has no local slots."""
    return _Compiler(machine).expr(decl.init)


def _constant(value: int, span):
    """A closure that charges its node's fuel, then returns `value`."""
    def ev(m, f):
        m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
        return value
    return ev


def _failure(message: str, span):
    """A closure that charges its node's fuel, then stops the run with `message`."""
    def run(m, f):
        m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
        m.fail(message, span)
    return run


class _Compiler:
    """Compiles one function body or initializer, giving each local its own slot."""

    def __init__(self, machine):
        self.m = machine
        self.scopes: list[dict[str, int]] = [{}]
        self.slot_types: list[CType] = []

    def declare(self, name: str, ctype: CType) -> int:
        self.slot_types.append(ctype)
        self.scopes[-1][name] = len(self.slot_types) - 1
        return len(self.slot_types) - 1

    def local(self, name: str) -> int | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def stmt(self, node: Stmt):
        return _STATEMENTS[type(node)](self, node)

    def expr(self, node: Expr):
        return _EXPRESSIONS[type(node)](self, node)

    # --- statements ------------------------------------------------------------

    def compound(self, node: Compound):
        span = node.span
        self.scopes.append({})
        stmts = tuple(self.stmt(s) for s in node.stmts)
        self.scopes.pop()

        def run(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            for stmt in stmts:
                result = stmt(m, f)
                if result is not None:
                    return result
            return None
        return run

    def expr_stmt(self, node: ExprStmt):
        span, expr = node.span, self.expr(node.expr)

        def run(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            expr(m, f)
        return run

    def local_decl(self, node: LocalDecl):
        span, mask = node.span, width_mask(node.ctype)
        init = self.expr(node.init) if node.init is not None else None
        slot = self.declare(node.name, node.ctype)  # after its initializer, which cannot see it

        def run(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            f[slot] = init(m, f) & mask if init is not None else 0
        return run

    def if_stmt(self, node: If):
        span, cond, then = node.span, self.expr(node.cond), self.stmt(node.then_branch)
        other = self.stmt(node.else_branch) if node.else_branch is not None else None

        def run(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            if cond(m, f):
                return then(m, f)
            return other(m, f) if other is not None else None
        return run

    def while_stmt(self, node: While):
        span, cond, body = node.span, self.expr(node.cond), self.stmt(node.body)

        def run(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            while cond(m, f):
                result = body(m, f)
                if result is not None:
                    return result
            return None
        return run

    def for_stmt(self, node: For):
        span = node.span
        self.scopes.append({})
        init = self.stmt(node.init) if node.init is not None else None
        cond = self.expr(node.cond) if node.cond is not None else None
        step = self.expr(node.step) if node.step is not None else None
        body = self.stmt(node.body)
        self.scopes.pop()

        def run(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            if init is not None:
                init(m, f)
            while cond is None or cond(m, f):
                result = body(m, f)
                if result is not None:
                    return result
                if step is not None:
                    step(m, f)
            return None
        return run

    def return_stmt(self, node: Return):
        span = node.span
        value = self.expr(node.value) if node.value is not None else None

        def run(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            return value(m, f) if value is not None else 0
        return run

    # --- expressions -----------------------------------------------------------

    def int_lit(self, node: IntLit):
        return _constant(node.value & MASK32, node.span)

    def ident(self, node: Ident):
        span, name, slot = node.span, node.name, self.local(node.name)
        if slot is not None:
            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return f[slot]
            return ev
        if name in self.m.global_values:
            values = self.m.global_values

            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return values[name]
            return ev
        if name in self.m.macros:
            return _constant(self.m.macros[name], span)
        if name in self.m.functions:
            return _failure(f"function '{name}' used as a value", span)
        return _failure(f"undefined name '{name}'", span)

    def paren(self, node: Paren):
        span, inner = node.span, self.expr(node.inner)

        def ev(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            return inner(m, f)
        return ev

    def cast(self, node: Cast):
        span, mask, operand = node.span, width_mask(node.ctype), self.expr(node.operand)

        def ev(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            return operand(m, f) & mask
        return ev

    def unary(self, node: Unary):
        span, op = node.span, node.op
        if op == "addr_of":
            return self._address_of(node)
        operand = self.expr(node.operand)
        if op == "deref":
            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return m.read_memory(operand(m, f), span)
        elif op in ("neg", "bitnot"):
            apply = operator.neg if op == "neg" else operator.invert

            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return apply(operand(m, f)) & MASK32
        else:  # lognot
            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return 0 if operand(m, f) else 1
        return ev

    def _address_of(self, node: Unary):
        # the operand is not evaluated, so neither it nor its parentheses
        # cost fuel; `&*p` evaluates `p` only
        span, target = node.span, _strip_parens(node.operand)
        if isinstance(target, Unary) and target.op == "deref":
            pointer = self.expr(target.operand)

            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return pointer(m, f)
            return ev
        name = target.name if isinstance(target, Ident) else None
        if name is not None and self.local(name) is not None:
            return _failure("address-of a local variable is not supported", span)
        if name not in self.m.global_addresses:
            return _failure("cannot take the address of this expression", span)
        return _constant(self.m.global_addresses[name], span)

    def binary(self, node: Binary):
        span, op = node.span, node.op
        if op in _COMPARE:
            return self._relational(node)
        lhs, rhs = self.expr(node.lhs), self.expr(node.rhs)
        if op == "&&":
            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return 1 if lhs(m, f) and rhs(m, f) else 0
        elif op == "||":
            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return 1 if lhs(m, f) or rhs(m, f) else 0
        elif op in _TOTAL:
            apply = _TOTAL[op]

            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return apply(lhs(m, f), rhs(m, f)) & MASK32
        elif op in _EQUALITY:
            apply = _EQUALITY[op]

            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return 1 if apply(lhs(m, f), rhs(m, f)) else 0
        else:  # division and shifts, which diagnose some right operands
            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                return m._binary_value(op, lhs(m, f), rhs(m, f), span)
        return ev

    def _relational(self, node: Binary):
        span, compare = node.span, _COMPARE[node.op]
        lhs, rhs = self.expr(node.lhs), self.expr(node.rhs)
        bias = _SIGN_BIT if self.plain(node.lhs) and self.plain(node.rhs) else 0

        def ev(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            return 1 if compare(lhs(m, f) ^ bias, rhs(m, f) ^ bias) else 0
        return ev

    def assign(self, node: Assign):
        span, op = node.span, node.op[:-1]  # "&=" -> "&", "=" -> ""
        target, value = _strip_parens(node.target), self.expr(node.value)
        if isinstance(target, Ident) and self.local(target.name) is not None:
            slot = self.local(target.name)
            mask = width_mask(self.slot_types[slot])
            if not op:
                def ev(m, f):
                    m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                    f[slot] = new = value(m, f) & mask
                    return new
            else:
                def ev(m, f):
                    m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                    f[slot] = new = m._binary_value(op, f[slot], value(m, f), span) & mask
                    return new
        elif isinstance(target, Ident):
            name, values = target.name, self.m.global_values
            if name not in values:
                return _failure(f"assignment to non-variable '{name}'", span)
            mask = self.m.global_masks[name]

            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                new = m._binary_value(op, values[name], value(m, f), span) if op else value(m, f)
                values[name] = new = new & mask
                return new
        else:  # a dereference; the parser admits no other target
            address = self.expr(target.operand)

            def ev(m, f):
                m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
                where = address(m, f)
                if op:
                    new = m._binary_value(op, m.read_memory(where, span), value(m, f), span)
                else:
                    new = value(m, f)
                m.write_memory(where, new, span)
                return new
        return ev

    def call(self, node: Call):
        span, fn = node.span, self.m.functions.get(node.callee)
        if fn is None:
            return _failure(f"call to undefined or non-function name '{node.callee}'", span)
        args = tuple(self.expr(a) for a in node.args)

        def ev(m, f):
            m.fuel = m.fuel - 1 if m.fuel > 0 else m.out_of_fuel(span)
            return m.call(fn, [arg(m, f) for arg in args], span)
        return ev

    # --- operand types -----------------------------------------------------------

    def plain(self, node: Expr) -> bool:
        """Whether the node's type is plain `int`, which makes a relational
        operator on it compare signed.

        A name that is not what its use needs stops the run before any
        comparison of it, so the answer for it does not matter.
        """
        if isinstance(node, IntLit):
            return node.value <= 0x7FFFFFFF
        if isinstance(node, Paren):
            return self.plain(node.inner)
        if isinstance(node, Cast):
            return is_plain_int(node.ctype)
        if isinstance(node, Call):
            fn = self.m.functions.get(node.callee)
            return fn is not None and is_plain_int(fn.return_type)
        if isinstance(node, (Ident, Assign)):
            target = node if isinstance(node, Ident) else _strip_parens(node.target)
            if not isinstance(target, Ident):  # an assignment through a pointer
                return False
            slot = self.local(target.name)
            if slot is not None:
                return is_plain_int(self.slot_types[slot])
            name = target.name
            if name in self.m.global_types:
                return is_plain_int(self.m.global_types[name])
            return self.m.macros.get(name, 0) <= 0x7FFFFFFF
        if isinstance(node, Unary):
            target = _strip_parens(node.operand)
            if node.op == "addr_of" and isinstance(target, Unary) and target.op == "deref":
                return self.plain(target.operand)
            return self.plain(node.operand) if node.op == "neg" else node.op == "lognot"
        if node.op in ("+", "-", "*", "/", "%"):
            return self.plain(node.lhs) and self.plain(node.rhs)
        return node.op in ("&&", "||", "==", "!=", "<", ">", "<=", ">=")


_STATEMENTS = {
    Compound: _Compiler.compound,
    ExprStmt: _Compiler.expr_stmt,
    LocalDecl: _Compiler.local_decl,
    If: _Compiler.if_stmt,
    While: _Compiler.while_stmt,
    For: _Compiler.for_stmt,
    Return: _Compiler.return_stmt,
}

_EXPRESSIONS = {
    IntLit: _Compiler.int_lit,
    Ident: _Compiler.ident,
    Paren: _Compiler.paren,
    Cast: _Compiler.cast,
    Unary: _Compiler.unary,
    Binary: _Compiler.binary,
    Assign: _Compiler.assign,
    Call: _Compiler.call,
}
