"""The compiled interpreter against the tree-walking oracle.

`reference_interp.ReferenceMachine` is the tree-walker the compiled
closures replaced. Both run grammar-generated programs on the bundled board
with a small fuel limit, so fuel exhaustion, wild addresses, division by
zero, shift counts, undefined names and the call limits all occur, and must
leave the same final state, diagnostics (spans included) and exceptions.
Statements that fold values into the global `sink` make locals, parameters
and comparison results visible in that final state.
"""

import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from halgen.analysis import Project, build_symbol_table, detect_missing
from halgen.c_ast import ParseError, parse
from halgen.simulate import Scenario, interp
from reference_interp import ReferenceMachine
from test_front_end_properties import (
    ASSIGN_OPS,
    BARE_IF,
    BARE_WHILE,
    BINARY_OPS,
    EXPRESSIONS,
    LITERALS,
    NAMES,
    STATEMENTS,
    TYPES,
    _expressions,
)

# registers of the bundled board (GPIOA ODR and IDR, USART2 DR, RCC AHB1ENR)
# and the first global's RAM slot, so that pointers reach every memory path
ADDRESSES = ["0x40020014", "0x40020010", "0x40004404", "0x40023830", "0x20000000"]

STACK_MESSAGE = "call nesting exceeds the interpreter stack"

# every source of a plain `int` operand type, the masks of narrow stores
# and casts, a loop, and a compound store whose right-hand side writes
# the same address
TYPES_AND_MASKS = """\
#define BIG 0xFFFFFFFF
#define SMALL 7
int neg = 0xFFFFFFFF;
uint8_t narrow;
uint32_t s;
int minus_one(void) { return 0xFFFFFFFF; }
void store(uint8_t p, uint16_t q) { narrow = p + q; s = s * 3 + p + q; }
uint8_t bump(void) { narrow = 9; return 1; }
int main(void) {
    int local = 0xFFFFFFFF;
    int i = 0;
    while (i < 3) i++;
    s = (uint8_t) 0x1FF + (uint16_t) 0x1FFFF + i;
    s = s * 2 + (local < 1);
    s = s * 2 + (neg < 1);
    s = s * 2 + (BIG < 1);
    s = s * 2 + (local < SMALL);
    s = s * 2 + (!local < neg);
    s = s * 2 + (-SMALL < 0);
    s = s * 2 + (-1 < 0);
    s = s * 2 + (minus_one() < 1);
    s = s * 2 + ((local + 0) < 1);
    s = s * 2 + ((neg = neg) < 1);
    s = s * 2 + ((uint32_t) local < 1);
    s = s * 2 + (&*(int *) neg < 1);
    s = s * 2 + (-BIG < 1);
    s = s * 2 + (1 < BIG);
    s = s * 2 + ((BIG + 1) < 1);
    store(0x1FF, 0x1FFFF);
    *(uint8_t *) &narrow += bump();
    return 0;
}
"""


@st.composite
def name_declarations(draw):
    """Each of the generator's names as a global (mostly), a macro, or nothing."""
    lines = ["uint32_t sink = 0;"]
    for name in NAMES:
        kind = draw(st.sampled_from(["global"] * 6 + ["macro", "none"]))
        value = draw(st.sampled_from(LITERALS + ADDRESSES))
        if kind == "global":
            # an initializer that calls or names what is missing halts the set-up
            form = draw(st.integers(0, 9))
            init = draw(EXPRESSIONS) if form == 0 else None if form == 1 else value
            # plain int, so that comparisons are signed more often
            ctype = draw(st.sampled_from(["int"] * 3 + TYPES))
            lines.append(f"{ctype} {name};" if init is None else f"{ctype} {name} = {init};")
        elif kind == "macro":
            lines.append(f"#define {name} {value}")
    return "\n".join(lines)


# Most generated calls have the wrong arity or no callee and halt the run,
# so these statements use expressions without calls, and each defined
# function also gets calls of its own arity.
VALUES = _expressions(["-", "~", "!", "*"], BINARY_OPS, full=False)
COMPARISONS = st.tuples(VALUES, st.sampled_from(["<", ">", "<=", ">="]), VALUES).map(" ".join)


def _observe(expr):
    return f"sink = sink * 33 + ({expr});"


BODY_STATEMENTS = st.one_of(
    STATEMENTS,
    (VALUES | COMPARISONS).map(_observe),
    st.tuples(st.sampled_from(ADDRESSES), st.sampled_from(ASSIGN_OPS), VALUES)
    .map("*(volatile uint32_t *) {0[0]} {0[1]} {0[2]};".format),
)


def _function(signature, body):
    return f"{signature} {{ {' '.join(body)} }}"


@st.composite
def programs(draw):
    parts = [draw(name_declarations())]
    statements = BODY_STATEMENTS
    for callee in ("f", "g"):
        if draw(st.booleans()):
            params = draw(st.lists(st.tuples(st.sampled_from(TYPES),
                                              st.sampled_from(["p", "q", "r"])),
                                   max_size=3, unique_by=lambda param: param[1]))
            param_text = ", ".join(f"{ctype} {p}" for ctype, p in params) or "void"
            return_type = draw(st.sampled_from(["void"] + TYPES))
            body = [_observe(p) for _, p in params] + draw(st.lists(statements, max_size=4))
            parts.append(_function(f"{return_type} {callee}({param_text})", body))
            statements |= st.lists(VALUES, min_size=len(params), max_size=len(params)) \
                .map(lambda args, callee=callee: _observe(f"{callee}({', '.join(args)})"))
    body = draw(st.lists(statements, min_size=1, max_size=8))
    parts.append(_function("int main(void)", body))
    return "\n".join(parts) + "\n"


def run(machine_class, project, board, scenario, strict):
    """(final state, None) or (None, the type of the exception raised)."""
    try:
        machine = machine_class(project, board, scenario, strict)
        machine.run_main()
    except Exception as exc:  # compared across both interpreters, never hidden
        return None, type(exc)
    return machine.state(), None


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=programs(), fuel_limit=st.integers(10, 400), strict=st.booleans())
@example(source=TYPES_AND_MASKS, fuel_limit=400, strict=False)
@example(source="#define v 1\nuint32_t v = 2;\nuint32_t s;\nint main(void) { s = v; }\n",
         fuel_limit=100, strict=False)
@example(source=BARE_IF, fuel_limit=100, strict=False)
@example(source=BARE_WHILE, fuel_limit=100, strict=False)
@example(source="uint32_t a = 1;\nint main(void) { a = a / (a - 1); a = a << 40; b = 1; }\n",
         fuel_limit=100, strict=False)
@example(source="int main(void) { *(uint32_t *) 0x40020014 = 1; return *(uint32_t *) 7; }\n",
         fuel_limit=50, strict=True)
@example(source="uint32_t f(uint32_t p) { return f(p + 1); }\nint main(void) { f(1); }\n",
         fuel_limit=400, strict=False)
@example(source="uint32_t s;\nint main(void) { uint32_t x = 1; x += (x = 5); s = x; }\n",
         fuel_limit=100, strict=False)
@example(source="uint32_t a = 5;\nuint32_t s;\nint main(void) { uint32_t a = a + 1; s = a; }\n",
         fuel_limit=100, strict=False)
@example(source="uint32_t t = 1 + 2;\nint main(void) { return 0; }\n",
         fuel_limit=2, strict=False)
@example(source="uint32_t t = main;\nint main(void) { return 0; }\n",
         fuel_limit=100, strict=False)
@example(source="uint32_t a = 3;\nuint32_t s;\n"
                "int main(void) { for (uint32_t a = 7; a < 9; a++) s = a; s = s + a; }\n",
         fuel_limit=100, strict=False)
def test_compiled_interpreter_matches_the_tree_walker(source, fuel_limit, strict, board):
    try:
        unit = parse(source, "gen.c")
    except ParseError as err:
        # declarations as bare bodies, which the tree-walker scoped by
        # whether they ran, no longer parse
        assert source in (BARE_IF, BARE_WHILE)
        assert "cannot be the body" in err.message
        return
    project = Project((unit,), "gen.c")
    scenario = Scenario(gpio_inputs={("GPIOA", 0): [1, 0, 1]}, fuel_limit=fuel_limit)
    limit = sys.getrecursionlimit()
    # 64 nested calls must meet the call limit, not the stack, in both
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        compiled, compiled_error = run(interp._Machine, project, board, scenario, strict)
        reference, reference_error = run(ReferenceMachine, project, board, scenario, strict)
    finally:
        sys.setrecursionlimit(limit)
    assert compiled_error is reference_error
    if reference is None:
        return
    assert STACK_MESSAGE not in [d.message for d in reference.diagnostics]
    assert compiled.globals == reference.globals
    assert compiled.mmio == reference.mmio
    assert compiled.usart_log == reference.usart_log
    assert (compiled.fuel, compiled.steps_used) == (reference.fuel, reference.steps_used)
    assert compiled.diagnostics == reference.diagnostics  # spans included


@pytest.mark.parametrize("source, message", [
    ("int main(void) { uint32_t x = 1; return &x; }\n",
     "address-of a local variable is not supported"),
    ("int main(void) { return &(1); }\n", "cannot take the address of this expression"),
    ("int main(void) { return main; }\n", "function 'main' used as a value"),
    ("#define K 1\nint main(void) { K = 2; }\n", "assignment to non-variable 'K'"),
    ("uint32_t g;\nint main(void) { return g(); }\n",
     "call to undefined or non-function name 'g'"),
    # names unfit for their use halt a run only when evaluated
    ("#define K 1\nuint32_t g;\nuint32_t f(uint32_t p) { return p; }\n"
     "int main(void) { if (0) { K = 2; g(); g = f; f(); } return 0; }\n", None),
])
def test_halting_paths_agree_with_the_tree_walker(source, message, board):
    project = Project((parse(source, "m.c"),), "m.c")
    compiled, _ = run(interp._Machine, project, board, Scenario(), False)
    reference, _ = run(ReferenceMachine, project, board, Scenario(), False)
    assert [d.message for d in compiled.diagnostics] == ([] if message is None else [message])
    assert compiled.diagnostics == reference.diagnostics
    assert compiled.steps_used == reference.steps_used


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _within(frames, action):
    """What `action()` returns when it may use `frames` more Python frames."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + frames)
    try:
        return action()
    finally:
        sys.setrecursionlimit(limit)


def _finishes(machine_class, project, board, frames):
    """The final state when the machine may use `frames` Python frames, and
    whether the run ended without running out of them."""
    state, error = _within(frames, lambda: run(machine_class, project, board, Scenario(), False))
    return state, error is None and STACK_MESSAGE not in [d.message for d in state.diagnostics]


def test_a_deep_body_first_called_deep_in_the_call_chain_runs_as_in_the_tree_walker(board):
    # `g`'s body is 60 statements deep and is first called under 62 calls.
    # Compiling a body takes more stack than running it, so a body compiled
    # at its first call would run out of stack where the tree-walker does not.
    source = ("uint32_t s;\n"
              "void g(void) { " + "if (1) " * 60 + "s = 7; }\n"
              "void f(uint32_t n) { if (n < 60) f(n + 1); else g(); }\n"
              "int main(void) { f(0); }\n")
    project = Project((parse(source, "m.c"),), "m.c")
    low, high = 1, 10_000  # the fewest frames with which the tree-walker finishes
    while low < high:
        middle = (low + high) // 2
        if _finishes(ReferenceMachine, project, board, middle)[1]:
            high = middle
        else:
            low = middle + 1
    reference, _ = _finishes(ReferenceMachine, project, board, low)
    compiled, finished = _finishes(interp._Machine, project, board, low)
    assert finished
    assert compiled.globals == reference.globals == {"s": 7}
    assert compiled.diagnostics == reference.diagnostics == []
    assert compiled.steps_used == reference.steps_used


def test_a_body_compiled_near_the_stack_limit_fails_the_verdict(board):
    # Checking that the project is closed takes about one Python frame per
    # nesting level of `main`'s body, and compiling it about two.
    source = "uint32_t s;\nint main(void) { " + "if (1) " * 60 + "s = 7; }\n"
    project = Project((parse(source, "m.c"),), "m.c")

    def closed(frames):
        try:
            _within(frames, lambda: detect_missing(build_symbol_table(project)))
        except RecursionError:
            return False
        return True

    frames = next(n for n in range(1, 10_000) if closed(n))
    state, verdict = _within(frames + 10, lambda: interp.exec_program(project, board, Scenario()))
    assert not verdict.passed
    assert [d.message for d in verdict.diagnostics] == [STACK_MESSAGE]
    assert state.globals == {"s": 0}
