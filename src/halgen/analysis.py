"""Project-wide symbol analysis.

Builds the definition/reference table across all translation units,
derives the ordered list of referenced-but-undefined elements together
with inferred signatures, and provides the token-class similarity metric
used to compare regenerated code against originals. An item's definition
and free-name references are memoised per item, and a text's token-class
sequence per text, so unchanged items and texts are walked once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from pathlib import Path

from halgen.errors import HalgenError
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
    LocalDecl,
    MacroConst,
    Paren,
    Return,
    SourceSpan,
    Stmt,
    TopLevelItem,
    TranslationUnit,
    Unary,
    While,
    normalize_tokens,
    parse,
    per_item,
    print_expr,
    read_source,
)
from halgen.c_ast.nodes import BaseType

# Distinct texts whose token-class sequences `token_similarity` keeps. An
# experiment compares the same few dozen element texts on every iteration.
TOKEN_CACHE_SIZE = 256


class DuplicateDefinition(HalgenError):
    def __init__(self, name: str, spans: list[SourceSpan]):
        locations = ", ".join(f"{s.file_id}:{s.start_line}" for s in spans)
        super().__init__(f"'{name}' is defined more than once ({locations})")
        self.name = name
        self.spans = spans


class ConflictingArity(HalgenError):
    def __init__(self, name: str, arities: set[int]):
        super().__init__(f"call sites of undefined function '{name}' disagree on arity: {sorted(arities)}")
        self.name = name
        self.arities = arities


class ElementKind(Enum):
    FUNCTION = "Function"
    CONSTANT = "Constant"
    GLOBAL = "Global"


@dataclass
class Project:
    """All units of a codebase plus the unit that receives generated code."""

    units: tuple[TranslationUnit, ...]
    hal_unit_id: str

    def __post_init__(self):
        ids = [u.file_id for u in self.units]
        if len(set(ids)) != len(ids):
            raise ValueError("unit file ids must be unique")
        if self.hal_unit_id not in ids:
            raise ValueError(f"hal unit '{self.hal_unit_id}' is not among the project units")

    def hal_unit(self) -> TranslationUnit:
        return next(u for u in self.units if u.file_id == self.hal_unit_id)

    def with_hal_unit(self, unit: TranslationUnit) -> "Project":
        """A copy of this project with `unit` in place of the HAL unit."""
        units = tuple(unit if u.file_id == self.hal_unit_id else u for u in self.units)
        return Project(units, self.hal_unit_id)


@dataclass
class Signature:
    return_type: CType
    param_types: list[CType]


@dataclass
class Definition:
    name: str
    kind: ElementKind
    span: SourceSpan
    signature: Signature | None = None


@dataclass
class Reference:
    name: str
    site_kind: str  # "Call" or "Use"
    span: SourceSpan
    value_consumed: bool
    call_args: list[Expr] | None = None


@dataclass
class SymbolTable:
    definitions: dict[str, Definition]
    references: dict[str, list[Reference]]
    unit_order: dict[str, int] = field(default_factory=dict)

    def position(self, span: SourceSpan) -> tuple[int, int, int]:
        return self.unit_order.get(span.file_id, 0), span.start_line, span.start_col


@dataclass
class MissingElement:
    name: str
    kind: ElementKind  # FUNCTION or CONSTANT
    first_ref_span: SourceSpan
    value_consumed: bool
    arity: int | None = None
    sample_args: list[str] = field(default_factory=list)


def load_project(directory: str | Path, hal_filename: str = "hal.c") -> Project:
    """Parse every .c/.h file in `directory` (sorted by name) into a Project.

    The unit named `hal_filename` receives generated code; if absent, the
    first unit does.
    """
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix in (".c", ".h") and p.is_file())
    if not paths:
        raise FileNotFoundError(f"no .c/.h sources in {directory}")
    units = tuple(parse(read_source(p), p.name) for p in paths)
    names = [u.file_id for u in units]
    hal_id = hal_filename if hal_filename in names else names[0]
    return Project(units, hal_id)


def build_symbol_table(project: Project) -> SymbolTable:
    """Collect definitions and free-name references across all units.

    Local variables and parameters are resolved by lexical scope and never
    appear in the reference table. Raises DuplicateDefinition if any name
    is defined twice.
    """
    definitions: dict[str, Definition] = {}
    for unit in project.units:
        for item in unit.items:
            definition = definition_of(item)
            if definition is None:
                continue
            name = definition.name
            if name in definitions:
                raise DuplicateDefinition(name, [definitions[name].span, item.span])
            definitions[name] = definition

    references: dict[str, list[Reference]] = {}
    for unit in project.units:
        for ref in collect_external_references(unit):
            references.setdefault(ref.name, []).append(ref)

    unit_order = {u.file_id: i for i, u in enumerate(project.units)}
    for refs in references.values():
        refs.sort(key=lambda r: (unit_order.get(r.span.file_id, 0), r.span.start_line, r.span.start_col))
    return SymbolTable(definitions, references, unit_order)


@per_item
def definition_of(item: TopLevelItem) -> Definition | None:
    """The definition a top-level item makes; None for an include."""
    if isinstance(item, FunctionDef):
        signature = Signature(item.return_type, [p.ctype for p in item.params])
        return Definition(item.name, ElementKind.FUNCTION, item.span, signature)
    if isinstance(item, GlobalDecl):
        return Definition(item.name, ElementKind.GLOBAL, item.span)
    if isinstance(item, MacroConst):
        return Definition(item.name, ElementKind.CONSTANT, item.span)
    return None


def collect_external_references(unit: TranslationUnit) -> list[Reference]:
    """Free-name references of a single unit, in source order."""
    return [ref for item in unit.items for ref in _item_references(item)]


@per_item
def _item_references(item: TopLevelItem) -> tuple[Reference, ...]:
    """Free-name references of one top-level item, in source order."""
    collector = _ReferenceCollector()
    if isinstance(item, FunctionDef):
        collector.scopes.append({p.name for p in item.params})
        collector.stmt(item.body)
    elif isinstance(item, GlobalDecl) and item.init is not None:
        collector.expr(item.init, consumed=True)
    elif isinstance(item, MacroConst):
        collector.expr(item.value_expr, consumed=True)
    return tuple(collector.refs)


class _ReferenceCollector:
    """Walks one item recording references to names not bound locally."""

    def __init__(self):
        self.refs: list[Reference] = []
        self.scopes: list[set[str]] = []

    def _bound(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

    def stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Compound):
            self.scopes.append(set())
            for inner in stmt.stmts:
                self.stmt(inner)
            self.scopes.pop()
        elif isinstance(stmt, ExprStmt):
            self.expr(stmt.expr, consumed=False)
        elif isinstance(stmt, LocalDecl):
            # declaration point precedes the initializer, as in C
            self.scopes[-1].add(stmt.name)
            if stmt.init is not None:
                self.expr(stmt.init, consumed=True)
        elif isinstance(stmt, If):
            self.expr(stmt.cond, consumed=True)
            self.stmt(stmt.then_branch)
            if stmt.else_branch is not None:
                self.stmt(stmt.else_branch)
        elif isinstance(stmt, While):
            self.expr(stmt.cond, consumed=True)
            self.stmt(stmt.body)
        elif isinstance(stmt, For):
            self.scopes.append(set())
            if stmt.init is not None:
                self.stmt(stmt.init)
            if stmt.cond is not None:
                self.expr(stmt.cond, consumed=True)
            if stmt.step is not None:
                self.expr(stmt.step, consumed=False)
            self.stmt(stmt.body)
            self.scopes.pop()
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self.expr(stmt.value, consumed=True)

    def expr(self, expr: Expr, consumed: bool) -> None:
        if isinstance(expr, Ident):
            if not self._bound(expr.name):
                self.refs.append(Reference(expr.name, "Use", expr.span, consumed))
        elif isinstance(expr, Call):
            if not self._bound(expr.callee):
                self.refs.append(Reference(expr.callee, "Call", expr.span, consumed, list(expr.args)))
            for arg in expr.args:
                self.expr(arg, consumed=True)
        elif isinstance(expr, Unary):
            self.expr(expr.operand, consumed=True)
        elif isinstance(expr, Binary):
            self.expr(expr.lhs, consumed=True)
            self.expr(expr.rhs, consumed=True)
        elif isinstance(expr, Assign):
            # a plain-assignment target is written, not read
            self.expr(expr.target, consumed=expr.op != "=")
            self.expr(expr.value, consumed=True)
        elif isinstance(expr, Cast):
            self.expr(expr.operand, consumed=True)
        elif isinstance(expr, Paren):
            self.expr(expr.inner, consumed)


def detect_missing(table: SymbolTable) -> list[MissingElement]:
    """Referenced-but-undefined names, ordered by first reference position.

    A name with any call site is reported as a missing function (arity and
    sample arguments from its first call); names only used as values are
    missing constants. Raises ConflictingArity when call sites disagree.
    """
    missing: list[MissingElement] = []
    for name, refs in table.references.items():
        if name in table.definitions:
            continue
        calls = [r for r in refs if r.site_kind == "Call"]
        first = refs[0]
        if calls:
            arities = {len(r.call_args or []) for r in calls}
            if len(arities) > 1:
                raise ConflictingArity(name, arities)
            sample = [print_expr(a) for a in (calls[0].call_args or [])]
            missing.append(MissingElement(
                name, ElementKind.FUNCTION, first.span,
                value_consumed=any(r.value_consumed for r in refs),
                arity=len(sample), sample_args=sample,
            ))
        else:
            missing.append(MissingElement(
                name, ElementKind.CONSTANT, first.span,
                value_consumed=any(r.value_consumed for r in refs),
            ))
    missing.sort(key=lambda m: table.position(m.first_ref_span))
    return missing


def infer_signature(elem: MissingElement) -> Signature:
    """Guess a register-width signature from the first call site.

    Every parameter defaults to uint32_t; a plain decimal literal argument
    no larger than 255 narrows that position to uint8_t. The return type is
    uint32_t when any use consumes the value, else void.
    """
    if elem.kind is not ElementKind.FUNCTION:
        raise ValueError(f"cannot infer a signature for non-function '{elem.name}'")
    params = []
    for arg in elem.sample_args:
        if arg.isascii() and arg.isdigit() and int(arg) <= 255:
            params.append(CType(BaseType.U8))
        else:
            params.append(CType(BaseType.U32))
    ret = CType(BaseType.U32) if elem.value_consumed else CType(BaseType.VOID)
    return Signature(ret, params)


def token_similarity(a: str, b: str) -> float:
    """Levenshtein similarity of the two token-class sequences, in [0, 1].

    Identical after identifier/literal classing scores 1.0; both-empty
    inputs score 1.0 by convention.
    """
    seq_a = _token_classes(a)
    seq_b = _token_classes(b)
    if not seq_a and not seq_b:
        return 1.0
    return 1.0 - _levenshtein(seq_a, seq_b) / max(len(seq_a), len(seq_b))


@lru_cache(maxsize=TOKEN_CACHE_SIZE)
def _token_classes(text: str) -> tuple[str, ...]:
    return tuple(normalize_tokens(text))


def _levenshtein(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    # A shared prefix or suffix never changes the distance, and a
    # regenerated element often differs from its original in a few tokens.
    start = 0
    while start < len(a) and start < len(b) and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        current = [i]
        for j, tok_b in enumerate(b, start=1):
            cost = 0 if tok_a == tok_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]
