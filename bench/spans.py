"""Span tracing around halgen's layer boundaries, for the traced run only.

`Tracer.installed()` replaces each public layer function named in TARGETS
with a wrapper, in every halgen module that holds a reference to it, which
is where its callers look it up. The wrappers record one span per call
(name, parent, start and end in ns) and keep per-name call counts, self
time and a few non-timing counters in memory. A call nested directly in a
span of the same name (the printer printing a sub-expression, say) is
folded into that span. Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


def _lexed_bytes(counts, args, kwargs, result):
    counts["c_ast.lex.bytes"] += len((args[0] if args else kwargs["source"]).encode("utf-8"))


def _vetted(counts, args, kwargs, result):
    counts["generation.vet.accepted"] += type(result).__name__ == "VettedPatch"


def _prompt_bytes(counts, args, kwargs, result):
    counts["prompting.prompt_bytes"] += len(result.flattened.encode("utf-8"))


def _simulated(counts, args, kwargs, result):
    state, _verdict = result
    counts["simulate.steps"] += state.steps_used
    counts["simulate.usart_bytes"] += len(state.usart_log)


# (defining module, function, span name, counter hook)
TARGETS = (
    ("halgen.c_ast.lexer", "lex", "c_ast.lex", _lexed_bytes),
    ("halgen.c_ast.lexer", "normalize_tokens", "c_ast.lex", _lexed_bytes),
    ("halgen.c_ast.parser", "parse", "c_ast.parse", None),
    ("halgen.c_ast.printer", "pretty_print", "c_ast.print", None),
    ("halgen.c_ast.printer", "print_item", "c_ast.print", None),
    ("halgen.c_ast.printer", "print_expr", "c_ast.print", None),
    ("halgen.c_ast.printer", "print_type", "c_ast.print", None),
    ("halgen.retrieval", "chunk_codebase", "retrieval.chunk", None),
    ("halgen.retrieval", "embed", "retrieval.embed", None),
    ("halgen.retrieval", "search", "retrieval.search", None),
    ("halgen.generation", "generate", "generation.generate", None),
    ("halgen.generation", "vet_patch", "generation.vet", _vetted),
    ("halgen.completion", "complete", "completion.complete", None),
    ("halgen.completion", "insert_patch", "completion.insert", None),
    ("halgen.analysis", "build_symbol_table", "analysis.symbol_table", None),
    ("halgen.analysis", "detect_missing", "analysis.detect", None),
    ("halgen.analysis", "token_similarity", "analysis.similarity", None),
    ("halgen.prompting", "build_prompt", "prompting.render", _prompt_bytes),
    ("halgen.simulate.interp", "exec_program", "simulate.exec", _simulated),
    ("halgen.experiment", "run_experiment", "experiment.run", None),
)
# a classmethod: callers look it up on the class
KB_LOAD = ("halgen.generation", "KnowledgeBase", "load", "generation.kb_load")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []  # name, parent id, start, end
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # non-timing counters from the hooks
        self._stack: list[list] = []  # [name, span id, ns covered by children]

    def _wrap(self, fn, name: str, hook):
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            frame = [name, span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self.self_ns[name] += duration - frame[2]
                self.calls[name] += 1
                spans[span_id] = (name, parent, start, end)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        halgen_modules = [m for name, m in list(sys.modules.items())
                          if name == "halgen" or name.startswith("halgen.")]
        undo: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, span_name, hook in TARGETS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(original, span_name, hook)
                for module in halgen_modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
            module_name, cls_name, attr, span_name = KB_LOAD
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(original.__func__, span_name, None)))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def snapshot(self) -> dict[str, int]:
        """Every non-timing number: calls per span name and hook counters."""
        snap = {f"{name}.calls": n for name, n in self.calls.items()}
        snap.update(self.counts)
        return snap

    def write_jsonl(self, path) -> None:
        """One line per span, then one summary line with the totals."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, (name, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start_ns": start, "end_ns": end}) + "\n")
            out.write(json.dumps({"summary": {"counts": self.snapshot(),
                                              "self_ns": dict(self.self_ns)}}) + "\n")


# Per-layer metrics: name -> unit. Timings and counts are per operation so
# runs of different length and speed compare directly.
LAYER_UNITS = {
    "c_ast.lex.calls": "calls/op",
    "c_ast.lex.self_s": "s/op",
    "c_ast.lex.mb_per_s": "MB/s",
    "c_ast.parse.calls": "calls/op",
    "c_ast.parse.self_s": "s/op",
    "c_ast.print.self_s": "s/op",
    "retrieval.chunk.self_s": "s/op",
    "retrieval.embed.calls": "calls/op",
    "retrieval.embed.self_s": "s/op",
    "retrieval.search.self_s": "s/op",
    "generation.kb_load.calls": "calls/op",
    "generation.kb_load.self_s": "s/op",
    "generation.generate.calls": "calls/op",
    "generation.vet.self_s": "s/op",
    "generation.vet.accept_ratio": "ratio",
    "completion.complete.self_s": "s/op",
    "completion.insert.calls": "calls/op",
    "completion.insert.self_s": "s/op",
    "analysis.symbol_table.calls": "calls/op",
    "analysis.symbol_table.self_s": "s/op",
    "analysis.detect.self_s": "s/op",
    "analysis.similarity.self_s": "s/op",
    "prompting.render.self_s": "s/op",
    "prompting.prompt_bytes": "B/op",
    "simulate.exec.self_s": "s/op",
    "simulate.steps": "steps/op",
    "simulate.steps_per_s": "steps/s",
    "simulate.usart_bytes": "B/op",
    "experiment.run.self_s": "s/op",
}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer values over `ops` traced operations.

    A layer the workload never enters reads 0; so does a rate or ratio
    whose base is 0 (nothing vetted, nothing lexed).
    """
    values: dict[str, float] = {}
    for name in LAYER_UNITS:
        layer, _, metric = name.rpartition(".")
        if metric == "calls":
            values[name] = tracer.calls[layer] / ops
        elif metric == "self_s":
            values[name] = tracer.self_ns[layer] / 1e9 / ops
    counts = tracer.counts
    lex_s = tracer.self_ns["c_ast.lex"] / 1e9
    values["c_ast.lex.mb_per_s"] = counts["c_ast.lex.bytes"] / 1e6 / lex_s if lex_s else 0.0
    vetted = tracer.calls["generation.vet"]
    values["generation.vet.accept_ratio"] = (
        counts["generation.vet.accepted"] / vetted if vetted else 0.0)
    values["prompting.prompt_bytes"] = counts["prompting.prompt_bytes"] / ops
    exec_s = tracer.self_ns["simulate.exec"] / 1e9
    values["simulate.steps"] = counts["simulate.steps"] / ops
    values["simulate.steps_per_s"] = counts["simulate.steps"] / exec_s if exec_s else 0.0
    values["simulate.usart_bytes"] = counts["simulate.usart_bytes"] / ops
    return values
