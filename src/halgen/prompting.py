"""Five-section prompt assembly for code-generation requests.

Every prompt carries the same frame: a cue naming the generator's role,
task instructions, hard constraints, the expected return format, and
retrieved context code. Rendering is deterministic so prompts can be
golden-tested byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from halgen.errors import HalgenError
from halgen.analysis import ElementKind, MissingElement, Signature
from halgen.c_ast import LexError, read_source
from halgen.config import data_path
from halgen.retrieval import Snippet


class TemplateError(HalgenError):
    pass


PLACEHOLDERS = ("function_name", "length_parameters", "sample_parameters", "context")

SECTION_NAMES = ("Cue", "Instructions", "Constraints", "ReturnFormat", "Context")

TEMPLATE_KEYS = ("cue", "instructions", "constraints", "return_format", "context_frame")

CONTEXT_SEPARATOR = "---"

NO_CONTEXT_TEXT = "No existing context available."

# instruction wording used in place of the function template when the
# missing element is a constant
CONSTANT_INSTRUCTIONS = "Please generate a `#define` constant definition for '{function_name}'."


@dataclass(frozen=True)
class PromptTemplate:
    cue: str
    instructions: str
    constraints: str
    return_format: str
    context_frame: str


@dataclass
class RenderedPrompt:
    sections: list[tuple[str, str]]  # (section name, text), fixed order
    flattened: str

    def section(self, name: str) -> str:
        for sec_name, text in self.sections:
            if sec_name == name:
                return text
        raise KeyError(name)


@cache
def default_template() -> PromptTemplate:
    """The bundled `templates/default_prompt.txt`, read once per process."""
    return load_template(data_path("templates", "default_prompt.txt"))


_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
_KNOWN_RE = re.compile(r"\{(" + "|".join(PLACEHOLDERS) + r")\}")


def load_template(path: str | Path) -> PromptTemplate:
    """Read a template file: `[key]` headers followed by the section text.

    Unknown section keys and unknown placeholders are rejected.
    """
    sections: dict[str, list[str]] = {}
    current: str | None = None
    try:
        source = read_source(Path(path))
    except LexError as err:
        raise TemplateError(f"{path}:{err.span.start_line}: {err.message}") from None
    for lineno, line in enumerate(source.splitlines(), start=1):
        header = re.fullmatch(r"\[([a-z_]+)\]", line.strip())
        if header:
            key = header.group(1)
            if key not in TEMPLATE_KEYS:
                raise TemplateError(f"{path}:{lineno}: unknown template section '{key}'")
            if key in sections:
                raise TemplateError(f"{path}:{lineno}: duplicate template section '{key}'")
            sections[key] = []
            current = key
            continue
        if current is None:
            if line.strip():
                raise TemplateError(f"{path}:{lineno}: text before the first section header")
            continue
        sections[current].append(line)
    missing = [key for key in TEMPLATE_KEYS if key not in sections]
    if missing:
        raise TemplateError(f"{path}: missing template sections: {', '.join(missing)}")
    texts = {key: "\n".join(lines).strip() for key, lines in sections.items()}
    for key, text in texts.items():
        if not text:
            raise TemplateError(f"{path}: template section '{key}' is empty")
        for match in _PLACEHOLDER_RE.finditer(text):
            if match.group(1) not in PLACEHOLDERS:
                raise TemplateError(f"{path}: unknown placeholder '{{{match.group(1)}}}' in '{key}'")
    return PromptTemplate(**{key: texts[key] for key in TEMPLATE_KEYS})


def build_prompt(
    elem: MissingElement,
    sig: Signature | None,
    retrieved: list[Snippet],
    template: PromptTemplate | None = None,
) -> RenderedPrompt:
    """Render the five sections for one missing element.

    Retrieved snippet texts appear in rank order, separated by a `---`
    line; with no context the frame closes with a fixed notice instead.
    """
    template = template or default_template()
    if retrieved:
        context = f"\n{CONTEXT_SEPARATOR}\n".join(s.text for s in retrieved)
    else:
        context = NO_CONTEXT_TEXT
    values = {
        "function_name": elem.name,
        "length_parameters": str(elem.arity if elem.arity is not None else 0),
        "sample_parameters": ", ".join(elem.sample_args),
        "context": context,
    }

    def fill(text: str) -> str:
        # single pass over the template text; substituted values are never
        # rescanned, so C braces in context cannot masquerade as placeholders
        return _KNOWN_RE.sub(lambda m: values[m.group(1)], text)

    instructions_template = (
        CONSTANT_INSTRUCTIONS if elem.kind is ElementKind.CONSTANT else template.instructions
    )
    sections = [
        ("Cue", fill(template.cue)),
        ("Instructions", fill(instructions_template)),
        ("Constraints", fill(template.constraints)),
        ("ReturnFormat", fill(template.return_format)),
        ("Context", fill(template.context_frame)),
    ]
    for name, text in sections:
        if not text.strip():
            raise TemplateError(f"rendered section '{name}' is empty")
        leftover = _KNOWN_RE.search(text)
        if leftover:
            raise TemplateError(f"unsubstituted placeholder {leftover.group(0)} in section '{name}'")
    flattened = "\n\n".join(text for _, text in sections)
    return RenderedPrompt(sections, flattened)
