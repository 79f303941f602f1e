import pytest

from halgen.analysis import Project, load_project
from halgen.c_ast import SourceSpan, pretty_print
from halgen.config import (
    data_path,
    default_board_map_path,
    default_kb_path,
    default_project_path,
    default_scenario_path,
)
from halgen.generation import KbBackend, KnowledgeBase
from halgen.simulate import load_board_map, load_scenario


@pytest.fixture(scope="session")
def demo_dir():
    return default_project_path()


@pytest.fixture(scope="session")
def demo_sources(demo_dir):
    return {p.name: p.read_text() for p in sorted(demo_dir.iterdir()) if p.suffix == ".c"}


@pytest.fixture()
def demo_project(demo_dir) -> Project:
    return load_project(demo_dir)


@pytest.fixture(scope="session")
def board():
    return load_board_map(default_board_map_path())


@pytest.fixture()
def scenario(board):
    return load_scenario(default_scenario_path(), board)


@pytest.fixture(scope="session")
def kb() -> KnowledgeBase:
    return KnowledgeBase.load(default_kb_path())


@pytest.fixture()
def kb_backend(kb) -> KbBackend:
    return KbBackend(kb)


@pytest.fixture(scope="session")
def canonical_set_io_mode(kb) -> str:
    return kb.entries["set_io_mode"]


@pytest.fixture(scope="session")
def kb_snippet_texts(kb) -> dict[str, str]:
    return dict(kb.entries)


def span_text(source: str, span: SourceSpan) -> str:
    """Slice the text covered by an end-inclusive span out of `source`."""
    lines = source.splitlines(keepends=True)
    if span.start_line == span.end_line:
        return lines[span.start_line - 1][span.start_col - 1:span.end_col]
    parts = [lines[span.start_line - 1][span.start_col - 1:]]
    parts.extend(lines[i] for i in range(span.start_line, span.end_line - 1))
    parts.append(lines[span.end_line - 1][:span.end_col])
    return "".join(parts)


def write_project(project: Project, directory) -> None:
    """Render a parsed project back to .c files in `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    for unit in project.units:
        (directory / unit.file_id).write_text(pretty_print(unit), encoding="utf-8")


@pytest.fixture()
def project_writer(tmp_path):
    def _write(project: Project, name: str = "proj"):
        target = tmp_path / name
        write_project(project, target)
        return target

    return _write


@pytest.fixture(scope="session")
def template_file():
    return data_path("templates", "default_prompt.txt")
