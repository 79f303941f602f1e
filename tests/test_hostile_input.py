"""Untrusted input must end in a documented exit code or a ConfigError.

Covers the scenario and board map loaders, source, snippet and template
files that are not UTF-8, the compile gate's argument handling, a program
too deeply nested for the interpreter's stack, macros that overflow the
diagnostic limit, and a hypothesis fuzz of the CLI subcommands on generated
project files.
"""

import json
import shlex
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_project
from halgen.analysis import load_project
from halgen.c_ast import LexError, print_item
from halgen.cli import main
from halgen.completion import delete_element
from halgen.config import (
    default_board_map_path,
    default_kb_path,
    default_project_path,
    default_scenario_path,
)
from halgen.generation import KnowledgeBase, KnowledgeBaseError
from halgen.prompting import TemplateError, load_template
from halgen.simulate import ConfigError, load_board_map, load_scenario


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# --- scenario loader -----------------------------------------------------------------

def test_expected_log_is_latin1_one_byte_per_character(tmp_path):
    path = write_json(tmp_path / "s.json", {"expected_log": "\u00ffA\u0080"})
    assert load_scenario(path).expected_log == b"\xffA\x80"


def test_expected_log_character_above_ff_is_config_error(tmp_path):
    path = write_json(tmp_path / "s.json", {"expected_log": "ok\u20ac"})
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert err.value.field_path == "expected_log"
    assert "index 2" in str(err.value)


@pytest.mark.parametrize("data, field", [
    ([1, 2], "s.json"),
    ({"gpio_inputs": [["GPIOA:5", [1]]]}, "gpio_inputs"),
    ({"gpio_inputs": {"GPIOA:x": [1]}}, "gpio_inputs[GPIOA:x]"),
    ({"gpio_inputs": {"GPIOA:5": 1}}, "gpio_inputs[GPIOA:5]"),
    ({"expected_registers": 5}, "expected_registers"),
])
def test_malformed_scenario_is_config_error(tmp_path, data, field):
    path = write_json(tmp_path / "s.json", data)
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert err.value.field_path.endswith(field)


def test_malformed_scenario_exits_64(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", [1, 2])
    code = main(["simulate", str(default_project_path()), str(path),
                 "--out", str(tmp_path / "v.json")])
    assert code == 64
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("overrides, field", [
    ({"expected_log": 5}, "expected_log"),
    ({"expected_log": None}, "expected_log"),
    ({"expected_registers": [["0x1ffffffff", 0]]}, "expected_registers[0]"),
    ({"expected_registers": [["GPIOA.ODR", "0x100000000"]]}, "expected_registers[0]"),
    ({"gpio_inputs": {"GPIOZ:5": [1]}}, "gpio_inputs[GPIOZ:5]"),
    ({"fuel_limit": 0}, "fuel_limit"),
    ({"fuel_limit": -1}, "fuel_limit"),
])
def test_scenario_field_that_cannot_mean_what_it_says_exits_64(tmp_path, capsys, overrides,
                                                                field):
    data = json.loads(default_scenario_path().read_text(encoding="utf-8"))
    data.update(overrides)
    path, out = write_json(tmp_path / "s.json", data), tmp_path / "v.json"
    code = main(["simulate", str(default_project_path()), str(path), "--out", str(out)])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and "Traceback" not in err
    assert not out.exists()


# --- board map loader ---------------------------------------------------------------

def board_with(tmp_path, **overrides):
    """The bundled board map with fields of its GPIOA peripheral replaced."""
    data = json.loads(default_board_map_path().read_text(encoding="utf-8"))
    data["peripherals"][1].update(overrides)
    return write_json(tmp_path / "board.json", data)


@pytest.mark.parametrize("overrides, field", [
    ({"registers": {"MODER": 0}}, "peripherals[1].registers"),
    ({"registers": [5]}, "peripherals[1].registers[0]"),
    ({"registers": [{"offset": 0}]}, "peripherals[1].registers[0]"),
    ({"registers": [{"name": 5, "offset": 0}]}, "peripherals[1].registers[0]"),
    ({"clock_enable": 5}, "peripherals[1].clock_enable"),
    ({"clock_enable": "peripheral register bit"}, "peripherals[1].clock_enable"),
    ({"name": ["GPIOA"]}, "peripherals[1]"),
    ({"name": None}, "peripherals[1]"),
    ({"clock_enable": {"peripheral": ["RCC"], "register": "AHB1ENR", "bit": 0}},
     "peripherals[1].clock_enable.peripheral"),
    ({"clock_enable": {"peripheral": "RCC", "register": {"AHB1ENR": 0}, "bit": 0}},
     "peripherals[1].clock_enable.register"),
])
def test_malformed_board_map_is_config_error(tmp_path, overrides, field):
    with pytest.raises(ConfigError) as err:
        load_board_map(board_with(tmp_path, **overrides))
    assert err.value.field_path == field


def test_board_map_with_non_object_register_exits_64(tmp_path, capsys):
    config = write_json(tmp_path / "config.json",
                        {"board_map_path": str(board_with(tmp_path, registers=[5]))})
    code = main(["simulate", str(default_project_path()), str(default_scenario_path()),
                 "--config", str(config), "--out", str(tmp_path / "v.json")])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: peripherals[1].registers[0]: ") and "Traceback" not in err


def test_board_map_with_non_string_peripheral_name_exits_64(tmp_path, capsys):
    config = write_json(tmp_path / "config.json",
                        {"board_map_path": str(board_with(tmp_path, name=["GPIOA"]))})
    code = main(["simulate", str(default_project_path()), str(default_scenario_path()),
                 "--config", str(config), "--out", str(tmp_path / "v.json")])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: peripherals[1]: ") and "Traceback" not in err


# --- HTTP settings ------------------------------------------------------------------

@pytest.mark.parametrize("http", [
    {"auth_env": 5},
    {"model": ["gpt"]},
    {"endpoint": 5},
    {"endpoint": ""},
    {"endpoint": "file:///etc/passwd"},
    {"endpoint": "ftp://127.0.0.1/chat"},
    {"endpoint": "http:///v1/chat/completions"},
    {"endpoint": "http://127.0.0.1:port/v1/chat/completions"},
    {"endpoint": "http://[::1/v1/chat/completions"},
    {"endpoint": "http://127.0.0.1:1/v1/chat completions"},
    {"timeout_s": -1},
    {"timeout_s": 0},
    {"timeout_s": float("nan")},
    {"timeout_s": 1e300},
])
def test_malformed_http_settings_exit_64(tmp_path, monkeypatch, capsys, http):
    monkeypatch.setenv("HALGEN_API_KEY", "token")
    project = tmp_path / "proj"
    write_project(delete_element(load_project(default_project_path()), "set_io_mode"), project)
    config = write_json(tmp_path / "config.json", {"http": http})
    code = main(["complete", str(project), str(tmp_path / "out"),
                 "--backend", "http", "--config", str(config)])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: http.") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# --- knowledge-base manifest ----------------------------------------------------------

@pytest.mark.parametrize("manifest, message", [
    ("{", "invalid JSON"),
    ("[]", "top level must be an object"),
    ('{"entries": "RCC_BASE"}', "'entries' must be a list"),
    ('{"entries": [5]}', "entries[0] must be an object"),
    ('{"entries": [{"kind": "Constant"}]}', "entries[0] has no 'name'"),
    ('{"entries": [{"name": "RCC_BASE"}]}', "entries[0] has no 'kind'"),
    ('{"entries": [{"name": "RCC_BASE", "kind": "Macro"}]}', "unknown kind 'Macro'"),
    ('{"entries": [{"name": "../hal", "kind": "Constant"}]}', "'../hal' is not a C identifier"),
    ('{"entries": [{"name": 5, "kind": "Constant"}]}', "5 is not a C identifier"),
])
def test_malformed_kb_manifest_is_an_error_without_traceback(tmp_path, capsys, manifest, message):
    kb = tmp_path / "kb"
    kb.mkdir()
    (kb / "manifest.json").write_text(manifest, encoding="utf-8")
    (tmp_path / "hal.c").write_text("#define RCC_BASE 0x40023800\n", encoding="utf-8")
    config = write_json(tmp_path / "config.json", {"kb_path": str(kb)})
    project = tmp_path / "proj"
    write_project(delete_element(load_project(default_project_path()), "set_io_mode"), project)
    code = main(["complete", str(project), str(tmp_path / "out"), "--config", str(config)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err

    report_path = tmp_path / "report.json"
    assert main(["experiment", "random_deletion", "--iterations", "2", "--config", str(config),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    errors = [it["error"] for it in report["per_iteration"]]
    assert len(errors) == 2
    assert all(e.startswith("KnowledgeBaseError: ") and message in e for e in errors)


# --- files that are not UTF-8 --------------------------------------------------------

def copy_of(source_dir, directory):
    directory.mkdir()
    for source in source_dir.iterdir():
        (directory / source.name).write_bytes(source.read_bytes())
    return directory


def test_project_source_that_is_not_utf8_is_a_lex_error_at_its_line(tmp_path):
    project = copy_of(default_project_path(), tmp_path / "proj")
    (project / "hal.c").write_bytes(b"#include <stdint.h>\n\n#define X 0x1\xff\n")
    with pytest.raises(LexError) as err:
        load_project(project)
    assert (err.value.span.file_id, err.value.span.start_line, err.value.span.start_col) == (
        "hal.c", 3, 14)


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_project_source_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    project = copy_of(default_project_path(), tmp_path / "proj")
    (project / "hal.c").write_bytes(b"\xff" + (project / "hal.c").read_bytes())
    args = [command, str(project)]
    if command == "simulate":
        args += [str(default_scenario_path()), "--out", str(tmp_path / "v.json")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: hal.c:1:1: byte 0xFF is not UTF-8\n"


def test_kb_snippet_that_is_not_utf8_exits_1(tmp_path, capsys):
    kb = copy_of(default_kb_path(), tmp_path / "kb")
    (kb / "RCC_BASE.c").write_bytes(b"#define RCC_BASE 0x4002\xc3\n")
    with pytest.raises(KnowledgeBaseError, match=r"'RCC_BASE'.*RCC_BASE\.c:1:24: "):
        KnowledgeBase.load(kb)
    config = write_json(tmp_path / "config.json", {"kb_path": str(kb)})
    project = tmp_path / "proj"
    write_project(delete_element(load_project(default_project_path()), "set_io_mode"), project)
    assert main(["complete", str(project), str(tmp_path / "out"), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "RCC_BASE.c" in err and "Traceback" not in err


def test_prompt_template_that_is_not_utf8_exits_1(tmp_path, capsys):
    template = tmp_path / "prompt.txt"
    template.write_bytes(b"[cue]\nWrite C.\n\xfe\n")
    with pytest.raises(TemplateError, match=r"prompt\.txt:3: byte 0xFE is not UTF-8"):
        load_template(template)
    config = write_json(tmp_path / "config.json", {"template_path": str(template)})
    project = tmp_path / "proj"
    write_project(delete_element(load_project(default_project_path()), "set_io_mode"), project)
    assert main(["complete", str(project), str(tmp_path / "out"), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "prompt.txt:3" in err and "Traceback" not in err


# --- interpreter stack ---------------------------------------------------------------

def test_recursion_too_deep_for_the_stack_fails_the_verdict(tmp_path, capsys):
    # 64 calls are allowed, but each costs a Python frame per statement
    # level of its body: 50 ifs deep, the stack runs out first
    project = tmp_path / "proj"
    project.mkdir()
    (project / "hal.c").write_bytes((default_project_path() / "hal.c").read_bytes())
    app = (default_project_path() / "main.c").read_text(encoding="utf-8")
    deep = "void f(void) { " + "if (1) " * 50 + "f(); }\n\n"
    app = app.replace("int main(void) {\n", deep + "int main(void) {\n    f();\n", 1)
    (project / "main.c").write_text(app, encoding="utf-8")
    main_line = app.splitlines().index("int main(void) {") + 1

    out = tmp_path / "verdict.json"
    assert main(["simulate", str(project), str(default_scenario_path()), "--out", str(out)]) == 5
    verdict = json.loads(out.read_text(encoding="utf-8"))
    assert not verdict["passed"]
    assert verdict["diagnostics"] == [{"severity": "error",
                                       "message": "call nesting exceeds the interpreter stack",
                                       "where": f"main.c:{main_line}"}]
    assert "Traceback" not in capsys.readouterr().err


def test_macros_past_the_diagnostic_limit_fail_the_verdict(tmp_path, capsys):
    # folding diagnoses each distinct out-of-range shift, and the 1,001st
    # diagnostic stops the run
    project = tmp_path / "proj"
    project.mkdir()
    macros = "".join(f"#define M{i} (1 << (32 + {i}))\n" for i in range(1001))
    (project / "main.c").write_text(macros + "int main(void) { return 0; }\n", encoding="utf-8")
    out = tmp_path / "verdict.json"
    assert main(["simulate", str(project), str(default_scenario_path()), "--out", str(out)]) == 5
    verdict = json.loads(out.read_text(encoding="utf-8"))
    assert not verdict["passed"]
    assert len(verdict["diagnostics"]) == 1000
    assert verdict["diagnostics"][0] == {"severity": "error",
                                         "message": "shift count 32 out of range",
                                         "where": "main.c:1"}
    assert "Traceback" not in capsys.readouterr().err


# --- compile gate ------------------------------------------------------------------

RECORD_ARGV = "import json, sys\nopen(sys.argv[1], 'a').write(json.dumps(sys.argv[2:]) + '\\n')\n"


def test_compile_gate_passes_each_path_as_one_argument(tmp_path, monkeypatch):
    project = tmp_path / "my proj; touch injected;"
    project.mkdir()
    for source in default_project_path().iterdir():
        if source.suffix == ".c":
            (project / source.name).write_bytes(source.read_bytes())
    script = tmp_path / "record.py"
    script.write_text(RECORD_ARGV, encoding="utf-8")
    log = tmp_path / "argv.jsonl"
    command = " ".join(shlex.quote(str(a)) for a in (sys.executable, script, log)) + " {file}"
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "verdict.json"
    assert main(["simulate", str(project), str(default_scenario_path()),
                 "--out", str(out), "--compile-cmd", command]) == 0
    calls = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert calls == [[str(project / "hal.c")], [str(project / "main.c")]]
    assert json.loads(out.read_text())["compile_exit_codes"] == {"hal.c": 0, "main.c": 0}
    assert not list(tmp_path.rglob("injected"))


@pytest.mark.parametrize("command", ['cc "{file}', "   "])
def test_malformed_compile_command_exits_64(tmp_path, command, capsys):
    code = main(["simulate", str(default_project_path()), str(default_scenario_path()),
                 "--out", str(tmp_path / "v.json"), "--compile-cmd", command])
    assert code == 64
    assert capsys.readouterr().err.startswith("error: --compile-cmd: ")


# --- CLI fuzz ------------------------------------------------------------------------

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4, 5, 64}

DEMO_HAL = load_project(default_project_path()).hal_unit()
DEMO_HAL_ITEMS = [print_item(item) for item in DEMO_HAL.items]
DEMO_MAIN = (default_project_path() / "main.c").read_text(encoding="utf-8")

NOISE = ["", "}", "{", ";", "(", "x", "1", "++", "--", "return", "while (1) { }",
         "#define", "int", "@", "0x", "²", "(" * 80, "uint32_t USART2_BASE = 1;"]


@st.composite
def hal_sources(draw):
    """The demo HAL with items dropped and noise inserted, or arbitrary text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=60))
    keep = draw(st.lists(st.booleans(), min_size=len(DEMO_HAL_ITEMS),
                         max_size=len(DEMO_HAL_ITEMS)))
    chunks = [item for item, kept in zip(DEMO_HAL_ITEMS, keep) if kept]
    for _ in range(draw(st.integers(0, 2))):
        chunks.insert(draw(st.integers(0, len(chunks))), draw(st.sampled_from(NOISE)))
    return "\n".join(chunks) + "\n"


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hal_sources())
def test_cli_subcommands_exit_with_documented_codes(hal_text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        project = tmp / "proj"
        project.mkdir()
        (project / "hal.c").write_text(hal_text, encoding="utf-8")
        (project / "main.c").write_text(DEMO_MAIN, encoding="utf-8")
        scenario = json.loads(default_scenario_path().read_text(encoding="utf-8"))
        scenario["fuel_limit"] = 20000  # a diverging mutant stops quickly
        scenario_path = write_json(tmp / "scenario.json", scenario)
        completed = tmp / "out"
        for argv in (["analyze", project], ["index", project, tmp / "index.json"],
                     ["complete", project, completed]):
            assert main([str(a) for a in argv]) in DOCUMENTED_EXIT_CODES, argv
        # the completed project when there is one, to reach a verdict
        target = completed if completed.exists() else project
        argv = ["simulate", target, scenario_path, "--out", tmp / "verdict.json"]
        assert main([str(a) for a in argv]) in DOCUMENTED_EXIT_CODES, argv
