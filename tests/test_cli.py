import hashlib
import json
import sys
from pathlib import Path

import pytest

from halgen.cli import main
from halgen.completion import delete_all_hal, delete_element
from halgen.config import default_scenario_path
from conftest import write_project


def run_cli(*argv):
    return main([str(a) for a in argv])


def checksum_tree(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture()
def gapped_dir(demo_project, tmp_path):
    target = tmp_path / "gapped"
    write_project(delete_element(demo_project, "hal_gpio_read"), target)
    return target


@pytest.fixture()
def hollow_dir(demo_project, tmp_path):
    target = tmp_path / "hollow"
    mutated, _ = delete_all_hal(demo_project)
    write_project(mutated, target)
    return target


# --- analyze -------------------------------------------------------------------

def test_analyze_closed_project(demo_dir, capsys):
    assert run_cli("analyze", demo_dir) == 0
    assert capsys.readouterr().out == ""


def test_analyze_reports_gap(gapped_dir, capsys):
    assert run_cli("analyze", gapped_dir) == 3
    out = capsys.readouterr().out
    assert out.startswith("hal_gpio_read Function arity=2")
    assert "first_ref=main.c:" in out


def test_analyze_reports_constants(hollow_dir, capsys):
    assert run_cli("analyze", hollow_dir) == 3
    out = capsys.readouterr().out
    assert "USART2_BASE Constant" in out
    assert "usart_send_byte Function arity=1" in out


def test_analyze_syntax_error(tmp_path, capsys):
    (tmp_path / "broken.c").write_text("void f( {\n")
    assert run_cli("analyze", tmp_path) == 1
    err = capsys.readouterr().err
    assert "broken.c:1" in err


# --- index ---------------------------------------------------------------------

def test_index_demo_project(demo_dir, tmp_path, capsys):
    index_path = tmp_path / "demo.idx"
    assert run_cli("index", demo_dir, index_path) == 0
    assert capsys.readouterr().out.strip() == "indexed 12 snippets"
    assert index_path.is_file()
    assert (tmp_path / "demo.idx.snippets").is_file()


def test_index_empty_project(tmp_path, capsys):
    project_dir = tmp_path / "empty"
    project_dir.mkdir()
    (project_dir / "only.c").write_text("")
    assert run_cli("index", project_dir, tmp_path / "empty.idx") == 0
    assert capsys.readouterr().out.strip() == "indexed 0 snippets"


def test_index_unwritable_path(demo_dir, tmp_path):
    assert run_cli("index", demo_dir, tmp_path / "no_such_dir" / "x.idx") == 1


# --- complete --------------------------------------------------------------------

def test_complete_single_gap(gapped_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli("complete", gapped_dir, out_dir) == 0
    report = json.loads((out_dir / "completion_report.json").read_text())
    assert report["closed"] is True
    assert report["total_calls"] == 1
    assert report["inserted"] == [["hal_gpio_read", "Function", "kb", 0]]
    assert "uint32_t hal_gpio_read(" in (out_dir / "hal.c").read_text()


def test_complete_full_hal(hollow_dir, tmp_path):
    out_dir = tmp_path / "out"
    assert run_cli("complete", hollow_dir, out_dir) == 0
    report = json.loads((out_dir / "completion_report.json").read_text())
    assert report["closed"] is True
    assert len(report["inserted"]) == 12
    assert report["total_calls"] == 12


def test_complete_http_backend_down(gapped_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HALGEN_API_KEY", "token")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "backend": "http",
        "http": {"endpoint": "http://127.0.0.1:1/unreachable",
                 "timeout_s": 0.5, "max_retries": 0},
    }))
    out_dir = tmp_path / "out"
    assert run_cli("complete", gapped_dir, out_dir, "--config", config) == 4
    report = json.loads((out_dir / "completion_report.json").read_text())
    assert report["closed"] is False
    assert report["failures"] == [["hal_gpio_read", ["backend:network"]]]


# --- simulate -----------------------------------------------------------------------

def test_simulate_demo(demo_dir, tmp_path, capsys):
    out = tmp_path / "verdict.json"
    assert run_cli("simulate", demo_dir, default_scenario_path(), "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "passed: True" in stdout
    assert "PASS\\n" in stdout
    verdict = json.loads(out.read_text())
    assert verdict["passed"] is True
    assert verdict["log_match"] is True


def test_simulate_wrong_expected_log(demo_dir, tmp_path):
    scenario = tmp_path / "wrong.json"
    scenario.write_text(json.dumps({
        "gpio_inputs": {"GPIOA:5": [1]},
        "expected_log": "GOODBYE\n",
    }))
    assert run_cli("simulate", demo_dir, scenario, "--out", tmp_path / "v.json") == 5


def test_simulate_open_project_is_setup_error(gapped_dir, tmp_path):
    code = run_cli("simulate", gapped_dir, default_scenario_path(),
                   "--out", tmp_path / "v.json")
    assert code == 2


@pytest.mark.parametrize("macros, message", [
    ("#define A B\n#define B A\n", "macro definitions form a cycle at 'A'"),
    ("#define A g\n", "macro value references non-constant name 'g'"),
])
def test_simulate_macro_that_does_not_fold_is_setup_error(tmp_path, capsys, macros, message):
    project = tmp_path / "proj"
    project.mkdir()
    (project / "main.c").write_text(
        macros + "uint32_t g;\nint main(void) { g = A; return 0; }\n", encoding="utf-8")
    assert run_cli("simulate", project, default_scenario_path(), "--out", tmp_path / "v.json") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_compile_hook_records_exit_codes(demo_dir, tmp_path):
    out = tmp_path / "verdict.json"
    command = f'{sys.executable} -c "import sys; sys.exit(0)" {{file}}'
    assert run_cli("simulate", demo_dir, default_scenario_path(),
                   "--out", out, "--compile-cmd", command) == 0
    verdict = json.loads(out.read_text())
    assert verdict["compile_exit_codes"] == {"hal.c": 0, "main.c": 0}


# --- experiment ------------------------------------------------------------------------

def test_experiment_zero_iterations_is_usage_error(tmp_path):
    assert run_cli("experiment", "random_deletion", "--iterations", 0,
                   "--out", tmp_path / "r.json") == 64


def test_experiment_unknown_kind_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("experiment", "banana", "--out", tmp_path / "r.json")
    assert exc.value.code == 64


def test_experiment_report_shape_and_determinism(tmp_path, demo_dir):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    before = checksum_tree(demo_dir)
    assert run_cli("experiment", "random_deletion", "--iterations", 5,
                   "--seed", 7, "--out", first) == 0
    assert run_cli("experiment", "random_deletion", "--iterations", 5,
                   "--seed", 7, "--out", second) == 0
    assert checksum_tree(demo_dir) == before  # pristine fixture untouched
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert list(report) == ["experiment", "iterations", "seed", "passes", "pass_rate",
                            "total_generation_calls", "per_iteration"]
    assert report["iterations"] == 5
    assert report["seed"] == 7
    assert report["passes"] == 5
    assert report["pass_rate"] == 1.0
    assert len(report["per_iteration"]) == 5
    for record in report["per_iteration"]:
        assert list(record) == ["deleted", "calls", "closed", "verdict_passed",
                                "mean_similarity"]
        assert record["mean_similarity"] == 1.0


def test_experiment_full_hal_single_iteration(tmp_path):
    out = tmp_path / "full.json"
    assert run_cli("experiment", "full_hal", "--iterations", 1, "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["total_generation_calls"] == 12
    assert report["per_iteration"][0]["calls"] == 12
    assert len(report["per_iteration"][0]["deleted"]) == 12


def test_experiment_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("experiment", "random_deletion", "--iterations", 6, "--seed", 1, "--out", a)
    run_cli("experiment", "random_deletion", "--iterations", 6, "--seed", 2, "--out", b)
    deleted_a = [r["deleted"] for r in json.loads(a.read_text())["per_iteration"]]
    deleted_b = [r["deleted"] for r in json.loads(b.read_text())["per_iteration"]]
    assert deleted_a != deleted_b


# --- config and flags ----------------------------------------------------------------------

def test_unknown_config_key_is_usage_error(demo_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"no_such_key": 1}))
    assert run_cli("analyze", demo_dir, "--config", config) == 64


def test_missing_board_map_is_usage_error(demo_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"board_map_path": str(tmp_path / "nope.json")}))
    assert run_cli("analyze", demo_dir, "--config", config) == 64


def test_strict_flag_enables_strict_gating(tmp_path, demo_dir):
    # the demo fixture passes strict mode, so --strict stays green
    assert run_cli("simulate", demo_dir, default_scenario_path(),
                   "--out", tmp_path / "v.json", "--strict") == 0


def test_usage_error_exit_code_for_bad_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_simulate_compile_hook_records_failures(demo_dir, tmp_path):
    out = tmp_path / "verdict.json"
    command = f'{sys.executable} -c "import sys; sys.exit(3)" {{file}}'
    code = run_cli("simulate", demo_dir, default_scenario_path(),
                   "--out", out, "--compile-cmd", command)
    assert code == 0  # the interpreter remains the functional judge
    verdict = json.loads(out.read_text())
    assert verdict["compile_exit_codes"] == {"hal.c": 3, "main.c": 3}
    assert verdict["passed"] is True
