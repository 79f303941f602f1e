"""Tests for the benchmark's own oracle, checks and tracing.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import shutil
from pathlib import Path

import pytest

import halgen.experiment
import halgen.simulate
from halgen.analysis import load_project
from halgen.config import default_board_map_path, default_kb_path, default_project_path
from halgen.simulate import load_board_map, load_scenario

import programs
import run
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _params(**overrides) -> programs.Params:
    base = dict(rounds=3, period=2, out_pin=5, in_pin=0, mul=3, add=1, shift=4,
                toggle_bit=0, final_bit=2, weight=16, init=1, input_bits=(1, 0))
    base.update(overrides)
    return programs.Params(**base)


# Worked by hand from render_main's loop, one round at a time:
#  - small: states 20 (input 1 added, reported), 63 (toggle), 181 (toggle,
#    input 0, reported as 181 & 0x7F = 53); then ones 1, toggles 2 and 0,
#    checksum 20 + 181 = 201 as 73 and 1. ODR ends from FINAL_BIT 2 of 181,
#    which is set.
#  - wrap: 0xFFFFFFFF * 3 wraps to 0xFFFFFFFD, ^ (x >> 31) gives 0xFFFFFFFC,
#    + 0x10 wraps to 0xC, + input 1 gives 0xD.
HAND_CASES = {
    "small": (_params(), bytes([20, 53, 1, 2, 0, 73, 1]), 0x20),
    "wrap": (_params(rounds=1, period=1, init=0xFFFFFFFF, add=0x10, shift=31,
                     toggle_bit=31, final_bit=0, weight=1, input_bits=(1,)),
             bytes([13, 0, 0, 0, 13, 0]), 0x20),
}


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_oracle_matches_hand_computed_output(case, tmp_path):
    params, log, odr = HAND_CASES[case]
    expected = programs.expected_run(params)
    assert expected.log == log
    assert expected.registers == {"RCC.AHB1ENR": 0x1, "GPIOA.MODER": 0x400, "GPIOA.ODR": odr}

    # and halgen's interpreter agrees with the model on the written program
    program = programs.write_program(params, tmp_path, default_project_path() / "hal.c")
    board = load_board_map(default_board_map_path())
    state, verdict = halgen.simulate.exec_program(
        load_project(program.directory), board, load_scenario(program.scenario_path, board))
    assert workloads.program_ok(program, state, verdict, board)


@pytest.fixture
def short_programs(monkeypatch):
    monkeypatch.setattr(programs, "LOOP_ROUNDS", (40, 90))


def test_flipped_log_byte_counts_as_failed(short_programs, tmp_path):
    workload = workloads.SimulateWorkload(5, tmp_path)
    path = workload.programs[1].scenario_path
    data = json.loads(path.read_text())
    log = data["expected_log"]
    data["expected_log"] = log[:3] + chr(ord(log[3]) ^ 0x01) + log[4:]
    path.write_text(json.dumps(data))
    workload.scenarios[1] = load_scenario(path, workload.board)

    result = workload.round()
    assert (result.attempted, result.failed) == (2, 1)


def test_hal_elements_come_from_manifest_and_source(tmp_path):
    elements = workloads.hal_elements(default_kb_path(), default_project_path() / "hal.c")
    assert len(elements) == 12
    assert {"RCC_BASE", "set_io_mode", "usart_send_byte"} <= elements

    kb = tmp_path / "kb"
    shutil.copytree(default_kb_path(), kb)
    manifest = json.loads((kb / "manifest.json").read_text())
    manifest["entries"].pop()
    (kb / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(workloads.InputError):
        workloads.hal_elements(kb, default_project_path() / "hal.c")


@pytest.fixture
def wrong_kb(tmp_path):
    """A KB copy whose USART data register offset points at BRR."""
    kb = tmp_path / "kb"
    shutil.copytree(default_kb_path(), kb)
    (kb / "USART_DR_OFFSET.c").write_text("#define USART_DR_OFFSET 0x08\n")
    return kb


def test_wrong_kb_constant_fails_every_full_hal_iteration(wrong_kb, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.ITERATIONS, "full_hal", 2)
    good = workloads.ExperimentWorkload("full_hal", 3, tmp_path).round()
    assert (good.attempted, good.failed) == (2, 0)

    bad = workloads.ExperimentWorkload("full_hal", 3, tmp_path, kb_path=wrong_kb).round()
    assert (bad.attempted, bad.failed) == (2, 2)


def test_wrong_kb_constant_fails_iterations_that_delete_it(wrong_kb, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.ITERATIONS, "random_deletion", 30)
    workload = workloads.ExperimentWorkload("random_deletion", 3, tmp_path, kb_path=wrong_kb)
    result = workload.round()
    report = json.loads(result.output)
    hits = sum(it["deleted"] == ["USART_DR_OFFSET"] for it in report["per_iteration"])
    assert hits > 0
    assert (result.attempted, result.failed) == (30, hits)


def test_failed_iterations_checks_each_property():
    elements = frozenset({"A", "B"})
    good = {"deleted": ["A"], "calls": 1, "closed": True, "verdict_passed": True,
            "mean_similarity": 1.0}
    broken = [
        dict(good, closed=False),
        dict(good, verdict_passed=False),
        dict(good, calls=2),
        dict(good, deleted=["C"]),
        dict(good, mean_similarity=0.9),
        dict(good, error="ValueError: x"),
    ]
    report = {"experiment": "random_deletion", "per_iteration": [good] + broken}
    assert workloads.failed_iterations(report, elements) == len(broken)


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.ITERATIONS, "full_hal", 2)
    workload = workloads.ExperimentWorkload("full_hal", 3, tmp_path)
    originals = {name: getattr(halgen.experiment, name)
                 for name in ("run_experiment", "complete", "exec_program")}

    result = run.traced_run(workload, 0.01, tmp_path / "spans.jsonl")

    assert result["correct"] and result["failed"] == 0
    declared = {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    assert set(result["metrics"]) == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["generation.generate.calls"] == 12
    assert values["completion.insert.calls"] == 12
    assert values["generation.vet.accept_ratio"] == 1.0
    assert values["simulate.steps"] > 0 and values["c_ast.lex.self_s"] > 0
    # the wrappers are gone once the run ends
    for name, fn in originals.items():
        assert getattr(halgen.experiment, name) is fn
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["name"] == "experiment.run"


def test_self_time_excludes_child_spans(monkeypatch):
    tracer = spans.Tracer()
    clock = iter([0, 10, 30, 100])  # outer start, inner start, inner end, outer end
    monkeypatch.setattr(spans, "perf_counter_ns", lambda: next(clock))
    inner = tracer._wrap(lambda: None, "inner", None)
    outer = tracer._wrap(lambda: inner(), "outer", None)
    outer()
    assert tracer.self_ns == {"outer": 80, "inner": 20}
    assert tracer.spans == [("outer", -1, 0, 100), ("inner", 0, 10, 30)]
