"""The benchmark's workloads and the checks on their outputs.

A workload is built from a seed and runs in whole rounds. Every round
attempts the same operations and returns its output as bytes, so the
runner can demand that rounds, and traced and untraced runs, agree byte
for byte. Each operation is checked against facts the benchmark derives
without halgen's parser or interpreter; an operation that fails a check is
counted as failed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import halgen.experiment
import halgen.simulate
from halgen.analysis import load_project
from halgen.config import Config, default_project_path, default_scenario_path, load_config
from halgen.simulate import load_board_map, load_scenario

import programs

# Iterations per `run_experiment` call, i.e. per round. Rounds are kept
# near half a second so that the calibration loop between them follows
# the CPU's speed closely; four random_deletion rounds make the paper's
# 100 iterations.
ITERATIONS = {"random_deletion": 25, "full_hal": 5}

WORKLOADS = ("random_deletion", "full_hal", "simulate_long")

_DEFINE_RE = re.compile(r"^#define\s+([A-Za-z_]\w*)", re.MULTILINE)
# a function definition starts in column 0 and opens its body on that line
_FUNCTION_RE = re.compile(r"^[A-Za-z_][\w \t*]*?\b([A-Za-z_]\w*)\s*\([^;{]*\)\s*\{", re.MULTILINE)


class InputError(Exception):
    """The bundled inputs do not have the shape the checks rely on."""


def hal_elements(kb_dir: Path, hal_source: Path) -> frozenset[str]:
    """Names of the HAL elements, from the KB manifest and the text of hal.c.

    Both sources must name the same set; neither goes through halgen.
    """
    manifest = json.loads((kb_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = {entry["name"] for entry in manifest["entries"]}
    text = hal_source.read_text(encoding="utf-8")
    defined = set(_DEFINE_RE.findall(text)) | set(_FUNCTION_RE.findall(text))
    if listed != defined:
        raise InputError(f"KB manifest and {hal_source.name} disagree: "
                         f"{sorted(listed ^ defined)}")
    return frozenset(listed)


@dataclass
class RoundResult:
    output: bytes  # the round's reports, compared byte for byte across rounds
    attempted: int
    failed: int


def failed_iterations(report: dict, elements: frozenset[str]) -> int:
    """Count the report's iterations that miss any output check.

    An iteration passes when it closed and its verdict passed, it made one
    generation call per deleted element (one for random_deletion, every
    HAL element for full_hal), every deleted name is a HAL element, and
    its mean similarity is exactly 1.0, which the KB oracle guarantees.
    """
    per_deleted = 1 if report["experiment"] == "random_deletion" else len(elements)
    failed = 0
    for it in report["per_iteration"]:
        ok = (it["closed"] and it["verdict_passed"]
              and it["calls"] == per_deleted
              and len(it["deleted"]) == per_deleted
              and set(it["deleted"]) <= elements
              and it["mean_similarity"] == 1.0
              and "error" not in it)
        failed += not ok
    return failed


class ExperimentWorkload:
    """`run_experiment` on the bundled demo; one operation is one iteration."""

    def __init__(self, kind: str, seed: int, work_dir: Path, kb_path: Path | None = None):
        self.kind = kind
        self.iterations = ITERATIONS[kind]
        self.project_dir = default_project_path()
        self.config_path = work_dir / "config.json"
        overrides = {"seed": seed}
        if kb_path is not None:
            overrides["kb_path"] = str(kb_path)
        self.config_path.write_text(json.dumps(overrides) + "\n", encoding="utf-8")
        self.config: Config = load_config(self.config_path)
        self.elements = hal_elements(Path(self.config.kb_path), self.project_dir / "hal.c")

    def setup_args(self) -> list[str]:
        return [str(self.config_path), str(self.project_dir), str(default_scenario_path())]

    def round(self) -> RoundResult:
        report = halgen.experiment.run_experiment(self.kind, self.iterations, self.config)
        data = report.to_json_dict()
        failed = failed_iterations(data, self.elements)
        if data["total_generation_calls"] != sum(it["calls"] for it in data["per_iteration"]):
            failed = self.iterations
        output = json.dumps(data, indent=2).encode("utf-8")
        return RoundResult(output, self.iterations, failed)


class SimulateWorkload:
    """Seeded long programs on the bundled hal.c; one operation loads and
    judges one program."""

    def __init__(self, seed: int, work_dir: Path):
        self.config_path = work_dir / "config.json"
        self.config_path.write_text(json.dumps({"seed": seed}) + "\n", encoding="utf-8")
        self.config = load_config(self.config_path)
        self.programs = programs.write_programs(seed, work_dir, default_project_path() / "hal.c")
        self.board = load_board_map(self.config.board_map_path)
        self.scenarios = [load_scenario(p.scenario_path, self.board) for p in self.programs]

    def setup_args(self) -> list[str]:
        first = self.programs[0]
        return [str(self.config_path), str(first.directory), str(first.scenario_path)]

    def round(self) -> RoundResult:
        failed = 0
        verdicts = []
        for program, scenario in zip(self.programs, self.scenarios):
            project = load_project(program.directory)
            state, verdict = halgen.simulate.exec_program(project, self.board, scenario)
            failed += not program_ok(program, state, verdict, self.board)
            verdicts.append(verdict.to_json_dict())
        output = json.dumps(verdicts, indent=2).encode("utf-8")
        return RoundResult(output, len(self.programs), failed)


def program_ok(program: programs.Program, state, verdict, board) -> bool:
    """The verdict passed, and the log and registers equal the Python model's."""
    registers_ok = all(
        state.register_value(board.address_of(*name.split("."))) == value
        for name, value in program.expected.registers.items())
    return (verdict.passed
            and state.usart_log == program.expected.log
            and registers_ok
            and not state.diagnostics
            and state.steps_used < programs.FUEL_LIMIT // 4)


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "simulate_long":
        return SimulateWorkload(seed, work_dir)
    if name in ITERATIONS:
        return ExperimentWorkload(name, seed, work_dir)
    raise ValueError(f"unknown workload {name!r}")
