"""Deletion/regeneration experiment harness.

Each iteration starts from the pristine parsed fixture (never the previous
iteration's output and never the on-disk files), deletes one seeded-random
HAL element or the whole HAL, re-closes the project, and judges it in the
simulator. Element choice is driven entirely by the configured seed, so a
report is byte-for-byte reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from halgen.analysis import Project, load_project, token_similarity
from halgen.c_ast import item_name, print_item
from halgen.completion import complete, delete_all_hal, delete_element
from halgen.config import Config, default_project_path, default_scenario_path
from halgen.generation import HttpBackend, KbBackend, KnowledgeBase, VetPolicy
from halgen.prompting import load_template
from halgen.retrieval import build_index, chunk_codebase
from halgen.simulate import exec_program, load_board_map, load_scenario

EXPERIMENT_KINDS = ("random_deletion", "full_hal")


@dataclass
class IterationResult:
    deleted: list[str]
    calls: int
    closed: bool
    verdict_passed: bool
    mean_similarity: float | None
    error: str | None = None

    def to_json_dict(self) -> dict:
        record = {
            "deleted": list(self.deleted),
            "calls": self.calls,
            "closed": self.closed,
            "verdict_passed": self.verdict_passed,
            "mean_similarity": self.mean_similarity,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


@dataclass
class ExperimentReport:
    experiment: str
    iterations: int
    seed: int
    passes: int = 0
    pass_rate: float = 0.0
    total_generation_calls: int = 0
    per_iteration: list[IterationResult] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "iterations": self.iterations,
            "seed": self.seed,
            "passes": self.passes,
            "pass_rate": self.pass_rate,
            "total_generation_calls": self.total_generation_calls,
            "per_iteration": [r.to_json_dict() for r in self.per_iteration],
        }


def make_backend(config: Config):
    """Instantiate the configured generation backend; fresh per run."""
    if config.backend == "kb":
        return KbBackend(KnowledgeBase.load(config.kb_path))
    return HttpBackend(config.http)


def run_experiment(
    kind: str,
    iterations: int,
    config: Config,
    project_dir: str | Path | None = None,
    scenario_path: str | Path | None = None,
) -> ExperimentReport:
    """Run `iterations` delete/regenerate/validate rounds and aggregate.

    Infrastructure failures inside one iteration are recorded on that
    iteration and never abort the rest.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind '{kind}'")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")

    pristine = load_project(project_dir or default_project_path())
    board = load_board_map(config.board_map_path)
    scenario = load_scenario(scenario_path or default_scenario_path(), board)
    template = load_template(config.template_path) if config.template_path else None
    policy = VetPolicy(strict=config.strict_vetting)

    hal = pristine.hal_unit()
    deletable = [item_name(i) for i in hal.items if item_name(i) is not None]
    originals = {item_name(i): print_item(i) for i in hal.items if item_name(i) is not None}

    kb: KnowledgeBase | None = None

    def new_backend():
        # One KB parse per run, one backend (and call count) per iteration.
        # A load that raises is retried by the next iteration, so each
        # iteration records its own error, as with a load per iteration.
        nonlocal kb
        if config.backend != "kb":
            return make_backend(config)
        if kb is None:
            kb = KnowledgeBase.load(config.kb_path)
        return KbBackend(kb)

    rng = random.Random(config.seed)
    report = ExperimentReport(kind, iterations, config.seed)

    for _ in range(iterations):
        if kind == "random_deletion":
            target = deletable[rng.randrange(len(deletable))]
            deleted = [target]
        else:
            deleted = list(deletable)
        try:
            result = _run_iteration(kind, pristine, deleted, config, new_backend(), board,
                                    scenario, template, policy, originals)
        except Exception as exc:  # keep the remaining iterations running
            result = IterationResult(deleted, 0, False, False, None,
                                     error=f"{type(exc).__name__}: {exc}")
        report.per_iteration.append(result)
        report.total_generation_calls += result.calls
        if result.closed and result.verdict_passed:
            report.passes += 1

    report.pass_rate = report.passes / iterations
    return report


def _run_iteration(kind, pristine: Project, deleted: list[str], config: Config, backend,
                   board, scenario, template, policy, originals) -> IterationResult:
    if kind == "random_deletion":
        mutated = delete_element(pristine, deleted[0])
    else:
        mutated, _ = delete_all_hal(pristine)

    snippets = chunk_codebase(mutated)
    index = build_index(snippets)
    completed, completion = complete(
        mutated, backend, index, snippets,
        policy=policy, template=template, retrieval_k=config.retrieval_k)

    regenerated = {item_name(i): print_item(i)
                   for i in completed.hal_unit().items if item_name(i) is not None}
    similarities = [token_similarity(originals[name], regenerated[name])
                    for name, _kind, _backend, _rejections in completion.inserted
                    if name in originals and name in regenerated]
    mean_similarity = sum(similarities) / len(similarities) if similarities else None

    verdict_passed = False
    if completion.closed:
        _, verdict = exec_program(completed, board, scenario, strict_gating=config.strict_gating)
        verdict_passed = verdict.passed
    return IterationResult(deleted, completion.total_calls, completion.closed,
                           verdict_passed, mean_similarity)
