"""Command-line entry point.

Subcommands: analyze (list missing elements), index (build and persist the
retrieval index), complete (close the project via a generation backend),
simulate (run a closed project against a scenario), and experiment (seeded
deletion/regeneration runs).

Exit codes: 0 success, 1 parse/IO error, 2 simulation setup error,
3 missing elements found, 4 completion failure, 5 verdict failed,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

from halgen import __version__
from halgen.errors import HalgenError
from halgen.analysis import ElementKind, build_symbol_table, detect_missing, load_project
from halgen.c_ast import pretty_print
from halgen.completion import CompletionLimits, complete
from halgen.config import Config, ConfigFileError, default_scenario_path, load_config
from halgen.experiment import EXPERIMENT_KINDS, make_backend, run_experiment
from halgen.generation import VetPolicy
from halgen.prompting import load_template
from halgen.retrieval import build_index, chunk_codebase, save_index, save_snippets
from halgen.simulate import ConfigError, SimSetupError, exec_program, load_board_map, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SIM_SETUP = 2
EXIT_GAPS = 3
EXIT_COMPLETION_FAILED = 4
EXIT_VERDICT_FAILED = 5
EXIT_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the usage-error exit code this tool documents."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="halgen", description=__doc__)
    parser.add_argument("--version", action="version", version=f"halgen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--backend", choices=("kb", "http"), help="generation backend")
        p.add_argument("--seed", type=int, help="experiment RNG seed")
        p.add_argument("--strict", action="store_true",
                       help="strict vetting and strict clock gating")

    p = sub.add_parser("analyze", help="list missing HAL elements")
    p.add_argument("project_dir")
    add_common(p)

    p = sub.add_parser("index", help="build the retrieval index")
    p.add_argument("project_dir")
    p.add_argument("index_path")
    add_common(p)

    p = sub.add_parser("complete", help="generate missing elements until the project closes")
    p.add_argument("project_dir")
    p.add_argument("out_dir")
    add_common(p)

    p = sub.add_parser("simulate", help="run a closed project against a scenario")
    p.add_argument("project_dir")
    p.add_argument("scenario_path")
    p.add_argument("--out", default="verdict.json", help="verdict JSON path")
    p.add_argument("--compile-cmd",
                   help="external compiler command with a {file} placeholder, "
                        "run per source as an extra syntactic gate")
    add_common(p)

    p = sub.add_parser("experiment", help="seeded deletion/regeneration experiment")
    p.add_argument("kind", choices=EXPERIMENT_KINDS)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--project-dir", help="fixture project (default: bundled demo)")
    p.add_argument("--scenario-path", help="scenario file (default: bundled demo scenario)")
    p.add_argument("--out", default="experiment_report.json", help="report JSON path")
    add_common(p)

    return parser


def _resolve_config(args) -> Config:
    config = load_config(args.config)
    if args.backend:
        config.backend = args.backend
    if args.seed is not None:
        config.seed = args.seed
    if args.strict:
        config.strict_vetting = True
        config.strict_gating = True
    config.validate()
    return config


def _cmd_analyze(args, config: Config) -> int:
    missing = detect_missing(build_symbol_table(load_project(args.project_dir)))
    for elem in missing:
        where = f"{elem.first_ref_span.file_id}:{elem.first_ref_span.start_line}:{elem.first_ref_span.start_col}"
        if elem.kind is ElementKind.FUNCTION:
            print(f"{elem.name} Function arity={elem.arity} first_ref={where}")
        else:
            print(f"{elem.name} Constant first_ref={where}")
    return EXIT_GAPS if missing else EXIT_OK


def _cmd_index(args, config: Config) -> int:
    snippets = chunk_codebase(load_project(args.project_dir))
    index = build_index(snippets)
    save_index(index, args.index_path)
    save_snippets(snippets, str(args.index_path) + ".snippets")
    print(f"indexed {len(snippets)} snippets")
    return EXIT_OK


def _cmd_complete(args, config: Config) -> int:
    project = load_project(args.project_dir)
    snippets = chunk_codebase(project)
    index = build_index(snippets)
    backend = make_backend(config)
    template = load_template(config.template_path) if config.template_path else None
    policy = VetPolicy(strict=config.strict_vetting)
    completed, report = complete(
        project, backend, index, snippets,
        limits=CompletionLimits(), policy=policy, template=template,
        retrieval_k=config.retrieval_k)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for unit in completed.units:
        (out_dir / unit.file_id).write_text(pretty_print(unit), encoding="utf-8")
    (out_dir / "completion_report.json").write_text(
        json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    print(f"inserted {len(report.inserted)} elements in {report.total_calls} calls "
          f"({report.iterations_used} iterations)")
    if report.failures:
        for name, reasons in report.failures:
            print(f"failed: {name}: {', '.join(reasons)}", file=sys.stderr)
    return EXIT_OK if report.closed else EXIT_COMPLETION_FAILED


def _run_compile_gate(command: str, project_dir: str) -> dict[str, int]:
    """Run `command` once per source file, without a shell.

    The command is split like a shell command line, then `{file}` is
    replaced inside each argument, so a path stays exactly one argument.
    """
    try:
        argv = shlex.split(command)
    except ValueError as err:
        raise ConfigError("--compile-cmd", str(err)) from None
    if not argv:
        raise ConfigError("--compile-cmd", "empty command")
    codes: dict[str, int] = {}
    for path in sorted(Path(project_dir).iterdir()):
        if path.suffix not in (".c", ".h"):
            continue
        proc = subprocess.run([arg.replace("{file}", str(path)) for arg in argv],
                              capture_output=True)
        codes[path.name] = proc.returncode
    return codes


def _cmd_simulate(args, config: Config) -> int:
    project = load_project(args.project_dir)
    board = load_board_map(config.board_map_path)
    scenario = load_scenario(args.scenario_path, board)
    try:
        state, verdict = exec_program(project, board, scenario,
                                      strict_gating=config.strict_gating)
    except SimSetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SIM_SETUP

    verdict_json = verdict.to_json_dict()
    if args.compile_cmd:
        verdict_json["compile_exit_codes"] = _run_compile_gate(args.compile_cmd, args.project_dir)
    Path(args.out).write_text(json.dumps(verdict_json, indent=2) + "\n", encoding="utf-8")

    print(f"passed: {verdict.passed} (log_match={verdict.log_match}, "
          f"steps={verdict.steps_used})")
    print(f"usart_log: {state.usart_log.decode('latin-1')!r}")
    for addr, expected, actual, ok in verdict.register_matches:
        print(f"register 0x{addr:08X}: expected 0x{expected:08X}, actual 0x{actual:08X}, "
              f"{'ok' if ok else 'MISMATCH'}")
    for diag in verdict.diagnostics:
        print(f"{diag.severity}: {diag.message}", file=sys.stderr)
    return EXIT_OK if verdict.passed else EXIT_VERDICT_FAILED


def _cmd_experiment(args, config: Config) -> int:
    if args.iterations < 1:
        print("error: --iterations must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    report = run_experiment(
        args.kind, args.iterations, config,
        project_dir=args.project_dir,
        scenario_path=args.scenario_path or default_scenario_path())
    Path(args.out).write_text(json.dumps(report.to_json_dict(), indent=2) + "\n",
                              encoding="utf-8")
    print(f"{report.experiment}: {report.passes}/{report.iterations} passed "
          f"(pass_rate={report.pass_rate}, calls={report.total_generation_calls})")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "index": _cmd_index,
    "complete": _cmd_complete,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except (ConfigFileError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, config)
    except (ConfigError, ConfigFileError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except HalgenError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
