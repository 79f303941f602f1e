"""halgen benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {random_deletion,full_hal,simulate_long}
                         --seed N --seconds S --trace {0,1}

The halgen under test is the checkout's own `src/halgen`; the run stops
with exit code 2 when it is missing. Scratch inputs go to a temporary
directory under `.bench_build/` that is removed at exit.

With `--trace 0` the run times set-up in fresh interpreters, then runs
whole rounds of the workload for S seconds of round time and reports the
end-to-end metrics: setup_s, ops_per_s and peak_rss_mb. Both timings are
rescaled by a calibration loop timed next to them (see speed.py); the
plain wall-clock figures go to standard error. With `--trace 1` it runs
untraced for S/2 seconds and traced for S/2 seconds, and reports the
per-layer metrics from the traced half plus the tracing overhead; the
spans are written to `.bench_build/spans-<workload>-<seed>.jsonl`.

Either way every operation's output is checked (see workloads.py), every
round must reproduce the first round's output byte for byte, and the last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

SETUP_PROBES = 11  # fresh interpreters timed per run, after one untimed warm-up
PROBE_TIMEOUT_S = 60


def measure_setup(args: list[str]) -> tuple[float, float]:
    """Median set-up time over SETUP_PROBES fresh interpreters: (reference s, wall s)."""
    reference, wall = [], []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC_DIR), *args],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if probe:
            times = json.loads(done.stdout.splitlines()[-1])
            reference.append(times["setup_s"])
            wall.append(times["wall_s"])
    return statistics.median(reference), statistics.median(wall)


@dataclass
class Timing:
    ops: int = 0
    wall_s: float = 0.0
    reference_s: float = 0.0  # wall_s rescaled by the calibration loop

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.reference_s


class Rounds:
    """Runs whole rounds, checks them, and keeps the totals."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None
        self.mismatches = 0  # rounds whose output differs from the first round's

    def one(self) -> float:
        start = time.perf_counter()
        result = self.workload.round()
        elapsed = time.perf_counter() - start
        self.attempted += result.attempted
        self.failed += result.failed
        if self.reference is None:
            self.reference = result.output
        elif result.output != self.reference:
            self.mismatches += 1
        return elapsed

    def timed(self, seconds: float, min_rounds: int = 1, after_round=None) -> Timing:
        """Rounds until `seconds` of round time have passed.

        The calibration loop runs between rounds; each round's time is
        rescaled by the loops on either side of it.
        """
        timing = Timing()
        rounds = 0
        loop_before = speed.loop_seconds()
        while timing.wall_s < seconds or rounds < min_rounds:
            attempted = self.attempted
            elapsed = self.one()
            if after_round is not None:
                after_round()
            loop_after = speed.loop_seconds()
            timing.ops += self.attempted - attempted
            timing.wall_s += elapsed
            timing.reference_s += speed.reference_seconds(elapsed, loop_before, loop_after)
            loop_before = loop_after
            rounds += 1
        return timing


def untraced_run(workload, seconds: float) -> dict:
    setup_s, setup_wall_s = measure_setup(workload.setup_args())
    rounds = Rounds(workload)
    rounds.one()  # warm-up: lazy set-up and the reference output, untimed
    timing = rounds.timed(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{timing.ops} ops in {timing.wall_s:.2f} s wall ({timing.ops / timing.wall_s:.3f}/s), "
          f"{timing.reference_s:.2f} reference s; set-up {setup_wall_s:.4f} s wall",
          file=sys.stderr)
    return {
        "correct": rounds.mismatches == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": timing.ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def traced_run(workload, seconds: float, spans_path: Path) -> dict:
    rounds = Rounds(workload)
    rounds.one()
    plain = rounds.timed(seconds / 2)

    tracer = spans.Tracer()
    per_round: list[dict[str, int]] = []
    last: dict[str, int] = {}

    def record_counts():
        nonlocal last
        now = tracer.snapshot()
        per_round.append({k: v - last.get(k, 0) for k, v in now.items()})
        last = now

    with tracer.installed():
        traced = rounds.timed(seconds / 2, min_rounds=2, after_round=record_counts)
    tracer.write_jsonl(spans_path)

    counts_repeat = all(counts == per_round[0] for counts in per_round)
    metrics = {name: {"value": value, "unit": spans.LAYER_UNITS[name]}
               for name, value in spans.layer_metrics(tracer, traced.ops).items()}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s, "unit": "%"}
    print(f"untraced {plain.ops_per_s:.3f} ops/s, traced {traced.ops_per_s:.3f} ops/s "
          f"({traced.ops} ops in {len(per_round)} rounds); non-timing counts repeat: "
          f"{counts_repeat}; spans: {spans_path}", file=sys.stderr)
    return {
        "correct": rounds.mismatches == 0 and counts_repeat,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "halgen" / "__init__.py").is_file():
        print(f"error: no halgen sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import halgen
    if Path(halgen.__file__).resolve().parent != SRC_DIR / "halgen":
        print(f"error: halgen imported from {halgen.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = workloads.make_workload(args.workload, args.seed, work_dir)
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{args.workload}-{args.seed}.jsonl"
            result = traced_run(workload, args.seconds, spans_path)
        else:
            result = untraced_run(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
