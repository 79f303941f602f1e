"""Time the fixed cost of one halgen invocation in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CONFIG PROJECT_DIR SCENARIO

Imports halgen the way its command line does, then loads the config,
project, board map, scenario and knowledge base through their public
loaders. Prints one JSON line with the wall time and the same time
rescaled by the calibration loop (see speed.py), timed just before and
just after.
"""

import json
import sys
import time

import speed

src_dir, config_path, project_dir, scenario_path = sys.argv[1:5]
sys.path.insert(0, src_dir)

loop_before = speed.loop_seconds()
start = time.perf_counter()

import halgen.cli  # noqa: E402,F401  (what every invocation imports)
from halgen.analysis import load_project  # noqa: E402
from halgen.config import load_config  # noqa: E402
from halgen.generation import KnowledgeBase  # noqa: E402
from halgen.simulate import load_board_map, load_scenario  # noqa: E402

config = load_config(config_path)
project = load_project(project_dir)
board = load_board_map(config.board_map_path)
scenario = load_scenario(scenario_path, board)
kb = KnowledgeBase.load(config.kb_path)

elapsed = time.perf_counter() - start
loop_after = speed.loop_seconds()

if not halgen.__file__.startswith(src_dir):
    sys.exit(f"halgen imported from {halgen.__file__}, not from {src_dir}")
print(json.dumps({"wall_s": elapsed,
                  "setup_s": speed.reference_seconds(elapsed, loop_before, loop_after)}))
