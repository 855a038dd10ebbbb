"""The benchmark's span recorder still finds every entry point it hooks.

``perfbench/tracer.py`` rebinds functions by name where their callers
look them up.  A refactor that moves or renames one of them makes the
traced benchmark lose that layer; this test runs a tiny job through the
CLI with the recorder installed, in a fresh interpreter because the
hooks patch modules for the life of the process, and checks that every
layer recorded a span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import tracer

recorder = tracer.install()
import royale_ratings.cli as cli

out = Path(sys.argv[2])
log = str(out / "synth" / "matches.csv")
codes = [cli.main([
    "synth", "--players", "40", "--team-size", "2", "--teams", "6",
    "--matches", "60", "--seed", "1", "--output-dir", str(out / "synth"),
])]
for system in ("elo", "glicko", "trueskill", "prevrank"):
    codes.append(cli.main([
        "replay", "--system", system, "--input", log,
        "--output-dir", str(out / ("replay-" + system)),
    ]))
for setup, system in (("all", "elo"), ("best", "trueskill"), ("frequent", "glicko")):
    codes.append(cli.main([
        "experiment", "--setup", setup, "--system", system, "--input", log,
        "--min-games", "5", "--horizon", "5",
        "--output-dir", str(out / ("experiment-" + setup)),
    ]))
print(json.dumps({"codes": codes, "spans": sorted({s[0] for s in recorder.spans})}))
"""

REQUIRED_SPANS = {
    "ingest",
    "replay",
    "predict",
    "update_match",
    "update.elo",
    "update.glicko",
    "update.trueskill",
    "metrics.score",
    "trend.all",
    "trend.best",
    "trend.frequent",
    "write.store",
}


def test_every_hooked_layer_records_a_span(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 8
    assert REQUIRED_SPANS - set(result["spans"]) == set()
