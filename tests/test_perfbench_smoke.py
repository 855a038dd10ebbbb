"""The benchmark still runs: ``perfbench/smoke.py`` in a fresh interpreter.

The smoke check validates ``BENCHMARK.json``, runs ``perfbench/run.py``
on a tenth-size log of every workload, untraced and traced, and checks
each result's metric names and units and that every operation passed
its ground-truth checks.  It takes about ten seconds.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_check_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "ok fails without sources" in done.stdout
