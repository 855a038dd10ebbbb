"""The golden bytes do not depend on the host's SIMD level.

numpy picks a kernel per CPU feature when it is imported, and some
kernels round differently (``np.exp`` under AVX-512 differs from
``math.exp`` on some inputs).  So ``tests/test_golden.py`` runs again
in a child process whose numpy has every dispatch target this host
offers turned off (``NPY_DISABLE_CPU_FEATURES``), and must reproduce the
same frozen files there.  The list of targets is read at run time from
numpy's dispatch and feature tables, so the test also runs on hosts
with fewer features.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:  # numpy 2
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as umath

from test_golden import RUNS

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# checks that numpy took the targets off, then runs the golden tests
CHILD = """
import sys
import pytest
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
still_on = [target for target in sys.argv[1].split() if __cpu_features__[target]]
if still_on:
    raise SystemExit(f"still on: {still_on}")
raise SystemExit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def dispatch_targets() -> list[str]:
    """numpy's dispatch targets that this host supports."""
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def test_golden_bytes_on_numpy_baseline_kernels(tmp_path):
    targets = " ".join(dispatch_targets())
    if not targets:
        pytest.skip("numpy dispatches no kernel beyond its baseline on this host")
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [
            sys.executable, "-c", CHILD, targets, str(TESTS / "test_golden.py"),
            "--basetemp", str(tmp_path / "child"),
        ],
        capture_output=True,
        text=True,
        cwd=TESTS.parent,
        env={
            **os.environ,
            "NPY_DISABLE_CPU_FEATURES": targets,
            "PYTHONPATH": os.pathsep.join(p for p in paths if p),
        },
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    # every run and the synth command
    assert f"{len(RUNS) + 1} passed" in done.stdout, done.stdout
