"""One repetition of a benchmark job, in a fresh interpreter.

    python3 worker.py SRC_DIR SPEC_JSON

First it times its own set-up, ``import royale_ratings.cli`` plus
``build_parser()``, before importing anything else, so the figure is what
a fresh ``royale-ratings`` process pays.  Then it runs the spec's
commands in order through ``royale_ratings.cli.main``, each with stdout
and stderr captured to ``<output>.stdout`` / ``<output>.stderr`` files
beside its output directory, and times each call.  Before the first
command and after the last it times a fixed calibration workload, the
yardstick of the host's speed during the job.  With ``"trace": true`` it first installs the span
recorder of ``tracer.py``.  The result, as
JSON, goes to the spec's ``result`` path.
"""

import sys
import time

if __name__ == "__main__":
    _src = sys.argv[1]
    sys.path.insert(0, _src)
    _t0 = time.perf_counter()
    import royale_ratings.cli as _cli

    _cli.build_parser()
    SETUP_S = time.perf_counter() - _t0

import contextlib
import json
import os
import resource
import traceback
from pathlib import Path


def _calibrate() -> float:
    """Seconds this interpreter takes for a fixed mix of the work the
    package does: dict and string churn, and small numpy pairwise ops.
    ``run.py`` scales every rate by it, so that the host's speed, which
    drifts by tens of percent from minute to minute on shared machines,
    cancels out of the comparison between commits."""
    import numpy as np

    start = time.perf_counter()
    table = {}
    for i in range(120000):
        key = f"p{i % 1500:05d}"
        table[key] = table.get(key, 0.0) + i * 0.5
    ratings = np.arange(48.0)
    for _ in range(1600):
        np.exp(ratings[:, None] - ratings[None, :]).sum(axis=1)
    return time.perf_counter() - start


def _run(spec: dict, cli) -> dict:
    recorder = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer

        recorder = tracer.install()
    main = recorder.wrap("cli", cli.main) if recorder else cli.main
    before = _calibrate()
    commands = []
    for label, argv, capture in spec["commands"]:
        Path(capture).parent.mkdir(parents=True, exist_ok=True)
        with open(capture + ".stdout", "w") as out, open(capture + ".stderr", "w") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = main(argv)
                    cause = None
                except SystemExit as exc:  # argparse usage errors
                    code, cause = exc.code, "usage error"
                except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                    traceback.print_exc()
                    code, cause = -1, f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
        commands.append({"label": label, "code": code, "seconds": seconds, "cause": cause})
    result = {
        "calibration_s": (before + _calibrate()) / 2,
        "setup_s": SETUP_S,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        recorder.dump(spec["spans"])
        result["trace"] = recorder.counters
    return result


def main() -> None:
    spec = json.loads(Path(sys.argv[2]).read_text())
    if not os.path.realpath(_cli.__file__).startswith(os.path.realpath(sys.argv[1])):
        raise SystemExit(f"royale_ratings imported from {_cli.__file__}, not {sys.argv[1]}")
    Path(spec["result"]).write_text(json.dumps(_run(spec, _cli)))


if __name__ == "__main__":
    main()
