"""Garbage collections per command of one benchmark job.

    python3 tools/gc_per_command.py --workload solo100 --seed 7 [--src src]

Runs one repetition of the job of ``perfbench/workloads.py`` for one
(workload, seed) through ``perfbench/worker.py`` itself, untraced, with
the package imported from ``--src``.  When each collection falls depends
on everything the process allocated before it, so the worker runs
unchanged, in a fresh interpreter with the environment ``run.py`` gives
it; the only addition is a ``gc.callbacks`` hook installed before the
worker starts.  The hook times every collection and files it under the
command whose captured stdout is open at the time (the worker redirects
each command's stdout to its own file).  The script prints, per command,
its time, the collections of each generation, and the milliseconds spent
in all of them and in the full (generation 2) ones.  The log and the
outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# run in the worker's interpreter: hook the collector, then run worker.py
_CHILD = """
import gc, json, runpy, sys, time

records, started = [], []

def hook(phase, info):
    if phase == "start":
        started.append(time.perf_counter())
        return
    seconds = time.perf_counter() - started.pop()
    name = getattr(sys.stdout, "name", "")
    if isinstance(name, str) and name.endswith(".stdout"):
        records.append((name[: -len(".stdout")], info["generation"], seconds))

gc.callbacks.append(hook)
out = sys.argv[1]
sys.argv = sys.argv[2:]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
finally:
    gc.callbacks.remove(hook)
    with open(out, "w") as handle:
        json.dump(records, handle)
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args()

    sys.path.insert(0, str(PERFBENCH))
    import run
    import workloads

    with tempfile.TemporaryDirectory() as work:
        work_dir = Path(work)
        log_dir = workloads.ensure_log(args.workload, args.seed, work_dir / "logs")
        truth = json.loads((log_dir / "truth.json").read_text())
        log = os.path.relpath(log_dir / "matches.csv", work_dir)
        commands = workloads.job(args.workload, args.seed, log, truth)
        spec = {"commands": commands, "trace": False, "result": "result.json"}
        (work_dir / "spec.json").write_text(json.dumps(spec))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(run._WORKER_ENV)
        argv = [
            sys.executable, "-c", _CHILD, "collections.json",
            str(PERFBENCH / "worker.py"), str(Path(args.src).resolve()), "spec.json",
        ]
        subprocess.run(argv, cwd=work_dir, env=env, check=True)
        result = json.loads((work_dir / "result.json").read_text())
        records = json.loads((work_dir / "collections.json").read_text())

    # per capture: collections of generation 0, 1, 2, ms in all, ms in gen 2
    counts: defaultdict[str, list[float]] = defaultdict(lambda: [0, 0, 0, 0.0, 0.0])
    for capture, generation, seconds in records:
        entry = counts[capture]
        entry[generation] += 1
        entry[3] += seconds * 1e3
        if generation == 2:
            entry[4] += seconds * 1e3

    print(f"{args.workload} seed {args.seed}, package from {args.src}")
    header = ("command", "exit", "ms", "gen0", "gen1", "gen2", "gc ms", "full ms")
    print("{:<20}{:>5}{:>9}{:>6}{:>6}{:>6}{:>8}{:>9}".format(*header))
    line = "{:<20}{:>5}{:>9.1f}{:>6}{:>6}{:>6}{:>8.1f}{:>9.1f}"
    rows = []
    for (label, _, capture), done in zip(commands, result["commands"]):
        rows.append((done["seconds"] * 1e3, *counts[capture]))
        print(line.format(label, done["code"], *rows[-1]))
    print(line.format("job", "", *(sum(column) for column in zip(*rows))))

if __name__ == "__main__":
    main()
