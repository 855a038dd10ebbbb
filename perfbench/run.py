"""Benchmark of the ``royale-ratings`` command line, end to end and per layer.

    python3 perfbench/run.py --workload duo48 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  The workloads (``workloads.py``) are
seeded battle-royale match logs; each is generated once per (workload,
seed) outside the timed region and cached under ``.perfbench-work/``.

A workload's job is the full set of ``royale-ratings`` commands on its
log: ``inspect``, ``replay`` under each of the four systems, the three
``experiment`` set-ups and one ``synth`` of the workload's shape.  The
job is a closed loop: one process runs one command at a time.  Every
repetition of the job runs in a fresh single-threaded worker process
(``worker.py``), which calls ``royale_ratings.cli.main`` for each command
and times the call.  Repetitions continue until ``--seconds`` is used up;
every figure reported is the median over the repetitions.

Shared hosts change speed by tens of percent from minute to minute, which
would swamp any change to the program.  So each worker times a fixed
calibration workload before and after its job, and every rate (and
``setup_s``) of that repetition is scaled to the speed of a reference
host: a rate measured while the calibration took twice
``SPEED_REFERENCE_S`` is doubled.  The rates as timed are printed under
the scaled ones.  ``peak_rss_mb`` and the
per-layer figures are not scaled.

Every command is one operation, checked by ``check.py`` against the
generator's ground truth, and every repetition must write the same bytes
as the first.  The artifact digests are printed, so a change in output
bytes shows; a changed digest alone is not a failure.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions; the traced ones
record spans around each layer's entry point (``tracer.py``), must write
the same bytes as the untraced ones, and give the per-layer metrics.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check, digests  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import SETUPS, WORKLOADS, ensure_log, job  # noqa: E402

WORK = ROOT / ".perfbench-work"
# a run must end within 180 s; no worker may outlive this share of it
RUN_LIMIT_S = 160
# worker.py's calibration time on the reference host (2-vCPU Xeon VM,
# Python 3.11.7, numpy 2.4).  Never change it: every recorded figure is
# scaled to it.
SPEED_REFERENCE_S = 0.12
_WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def _spawn(spec: dict, cwd: Path, tag: str, timeout: float) -> dict:
    spec = dict(spec, result=f"{tag}.result.json")
    (cwd / f"{tag}.spec.json").write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(_WORKER_ENV)
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT / "src"), f"{tag}.spec.json"]
    with open(cwd / f"{tag}.worker.out", "w") as out, open(cwd / f"{tag}.worker.err", "w") as err:
        code = subprocess.run(
            argv, cwd=cwd, stdout=out, stderr=err, env=env, timeout=timeout
        ).returncode
    if code != 0:
        tail = (cwd / f"{tag}.worker.err").read_text().strip().splitlines()[-3:]
        raise WorkerError(f"worker exited {code}: {' | '.join(tail)}")
    return json.loads((cwd / spec["result"]).read_text())


def _system_of(label: str) -> str:
    kind, _, name = label.partition(".")
    return SETUPS[name][0] if kind == "experiment" else name


def _work_done(label: str, truth: dict) -> tuple[str, float]:
    """The metric a command feeds and the work one run of it does."""
    if label == "inspect.log":
        return "inspect.log.rows_per_s", truth["rows"]
    if label == "synth":
        synth = truth["synth"]
        return "synth.rows_per_s", synth["matches"] * synth["teams"] * synth["team_size"]
    return f"{label}.matches_per_s", truth["matches_replayed"]


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink the log (smoke checks only)"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "royale_ratings" / "cli.py").is_file():
        print(f"error: no royale_ratings sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    log_dir = ensure_log(args.workload, args.seed, WORK / "logs", args.scale)
    truth = json.loads((log_dir / "truth.json").read_text())
    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    log = os.path.relpath(log_dir / "matches.csv", run_dir)
    commands = job(args.workload, args.seed, log, truth)

    deadline = time.monotonic() + args.seconds
    reference: dict[str, str] = {}
    failures: list[str] = []
    attempted = failed = 0
    samples: defaultdict[str, list[float]] = defaultdict(list)
    raw: defaultdict[str, list[float]] = defaultdict(list)
    job_seconds: dict[bool, list[float]] = {False: [], True: []}
    rep = 0
    while True:
        # with --trace 1, odd repetitions are traced and even ones give the
        # untraced job time and reference bytes they are compared against
        traced = bool(args.trace) and rep % 2 == 1
        shutil.rmtree(run_dir / "job", ignore_errors=True)
        rep_started = time.monotonic()
        spec = {"commands": commands, "trace": traced, "spans": "spans.tsv"}
        try:
            timeout = max(5.0, RUN_LIMIT_S - (rep_started - started))
            result = _spawn(spec, run_dir, f"rep{rep}", timeout)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            attempted += len(commands)
            failed += len(commands)
            failures.append(f"rep {rep}: every command: {exc}")
            break
        rep_seconds = time.monotonic() - rep_started
        # host speed during this repetition, relative to the reference host
        speed = result["calibration_s"] / SPEED_REFERENCE_S
        found = digests(run_dir / "job")
        reference = reference or found
        for entry, (label, _, capture) in zip(result["commands"], commands):
            attempted += 1
            try:
                problems = check(label, _system_of(label), entry["code"], run_dir / capture, truth)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
            if entry["cause"]:
                problems.insert(0, entry["cause"])
            own = (label, f"{label}.stdout", f"{label}.stderr")
            changed = sorted(
                path
                for path in set(found) | set(reference)
                if path.split("/", 1)[0] in own and found.get(path) != reference.get(path)
            )
            if changed:
                problems.append(f"bytes differ from the first repetition: {changed}")
            if problems:
                failed += 1
                failures.append(f"rep {rep} {'traced ' if traced else ''}{label}: {'; '.join(problems)}")
            elif not traced:
                metric, work = _work_done(label, truth)
                raw[metric].append(work / entry["seconds"])
                samples[metric].append(work / entry["seconds"] * speed)
        job_seconds[traced].append(sum(entry["seconds"] for entry in result["commands"]))
        if traced:
            stderr_bytes = sum(p.stat().st_size for p in (run_dir / "job").glob("*.stderr"))
            for name, value in layer_metrics(
                run_dir / "spans.tsv", result["trace"], stderr_bytes
            ).items():
                samples[name].append(value)
        else:
            raw["setup_s"].append(result["setup_s"])
            samples["setup_s"].append(result["setup_s"] / speed)
            samples["peak_rss_mb"].append(result["peak_rss_mb"])
        rep += 1
        if rep >= (2 if args.trace else 1) and time.monotonic() + rep_seconds > deadline:
            break

    if args.trace and job_seconds[True]:
        ratio = statistics.median(job_seconds[True]) / statistics.median(job_seconds[False])
        samples["trace.overhead_ratio"].append(ratio)
    for path, digest in sorted(reference.items()):
        print(f"digest {path} {digest}")
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if not samples.get(name):
            failures.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": statistics.median(samples[name]), "unit": entry["unit"]}
        print(f"metric {name} {metrics[name]['value']!r} {entry['unit']}")
        if name in raw:
            print(f"  as timed on this host {statistics.median(raw[name])!r} {entry['unit']}")
    for line in failures:
        print(f"FAILED {line}")
    print(f"repetitions {rep}, attempted {attempted}, failed {failed}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
