"""Run the benchmark on several seeds per workload and summarize the spread.

    python3 perfbench/baseline.py --runs 10 --first-seed 101 --out perfbench/baseline.json

For every workload, runs ``run.py --trace 0`` once per seed, one after
another, and reports each end-to-end metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median, next to the metric's bound.  A
run that fails its checks is listed and kept out of the figures.  The
JSON written to ``--out`` is the recorded baseline of a commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    import numpy

    summary = {
        "machine": {
            "cpu": _cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "run_seconds": args.seconds,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "workloads": {},
        "failed_runs": [],
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        started = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is not None:
                attempted += result["attempted"]
                failed += result["failed"]
            if result is None or not result["correct"]:
                failures = [line for line in lines if line.startswith("FAILED")]
                summary["failed_runs"].append(
                    {"workload": workload, "seed": seed, "code": done.returncode, "failures": failures[:5]}
                )
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        figures = {}
        runs = len(next(iter(values.values()), []))
        print(
            f"{workload}: {runs} runs in {time.monotonic() - started:.0f} s, "
            f"{attempted} operations attempted, {failed} failed"
        )
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            figures[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": series}
            unit = units[name]
            verdict = "steady" if spread < bounds[name] / 3 else "within bound" if spread <= bounds[name] else "TOO WIDE"
            print(
                f"  {name:34s} {median:12.6g} {unit:9s} spread {spread:6.3f}"
                f"  bound {bounds[name]}  {verdict}"
            )
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed, "metrics": figures
        }
    for failure in summary["failed_runs"]:
        print(f"failed run: {failure}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
