"""Smoke check of the benchmark: schema and invariants only, no timings.

    python3 perfbench/smoke.py

Validates ``BENCHMARK.json`` and checks that a seed always generates the
same log bytes.  Then it runs ``run.py`` on a tenth-size log of every
workload, untraced and traced, and checks that the last stdout line
is a result object naming exactly the metrics ``BENCHMARK.json`` lists,
each with its unit, and that every operation passed its output checks.
Last, it checks that the benchmark fails, without a result, when the
package sources are absent.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke check failed: {what}")


def check_spec(spec: dict) -> None:
    _require(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys {sorted(spec)}",
    )
    _require(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    _require(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for entry in spec["workloads"]:
        _require(set(entry) == {"name", "why"}, f"workload keys {entry}")
        _require(len(entry["why"]) <= 200 and "\n" not in entry["why"], f"why of {entry['name']}")
        names.append(entry["name"])
    for entry in spec["end_to_end"]:
        _require(set(entry) == {"name", "unit", "better", "bound"}, f"metric keys {entry}")
        _require(0 < entry["bound"] <= 0.25, f"bound of {entry['name']}")
    for entry in spec["per_layer"]:
        _require(set(entry) == {"name", "unit", "better"}, f"metric keys {entry}")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        _require(_UNIT.fullmatch(entry["unit"]) is not None, f"unit of {entry['name']}")
        _require(entry["better"] in ("higher", "lower"), f"better of {entry['name']}")
        names.append(entry["name"])
    _require(all(_NAME.fullmatch(n) for n in names), "a name breaks the naming rule")
    _require(len(names) == len(set(names)), "a name is used twice")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    _require(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s must be an end-to-end metric in s, lower is better",
    )


def check_result(stdout: str, wanted: list[dict]) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    _require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    _require(result["correct"] is True and result["failed"] == 0, f"failed operations: {stdout[-2000:]}")
    _require(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    _require(
        {name: m["unit"] for name, m in result["metrics"].items()}
        == {m["name"]: m["unit"] for m in wanted},
        "metric names or units differ from BENCHMARK.json",
    )
    _require(
        all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
        "a metric value is not a number",
    )
    return result


def check_generator(workload: str) -> None:
    from workloads import ensure_log

    scratch = ROOT / ".perfbench-work" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    first = ensure_log(workload, 3, scratch / "a", scale=0.1)
    second = ensure_log(workload, 3, scratch / "b", scale=0.1)
    for name in ("matches.csv", "truth.json"):
        _require((first / name).read_bytes() == (second / name).read_bytes(), f"{workload} {name} differs for one seed")
    shutil.rmtree(scratch)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    sys.path.insert(0, str(HERE))
    command = [sys.executable, str(HERE / "run.py")]
    for workload in (entry["name"] for entry in spec["workloads"]):
        check_generator(workload)
        for trace in (0, 1):
            argv = command + [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "0.1",
            ]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            _require(done.returncode == 0, f"{workload} trace {trace} exited {done.returncode}: {done.stderr[-2000:]}")
            check_result(done.stdout, spec["per_layer" if trace else "end_to_end"])
            print(f"ok {workload} trace {trace}")

    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, str(bare / HERE.name / "run.py"), "--workload", spec["workloads"][0]["name"],
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    _require(done.returncode != 0 and not done.stdout.strip(), "runs without the package sources")
    print("ok fails without sources")


if __name__ == "__main__":
    main()
