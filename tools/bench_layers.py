"""Per-layer timings and counters of the pipeline, in process, on workload L.

    python3 tools/bench_layers.py [--src src] [--repeats 5] [--scale 1.0]
                                  [--bench-out DIR]

Imports the package from ``--src`` and runs, in this order, each round:
``generate`` and ``write`` (``synth.generate`` and ``write_match_log`` of
workload L), ``ingest`` of that log, then for each rating system its
``replay`` and its ``write`` (the per-match metrics CSV and the rating
store).  ``apply.<system>`` is the time the replay spent in the system's
``_apply``, summed over its matches (one timing wrapper call per match).
Every layer runs once per round, so its ``--repeats`` samples are
interleaved with the other layers'; each layer reports the median and
the quartiles of its samples.

Two more rounds, untimed, count per layer what host noise does not move:
one under ``cProfile`` gives the Python calls made (``ncalls``; for
``apply.<system>`` the calls made inside ``_apply``), one under
``tracemalloc`` the allocation peak above what the layer started with
(for ``apply.<system>``, the largest of one call).  The peak RSS of the
process and the time of the first ``import royale_ratings.cli`` are
recorded once.

Workload L is ``SynthConfig(player_count=20000, team_size=2,
teams_per_match=48, match_count=5000, noise_spread=1.0, seed=1)``, the
paper's duo shape (480k rows); ``--scale`` multiplies its player and
match counts (at least one match, and players enough to fill one).
``--bench-out DIR`` writes everything to ``DIR/BENCH_<short-sha>.json``,
named after the commit of the ``--src`` checkout (``-dirty`` appended
when tracked files under ``--src`` differ from that commit).  The log and the
artifacts go to a temporary directory.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]

SYSTEMS = ("elo", "glicko", "trueskill", "prevrank")
L_CONFIG = dict(
    player_count=20000,
    team_size=2,
    teams_per_match=48,
    match_count=5000,
    noise_spread=1.0,
    seed=1,
)


def workload_config(scale: float) -> dict[str, Any]:
    config = dict(L_CONFIG)
    config["match_count"] = max(1, round(config["match_count"] * scale))
    config["player_count"] = max(
        config["team_size"] * config["teams_per_match"],
        round(config["player_count"] * scale),
    )
    return config


def commit_of(src: Path) -> str:
    """Short sha of the checkout holding ``src``, "-dirty" when tracked
    files under ``src`` differ from that commit; "unknown" outside git."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        sha = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--", ".")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


class Layers:
    """The pipeline on one workload, one call per layer."""

    def __init__(self, package: str, config: dict[str, Any], work: Path) -> None:
        self.synth = importlib.import_module(f"{package}.synth")
        self.replay_module = importlib.import_module(f"{package}.replay")
        self.systems = importlib.import_module(f"{package}.systems")
        self.config = self.synth.SynthConfig(**config)
        self.work = work
        self.log = work / "matches.csv"
        self.matches: list[Any] = []

    def names(self) -> list[str]:
        names = ["generate", "write", "ingest"]
        for system in SYSTEMS:
            names += [f"replay.{system}", f"apply.{system}", f"write.{system}"]
        return names

    def run(self, measure: Callable[[str, Callable[[], Any]], Any], hook: Any) -> None:
        """One round: ``measure(name, call)`` runs each layer's call and
        returns its result; ``hook(name, apply)`` wraps a system's
        ``_apply`` for the ``apply.<system>`` layer."""
        matches, _ = measure("generate", lambda: self.synth.generate(self.config))
        measure("write", lambda: self.synth.write_match_log(self.log, matches))
        self.matches = measure("ingest", lambda: self.replay_module.ingest(self.log))
        for name in SYSTEMS:
            system = self.systems.make_system(name)
            system._apply = hook(f"apply.{name}", system._apply)
            result = measure(
                f"replay.{name}",
                lambda: self.replay_module.replay(self.matches, system, seed=1),
            )
            measure(f"write.{name}", lambda: self.write(name, result))

    def write(self, name: str, result: Any) -> None:
        self.replay_module.write_match_metrics_csv(
            self.work / f"{name}_metrics.csv", result.reports
        )
        result.store.save(self.work / f"{name}_store.txt")


def timed_round(layers: Layers, samples: dict[str, list[float]]) -> None:
    clock = time.perf_counter
    spent: dict[str, float] = {}

    def measure(name: str, call: Callable[[], Any]) -> Any:
        start = clock()
        out = call()
        samples[name].append(clock() - start)
        return out

    def hook(name: str, apply: Callable[[Any], Any]) -> Callable[[Any], Any]:
        spent[name] = 0.0

        def timed(block: Any) -> Any:
            start = clock()
            try:
                return apply(block)
            finally:
                spent[name] += clock() - start

        return timed

    layers.run(measure, hook)
    for name, seconds in spent.items():
        samples[name].append(seconds)


def _count(profile: cProfile.Profile) -> int:
    return pstats.Stats(profile).total_calls


def profiled_round(layers: Layers) -> dict[str, int]:
    calls: dict[str, int] = {}

    def measure(name: str, call: Callable[[], Any]) -> Any:
        profile = cProfile.Profile()
        out = profile.runcall(call)
        calls[name] = _count(profile)
        return out

    layers.run(measure, lambda name, apply: apply)
    # one profiler at a time: the calls inside _apply come from one more
    # replay per system, profiled only there
    for name in SYSTEMS:
        system = layers.systems.make_system(name)
        profile = cProfile.Profile()
        apply = system._apply
        system._apply = lambda block, apply=apply: profile.runcall(apply, block)
        layers.replay_module.replay(layers.matches, system, seed=1)
        calls[f"apply.{name}"] = _count(profile)
    return calls


def traced_round(layers: Layers) -> dict[str, float]:
    peaks: dict[str, float] = {}
    # the enclosing layer's peak, saved before each _apply resets the peak
    enclosing = [0]

    def measure(name: str, call: Callable[[], Any]) -> Any:
        enclosing[0] = 0
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        peak = max(enclosing[0], tracemalloc.get_traced_memory()[1])
        peaks[name] = (peak - start) / 2**20
        return out

    def hook(name: str, apply: Callable[[Any], Any]) -> Callable[[Any], Any]:
        peaks[name] = 0.0

        def traced(block: Any) -> Any:
            current, peak = tracemalloc.get_traced_memory()
            enclosing[0] = max(enclosing[0], peak)
            tracemalloc.reset_peak()
            out = apply(block)
            peak = tracemalloc.get_traced_memory()[1]
            peaks[name] = max(peaks[name], (peak - current) / 2**20)
            return out

        return traced

    tracemalloc.start()
    try:
        layers.run(measure, hook)
    finally:
        tracemalloc.stop()
    return peaks


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--bench-out", type=Path)
    args = parser.parse_args()
    if args.repeats < 1 or not args.scale > 0:
        parser.error("--repeats must be >= 1 and --scale > 0")

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    importlib.import_module("royale_ratings.cli")
    import_s = time.perf_counter() - start
    import numpy
    import scipy

    config = workload_config(args.scale)
    with tempfile.TemporaryDirectory() as work:
        layers = Layers("royale_ratings", config, Path(work))
        samples: dict[str, list[float]] = {name: [] for name in layers.names()}
        for _ in range(args.repeats):
            timed_round(layers, samples)
        calls = profiled_round(layers)
        peaks = traced_round(layers)

    rows = config["team_size"] * config["teams_per_match"] * config["match_count"]
    report: dict[str, Any] = {
        "commit": commit_of(src),
        "workload": {"name": "L", "scale": args.scale, "config": config, "rows": rows},
        "matches": len(layers.matches),
        "repeats": args.repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": {},
    }
    print(f"workload L x{args.scale}: {rows} rows, package from {src}")
    line = "{:<18}{:>10}{:>10}{:>12}{:>11}"
    print(line.format("layer", "median s", "IQR s", "ncalls", "peak MiB"))
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        report["layers"][name] = {
            "unit": "s",
            "runs": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr": q3 - q1,
            "ncalls": calls[name],
            "tracemalloc_peak_mb": peaks[name],
        }
        figures = (f"{median:.4f}", f"{q3 - q1:.4f}", calls[name], f"{peaks[name]:.2f}")
        print(line.format(name, *figures))
    print(f"import {import_s:.3f} s, peak RSS {report['peak_rss_mb']:.1f} MiB")
    if args.bench_out is not None:
        args.bench_out.mkdir(parents=True, exist_ok=True)
        path = args.bench_out / f"BENCH_{report['commit']}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
