"""Per-layer timings and counters of the pipeline, in process, on workload L.

    python3 tools/bench_layers.py [--src src] [--baseline-src DIR]
                                  [--repeats 5] [--scale 1.0] [--bench-out DIR]

Imports the package from ``--src`` and runs, in this order, each round:
``generate`` and ``write`` (``synth.generate`` and ``write_match_log`` of
workload L), ``ingest`` of that log and ``ingest.quoted`` of its quoted
twin, whose one quoted team id per match (``t01`` as ``"t01"``) sends
ingest through its ``csv.reader`` pass (the twin is written right after
``write``, outside both timings), then for each rating system its
``replay`` and its ``write`` (the per-match metrics CSV and the rating
store), and last ``cli.elo``, the whole ``royale-ratings replay --system
elo`` run on the round's log in a child process, which also records the
child's own peak RSS (see ``LAUNCHER``; the layer's time includes the
launcher's start), and ``cli.elo.quoted``, the same run on the quoted
twin.  ``apply.<system>`` is the time the replay spent in the system's
``_apply``, summed over its matches (one timing wrapper call per match),
and ``score.<system>`` the time it spent scoring the predictions, in
``rank_pairs`` plus ``score_match`` (one wrapper call each per match).
Every layer runs once per round, so its ``--repeats`` samples are
interleaved with the other layers'; each layer reports the median and
the quartiles of its samples.

``--baseline-src DIR`` times a second checkout's package in the same
process, imported as ``royale_ratings_baseline``: each round runs every
layer on both packages back to back, the side that goes first
alternating from round to round, so the two sets of samples share the
host's drift.  The report gains a ``baseline`` block with that
checkout's commit, its samples, medians and quartiles per layer, and
each layer's paired ratio: ``ratio`` is the median of the per-round
ratios of the ``--src`` sample to the baseline's, ``ratio_q1`` and
``ratio_q3`` their quartiles.  A round's two samples share its drift,
so their ratio cancels most of it.  Timings from two separate runs do
not compare; these do.  Each round also times every in-process layer
(all but the ``cli.*`` ones) a second time on the ``--src`` package,
last in even rounds and first in odd ones, and the report gains a
``null`` block with those samples and their paired ratios to the first
``--src`` samples: the ratios identical code reads, so a layer's
``baseline`` ratio is read against the file's own noise floor.

Two more rounds, untimed, count per layer what host noise does not move:
one under ``cProfile`` gives the Python calls made (``ncalls``; for
``apply.<system>`` the calls made inside ``_apply``, for
``score.<system>`` those inside ``rank_pairs`` and ``score_match``), one
under ``tracemalloc`` the allocation peak above what the layer started
with (for ``apply.<system>`` and ``score.<system>``, the largest of one
call).  Neither round runs the two ``cli.*`` layers, whose work is in the
child: each records ``peak_rss_mb``, the child's peak RSS in each timed
round, in their place.  The peak RSS of the process and the time of the
first ``import royale_ratings.cli`` are recorded once.

Workload L is ``SynthConfig(player_count=20000, team_size=2,
teams_per_match=48, match_count=5000, noise_spread=1.0, seed=1)``, the
paper's duo shape (480k rows); ``--scale`` multiplies its player and
match counts (at least one match, and players enough to fill one), so
``--scale 5`` is the paper-size workload P (2.4M rows).
``--bench-out DIR`` writes everything to ``DIR/BENCH_<short-sha>.json``,
named after the commit of the ``--src`` checkout (``-dirty`` appended
when tracked files under ``--src`` differ from that commit).  The logs and
the artifacts go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import importlib
import importlib.util
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
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]

SYSTEMS = ("elo", "glicko", "trueskill", "prevrank")
# the whole CLI run in a child process on the round's log and on its
# quoted twin, the last layers of a round
CLI_LAYERS = ("cli.elo", "cli.elo.quoted")
# Runs its arguments as a command and prints the command's peak RSS in MiB,
# from os.wait4 on that command alone (RUSAGE_CHILDREN would keep the
# largest child seen so far), and exits with the command's status.  Linux
# counts in a process's peak the RSS of the process it was forked from,
# up to its exec, so a command started by this bench, which holds the
# logs and the replays, would report the bench's RSS; started by this
# small launcher, it reports its own.
LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(usage.ru_maxrss / 1024)
sys.exit(os.waitstatus_to_exitcode(status))
"""
# the replay module's per-match scoring calls, the score.<system> layer
SCORERS = ("rank_pairs", "score_match")
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


def load_baseline(src: Path) -> str:
    """Import the package under ``src`` as ``royale_ratings_baseline``
    (its imports are relative, so it runs apart from ``royale_ratings``)."""
    name = "royale_ratings_baseline"
    package = src / "royale_ratings"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"no royale_ratings package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return name


class Layers:
    """The pipeline on one workload, one call per layer."""

    def __init__(
        self, package: str, src: Path, config: dict[str, Any], work: Path
    ) -> None:
        self.synth = importlib.import_module(f"{package}.synth")
        self.replay_module = importlib.import_module(f"{package}.replay")
        self.systems = importlib.import_module(f"{package}.systems")
        self.config = self.synth.SynthConfig(**config)
        work.mkdir(exist_ok=True)
        self.work = work
        self.log = work / "matches.csv"
        self.quoted = work / "quoted.csv"
        self.matches: list[Any] = []
        self.src = src
        # MiB, one per timed round and CLI layer
        self.cli_peaks: dict[str, list[float]] = {name: [] for name in CLI_LAYERS}

    def names(self) -> list[str]:
        names = ["generate", "write", "ingest", "ingest.quoted"]
        for system in SYSTEMS:
            names += [
                f"{layer}.{system}" for layer in ("replay", "apply", "score", "write")
            ]
        return names + list(CLI_LAYERS)

    def steps(self, hook: Any) -> Iterator[tuple[str, Callable[[], None]]]:
        """One round, as each layer's ``(name, call)`` in order; a call
        keeps its result for the later ones, so each runs before the next
        is drawn.  ``hook(name, function)`` wraps a system's ``_apply``
        for the ``apply.<system>`` layer, and the replay module's
        ``rank_pairs`` and ``score_match`` for its ``score.<system>``
        layer.  The generated matches and the replay results live until
        the round ends."""
        generated: list[Any] = []
        result: Any = None

        def generate() -> None:
            nonlocal generated
            generated = self.synth.generate(self.config)[0]

        def ingest() -> None:
            self.matches = self.replay_module.ingest(self.log)

        def replay(system: Any, scoring: dict[str, Callable[..., Any]]) -> None:
            nonlocal result
            with self.scoring(scoring):
                result = self.replay_module.replay(self.matches, system, seed=1)

        yield "generate", generate
        yield "write", lambda: self.synth.write_match_log(self.log, generated)
        # runs between the two timed calls
        with open(self.log, encoding="utf-8", newline="") as log:
            with open(self.quoted, "w", encoding="utf-8", newline="") as twin:
                twin.writelines(line.replace(",t01,", ',"t01",') for line in log)
        yield "ingest", ingest
        yield "ingest.quoted", lambda: self.replay_module.ingest(self.quoted)
        for name in SYSTEMS:
            system = self.systems.make_system(name)
            system._apply = hook(f"apply.{name}", system._apply)
            scoring = {
                scorer: hook(f"score.{name}", getattr(self.replay_module, scorer))
                for scorer in SCORERS
            }
            yield f"replay.{name}", lambda: replay(system, scoring)
            yield f"write.{name}", lambda: self.write(name, result)
        yield "cli.elo", lambda: self.cli("cli.elo", self.log)
        yield "cli.elo.quoted", lambda: self.cli("cli.elo.quoted", self.quoted)

    def run(self, measure: Callable[[str, Callable[[], None]], None], hook: Any) -> None:
        """One round in process, each layer's call run by ``measure(name,
        call)``; the CLI layers, whose work is in their child, are left out."""
        for name, call in self.steps(hook):
            if name not in CLI_LAYERS:
                measure(name, call)

    def cli(self, name: str, log: Path) -> None:
        """``royale-ratings replay --system elo`` on ``log``, in a child
        process that imports the package from this side's ``src``, started
        by ``LAUNCHER``, which records the child's own peak RSS for the
        layer ``name``."""
        command = [
            sys.executable, "-m", "royale_ratings.cli", "replay", "--system", "elo",
            "--input", str(log), "--output-dir", str(self.work / "cli"),
        ]
        env = {**os.environ, "PYTHONPATH": str(self.src)}
        launched = subprocess.run(
            [sys.executable, "-c", LAUNCHER, *command],
            env=env, capture_output=True, text=True, check=False,
        )
        if launched.returncode != 0:
            raise SystemExit(f"{name} under {self.src} failed:\n{launched.stderr}")
        self.cli_peaks[name].append(float(launched.stdout))

    @contextlib.contextmanager
    def scoring(self, scorers: dict[str, Callable[..., Any]]) -> Iterator[None]:
        """The replay module's scorers replaced by ``scorers`` while the
        block runs; the replay looks them up in its own namespace."""
        module = self.replay_module
        saved = {name: getattr(module, name) for name in scorers}
        for name, scorer in scorers.items():
            setattr(module, name, scorer)
        try:
            yield
        finally:
            for name, scorer in saved.items():
                setattr(module, name, scorer)

    def write(self, name: str, result: Any) -> None:
        self.replay_module.write_match_metrics_csv(
            self.work / f"{name}_metrics.csv", result.reports
        )
        result.store.save(self.work / f"{name}_store.txt")


def timed_round(sides: list[tuple[Layers, dict[str, list[float]]]]) -> None:
    """One round of every side, layer by layer: each layer runs on the
    sides in the order given, and lands in that side's samples; a side
    without samples for a layer skips it."""
    clock = time.perf_counter
    spent: list[dict[str, float]] = [{} for _ in sides]

    def hook(side: int) -> Callable[[str, Callable[..., Any]], Callable[..., Any]]:
        def wrap(name: str, function: Callable[..., Any]) -> Callable[..., Any]:
            spent[side][name] = 0.0

            def timed(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    spent[side][name] += clock() - start

            return timed

        return wrap

    rounds = [layers.steps(hook(side)) for side, (layers, _) in enumerate(sides)]
    for steps in zip(*rounds):
        for (name, call), (_, samples) in zip(steps, sides):
            if name not in samples:
                continue
            start = clock()
            call()
            samples[name].append(clock() - start)
    for seconds, (_, samples) in zip(spent, sides):
        for name, value in seconds.items():
            samples[name].append(value)


def _count(profile: cProfile.Profile) -> int:
    return pstats.Stats(profile).total_calls


def profiled_round(layers: Layers) -> dict[str, int]:
    calls: dict[str, int] = {}

    def measure(name: str, call: Callable[[], None]) -> None:
        profile = cProfile.Profile()
        profile.runcall(call)
        calls[name] = _count(profile)

    layers.run(measure, lambda name, function: function)
    # one profiler at a time: the calls inside _apply and the scorers come
    # from one more replay per system, profiled only there, each under its
    # own profiler (a scorer runs outside _apply)
    for name in SYSTEMS:
        profiles = {layer: cProfile.Profile() for layer in ("apply", "score")}

        def profiled(layer: str, function: Callable[..., Any]) -> Callable[..., Any]:
            return functools.partial(profiles[layer].runcall, function)

        system = layers.systems.make_system(name)
        system._apply = profiled("apply", system._apply)
        module = layers.replay_module
        scoring = {
            scorer: profiled("score", getattr(module, scorer)) for scorer in SCORERS
        }
        with layers.scoring(scoring):
            module.replay(layers.matches, system, seed=1)
        for layer, profile in profiles.items():
            calls[f"{layer}.{name}"] = _count(profile)
    return calls


def traced_round(layers: Layers) -> dict[str, float]:
    peaks: dict[str, float] = {}
    # the enclosing layer's peak, saved before each wrapped call resets it
    enclosing = [0]

    def measure(name: str, call: Callable[[], None]) -> None:
        enclosing[0] = 0
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        peak = max(enclosing[0], tracemalloc.get_traced_memory()[1])
        peaks[name] = (peak - start) / 2**20

    def hook(name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        peaks[name] = 0.0

        def traced(*args: Any, **kwargs: Any) -> Any:
            current, peak = tracemalloc.get_traced_memory()
            enclosing[0] = max(enclosing[0], peak)
            tracemalloc.reset_peak()
            out = function(*args, **kwargs)
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


def summary(values: list[float], unit: str = "s") -> dict[str, Any]:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "runs": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--baseline-src", type=Path)
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
        layers = Layers("royale_ratings", src, config, Path(work) / "src")
        sides = [(layers, {name: [] for name in layers.names()})]
        if args.baseline_src is not None:
            baseline_src = args.baseline_src.resolve()
            package = load_baseline(baseline_src)
            base = Layers(package, baseline_src, config, Path(work) / "baseline")
            sides.append((base, {name: [] for name in base.names()}))
            # the null side: --src again, in-process layers only
            null = Layers("royale_ratings", src, config, Path(work) / "null")
            in_process = [name for name in null.names() if name not in CLI_LAYERS]
            sides.append((null, {name: [] for name in in_process}))
        for repeat in range(args.repeats):
            timed_round(sides if repeat % 2 == 0 else sides[::-1])
        calls = profiled_round(layers)
        peaks = traced_round(layers)
    samples = sides[0][1]

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
        layer = report["layers"][name] = summary(values)
        if name in CLI_LAYERS:  # the child's peak RSS, in the peak column
            rss = layer["peak_rss_mb"] = summary(layers.cli_peaks[name], "MiB")
            figures = (f"{layer['median']:.4f}", f"{layer['iqr']:.4f}", "-")
            print(line.format(name, *figures, f"{rss['median']:.1f} RSS"))
            continue
        layer.update(ncalls=calls[name], tracemalloc_peak_mb=peaks[name])
        figures = (f"{layer['median']:.4f}", f"{layer['iqr']:.4f}", calls[name])
        print(line.format(name, *figures, f"{peaks[name]:.2f}"))

    def paired(layer: dict[str, Any], values: list[float], name: str) -> None:
        ratios = [new / old for new, old in zip(samples[name], values)]
        layer["ratio_q1"], layer["ratio"], layer["ratio_q3"] = quartiles(ratios)

    if args.baseline_src is not None:
        nulls = report["null"] = {"layers": {}}
        for name, values in sides[2][1].items():
            null = nulls["layers"][name] = {"runs": values}
            paired(null, values, name)
        baseline = report["baseline"] = {
            "commit": commit_of(baseline_src),
            "layers": {},
        }
        print(f"baseline {baseline['commit']} from {baseline_src}, in the same rounds")
        line = "{:<18}{:>10}{:>10}{:>10}{:>14}{:>8}{:>14}"
        print(line.format(
            "layer", "median s", "IQR s", "src/base", "quartiles", "null", "quartiles"
        ))

        def ratios(layer: dict[str, Any] | None) -> tuple[str, str]:
            if layer is None:
                return "-", "-"
            return f"{layer['ratio']:.3f}", f"{layer['ratio_q1']:.3f}-{layer['ratio_q3']:.3f}"

        for name, values in sides[1][1].items():
            layer = baseline["layers"][name] = summary(values)
            paired(layer, values, name)
            figures = (f"{layer['median']:.4f}", f"{layer['iqr']:.4f}")
            null = nulls["layers"].get(name)
            print(line.format(name, *figures, *ratios(layer), *ratios(null)))
            if name in CLI_LAYERS:
                rss = layer["peak_rss_mb"] = summary(sides[1][0].cli_peaks[name], "MiB")
                print(f"{name:<18}child peak RSS {rss['median']:.1f} MiB")
    print(f"import {import_s:.3f} s, peak RSS {report['peak_rss_mb']:.1f} MiB")
    if args.bench_out is not None:
        args.bench_out.mkdir(parents=True, exist_ok=True)
        path = args.bench_out / f"BENCH_{report['commit']}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
