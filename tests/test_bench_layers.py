"""Schema of ``tools/bench_layers.py``'s BENCH file, at a tiny scale.

Only the shape is checked: timings are host noise, so no value of one is
asserted beyond being a non-negative number.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAYERS = ["generate", "write", "ingest", "ingest.quoted"] + [
    f"{layer}.{system}"
    for system in ("elo", "glicko", "trueskill", "prevrank")
    for layer in ("replay", "apply", "score", "write")
] + ["cli.elo", "cli.elo.quoted"]
CLI_LAYERS = {"cli.elo", "cli.elo.quoted"}


def bench(tmp_path, *flags):
    """The BENCH file of one run at scale 0.002, 2 repeats."""
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "bench_layers.py"),
            "--scale", "0.002",
            "--repeats", "2",
            "--bench-out", str(tmp_path),
            *flags,
        ],
        check=True,
        capture_output=True,
        timeout=300,
    )
    (path,) = tmp_path.glob("BENCH_*.json")
    report = json.loads(path.read_text())
    assert path.name == f"BENCH_{report['commit']}.json"
    return report


def check_timings(layer, name, unit="s"):
    assert layer["unit"] == unit
    assert len(layer["runs"]) == 2 and min(layer["runs"]) >= 0, name
    assert layer["q1"] <= layer["median"] <= layer["q3"], name
    assert layer["iqr"] == layer["q3"] - layer["q1"], name


def check_cli_peaks(layer, name):
    """A whole CLI run's layer: the child's own peak RSS per round, which
    holds at least the interpreter, numpy and the package."""
    peaks = layer["peak_rss_mb"]
    check_timings(peaks, name, unit="MiB")
    assert min(peaks["runs"]) > 10


def test_bench_file_schema(tmp_path):
    report = bench(tmp_path)
    assert re.fullmatch(r"[0-9a-f]{4,}(-dirty)?|unknown", report["commit"])
    workload = report["workload"]
    assert workload["name"] == "L" and workload["scale"] == 0.002
    assert workload["config"]["match_count"] == 10
    assert report["matches"] == 10 and report["repeats"] == 2
    assert workload["rows"] == 10 * 48 * 2
    assert set(report["environment"]) == {
        "python", "numpy", "scipy", "cpu_count", "machine"
    }
    assert report["import_s"] > 0 and report["peak_rss_mb"] > 0
    assert list(report["layers"]) == LAYERS
    assert "baseline" not in report and "null" not in report
    for name, layer in report["layers"].items():
        check_timings(layer, name)
        if name in CLI_LAYERS:  # its work is in the child, not profiled or traced
            assert set(layer) == {"unit", "runs", "median", "q1", "q3", "iqr", "peak_rss_mb"}
            check_cli_peaks(layer, name)
            continue
        assert isinstance(layer["ncalls"], int) and layer["ncalls"] > 0, name
        assert layer["tracemalloc_peak_mb"] >= 0, name


def check_ratios(layer, runs, name):
    """The median and quartiles of the per-round ratios of the ``--src``
    samples ``runs`` to the layer's own, each round's two samples paired."""
    ratios = [new / old for new, old in zip(runs, layer["runs"])]
    quartiles = statistics.quantiles(ratios, n=4, method="inclusive")
    assert [layer["ratio_q1"], layer["ratio"], layer["ratio_q3"]] == quartiles, name
    assert layer["ratio"] == statistics.median(ratios), name


def test_baseline_block_schema(tmp_path):
    """The same package as its own baseline: one more set of samples per
    layer, from the same rounds, and the median and quartiles of the
    per-round ratios; and the null block, a second ``--src`` sample of
    every in-process layer per round, with its ratios."""
    report = bench(tmp_path, "--baseline-src", str(ROOT / "src"))
    baseline = report["baseline"]
    assert set(baseline) == {"commit", "layers"}
    assert baseline["commit"] == report["commit"]
    assert list(baseline["layers"]) == list(report["layers"]) == LAYERS
    for name, layer in baseline["layers"].items():
        check_timings(layer, name)
        fields = {"unit", "runs", "median", "q1", "q3", "iqr", "ratio", "ratio_q1", "ratio_q3"}
        if name in CLI_LAYERS:
            check_cli_peaks(layer, name)
            fields.add("peak_rss_mb")
        assert set(layer) == fields, name
        check_ratios(layer, report["layers"][name]["runs"], name)
    null = report["null"]
    assert set(null) == {"layers"}
    assert list(null["layers"]) == [name for name in LAYERS if name not in CLI_LAYERS]
    for name, layer in null["layers"].items():
        assert set(layer) == {"runs", "ratio", "ratio_q1", "ratio_q3"}, name
        assert len(layer["runs"]) == 2 and min(layer["runs"]) >= 0, name
        check_ratios(layer, report["layers"][name]["runs"], name)
