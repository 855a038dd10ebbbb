"""Output checks for one benchmark command.

Every command is one operation.  It fails when it exits non-zero or when
its outputs break an invariant that holds whatever the ratings are:

- the counts in ``run_summary.json`` equal the generator's ground truth;
- ``per_match_metrics.csv`` has one row per replayed match, in time
  order, and every metric is in its range;
- the store's summed ``games_played`` equals the member appearances;
- the Elo mu sum equals players x the default rating (Elo is zero-sum);
- prevrank mu stays at 0;
- a trend has the expected point count and cohort size.

Determinism (identical bytes on every repetition) is checked by the
caller from ``digests``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

__all__ = ["check", "digests"]

ELO_DEFAULT = 1500.0
_RANGES = {
    "new_player_fraction": (0.0, 1.0),
    "accuracy": (0.0, 1.0),
    "kendall_tau": (-1.0, 1.0),
    "mrr": (0.0, 1.0),
    "ap": (0.0, 1.0),
    "ndcg": (0.0, 1.0),
}


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def _summary_counts(problems: list[str], summary: dict, truth: dict) -> None:
    counts = summary.get("counts", {})
    for key in ("rows", "matches_read", "matches_rejected", "matches_replayed", "players"):
        _expect(problems, f"counts.{key}", counts.get(key), truth[key])
    _expect(problems, "counts.matches_filtered", counts.get("matches_filtered"), truth["matches_filtered"])


def _check_store(problems: list[str], path: Path, system: str, truth: dict) -> None:
    lines = path.read_text().splitlines()
    header = {
        line[1:].partition("=")[0]: line[1:].partition("=")[2]
        for line in lines
        if line.startswith("#")
    }
    body = [line.split("\t") for line in lines if line and not line.startswith("#")]
    _expect(problems, "store #system", header.get("system"), system)
    _expect(problems, "store #matches", header.get("matches"), str(truth["matches_replayed"]))
    _expect(problems, "store players", len(body), truth["players"])
    games = sum(int(row[3]) for row in body)
    _expect(problems, "store games_played sum", games, truth["member_appearances"])
    mus = [float(row[1]) for row in body]
    if not all(math.isfinite(mu) for mu in mus):
        problems.append("store has a non-finite mu")
    sigmas = [row[2] for row in body]
    if system in ("elo", "prevrank"):
        if any(s != "-" for s in sigmas):
            problems.append(f"{system} store carries a sigma")
    elif not all(math.isfinite(float(s)) and float(s) > 0 for s in sigmas):
        problems.append("store has a sigma that is not finite and positive")
    n = truth["teams_per_match"]
    if not all(row[4] != "-" and 1 <= int(row[4]) <= n for row in body):
        problems.append(f"store has a last_observed_rank outside 1..{n}")
    if system == "elo":
        want = ELO_DEFAULT * len(body)
        if not math.isclose(math.fsum(mus), want, rel_tol=1e-9):
            problems.append(f"elo mu sum is {math.fsum(mus)!r}, expected {want!r}")
    if system == "prevrank" and any(mu != 0.0 for mu in mus):
        problems.append("prevrank mu moved off 0")


def _check_match_csv(problems: list[str], path: Path, truth: dict) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    _expect(problems, "per_match_metrics rows", len(rows), truth["matches_replayed"])
    _expect(problems, "distinct match ids", len({r["match_id"] for r in rows}), len(rows))
    stamps = [r["timestamp"] for r in rows]
    if stamps != sorted(stamps):
        problems.append("per_match_metrics rows are not in time order")
    n = truth["teams_per_match"]
    for row in rows:
        bad = [
            name
            for name, (low, high) in _RANGES.items()
            if not low <= float(row[name]) <= high
        ]
        if not 0.0 <= float(row["mae"]) <= n - 1:
            bad.append("mae")
        if float(row["mrr"]) <= 0 or float(row["ndcg"]) <= 0:
            bad.append("mrr/ndcg not positive")
        if int(row["team_count"]) != n:
            bad.append("team_count")
        if bad:
            problems.append(f"match {row['match_id']}: out of range {bad}")
            break


def _check_trend(problems: list[str], out: Path, summary: dict, setup: str, truth: dict) -> None:
    with open(out / "trend.csv", newline="") as handle:
        points = list(csv.DictReader(handle))
    want = truth["trend_points"][setup]
    cohort = truth.get(f"{setup}_cohort")
    _expect(problems, "trend points", len(points), want)
    _expect(problems, "summary trend_points", summary.get("trend_points"), want)
    if cohort and points:
        _expect(problems, "cohort size", int(points[0]["match_count"]), cohort)


def check(label: str, system: str, code, capture: Path, truth: dict) -> list[str]:
    """Problems with one command's outputs; empty when it passed.

    ``capture`` is the command's output directory, with its stdout and
    stderr beside it as ``<capture>.stdout`` and ``<capture>.stderr``.
    """
    if code != 0:
        return [f"exit code {code}"]
    problems: list[str] = []
    command = label.split(".")[0]
    if command == "inspect":
        summary = json.loads(Path(f"{capture}.stdout").read_text())
        counts = summary["counts"]
        for key in ("rows", "matches_read", "matches_rejected"):
            _expect(problems, f"counts.{key}", counts.get(key), truth[key])
        inspect = truth["inspect"]
        _expect(problems, "counts.matches_valid", counts.get("matches_valid"), inspect["matches_valid"])
        _expect(problems, "counts.players", counts.get("players"), inspect["players"])
        _expect(problems, "team_size_histogram", summary.get("team_size_histogram"), inspect["team_size_histogram"])
        return problems
    summary = json.loads((capture / "run_summary.json").read_text())
    if command == "synth":
        synth = truth["synth"]
        _expect(problems, "counts", summary.get("counts"), {"matches": synth["matches"], "players": synth["players"]})
        with open(capture / "matches.csv") as handle:
            rows = sum(1 for _ in handle) - 1
        _expect(problems, "matches.csv rows", rows, synth["matches"] * synth["teams"] * synth["team_size"])
        return problems
    _summary_counts(problems, summary, truth)
    _expect(problems, "summary system", summary.get("system"), system)
    _check_store(problems, capture / "rating_store.txt", system, truth)
    if command == "replay":
        _check_match_csv(problems, capture / "per_match_metrics.csv", truth)
    else:
        _check_trend(problems, capture, summary, label.split(".")[1], truth)
    return problems
