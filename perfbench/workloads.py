"""Seeded battle-royale match logs for the benchmark, with their ground truth.

``royale_ratings.synth.generate`` samples players uniformly, so every
player plays about the same number of matches.  Real battle-royale logs
are skewed: most players play a few matches and a few play hundreds.
The generator here draws rosters with probability proportional to a
per-player activity weight (Gumbel top-k sampling without replacement),
shuffles a few matches out of file order, and plants a handful of
*semantic* defects that ``ingest`` rejects: a placement that is not a
permutation, a player in two teams, and a team whose rows disagree on its
placement.  Structural defects (a missing field, a bad timestamp) abort
``ingest`` by design, so none are planted.

Alongside the CSV it writes ``truth.json``: the counts every command's
output must reproduce, computed from the generator's own records and not
from the package under test.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

__all__ = ["Workload", "WORKLOADS", "ensure_log", "job"]

SYSTEMS = ("elo", "glicko", "trueskill", "prevrank")
# experiment set-up -> (system, extra flags), as the paper pairs them
SETUPS = {
    "all": ("elo", []),
    "best": ("trueskill", ["--conservative-k", "3"]),
    "frequent": ("glicko", []),
}
# the CLI's cohort defaults: best = top 1000 with > 10 games, frequent = > 100 games
BEST_MIN_GAMES, BEST_TOP_K, BEST_HORIZON = 10, 1000, 10
FREQUENT_MIN_GAMES, FREQUENT_HORIZON = 100, 100

_EPOCH = datetime(2019, 3, 1, tzinfo=timezone.utc)
_DEFECTS = ("nonperm", "dup_player", "inconsistent")


@dataclass(frozen=True)
class Workload:
    """One log shape.  ``modes`` holds (team_size, teams per match) pairs,
    interleaved in time with equal shares; ``team_size`` is the filter the
    replay and experiment commands pass, None for single-mode logs."""

    name: str
    modes: tuple[tuple[int, int], ...]
    matches: int
    players: int
    # activity weight of the player at activity rank r is (r + 1) ** -skew
    skew: float
    team_size: int | None
    planted: int
    # (players, team_size, teams, matches) of the timed ``synth`` command
    synth: tuple[int, int, int, int]

    @property
    def target_mode(self) -> tuple[int, int]:
        if self.team_size is None:
            return self.modes[0]
        return next(m for m in self.modes if m[0] == self.team_size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="duo48",
            modes=((2, 48),),
            matches=130,
            players=3000,
            skew=1.05,
            team_size=None,
            planted=6,
            synth=(5000, 2, 48, 300),
        ),
        Workload(
            name="solo100",
            modes=((1, 100),),
            matches=115,
            players=3000,
            skew=1.05,
            team_size=None,
            planted=6,
            synth=(5000, 1, 100, 200),
        ),
        # a small population with long careers, so many players pass 100
        # squad games although only a third of the matches are squads
        Workload(
            name="mixed-modes",
            modes=((1, 100), (2, 48), (4, 25)),
            matches=360,
            players=110,
            skew=0.2,
            team_size=4,
            planted=6,
            synth=(2000, 4, 25, 450),
        ),
    )
}


def _scaled(workload: Workload, scale: float) -> Workload:
    players, size, teams, matches = workload.synth
    return replace(
        workload,
        matches=max(len(workload.modes) * 4, round(workload.matches * scale)),
        planted=max(2, round(workload.planted * scale)),
        synth=(players, size, teams, max(2, round(matches * scale))),
    )


def _generate(workload: Workload, seed: int) -> tuple[list[dict], list[int]]:
    """Matches in chronological order, and the order they are written in."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    n_players = workload.players
    width = len(str(n_players - 1))
    ids = [f"p{i:0{width}d}" for i in range(n_players)]
    log_weight = -workload.skew * np.log1p(rng.permutation(n_players))
    latent = rng.standard_normal(n_players)
    per_mode = -(-workload.matches // len(workload.modes))
    modes = np.repeat(np.arange(len(workload.modes)), per_mode)[: workload.matches]
    rng.shuffle(modes)

    matches = []
    for m, mode in enumerate(modes):
        size, teams = workload.modes[mode]
        keys = log_weight + rng.gumbel(size=n_players)
        chosen = rng.permutation(np.argpartition(-keys, size * teams)[: size * teams])
        rosters = chosen.reshape(teams, size)
        performance = latent[rosters].sum(axis=1) + rng.standard_normal(teams)
        placement = np.empty(teams, dtype=int)
        placement[np.argsort(-performance, kind="stable")] = np.arange(1, teams + 1)
        stamp = _EPOCH + timedelta(seconds=90 * m + int(rng.integers(0, 60)))
        matches.append(
            {
                "id": f"m{m + 1:06d}",
                "stamp": stamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "size": size,
                # rows: [team_id, player_id, placement]
                "rows": [
                    [f"t{k + 1:03d}", ids[p], int(placement[k])]
                    for k in range(teams)
                    for p in rosters[k]
                ],
                "defect": None,
            }
        )

    # plant the defects in matches of the filtered mode only, so each one is
    # rejected whatever --team-size a command passes
    target_size = workload.target_mode[0]
    candidates = [i for i, m in enumerate(matches) if m["size"] == target_size]
    kinds = [k for k in _DEFECTS if target_size > 1 or k != "inconsistent"]
    for n, i in enumerate(rng.choice(candidates, workload.planted, replace=False)):
        _plant(matches[int(i)], kinds[n % len(kinds)])

    # a few matches are written later than their time says; ingest re-sorts
    order = list(range(len(matches)))
    for i in rng.choice(len(order) - 1, max(1, len(order) // 40), replace=False):
        j = min(len(order) - 1, int(i) + int(rng.integers(1, 20)))
        order[i], order[j] = order[j], order[i]
    return matches, order


def _plant(match: dict, kind: str) -> None:
    rows = match["rows"]
    size = match["size"]
    if kind == "nonperm":  # the runner-up team also claims first place
        for row in rows:
            if row[2] == 2:
                row[2] = 1
    elif kind == "dup_player":  # the second team's first member is the first team's
        rows[size][1] = rows[0][1]
    else:  # the first team's last row disagrees on its placement
        rows[size - 1][2] = rows[size][2]
    match["defect"] = kind


def _truth(workload: Workload, matches: list[dict], order: list[int]) -> dict:
    valid = [m for m in matches if m["defect"] is None]
    kept = [m for m in valid if workload.team_size in (None, m["size"])]
    games: Counter[str] = Counter(row[1] for m in kept for row in m["rows"])
    all_players = {row[1] for m in valid for row in m["rows"]}
    histogram: Counter[int] = Counter()
    for m in valid:
        histogram[m["size"]] += len(m["rows"]) // m["size"]
    best = sum(1 for g in games.values() if g > BEST_MIN_GAMES)
    frequent = sum(1 for g in games.values() if g > FREQUENT_MIN_GAMES)
    return {
        "rows": sum(len(m["rows"]) for m in matches),
        "matches_read": len(matches),
        "matches_rejected": len(matches) - len(valid),
        "matches_filtered": len(valid) - len(kept),
        "matches_replayed": len(kept),
        "matches_out_of_file_order": sum(1 for pos, i in enumerate(order) if pos != i),
        "teams_per_match": workload.target_mode[1],
        "players": len(games),
        "member_appearances": sum(games.values()),
        "best_cohort": min(BEST_TOP_K, best),
        "frequent_cohort": frequent,
        # every cohort player has each game up to the horizon
        "trend_points": {
            "all": len(kept),
            "best": BEST_HORIZON if best else 0,
            "frequent": FREQUENT_HORIZON if frequent else 0,
        },
        "max_games": max(games.values()),
        "inspect": {
            "matches_valid": len(valid),
            "players": len(all_players),
            "team_size_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        },
    }


def ensure_log(workload_name: str, seed: int, cache: Path, scale: float = 1.0) -> Path:
    """Generate (or reuse) the log of one (workload, seed); returns its directory.

    The directory holds ``matches.csv`` and ``truth.json``; the same
    arguments always give the same bytes.
    """
    workload = _scaled(WORKLOADS[workload_name], scale)
    tag = f"{workload_name}-s{seed}" + ("" if scale == 1.0 else f"-x{scale}")
    directory = cache / tag
    if (directory / "truth.json").exists():
        return directory
    matches, order = _generate(workload, seed)
    tmp = cache / f".{tag}.{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    with open(tmp / "matches.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["match_id", "timestamp", "team_id", "player_id", "team_placement"])
        for i in order:
            match = matches[i]
            for team_id, player_id, placement in match["rows"]:
                writer.writerow([match["id"], match["stamp"], team_id, player_id, placement])
    truth = _truth(workload, matches, order)
    truth["synth"] = dict(zip(("players", "team_size", "teams", "matches"), workload.synth))
    (tmp / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True) + "\n")
    tmp.rename(directory)
    return directory


def job(workload_name: str, seed: int, log: str, truth: dict) -> list[tuple[str, list[str], str]]:
    """The workload's commands as (label, argv, capture), run in this order.

    ``capture`` is ``job/<label>``: the command's output directory, with
    its stdout and stderr captured beside it.  The paths are relative, so
    every repetition of the job writes identical bytes, run summaries
    included.
    """
    workload = WORKLOADS[workload_name]
    shared = ["--input", log, "--seed", str(seed)]
    if workload.team_size is not None:
        shared += ["--team-size", str(workload.team_size)]
    synth = truth["synth"]
    commands = [("inspect.log", ["inspect", "--input", log])]
    for system in SYSTEMS:
        commands.append((f"replay.{system}", ["replay", "--system", system, *shared]))
    for setup, (system, extra) in SETUPS.items():
        argv = ["experiment", "--setup", setup, "--system", system, *extra, *shared]
        commands.append((f"experiment.{setup}", argv))
    commands.append(
        (
            "synth",
            [
                "synth",
                "--players", str(synth["players"]),
                "--team-size", str(synth["team_size"]),
                "--teams", str(synth["teams"]),
                "--matches", str(synth["matches"]),
                "--noise-spread", "1.0",
                "--seed", str(seed),
            ],
        )
    )
    return [
        (label, argv if label == "inspect.log" else argv + ["--output-dir", f"job/{label}"], f"job/{label}")
        for label, argv in commands
    ]
