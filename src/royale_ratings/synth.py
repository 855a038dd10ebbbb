"""Synthetic match streams with known latent skills.

Players draw a fixed latent skill from N(skill_mean, skill_spread^2).
Each match samples a fresh roster uniformly without replacement, chunks
it into teams, and scores every team by the sum of member latents plus
per-match Gaussian performance noise; placements follow descending
performance.  With noise_spread = 0 the placements are a pure function
of the latent sums, which gives a convergence oracle: a rating system
replayed over the stream should recover the latent ordering.

Everything is driven by one seed through numpy's Generator, so a config
reproduces its stream exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .core import DomainError, MatchRecord, build_match
from .replay import MATCH_LOG_COLUMNS, format_timestamp

__all__ = ["SynthConfig", "generate", "write_match_log", "write_latent_skills"]

_EPOCH = datetime(2018, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True, slots=True)
class SynthConfig:
    player_count: int
    team_size: int = 2
    teams_per_match: int = 10
    match_count: int = 1000
    skill_mean: float = 0.0
    skill_spread: float = 1.0
    noise_spread: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.team_size < 1:
            raise DomainError(f"team_size must be >= 1, got {self.team_size}")
        if self.teams_per_match < 2:
            raise DomainError(
                f"teams_per_match must be >= 2, got {self.teams_per_match}"
            )
        if self.match_count < 1:
            raise DomainError(f"match_count must be >= 1, got {self.match_count}")
        players_needed = self.team_size * self.teams_per_match
        if self.player_count < players_needed:
            raise DomainError(
                f"player_count {self.player_count} cannot fill "
                f"{self.teams_per_match} teams of {self.team_size}"
            )
        if not math.isfinite(self.skill_mean):
            raise DomainError(f"skill_mean must be finite, got {self.skill_mean}")
        if not (math.isfinite(self.skill_spread) and self.skill_spread > 0):
            raise DomainError(
                f"skill_spread must be finite and > 0, got {self.skill_spread}"
            )
        if not (math.isfinite(self.noise_spread) and self.noise_spread >= 0):
            raise DomainError(
                f"noise_spread must be finite and >= 0, got {self.noise_spread}"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


def generate(config: SynthConfig) -> tuple[list[MatchRecord], dict[str, float]]:
    """Build the match stream and the latent-skill table it was drawn from."""
    rng = np.random.default_rng(config.seed)
    width = max(4, len(str(config.player_count - 1)))
    player_ids = [f"p{i:0{width}d}" for i in range(config.player_count)]
    latents = config.skill_mean + config.skill_spread * rng.standard_normal(
        config.player_count
    )

    n_teams = config.teams_per_match
    size = config.team_size
    team_ids = [f"t{k + 1:02d}" for k in range(n_teams)]
    spans = [slice(k * size, (k + 1) * size) for k in range(n_teams)]
    matches: list[MatchRecord] = []
    for m in range(config.match_count):
        chosen = rng.choice(config.player_count, size=n_teams * size, replace=False)
        performance = np.array(
            [latents[chosen[span]].sum() for span in spans]
        ) + config.noise_spread * rng.standard_normal(n_teams)
        # placements follow descending performance; stable order breaks the
        # measure-zero exact ties deterministically
        by_perf = np.argsort(-performance, kind="stable")
        placement = np.empty(n_teams, dtype=int)
        placement[by_perf] = np.arange(1, n_teams + 1)
        members = [player_ids[p] for p in chosen.tolist()]
        matches.append(
            build_match(
                f"m{m + 1:06d}",
                _EPOCH + timedelta(minutes=m),
                team_ids,
                [members[span] for span in spans],
                placement.tolist(),
            )
        )
    skills = {pid: float(s) for pid, s in zip(player_ids, latents)}
    return matches, skills


def write_match_log(path: str | Path, matches: list[MatchRecord]) -> None:
    """Write matches in the flat match-log layout, one row per player."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(MATCH_LOG_COLUMNS)
        for match in matches:
            stamp = format_timestamp(match.timestamp)
            for team in match.teams:
                for player in team.members:
                    writer.writerow(
                        [match.match_id, stamp, team.team_id, player, team.observed_rank]
                    )


def write_latent_skills(path: str | Path, skills: dict[str, float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["player_id", "latent_skill"])
        for player_id in sorted(skills):
            writer.writerow([player_id, repr(skills[player_id])])


def config_dict(config: SynthConfig) -> dict[str, float | int]:
    return asdict(config)
