"""Synthetic match streams with known latent skills.

Players draw a fixed latent skill from N(skill_mean, skill_spread^2).
Each match samples a fresh roster uniformly without replacement, chunks
it into teams, and scores every team by the sum of member latents plus
per-match Gaussian performance noise; placements follow descending
performance.  With noise_spread = 0 the placements are a pure function
of the latent sums, which gives a convergence oracle: a rating system
replayed over the stream should recover the latent ordering.

Everything is driven by one seed through numpy's Generator, so a config
reproduces its stream exactly.  A match's team sums are one row sum of
its roster's latents laid out as a (teams x team_size) array, which adds
each team's members as a sum over that team alone would.  Each record is
built from its layout (``core.match_from_layout``): the drawn roster as
it is, with one team-id tuple and one sizes tuple shared by every match.
A latent skill or team performance past the largest double raises a
``DomainError`` naming the player, or the match and team.

The writers emit CSV as ``csv.writer`` does.  A match's rows, or a run
of latent-table rows, whose fields hold no comma, double quote, CR or LF
(the characters ``csv.writer`` quotes a field for) are written as lines
joined by hand and ended in ``\r\n``; any others go through
``csv.writer``, so quoting follows it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import DomainError, MatchRecord, match_from_layout, require_at_least
from .matchlog import MATCH_LOG_COLUMNS, format_timestamp
from .systems import check_fields

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
        require_at_least(1, team_size=self.team_size)
        require_at_least(2, teams_per_match=self.teams_per_match)
        require_at_least(1, match_count=self.match_count)
        players_needed = self.team_size * self.teams_per_match
        if self.player_count < players_needed:
            raise DomainError(
                f"player_count {self.player_count} cannot fill "
                f"{self.teams_per_match} teams of {self.team_size}"
            )
        check_fields(self, skill_mean="finite", skill_spread="> 0", noise_spread=">= 0")
        require_at_least(0, seed=self.seed)


def generate(config: SynthConfig) -> tuple[list[MatchRecord], dict[str, float]]:
    """Build the match stream and the latent-skill table it was drawn from."""
    rng = np.random.default_rng(config.seed)
    width = max(4, len(str(config.player_count - 1)))
    player_ids = [f"p{i:0{width}d}" for i in range(config.player_count)]
    n_teams = config.teams_per_match
    size = config.team_size
    team_ids = tuple(f"t{k + 1:02d}" for k in range(n_teams))
    sizes = (size,) * n_teams
    matches: list[MatchRecord] = []
    # overflow is checked for by value below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        latents = config.skill_mean + config.skill_spread * rng.standard_normal(
            config.player_count
        )
        finite = np.isfinite(latents)
        if not finite.all():
            raise DomainError(
                f"player {player_ids[int(finite.argmin())]!r} latent skill "
                f"overflows (skill_mean {config.skill_mean!r}, skill_spread "
                f"{config.skill_spread!r})"
            )
        for m in range(config.match_count):
            match_id = f"m{m + 1:06d}"
            chosen = rng.choice(config.player_count, size=n_teams * size, replace=False)
            performance = latents[chosen].reshape(n_teams, size).sum(
                axis=1
            ) + config.noise_spread * rng.standard_normal(n_teams)
            finite = np.isfinite(performance)
            if not finite.all():
                raise DomainError(
                    f"match {match_id!r}: team {team_ids[int(finite.argmin())]!r} "
                    "performance overflows"
                )
            # placements follow descending performance; stable order breaks the
            # measure-zero exact ties deterministically
            by_perf = np.argsort(-performance, kind="stable")
            placement = np.empty(n_teams, dtype=int)
            placement[by_perf] = np.arange(1, n_teams + 1)
            stamp = _EPOCH + timedelta(minutes=m)
            ranks = tuple(placement.tolist())
            roster = tuple(map(player_ids.__getitem__, chosen.tolist()))
            record = match_from_layout(match_id, stamp, team_ids, ranks, sizes, roster)
            matches.append(record)
    skills = {pid: float(s) for pid, s in zip(player_ids, latents)}
    return matches, skills


# csv.writer's default dialect quotes a field holding any of these
_QUOTED = (",", '"', "\r", "\n")
# latent-table rows joined per write, so a write holds one run, not the table
_SKILL_ROWS = 512


def _plain(fields: Iterable[str]) -> bool:
    """Whether ``csv.writer`` writes every one of the fields as it is."""
    text = "".join(fields)
    return not any(map(text.__contains__, _QUOTED))


def _each(values: Iterable[object], counts: Iterable[int]) -> Iterator[object]:
    """Each value repeated its count times."""
    return chain.from_iterable(map(repeat, values, counts))


def write_match_log(path: str | Path, matches: list[MatchRecord]) -> None:
    """Write matches in the flat match-log layout, one row per player,
    from each match's layout, a match at a time: its joined lines when
    its ids hold nothing to quote, else its rows through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(MATCH_LOG_COLUMNS)
        for match in matches:
            sizes, roster, team_ids = match.sizes, match.roster, match.team_ids
            match_id, stamp = match.match_id, format_timestamp(match.timestamp)
            if _plain(chain((match_id, stamp), team_ids, roster)):
                heads = [f"{match_id},{stamp},{team_id}," for team_id in team_ids]
                tails = [f",{rank}\r\n" for rank in match.ranks]
                lines = zip(_each(heads, sizes), roster, _each(tails, sizes))
                handle.write("".join(chain.from_iterable(lines)))
            else:
                columns = _each(team_ids, sizes), roster, _each(match.ranks, sizes)
                writer.writerows(zip(repeat(match_id), repeat(stamp), *columns))


def write_latent_skills(path: str | Path, skills: dict[str, float]) -> None:
    """Write the latent-skill table sorted by player id, each skill as the
    ``repr`` of its float, ``_SKILL_ROWS`` rows at a time."""
    player_ids = sorted(skills)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["player_id", "latent_skill"])
        for start in range(0, len(player_ids), _SKILL_ROWS):
            run = player_ids[start : start + _SKILL_ROWS]
            if _plain(run):
                handle.write("".join([f"{pid},{skills[pid]!r}\r\n" for pid in run]))
            else:
                writer.writerows([pid, repr(skills[pid])] for pid in run)
