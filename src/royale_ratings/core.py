"""Domain types shared by every rating system, plus result normalization
and the common score-to-ranking step.

Ranks are team placements: 1 is the winner, N is the last team out of N.
All rating math is double precision.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import datetime

__all__ = [
    "RatingsError",
    "DomainError",
    "DataError",
    "MissingStateError",
    "PlayerRating",
    "TeamEntry",
    "MatchRecord",
    "PredictedRanking",
    "normalized_result",
    "rank_teams_by_score",
]


class RatingsError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(RatingsError, ValueError):
    """A value violated a precondition (rank out of range, empty roster, ...)."""


class DataError(RatingsError, ValueError):
    """Input data is unusable (non-finite score, malformed file, ...)."""


class MissingStateError(RatingsError, KeyError):
    """A match roster references a player with no rating entry."""

    def __str__(self) -> str:  # KeyError repr-quotes its payload otherwise
        return self.args[0] if self.args else ""


@dataclass(frozen=True, slots=True)
class PlayerRating:
    """One player's belief state.

    ``sigma`` is None for systems that carry no uncertainty (Elo, the
    previous-rank baseline).  ``games_played`` counts applied updates and
    ``last_observed_rank`` is the team placement from the player's most
    recent match, if any.
    """

    mu: float
    sigma: float | None = None
    games_played: int = 0
    last_observed_rank: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"player mu must be finite, got {self.mu!r}")
        if self.sigma is not None and not self.sigma > 0:
            raise DomainError(f"player sigma must be positive, got {self.sigma!r}")
        if self.games_played < 0:
            raise DomainError("games_played cannot be negative")
        if self.last_observed_rank is not None and self.last_observed_rank < 1:
            raise DomainError(
                f"last_observed_rank must be >= 1, got {self.last_observed_rank}"
            )


@dataclass(frozen=True, slots=True)
class TeamEntry:
    """One team's roster and observed placement within a single match."""

    team_id: str
    members: tuple[str, ...]
    observed_rank: int

    def __post_init__(self) -> None:
        if not self.team_id:
            raise DomainError("team_id must be a non-empty token")
        if not self.members:
            raise DomainError(f"team {self.team_id!r} has an empty roster")
        if not all(self.members):
            raise DomainError(f"team {self.team_id!r} has an empty player id")
        if len(set(self.members)) != len(self.members):
            raise DomainError(f"team {self.team_id!r} lists a player twice")
        if self.observed_rank < 1:
            raise DomainError(
                f"team {self.team_id!r} has placement {self.observed_rank}, expected >= 1"
            )


@dataclass(frozen=True, slots=True)
class MatchRecord:
    """A completed match: at least two teams whose observed placements form
    a permutation of 1..N and whose rosters are disjoint."""

    match_id: str
    timestamp: datetime
    teams: tuple[TeamEntry, ...]

    def __post_init__(self) -> None:
        n = len(self.teams)
        if n < 2:
            raise DomainError(f"match {self.match_id!r} needs >= 2 teams, got {n}")
        if len({t.team_id for t in self.teams}) != n:
            raise DomainError(f"match {self.match_id!r} repeats a team_id")
        if sorted(t.observed_rank for t in self.teams) != list(range(1, n + 1)):
            raise DomainError(
                f"match {self.match_id!r} placements are not a permutation of 1..{n}"
            )
        players = self.players()
        if len(set(players)) == len(players):
            return
        seen: set[str] = set()
        for player in players:
            if player in seen:
                raise DomainError(
                    f"match {self.match_id!r}: player {player!r} appears in two teams"
                )
            seen.add(player)

    @property
    def team_count(self) -> int:
        return len(self.teams)

    def players(self) -> list[str]:
        """All player ids in roster order (teams in record order)."""
        return [p for team in self.teams for p in team.members]


@dataclass(frozen=True, slots=True)
class PredictedRanking:
    """A predicted leaderboard: ``order[0]`` is the predicted winner.

    ``tie_groups`` records which teams had exactly equal scores before the
    seeded tie-break shuffled them; ``seed_used`` reproduces the shuffle.
    """

    order: tuple[str, ...]
    tie_groups: tuple[tuple[str, ...], ...]
    seed_used: int

    def rank_of(self, team_id: str) -> int:
        """Predicted rank of a team, 1 = predicted winner."""
        return self.order.index(team_id) + 1

    @property
    def ranks(self) -> dict[str, int]:
        return {tid: i + 1 for i, tid in enumerate(self.order)}


def normalized_result(observed_rank: int, team_count: int) -> float:
    """Map an observed placement onto the pooled pairwise scale.

    R' = (N - rank) / C(N, 2).  Rank 1 of N scores (N-1)/C(N,2), the last
    team scores 0, and the values over one match sum to exactly 1.
    """
    if team_count < 2:
        raise DomainError(f"team_count must be >= 2, got {team_count}")
    if not 1 <= observed_rank <= team_count:
        raise DomainError(
            f"observed_rank {observed_rank} outside 1..{team_count}"
        )
    return (team_count - observed_rank) / math.comb(team_count, 2)


def rank_teams_by_score(
    scores: list[tuple[str, float]], rng_seed: int
) -> PredictedRanking:
    """Turn per-team scores into a predicted ranking, higher score = better rank.

    Teams with exactly equal scores are ordered by a uniform shuffle drawn
    from ``random.Random(rng_seed)``, so the result is deterministic for a
    given (scores, seed) pair.  Tie groups of size >= 2 are recorded on the
    returned ranking.
    """
    if not scores:
        raise DomainError("scores must be non-empty")
    ids = [tid for tid, _ in scores]
    if len(set(ids)) != len(ids):
        raise DomainError("duplicate team_id in scores")
    for tid, value in scores:
        if not math.isfinite(value):
            raise DataError(f"team {tid!r} has non-finite score {value!r}")

    groups: dict[float, list[str]] = {}
    for tid, value in scores:
        groups.setdefault(value, []).append(tid)

    rng = random.Random(rng_seed)
    order: list[str] = []
    tie_groups: list[tuple[str, ...]] = []
    for value in sorted(groups, reverse=True):
        members = groups[value]
        if len(members) > 1:
            tie_groups.append(tuple(sorted(members)))
            rng.shuffle(members)
        order.extend(members)
    return PredictedRanking(
        order=tuple(order), tie_groups=tuple(tie_groups), seed_used=rng_seed
    )
