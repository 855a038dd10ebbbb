"""Common machinery for replaying one match through a rating system.

A rating system owns a ``PlayerRating`` default, a per-team prediction
score, and a belief update.  ``update_match`` glues them together in the
order the replay harness relies on: predict strictly from pre-match
state, then update.

State is an explicit ``dict[player_id, PlayerRating]`` owned by the
caller, and ``update_match`` is the only code that writes it.  After the
prediction it reads every member's pre-match rating once, and it writes
every member once: a new ``PlayerRating`` carrying the posterior belief,
``games_played + 1`` and the team's placement as ``last_observed_rank``.

Each system's ``_apply(rosters, match)`` is a pure function.
``rosters[i]`` holds the pre-match ratings of ``match.teams[i].members``
in roster order; the result has the same shape and holds each member's
posterior ``(mu, sigma)``.  Every new rating is built before the first
one is stored, so an update that raises (a certain Glicko outcome, a
posterior that is not a valid rating) leaves state exactly as it was.
An ``ArithmeticError`` from ``_apply`` (overflow or division by zero at
extreme finite parameters) becomes a ``RatingsError`` naming the match.

Elo, Glicko and TrueSkill with ``member_share="mu"`` split a team's mu
delta by ``member_weights``: each member takes the share mu_j / sum(mu),
so the shares sum to 1.  When any member's mu is <= 0 every member takes
the same share 1/n instead, because a proportional share is negative for
a negative member and would move that member against the match result.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from typing import Any, Sequence

from .core import (
    MatchRecord,
    MissingStateError,
    PlayerRating,
    PredictedRanking,
    RatingsError,
    rank_teams_by_score,
)

__all__ = [
    "RatingSystem",
    "RatingState",
    "Posterior",
    "make_system",
    "member_weights",
    "SYSTEM_NAMES",
]

log = logging.getLogger(__name__)

RatingState = dict[str, PlayerRating]

# one member's post-match (mu, sigma); sigma stays None for systems without one
Posterior = tuple[float, float | None]

SYSTEM_NAMES = ("elo", "glicko", "trueskill", "prevrank")


def member_weights(member_mus: Sequence[float], team_id: str) -> list[float]:
    """Each member's share of a team delta: mu_j / sum(mu), or uniform
    1/n when any member's mu is <= 0 (logged as a warning)."""
    lowest = min(member_mus)
    if lowest <= 0:
        log.warning(
            "team %s has a member rated %.6g, using uniform member weights",
            team_id,
            lowest,
        )
        return [1.0 / len(member_mus)] * len(member_mus)
    total = float(sum(member_mus))
    return [m / total for m in member_mus]


class RatingSystem(ABC):
    """Interface every rating system implements."""

    name: str = ""

    @abstractmethod
    def initial_rating(self) -> PlayerRating:
        """Belief assigned to a player never seen before."""

    def team_score(
        self, state: RatingState, members: tuple[str, ...], team_count: int
    ) -> float:
        """Pre-match strength score for one roster; higher predicts better.

        The default is the sum of the members' mu.
        """
        return float(sum(state[p].mu for p in members))

    @abstractmethod
    def _apply(
        self, rosters: list[list[PlayerRating]], match: MatchRecord
    ) -> list[list[Posterior]]:
        """Posterior (mu, sigma) of every member, from pre-match ratings
        aligned with ``match.teams``; reads and writes no state."""

    @abstractmethod
    def params_dict(self) -> dict[str, Any]:
        """The system's full parameterization, for run summaries and snapshots."""

    def predict(
        self, state: RatingState, match: MatchRecord, rng_seed: int
    ) -> PredictedRanking:
        """Rank the match's teams from pre-match state only."""
        self._require_states(state, match)
        scores = [
            (t.team_id, self.team_score(state, t.members, match.team_count))
            for t in match.teams
        ]
        return rank_teams_by_score(scores, rng_seed)

    def update_match(
        self, state: RatingState, match: MatchRecord, rng_seed: int
    ) -> PredictedRanking:
        """Predict, then update beliefs from the observed placements.

        Returns the prediction made before any rating changed.  Every
        participant's games_played is incremented and last_observed_rank
        set to their team's placement.  If the update raises, ``state``
        is unchanged.
        """
        ranking = self.predict(state, match, rng_seed)
        rosters = [[state[p] for p in team.members] for team in match.teams]
        try:
            posteriors = self._apply(rosters, match)
        except ArithmeticError as exc:
            raise RatingsError(
                f"match {match.match_id!r}: {self.name} update failed ({exc})"
            ) from exc
        updated = {
            player: PlayerRating(mu, sigma, old.games_played + 1, team.observed_rank)
            for team, roster, beliefs in zip(match.teams, rosters, posteriors)
            for player, old, (mu, sigma) in zip(team.members, roster, beliefs)
        }
        state.update(updated)
        return ranking

    def _require_states(self, state: RatingState, match: MatchRecord) -> None:
        missing = [p for p in match.players() if p not in state]
        if missing:
            raise MissingStateError(
                f"match {match.match_id!r}: no rating entry for "
                f"{len(missing)} player(s), first {missing[0]!r}"
            )


def make_system(name: str, **overrides: Any) -> RatingSystem:
    """Build a rating system by name with keyword parameter overrides."""
    from . import elo, glicko, prevrank, trueskill

    if name == "elo":
        return elo.EloSystem(elo.EloParams(**overrides))
    if name == "glicko":
        return glicko.GlickoSystem(glicko.GlickoParams(**overrides))
    if name == "trueskill":
        return trueskill.TrueSkillSystem(trueskill.TrueSkillParams(**overrides))
    if name == "prevrank":
        if overrides:
            raise ValueError("prevrank takes no parameters")
        return prevrank.PreviousRankSystem()
    raise ValueError(f"unknown rating system {name!r}, expected one of {SYSTEM_NAMES}")
