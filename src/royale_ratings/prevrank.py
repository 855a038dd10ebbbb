"""Previous-placement baseline.

Every player remembers only their team's placement from their most
recent match; a player with no history counts as the mid-field
placement N/2 for an N-team match.  A team's score is the sum of those
remembered placements and the team with the lowest sum is predicted to
win.  No skill is inferred, which makes this the floor any real rating
system is expected to beat.
"""

from __future__ import annotations

from typing import Any

from .core import DomainError, MatchRecord, PlayerRating
from .systems import Posterior, RatingState, RatingSystem

__all__ = ["PreviousRankSystem", "player_prev_rank"]


def player_prev_rank(state: RatingState, player_id: str, team_count: int) -> float:
    """The placement this player carries into an N-team match.

    Stored last placement if the player has one, else N/2 (real-valued,
    e.g. 25.0 in a 50-team match).
    """
    if team_count < 2:
        raise DomainError(f"team_count must be >= 2, got {team_count}")
    rating = state.get(player_id)
    if rating is None or rating.last_observed_rank is None:
        return team_count / 2.0
    return float(rating.last_observed_rank)


class PreviousRankSystem(RatingSystem):
    name = "prevrank"

    def params_dict(self) -> dict[str, Any]:
        return {}

    def initial_rating(self) -> PlayerRating:
        # mu is unused by this baseline; kept at 0 so stores stay uniform
        return PlayerRating(mu=0.0, sigma=None)

    def team_score(
        self, state: RatingState, members: tuple[str, ...], team_count: int
    ) -> float:
        # lowest previous-placement sum should rank first, so negate
        return -sum(player_prev_rank(state, p, team_count) for p in members)

    def _apply(
        self, rosters: list[list[PlayerRating]], match: MatchRecord
    ) -> list[list[Posterior]]:
        # beliefs never change: the placement this baseline predicts from is
        # the last_observed_rank that update_match stores for every member
        return [[(r.mu, r.sigma) for r in roster] for roster in rosters]
