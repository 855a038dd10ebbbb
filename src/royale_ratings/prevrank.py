"""Previous-placement baseline.

Every player remembers only their team's placement from their most
recent match; a player with no history counts as the mid-field
placement N/2 for an N-team match.  A team's score is the sum of those
remembered placements and the team with the lowest sum is predicted to
win.  No skill is inferred, which makes this the floor any real rating
system is expected to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, PlayerRating
from .systems import MatchBlock, Posterior, RatingState, RatingSystem, row_sums

__all__ = ["PreviousRankParams", "PreviousRankSystem", "player_prev_rank"]


@dataclass(frozen=True, slots=True)
class PreviousRankParams:
    """The baseline has no parameters."""


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
    Params = PreviousRankParams

    def _new_player(self) -> PlayerRating:
        # mu is unused by this baseline; kept at 0 so stores stay uniform
        return PlayerRating(mu=0.0)

    def team_scores(self, block: MatchBlock) -> np.ndarray:
        # player_prev_rank of every member; the lowest sum should rank
        # first, so negate
        newcomer = len(block.ranks) / 2.0
        carried = np.where(block.last_rank > 0, block.last_rank, newcomer)
        return -row_sums(np.where(block.mask, carried, 0.0))

    def _apply(self, block: MatchBlock) -> Posterior:
        # beliefs never change: the placement this baseline predicts from is
        # the last_observed_rank that update_match stores for every member
        return block.mu, None
