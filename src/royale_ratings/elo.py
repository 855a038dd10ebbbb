"""Elo extended to N-team matches.

A team is rated by the sum of its members' ratings.  The chance that
team i beats team j is the logistic of the rating gap on the d_scale,

    p_ij = 1 / (1 + exp((mu_tj - mu_ti) / d_scale))

and the pooled probability that team i "wins the match" divides the sum
of its pairwise wins by the number of pairs C(N, 2).  The observed
placement is normalized onto the same scale, so one K-scaled surprise
term updates the whole team and members absorb it by the shared rule
``systems.member_shares``: in proportion to their share of the team
rating, or evenly when any member is rated <= 0.  The update is array
code over the match's ``MatchBlock``, all teams at once.

Note the kernel is base e, not the classical base-10 curve; with
d_scale = 400 the two differ by a factor ln(10)/1 in the exponent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np
from scipy.special import expit

from .core import DomainError, PlayerRating
from .systems import (
    MatchBlock,
    Posterior,
    RatingSystem,
    member_shares,
    normalized_results,
    row_sums,
    warn_uniform_weights,
)

__all__ = ["EloParams", "EloSystem", "win_probabilities"]


@dataclass(frozen=True, slots=True)
class EloParams:
    k_factor: float = 10.0
    d_scale: float = 400.0
    default_rating: float = 1500.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k_factor) and self.k_factor > 0):
            raise DomainError(f"k_factor must be finite and > 0, got {self.k_factor}")
        if not (math.isfinite(self.d_scale) and self.d_scale > 0):
            raise DomainError(f"d_scale must be finite and > 0, got {self.d_scale}")
        if not math.isfinite(self.default_rating):
            raise DomainError("default_rating must be finite")


def win_probabilities(team_ratings: Sequence[float], params: EloParams) -> np.ndarray:
    """Pooled win probability for every team at once.

    Pr(i) = sum_{j != i} p_ij / C(N, 2); the vector sums to 1 because each
    pair contributes p_ij + p_ji = 1.
    """
    n = len(team_ratings)
    if n < 2:
        raise DomainError(f"need >= 2 teams, got {n}")
    r = np.asarray(team_ratings, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise DomainError("team ratings must be finite")
    # pairwise[i, j] = p(i beats j); zero the self-pairs before pooling so
    # a vanishing off-diagonal term is not cancelled away by the 1/2
    pairwise = expit((r[:, None] - r[None, :]) / params.d_scale)
    np.fill_diagonal(pairwise, 0.0)
    pooled = pairwise.sum(axis=1) / math.comb(n, 2)
    return pooled


class EloSystem(RatingSystem):
    name = "elo"

    def __init__(self, params: EloParams | None = None) -> None:
        self.params = params or EloParams()
        self._initial = PlayerRating(mu=self.params.default_rating, sigma=None)

    def params_dict(self) -> dict[str, Any]:
        return asdict(self.params)

    def initial_rating(self) -> PlayerRating:
        return self._initial

    def _apply(self, block: MatchBlock) -> Posterior:
        team_mu = row_sums(block.mu)
        pooled = win_probabilities(team_mu, self.params)
        surprise = normalized_results(block) - pooled
        delta_team = self.params.k_factor * surprise
        shares, lowest = member_shares(block, team_mu)
        for i in np.flatnonzero(lowest <= 0).tolist():
            warn_uniform_weights(block.match.team_ids[i], float(lowest[i]))
        return block.mu + shares * delta_team[:, None], None
