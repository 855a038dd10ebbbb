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

``win_probabilities`` and the update share one checked kernel,
``_pooled``, run under the same ``np.errstate``: it rejects a team
rating that is not finite, writes the pairwise logits
(mu_ti - mu_tj) / d_scale into one n x n buffer and hands it to
``systems.pooled_logistic``, the step Glicko's kernel ends in too, which
takes the logistic, zeroes the self-pairs and pools each row in place,
so no step allocates a matrix of its own.  A gap or a logit past the
largest double (ratings near it, or a tiny d_scale) raises a
DomainError naming d_scale.

Note the kernel is base e, not the classical base-10 curve; with
d_scale = 400 the two differ by a factor ln(10)/1 in the exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, PlayerRating
from .systems import (
    MatchBlock,
    Posterior,
    RatingSystem,
    check_fields,
    member_shares,
    normalized_results,
    pooled_logistic,
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
        check_fields(self, k_factor="> 0", d_scale="> 0", default_rating="finite")


def win_probabilities(team_ratings: Sequence[float], params: EloParams) -> np.ndarray:
    """Pooled win probability for every team at once.

    Pr(i) = sum_{j != i} p_ij / C(N, 2); the vector sums to 1 because each
    pair contributes p_ij + p_ji = 1.
    """
    n = len(team_ratings)
    if n < 2:
        raise DomainError(f"need >= 2 teams, got {n}")
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return _pooled(np.asarray(team_ratings, dtype=np.float64), params.d_scale)


def _pooled(r: np.ndarray, d_scale: float) -> np.ndarray:
    """``win_probabilities`` of team ratings, at least two, under an
    ``np.errstate`` that raises on overflow."""
    if not np.isfinite(r).all():
        raise DomainError("team ratings must be finite")
    try:
        # the logit of p(i beats j) at [i, j]
        pairwise = np.subtract.outer(r, r)
        pairwise /= d_scale
    except FloatingPointError:
        raise DomainError("team rating gap / d_scale overflows") from None
    return pooled_logistic(pairwise)


class EloSystem(RatingSystem):
    name = "elo"
    Params = EloParams

    def _new_player(self) -> PlayerRating:
        return PlayerRating(mu=self.params.default_rating)

    def _apply(self, block: MatchBlock) -> Posterior:
        team_mu = row_sums(block.mu)
        pooled = _pooled(team_mu, self.params.d_scale)
        surprise = normalized_results(block) - pooled
        delta_team = self.params.k_factor * surprise
        shares, lowest = member_shares(block, team_mu)
        for i in (lowest <= 0).nonzero()[0].tolist():
            warn_uniform_weights(block.match.team_ids[i], float(lowest[i]))
        return block.mu + shares * delta_team[:, None], None
