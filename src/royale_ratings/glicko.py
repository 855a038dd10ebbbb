"""Glicko extended to N-team matches.

Team beliefs are component-wise sums of member beliefs: mu_t = sum mu_j,
sigma_t = sum sigma_j.  The pairwise win kernel is the Glicko expectation
with both teams' deviations pooled inside g,

    E_ij = 1 / (1 + 10^(-g(sqrt(sigma_ti^2 + sigma_tj^2)) (mu_ti - mu_tj) / 400))

and the match-level win probability divides the sum over opponents by
C(N, 2), exactly like the Elo pooling.  The update treats the field of
opponents as one aggregate opponent whose deviation is the RMS of the
opposing team deviations:

    mu_t'    = mu_t + q / (1/sigma_t^2 + 1/d^2) * g(sigma_opp) * (R' - Pr)
    sigma_t' = sqrt(1 / (1/sigma_t^2 + 1/d^2))
    d^2      = [q^2 g(sigma_opp)^2 E (1 - E)]^-1,  E = Pr

with q = ln(10)/400.  Team deltas flow to members separately for mu and
for sigma.  The mu delta is split by the shared rule
``systems.member_weights`` (share of the team mu, or evenly when any
member is rated <= 0); the sigma delta in proportion to each member's
share of the team sigma, so a member's sigma scales by sigma_t'/sigma_t
and stays positive.

When E rounds to exactly 0 or 1 the information term q^2 g^2 E (1 - E)
is 0 and d^2 is undefined: the update raises a RatingsError naming the
match instead of dividing by zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np
from scipy.special import expit

from .core import DomainError, MatchRecord, PlayerRating, RatingsError, normalized_result
from .systems import Posterior, RatingSystem, member_weights

__all__ = [
    "GlickoParams",
    "GlickoSystem",
    "team_mu_sigma",
    "g_weight",
    "win_probabilities",
]

log = logging.getLogger(__name__)

_LN10 = math.log(10.0)


@dataclass(frozen=True, slots=True)
class GlickoParams:
    default_mu: float = 1500.0
    default_sigma: float = 350.0
    q_constant: float = _LN10 / 400.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.default_mu):
            raise DomainError("default_mu must be finite")
        if not self.default_sigma > 0:
            raise DomainError(f"default_sigma must be > 0, got {self.default_sigma}")
        if not self.q_constant > 0:
            raise DomainError(f"q_constant must be > 0, got {self.q_constant}")


def team_mu_sigma(
    member_mus: Sequence[float], member_sigmas: Sequence[float]
) -> tuple[float, float]:
    """Team belief = component-wise sums of the member beliefs."""
    if len(member_mus) != len(member_sigmas):
        raise DomainError("mu and sigma lists differ in length")
    if len(member_mus) == 0:
        raise DomainError("team has no members")
    if any(not s > 0 for s in member_sigmas):
        raise DomainError("member sigmas must be positive")
    return float(sum(member_mus)), float(sum(member_sigmas))


def g_weight(sigma: float, q: float = _LN10 / 400.0) -> float:
    """Deviation attenuation g(sigma) = 1 / sqrt(1 + 3 q^2 sigma^2 / pi^2).

    g(0) = 1 and g decreases monotonically toward 0 as sigma grows.
    """
    if sigma < 0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    return 1.0 / math.sqrt(1.0 + 3.0 * q * q * sigma * sigma / math.pi**2)


def win_probabilities(
    team_mus: Sequence[float], team_sigmas: Sequence[float], params: GlickoParams
) -> np.ndarray:
    """Pooled win probability for every team, deviations included.

    Each pair contributes E_ij + E_ji = 1, so the vector sums to 1.
    """
    n = len(team_mus)
    if n < 2:
        raise DomainError(f"need >= 2 teams, got {n}")
    if len(team_sigmas) != n:
        raise DomainError("mu and sigma lists differ in length")
    mu = np.asarray(team_mus, dtype=np.float64)
    sg = np.asarray(team_sigmas, dtype=np.float64)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sg)) and np.all(sg > 0)):
        raise DomainError("team beliefs must be finite with positive sigma")
    q = params.q_constant
    combined = np.sqrt(sg[:, None] ** 2 + sg[None, :] ** 2)
    g = 1.0 / np.sqrt(1.0 + 3.0 * q * q * combined**2 / math.pi**2)
    # E_ij = 1/(1+10^(-g (mu_i - mu_j)/400)) written through the stable logistic
    diff = mu[:, None] - mu[None, :]
    pairwise = expit(_LN10 * g * diff / 400.0)
    np.fill_diagonal(pairwise, 0.0)
    pooled = pairwise.sum(axis=1) / math.comb(n, 2)
    return pooled


class GlickoSystem(RatingSystem):
    name = "glicko"

    def __init__(self, params: GlickoParams | None = None) -> None:
        self.params = params or GlickoParams()

    def params_dict(self) -> dict[str, Any]:
        return asdict(self.params)

    def initial_rating(self) -> PlayerRating:
        return PlayerRating(mu=self.params.default_mu, sigma=self.params.default_sigma)

    def _apply(
        self, rosters: list[list[PlayerRating]], match: MatchRecord
    ) -> list[list[Posterior]]:
        q = self.params.q_constant
        n = match.team_count
        beliefs = [
            team_mu_sigma([r.mu for r in roster], [r.sigma for r in roster])
            for roster in rosters
        ]
        team_mus = [b[0] for b in beliefs]
        team_sigmas = [b[1] for b in beliefs]
        pooled = win_probabilities(team_mus, team_sigmas, self.params)
        squares = [s**2 for s in team_sigmas]

        posteriors = []
        for i, (team, roster) in enumerate(zip(match.teams, rosters)):
            mu_t, sigma_t = beliefs[i]
            expected = float(pooled[i])
            residual = normalized_result(team.observed_rank, n) - expected
            # the other teams in index order; total minus own rounds differently
            opp_rms = math.sqrt(sum(squares[:i] + squares[i + 1 :]) / (n - 1))
            g_opp = g_weight(opp_rms, q)
            information = q * q * g_opp * g_opp * expected * (1.0 - expected)
            if not information > 0:
                raise RatingsError(
                    f"match {match.match_id!r}: team {team.team_id!r} has a "
                    f"certain outcome (E = {expected!r}), so d^2 is undefined"
                )
            d_squared = 1.0 / information
            precision = 1.0 / sigma_t**2 + 1.0 / d_squared
            delta_mu_team = (q / precision) * g_opp * residual
            sigma_t_new = math.sqrt(1.0 / precision)
            if sigma_t_new < 1.0:
                log.warning(
                    "match %s: team %s sigma collapsed to %.4g",
                    match.match_id,
                    team.team_id,
                    sigma_t_new,
                )
            delta_sigma_team = sigma_t_new - sigma_t

            mu_weights = member_weights([r.mu for r in roster], team.team_id)
            posteriors.append(
                [
                    (
                        r.mu + w_mu * delta_mu_team,
                        r.sigma + (r.sigma / sigma_t) * delta_sigma_team,
                    )
                    for r, w_mu in zip(roster, mu_weights)
                ]
            )
        return posteriors
