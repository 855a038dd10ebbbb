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
``systems.member_shares`` (share of the team mu, or evenly when any
member is rated <= 0); the sigma delta in proportion to each member's
share of the team sigma, so a member's sigma scales by sigma_t'/sigma_t
and stays positive.

The update is array code over the match's ``MatchBlock``, all teams at
once.  Each team's opponent RMS sums the other teams' squared deviations
in index order: a cumulative sum over the squares with the team's own
entry zeroed, which rounds like the scalar loop (total minus own would
not).  The squares themselves stay Python ``**``.

When E rounds to exactly 0 or 1 the information term q^2 g^2 E (1 - E)
is 0 and d^2 is undefined: the update raises a RatingsError naming the
first such team instead of dividing by zero, after logging the warnings
of the teams before it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np
from scipy.special import expit

from .core import DomainError, PlayerRating, RatingsError
from .systems import (
    MatchBlock,
    Posterior,
    RatingSystem,
    member_shares,
    normalized_results,
    require_finite_variances,
    row_sums,
    squares,
    warn_uniform_weights,
)

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
        if not (math.isfinite(self.default_sigma) and self.default_sigma > 0):
            raise DomainError(
                f"default_sigma must be finite and > 0, got {self.default_sigma}"
            )
        if not (math.isfinite(self.q_constant) and self.q_constant > 0):
            raise DomainError(
                f"q_constant must be finite and > 0, got {self.q_constant}"
            )


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
        self._initial = PlayerRating(
            mu=self.params.default_mu, sigma=self.params.default_sigma
        )

    def params_dict(self) -> dict[str, Any]:
        return asdict(self.params)

    def initial_rating(self) -> PlayerRating:
        return self._initial

    def _apply(self, block: MatchBlock) -> Posterior:
        q = self.params.q_constant
        team_ids = block.match.team_ids
        n = len(team_ids)
        team_mu = row_sums(block.mu)
        # a sum past the largest double is named below, with the squares
        with np.errstate(over="ignore"):
            team_sigma = row_sums(block.sigma)
        # Python's ** rounds some squares differently from numpy's x*x
        team_squares = squares(team_sigma.tolist())
        require_finite_variances(team_ids, team_squares)
        team_squares = np.array(team_squares)
        pooled = win_probabilities(team_mu, team_sigma, self.params)
        residual = normalized_results(block) - pooled
        # row i holds the other teams' squares in index order, 0 at i
        others = np.tile(team_squares, (n, 1))
        np.fill_diagonal(others, 0.0)
        opp_rms = np.sqrt(row_sums(others) / (n - 1))
        # g_weight(opp_rms, q) of every team
        g_opp = 1.0 / np.sqrt(1.0 + 3.0 * q * q * opp_rms * opp_rms / math.pi**2)
        information = q * q * g_opp * g_opp * pooled * (1.0 - pooled)
        certain = np.flatnonzero(~(information > 0))
        # the teams before the first certain outcome, whose warnings are logged
        stop = int(certain[0]) if certain.size else n
        precision = 1.0 / team_squares[:stop] + 1.0 / (1.0 / information[:stop])
        sigma_t_new = np.sqrt(1.0 / precision)
        shares, lowest = member_shares(block, team_mu)
        collapsed = sigma_t_new < 1.0
        uniform = lowest[:stop] <= 0
        for i in np.flatnonzero(collapsed | uniform).tolist():
            if collapsed[i]:
                log.warning(
                    "match %s: team %s sigma collapsed to %.4g",
                    block.match.match_id,
                    team_ids[i],
                    float(sigma_t_new[i]),
                )
            if uniform[i]:
                warn_uniform_weights(team_ids[i], float(lowest[i]))
        if stop < n:
            raise RatingsError(
                f"match {block.match.match_id!r}: team {team_ids[stop]!r} has a "
                f"certain outcome (E = {float(pooled[stop])!r}), so d^2 is undefined"
            )
        delta_mu_team = (q / precision) * g_opp * residual
        delta_sigma_team = sigma_t_new - team_sigma
        sigma_shares = block.sigma / team_sigma[:, None]
        return (
            block.mu + shares * delta_mu_team[:, None],
            block.sigma + sigma_shares * delta_sigma_team[:, None],
        )
