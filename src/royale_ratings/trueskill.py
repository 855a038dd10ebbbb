"""Gaussian skill beliefs with rank-ordered pairwise updates for
N-team matches.

Conventions
-----------
Each player carries a Gaussian belief N(mu, sigma^2).  A team's belief
sums member means and member variances.  For a decided pair (winner i,
loser j) the update is the classic two-player non-draw form

    t = mu_i - mu_j          (winner minus loser)
    c = sqrt(2 beta^2 + sigma_i^2 + sigma_j^2)
    mu_i'    = mu_i + (sigma_i^2 / c) v(t/c)
    mu_j'    = mu_j - (sigma_j^2 / c) v(t/c)
    sigma'   = sigma (1 - (sigma^2 / c^2) w(t/c))        for both sides

where v(x) = pdf(x)/cdf(x) for the standard normal and
w(x) = v(x) (v(x) + x).  Note the sigma update is applied to sigma
itself, not to the variance; the canonical variance form would shrink
slower.  Draws are not modelled: placements are strict.

A match of N ranked teams is processed as a chain of these pairwise
updates over adjacent observed ranks (1 vs 2, 2 vs 3, ...), each pair
reading the beliefs already updated by the previous pair.  The chain
is sequential, so it runs on per-member (mu, sigma) lists taken from
the match's ``MatchBlock``: a team in the middle of the order is updated
twice but the rating state is written once, after the whole chain.
After each pair update the team's mu delta is split across its members
in proportion to member variance, or with
``member_share="mu"`` by the shared rule ``systems.member_weights``
(share of the team mu, or evenly when any member is rated <= 0); every
member's sigma scales by the team's shrink factor sigma_t'/sigma_t, so
the team aggregate follows the pair update.  With two single-player
teams the chain is exactly one pair update.

The default dynamics noise tau = 0.833 is deliberately large, ten times
the usual sigma0/100 choice for mu0 = 25; it is kept as a parameter so
slower-moving beliefs are one flag away.  tau^2 is added to every
participant's variance at the start of each of their matches.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Any

from scipy.special import log_ndtr

from .core import DomainError, PlayerRating
from .systems import MatchBlock, Posterior, RatingSystem, member_weights

__all__ = [
    "TrueSkillParams",
    "TrueSkillSystem",
    "v_exceeds",
    "w_exceeds",
    "update_pair",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# smallest positive normal double; keeps v > 0 when pdf(x) underflows (x ~ 40)
_TINY = sys.float_info.min

_MEMBER_SHARES = ("sigma_sq", "mu")


@dataclass(frozen=True, slots=True)
class TrueSkillParams:
    default_mu: float = 25.0
    default_sigma: float = 25.0 / 3.0
    beta: float = 4.16
    tau_dynamics: float = 0.833
    member_share: str = "sigma_sq"

    def __post_init__(self) -> None:
        if not math.isfinite(self.default_mu):
            raise DomainError("default_mu must be finite")
        if not (math.isfinite(self.default_sigma) and self.default_sigma > 0):
            raise DomainError(
                f"default_sigma must be finite and > 0, got {self.default_sigma}"
            )
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise DomainError(f"beta must be finite and > 0, got {self.beta}")
        if not (math.isfinite(self.tau_dynamics) and self.tau_dynamics >= 0):
            raise DomainError(
                f"tau_dynamics must be finite and >= 0, got {self.tau_dynamics}"
            )
        if self.member_share not in _MEMBER_SHARES:
            raise DomainError(
                f"member_share must be one of {_MEMBER_SHARES}, got {self.member_share!r}"
            )


def v_exceeds(x: float) -> float:
    """Mean additional performance the winner showed, v(x) = pdf(x)/cdf(x).

    Evaluated in log space so the deep losing tail stays finite:
    v(-10) ~ 10.098 rather than 0/0.  For large positive x the true value
    drops below the double-precision floor and is clamped to the smallest
    positive normal float, keeping v > 0 on |x| <= 40.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    value = math.exp(-0.5 * x * x - _LOG_SQRT_2PI - float(log_ndtr(x)))
    return max(value, _TINY)


def w_exceeds(x: float) -> float:
    """Variance shrink fraction w(x) = v(x) (v(x) + x), in (0, 1)."""
    return _w_from_v(v_exceeds(x), x)


def _w_from_v(v: float, x: float) -> float:
    return max(v * (v + x), _TINY)


def update_pair(
    winner: tuple[float, float],
    loser: tuple[float, float],
    params: TrueSkillParams,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """One decided two-sided update on (mu, sigma) beliefs.

    The beliefs may be single players or whole-team aggregates
    (mu = sum of member mus, sigma = sqrt of summed member variances).
    Dynamics noise is not added here; callers inflate variances first.
    Returns the posterior (mu, sigma) pairs, winner first.
    """
    mu_w, sigma_w = winner
    mu_l, sigma_l = loser
    if not sigma_w > 0 or not sigma_l > 0:
        raise DomainError("sigmas must be positive")
    c_sq = 2.0 * params.beta**2 + sigma_w**2 + sigma_l**2
    c = math.sqrt(c_sq)
    x = (mu_w - mu_l) / c
    v = v_exceeds(x)
    w = _w_from_v(v, x)
    new_mu_w = mu_w + (sigma_w**2 / c) * v
    new_mu_l = mu_l - (sigma_l**2 / c) * v
    new_sigma_w = sigma_w * (1.0 - (sigma_w**2 / c_sq) * w)
    new_sigma_l = sigma_l * (1.0 - (sigma_l**2 / c_sq) * w)
    return (new_mu_w, new_sigma_w), (new_mu_l, new_sigma_l)


class TrueSkillSystem(RatingSystem):
    name = "trueskill"

    def __init__(self, params: TrueSkillParams | None = None) -> None:
        self.params = params or TrueSkillParams()

    def params_dict(self) -> dict[str, Any]:
        return asdict(self.params)

    def initial_rating(self) -> PlayerRating:
        return PlayerRating(mu=self.params.default_mu, sigma=self.params.default_sigma)

    def _apply(self, block: MatchBlock) -> Posterior:
        teams = block.match.teams
        sizes = block.sizes.tolist()
        mus = [row[:size] for row, size in zip(block.mu.tolist(), sizes)]
        sigmas = [row[:size] for row, size in zip(block.sigma.tolist(), sizes)]
        tau_sq = self.params.tau_dynamics**2
        if tau_sq > 0:
            sigmas = [[math.sqrt(s**2 + tau_sq) for s in row] for row in sigmas]

        by_rank = sorted(range(len(teams)), key=lambda i: teams[i].observed_rank)
        for pair in zip(by_rank, by_rank[1:]):
            team_mu = [float(sum(mus[i])) for i in pair]
            team_var = [float(sum(s**2 for s in sigmas[i])) for i in pair]
            team_sigma = [math.sqrt(var) for var in team_var]
            posts = update_pair(*zip(team_mu, team_sigma), self.params)
            for i, mu_t, var_t, sigma_t, (new_mu, new_sigma) in zip(
                pair, team_mu, team_var, team_sigma, posts
            ):
                delta_mu = new_mu - mu_t
                shrink = new_sigma / sigma_t
                if self.params.member_share == "mu":
                    shares = member_weights(mus[i], teams[i].team_id)
                else:
                    shares = [s**2 / var_t for s in sigmas[i]]
                mus[i] = [m + share * delta_mu for m, share in zip(mus[i], shares)]
                sigmas[i] = [s * shrink for s in sigmas[i]]
        return block.pad(mus), block.pad(sigmas)
