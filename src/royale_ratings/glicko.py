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

``win_probabilities`` and the update check the team beliefs, each its
own way, then share one kernel, ``_pooled``, whose n x n steps run in
place on one buffer, the same float operations in the same order as the
expression they replace: the pairwise logits, then
``systems.pooled_logistic``, the step Elo's kernel ends in too, which
takes the logistic, zeroes the self-pairs and pools each row.  The
update first sums the opponents' squares in that buffer, row i holding
the squares with its own entry zeroed, and keeps the last column before
the kernel takes the buffer over.

Squared deviations that are each finite can still overflow when they
are added: a pair of team squares in the kernel, or a team's opponents'
squares in its RMS.  The update then raises a DomainError naming the
first such pair of teams, or the team, before any warning is logged.

When E rounds to exactly 0 or 1 the information term q^2 g^2 E (1 - E)
is 0 and d^2 is undefined: the update raises a RatingsError naming the
first such team instead of dividing by zero, after logging the warnings
of the teams before it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import DomainError, PlayerRating, RatingsError
from .systems import (
    MatchBlock,
    Posterior,
    RatingSystem,
    check_fields,
    left_sum,
    member_shares,
    normalized_results,
    pooled_logistic,
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
        check_fields(self, default_mu="finite", default_sigma="> 0", q_constant="> 0")


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
    return float(left_sum(member_mus)), float(left_sum(member_sigmas))


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
    _require_beliefs(mu, sg)
    return _pooled(mu, sg, params.q_constant, np.empty((n, n)))


def _require_beliefs(mu: np.ndarray, sigma: np.ndarray) -> None:
    if not (np.isfinite(mu) & (sigma > 0) & (sigma < math.inf)).all():
        raise DomainError("team beliefs must be finite with positive sigma")


def _pooled(mu: np.ndarray, sigma: np.ndarray, q: float, out: np.ndarray) -> np.ndarray:
    """``win_probabilities`` of finite team beliefs with positive sigma, at
    least two teams, computed in ``out``, an n x n buffer."""
    square = sigma**2
    # g of the combined deviation sqrt(sigma_i^2 + sigma_j^2), squared
    # again, then E_ij = 1/(1+10^(-g (mu_i - mu_j)/400)) written through
    # the stable logistic
    np.add.outer(square, square, out=out)
    np.sqrt(out, out=out)
    np.square(out, out=out)
    out *= 3.0 * q * q
    out /= math.pi**2
    out += 1.0
    np.sqrt(out, out=out)
    np.divide(1.0, out, out=out)
    out *= _LN10
    out *= np.subtract.outer(mu, mu)
    out /= 400.0
    return pooled_logistic(out)


def _require_finite_pair_sums(team_ids: Sequence[str], team_squares: list[float]) -> None:
    """Raise a DomainError naming the first pair of teams, in index order,
    whose squared deviations, each finite, sum past the largest double:
    the pairwise kernel pools every pair's deviations."""
    # no pair sums past twice the largest square
    if 2.0 * max(team_squares) < math.inf:
        return
    for i, j in combinations(range(len(team_squares)), 2):
        if team_squares[i] + team_squares[j] == math.inf:
            raise DomainError(
                f"teams {team_ids[i]!r} and {team_ids[j]!r} deviations "
                "overflow when combined"
            )


class GlickoSystem(RatingSystem):
    name = "glicko"
    Params = GlickoParams

    def _new_player(self) -> PlayerRating:
        return PlayerRating(mu=self.params.default_mu, sigma=self.params.default_sigma)

    def _apply(self, block: MatchBlock) -> Posterior:
        q = self.params.q_constant
        team_ids = block.match.team_ids
        n = len(team_ids)
        team_mu = row_sums(block.mu)
        buffer = np.empty((n, n))
        # sums past the largest double are named below, with the squares
        with np.errstate(over="ignore"):
            team_sigma = row_sums(block.sigma)
            # Python's ** rounds some squares differently from numpy's x*x
            team_squares = squares(team_sigma.tolist())
            # row i holds the other teams' squares in index order, 0 at i
            buffer[:] = team_squares
            buffer.flat[:: n + 1] = 0.0
            buffer.cumsum(axis=1, out=buffer)
        opponent_squares = buffer[:, -1].copy()
        require_finite_variances(team_ids, team_squares)
        _require_finite_pair_sums(team_ids, team_squares)
        _require_beliefs(team_mu, team_sigma)
        pooled = _pooled(team_mu, team_sigma, q, buffer)
        residual = normalized_results(block) - pooled
        if math.inf in opponent_squares:
            team_id = team_ids[int(opponent_squares.argmax())]
            raise DomainError(
                f"team {team_id!r} opponents' deviations overflow when combined"
            )
        opp_rms = np.sqrt(opponent_squares / (n - 1))
        # g_weight(opp_rms, q) of every team
        g_opp = 1.0 / np.sqrt(1.0 + 3.0 * q * q * opp_rms * opp_rms / math.pi**2)
        information = q * q * g_opp * g_opp * pooled * (1.0 - pooled)
        certain = (~(information > 0)).nonzero()[0]
        # the teams before the first certain outcome, whose warnings are logged
        stop = int(certain[0]) if certain.size else n
        variances = np.array(team_squares[:stop])
        precision = 1.0 / variances + 1.0 / (1.0 / information[:stop])
        sigma_t_new = np.sqrt(1.0 / precision)
        shares, lowest = member_shares(block, team_mu)
        collapsed = sigma_t_new < 1.0
        uniform = lowest[:stop] <= 0
        for i in (collapsed | uniform).nonzero()[0].tolist():
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
