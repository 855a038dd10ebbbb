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
reading the beliefs already updated by the previous pair.  After each
pair update the team's mu delta is split across its members in
proportion to member variance, or with ``member_share="mu"`` by the
shared rule ``systems.member_weights`` (share of the team mu, or evenly
when any member is rated <= 0); every member's sigma scales by the
team's shrink factor sigma_t'/sigma_t, so the team aggregate follows the
pair update.  With two single-player teams the chain is exactly one pair
update.

The chain runs on team aggregates: a team's (mu, sigma) sums are Python
scalars, taken from its members once each time it enters a pair.  A
team in the middle of the order is split twice.  Its split as a loser
is applied to its member lists at once, because its next pair, as the
winner, reads the sums of the updated members; every team's last split
is applied to the ``MatchBlock`` matrices in one array step after the
chain.  The member sums, squares and splits are the same float
operations, in the same order, as a per-pair member update, and
``member_weights`` is called (and warns) in chain order.

The default dynamics noise tau = 0.833 is deliberately large, ten times
the usual sigma0/100 choice for mu0 = 25; it is kept as a parameter so
slower-moving beliefs are one flag away.  tau^2 is added to every
participant's variance at the start of each of their matches.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from itertools import accumulate
from typing import Any

import numpy as np
from scipy.special import log_ndtr

from .core import DomainError, PlayerRating
from .systems import (
    MatchBlock,
    Posterior,
    RatingSystem,
    member_weights,
    require_finite_variances,
    squares,
)

__all__ = [
    "TrueSkillParams",
    "TrueSkillSystem",
    "v_exceeds",
    "w_exceeds",
    "update_pair",
    "MEMBER_SHARES",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# smallest positive normal double; keeps v > 0 when pdf(x) underflows (x ~ 40)
_TINY = sys.float_info.min
# below this x, v and w come from a continued fraction; no log reaches it
_DEEP_TAIL = -40.0
# at t = -x >= 40 the fraction's truncation error after this many levels
# is below 1e-25 relative
_TAIL_LEVELS = 12

MEMBER_SHARES = ("sigma_sq", "mu")


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
        if self.member_share not in MEMBER_SHARES:
            raise DomainError(
                f"member_share must be one of {MEMBER_SHARES}, got {self.member_share!r}"
            )


def v_exceeds(x: float) -> float:
    """Mean additional performance the winner showed, v(x) = pdf(x)/cdf(x).

    Evaluated in log space so the deep losing tail stays finite:
    v(-10) ~ 10.098 rather than 0/0.  For large positive x the true value
    drops below the double-precision floor and is clamped to the smallest
    positive normal float, keeping v > 0 on |x| <= 40.  Below x = -40
    it is the inverse Mills ratio's continued fraction (see ``_moments``).
    """
    return _moments(x)[0]


def w_exceeds(x: float) -> float:
    """Variance shrink fraction w(x) = v(x) (v(x) + x), in (0, 1)."""
    return _moments(x)[1]


def _moments(x: float) -> tuple[float, float, float]:
    """v(x), w(x) and 1 - w(x).

    Below ``_DEEP_TAIL`` the log-space v carries a relative error of
    about x^2 ulp, which v + x, near -1/x, magnifies until w passes 1
    (from about x = -395 on).  There, with t = -x, v = t + r where
    r = 1/(t + q), q = 2/(t + 3/(t + 4/(t + ...))), is the continued
    fraction of the inverse Mills ratio; w = v r and 1 - w = r (q - r)
    need no subtraction of near-equal values.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x < _DEEP_TAIL:
        t = -x
        inner = t
        for k in range(_TAIL_LEVELS, 2, -1):
            inner = t + k / inner
        q = 2.0 / inner
        r = 1.0 / (t + q)
        v = t + r
        return v, v * r, r * (q - r)
    v = max(math.exp(-0.5 * x * x - _LOG_SQRT_2PI - float(log_ndtr(x))), _TINY)
    w = max(v * (v + x), _TINY)
    return v, w, 1.0 - w


def update_pair(
    winner: tuple[float, float],
    loser: tuple[float, float],
    params: TrueSkillParams,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """One decided two-sided update on (mu, sigma) beliefs.

    The beliefs may be single players or whole-team aggregates
    (mu = sum of member mus, sigma = sqrt of summed member variances).
    Dynamics noise is not added here; callers inflate variances first.
    Returns the posterior (mu, sigma) pairs, winner first.  Below
    x = -40 the sigma factor 1 - (sigma^2/c^2) w is formed without its
    subtraction, so it stays positive where w rounds to 1.
    """
    mu_w, sigma_w = winner
    mu_l, sigma_l = loser
    if not sigma_w > 0 or not sigma_l > 0:
        raise DomainError("sigmas must be positive")
    c_sq = 2.0 * params.beta**2 + sigma_w**2 + sigma_l**2
    c = math.sqrt(c_sq)
    x = (mu_w - mu_l) / c
    v, w, slack = _moments(x)
    new_mu_w = mu_w + (sigma_w**2 / c) * v
    new_mu_l = mu_l - (sigma_l**2 / c) * v
    if x < _DEEP_TAIL:
        # w is within 1/x^2 of 1, where 1 - (sigma^2/c^2) w cancels to 0
        # or below once sigma^2 is most of c^2; the same factor is formed
        # as (c^2 - sigma^2)/c^2 + (sigma^2/c^2)(1 - w), a sum of positives
        rest = 2.0 * params.beta**2
        shrink_w = (rest + sigma_l**2) / c_sq + (sigma_w**2 / c_sq) * slack
        shrink_l = (rest + sigma_w**2) / c_sq + (sigma_l**2 / c_sq) * slack
    else:
        shrink_w = 1.0 - (sigma_w**2 / c_sq) * w
        shrink_l = 1.0 - (sigma_l**2 / c_sq) * w
    new_sigma_w = sigma_w * shrink_w
    new_sigma_l = sigma_l * shrink_l
    return (new_mu_w, new_sigma_w), (new_mu_l, new_sigma_l)


class TrueSkillSystem(RatingSystem):
    name = "trueskill"

    def __init__(self, params: TrueSkillParams | None = None) -> None:
        self.params = params or TrueSkillParams()
        self._initial = PlayerRating(
            mu=self.params.default_mu, sigma=self.params.default_sigma
        )

    def params_dict(self) -> dict[str, Any]:
        return asdict(self.params)

    def initial_rating(self) -> PlayerRating:
        return self._initial

    def _apply(self, block: MatchBlock) -> Posterior:
        params = self.params
        by_mu = params.member_share == "mu"
        team_ids = block.match.team_ids
        n = len(team_ids)
        sizes = block.match.sizes
        ends = list(accumulate(sizes))
        member_sigmas = block.sigma[block.mask].tolist()
        tau_sq = params.tau_dynamics**2
        if tau_sq > 0:
            member_sigmas = [math.sqrt(q + tau_sq) for q in squares(member_sigmas)]
        # per-team member lists, sliced from the members in record order
        spans = [slice(end - size, end) for end, size in zip(ends, sizes)]
        member_mus = block.mu[block.mask].tolist()
        mus = [member_mus[span] for span in spans]
        sigmas = [member_sigmas[span] for span in spans]
        # each team's member variances and their sum as it enters the chain;
        # an infinite sum would turn the chain's sigmas to NaN
        member_squares = squares(member_sigmas)
        team_squares = [member_squares[span] for span in spans]
        variances = list(map(sum, team_squares))
        require_finite_variances(team_ids, variances)
        # a member's share of its team's mu delta is weight / total: its
        # member_weights entry over 1.0, or its variance over the team's
        weights: list[list[float]] = [[]] * n
        totals = [1.0] * n
        # each team's last split, applied to the matrices after the chain:
        # the weights above, the team mu delta and the sigma shrink factor
        deltas = [0.0] * n
        shrinks = [0.0] * n
        by_rank = np.argsort(block.ranks).tolist()
        last = by_rank[-1]
        win = by_rank[0]
        squares_w, var_w = team_squares[win], variances[win]
        mu_w, sigma_w = sum(mus[win]), math.sqrt(var_w)
        for lose in by_rank[1:]:
            squares_l, var_l = team_squares[lose], variances[lose]
            mu_l, sigma_l = sum(mus[lose]), math.sqrt(var_l)
            post_w, post_l = update_pair((mu_w, sigma_w), (mu_l, sigma_l), params)
            deltas[win] = post_w[0] - mu_w
            shrinks[win] = post_w[1] / sigma_w
            delta = deltas[lose] = post_l[0] - mu_l
            shrink = shrinks[lose] = post_l[1] / sigma_l
            if by_mu:
                weights[win] = member_weights(mus[win], team_ids[win])
                weights[lose] = member_weights(mus[lose], team_ids[lose])
            else:
                weights[win], totals[win] = squares_w, var_w
                weights[lose], totals[lose] = squares_l, var_l
            if lose == last:
                break
            # the loser's updated members enter the next pair as the winner
            total = totals[lose]
            mus_w: list[float] = []
            sigmas_w: list[float] = []
            squares_w = []
            for m, s, weight in zip(mus[lose], sigmas[lose], weights[lose]):
                mus_w.append(m + weight / total * delta)
                s *= shrink
                sigmas_w.append(s)
                squares_w.append(s**2)
            mus[lose], sigmas[lose], win = mus_w, sigmas_w, lose
            var_w = sum(squares_w)
            mu_w, sigma_w = sum(mus_w), math.sqrt(var_w)
        # Python float arithmetic raises no flag, and neither may this
        with np.errstate(all="ignore"):
            shares = block.pad(weights) / np.array(totals)[:, None]
            return (
                block.pad(mus) + shares * np.array(deltas)[:, None],
                block.pad(sigmas) * np.array(shrinks)[:, None],
            )
