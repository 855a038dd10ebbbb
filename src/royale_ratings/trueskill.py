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

The chain runs on team aggregates: each team's (mu, variance) sums are
Python scalars, taken from the block as the chain starts (each one
numpy cumulative sum of its zero-padded row, ``systems.row_sums``, plus
0.0 so that a team of -0.0 members sums to 0.0 as ``systems.left_sum``
adds), and each adjacent pair is one call of a scalar kernel, the one
``update_pair`` also calls.  The members are flat lists in record
order, each team one range of them.  Right after each pair the
winner's members, then the loser's, take their team's split in place:
a member's mu gains weight / total of the team's mu delta (its
``member_weights`` entry over 1.0, or its variance over the team's
variance, read before the member's sigma changes), and its sigma scales
by the team's shrink factor.  The sums of the loser's updated members,
added left to right from 0, carry over as the next pair's winner, so a
team in the middle of the order is split twice, and the posterior is
the flat lists written to the block's shape.  The member sums, squares
and splits are the same float operations, in the same order, as a
per-pair member update.

With ``member_share="mu"`` a team's ``member_weights`` are read once per
match, from its pre-match mus at its first split (in chain order, so a
team warns of uniform weights at most once), and serve both its splits.
A proportional split keeps each member's share of the team mu, so in
exact arithmetic this is the per-split rule; and a middle team whose
losing split drives every member to mu <= 0 keeps its weights for its
winning split, so every member moves the same way as its team.

The default dynamics noise tau = 0.833 is deliberately large, ten times
the usual sigma0/100 choice for mu0 = 25; it is kept as a parameter so
slower-moving beliefs are one flag away.  tau^2 is added to every
participant's variance at the start of each of their matches.  A tau
whose square, or a beta whose 2 beta^2, passes the largest double fails
each match's update with a DomainError naming the parameter.  So does a
tau whose square, counted once for each member whose inflated variance
enters one overflowing sum (a team's variance, or a pair's c^2), passes
it on its own, as long as no member's own inflated variance overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.special import log_ndtr

from .core import DomainError, PlayerRating
from .systems import (
    MatchBlock,
    Posterior,
    RatingSystem,
    check_fields,
    member_weights,
    require_finite_variances,
    row_sums,
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
        check_fields(
            self, default_mu="finite", default_sigma="> 0", beta="> 0", tau_dynamics=">= 0"
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
    w = v * (v + x)
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
    Returns the posterior (mu, sigma) pairs, winner first.  Raises a
    DomainError when 2 beta^2 passes the largest double, or when the gap
    of two finite means does, and OverflowError when c^2 does.  Below
    x = -40 the sigma factor 1 - (sigma^2/c^2) w is formed without its
    subtraction, so it stays positive where w rounds to 1.
    """
    mu_w, sigma_w, mu_l, sigma_l = _pair(*winner, *loser, _twice_square(params.beta))
    return (mu_w, sigma_w), (mu_l, sigma_l)


def _twice_square(beta: float) -> float:
    """2 beta^2, the part of c^2 that beta gives, or a DomainError if it
    passes the largest double."""
    rest = 2.0 * squares([beta])[0]
    if rest == math.inf:
        raise DomainError("2 beta^2 overflows")
    return rest


def _require_finite_tau_sum(tau_sq: float, members: int) -> None:
    """Raise a DomainError naming tau_dynamics when the tau^2 that the
    given number of members' inflated variances carry passes the largest
    double on its own, whatever their sigmas.  Called where a sum of
    inflated variances, each finite, overflowed."""
    if members * tau_sq == math.inf:
        raise DomainError(f"tau_dynamics^2 over {members} members overflows")


def _pair(
    mu_w: float, sigma_w: float, mu_l: float, sigma_l: float, rest: float
) -> tuple[float, float, float, float]:
    """``update_pair`` on scalars, with ``rest`` = 2 beta^2: the posterior
    mu_w, sigma_w, mu_l, sigma_l.  Above x = -40 it forms v and w as
    ``_moments`` does, without the call."""
    if not sigma_w > 0 or not sigma_l > 0:
        raise DomainError("sigmas must be positive")
    sq_w = sigma_w**2
    sq_l = sigma_l**2
    c_sq = rest + sq_w + sq_l
    if c_sq == math.inf:
        # x and both corrections would be 0: the priors come back unchanged
        raise OverflowError("c^2 = 2 beta^2 + sigma_w^2 + sigma_l^2 overflows")
    c = math.sqrt(c_sq)
    x = (mu_w - mu_l) / c
    if _DEEP_TAIL <= x < math.inf:
        # max(v, _TINY), without the call
        v = math.exp(-0.5 * x * x - _LOG_SQRT_2PI - float(log_ndtr(x)))
        if v < _TINY:
            v = _TINY
        w = v * (v + x)
        shrink_w = 1.0 - (sq_w / c_sq) * w
        shrink_l = 1.0 - (sq_l / c_sq) * w
    else:
        # x is below -40 (or not finite, which _moments rejects), where w
        # is within 1/x^2 of 1 and 1 - (sigma^2/c^2) w cancels to 0 or
        # below once sigma^2 is most of c^2; the same factor is formed as
        # (c^2 - sigma^2)/c^2 + (sigma^2/c^2)(1 - w), a sum of positives
        if math.isfinite(mu_w) and math.isfinite(mu_l) and math.isinf(mu_w - mu_l):
            raise DomainError("team rating gap overflows")
        v, _, slack = _moments(x)
        shrink_w = (rest + sq_l) / c_sq + (sq_w / c_sq) * slack
        shrink_l = (rest + sq_w) / c_sq + (sq_l / c_sq) * slack
    return (
        mu_w + (sq_w / c) * v,
        sigma_w * shrink_w,
        mu_l - (sq_l / c) * v,
        sigma_l * shrink_l,
    )


class TrueSkillSystem(RatingSystem):
    name = "trueskill"
    Params = TrueSkillParams

    def _new_player(self) -> PlayerRating:
        return PlayerRating(mu=self.params.default_mu, sigma=self.params.default_sigma)

    def _apply(self, block: MatchBlock) -> Posterior:
        by_mu = self.params.member_share == "mu"
        team_ids = block.match.team_ids
        sigmas = block.sigma[block.mask].tolist()
        tau_sq = squares([self.params.tau_dynamics])[0]
        if tau_sq == math.inf:
            raise DomainError("tau_dynamics^2 overflows")
        rest = _twice_square(self.params.beta)
        squared = np.zeros(block.mask.shape)
        # these array steps stand in for Python float additions, which
        # overflow to inf silently: the add and the sqrt round as
        # math.sqrt(q + tau_sq) does, and + 0.0 turns a row sum of -0.0
        # into left_sum's 0.0
        with np.errstate(over="ignore"):
            if tau_sq > 0:
                sigmas = np.sqrt(np.array(squares(sigmas)) + tau_sq).tolist()
            member_squares = squares(sigmas)
            squared[block.mask] = member_squares
            # each team's (mu, variance) sums as it enters the chain; an
            # infinite variance would turn the chain's sigmas to NaN
            variances = (row_sums(squared) + 0.0).tolist()
            team_mus = (row_sums(block.mu) + 0.0).tolist()
        sizes = block.match.sizes
        # a member whose own inflated variance overflows is its team's fault
        if math.inf in variances and math.inf not in member_squares:
            _require_finite_tau_sum(tau_sq, sizes[variances.index(math.inf)])
        require_finite_variances(team_ids, variances)
        mus = block.mu[block.mask].tolist()
        # each team's members, as one range of the flat member lists
        ends = list(accumulate(sizes))
        members = list(map(range, [0, *ends], ends))
        # member_share="mu": the teams' member_weights in one flat list, each
        # team's read from its pre-match mus at its first split
        weights = [None] * len(mus) if by_mu else member_squares
        win, *losers = np.argsort(block.ranks).tolist()
        sqrt = math.sqrt
        mu_w, var_w = team_mus[win], variances[win]
        for lose in losers:
            mu_l, var_l = team_mus[lose], variances[lose]
            sigma_w, sigma_l = sqrt(var_w), sqrt(var_l)
            try:
                post_mu_w, post_sigma_w, post_mu_l, post_sigma_l = _pair(
                    mu_w, sigma_w, mu_l, sigma_l, rest
                )
            except OverflowError:
                _require_finite_tau_sum(tau_sq, sizes[win] + sizes[lose])
                raise DomainError(
                    f"teams {team_ids[win]!r} and {team_ids[lose]!r} deviations "
                    "overflow when combined"
                ) from None
            if by_mu:
                for team in (win, lose):
                    span = members[team]
                    if weights[span.start] is None:
                        weights[span.start : span.stop] = member_weights(
                            mus[span.start : span.stop], team_ids[team]
                        )
                # the weights are shares, which total 1
                var_w = var_l = 1.0
            # winner, then loser: a member takes weight / total of its team's
            # mu delta, its member_weights entry over 1.0 or its variance over
            # the team's (each weight read before its square is replaced),
            # and its sigma scales by the team's shrink factor
            delta, shrink = post_mu_w - mu_w, post_sigma_w / sigma_w
            for k in members[win]:
                mus[k] += weights[k] / var_w * delta
                sigmas[k] = s = sigmas[k] * shrink
                member_squares[k] = s**2
            delta, shrink = post_mu_l - mu_l, post_sigma_l / sigma_l
            # the loser's updated members enter the next pair as the winner,
            # their sums added left to right from 0 as left_sum adds
            mu_w = var_w = 0
            for k in members[lose]:
                mus[k] = m = mus[k] + weights[k] / var_l * delta
                sigmas[k] = s = sigmas[k] * shrink
                member_squares[k] = square = s**2
                mu_w += m
                var_w += square
            win = lose
        mu, sigma = np.zeros(block.mask.shape), np.zeros(block.mask.shape)
        mu[block.mask], sigma[block.mask] = mus, sigmas
        return mu, sigma
