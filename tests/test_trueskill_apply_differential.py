"""Differential test of ``TrueSkillSystem._apply`` against its per-team
list form.

The reference below is ``_apply`` as it stood before the chain read its
members straight from the block's arrays: per-team member lists sliced
from the flat ones, each team's sums added by ``left_sum``, the
``member_share="mu"`` weights kept per team in a dict, and the posterior
padded from the per-team lists.  Both run under the ``np.errstate`` that
``update_match`` sets, on blocks with mixed team sizes (so the padding
enters the row sums), signed zero mus and extreme but finite beliefs.
The posteriors must be equal byte for byte, a block that fails must fail
with the same exception type and text, and the uniform-weight warnings
must be the same records in the same order.
"""

from __future__ import annotations

import logging
import math
from itertools import accumulate, chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import DomainError, MatchRecord, PlayerRating, TeamEntry
from royale_ratings.systems import (
    RatingTable,
    left_sum,
    member_weights,
    require_finite_variances,
    squares,
)
from royale_ratings.trueskill import (
    MEMBER_SHARES,
    TrueSkillParams,
    TrueSkillSystem,
    _pair,
    _require_finite_tau_sum,
)

from conftest import BASE_TIME

DEFAULT_TAU = TrueSkillParams().tau_dynamics
# 1e154 squared is 1e308, so a member sigma of about 1e154 or more
# overflows the inflated variance
TAUS = (0.0, DEFAULT_TAU, 1e154)


def pad(block, teams):
    """Per-team member lists as a zero-padded matrix of the block's shape."""
    out = np.zeros(block.mask.shape)
    out[block.mask] = list(chain.from_iterable(teams))
    return out


def reference_apply(self, block):
    params = self.params
    by_mu = params.member_share == "mu"
    team_ids = block.match.team_ids
    ends = list(accumulate(block.match.sizes))
    member_sigmas = block.sigma[block.mask].tolist()
    tau_sq = params.tau_dynamics**2
    if tau_sq > 0:
        member_sigmas = [math.sqrt(q + tau_sq) for q in squares(member_sigmas)]
    member_squares = squares(member_sigmas)
    # per-team member lists, sliced from the members in record order and
    # split in place
    spans = list(map(slice, [0, *ends], ends))
    member_mus = block.mu[block.mask].tolist()
    mus = list(map(member_mus.__getitem__, spans))
    sigmas = list(map(member_sigmas.__getitem__, spans))
    team_squares = list(map(member_squares.__getitem__, spans))
    # each team's (mu, variance) sums as it enters the chain; an
    # infinite variance would turn the chain's sigmas to NaN
    variances = list(map(left_sum, team_squares))
    if math.inf in variances and math.inf not in member_squares:
        _require_finite_tau_sum(tau_sq, len(mus[variances.index(math.inf)]))
    require_finite_variances(team_ids, variances)
    team_mus = list(map(left_sum, mus))
    rest = 2.0 * params.beta**2
    by_rank = np.argsort(block.ranks).tolist()
    # member_share="mu": each team's weights, read from its pre-match mus
    # at its first split and kept for its second
    mu_weights: dict[int, list[float]] = {}
    win = by_rank[0]
    sqrt = math.sqrt
    mu_w, var_w = team_mus[win], variances[win]
    for lose in by_rank[1:]:
        mu_l, var_l = team_mus[lose], variances[lose]
        sigma_w, sigma_l = sqrt(var_w), sqrt(var_l)
        try:
            post_mu_w, post_sigma_w, post_mu_l, post_sigma_l = _pair(
                mu_w, sigma_w, mu_l, sigma_l, rest
            )
        except OverflowError:
            _require_finite_tau_sum(tau_sq, len(mus[win]) + len(mus[lose]))
            raise DomainError(
                f"teams {team_ids[win]!r} and {team_ids[lose]!r} deviations "
                "overflow when combined"
            ) from None
        # winner, then loser: a member takes weight / total of its team's
        # mu delta, the member_weights entry over 1.0 or its variance
        # over the team's (each weight read before its square is
        # replaced), and its sigma scales by the team's shrink factor
        for team, delta, shrink, total in (
            (win, post_mu_w - mu_w, post_sigma_w / sigma_w, var_w),
            (lose, post_mu_l - mu_l, post_sigma_l / sigma_l, var_l),
        ):
            mu_t, sigma_t, square_t = mus[team], sigmas[team], team_squares[team]
            weight_t = square_t
            if by_mu:
                if team not in mu_weights:
                    mu_weights[team] = member_weights(mu_t, team_ids[team])
                weight_t, total = mu_weights[team], 1.0
            mu_sum = square_sum = 0
            for k, weight in enumerate(weight_t):
                mu_t[k] = m = mu_t[k] + weight / total * delta
                sigma_t[k] = s = sigma_t[k] * shrink
                square_t[k] = square = s**2
                mu_sum += m
                square_sum += square
        # the loser's updated members enter the next pair as the winner,
        # their sums added left to right from 0 as left_sum adds
        win = lose
        mu_w, var_w = mu_sum, square_sum
    return pad(block, mus), pad(block, sigmas)


class Warnings(logging.Handler):
    """Every record of the package's loggers, as (logger, message)."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.records: list[tuple[str, str]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append((record.name, record.getMessage()))


def outcome(apply, system, block):
    """``apply(system, block)`` under ``update_match``'s errstate: the
    posterior's bytes, or the exception's type and text, with the
    warnings logged on the way."""
    handler = Warnings()
    logger = logging.getLogger("royale_ratings")
    logger.addHandler(handler)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            mu, sigma = apply(system, block)
        result = ("posterior", mu.shape, mu.tobytes(), sigma.tobytes())
    except Exception as exc:
        result = ("raised", type(exc), str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.records


def make_block(teams, ranks):
    """The block of a match whose team i holds ``teams[i]``, a list of
    (mu, sigma) members, and places ``ranks[i]``."""
    ratings = {}
    entries = []
    for i, (members, rank) in enumerate(zip(teams, ranks)):
        ids = tuple(f"t{i}p{j}" for j in range(len(members)))
        ratings.update(
            (player, PlayerRating(mu=mu, sigma=sigma))
            for player, (mu, sigma) in zip(ids, members)
        )
        entries.append(TeamEntry(team_id=f"t{i}", members=ids, observed_rank=rank))
    match = MatchRecord(match_id="m1", timestamp=BASE_TIME, teams=tuple(entries))
    return RatingTable(ratings).gather(match)


def check(block, member_share, tau):
    system = TrueSkillSystem(TrueSkillParams(member_share=member_share, tau_dynamics=tau))
    expected = outcome(reference_apply, system, block)
    assert outcome(TrueSkillSystem._apply, system, block) == expected
    return expected


MUS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]),
    st.floats(-50.0, 100.0),
    st.floats(-1e308, 1e308),
)
SIGMAS = st.one_of(
    st.floats(0.5, 20.0),
    st.floats(5e-324, 1e308, exclude_min=False),
    st.sampled_from([1e154, 1.4e154, 1e200, 1.7e308]),
)


@st.composite
def blocks(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=10))
    teams = [draw(st.lists(st.tuples(MUS, SIGMAS), min_size=n, max_size=n)) for n in sizes]
    ranks = draw(st.permutations(range(1, len(sizes) + 1)))
    return make_block(teams, ranks)


@given(
    block=blocks(),
    member_share=st.sampled_from(MEMBER_SHARES),
    tau=st.sampled_from(TAUS),
)
@settings(max_examples=300, deadline=None)
def test_apply_matches_the_per_team_list_form(block, member_share, tau):
    check(block, member_share, tau)


@given(
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=12),
    data=st.data(),
    member_share=st.sampled_from(MEMBER_SHARES),
    tau=st.sampled_from(TAUS[:2]),
)
@settings(max_examples=150, deadline=None)
def test_ordinary_blocks_give_the_same_posterior(sizes, data, member_share, tau):
    """Beliefs in the range a replay holds: every chain runs to its end."""
    member = st.tuples(st.floats(-5.0, 60.0) | st.sampled_from([0.0, -0.0]), st.floats(0.5, 9.0))
    teams = [data.draw(st.lists(member, min_size=n, max_size=n)) for n in sizes]
    ranks = data.draw(st.permutations(range(1, len(sizes) + 1)))
    result, _ = check(make_block(teams, ranks), member_share, tau)
    assert result[0] == "posterior"


@pytest.mark.parametrize("member_share", MEMBER_SHARES)
@pytest.mark.parametrize("tau", TAUS[:2])
def test_team_mu_sum_past_the_largest_double(member_share, tau):
    """Two members at 1e308 sum to inf, as Python's float addition gives
    it: the chain's x is inf and the kernel rejects it, not numpy's
    overflow flag."""
    block = make_block(
        [[(1e308, 8.0), (1e308, 8.0)], [(25.0, 8.0), (25.0, 8.0)]], [1, 2]
    )
    result, _ = check(block, member_share, tau)
    assert result == ("raised", DomainError, "x must be finite, got inf")


def test_inflated_variance_past_the_largest_double():
    """sigma^2 + tau^2 passes the largest double: the team is named as
    overflowing, not numpy's overflow flag."""
    block = make_block([[(25.0, 1e154), (25.0, 8.0)], [(25.0, 8.0)]], [2, 1])
    result, _ = check(block, "sigma_sq", 1e154)
    assert result == ("raised", DomainError, "team 't0' deviation overflows when squared")


@pytest.mark.parametrize("member_share", MEMBER_SHARES)
def test_signed_zero_team_sums(member_share):
    """A full-width team of -0.0 members sums to 0.0, as left_sum adds."""
    block = make_block(
        [[(-0.0, 8.0), (-0.0, 8.0)], [(-0.0, 8.0)], [(0.0, 8.0), (-0.0, 8.0)]], [3, 1, 2]
    )
    result, _ = check(block, member_share, DEFAULT_TAU)
    assert result[0] == "posterior"
