from __future__ import annotations

import logging
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from royale_ratings.core import DomainError, PlayerRating
from royale_ratings.trueskill import (
    TrueSkillParams,
    TrueSkillSystem,
    update_pair,
    v_exceeds,
    w_exceeds,
)

from conftest import quick_match

# frozen from a 50-digit mpmath evaluation of pdf/cdf
V_AT_0 = 0.79788456080286536
V_AT_MINUS_10 = 10.098093233962512
W_AT_0 = 0.63661977236758134
W_AT_MINUS_10 = 0.99055462217434374
W_AT_MINUS_32 = 0.99902911344532116
GOLDEN_C = 13.171943246495138
GOLDEN_WINNER_MU = 29.206566109408190
GOLDEN_WINNER_SIGMA = 6.2099095213947465
GOLDEN_LOSER_MU = 20.793433890591810


def fresh_state(match, system):
    return {p: system.initial_rating() for p in match.players()}


class TestTruncationMoments:
    def test_v_at_zero(self):
        assert v_exceeds(0.0) == pytest.approx(V_AT_0, abs=1e-15)

    def test_v_deep_losing_tail_stays_finite(self):
        assert v_exceeds(-10.0) == pytest.approx(V_AT_MINUS_10, abs=1e-10)

    def test_v_huge_favorite_vanishes(self):
        assert 0.0 < v_exceeds(8.0) < 1e-14

    def test_w_at_zero_is_two_over_pi(self):
        assert w_exceeds(0.0) == pytest.approx(W_AT_0, abs=1e-15)
        assert w_exceeds(0.0) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_w_deep_losing_tail(self):
        # 1 - w falls off like 1/x^2, so at -10 it is still ~0.0094 short
        # of 1; the asymptote is only 1e-3 tight from about -32 on
        assert w_exceeds(-10.0) == pytest.approx(W_AT_MINUS_10, abs=1e-10)
        assert abs(w_exceeds(-32.0) - 1.0) < 1e-3
        assert w_exceeds(-32.0) == pytest.approx(W_AT_MINUS_32, abs=1e-8)

    def test_w_huge_favorite_vanishes(self):
        assert 0.0 < w_exceeds(8.0) < 1e-13

    def test_finite_and_positive_across_the_working_range(self):
        for x in np.linspace(-40.0, 40.0, 401):
            v = v_exceeds(float(x))
            w = w_exceeds(float(x))
            assert math.isfinite(v) and v > 0.0
            assert math.isfinite(w) and 0.0 < w < 1.0

    @given(st.floats(min_value=-40.0, max_value=35.0))
    def test_v_monotone_decreasing(self, x):
        # beyond x ~ 38 both sides sit on the positivity floor, so the
        # strict ordering is only claimed where the value is representable
        assert v_exceeds(x + 1.0) < v_exceeds(x)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            v_exceeds(float("nan"))

    @given(st.floats(min_value=-1e6, max_value=-40.0))
    def test_deep_losing_tail_stays_in_its_bounds(self, x):
        # v(x) lies in (-x, -x - 1/x) and w(x) in (0, 1); at |x| >~ 1e4 the
        # exact v and -x - 1/x round to the same double, so the upper
        # bound is checked as <=, which correct rounding keeps
        v = v_exceeds(x)
        assert -x < v <= -x - 1.0 / x
        assert 0.0 < w_exceeds(x) < 1.0

    @pytest.mark.parametrize("x", [-40.5, -100.0, -395.0, -1e4, -1e5, -1e6])
    def test_deep_losing_tail_matches_the_continued_fraction(self, x):
        # v = -x + 1/(-x + 2/(-x + 3/(...))) is the inverse Mills ratio;
        # 30 levels in exact rationals are far past double precision here
        t = Fraction(-x)
        tail = t
        for k in range(30, 1, -1):
            tail = t + k / tail
        exact_v = t + 1 / tail
        exact_w = exact_v / tail
        assert v_exceeds(x) == pytest.approx(float(exact_v), rel=1e-15)
        assert w_exceeds(x) == pytest.approx(float(exact_w), rel=1e-14)


class TestUpdatePair:
    @pytest.mark.parametrize("x", [-40.5, -1e3, -3.3e8])
    def test_deep_tail_keeps_both_sigmas_positive(self, x):
        # a loser with nearly all of c^2: 1 - (sigma^2/c^2) w rounds to 0
        # or below unless it is formed without the subtraction
        params = TrueSkillParams()
        sigma_w, sigma_l = 1e132, 1e142
        c = math.sqrt(2.0 * params.beta**2 + sigma_w**2 + sigma_l**2)
        (_, new_w), (_, new_l) = update_pair((x * c, sigma_w), (0.0, sigma_l), params)
        assert 0.0 < new_w <= sigma_w  # (sigma_w/c)^2 = 1e-20 leaves it as it was
        assert 0.0 < new_l < sigma_l
        # the loser keeps (c^2 - sigma_l^2)/c^2 + (1 - w) of its sigma
        assert new_l / sigma_l == pytest.approx(1e-20 + 1.0 / x**2, rel=1e-2)

    @pytest.mark.parametrize("gap", [-39.5, -5.0, 0.0, 0.7, 8.0, 39.5])
    def test_v_and_w_are_those_of_v_exceeds_and_w_exceeds(self, gap):
        # above x = -40 the pair forms v and w inline; they must be the
        # public functions' values to the bit
        params = TrueSkillParams()
        sigma_w, sigma_l = 3.0, 4.0
        c_sq = 2.0 * params.beta**2 + sigma_w**2 + sigma_l**2
        c = math.sqrt(c_sq)
        mu_w = gap * c
        x = (mu_w - 0.0) / c
        v, w = v_exceeds(x), w_exceeds(x)
        assert update_pair((mu_w, sigma_w), (0.0, sigma_l), params) == (
            (mu_w + (sigma_w**2 / c) * v, sigma_w * (1.0 - (sigma_w**2 / c_sq) * w)),
            (0.0 - (sigma_l**2 / c) * v, sigma_l * (1.0 - (sigma_l**2 / c_sq) * w)),
        )

    def test_smallest_w_needs_no_clamp(self):
        # w = v (v + x) is smallest where v reaches its floor, near x = 37.616,
        # and there it is still 37 times the smallest normal double
        params = TrueSkillParams(beta=1.0)
        mu_w, mu_l, sigma = 37.616, -37.616, 1.0
        c_sq = 2.0 * params.beta**2 + sigma**2 + sigma**2
        c = math.sqrt(c_sq)
        x = (mu_w - mu_l) / c
        v, w = v_exceeds(x), w_exceeds(x)
        assert v == sys.float_info.min
        assert w > 37 * sys.float_info.min
        assert update_pair((mu_w, sigma), (mu_l, sigma), params) == (
            (mu_w + (sigma**2 / c) * v, sigma * (1.0 - (sigma**2 / c_sq) * w)),
            (mu_l - (sigma**2 / c) * v, sigma * (1.0 - (sigma**2 / c_sq) * w)),
        )

    def test_equal_priors_golden(self):
        params = TrueSkillParams()
        (mu_w, sg_w), (mu_l, sg_l) = update_pair(
            (25.0, 25.0 / 3.0), (25.0, 25.0 / 3.0), params
        )
        c = math.sqrt(2 * params.beta**2 + 2 * (25.0 / 3.0) ** 2)
        assert c == pytest.approx(GOLDEN_C, abs=1e-12)
        assert mu_w == pytest.approx(GOLDEN_WINNER_MU, abs=1e-12)
        assert mu_l == pytest.approx(GOLDEN_LOSER_MU, abs=1e-12)
        assert sg_w == pytest.approx(GOLDEN_WINNER_SIGMA, abs=1e-12)
        assert sg_l == pytest.approx(GOLDEN_WINNER_SIGMA, abs=1e-12)

    def test_winner_gains_loser_drops(self):
        (mu_w, _), (mu_l, _) = update_pair((25.0, 8.0), (25.0, 8.0), TrueSkillParams())
        assert mu_w > 25.0 > mu_l

    def test_upset_moves_more_than_expected_win(self):
        params = TrueSkillParams()
        favorite_wins, _ = update_pair((30.0, 8.0), (20.0, 8.0), params)
        upset_winner, _ = update_pair((20.0, 8.0), (30.0, 8.0), params)
        assert upset_winner[0] - 20.0 > favorite_wins[0] - 30.0

    def test_huge_favorite_barely_moves(self):
        params = TrueSkillParams()
        sigma = 25.0 / 3.0
        c = math.sqrt(2 * params.beta**2 + 2 * sigma**2)
        (mu_w, _), (mu_l, _) = update_pair(
            (25.0 + 8.0 * c, sigma), (25.0, sigma), params
        )
        assert mu_w - (25.0 + 8.0 * c) < 1e-10
        assert 25.0 - mu_l < 1e-10

    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=0.5, max_value=30.0),
        st.floats(min_value=0.5, max_value=30.0),
    )
    @settings(max_examples=200)
    def test_sigmas_shrink_but_stay_positive(self, mu_w, mu_l, sg_w, sg_l):
        # a lopsided enough pairing drives w below float resolution and the
        # shrink rounds away, so the property is non-strict in general
        (_, new_w), (_, new_l) = update_pair(
            (mu_w, sg_w), (mu_l, sg_l), TrueSkillParams()
        )
        assert 0.0 < new_w <= sg_w
        assert 0.0 < new_l <= sg_l

    def test_sigma_strictly_shrinks_at_moderate_gaps(self):
        for gap in (0.0, 5.0, 15.0):
            (_, new_w), (_, new_l) = update_pair(
                (25.0 + gap, 8.0), (25.0, 8.0), TrueSkillParams()
            )
            assert new_w < 8.0
            assert new_l < 8.0

    def test_bad_sigma_rejected(self):
        with pytest.raises(DomainError):
            update_pair((25.0, 0.0), (25.0, 8.0), TrueSkillParams())


def chain_reference(state, match, params):
    """Independent N-team chain on member dicts, using scipy.stats.norm
    directly instead of the library's log-space path."""
    beliefs = {p: [r.mu, r.sigma] for p, r in state.items()}
    if params.tau_dynamics > 0:
        for p in match.players():
            beliefs[p][1] = math.sqrt(beliefs[p][1] ** 2 + params.tau_dynamics**2)
    teams = sorted(match.teams, key=lambda t: t.observed_rank)
    for winner, loser in zip(teams, teams[1:]):
        mu_w = sum(beliefs[p][0] for p in winner.members)
        var_w = sum(beliefs[p][1] ** 2 for p in winner.members)
        mu_l = sum(beliefs[p][0] for p in loser.members)
        var_l = sum(beliefs[p][1] ** 2 for p in loser.members)
        c = math.sqrt(2 * params.beta**2 + var_w + var_l)
        x = (mu_w - mu_l) / c
        v = norm.pdf(x) / norm.cdf(x)
        w = v * (v + x)
        delta_w = (var_w / c) * v
        delta_l = -(var_l / c) * v
        shrink_w = 1.0 - (var_w / c**2) * w
        shrink_l = 1.0 - (var_l / c**2) * w
        for p in winner.members:
            beliefs[p][0] += delta_w * beliefs[p][1] ** 2 / var_w
            beliefs[p][1] *= shrink_w
        for p in loser.members:
            beliefs[p][0] += delta_l * beliefs[p][1] ** 2 / var_l
            beliefs[p][1] *= shrink_l
    return beliefs


class TestMatchUpdate:
    def test_two_singleton_teams_reduce_to_pair_update(self):
        params = TrueSkillParams(tau_dynamics=0.0)
        system = TrueSkillSystem(params)
        match = quick_match([1, 2])
        state = {
            "t1_p1": PlayerRating(mu=27.0, sigma=7.0),
            "t2_p1": PlayerRating(mu=24.0, sigma=5.0),
        }
        system.update_match(state, match, 0)
        (mu_w, sg_w), (mu_l, sg_l) = update_pair((27.0, 7.0), (24.0, 5.0), params)
        assert state["t1_p1"].mu == pytest.approx(mu_w, abs=1e-12)
        assert state["t1_p1"].sigma == pytest.approx(sg_w, abs=1e-12)
        assert state["t2_p1"].mu == pytest.approx(mu_l, abs=1e-12)
        assert state["t2_p1"].sigma == pytest.approx(sg_l, abs=1e-12)

    def test_dynamics_inflate_before_the_pair_update(self):
        params = TrueSkillParams()  # tau = 0.833
        system = TrueSkillSystem(params)
        match = quick_match([1, 2])
        state = {
            "t1_p1": PlayerRating(mu=27.0, sigma=7.0),
            "t2_p1": PlayerRating(mu=24.0, sigma=5.0),
        }
        system.update_match(state, match, 0)
        tau_sq = params.tau_dynamics**2
        inflated_w = math.sqrt(7.0**2 + tau_sq)
        inflated_l = math.sqrt(5.0**2 + tau_sq)
        (mu_w, sg_w), (mu_l, sg_l) = update_pair(
            (27.0, inflated_w), (24.0, inflated_l), params
        )
        assert state["t1_p1"].mu == pytest.approx(mu_w, abs=1e-12)
        assert state["t1_p1"].sigma == pytest.approx(sg_w, abs=1e-12)
        assert state["t2_p1"].sigma == pytest.approx(sg_l, abs=1e-12)

    def test_four_fresh_duo_teams_match_the_reference_chain(self):
        params = TrueSkillParams()
        system = TrueSkillSystem(params)
        match = quick_match([2, 4, 1, 3], team_size=2)
        state = fresh_state(match, system)
        expected = chain_reference(state, match, params)
        system.update_match(state, match, 0)
        for player, (mu, sigma) in expected.items():
            assert state[player].mu == pytest.approx(mu, abs=1e-9)
            assert state[player].sigma == pytest.approx(sigma, abs=1e-9)

    def test_fresh_field_ends_ordered_by_observed_rank(self):
        system = TrueSkillSystem()
        match = quick_match([3, 1, 4, 2], team_size=2)
        state = fresh_state(match, system)
        system.update_match(state, match, 0)
        by_rank = sorted(match.teams, key=lambda t: t.observed_rank)
        sums = [sum(state[p].mu for p in t.members) for t in by_rank]
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_winner_outgains_loser_always(self):
        system = TrueSkillSystem()
        match = quick_match([1, 2, 3], team_size=2)
        state = fresh_state(match, system)
        state["t3_p1"] = PlayerRating(mu=40.0, sigma=2.0)
        winner = match.teams[0]
        loser = match.teams[2]
        before_w = sum(state[p].mu for p in winner.members)
        before_l = sum(state[p].mu for p in loser.members)
        system.update_match(state, match, 0)
        gain_w = sum(state[p].mu for p in winner.members) - before_w
        gain_l = sum(state[p].mu for p in loser.members) - before_l
        assert gain_w > gain_l

    def test_sigma_never_increases_within_the_update(self):
        # after the tau inflation, every chain step only shrinks sigma
        params = TrueSkillParams()
        system = TrueSkillSystem(params)
        match = quick_match([1, 2, 3, 4], team_size=2)
        state = fresh_state(match, system)
        inflated = math.sqrt(
            system.params.default_sigma**2 + params.tau_dynamics**2
        )
        system.update_match(state, match, 0)
        for player in match.players():
            assert state[player].sigma < inflated

    def test_variance_proportional_member_shares(self):
        system = TrueSkillSystem(TrueSkillParams(tau_dynamics=0.0))
        match = quick_match([1, 2], team_size=2)
        state = {
            "t1_p1": PlayerRating(mu=25.0, sigma=2.0),
            "t1_p2": PlayerRating(mu=25.0, sigma=4.0),
            "t2_p1": PlayerRating(mu=25.0, sigma=3.0),
            "t2_p2": PlayerRating(mu=25.0, sigma=3.0),
        }
        system.update_match(state, match, 0)
        d1 = state["t1_p1"].mu - 25.0
        d2 = state["t1_p2"].mu - 25.0
        assert d2 == pytest.approx(4 * d1, rel=1e-9)  # sigma^2 ratio 16:4

    def test_mu_proportional_share_switch(self):
        system = TrueSkillSystem(
            TrueSkillParams(tau_dynamics=0.0, member_share="mu")
        )
        match = quick_match([1, 2], team_size=2)
        state = {
            "t1_p1": PlayerRating(mu=10.0, sigma=3.0),
            "t1_p2": PlayerRating(mu=30.0, sigma=3.0),
            "t2_p1": PlayerRating(mu=20.0, sigma=3.0),
            "t2_p2": PlayerRating(mu=20.0, sigma=3.0),
        }
        system.update_match(state, match, 0)
        d1 = state["t1_p1"].mu - 10.0
        d2 = state["t1_p2"].mu - 30.0
        assert d2 == pytest.approx(3 * d1, rel=1e-9)  # mu ratio 30:10

    def test_mu_share_falls_back_to_uniform_on_non_positive_team(self, caplog):
        system = TrueSkillSystem(
            TrueSkillParams(tau_dynamics=0.0, member_share="mu")
        )
        match = quick_match([1, 2], team_size=2)
        state = {
            "t1_p1": PlayerRating(mu=-5.0, sigma=3.0),
            "t1_p2": PlayerRating(mu=5.0, sigma=3.0),
            "t2_p1": PlayerRating(mu=20.0, sigma=3.0),
            "t2_p2": PlayerRating(mu=20.0, sigma=3.0),
        }
        with caplog.at_level(logging.WARNING):
            system.update_match(state, match, 0)
        assert any("uniform member weights" in r.message for r in caplog.records)

    def test_mu_share_middle_team_members_move_together(self):
        # t2 loses to the weaker t1, which drives both members to mu <= 0, then
        # beats the stronger t3; weights read again at that second split would
        # be uniform, and t2_p1 would end below its prior and t2_p2 above it
        system = TrueSkillSystem(TrueSkillParams(tau_dynamics=0.0, member_share="mu"))
        match = quick_match([1, 2, 3], team_size=2)
        mus = {
            "t1_p1": 1.0,
            "t1_p2": 1.0,
            "t2_p1": 2.0,
            "t2_p2": 1.0,
            "t3_p1": 10.0,
            "t3_p2": 10.0,
        }
        state = {p: PlayerRating(mu=mu, sigma=10.0) for p, mu in mus.items()}
        system.update_match(state, match, 0)
        moves = {np.sign(state[p].mu - mus[p]) for p in ("t2_p1", "t2_p2")}
        assert moves != {1.0, -1.0}

    def test_params_validated(self):
        with pytest.raises(DomainError):
            TrueSkillParams(beta=0.0)
        with pytest.raises(DomainError):
            TrueSkillParams(tau_dynamics=-0.1)
        with pytest.raises(DomainError):
            TrueSkillParams(member_share="equal")

    def test_default_parameters(self):
        params = TrueSkillParams()
        assert params.default_mu == 25.0
        assert params.default_sigma == pytest.approx(25.0 / 3.0)
        assert params.beta == 4.16
        assert params.tau_dynamics == 0.833
