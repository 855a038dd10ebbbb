from __future__ import annotations

import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import DomainError, PlayerRating, RatingsError
from royale_ratings.glicko import (
    GlickoParams,
    GlickoSystem,
    g_weight,
    team_mu_sigma,
    win_probabilities,
)

from conftest import quick_match

Q = math.log(10.0) / 400.0


def kernel_reference(mus, sigmas, q) -> list[float]:
    """Plain-loop pooled probabilities with the combined-deviation kernel."""
    n = len(mus)
    pairs = math.comb(n, 2)
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j != i:
                g = g_weight(math.sqrt(sigmas[i] ** 2 + sigmas[j] ** 2), q)
                total += 1.0 / (1.0 + 10.0 ** (-g * (mus[i] - mus[j]) / 400.0))
        out.append(total / pairs)
    return out


def fresh_state(match, system):
    return {p: system.initial_rating() for p in match.players()}


class TestTeamBelief:
    def test_component_wise_sums(self):
        assert team_mu_sigma([1500.0, 1500.0], [350.0, 350.0]) == (3000.0, 700.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            team_mu_sigma([], [])
        with pytest.raises(DomainError):
            team_mu_sigma([1500.0], [350.0, 350.0])
        with pytest.raises(DomainError):
            team_mu_sigma([1500.0], [0.0])


class TestGWeight:
    def test_zero_deviation_passes_through(self):
        assert g_weight(0.0) == 1.0

    def test_default_deviation(self):
        # frozen from a 50-digit evaluation of 1/sqrt(1 + 3 q^2 s^2 / pi^2)
        assert g_weight(350.0) == pytest.approx(0.66906939718198458, abs=1e-14)

    def test_doubled_team_deviation(self):
        assert g_weight(700.0) == pytest.approx(0.41046133037288840, abs=1e-14)

    @given(st.floats(min_value=0.0, max_value=5000.0, allow_nan=False))
    def test_bounded_in_unit_interval(self, sigma):
        assert 0.0 < g_weight(sigma) <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=4000.0),
        st.floats(min_value=0.5, max_value=1000.0),
    )
    def test_monotone_decreasing(self, sigma, bump):
        assert g_weight(sigma + bump) < g_weight(sigma)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            g_weight(-1.0)


class TestWinProbability:
    def test_equal_beliefs_split_evenly(self):
        params = GlickoParams()
        probs = win_probabilities([3000.0] * 5, [700.0] * 5, params)
        for p in probs:
            assert p == pytest.approx(0.2, abs=1e-12)

    def test_matches_plain_loop(self):
        params = GlickoParams()
        mus = [3100.0, 3000.0, 2900.0]
        sigmas = [700.0, 400.0, 150.0]
        probs = win_probabilities(mus, sigmas, params)
        expected = kernel_reference(mus, sigmas, params.q_constant)
        for got, want in zip(probs, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_higher_mu_is_favored(self):
        params = GlickoParams()
        probs = win_probabilities([3200.0, 3000.0], [500.0, 500.0], params)
        assert probs[0] > 0.5 > probs[1]

    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=150)
    def test_simplex(self, n, seed):
        import random

        rng = random.Random(seed)
        mus = [rng.uniform(500.0, 4000.0) for _ in range(n)]
        sigmas = [rng.uniform(20.0, 900.0) for _ in range(n)]
        probs = win_probabilities(mus, sigmas, GlickoParams())
        assert abs(float(probs.sum()) - 1.0) < 1e-9
        assert all(p > 0 for p in probs)

    def test_one_team_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^need >= 2 teams, got 1$"):
            win_probabilities([1500.0], [350.0], GlickoParams())

    def test_lists_of_different_lengths_are_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^mu and sigma lists differ in length$"):
            win_probabilities([1500.0, 1400.0], [350.0], GlickoParams())

    @pytest.mark.parametrize("bad", [0.0, math.inf])
    def test_zero_or_infinite_sigma_is_a_domain_error(self, bad):
        with pytest.raises(
            DomainError, match=r"^team beliefs must be finite with positive sigma$"
        ):
            win_probabilities([1500.0, 1400.0], [350.0, bad], GlickoParams())

    @pytest.mark.parametrize(
        "mus, sigmas, message",
        [
            # the gap overflows in the subtract, or once the kernel scales it
            ([1.7e308, -1.7e308], [10.0, 10.0], "team rating gap overflows"),
            ([0.0, 1e308], [10.0, 10.0], "team rating gap overflows"),
            # a square overflows, or two finite squares do when added
            ([0.0, 1.0], [1e200, 1.0], "team deviations overflow when squared or combined"),
            ([0.0, 1.0], [1e154, 1e154], "team deviations overflow when squared or combined"),
        ],
        ids=["gap", "scaled-gap", "square", "combined"],
    )
    def test_overflow_is_a_domain_error(self, mus, sigmas, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            win_probabilities(mus, sigmas, GlickoParams())


class TestGlickoUpdate:
    def test_two_fresh_duo_teams_golden(self):
        # frozen from an independent step-by-step evaluation: q = ln(10)/400,
        # g(700) = 0.4104613..., E = 1/2, d^2 = 716480.0459...,
        # team delta = 343.77792..., team sigma -> 539.43611...
        system = GlickoSystem()
        match = quick_match([1, 2], team_size=2)
        state = fresh_state(match, system)
        system.update_match(state, match, 0)
        for player in match.teams[0].members:
            assert state[player].mu == pytest.approx(1671.8889627045564, abs=1e-9)
            assert state[player].sigma == pytest.approx(269.71805702681934, abs=1e-9)
        for player in match.teams[1].members:
            assert state[player].mu == pytest.approx(1328.1110372954436, abs=1e-9)
            assert state[player].sigma == pytest.approx(269.71805702681934, abs=1e-9)

    def test_symmetric_two_team_deltas(self):
        system = GlickoSystem()
        match = quick_match([1, 2], team_size=2)
        state = fresh_state(match, system)
        system.update_match(state, match, 0)
        gain = sum(state[p].mu for p in match.teams[0].members) - 3000.0
        loss = sum(state[p].mu for p in match.teams[1].members) - 3000.0
        assert gain > 0
        assert gain == pytest.approx(-loss, abs=1e-9)

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10**6),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_team_sigma_strictly_decreases(self, n_teams, team_size, seed, data):
        system = GlickoSystem()
        ranks = data.draw(st.permutations(range(1, n_teams + 1)))
        match = quick_match(list(ranks), team_size=team_size)
        state = {}
        for player in match.players():
            state[player] = PlayerRating(
                mu=data.draw(st.floats(min_value=800.0, max_value=2500.0)),
                sigma=data.draw(st.floats(min_value=30.0, max_value=350.0)),
            )
        before = {
            t.team_id: sum(state[p].sigma for p in t.members) for t in match.teams
        }
        system.update_match(state, match, seed)
        for team in match.teams:
            after = sum(state[p].sigma for p in team.members)
            assert after < before[team.team_id]
            assert after > 0

    @given(
        st.integers(min_value=2, max_value=6),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_residuals_sum_to_zero(self, n_teams, data):
        # the update residual R' - Pr sums to zero over a match even though
        # the team deltas themselves need not
        from royale_ratings.core import normalized_result

        params = GlickoParams()
        mus = [
            data.draw(st.floats(min_value=800.0, max_value=2500.0))
            for _ in range(n_teams)
        ]
        sigmas = [
            data.draw(st.floats(min_value=30.0, max_value=350.0))
            for _ in range(n_teams)
        ]
        ranks = data.draw(st.permutations(range(1, n_teams + 1)))
        probs = win_probabilities(mus, sigmas, params)
        residuals = [
            normalized_result(rank, n_teams) - float(p)
            for rank, p in zip(ranks, probs)
        ]
        assert abs(sum(residuals)) < 1e-12

    def test_member_shares_follow_belief_shares(self):
        system = GlickoSystem()
        match = quick_match([1, 2], team_size=2)
        state = {
            "t1_p1": PlayerRating(mu=1000.0, sigma=100.0),
            "t1_p2": PlayerRating(mu=3000.0, sigma=300.0),
            "t2_p1": PlayerRating(mu=2000.0, sigma=200.0),
            "t2_p2": PlayerRating(mu=2000.0, sigma=200.0),
        }
        system.update_match(state, match, 0)
        d1 = state["t1_p1"].mu - 1000.0
        d2 = state["t1_p2"].mu - 3000.0
        assert d2 == pytest.approx(3 * d1, rel=1e-9)
        s1 = state["t1_p1"].sigma - 100.0
        s2 = state["t1_p2"].sigma - 300.0
        assert s2 == pytest.approx(3 * s1, rel=1e-9)
        assert s1 < 0

    def test_collapsed_team_sigma_warns(self, caplog):
        system = GlickoSystem()
        match = quick_match([1, 2], team_size=2)
        state = {
            p: PlayerRating(mu=1500.0, sigma=0.4) for p in match.players()
        }
        with caplog.at_level(logging.WARNING):
            system.update_match(state, match, 0)
        assert any("sigma collapsed" in r.message for r in caplog.records)

    def test_certain_outcome_is_a_ratings_error(self):
        # E rounds to exactly 1.0, so the match carries no information
        system = GlickoSystem()
        match = quick_match([1, 2], match_id="lopsided")
        state = {
            "t1_p1": PlayerRating(mu=1e6, sigma=1.0),
            "t2_p1": PlayerRating(mu=0.0, sigma=1.0),
        }
        with pytest.raises(RatingsError, match="lopsided"):
            system.update_match(state, match, 0)

    def test_params_validated(self):
        with pytest.raises(DomainError):
            GlickoParams(default_sigma=0.0)
        with pytest.raises(DomainError):
            GlickoParams(q_constant=-1.0)

    def test_default_q_is_ln10_over_400(self):
        assert GlickoParams().q_constant == pytest.approx(Q, abs=0)
