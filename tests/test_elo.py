from __future__ import annotations

import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import (
    DomainError,
    MatchRecord,
    MissingStateError,
    PlayerRating,
    TeamEntry,
)
from royale_ratings.elo import EloParams, EloSystem, win_probabilities
from royale_ratings.systems import RatingTable, member_weights

from conftest import BASE_TIME, quick_match


def kernel_reference(ratings: list[float], d: float) -> list[float]:
    """Plain-loop pooled probabilities, independent of the vectorized path."""
    n = len(ratings)
    pairs = math.comb(n, 2)
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            if j != i:
                total += 1.0 / (1.0 + math.exp((ratings[j] - ratings[i]) / d))
        out.append(total / pairs)
    return out


def fresh_state(match, system):
    return {p: system.initial_rating() for p in match.players()}


class TestTeamRating:
    def test_sums_members(self):
        state = {
            "a": PlayerRating(mu=1500.0),
            "b": PlayerRating(mu=1500.0),
            "c": PlayerRating(mu=-10.0),
            "d": PlayerRating(mu=25.0),
        }
        match = MatchRecord(
            match_id="m1",
            timestamp=BASE_TIME,
            teams=(
                TeamEntry(team_id="t1", members=("a", "b"), observed_rank=1),
                TeamEntry(team_id="t2", members=("c", "d"), observed_rank=2),
            ),
        )
        system = EloSystem()
        scores = system.team_scores(RatingTable(state).gather(match))
        assert scores.tolist() == [3000.0, 15.0]


class TestContributionWeights:
    def test_proportional_split(self):
        assert member_weights([1200.0, 1800.0], "t1") == [0.4, 0.6]

    @pytest.mark.parametrize(
        "mus", [[100.0, -100.0], [3900.0, -1900.0], [0.0, 50.0], [-5.0]]
    )
    def test_any_non_positive_member_gets_uniform_weights(self, mus, caplog):
        with caplog.at_level(logging.WARNING):
            weights = member_weights(mus, "t1")
        assert weights == [1.0 / len(mus)] * len(mus)
        assert any("uniform member weights" in r.message for r in caplog.records)

    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_weights_sum_to_one(self, mus):
        assert sum(member_weights(mus, "t1")) == pytest.approx(1.0, abs=1e-9)


class TestWinProbability:
    def test_two_teams_with_log9_gap(self):
        # rating gap d*ln(9) makes the pairwise kernel exactly 9:1
        params = EloParams()
        gap = params.d_scale * math.log(9.0)
        probs = win_probabilities([3000.0, 3000.0 + gap], params)
        assert probs[1] == pytest.approx(0.9, abs=1e-12)
        assert probs[0] == pytest.approx(0.1, abs=1e-12)

    def test_three_teams_match_plain_loop(self):
        params = EloParams()
        ratings = [3100.0, 3000.0, 2900.0]
        probs = win_probabilities(ratings, params)
        expected = kernel_reference(ratings, params.d_scale)
        for got, want in zip(probs, expected):
            assert got == pytest.approx(want, abs=1e-12)
        assert probs[0] > probs[1] > probs[2]

    def test_equal_teams_get_one_over_n(self):
        probs = win_probabilities([1500.0] * 7, EloParams())
        for p in probs:
            assert p == pytest.approx(1 / 7, abs=1e-12)

    @given(
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=200)
    def test_simplex(self, ratings):
        probs = win_probabilities(ratings, EloParams())
        assert abs(float(probs.sum()) - 1.0) < 1e-9
        assert all(p > 0 for p in probs)


class TestEloUpdate:
    def test_three_fresh_duos_split_k_evenly(self):
        system = EloSystem()
        match = quick_match([1, 2, 3], team_size=2)
        state = fresh_state(match, system)
        system.update_match(state, match, rng_seed=0)
        # R' = (2/3, 1/3, 0), Pr = 1/3 each, team deltas K*(R'-Pr)
        deltas = {"t1": 10 / 3, "t2": 0.0, "t3": -10 / 3}
        for team in match.teams:
            for player in team.members:
                expected = 1500.0 + deltas[team.team_id] / 2
                assert state[player].mu == pytest.approx(expected, abs=1e-12)
                assert state[player].games_played == 1
                assert state[player].last_observed_rank == team.observed_rank

    def test_prediction_uses_pre_match_ratings(self):
        system = EloSystem()
        match = quick_match([2, 1], team_size=1)
        state = {"t1_p1": PlayerRating(mu=1600.0), "t2_p1": PlayerRating(mu=1400.0)}
        before = dict(state)
        expected = system.predict(before, match, rng_seed=9)
        ranking = system.update_match(state, match, rng_seed=9)
        assert ranking == expected
        assert ranking.order == ("t1", "t2")  # higher rating predicted first

    def test_missing_player_state_raises(self):
        system = EloSystem()
        match = quick_match([1, 2])
        with pytest.raises(MissingStateError):
            system.update_match({"t1_p1": PlayerRating(mu=1500.0)}, match, 0)

    def test_non_positive_team_falls_back_to_uniform(self, caplog):
        system = EloSystem()
        match = quick_match([1, 2], team_size=2)
        state = fresh_state(match, system)
        state["t1_p1"] = PlayerRating(mu=-50.0)
        state["t1_p2"] = PlayerRating(mu=20.0)
        with caplog.at_level(logging.WARNING):
            system.update_match(state, match, 0)
        assert any("uniform member weights" in r.message for r in caplog.records)
        # both members moved by the same amount
        d1 = state["t1_p1"].mu - (-50.0)
        d2 = state["t1_p2"].mu - 20.0
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_translation_leaves_prediction_unchanged(self):
        system = EloSystem()
        match = quick_match([3, 1, 2], team_size=2)
        state = fresh_state(match, system)
        mus = [1480.0, 1520.0, 1510.0, 1490.0, 1655.0, 1345.0]
        for player, mu in zip(match.players(), mus):
            state[player] = PlayerRating(mu=mu)
        shifted = {
            p: PlayerRating(mu=r.mu + 250.0) for p, r in state.items()
        }
        assert (
            system.predict(state, match, 7).order
            == system.predict(shifted, match, 7).order
        )

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10**6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_sum_over_random_matches(self, n_teams, team_size, seed, data):
        system = EloSystem()
        ranks = data.draw(st.permutations(range(1, n_teams + 1)))
        match = quick_match(list(ranks), team_size=team_size)
        state = fresh_state(match, system)
        for player in match.players():
            mu = data.draw(
                st.floats(min_value=100.0, max_value=3000.0, allow_nan=False)
            )
            state[player] = PlayerRating(mu=mu)
        before = {t.team_id: sum(state[p].mu for p in t.members) for t in match.teams}
        system.update_match(state, match, seed)
        after = {t.team_id: sum(state[p].mu for p in t.members) for t in match.teams}
        drift = sum(after[t] - before[t] for t in before)
        assert abs(drift) < 1e-9

    def test_two_team_transfer_is_symmetric(self):
        system = EloSystem()
        match = quick_match([1, 2])
        state = fresh_state(match, system)
        system.update_match(state, match, 0)
        gain = state["t1_p1"].mu - 1500.0
        loss = state["t2_p1"].mu - 1500.0
        assert gain == pytest.approx(-loss, abs=1e-12)
        assert gain > 0

    def test_params_validated(self):
        with pytest.raises(DomainError):
            EloParams(k_factor=0.0)
        with pytest.raises(DomainError):
            EloParams(d_scale=-1.0)

    def test_params_dict_round_trips(self):
        system = EloSystem(EloParams(k_factor=24.0))
        assert system.params_dict() == {
            "k_factor": 24.0,
            "d_scale": 400.0,
            "default_rating": 1500.0,
        }
