"""The shared update path: member weights, the rating table and the one
state write per match."""

from __future__ import annotations

import logging
import math
from dataclasses import fields, replace

import pytest

from royale_ratings.core import (
    DomainError,
    MatchRecord,
    MissingStateError,
    PlayerRating,
    RatingsError,
    TeamEntry,
)
from royale_ratings.elo import EloParams, EloSystem
from royale_ratings.glicko import GlickoParams, GlickoSystem
from royale_ratings.systems import SYSTEM_NAMES, RatingTable, make_system
from royale_ratings.trueskill import TrueSkillParams, TrueSkillSystem

from conftest import BASE_TIME, quick_match

MU_SPLIT_SYSTEMS = {
    "elo": EloSystem(),
    "glicko": GlickoSystem(),
    "trueskill-mu": TrueSkillSystem(TrueSkillParams(member_share="mu")),
}


@pytest.mark.parametrize("name", sorted(MU_SPLIT_SYSTEMS))
@pytest.mark.parametrize("mixed_rank", [1, 2])
def test_mixed_sign_team_members_move_with_the_result(name, mixed_rank):
    # a duo rated 3900 and -1900 on the Elo scale: the team total is
    # positive, but a mu-proportional share of the -1900 member is negative
    system = MU_SPLIT_SYSTEMS[name]
    match = quick_match([mixed_rank, 3 - mixed_rank], team_size=2)
    state = {p: system.initial_rating() for p in match.players()}
    scale = system.initial_rating().mu / 1500.0
    state["t1_p1"] = replace(state["t1_p1"], mu=3900.0 * scale)
    state["t1_p2"] = replace(state["t1_p2"], mu=-1900.0 * scale)
    before = dict(state)
    system.update_match(state, match, 0)
    for player in match.teams[0].members:
        if mixed_rank == 1:
            assert state[player].mu > before[player].mu
        else:
            assert state[player].mu < before[player].mu


def test_failed_update_leaves_state_untouched():
    # t2's pooled expectation rounds to 0, so Glicko raises at t2 after it
    # has already computed the posteriors of t0 and t1
    system = GlickoSystem()
    match = MatchRecord(
        match_id="lopsided",
        timestamp=BASE_TIME,
        teams=tuple(
            TeamEntry(team_id=f"t{i}", members=(f"p{i}",), observed_rank=i + 1)
            for i in range(3)
        ),
    )
    state = {p: system.initial_rating() for p in match.players()}
    state["p2"] = PlayerRating(mu=-1e6, sigma=system.params.default_sigma)
    before = dict(state)
    with pytest.raises(RatingsError, match="'t2'"):
        system.update_match(state, match, 0)
    assert state == before


class InvalidLastTeamElo(EloSystem):
    """Elo whose last team gets a posterior that is not a valid rating."""

    def _apply(self, block):
        mu, sigma = super()._apply(block)
        mu[-1] = math.inf
        return mu, sigma


def test_invalid_posterior_leaves_state_untouched():
    system = InvalidLastTeamElo()
    match = quick_match([1, 2, 3], team_size=2)
    state = {p: system.initial_rating() for p in match.players()}
    before = dict(state)
    with pytest.raises(DomainError, match="finite"):
        system.update_match(state, match, 0)
    assert state == before


@pytest.mark.parametrize(
    "name, overrides",
    [
        # params.beta**2 overflows in the pair update
        ("trueskill", {"beta": 1e300}),
        # a team deviation of 1e-300 squares to 0.0 in 1 / sigma_t**2
        ("glicko", {"default_sigma": 1e-300}),
    ],
)
def test_arithmetic_failure_is_a_ratings_error(name, overrides):
    system = make_system(name, **overrides)
    match = quick_match([2, 1], match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    before = dict(state)
    with pytest.raises(RatingsError, match=f"match 'm7': {name} update failed"):
        system.update_match(state, match, 0)
    assert state == before


@pytest.mark.parametrize(
    "name, field",
    [("elo", "default_rating"), ("glicko", "default_mu"), ("trueskill", "default_mu")],
)
def test_team_score_overflow_is_a_ratings_error(name, field):
    # two members rated 1e308 sum past the largest double; no RuntimeWarning
    # may escape (the suite turns one into an error)
    system = make_system(name, **{field: 1e308})
    match = quick_match([2, 1], team_size=2, match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    before = dict(state)
    with pytest.raises(RatingsError, match=f"match 'm7': {name} prediction failed"):
        system.update_match(state, match, 0)
    assert state == before


@pytest.mark.parametrize(
    "winner, loser, message",
    [
        # every sigma squares to 0.0, so the team sigma is 0
        ([(25.0, 1e-300)], [(25.0, 1e-300)], "sigmas must be positive"),
        # an upset this deep shrinks the loser's sigma by ~4e-19, which
        # takes a denormal member sigma to 0.0
        (
            [(-0.5e20, 1.0), (-0.5e20, 1.0)],
            [(0.5e20, 1e10), (0.5e20, 1e-310)],
            "player sigma must be positive, got 0.0",
        ),
    ],
)
def test_update_domain_error_names_the_match(winner, loser, message):
    system = TrueSkillSystem(TrueSkillParams(tau_dynamics=0.0))
    match = quick_match([1, 2], team_size=len(winner), match_id="m7")
    state = {
        f"t{team}_p{member}": PlayerRating(mu=mu, sigma=sigma)
        for team, members in ((1, winner), (2, loser))
        for member, (mu, sigma) in enumerate(members, start=1)
    }
    before = dict(state)
    expected = f"match 'm7': trueskill update failed \\({message}"
    with pytest.raises(DomainError, match=expected):
        system.update_match(state, match, 0)
    assert state == before


@pytest.mark.parametrize("name", ["glicko", "trueskill"])
@pytest.mark.parametrize("sigma", [1e160, 1e308])
def test_deviation_overflow_names_the_team(name, sigma):
    # one member of the second team in record order carries a deviation
    # whose square passes the largest double; no RuntimeWarning may escape
    system = make_system(name)
    match = quick_match([2, 1, 3], team_size=2, match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    state["t2_p2"] = replace(state["t2_p2"], sigma=sigma)
    before = dict(state)
    expected = (
        f"match 'm7': {name} update failed "
        r"\(team 't2' deviation overflows when squared\)$"
    )
    with pytest.raises(DomainError, match=expected):
        system.update_match(state, match, 0)
    assert state == before


@pytest.mark.parametrize(
    "name, sigma, teams, pair",
    [
        # squares of 1e308 are finite, but two of them sum past the
        # largest double: in Glicko's pairwise kernel, and in TrueSkill's
        # c^2, where the pair update used to return both priors unchanged
        ("glicko", 1e154, 3, "teams 't1' and 't2'"),
        ("trueskill", 1e154, 3, "teams 't2' and 't1'"),
        # no two squares of 0.4 * the largest double overflow, but the
        # three opponents of a team in Glicko's aggregate do
        ("glicko", 8.5e153, 4, "team 't1' opponents'"),
    ],
)
def test_combined_deviation_overflow_names_the_teams(name, sigma, teams, pair):
    system = make_system(name, default_sigma=sigma)
    match = quick_match([2, 1, *range(3, teams + 1)], match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    before = dict(state)
    expected = (
        f"match 'm7': {name} update failed "
        rf"\({pair} deviations overflow when combined\)$"
    )
    with pytest.raises(DomainError, match=expected):
        system.update_match(state, match, 0)
    assert state == before


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_initial_rating_is_built_once(name):
    system = make_system(name)
    rating = system.initial_rating()
    assert system.initial_rating() is rating
    params = system.params_dict()
    mu = params.get("default_rating", params.get("default_mu", 0.0))
    assert rating == PlayerRating(mu=mu, sigma=params.get("default_sigma"))


FLOAT_PARAMS = [
    (name, field.name)
    for name, params in (
        ("elo", EloParams),
        ("glicko", GlickoParams),
        ("trueskill", TrueSkillParams),
    )
    for field in fields(params)
    if field.type == "float"
]


@pytest.mark.parametrize("name, field", FLOAT_PARAMS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_system_parameters_are_rejected(name, field, value):
    with pytest.raises(DomainError, match=field):
        make_system(name, **{field: value})


def test_invalid_posterior_leaves_the_table_untouched():
    system = InvalidLastTeamElo()
    match = quick_match([1, 2, 3], team_size=2)
    state = RatingTable({p: system.initial_rating() for p in match.players()})
    before = dict(state)
    with pytest.raises(DomainError, match="player mu must be finite, got inf"):
        system.update_match(state, match, 0)
    assert state == before


def test_certain_outcome_logs_the_earlier_teams_only(caplog):
    # t0 both collapses and falls back to uniform weights, t1 is certain to
    # lose, and t2 (which would fall back too) is never reached
    system = GlickoSystem()
    match = MatchRecord(
        match_id="m3",
        timestamp=BASE_TIME,
        teams=tuple(
            TeamEntry(team_id=f"t{i}", members=(f"a{i}", f"b{i}"), observed_rank=i + 1)
            for i in range(3)
        ),
    )
    state = RatingTable(
        {
            "a0": PlayerRating(mu=-10.0, sigma=0.4),
            "b0": PlayerRating(mu=1500.0, sigma=0.4),
            "a1": PlayerRating(mu=-1e6, sigma=350.0),
            "b1": PlayerRating(mu=1.0, sigma=350.0),
            "a2": PlayerRating(mu=-5.0, sigma=350.0),
            "b2": PlayerRating(mu=1500.0, sigma=350.0),
        }
    )
    before = dict(state)
    with caplog.at_level(logging.WARNING):
        with pytest.raises(RatingsError, match="team 't1' has a certain outcome"):
            system.update_match(state, match, 0)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert messages[0].startswith("match m3: team t0 sigma collapsed to ")
    assert messages[1] == "team t0 has a member rated -10, using uniform member weights"
    assert state == before


class TestRatingTable:
    def test_is_a_mapping_of_player_ratings(self):
        ratings = {
            f"p{i}": PlayerRating(
                mu=float(i),
                sigma=None if i % 2 else 1.0 + i,
                games_played=i,
                last_observed_rank=None if i % 3 else i + 1,
            )
            for i in range(150)  # past the first growth step
        }
        table = RatingTable(ratings)
        assert len(table) == 150
        assert list(table) == list(ratings)
        assert "p7" in table and "q" not in table
        assert table == ratings
        assert table["p3"] == ratings["p3"]

    def test_delete_keeps_the_other_rows(self):
        ratings = {f"p{i}": PlayerRating(mu=float(i)) for i in range(5)}
        table = RatingTable(ratings)
        del table["p1"]
        del ratings["p1"]
        assert list(table) == list(ratings)
        assert table == ratings
        table["p9"] = PlayerRating(mu=9.0, sigma=2.0)
        assert table["p9"] == PlayerRating(mu=9.0, sigma=2.0)
        assert table["p4"] == PlayerRating(mu=4.0)
        with pytest.raises(KeyError):
            table["p1"]

    def test_missing_member_is_a_missing_state_error(self):
        table = RatingTable({"t1_p1": PlayerRating(mu=1500.0)})
        with pytest.raises(MissingStateError, match="1 player\\(s\\), first 't2_p1'"):
            table.gather(quick_match([1, 2]))

    def test_update_matches_the_dict_update(self):
        system = GlickoSystem()
        matches = [
            quick_match([2, 1, 3], team_size=2, match_id=f"m{k}") for k in range(3)
        ]
        as_dict = {p: system.initial_rating() for p in matches[0].players()}
        table = RatingTable(as_dict)
        for match in matches:
            assert system.update_match(table, match, 1) == system.update_match(
                as_dict, match, 1
            )
        assert table == as_dict
        assert table["t2_p1"].games_played == 3
        assert table["t2_p1"].last_observed_rank == 1
