"""The shared update path: member weights and the one state write per match."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from royale_ratings.core import (
    DomainError,
    MatchRecord,
    PlayerRating,
    RatingsError,
    TeamEntry,
)
from royale_ratings.elo import EloSystem
from royale_ratings.glicko import GlickoSystem
from royale_ratings.systems import make_system
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

    def _apply(self, rosters, match):
        posteriors = super()._apply(rosters, match)
        posteriors[-1] = [(math.inf, None) for _ in posteriors[-1]]
        return posteriors


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
