"""Property test of every rating system at extreme but finite parameters.

Parameters, ratings and deviations range up to about 1e300, matches have
2-8 teams of 1-4 members.  Each update, through ``update_match`` on a
plain dict and through ``replay`` (whose loop hands the table
precompiled rows), must either raise a ``RatingsError`` (``DomainError``
is one) that names the match and leaves its members unchanged, or:

- leave every member with a finite mu and, for systems that carry one,
  a finite positive sigma;
- move some rating when the observed order differs from the predicted
  one (a match predicted exactly may leave the ratings where they are:
  Elo's pooled probabilities can saturate at the observed results);
  prevrank, which infers no skill, must store every team's placement;
- move no member against its team's result: the winners never lose mu,
  the last team never gains it, and the members of a team that takes one
  split of one team delta never move in opposite directions.  That is
  every team under Elo and Glicko; TrueSkill's chain splits a delta to a
  middle team twice, as the loser of the pair above and the winner of
  the pair below, each split moving every member with that pair's result.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import replace
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import PlayerRating, RatingsError, build_match
from royale_ratings.replay import replay
from royale_ratings.systems import SYSTEM_NAMES, make_system
from royale_ratings.trueskill import MEMBER_SHARES

from conftest import BASE_TIME

MAGNITUDE = st.floats(min_value=1e-300, max_value=1e300)
SIGNED = MAGNITUDE | MAGNITUDE.map(lambda value: -value) | st.just(0.0)


@st.composite
def systems(draw):
    name = draw(st.sampled_from(SYSTEM_NAMES))
    if name == "elo":
        params = dict(
            k_factor=draw(MAGNITUDE),
            d_scale=draw(MAGNITUDE),
            default_rating=draw(SIGNED),
        )
    elif name == "glicko":
        params = dict(
            default_mu=draw(SIGNED),
            default_sigma=draw(MAGNITUDE),
            q_constant=draw(MAGNITUDE),
        )
    elif name == "trueskill":
        params = dict(
            default_mu=draw(SIGNED),
            default_sigma=draw(MAGNITUDE),
            beta=draw(MAGNITUDE),
            tau_dynamics=draw(MAGNITUDE | st.just(0.0)),
            member_share=draw(st.sampled_from(MEMBER_SHARES)),
        )
    else:
        params = {}
    return make_system(name, **params)


@st.composite
def matches(draw, pool, match_id="m1", minute=0):
    """A match of 2-8 teams of 1-4 members drawn from ``pool`` (>= 8) players."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=8))
    while sum(sizes) > pool:
        sizes.pop()
    players = iter(draw(st.permutations(range(pool))))
    rosters = [[f"p{next(players)}" for _ in range(size)] for size in sizes]
    ranks = draw(st.permutations(range(1, len(sizes) + 1)))
    team_ids = [f"t{i}" for i in range(1, len(sizes) + 1)]
    stamp = BASE_TIME + timedelta(minutes=minute)
    return build_match(match_id, stamp, team_ids, rosters, ranks)


def sign(after: float, before: float) -> int:
    return (after > before) - (after < before)


def check_update(name, update_match, state, match, seed):
    """One ``update_match`` call, checked against the property; a
    ``RatingsError`` is checked and raised again."""
    before = {p: state[p] for p in match.roster}
    try:
        ranking = update_match(state, match, seed)
    except RatingsError as exc:
        assert f"match {match.match_id!r}" in str(exc)
        assert {p: state[p] for p in match.roster} == before
        raise
    after = {p: state[p] for p in match.roster}
    for rating in after.values():
        assert math.isfinite(rating.mu)
        if rating.sigma is not None:
            assert math.isfinite(rating.sigma) and rating.sigma > 0
    teams = match.teams
    if name == "prevrank":
        for team in teams:
            placements = {after[p].last_observed_rank for p in team.members}
            assert placements == {team.observed_rank}
        return ranking
    observed = tuple(t.team_id for t in sorted(teams, key=lambda t: t.observed_rank))
    if ranking.order != observed:
        assert any(
            after[p].mu != before[p].mu or after[p].sigma != before[p].sigma
            for p in match.roster
        ), "an upset moved no rating"
    last = len(teams)
    for team in teams:
        moves = {sign(after[p].mu, before[p].mu) for p in team.members}
        if name != "trueskill" or team.observed_rank in (1, last):
            assert not {1, -1} <= moves, f"team {team.team_id} members moved apart"
        if team.observed_rank == 1:
            assert -1 not in moves, "a winner lost mu"
        if team.observed_rank == last:
            assert 1 not in moves, "the last team gained mu"
    return ranking


RATINGS = st.builds(
    PlayerRating,
    mu=SIGNED,
    sigma=MAGNITUDE,
    games_played=st.integers(0, 5),
    last_observed_rank=st.none() | st.integers(1, 8),
)


@settings(max_examples=400, deadline=None)
@given(systems(), matches(pool=40), st.data())
def test_update_match_on_a_dict(system, match, data):
    carries_sigma = system.initial_rating().sigma is not None
    state = {}
    for player in match.roster:
        rating = data.draw(st.just(system.initial_rating()) | RATINGS)
        if not carries_sigma:
            rating = replace(rating, sigma=None)
        state[player] = rating
    seed = data.draw(st.integers(0, 2**63 - 1))
    with suppress(RatingsError):
        check_update(system.name, system.update_match, state, match, seed)


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_replay_of_the_compiled_stream(system, data):
    count = data.draw(st.integers(1, 4))
    log = [data.draw(matches(12, match_id=f"m{i}", minute=i)) for i in range(count)]
    update_match = system.update_match
    checked = []

    def checked_update(state, match, seed):
        checked.append(match.match_id)
        return check_update(system.name, update_match, state, match, seed)

    system.update_match = checked_update
    try:
        replay(log, system, seed=data.draw(st.integers(0, 1000)))
    except RatingsError:
        pass
    else:
        assert len(checked) == count
    assert checked == [m.match_id for m in log[: len(checked)]]
