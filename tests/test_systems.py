"""The shared update path: member weights, the rating table and the one
state write per match."""

from __future__ import annotations

import logging
import math
import random
from dataclasses import fields, replace

import numpy as np

import pytest

from royale_ratings import glicko as glicko_module
from royale_ratings import systems as systems_module
from royale_ratings import trueskill as trueskill_module
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
from royale_ratings.replay import replay
from royale_ratings.systems import (
    _SHAPES_KEPT,
    SYSTEM_NAMES,
    RatingTable,
    left_sum,
    make_system,
    member_shares,
    member_weights,
    row_sums,
)
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
    "name, field",
    [("elo", "default_rating"), ("glicko", "default_mu"), ("trueskill", "default_mu")],
)
def test_team_score_overflow_names_the_team(name, field):
    # the first team in record order whose two members' ratings sum past
    # the largest double is named, not numpy's overflow flag
    system = make_system(name, **{field: 1.7e308})
    match = quick_match([2, 1], team_size=2, match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    with pytest.raises(RatingsError) as raised:
        system.update_match(state, match, 0)
    assert str(raised.value) == (
        f"match 'm7': {name} prediction failed (team 't1' rating sum overflows)"
    )


def test_elo_logit_overflow_names_d_scale():
    # a rating gap of 1 over the smallest subnormal d_scale passes the
    # largest double
    system = make_system("elo", d_scale=5e-324)
    match = quick_match([2, 1], match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    state["t1_p1"] = replace(state["t1_p1"], mu=1501.0)
    before = dict(state)
    with pytest.raises(DomainError) as raised:
        system.update_match(state, match, 0)
    assert str(raised.value) == (
        "match 'm7': elo update failed (team rating gap / d_scale overflows)"
    )
    assert state == before


@pytest.mark.parametrize(
    "name, mus, sigma, message",
    [
        ("elo", (1.7e308, -1.7e308), None, "team rating gap / d_scale overflows"),
        ("glicko", (1.7e308, -1.7e308), 10.0, "team rating gap overflows"),
        # the gap is finite, the kernel's scaled gap is not
        ("glicko", (0.0, 1e308), 10.0, "team rating gap overflows"),
        ("trueskill", (1.7e308, -1.7e308), 1.0, "team rating gap overflows"),
    ],
    ids=["elo", "glicko", "glicko-scaled", "trueskill"],
)
def test_rating_gap_overflow_names_the_gap(name, mus, sigma, message):
    system = make_system(name)
    match = quick_match([2, 1], match_id="m7")
    state = {
        player: PlayerRating(mu, sigma) for player, mu in zip(match.players(), mus)
    }
    before = dict(state)
    with pytest.raises(DomainError) as raised:
        system.update_match(state, match, 0)
    assert str(raised.value) == f"match 'm7': {name} update failed ({message})"
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

@pytest.mark.parametrize("sigma", [1e-170, 1e-155])
def test_glicko_deviation_underflow_names_the_team(sigma):
    # every member of the second team in record order carries a deviation
    # whose team square falls below the smallest normal double: 0.0 at
    # 1e-170, which 1 / sigma_t^2 divides by, and a subnormal at 1e-155,
    # whose reciprocal passes the largest double
    system = make_system("glicko")
    match = quick_match([2, 1, 3], team_size=2, match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    for player in ("t2_p1", "t2_p2"):
        state[player] = replace(state[player], sigma=sigma)
    before = dict(state)
    with pytest.raises(DomainError) as raised:
        system.update_match(state, match, 0)
    assert str(raised.value) == (
        "match 'm7': glicko update failed (team 't2' deviation underflows when squared)"
    )
    assert state == before


@pytest.mark.parametrize(
    "overrides, message",
    [
        # beta**2 itself overflows
        ({"beta": 1e300}, "2 beta^2 overflows"),
        # beta**2 is finite, 2 beta^2 is not: no team deviation is at fault
        ({"beta": 1e154}, "2 beta^2 overflows"),
        ({"tau_dynamics": 1e300}, "tau_dynamics^2 overflows"),
    ],
)
def test_trueskill_parameter_overflow_names_the_parameter(overrides, message):
    system = make_system("trueskill", **overrides)
    match = quick_match([2, 1, 3], team_size=2, match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    before = dict(state)
    with pytest.raises(DomainError) as raised:
        system.update_match(state, match, 0)
    assert str(raised.value) == f"match 'm7': trueskill update failed ({message})"
    assert state == before


@pytest.mark.parametrize(
    "team_size, members",
    [
        # a duo team's two inflated variances of about 1e308 sum past the
        # largest double
        (2, 2),
        # so do the two solo teams' in the first pair's c^2
        (1, 2),
    ],
)
def test_trueskill_tau_overflow_over_members_names_the_parameter(team_size, members):
    # tau^2 = 1e308 is finite and every member's own sigma is the default
    system = make_system("trueskill", tau_dynamics=1e154)
    match = quick_match([2, 1, 3], team_size=team_size, match_id="m7")
    state = {p: system.initial_rating() for p in match.players()}
    before = dict(state)
    with pytest.raises(DomainError) as raised:
        system.update_match(state, match, 0)
    assert str(raised.value) == (
        "match 'm7': trueskill update failed "
        f"(tau_dynamics^2 over {members} members overflows)"
    )
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

    def test_is_read_only(self):
        table = RatingTable({"p1": PlayerRating(mu=1.0)})
        with pytest.raises(TypeError):
            table["p1"] = PlayerRating(mu=2.0)
        with pytest.raises(TypeError):
            table["p2"] = PlayerRating(mu=2.0)
        with pytest.raises(TypeError):
            del table["p1"]
        assert dict(table) == {"p1": PlayerRating(mu=1.0)}

    def test_repr_shows_the_ratings(self):
        table = RatingTable({"p1": PlayerRating(mu=1.5, sigma=2.0)})
        assert repr(table) == (
            "RatingTable({'p1': PlayerRating(mu=1.5, sigma=2.0, "
            "games_played=0, last_observed_rank=None)})"
        )

    def test_update_drops_the_kept_block(self):
        system = GlickoSystem()
        match = quick_match([2, 1, 3], team_size=2)
        table = RatingTable({p: system.initial_rating() for p in match.roster})
        before = table.gather(match)
        assert table.gather(match) is before
        system.update_match(table, match, 0)
        after = table.gather(match)
        assert after is not before
        assert after.mu.tolist() == [
            [table[p].mu for p in match.roster[:2]],
            [table[p].mu for p in match.roster[2:4]],
            [table[p].mu for p in match.roster[4:]],
        ]
        assert after.last_rank.tolist() == [[2, 2], [1, 1], [3, 3]]
        assert not np.array_equal(after.mu, before.mu)

    def test_insert_keeps_the_gathered_rows(self):
        match = quick_match([2, 1, 3], team_size=2)
        ratings = {
            p: PlayerRating(mu=100.0 + i, sigma=1.0 + i, games_played=i)
            for i, p in enumerate(match.roster)
        }
        table = RatingTable(ratings)
        before = table.gather(match)
        # past the first growth step, so every column is reallocated
        others = [f"q{i}" for i in range(100)]
        table.insert(others, [PlayerRating(mu=7.5, sigma=0.25)] * len(others))
        assert len(table) == 106
        assert table.gather(match) is before
        # an equal match, not the same record, so the table gathers it afresh
        fresh = table.gather(quick_match([2, 1, 3], team_size=2))
        assert fresh is not before
        for name in ("rows", "mask", "sizes", "ranks", "mu", "sigma", "last_rank"):
            np.testing.assert_array_equal(getattr(before, name), getattr(fresh, name))

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


def two_team_matches(largest):
    """A match per (a, b) team-size pair in 1..largest, each a distinct
    block shape; the teams draw members from two shared pools, so ratings
    carry over from match to match."""
    matches = []
    for a in range(1, largest + 1):
        for b in range(1, largest + 1):
            teams = (
                TeamEntry("t1", tuple(f"a{j}" for j in range(a)), 1 + (a + b) % 2),
                TeamEntry("t2", tuple(f"b{j}" for j in range(b)), 2 - (a + b) % 2),
            )
            matches.append(MatchRecord(f"m{a}_{b}", BASE_TIME, teams))
    return matches


class TestShapeCache:
    MATCHES = two_team_matches(20)

    def test_blocks_keep_their_shape_across_the_eviction(self):
        assert len(self.MATCHES) > _SHAPES_KEPT
        system = EloSystem()
        players = sorted({p for match in self.MATCHES for p in match.roster})
        table = RatingTable({p: system.initial_rating() for p in players})
        systems_module._block_shape.cache_clear()
        # the second pass rebuilds the shapes that the first pass evicted
        for index, match in enumerate(self.MATCHES * 2):
            block = table.gather(match)
            info = systems_module._block_shape.cache_info()
            assert info.currsize == min(index + 1, _SHAPES_KEPT)
            assert info.misses == index + 1
            assert block.sizes.tolist() == list(match.sizes)
            width = max(match.sizes)
            expected = [[j < size for j in range(width)] for size in match.sizes]
            assert block.mask.tolist() == expected
            assert not block.sizes.flags.writeable and not block.mask.flags.writeable
            assert np.array_equal(block.mu[~block.mask], np.zeros((~block.mask).sum()))

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_replay_across_the_eviction_matches_fresh_tables(self, name):
        # a dict state runs each update on a fresh table of the match's
        # members, which shares the process's shape cache with the replay
        systems_module._block_shape.cache_clear()
        result = replay(self.MATCHES, make_system(name), seed=5)
        info = systems_module._block_shape.cache_info()
        assert info.currsize == _SHAPES_KEPT
        assert info.misses == len(self.MATCHES)
        system = make_system(name)
        state = {}
        rng = random.Random(5)
        for match, report in zip(self.MATCHES, result.reports, strict=True):
            for player in match.roster:
                state.setdefault(player, system.initial_rating())
            ranking = system.update_match(state, match, rng.randrange(2**63))
            assert report.ranking == ranking, match.match_id
        assert dict(result.store.ratings) == state


def neumaier_sum(values, start=0):
    """Compensated float summation, the way the builtin ``sum`` adds
    floats from Python 3.12 on."""
    total = start
    compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


def added_left_to_right(values):
    total = 0
    for value in values:
        total = total + value
    return total


def squad_state(seed, teams=25, size=4):
    """A squad match and a dict state of positive ratings on spread-out
    scales, so that many team sums round."""
    rng = random.Random(seed)
    match = quick_match(rng.sample(range(1, teams + 1), teams), team_size=size)
    state = {
        p: PlayerRating(
            mu=rng.uniform(1.0, 9.0) * 10.0 ** rng.randint(0, 2),
            sigma=rng.uniform(0.1, 9.0),
        )
        for p in match.players()
    }
    return match, state


def rating_bits(state):
    return {p: (r.mu.hex(), r.sigma.hex()) for p, r in state.items()}


class TestFloatSums:
    """Scalar float sums add left to right from 0, whatever the
    interpreter's ``sum`` does: 3.12 on compensates, and rounds some sums
    differently."""

    @pytest.mark.parametrize("member_share", ["sigma_sq", "mu"])
    def test_squad_posterior_does_not_follow_the_builtin_sum(
        self, monkeypatch, member_share
    ):
        system = TrueSkillSystem(TrueSkillParams(member_share=member_share))
        match, state = squad_state(3)
        team_sums = [
            [state[p].mu for p in team.members] for team in match.teams
        ] + [[state[p].sigma ** 2 for p in team.members] for team in match.teams]
        # the compensated sum rounds some of this match's team sums otherwise
        assert any(neumaier_sum(v) != added_left_to_right(v) for v in team_sums)
        expected = dict(state)
        system.update_match(expected, match, 0)
        for module in (trueskill_module, systems_module, glicko_module):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
        patched = dict(state)
        system.update_match(patched, match, 0)
        assert rating_bits(patched) == rating_bits(expected)

    def test_glicko_team_beliefs_do_not_follow_the_builtin_sum(self, monkeypatch):
        rng = random.Random(4)
        teams = [
            ([rng.uniform(1.0, 9.0) * 10.0 ** rng.randint(0, 3) for _ in range(4)],
             [rng.uniform(1.0, 350.0) for _ in range(4)])
            for _ in range(200)
        ]
        expected = [glicko_module.team_mu_sigma(*team) for team in teams]
        monkeypatch.setattr(glicko_module, "sum", neumaier_sum, raising=False)
        patched = [glicko_module.team_mu_sigma(*team) for team in teams]
        assert [tuple(map(float.hex, b)) for b in patched] == [
            tuple(map(float.hex, b)) for b in expected
        ]
        assert patched == [
            (added_left_to_right(mus), added_left_to_right(sigmas))
            for mus, sigmas in teams
        ]

    def test_row_sums_of_minus_zero_keep_its_sign(self):
        """A cumulative sum starts from the row's first value, not from 0."""
        assert math.copysign(1.0, row_sums(np.array([[-0.0, -0.0]]))[0]) == -1.0
        assert math.copysign(1.0, left_sum([-0.0, -0.0])) == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_row_sums_plus_zero_are_left_sums(self, seed):
        """``row_sums(m) + 0.0`` is each row's ``left_sum``, signs included,
        on rows of signed zeros and on rows padded with zeros."""
        rng = random.Random(seed)
        values = [0.0, -0.0, 0.1, -0.1, 3.0, 1e308, -1e308, 5e-324]
        rows = [[-0.0] * 3, [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]] + [
            [rng.choice(values) for _ in range(rng.randint(1, 6))] for _ in range(30)
        ]
        matrix = np.zeros((len(rows), max(map(len, rows))))
        for i, row in enumerate(rows):
            matrix[i, : len(row)] = row
        with np.errstate(over="ignore"):
            sums = (row_sums(matrix) + 0.0).tolist()
        assert list(map(float.hex, sums)) == [float.hex(left_sum(r)) for r in rows]


def shares_block(sizes, low=None, seed=0):
    """A table block of teams with these sizes, members rated 1..2000 at
    random; with ``low``, the second member of every odd team (or its
    only member) is rated ``low`` instead."""
    rng = random.Random(seed)
    teams = tuple(
        TeamEntry(f"t{i}", tuple(f"t{i}_p{j}" for j in range(size)), i + 1)
        for i, size in enumerate(sizes)
    )
    match = MatchRecord("shares", BASE_TIME, teams)
    ratings = {p: PlayerRating(mu=rng.uniform(1.0, 2000.0)) for p in match.roster}
    if low is not None:
        for team in teams[1::2]:
            ratings[team.members[min(1, len(team.members) - 1)]] = PlayerRating(mu=low)
    return RatingTable(ratings).gather(match), ratings


class TestMemberShares:
    """``member_shares`` against ``member_weights`` team by team, on the
    path that returns mu / team mu at once (no member at mu <= 0) and on
    the uniform fallback."""

    CASES = {
        "uniform widths": ((2, 2, 2, 2), None),
        "ragged widths": ((1, 3, 2, 4, 1), None),
        "uniform widths, a zero": ((3, 3, 3, 3), 0.0),
        "ragged widths, a zero": ((2, 1, 4, 3), 0.0),
        "uniform widths, a negative zero": ((2, 2, 2), -0.0),
        "ragged widths, a negative zero": ((4, 2, 1, 3), -0.0),
        "ragged widths, a negative": ((1, 2, 3, 4), -25.0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_shares_and_lowest_equal_member_weights(self, case, caplog):
        sizes, low = self.CASES[case]
        block, ratings = shares_block(sizes, low)
        shares, lowest = member_shares(block, row_sums(block.mu))
        for i, team in enumerate(block.match.teams):
            mus = [ratings[p].mu for p in team.members]
            with caplog.at_level(logging.WARNING):
                weights = member_weights(mus, team.team_id)
            assert [w.hex() for w in weights] == [
                float(s).hex() for s in shares[i, : len(mus)]
            ], team.team_id
            assert [float(s).hex() for s in shares[i, len(mus) :]] == [
                (0.0).hex()
            ] * (shares.shape[1] - len(mus))
            assert float(lowest[i]).hex() == min(mus).hex(), team.team_id
        assert (lowest <= 0).any() == (low is not None)

    @pytest.mark.parametrize("system", [EloSystem(), GlickoSystem()], ids=["elo", "glicko"])
    def test_uniform_weight_warnings_keep_team_order(self, system, caplog):
        block, ratings = shares_block((2, 3, 1, 2, 4, 2), -0.0, seed=1)
        match = block.match
        reference = []
        for team in match.teams:
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                member_weights([ratings[p].mu for p in team.members], team.team_id)
            reference += [record.getMessage() for record in caplog.records]
        assert len(reference) == 3
        state = dict(ratings)
        if isinstance(system, GlickoSystem):
            state = {p: replace(r, sigma=50.0) for p, r in state.items()}
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            system.update_match(state, match, 0)
        uniform = [r.getMessage() for r in caplog.records if "uniform" in r.getMessage()]
        assert uniform == reference

    # teams that hold both zeros, in either order, and a ragged positive team
    BOTH_ZEROS = ([0.0, -0.0, 1.0], [-0.0, 0.0, 2.0], [3.0, -0.0, 0.0, 4.0], [-0.0, 0.0], [7.0])

    def both_zeros_block(self):
        teams = tuple(
            TeamEntry(f"t{i}", tuple(f"t{i}_p{j}" for j in range(len(mus))), i + 1)
            for i, mus in enumerate(self.BOTH_ZEROS)
        )
        match = MatchRecord("zeros", BASE_TIME, teams)
        ratings = {
            p: PlayerRating(mu=mu)
            for team, mus in zip(teams, self.BOTH_ZEROS)
            for p, mu in zip(team.members, mus)
        }
        return RatingTable(ratings).gather(match), ratings

    def test_lowest_of_a_team_with_both_zeros_is_its_first(self, caplog):
        block, ratings = self.both_zeros_block()
        shares, lowest = member_shares(block, row_sums(block.mu))
        for i, team in enumerate(block.match.teams):
            mus = [ratings[p].mu for p in team.members]
            with caplog.at_level(logging.WARNING):
                weights = member_weights(mus, team.team_id)
            assert [w.hex() for w in weights] == [
                float(s).hex() for s in shares[i, : len(mus)]
            ], team.team_id
            assert float(lowest[i]).hex() == min(mus).hex(), team.team_id

    @pytest.mark.parametrize("system", [EloSystem(), GlickoSystem()], ids=["elo", "glicko"])
    def test_warnings_of_teams_with_both_zeros_equal_member_weights(self, system, caplog):
        block, ratings = self.both_zeros_block()
        reference = []
        for team in block.match.teams:
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                member_weights([ratings[p].mu for p in team.members], team.team_id)
            reference += [record.getMessage() for record in caplog.records]
        assert ["rated -0," in m for m in reference] == [False, True, True, True]
        state = dict(ratings)
        if isinstance(system, GlickoSystem):
            state = {p: replace(r, sigma=50.0) for p, r in state.items()}
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            system.update_match(state, block.match, 0)
        uniform = [r.getMessage() for r in caplog.records if "uniform" in r.getMessage()]
        assert uniform == reference
