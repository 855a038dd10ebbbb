"""Differential test of the match update against the in-place reference.

The reference below is the update as it stood before ``_apply`` became a
pure function: each system rewrote ``state[player]`` through
``dataclasses.replace`` as it went (TrueSkill once for the tau
inflation and once per chain pair), and a bookkeeping pass then rewrote
every member again with ``games_played + 1`` and the placement.  One
rule differs from that update: with ``member_share="mu"`` a TrueSkill
team keeps the mu shares of its first split for its second, so its
members move the same way as the team.  It
calls the production weight rule and the production kernels, so the
test checks only the restructuring: every ``PlayerRating``, every
prediction and every WARNING record, in order, must be exactly equal,
match after match.  Production runs on a plain dict and on a
``RatingTable``; the array code behind both must round exactly like the
scalar reference, so teams go up to 10 members, where numpy's pairwise
``sum`` would already differ from adding left to right.  The reference's
float sums are ``left_sum``, left to right on every Python, which the
builtin ``sum`` is not from 3.12 on.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings import trueskill
from royale_ratings.core import (
    DomainError,
    MatchRecord,
    PlayerRating,
    RatingsError,
    TeamEntry,
    normalized_result,
)
from royale_ratings.elo import EloSystem
from royale_ratings.elo import win_probabilities as elo_win_probabilities
from royale_ratings.glicko import GlickoSystem, g_weight, team_mu_sigma
from royale_ratings.glicko import win_probabilities as glicko_win_probabilities
from royale_ratings.prevrank import PreviousRankSystem
from royale_ratings.systems import RatingTable, left_sum, member_weights
from royale_ratings.trueskill import TrueSkillParams, TrueSkillSystem, update_pair

from conftest import BASE_TIME

POOL = 330  # more players than the largest match (32 teams of 10)


def elo_reference(system, state, match):
    n = match.team_count
    team_mus = [float(left_sum([state[p].mu for p in t.members])) for t in match.teams]
    pooled = elo_win_probabilities(team_mus, system.params)
    for team, prob in zip(match.teams, pooled):
        surprise = normalized_result(team.observed_rank, n) - float(prob)
        delta_team = system.params.k_factor * surprise
        weights = member_weights([state[p].mu for p in team.members], team.team_id)
        for player, weight in zip(team.members, weights):
            r = state[player]
            state[player] = replace(r, mu=r.mu + weight * delta_team)


def glicko_reference(system, state, match):
    q = system.params.q_constant
    n = match.team_count
    beliefs = [
        team_mu_sigma(
            [state[p].mu for p in team.members],
            [state[p].sigma for p in team.members],
        )
        for team in match.teams
    ]
    team_mus = [b[0] for b in beliefs]
    team_sigmas = [b[1] for b in beliefs]
    pooled = glicko_win_probabilities(team_mus, team_sigmas, system.params)
    for i, team in enumerate(match.teams):
        mu_t, sigma_t = beliefs[i]
        expected = float(pooled[i])
        residual = normalized_result(team.observed_rank, n) - expected
        opp_rms = math.sqrt(
            left_sum(team_sigmas[j] ** 2 for j in range(n) if j != i) / (n - 1)
        )
        g_opp = g_weight(opp_rms, q)
        information = q * q * g_opp * g_opp * expected * (1.0 - expected)
        if not information > 0:
            raise RatingsError(f"match {match.match_id!r}: certain outcome")
        d_squared = 1.0 / information
        precision = 1.0 / sigma_t**2 + 1.0 / d_squared
        delta_mu_team = (q / precision) * g_opp * residual
        delta_sigma_team = math.sqrt(1.0 / precision) - sigma_t
        mu_weights = member_weights([state[p].mu for p in team.members], team.team_id)
        sigma_weights = [state[p].sigma / sigma_t for p in team.members]
        for player, w_mu, w_sigma in zip(team.members, mu_weights, sigma_weights):
            r = state[player]
            state[player] = replace(
                r,
                mu=r.mu + w_mu * delta_mu_team,
                sigma=r.sigma + w_sigma * delta_sigma_team,
            )


def trueskill_reference(system, state, match):
    params = system.params
    tau_sq = params.tau_dynamics**2
    if tau_sq > 0:
        for player in match.players():
            r = state[player]
            state[player] = replace(r, sigma=math.sqrt(r.sigma**2 + tau_sq))

    def team_belief(members):
        return (
            float(left_sum(state[p].mu for p in members)),
            float(left_sum(state[p].sigma ** 2 for p in members)),
        )

    # a team's mu shares from its first split, kept for its second
    mu_shares = {}

    def distribute(members, team_id, team_var, delta_mu, shrink):
        if params.member_share == "mu":
            if team_id not in mu_shares:
                mu_shares[team_id] = member_weights([state[p].mu for p in members], team_id)
            shares = mu_shares[team_id]
        else:
            shares = [state[p].sigma ** 2 / team_var for p in members]
        for player, share in zip(members, shares):
            r = state[player]
            state[player] = replace(
                r, mu=r.mu + share * delta_mu, sigma=r.sigma * shrink
            )

    by_rank = sorted(match.teams, key=lambda t: t.observed_rank)
    for upper, lower in zip(by_rank, by_rank[1:]):
        mu_w, var_w = team_belief(upper.members)
        mu_l, var_l = team_belief(lower.members)
        sigma_w, sigma_l = math.sqrt(var_w), math.sqrt(var_l)
        (new_mu_w, new_sigma_w), (new_mu_l, new_sigma_l) = update_pair(
            (mu_w, sigma_w), (mu_l, sigma_l), params
        )
        distribute(
            upper.members, upper.team_id, var_w, new_mu_w - mu_w, new_sigma_w / sigma_w
        )
        distribute(
            lower.members, lower.team_id, var_l, new_mu_l - mu_l, new_sigma_l / sigma_l
        )


REFERENCE_APPLY = {
    "elo": elo_reference,
    "glicko": glicko_reference,
    "trueskill": trueskill_reference,
    "prevrank": lambda system, state, match: None,
}


def reference_update_match(system, state, match, rng_seed):
    ranking = system.predict(state, match, rng_seed)
    REFERENCE_APPLY[system.name](system, state, match)
    for team in match.teams:
        for player in team.members:
            r = state[player]
            state[player] = replace(
                r,
                games_played=r.games_played + 1,
                last_observed_rank=team.observed_rank,
            )
    return ranking


SYSTEMS = {
    "elo": EloSystem(),
    "glicko": GlickoSystem(),
    "prevrank": PreviousRankSystem(),
    **{
        f"trueskill-{share}-tau{tau}": TrueSkillSystem(
            TrueSkillParams(member_share=share, tau_dynamics=tau)
        )
        for share in ("sigma_sq", "mu")
        for tau in (0.0, TrueSkillParams().tau_dynamics)
    },
}


@st.composite
def match_sequences(draw):
    # rosters come from a drawn seed rather than a drawn permutation of the
    # pool, so a failure shrinks in seconds
    matches = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        sizes = draw(st.lists(st.integers(1, 10), min_size=2, max_size=32))
        ranks = draw(st.permutations(range(1, len(sizes) + 1)))
        roster_rng = random.Random(draw(st.integers(0, 2**32)))
        players = iter(roster_rng.sample(range(POOL), sum(sizes)))
        teams = tuple(
            TeamEntry(
                team_id=f"t{i}",
                members=tuple(f"p{next(players)}" for _ in range(size)),
                observed_rank=rank,
            )
            for i, (size, rank) in enumerate(zip(sizes, ranks))
        )
        matches.append(
            MatchRecord(match_id=f"m{index}", timestamp=BASE_TIME, teams=teams)
        )
    return matches


def start_state(system, seed):
    """A start belief per player, as multiples of the system's default; the
    mu range crosses 0 so the uniform weight fallback runs."""
    rng = random.Random(seed)
    default = system.initial_rating()
    state = {}
    for p in range(POOL):
        mu = default.mu * rng.uniform(-0.5, 2.0)
        sigma = default.sigma
        if sigma is not None:
            sigma *= rng.uniform(0.05, 2.0)
        state[f"p{p}"] = PlayerRating(mu=mu, sigma=sigma)
    return state


LAYOUTS = {"dict": dict, "table": RatingTable}


class WarningLog(logging.Handler):
    """Collects the package's WARNING records as (logger, message) pairs."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.records: list[tuple[str, str]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append((record.name, record.getMessage()))

    def __enter__(self) -> list[tuple[str, str]]:
        logging.getLogger("royale_ratings").addHandler(self)
        return self.records

    def __exit__(self, *exc_info) -> None:
        logging.getLogger("royale_ratings").removeHandler(self)


def check_against_reference(system, state, expected, matches, seed):
    for match in matches:
        with WarningLog() as warned:
            try:
                want = reference_update_match(system, expected, match, seed)
            except RatingsError:
                want = None
        with WarningLog() as logged:
            if want is None:
                before = dict(state)
                with pytest.raises(RatingsError):
                    system.update_match(state, match, seed)
            else:
                got = system.update_match(state, match, seed)
        assert logged == warned
        if want is None:
            assert state == before
            return
        assert got == want
        assert state == expected


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(
    matches=match_sequences(),
    start_seed=st.integers(0, 2**32),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
@settings(max_examples=40, deadline=None)
def test_update_matches_the_in_place_reference(name, matches, start_seed, seed):
    system = SYSTEMS[name]
    state = start_state(system, start_seed)
    expected = dict(state)
    check_against_reference(system, state, expected, matches, seed)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@given(
    matches=match_sequences(),
    start_seed=st.integers(0, 2**32),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
@settings(max_examples=40, deadline=None)
def test_table_update_matches_the_in_place_reference(name, matches, start_seed, seed):
    system = SYSTEMS[name]
    expected = start_state(system, start_seed)
    state = RatingTable(expected)
    check_against_reference(system, state, expected, matches, seed)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize(
    "system, team_size, beliefs",
    [
        (GlickoSystem(), 1, [(1500.0, 95.97), (1093.9, 39.1), (1835.8, 168.5)]),
        (
            TrueSkillSystem(TrueSkillParams(tau_dynamics=0.0)),
            2,
            [
                (25.0, 95.97),
                (6.7, 84.9),
                (38.2, 26.3),
                (24.8, 45.5),
                (32.6, 79.1),
                (4.7, 3.8),
            ],
        ),
    ],
    ids=["glicko", "trueskill-tau0"],
)
def test_team_sigma_squared_as_python_squares_it(layout, system, team_size, beliefs):
    # a sigma of 95.97: CPython's 95.97**2 (C pow) can give 9210.2409 where
    # 95.97*95.97 (numpy's x**2) gives 9210.240899999999, and on such a
    # platform these ratings update differently under the two squares
    players = iter(f"p{i}" for i in range(len(beliefs)))
    match = MatchRecord(
        match_id="m1",
        timestamp=BASE_TIME,
        teams=tuple(
            TeamEntry(
                team_id=f"t{i}",
                members=tuple(next(players) for _ in range(team_size)),
                observed_rank=rank,
            )
            for i, rank in enumerate([2, 1, 3])
        ),
    )
    expected = {
        f"p{i}": PlayerRating(mu=mu, sigma=sigma)
        for i, (mu, sigma) in enumerate(beliefs)
    }
    state = LAYOUTS[layout](expected)
    want = reference_update_match(system, expected, match, 5)
    assert system.update_match(state, match, 5) == want
    assert state == expected


# teams of 1-4 members in record order, placed 3, 1, 4, 2; each case gives
# the team at each placement a (mu, sigma), which its j-th member (from 0)
# takes as (mu + j, sigma (1 + j/8))
CHAIN_SIZES = (1, 2, 3, 4)
CHAIN_RANKS = (3, 1, 4, 2)
CHAIN_BELIEFS = {
    # the 2nd-placed team, rated far below the 3rd, wins the middle pair at
    # x near -400, where v and w come from the continued fraction
    "deep-tail": [(25.0, 3.0), (-500.0, 1.0), (500.0, 1.0), (130.0, 5.0)],
    # the 1st-placed team wins the first pair so surely that the 2nd keeps
    # its sigma; then the 2nd's and 3rd's variances, 1.4e308 and 1e308,
    # overflow c^2
    "c2-overflow": [(1e156, 1.0), (0.0, 5e153), (1.0, 1e154), (20.0, 5.0)],
}
TRUESKILL_SYSTEMS = sorted(name for name in SYSTEMS if name.startswith("trueskill"))


def chain_case(case):
    """The case's match and start state."""
    players = iter(f"p{i}" for i in range(sum(CHAIN_SIZES)))
    teams = tuple(
        TeamEntry(
            team_id=f"t{i}",
            members=tuple(next(players) for _ in range(size)),
            observed_rank=rank,
        )
        for i, (size, rank) in enumerate(zip(CHAIN_SIZES, CHAIN_RANKS))
    )
    match = MatchRecord(match_id="m1", timestamp=BASE_TIME, teams=teams)
    beliefs = CHAIN_BELIEFS[case]
    state = {}
    for team in teams:
        mu, sigma = beliefs[team.observed_rank - 1]
        for j, player in enumerate(team.members):
            state[player] = PlayerRating(mu + j, sigma * (1 + j / 8))
    return match, state


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", TRUESKILL_SYSTEMS)
def test_deep_tail_mid_chain_matches_the_reference(layout, name, monkeypatch):
    xs = []
    moments = trueskill._moments

    def recorded(x):
        xs.append(x)
        return moments(x)

    monkeypatch.setattr(trueskill, "_moments", recorded)
    system = SYSTEMS[name]
    match, expected = chain_case("deep-tail")
    state = LAYOUTS[layout](expected)
    with WarningLog() as warned:
        want = reference_update_match(system, expected, match, 5)
    tails = [x for x in xs if x < -40]
    assert len(tails) == 1  # the middle pair, and only it, took the tail
    del xs[:]
    with WarningLog() as logged:
        got = system.update_match(state, match, 5)
    assert [x for x in xs if x < -40] == tails
    assert logged == warned
    assert got == want
    assert state == expected


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", TRUESKILL_SYSTEMS)
def test_c_squared_overflow_mid_chain_names_both_teams(layout, name):
    system = SYSTEMS[name]
    match, expected = chain_case("c2-overflow")
    state = LAYOUTS[layout](expected)
    before = dict(state)
    with WarningLog() as warned:
        with pytest.raises(OverflowError):
            reference_update_match(system, dict(expected), match, 5)
    with WarningLog() as logged:
        with pytest.raises(DomainError) as raised:
            system.update_match(state, match, 5)
    # the 2nd-placed team, t3, wins the failing pair against the 3rd, t0
    assert str(raised.value) == (
        "match 'm1': trueskill update failed "
        "(teams 't3' and 't0' deviations overflow when combined)"
    )
    assert logged == warned
    assert state == before
