"""Differential test of the compiled replay against the per-match loop.

``replay`` compiles the match stream before its loop: every player's
table row in first-appearance order, one insert of every row, one flat
array of member rows whose slices the loop hands to ``gather``, new
players counted from the highest row seen, and a player index built from
one argsort of that array.  The reference below is the loop as it stood
before: per match it looked up the members without a row, inserted them,
updated, scored, and appended the match to one list per player.

Logs are drawn with mixed team sizes, players who come back, prediction
ties (new players share the default rating, and prevrank ties often) and
mu <= 0 weight fallbacks (defaults at or below zero, large K factors).
Both replays must give equal rankings, metric reports, new-player
fractions, player indexes (in their order), store bytes and warning
records in order, or the same error.
"""

from __future__ import annotations

import logging
import random
from collections import defaultdict
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from royale_ratings.core import RatingsError, build_match
from royale_ratings.metrics import POSITION_INDICES, rank_pairs, score_match
from royale_ratings.replay import MatchReport, ReplayResult, replay
from royale_ratings.store import RatingStore
from royale_ratings.systems import RatingTable, make_system

from conftest import BASE_TIME


def reference_replay(matches, system, *, seed=0, position_index="observed"):
    rng = random.Random(seed)
    state = RatingTable()
    reports: list[MatchReport] = []
    player_matches: dict[str, list[int]] = defaultdict(list)
    for index, match in enumerate(matches):
        players = match.roster
        unseen = state.missing(players)
        if unseen:
            state.insert(unseen, [system.initial_rating() for _ in unseen])
        match_seed = rng.randrange(2**63)
        ranking = system.update_match(state, match, match_seed)
        pairs = rank_pairs(ranking, match)
        reports.append(
            MatchReport(
                match=match,
                ranking=ranking,
                metrics=score_match(pairs, position_index=position_index),
                new_player_fraction=len(unseen) / len(players),
            )
        )
        for player in players:
            player_matches[player].append(index)
    store = RatingStore(
        system=system.name,
        params=system.params_dict(),
        seed=seed,
        matches_processed=len(matches),
        ratings=state,
    )
    return ReplayResult(
        store=store, reports=reports, player_match_index=dict(player_matches)
    )


SYSTEMS = {
    "elo": st.fixed_dictionaries(
        {
            "k_factor": st.sampled_from([10.0, 400.0, 5000.0]),
            "default_rating": st.sampled_from([1500.0, 1.0, 0.0, -20.0]),
        }
    ),
    "glicko": st.fixed_dictionaries(
        {"default_mu": st.sampled_from([1500.0, 1.0, 0.0, -20.0])}
    ),
    "trueskill": st.fixed_dictionaries(
        {
            "default_mu": st.sampled_from([25.0, 0.5, 0.0, -3.0]),
            "member_share": st.sampled_from(["sigma_sq", "mu"]),
        }
    ),
    "prevrank": st.just({}),
}


@st.composite
def logs(draw):
    """1-10 matches of 2-5 teams of 1-3 members from a pool of 16 players."""
    count = draw(st.integers(1, 10))
    matches = []
    for index in range(count):
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=5))
        players = iter(draw(st.permutations(range(16))))
        rosters = [[f"p{next(players)}" for _ in range(size)] for size in sizes]
        ranks = draw(st.permutations(range(1, len(sizes) + 1)))
        team_ids = [f"t{i}" for i in range(len(sizes))]
        stamp = BASE_TIME + timedelta(minutes=index)
        matches.append(build_match(f"m{index}", stamp, team_ids, rosters, ranks))
    return matches


def run(replayer, matches, system, seed, position_index, caplog, path):
    caplog.clear()
    try:
        result = replayer(matches, system, seed=seed, position_index=position_index)
    except RatingsError as exc:
        return ("error", type(exc), str(exc)), caplog.record_tuples
    result.store.save(path)
    reports = result.reports
    outcome = (
        [(r.match, r.ranking, r.metrics, r.new_player_fraction) for r in reports],
        list(result.player_match_index.items()),
        path.read_bytes(),
    )
    return outcome, caplog.record_tuples


@pytest.mark.parametrize("position_index", POSITION_INDICES)
@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_compiled_replay_equals_the_reference(
    name, position_index, data, caplog, tmp_path
):
    system = make_system(name, **data.draw(SYSTEMS[name]))
    matches = data.draw(logs())
    seed = data.draw(st.integers(0, 2**32))
    with caplog.at_level(logging.WARNING, logger="royale_ratings"):
        args = matches, system, seed, position_index, caplog
        expected = run(reference_replay, *args, tmp_path / "a")
        got = run(replay, *args, tmp_path / "b")
    assert got == expected


def test_player_index_is_a_read_only_mapping():
    matches = [
        build_match("m0", BASE_TIME, ["a", "b"], [["p1", "p2"], ["p3"]], [1, 2]),
        build_match("m1", BASE_TIME, "abc", [["p3"], ["p4"], ["p1"]], [3, 1, 2]),
    ]
    index = replay(matches, make_system("elo")).player_match_index
    assert list(index) == ["p1", "p2", "p3", "p4"]
    assert index == {"p1": [0, 1], "p2": [0], "p3": [0, 1], "p4": [1]}
    assert "p9" not in index and len(index) == 4
    with pytest.raises(KeyError):
        index["p9"]
    with pytest.raises(TypeError):
        index["p9"] = [0]
