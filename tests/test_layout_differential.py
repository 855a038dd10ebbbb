"""Differential tests of the per-match layout and the bulk paths built on it.

``core.build_match`` checks a whole match at once and makes its teams
without the per-team checks; the reference is the checked constructors,
``MatchRecord(teams=tuple(TeamEntry(...) ...))``.  Layouts are drawn with
every defect those constructors reject (an empty id, an empty roster, an
empty player id, a player listed twice in one team or in two, a
repeated team id, placements below 1 or not a permutation, fewer than
two teams), and the two must give equal records or the same error.

``RatingTable.insert`` adds many new rows at once; the reference is one
``insert`` per player.  The focal team errors of a cohort
trend are one column aligned with the replay's member array, built from
each match's layout; the reference scans the teams' rosters.
"""

from __future__ import annotations

import dataclasses
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import (
    DomainError,
    MatchRecord,
    PlayerRating,
    PredictedRanking,
    TeamEntry,
    build_match,
)
from royale_ratings.replay import MatchReport, _member_errors
from royale_ratings.systems import RatingTable, rating_columns

from conftest import quick_match

STAMP = datetime(2020, 5, 1, tzinfo=timezone.utc)

DEFECTS = (
    "empty team id",
    "repeated team id",
    "empty roster",
    "empty player id",
    "player twice in a team",
    "player in two teams",
    "placement below 1",
    "placement out of range",
)


@st.composite
def layouts(draw):
    """A valid layout of 0-6 teams, with up to two defects applied."""
    n = draw(st.integers(min_value=0, max_value=6))
    team_ids = [f"t{i}" for i in range(n)]
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    players = iter(range(100))
    rosters = [[f"p{next(players)}" for _ in range(size)] for size in sizes]
    ranks = list(draw(st.permutations(range(1, n + 1))))
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)) if n else ():
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if defect == "empty team id":
            team_ids[i] = ""
        elif defect == "repeated team id":
            team_ids[i] = team_ids[j]
        elif defect == "empty roster":
            rosters[i] = []
        elif defect == "empty player id":
            rosters[i].append("")
        elif defect == "player twice in a team":
            rosters[i].append(rosters[i][0] if rosters[i] else "p0")
        elif defect == "player in two teams":
            rosters[i].append(rosters[j][-1] if rosters[j] else "p0")
        elif defect == "placement below 1":
            ranks[i] = draw(st.integers(-1, 0))
        else:
            ranks[i] = ranks[j] if i != j else n + 1
    return team_ids, rosters, ranks


def reference(match_id, team_ids, rosters, ranks):
    return MatchRecord(
        match_id=match_id,
        timestamp=STAMP,
        teams=tuple(
            TeamEntry(team_id=tid, members=tuple(members), observed_rank=rank)
            for tid, members, rank in zip(team_ids, rosters, ranks)
        ),
    )


def outcome(build, *args):
    try:
        return build(*args), None
    except DomainError as exc:
        return None, str(exc)


def layout(record):
    return record.team_ids, record.ranks, record.sizes, record.roster


class TestBuildMatch:
    @settings(max_examples=400, deadline=None)
    @given(layouts())
    def test_same_record_or_same_error_as_the_checked_constructors(self, drawn):
        team_ids, rosters, ranks = drawn
        built, built_error = outcome(build_match, "m1", STAMP, team_ids, rosters, ranks)
        expected, expected_error = outcome(reference, "m1", team_ids, rosters, ranks)
        assert built_error == expected_error
        if expected is not None:
            assert built == expected
            assert layout(built) == layout(expected)
            assert all(type(team) is TeamEntry for team in built.teams)

    @settings(max_examples=100, deadline=None)
    @given(layouts())
    def test_layout_is_read_from_the_teams(self, drawn):
        record, _ = outcome(reference, "m1", *drawn)
        if record is None:
            return
        assert record.team_ids == tuple(t.team_id for t in record.teams)
        assert record.ranks == tuple(t.observed_rank for t in record.teams)
        assert record.sizes == tuple(len(t.members) for t in record.teams)
        assert record.roster == tuple(p for t in record.teams for p in t.members)
        assert record.players() == list(record.roster)

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(DomainError, match="2 team ids, 1 rosters and 2 placements"):
            build_match("m1", STAMP, ["a", "b"], [["p1"]], [1, 2])

    def test_replace_keeps_the_layout(self):
        match = quick_match([2, 1, 3], team_size=2)
        moved = dataclasses.replace(match, timestamp=STAMP + timedelta(days=1))
        assert moved.timestamp == STAMP + timedelta(days=1)
        assert dataclasses.replace(moved, timestamp=match.timestamp) == match
        assert layout(moved) == layout(match)

    def test_layout_is_not_compared_or_shown(self):
        match = quick_match([2, 1])
        assert "roster" not in repr(match)
        assert {f.name for f in dataclasses.fields(match) if f.compare} == {
            "match_id",
            "timestamp",
            "teams",
        }

    def test_team_entry_is_an_immutable_tuple(self):
        team = TeamEntry(team_id="t", members=("a", "b"), observed_rank=1)
        assert team == ("t", ("a", "b"), 1)
        assert team.members == ("a", "b")
        with pytest.raises(AttributeError):
            team.observed_rank = 2
        assert team._replace(observed_rank=2) == ("t", ("a", "b"), 2)
        with pytest.raises(DomainError, match="empty roster"):
            team._replace(members=())
        with pytest.raises(DomainError, match="placement 0"):
            TeamEntry._make(("t", ("a",), 0))


class TestFocalTeamError:
    @settings(max_examples=200, deadline=None)
    @given(layouts(), st.randoms(use_true_random=False))
    def test_equals_a_scan_of_the_rosters(self, drawn, rng):
        match, _ = outcome(reference, "m1", *drawn)
        if match is None:
            return
        order = list(match.team_ids)
        rng.shuffle(order)
        ranking = PredictedRanking(order=tuple(order), tie_groups=(), seed_used=0)
        report = MatchReport(match, ranking, metrics=None, new_player_fraction=0.0)
        expected = []
        for team in match.teams:
            error = abs(ranking.rank_of(team.team_id) - team.observed_rank)
            for player in team.members:
                expected.append(error)
        assert _member_errors([report]).tolist() == expected
        # the column runs on from match to match
        assert _member_errors([report, report]).tolist() == expected * 2


RATINGS = st.builds(
    PlayerRating,
    mu=st.floats(-1e6, 1e6, allow_nan=False),
    sigma=st.none() | st.floats(1e-6, 1e6),
    games_played=st.integers(0, 50),
    last_observed_rank=st.none() | st.integers(1, 100),
)


def same_table(a, b):
    """Equal ids, columns (NaN sigma in the same rows) and capacity."""
    ids_a, *columns_a = rating_columns(a)
    ids_b, *columns_b = rating_columns(b)
    assert ids_a == ids_b
    assert len(a._mu) == len(b._mu)
    for column_a, column_b in zip(columns_a, columns_b):
        np.testing.assert_array_equal(column_a, column_b)


class TestBulkInsert:
    @settings(max_examples=60, deadline=None)
    @given(
        before=st.integers(0, 140),
        added=st.integers(0, 140),
        rating=RATINGS,
        other=RATINGS,
    )
    def test_equals_one_insert_per_player(self, before, added, rating, other):
        existing = [f"old{i}" for i in range(before)]
        new = [f"new{i}" for i in range(added)]
        ratings = [rating if i % 3 else other for i in range(added)]
        bulk, single = RatingTable(), RatingTable()
        for table in (bulk, single):
            for player in existing:
                table.insert([player], [other])
        bulk.insert(new, ratings)
        for player, value in zip(new, ratings):
            single.insert([player], [value])
        same_table(bulk, single)
        assert dict(bulk) == dict(single)

    def test_two_inserts_hold_exactly_their_rows(self):
        bulk, single = RatingTable(), RatingTable()
        players = [f"p{i}" for i in range(200)]
        ratings = [PlayerRating(mu=float(i)) for i in range(200)]
        bulk.insert(players[:10], ratings[:10])
        bulk.insert(players[10:], ratings[10:])
        for player, rating in zip(players, ratings):
            single.insert([player], [rating])
        assert len(bulk._mu) == 200
        same_table(bulk, single)

    @pytest.mark.parametrize(
        "inserts",
        [[[]], [["p1", "p2"]], [["p1"], []]],
        ids=["empty-insert", "first-insert", "empty-after-first"],
    )
    def test_columns_keep_their_dtypes(self, inserts):
        # an integer mu still lands in the float column
        rating = PlayerRating(mu=1, sigma=2.0, games_played=3, last_observed_rank=4)
        table = RatingTable()
        for players in inserts:
            table.insert(players, [rating] * len(players))
        dtypes = [column.dtype for column in rating_columns(table)[1:]]
        assert dtypes == [np.float64, np.float64, np.int64, np.int64]

    @pytest.mark.parametrize(
        "players, count",
        [(["p1"], 1), (["p2", "p2"], 2), (["p2", "p3"], 1)],
        ids=["held", "twice", "one-rating-short"],
    )
    def test_refuses_held_repeated_or_unrated_ids(self, players, count):
        table = RatingTable({"p1": PlayerRating(mu=1.0)})
        with pytest.raises(DomainError, match="new, distinct player id"):
            table.insert(players, [PlayerRating(mu=2.0)] * count)
        same_table(table, RatingTable({"p1": PlayerRating(mu=1.0)}))

    def test_from_a_mapping_keeps_its_order(self):
        ratings = {f"p{i}": PlayerRating(mu=-i, sigma=1.0 + i) for i in range(70)}
        table = RatingTable(ratings)
        assert list(table) == list(ratings)
        assert dict(table) == ratings
        np.testing.assert_array_equal(rating_columns(table)[1], -np.arange(70.0))
