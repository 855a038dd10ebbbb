from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import (
    DataError,
    DomainError,
    MatchRecord,
    PlayerRating,
    PredictedRanking,
    TeamEntry,
    build_match,
    match_from_layout,
    normalized_result,
    rank_teams_by_score,
)

from conftest import quick_match


class TestNormalizedResult:
    def test_winner_of_two(self):
        assert normalized_result(1, 2) == 1.0

    def test_last_of_three(self):
        assert normalized_result(3, 3) == 0.0

    def test_mid_field(self):
        assert normalized_result(2, 4) == pytest.approx(2 / 6, abs=0)

    def test_rank_out_of_range(self):
        with pytest.raises(DomainError):
            normalized_result(0, 3)
        with pytest.raises(DomainError):
            normalized_result(4, 3)

    def test_too_few_teams(self):
        with pytest.raises(DomainError):
            normalized_result(1, 1)

    @given(st.integers(min_value=2, max_value=80))
    def test_sums_to_one_over_a_match(self, n):
        total = sum(normalized_result(r, n) for r in range(1, n + 1))
        assert abs(total - 1.0) < 1e-12

    @given(st.integers(min_value=2, max_value=80))
    def test_strictly_decreasing_in_rank(self, n):
        values = [normalized_result(r, n) for r in range(1, n + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0


class TestRankTeamsByScore:
    def test_distinct_scores_sort_descending(self):
        ranking = rank_teams_by_score([("a", 1.0), ("b", 9.0), ("c", 4.0)], 0)
        assert ranking.order == ("b", "c", "a")
        assert ranking.tie_groups == ()
        assert ranking.rank_of("b") == 1
        assert ranking.ranks == {"b": 1, "c": 2, "a": 3}

    def test_tie_group_recorded_and_contained(self):
        ranking = rank_teams_by_score([("A", 7.0), ("B", 7.0), ("C", 3.0)], 5)
        assert ranking.rank_of("C") == 3
        assert {ranking.rank_of("A"), ranking.rank_of("B")} == {1, 2}
        assert ranking.tie_groups == (("A", "B"),)
        assert ranking.seed_used == 5

    def test_same_seed_same_order(self):
        scores = [(f"t{i}", 0.0) for i in range(6)]
        assert rank_teams_by_score(scores, 123) == rank_teams_by_score(scores, 123)

    def test_seeds_reach_different_orders(self):
        scores = [(f"t{i}", 0.0) for i in range(4)]
        orders = {rank_teams_by_score(scores, seed).order for seed in range(20)}
        assert len(orders) > 1

    def test_tie_break_roughly_uniform(self):
        scores = [("x", 1.0), ("y", 1.0)]
        firsts = Counter(
            rank_teams_by_score(scores, seed).order[0] for seed in range(2000)
        )
        assert 800 < firsts["x"] < 1200

    def test_non_finite_score_is_a_data_error(self):
        with pytest.raises(DataError):
            rank_teams_by_score([("a", float("nan")), ("b", 1.0)], 0)
        with pytest.raises(DataError):
            rank_teams_by_score([("a", math.inf), ("b", 1.0)], 0)

    def test_duplicate_team_rejected(self):
        with pytest.raises(DomainError):
            rank_teams_by_score([("a", 1.0), ("a", 2.0)], 0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            rank_teams_by_score([], 0)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_output_is_a_permutation(self, values, seed):
        scores = [(f"t{i}", v) for i, v in enumerate(values)]
        ranking = rank_teams_by_score(scores, seed)
        assert sorted(ranking.order) == sorted(tid for tid, _ in scores)
        assert sorted(ranking.ranks.values()) == list(range(1, len(scores) + 1))

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
            unique=True,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200)
    def test_untied_teams_strictly_descend(self, values, seed):
        scores = [(f"t{i}", v) for i, v in enumerate(values)]
        by_id = dict(scores)
        ranking = rank_teams_by_score(scores, seed)
        ordered = [by_id[tid] for tid in ranking.order]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))
        assert ranking.tie_groups == ()


class TestDomainTypes:
    def test_player_rating_validation(self):
        with pytest.raises(DomainError):
            PlayerRating(mu=float("nan"))
        with pytest.raises(DomainError):
            PlayerRating(mu=0.0, sigma=0.0)
        with pytest.raises(DomainError):
            PlayerRating(mu=0.0, games_played=-1)

    @pytest.mark.parametrize(
        "sigma, text",
        [
            (math.inf, "finite, got inf"),
            (-math.inf, "positive, got -inf"),
            (0.0, "positive, got 0.0"),
            (math.nan, "positive, got nan"),
        ],
    )
    def test_player_sigma_must_be_positive_and_finite(self, sigma, text):
        with pytest.raises(DomainError, match=f"^player sigma must be {text}$"):
            PlayerRating(mu=25.0, sigma=sigma)

    def test_last_observed_rank_is_a_placement(self):
        with pytest.raises(DomainError, match="last_observed_rank"):
            PlayerRating(mu=0.0, last_observed_rank=0)
        PlayerRating(mu=0.0, last_observed_rank=1)

    def test_team_entry_validation(self):
        with pytest.raises(DomainError):
            TeamEntry(team_id="t", members=(), observed_rank=1)
        with pytest.raises(DomainError):
            TeamEntry(team_id="t", members=("a", "a"), observed_rank=1)
        with pytest.raises(DomainError):
            TeamEntry(team_id="t", members=("a",), observed_rank=0)
        with pytest.raises(DomainError):
            TeamEntry(team_id="", members=("a",), observed_rank=1)

    def test_match_needs_permutation_placements(self):
        with pytest.raises(DomainError):
            quick_match([1, 1])
        with pytest.raises(DomainError):
            quick_match([1, 3])
        quick_match([2, 1])  # fine

    def test_match_rejects_shared_players(self):
        stamp = datetime(2020, 1, 1, tzinfo=timezone.utc)
        teams = (
            TeamEntry(team_id="a", members=("p1",), observed_rank=1),
            TeamEntry(team_id="b", members=("p1",), observed_rank=2),
        )
        with pytest.raises(DomainError):
            MatchRecord(match_id="m", timestamp=stamp, teams=teams)

    def test_match_needs_two_teams(self):
        stamp = datetime(2020, 1, 1, tzinfo=timezone.utc)
        with pytest.raises(DomainError):
            MatchRecord(
                match_id="m",
                timestamp=stamp,
                teams=(TeamEntry(team_id="a", members=("p1",), observed_rank=1),),
            )

    def test_players_listed_in_roster_order(self):
        match = quick_match([2, 1], team_size=2)
        assert match.players() == ["t1_p1", "t1_p2", "t2_p1", "t2_p2"]
        assert match.team_count == 2

    def test_predicted_ranking_ranks(self):
        ranking = PredictedRanking(order=("b", "a"), tie_groups=(), seed_used=0)
        assert ranking.rank_of("a") == 2


class TestStoredLayout:
    """A record stores its layout; ``teams`` is built from it on read."""

    STAMP = datetime(2020, 1, 1, tzinfo=timezone.utc)
    ENTRIES = (
        TeamEntry(team_id="t1", members=("a", "b"), observed_rank=2),
        TeamEntry(team_id="t2", members=("c",), observed_rank=1),
        TeamEntry(team_id="t3", members=("d", "e", "f"), observed_rank=3),
    )

    def built(self):
        team_ids, rosters, ranks = zip(*self.ENTRIES)
        return build_match("m1", self.STAMP, team_ids, rosters, ranks)

    def checked(self):
        return MatchRecord(match_id="m1", timestamp=self.STAMP, teams=self.ENTRIES)

    def test_built_and_checked_records_are_one_value(self):
        built, checked = self.built(), self.checked()
        assert built == checked
        assert hash(built) == hash(checked)
        assert repr(built) == repr(checked)
        assert built != replace(checked, teams=self.ENTRIES[::-1])

    def test_teams_are_the_entries_given(self):
        for record in (self.built(), self.checked()):
            assert record.teams == self.ENTRIES
            assert [type(team) for team in record.teams] == [TeamEntry] * 3
            assert record.team_ids == ("t1", "t2", "t3")
            assert record.ranks == (2, 1, 3)
            assert record.sizes == (2, 1, 3)
            assert record.roster == ("a", "b", "c", "d", "e", "f")

    def test_replace_round_trips(self):
        record = self.built()
        renamed = replace(record, match_id="m2")
        assert renamed.match_id == "m2" and renamed.teams == self.ENTRIES
        assert replace(renamed, match_id="m1") == record
        reordered = replace(record, teams=record.teams[::-1])
        assert reordered.team_ids == ("t3", "t2", "t1")
        assert reordered.roster == ("d", "e", "f", "c", "a", "b")
        assert replace(reordered, teams=self.ENTRIES) == record
        with pytest.raises(DomainError, match="appears in two teams"):
            replace(record, teams=self.ENTRIES + (TeamEntry("t4", ("a",), 4),))

    def test_teams_cannot_be_assigned(self):
        record = self.built()
        with pytest.raises(AttributeError):
            record.teams = self.ENTRIES[:2]
        assert record.team_ids == ("t1", "t2", "t3")

    @pytest.mark.parametrize("extra", ["r", ""])
    def test_a_roster_longer_than_the_sizes_is_refused(self, extra):
        # no team lists the last roster entry
        with pytest.raises(DomainError, match="'m'.* add up to 2.* holds 3 players"):
            match_from_layout("m", self.STAMP, ("a", "b"), (1, 2), (1, 1), ("p", "q", extra))

    def test_a_roster_shorter_than_the_sizes_is_refused(self):
        # team b would be left with no member
        with pytest.raises(DomainError, match="team 'b' has an empty roster"):
            match_from_layout("m", self.STAMP, ("a", "b"), (1, 2), (2, 1), ("p", "q"))
        with pytest.raises(DomainError, match="'m'.* add up to 3.* holds 2 players"):
            match_from_layout("m", self.STAMP, ("a", "b"), (1, 2), (1, 2), ("p", "q"))
