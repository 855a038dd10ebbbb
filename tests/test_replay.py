from __future__ import annotations

import csv
import gc
import importlib
import io
import logging
import math
import operator
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import (
    DataError,
    DomainError,
    MatchRecord,
    PlayerRating,
    TeamEntry,
)
from royale_ratings.elo import EloSystem
from royale_ratings.metrics import METRIC_NAMES
from royale_ratings.prevrank import PreviousRankSystem
from royale_ratings.replay import (
    IngestStats,
    RatingStore,
    ingest,
    mean_metrics,
    mean_metrics_alt_index,
    parse_timestamp,
    replay,
    setup_all_players,
    setup_best_players,
    setup_frequent_players,
    write_match_metrics_csv,
    write_trend_csv,
)
from royale_ratings.synth import SynthConfig, generate, write_match_log
from royale_ratings.systems import RatingTable

from conftest import BASE_TIME

HEADER = "match_id,timestamp,team_id,player_id,team_placement"

STORE_RATINGS = st.dictionaries(
    st.text(alphabet="#=ab \x0c\x1c\x1d\x1e\x85\u2028\u2029\r-", min_size=1),
    st.builds(
        PlayerRating,
        mu=st.floats(allow_nan=False, allow_infinity=False),
        sigma=st.none() | st.floats(min_value=1e-300, max_value=1e300),
        games_played=st.integers(0, 10**6),
        last_observed_rank=st.none() | st.integers(1, 100),
    ),
    max_size=8,
)


def write_log(tmp_path, rows, name="log.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    return path


def match_of(match_id, minute, ranked_teams):
    """ranked_teams: (team_id, member tuple, observed rank) triples."""
    return MatchRecord(
        match_id=match_id,
        timestamp=BASE_TIME + timedelta(minutes=minute),
        teams=tuple(
            TeamEntry(team_id=tid, members=members, observed_rank=rank)
            for tid, members, rank in ranked_teams
        ),
    )


class TestParseTimestamp:
    def test_z_suffix(self):
        stamp = parse_timestamp("2020-05-01T12:00:00Z")
        assert stamp == datetime(2020, 5, 1, 12, tzinfo=timezone.utc)

    def test_explicit_offset_matches_z(self):
        assert parse_timestamp("2020-05-01T12:00:00+00:00") == parse_timestamp(
            "2020-05-01T12:00:00Z"
        )

    def test_naive_is_taken_as_utc(self):
        stamp = parse_timestamp("2020-05-01T12:00:00")
        assert stamp.tzinfo == timezone.utc

    def test_nonzero_offset_keeps_the_instant(self):
        stamp = parse_timestamp("2020-05-01T14:00:00+02:00")
        assert stamp == datetime(2020, 5, 1, 12, tzinfo=timezone.utc)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("yesterday-ish")


class TestIngest:
    def test_reads_and_sorts_by_timestamp(self, tmp_path):
        rows = [
            "m2,2020-05-01T13:00:00Z,t1,a,1",
            "m2,2020-05-01T13:00:00Z,t2,b,2",
            "m1,2020-05-01T12:00:00Z,t1,c,2",
            "m1,2020-05-01T12:00:00Z,t2,d,1",
        ]
        stats = IngestStats()
        matches = ingest(write_log(tmp_path, rows), stats=stats)
        assert [m.match_id for m in matches] == ["m1", "m2"]
        assert stats.rows == 4
        assert stats.matches_read == 2
        assert stats.filtered == 0
        assert stats.rejected == []

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        rows = [
            "mB,2020-05-01T12:00:00Z,t1,a,1",
            "mB,2020-05-01T12:00:00Z,t2,b,2",
            "mA,2020-05-01T12:00:00Z,t1,c,1",
            "mA,2020-05-01T12:00:00Z,t2,d,2",
        ]
        matches = ingest(write_log(tmp_path, rows))
        assert [m.match_id for m in matches] == ["mB", "mA"]

    def test_rows_group_by_match_even_interleaved(self, tmp_path):
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m2,2020-05-01T13:00:00Z,t1,e,1",
            "m1,2020-05-01T12:00:00Z,t1,b,1",
            "m2,2020-05-01T13:00:00Z,t2,f,2",
            "m1,2020-05-01T12:00:00Z,t2,c,2",
            "m1,2020-05-01T12:00:00Z,t2,d,2",
        ]
        matches = ingest(write_log(tmp_path, rows))
        assert len(matches) == 2
        duo = matches[0]
        assert duo.match_id == "m1"
        assert [t.members for t in duo.teams] == [("a", "b"), ("c", "d")]

    def test_team_size_filter(self, tmp_path):
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m1,2020-05-01T12:00:00Z,t2,b,2",
            "m2,2020-05-01T13:00:00Z,t1,c,1",
            "m2,2020-05-01T13:00:00Z,t1,d,1",
            "m2,2020-05-01T13:00:00Z,t2,e,2",
            "m2,2020-05-01T13:00:00Z,t2,f,2",
        ]
        stats = IngestStats()
        matches = ingest(write_log(tmp_path, rows), team_size=2, stats=stats)
        assert [m.match_id for m in matches] == ["m2"]
        assert stats.filtered == 1

    def test_tied_placements_rejected_with_diagnostic(self, tmp_path, caplog):
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m1,2020-05-01T12:00:00Z,t2,b,1",
            "m2,2020-05-01T13:00:00Z,t1,c,1",
            "m2,2020-05-01T13:00:00Z,t2,d,2",
        ]
        stats = IngestStats()
        with caplog.at_level(logging.WARNING):
            matches = ingest(write_log(tmp_path, rows), stats=stats)
        assert [m.match_id for m in matches] == ["m2"]
        assert len(stats.rejected) == 1
        assert stats.rejected[0][0] == "m1"
        assert any("rejected match m1" in r.message for r in caplog.records)

    def test_inconsistent_team_placement_rejected(self, tmp_path):
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m1,2020-05-01T12:00:00Z,t1,b,2",
            "m1,2020-05-01T12:00:00Z,t2,c,2",
        ]
        stats = IngestStats()
        assert ingest(write_log(tmp_path, rows), stats=stats) == []
        assert "inconsistent placements" in stats.rejected[0][1]

    def test_disagreeing_timestamps_rejected_with_diagnostic(self, tmp_path, caplog):
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m1,2020-05-01T12:05:00Z,t2,b,2",
            "m2,2020-05-01T13:00:00Z,t1,c,1",
            "m2,2020-05-01T13:00:00+00:00,t2,d,2",
        ]
        stats = IngestStats()
        with caplog.at_level(logging.WARNING):
            matches = ingest(write_log(tmp_path, rows), stats=stats)
        # m2 spells one instant two ways, which is the same timestamp
        assert [m.match_id for m in matches] == ["m2"]
        assert len(stats.rejected) == 1
        assert stats.rejected[0][0] == "m1"
        assert "timestamp" in stats.rejected[0][1]
        assert any("rejected match m1" in r.message for r in caplog.records)

    def test_duplicate_player_across_teams_rejected(self, tmp_path):
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m1,2020-05-01T12:00:00Z,t2,a,2",
        ]
        stats = IngestStats()
        assert ingest(write_log(tmp_path, rows), stats=stats) == []
        assert len(stats.rejected) == 1

    def test_bad_timestamp_is_positional_error(self, tmp_path):
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m1,not-a-time,t2,b,2",
        ]
        with pytest.raises(DataError, match=r"log\.csv:3: bad timestamp"):
            ingest(write_log(tmp_path, rows))

    def test_bad_placement_is_positional_error(self, tmp_path):
        rows = ["m1,2020-05-01T12:00:00Z,t1,a,first"]
        with pytest.raises(DataError, match=r":2: bad team_placement"):
            ingest(write_log(tmp_path, rows))

    def test_missing_field_is_positional_error(self, tmp_path):
        rows = ["m1,2020-05-01T12:00:00Z,,a,1"]
        with pytest.raises(DataError, match=r":2: row is missing"):
            ingest(write_log(tmp_path, rows))

    def test_missing_header_column(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("match_id,timestamp,team_id,player_id\n")
        with pytest.raises(DataError, match="missing column"):
            ingest(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            ingest(path)

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_csv_field_over_the_size_limit_is_positional_error(self, tmp_path, where):
        big = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        self.check_field_limit(tmp_path, where, big)

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_unquoted_field_over_the_size_limit_is_positional_error(self, tmp_path, where):
        self.check_field_limit(tmp_path, where, "x" * (csv.field_size_limit() + 1))

    @staticmethod
    def check_field_limit(tmp_path, where, big):
        row = "m1,2020-05-01T12:00:00Z,t1,a,1"
        if where == "header":
            path = tmp_path / "log.csv"
            path.write_text(f"{HEADER},{big}\n{row}\n")
            line = 1
        else:
            path = write_log(tmp_path, [row, f"m1,2020-05-01T12:00:00Z,t2,{big},2"])
            line = 3
        with pytest.raises(DataError, match=rf"log\.csv:{line}: unreadable CSV \(field larger"):
            ingest(path)

    @pytest.mark.parametrize("team_size", [0, -2])
    def test_non_positive_team_size_rejected(self, tmp_path, team_size):
        rows = ["m1,2020-05-01T12:00:00Z,t1,a,1", "m1,2020-05-01T12:00:00Z,t2,b,2"]
        with pytest.raises(DomainError, match="team_size must be positive"):
            ingest(write_log(tmp_path, rows), team_size=team_size)

    @pytest.mark.parametrize("where", ["header", "body"])
    def test_non_utf8_bytes_name_the_file(self, tmp_path, where):
        path = write_log(tmp_path, ["m1,2020-05-01T12:00:00Z,t1,a,1"])
        data = path.read_bytes()
        data = b"\xff" + data if where == "header" else data.replace(b",a,", b",\xff,")
        path.write_bytes(data)
        with pytest.raises(DataError, match=r"log\.csv: not UTF-8 text"):
            ingest(path)

    @pytest.mark.parametrize("quoted", [False, True], ids=["quote-free", "quoted"])
    def test_a_bad_line_leaves_stats_as_given(self, tmp_path, quoted):
        # line 5's placement does not parse, which restarts the column pass;
        # a quote sends "quoted" straight to the csv.reader pass
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m1,2020-05-01T12:00:00Z,t2,b,2",
            "m2,2020-05-01T13:00:00Z,t1,a,2",
            "m2,2020-05-01T13:00:00Z,t2,b,first",
        ]
        if quoted:
            rows[0] = rows[0].replace(",t1,", ',"t1",')
        stats = IngestStats(rows=7, matches_read=2, filtered=1, rejected=[("m0", "x")])
        with pytest.raises(DataError, match=r"log\.csv:5: bad team_placement 'first'"):
            ingest(write_log(tmp_path, rows), stats=stats)
        assert stats == IngestStats(7, 2, 1, [("m0", "x")])

    def test_bytes_past_built_matches_leave_stats_as_given(self, tmp_path, monkeypatch):
        # past the text decoder's first read, so the column pass builds
        # whole matches, and the csv.reader pass reads rows, before the
        # bad byte in the last line
        rows = [
            f"m{number:03},2020-05-01T12:00:00Z,t{team},p{number}-{team},{team}"
            for number in range(60)
            for team in range(1, 11)
        ]
        path = write_log(tmp_path, rows)
        path.write_bytes(path.read_bytes().replace(b"p59-10", b"p59-\xff"))
        assert path.stat().st_size > 2 * io.DEFAULT_BUFFER_SIZE
        replay_module = importlib.import_module("royale_ratings.replay")
        add_run, built = replay_module._Kept.add_run, []

        def counted(kept, match_id, *columns):
            built.append(match_id)
            return add_run(kept, match_id, *columns)

        monkeypatch.setattr(replay_module._Kept, "add_run", counted)
        monkeypatch.setattr(replay_module, "_CHUNK_CHARS", 7)
        stats = IngestStats()
        with pytest.raises(DataError, match=r"log\.csv: not UTF-8 text"):
            ingest(path, stats=stats)
        assert built
        assert stats == IngestStats()

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("not-a-time,t2,d,2", "bad timestamp 'not-a-time'"),
            ("2020-05-01T13:00:00Z,t2,d,first", "bad team_placement 'first'"),
        ],
        ids=["timestamp", "placement"],
    )
    def test_a_bad_value_in_a_filtered_match_names_its_line(self, tmp_path, bad, error):
        # every run is parsed before the team-size filter drops m2
        rows = [
            "m1,2020-05-01T12:00:00Z,t1,a,1",
            "m1,2020-05-01T12:00:00Z,t1,b,1",
            "m1,2020-05-01T12:00:00Z,t2,c,2",
            "m1,2020-05-01T12:00:00Z,t2,d,2",
            "m2,2020-05-01T13:00:00Z,t1,a,1",
            f"m2,{bad}",
        ]
        with pytest.raises(DataError, match=rf"log\.csv:7: {error}"):
            ingest(write_log(tmp_path, rows), team_size=2)


    @pytest.mark.parametrize("quoted", [False, True], ids=["column-pass", "csv-reader"])
    def test_keeps_no_object_per_team(self, tmp_path, quoted):
        # a record stores its layout as plain tuples of strings and ints,
        # which the collector untracks; one object per team would stay
        # tracked for the life of the matches
        config = SynthConfig(
            player_count=300, team_size=1, teams_per_match=100, match_count=40
        )
        path = tmp_path / "log.csv"
        write_match_log(path, generate(config)[0])
        if quoted:  # a quote sends the log through the csv.reader pass
            path.write_text(path.read_text().replace(",t01,", ',"t01",'))
        gc.collect()
        before = len(gc.get_objects())
        matches = ingest(path)
        gc.collect()
        assert len(matches) == 40
        assert len(gc.get_objects()) - before <= 2 * len(matches) + 50

    # each log repeats players and team ids across matches; a quote sends
    # "csv-reader" through the csv.reader pass, and "ungrouped" lists m2's
    # rows out of team order, so its column-pass run goes through _group
    ID_LOGS = {
        "column-pass": [
            "m1,2020-05-01T12:00:00Z,t01,p01,1",
            "m1,2020-05-01T12:00:00Z,t01,p02,1",
            "m1,2020-05-01T12:00:00Z,t02,p03,2",
            "m1,2020-05-01T12:00:00Z,t02,p04,2",
            "m2,2020-05-01T13:00:00Z,t01,p03,2",
            "m2,2020-05-01T13:00:00Z,t01,p01,2",
            "m2,2020-05-01T13:00:00Z,t02,p04,1",
            "m2,2020-05-01T13:00:00Z,t02,p02,1",
        ],
        "csv-reader": [
            'm1,2020-05-01T12:00:00Z,"t01",p01,1',
            "m1,2020-05-01T12:00:00Z,t01,p02,1",
            "m1,2020-05-01T12:00:00Z,t02,p03,2",
            "m1,2020-05-01T12:00:00Z,t02,p04,2",
            "m2,2020-05-01T13:00:00Z,t02,p02,1",
            "m2,2020-05-01T13:00:00Z,t02,p03,1",
            "m2,2020-05-01T13:00:00Z,t01,p04,2",
            "m2,2020-05-01T13:00:00Z,t01,p01,2",
        ],
        "ungrouped": [
            "m1,2020-05-01T12:00:00Z,t01,p01,1",
            "m1,2020-05-01T12:00:00Z,t02,p02,2",
            "m2,2020-05-01T13:00:00Z,t02,p01,2",
            "m2,2020-05-01T13:00:00Z,t01,p02,1",
            "m2,2020-05-01T13:00:00Z,t02,p03,2",
            "m2,2020-05-01T13:00:00Z,t01,p04,1",
        ],
    }

    @pytest.mark.parametrize("log", list(ID_LOGS))
    def test_keeps_one_object_per_distinct_id(self, tmp_path, monkeypatch, log):
        replay_module = importlib.import_module("royale_ratings.replay")
        calls = {"_group": 0, "_read_grouped": 0}
        for name in calls:
            function = getattr(replay_module, name)

            def counted(*args, name=name, function=function):
                calls[name] += 1
                return function(*args)

            monkeypatch.setattr(replay_module, name, counted)
        matches = ingest(write_log(tmp_path, self.ID_LOGS[log]))
        assert len(matches) == 2
        assert calls["_read_grouped"] == (log == "csv-reader")
        assert (calls["_group"] > 0) == (log == "ungrouped")
        kept: dict[str, str] = {}
        for match in matches:
            for value in match.team_ids + match.roster:
                assert kept.setdefault(value, value) is value, value
        assert len(kept) == len({*matches[0].roster, *matches[1].roster}) + 2

    def test_two_calls_share_no_id_object(self, tmp_path):
        path = write_log(tmp_path, self.ID_LOGS["column-pass"])
        first, second = ingest(path), ingest(path)
        assert first == second
        for a, b in zip(first, second):
            assert not any(map(operator.is_, a.team_ids + a.roster, b.team_ids + b.roster))

    @pytest.mark.parametrize("quoted", [False, True], ids=["column-pass", "csv-reader"])
    def test_records_hold_under_50_bytes_per_roster_entry(self, tmp_path, quoted):
        config = SynthConfig(
            player_count=5000, team_size=2, teams_per_match=48, match_count=1000
        )
        path = tmp_path / "log.csv"
        write_match_log(path, generate(config)[0])
        if quoted:
            path.write_text(path.read_text().replace(",t01,", ',"t01",'))
        gc.collect()
        tracemalloc.start()
        try:
            matches = ingest(path)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = sum(len(match.roster) for match in matches)
        assert entries == 1000 * 48 * 2
        assert held / entries < 50

    @staticmethod
    def quoted_log_peak_per_row(tmp_path, monkeypatch) -> float:
        """The ``tracemalloc`` peak of ``ingest``, in bytes per row, on a
        quoted 1000-match duo log, which takes the csv.reader pass."""
        config = SynthConfig(
            player_count=5000, team_size=2, teams_per_match=48, match_count=1000
        )
        path = tmp_path / "log.csv"
        write_match_log(path, generate(config)[0])
        path.write_text(path.read_text().replace(",t01,", ',"t01",'))
        replay_module = importlib.import_module("royale_ratings.replay")
        read_grouped, passes = replay_module._read_grouped, []

        def counted(*args):
            passes.append(args[0])
            return read_grouped(*args)

        monkeypatch.setattr(replay_module, "_read_grouped", counted)
        gc.collect()
        tracemalloc.start()
        try:
            matches = ingest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passes == [path]
        rows = sum(len(match.roster) for match in matches)
        assert rows == 1000 * 48 * 2
        return peak / rows

    def test_quoted_log_peaks_under_120_bytes_per_row(self, tmp_path, monkeypatch):
        # the csv.reader pass buffers every field until the file ends, so it
        # must hold each distinct string once, not once per row
        assert self.quoted_log_peak_per_row(tmp_path, monkeypatch) < 120

    def test_quoted_log_buffers_four_fields_a_row(self, tmp_path, monkeypatch):
        # the buffer holds a row's four fields after its match id, each
        # buffered match id would cost one more list slot a row
        assert self.quoted_log_peak_per_row(tmp_path, monkeypatch) < 74


def synth_matches(match_count=20, **overrides):
    config = dict(
        player_count=30,
        team_size=1,
        teams_per_match=10,
        match_count=match_count,
        noise_spread=1.0,
        seed=5,
    )
    config.update(overrides)
    matches, _ = generate(SynthConfig(**config))
    return matches


class TestReplay:
    def test_counts_and_first_match_is_all_new(self):
        matches = synth_matches()
        result = replay(matches, EloSystem(), seed=3)
        assert len(result.reports) == 20
        assert result.reports[0].new_player_fraction == 1.0
        assert result.store.matches_processed == 20
        assert result.store.system == "elo"
        assert result.store.seed == 3

    def test_new_player_fraction_counts_unseen(self):
        matches = [
            match_of("m1", 0, [("t1", ("a",), 1), ("t2", ("b",), 2)]),
            match_of("m2", 1, [("t1", ("a",), 2), ("t2", ("c",), 1)]),
            match_of("m3", 2, [("t1", ("b",), 1), ("t2", ("c",), 2)]),
        ]
        result = replay(matches, EloSystem())
        fractions = [r.new_player_fraction for r in result.reports]
        assert fractions == [1.0, 0.5, 0.0]

    def test_player_match_index(self):
        matches = [
            match_of("m1", 0, [("t1", ("a",), 1), ("t2", ("b",), 2)]),
            match_of("m2", 1, [("t1", ("a",), 2), ("t2", ("c",), 1)]),
            match_of("m3", 2, [("t1", ("b",), 1), ("t2", ("c",), 2)]),
        ]
        result = replay(matches, EloSystem())
        assert result.player_match_index["a"] == [0, 1]
        assert result.player_match_index["b"] == [0, 2]
        assert result.player_match_index["c"] == [1, 2]

    def test_player_match_index_repr(self):
        matches = [
            match_of("m1", 0, [("t1", ("a",), 1), ("t2", ("b",), 2)]),
            match_of("m2", 1, [("t1", ("a",), 2), ("t2", ("c",), 1)]),
        ]
        index = replay(matches, EloSystem()).player_match_index
        assert repr(index) == "_PlayerMatches({'a': [0, 1], 'b': [0], 'c': [1]})"

    def test_same_seed_reproduces_predictions(self):
        matches = synth_matches()
        first = replay(matches, PreviousRankSystem(), seed=9)
        second = replay(matches, PreviousRankSystem(), seed=9)
        assert [r.ranking.order for r in first.reports] == [
            r.ranking.order for r in second.reports
        ]
        assert first.store.ratings == second.store.ratings

    def test_tie_break_seed_changes_full_tie_order(self):
        # every match has an all-new field, so prevrank predicts a full tie
        matches = [
            match_of(
                f"m{i}",
                i,
                [
                    (f"t{j}", (f"m{i}_p{j}",), j)
                    for j in range(1, 7)
                ],
            )
            for i in range(12)
        ]
        orders_a = [
            r.ranking.order
            for r in replay(matches, PreviousRankSystem(), seed=1).reports
        ]
        orders_b = [
            r.ranking.order
            for r in replay(matches, PreviousRankSystem(), seed=2).reports
        ]
        assert orders_a != orders_b

    def test_scores_come_from_pre_update_ratings(self):
        # elo favourite is decided by ratings entering the match, so a
        # first-match winner is predicted first in a rematch
        matches = [
            match_of("m1", 0, [("t1", ("a",), 1), ("t2", ("b",), 2)]),
            match_of("m2", 1, [("t1", ("a",), 2), ("t2", ("b",), 1)]),
        ]
        result = replay(matches, EloSystem())
        rematch = result.reports[1].ranking
        assert rematch.order[0] == "t1"


class TestMeanMetrics:
    def test_empty_is_empty(self):
        assert mean_metrics([]) == {}
        assert mean_metrics_alt_index([]) == {}

    def test_means_are_per_metric(self):
        matches = synth_matches(match_count=6)
        result = replay(matches, EloSystem())
        means = mean_metrics(result.reports)
        assert set(means) == set(METRIC_NAMES)
        for name in METRIC_NAMES:
            values = [getattr(r.metrics, name) for r in result.reports]
            assert means[name] == pytest.approx(sum(values) / len(values))

    def test_alt_index_reports_ap_and_ndcg(self):
        matches = synth_matches(match_count=6)
        result = replay(matches, EloSystem())
        alt = mean_metrics_alt_index(result.reports)
        assert set(alt) == {"ap", "ndcg"}


class TestRatingStore:
    def test_non_finite_params_are_not_written(self, tmp_path):
        store = replay(synth_matches(match_count=2), EloSystem()).store
        store.params = {**store.params, "k_factor": math.nan}
        path = tmp_path / "store.txt"
        with pytest.raises(ValueError, match="JSON"):
            store.save(path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "defect, error",
        [
            ({"a\tb": PlayerRating(mu=1.0)}, DataError),
            ({"k_factor": math.inf}, ValueError),
            ({"zz\ud800": PlayerRating(mu=1.0)}, UnicodeEncodeError),
        ],
        ids=["tab in an id", "non-finite params", "lone surrogate in the last id"],
    )
    def test_failed_save_leaves_the_old_snapshot(self, tmp_path, defect, error):
        store = replay(synth_matches(match_count=2), EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        before = path.read_bytes()
        if error is ValueError:
            store.params = {**store.params, **defect}
        else:
            store.ratings = {**store.ratings, **defect}
        with pytest.raises(error):
            store.save(path)
        assert path.read_bytes() == before

    def test_save_load_round_trip(self, tmp_path):
        matches = synth_matches()
        store = replay(matches, EloSystem(), seed=4).store
        path = tmp_path / "store.txt"
        store.save(path)
        loaded = RatingStore.load(path)
        assert loaded.system == store.system
        assert loaded.params == store.params
        assert loaded.seed == store.seed
        assert loaded.matches_processed == store.matches_processed
        assert loaded.ratings == store.ratings

    def test_round_trip_with_sigma_and_none_fields(self, tmp_path):
        from royale_ratings.glicko import GlickoSystem

        store = replay(synth_matches(), GlickoSystem(), seed=4).store
        path = tmp_path / "store.txt"
        store.save(path)
        assert RatingStore.load(path).ratings == store.ratings

    def test_save_is_deterministic_bytes(self, tmp_path):
        store = replay(synth_matches(), EloSystem(), seed=4).store
        store.save(tmp_path / "one.txt")
        store.save(tmp_path / "two.txt")
        assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "two.txt").read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "store.txt"
        path.write_text("#something-else v9\n")
        with pytest.raises(DataError, match="not a rating-store snapshot"):
            RatingStore.load(path)

    def test_truncated_row_rejected(self, tmp_path):
        store = replay(synth_matches(match_count=2), EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        lines = path.read_text().splitlines()
        lines[-1] = "oops\t1.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="expected 5 fields"):
            RatingStore.load(path)

    def test_repeated_player_id_names_the_second_line(self, tmp_path):
        store = replay(synth_matches(match_count=2), EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        lines = path.read_text().splitlines()
        lines.append(lines[-1].split("\t")[0] + "\t1.0\t-\t1\t1")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f":{len(lines)}: player .* twice"):
            RatingStore.load(path)

    def test_missing_header_key_rejected(self, tmp_path):
        store = replay(synth_matches(match_count=2), EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        lines = [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("#seed=")
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="lacks 'seed'"):
            RatingStore.load(path)

    @pytest.mark.parametrize(
        "prefix, replacement, where",
        [
            ("#seed=", "#seed=x", ":3:"),
            ("#matches=", "#matches=2.5", ":4:"),
            ("#params=", "#params={", ":5:"),
            ("#params=", '#params={"k_factor": NaN}', ":5:"),
            ("#params=", '#params={"k_factor": -Infinity}', ":5:"),
            ("#params=", '#params={"k_factor": 1e999}', ":5:"),
        ],
    )
    def test_bad_header_value_names_its_line(self, tmp_path, prefix, replacement, where):
        store = replay(synth_matches(match_count=2), EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        lines = [
            replacement if line.startswith(prefix) else line
            for line in path.read_text().splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=where):
            RatingStore.load(path)

    def test_id_starting_with_hash_is_not_read_as_header(self, tmp_path):
        teams = [("t1", ("#x", "p2"), 1), ("t2", ("p3", "p4"), 2)]
        matches = [match_of("m1", 0, teams)]
        store = replay(matches, EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        assert set(RatingStore.load(path).ratings) == {"#x", "p2", "p3", "p4"}

    @pytest.mark.parametrize(
        "player_id",
        ["a\x0cb", "a\x1cb", "a\x1db", "a\x1eb", "a\x85b", "a\u2028b", "a\u2029b"]
        + ["a\rb", "a\r"],
    )
    def test_id_with_other_line_breaks_round_trips(self, tmp_path, player_id):
        matches = [match_of("m1", 0, [("t1", (player_id,), 1), ("t2", ("p2",), 2)])]
        store = replay(matches, EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        assert RatingStore.load(path).ratings == store.ratings

    @pytest.mark.parametrize("player_id", ["a\tb", "a\nb"])
    def test_id_with_tab_or_newline_is_refused(self, tmp_path, player_id):
        store = RatingStore("elo", {}, 0, 1, {player_id: PlayerRating(mu=1.0)})
        with pytest.raises(DataError, match="cannot be snapshotted"):
            store.save(tmp_path / "store.txt")

    @settings(max_examples=60, deadline=None)
    @given(ratings=STORE_RATINGS)
    def test_load_of_save_is_identity(self, tmp_path_factory, ratings):
        store = RatingStore("glicko", {"default_mu": 1500.0}, 3, 7, ratings)
        path = tmp_path_factory.mktemp("store") / "store.txt"
        store.save(path)
        assert RatingStore.load(path) == store

    @settings(max_examples=60, deadline=None)
    @given(ratings=STORE_RATINGS)
    def test_table_and_dict_save_the_same_bytes(self, tmp_path_factory, ratings):
        # the body as it was written from one PlayerRating per player
        body = [
            f"{pid}\t{r.mu!r}\t{'-' if r.sigma is None else repr(r.sigma)}\t"
            f"{r.games_played}\t"
            f"{'-' if r.last_observed_rank is None else r.last_observed_rank}"
            for pid, r in sorted(ratings.items())
        ]
        saved = []
        for state in (ratings, RatingTable(ratings)):
            path = tmp_path_factory.mktemp("store") / "store.txt"
            RatingStore("glicko", {}, 3, 7, state).save(path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]
        assert saved[0].decode("utf-8").split("\n")[6:-1] == body

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        store = replay(synth_matches(match_count=2), EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        path.write_bytes(path.read_bytes() + b"\xff\t1.0\t-\t1\t1\n")
        with pytest.raises(DataError, match=r"store\.txt: not UTF-8 text"):
            RatingStore.load(path)

    def test_infinite_sigma_row_names_its_line(self, tmp_path):
        store = RatingStore("glicko", {}, 0, 1, {"p1": PlayerRating(1.0, 2.0)})
        path = tmp_path / "store.txt"
        store.save(path)
        lines = path.read_text().splitlines()
        assert lines[-1] == "p1\t1.0\t2.0\t0\t-"
        lines[-1] = "p1\t1.0\tinf\t0\t-"
        path.write_text("\n".join(lines) + "\n")
        expected = "bad rating row: player sigma must be finite, got inf$"
        with pytest.raises(DataError, match=f":{len(lines)}: {expected}"):
            RatingStore.load(path)

    def test_chunked_writes_give_the_same_bytes(self, tmp_path, monkeypatch):
        replay_module = importlib.import_module("royale_ratings.replay")
        # past one 4096-row run, with ids of one to three UTF-8 bytes a
        # character and players without a sigma or a last rank
        ratings = {
            f"{'pé€'[i % 3]}{i}": PlayerRating(
                mu=i / 7,
                sigma=None if i % 2 else 1.0 + i,
                games_played=i,
                last_observed_rank=None if i % 3 else 1 + i % 48,
            )
            for i in range(4100)
        }
        store = RatingStore("glicko", {"default_mu": 1500.0}, 3, 7, ratings)
        saved = []
        for rows in (1, 3, 4096):
            monkeypatch.setattr(replay_module, "_STORE_ROWS", rows)
            path = tmp_path / f"store{rows}.txt"
            store.save(path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1] == saved[2]
        assert RatingStore.load(path) == store

    @pytest.mark.parametrize("field", [1, 2, 3, 4])
    def test_non_numeric_body_field_names_its_line(self, tmp_path, field):
        store = replay(synth_matches(match_count=2), EloSystem()).store
        path = tmp_path / "store.txt"
        store.save(path)
        lines = path.read_text().splitlines()
        parts = lines[-1].split("\t")
        parts[field] = "abc"
        lines[-1] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f":{len(lines)}:"):
            RatingStore.load(path)


class TestAllPlayersSetup:
    def test_window_one_reproduces_per_match_metrics(self):
        matches = synth_matches()
        trend, result = setup_all_players(matches, EloSystem(), seed=2, window=1)
        assert len(trend.points) == len(result.reports)
        for point, report in zip(trend.points, result.reports):
            assert point.match_count == 1
            assert point.focal_team_error is None
            for name in METRIC_NAMES:
                assert getattr(point, name) == pytest.approx(
                    getattr(report.metrics, name)
                )

    def test_window_caps_match_count(self):
        matches = synth_matches()
        trend, _ = setup_all_players(matches, EloSystem(), window=3)
        assert [p.match_count for p in trend.points[:5]] == [1, 2, 3, 3, 3]
        assert [p.position_index for p in trend.points] == list(range(1, 21))

    def test_trailing_window_mean(self):
        matches = synth_matches()
        trend, result = setup_all_players(matches, EloSystem(), seed=2, window=3)
        point = trend.points[7]  # positions 6, 7, 8
        expected = sum(
            result.reports[i].metrics.kendall_tau for i in (5, 6, 7)
        ) / 3
        assert point.kendall_tau == pytest.approx(expected, abs=1e-12)

    def test_huge_window_is_cumulative_mean(self):
        matches = synth_matches()
        trend, result = setup_all_players(matches, EloSystem(), window=10_000)
        means = mean_metrics(result.reports)
        last = trend.points[-1]
        for name in METRIC_NAMES:
            assert getattr(last, name) == pytest.approx(means[name], abs=1e-12)

    def test_bad_window_rejected(self):
        with pytest.raises(DomainError):
            setup_all_players(synth_matches(match_count=2), EloSystem(), window=0)


@pytest.mark.parametrize(
    "setup, keyword",
    [
        (setup_best_players, "top_k"),
        (setup_best_players, "horizon"),
        (setup_frequent_players, "horizon"),
    ],
)
@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_cohort_size_rejected(setup, keyword, value):
    with pytest.raises(DomainError, match=f"{keyword} must be >= 1"):
        setup(synth_matches(match_count=2), EloSystem(), **{keyword: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_conservative_k_rejected(value):
    # a NaN sorts the qualifiers in arbitrary order; an infinity ties them all
    with pytest.raises(DomainError, match="conservative_k must be finite"):
        setup_best_players(
            synth_matches(match_count=2), EloSystem(), conservative_k=value
        )


def three_player_history():
    """a plays 3 games, b plays 2, c plays 1, all singleton teams."""
    return [
        match_of("m1", 0, [("t1", ("a",), 1), ("t2", ("b",), 2)]),
        match_of("m2", 1, [("t1", ("a",), 2), ("t2", ("b",), 1)]),
        match_of("m3", 2, [("t1", ("a",), 1), ("t2", ("c",), 2)]),
    ]


class TestCohortSetups:
    def test_min_games_bound_is_strict(self):
        # only a (3 games) clears min_games=2; b sits exactly on the bound
        trend, _ = setup_best_players(
            three_player_history(),
            EloSystem(),
            top_k=10,
            min_games=2,
            horizon=3,
        )
        assert trend.setup == "best"
        assert len(trend.points) == 3
        assert all(p.match_count == 1 for p in trend.points)

    def test_focal_team_error_tracks_the_cohort_player(self):
        matches = three_player_history()
        trend, result = setup_best_players(
            matches, EloSystem(), top_k=10, min_games=2, horizon=3
        )
        for game, point in enumerate(trend.points, start=1):
            report = result.reports[result.player_match_index["a"][game - 1]]
            team_id = next(
                t.team_id for t in report.match.teams if "a" in t.members
            )
            expected = abs(
                report.ranking.rank_of(team_id)
                - next(
                    t.observed_rank
                    for t in report.match.teams
                    if t.team_id == team_id
                )
            )
            assert point.focal_team_error == pytest.approx(expected)

    def test_top_k_limits_cohort(self):
        matches = synth_matches(match_count=40)
        wide, _ = setup_best_players(
            matches, EloSystem(), top_k=1000, min_games=5, horizon=3
        )
        narrow, _ = setup_best_players(
            matches, EloSystem(), top_k=3, min_games=5, horizon=3
        )
        assert narrow.points[0].match_count == 3
        assert wide.points[0].match_count > 3

    def test_top_k_shortfall_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            setup_best_players(
                three_player_history(),
                EloSystem(),
                top_k=50,
                min_games=1,
                horizon=2,
            )
        assert any("top-50 cohort" in r.message for r in caplog.records)

    def test_empty_cohort_gives_empty_trend(self, caplog):
        with caplog.at_level(logging.WARNING):
            trend, _ = setup_best_players(
                three_player_history(),
                EloSystem(),
                top_k=10,
                min_games=99,
                horizon=2,
            )
        assert trend.points == []
        assert any("empty cohort" in r.message for r in caplog.records)

    def test_horizon_truncates_when_games_run_out(self, caplog):
        # cohort = a and b; nobody has a 4th game
        with caplog.at_level(logging.WARNING):
            trend, _ = setup_frequent_players(
                three_player_history(), EloSystem(), min_games=1, horizon=10
            )
        assert trend.setup == "frequent"
        assert [p.position_index for p in trend.points] == [1, 2, 3]
        assert [p.match_count for p in trend.points] == [2, 2, 1]
        assert any("trend truncated" in r.message for r in caplog.records)

    def test_conservative_k_can_change_the_cohort(self):
        from royale_ratings.trueskill import TrueSkillSystem

        matches = synth_matches(match_count=60)
        plain, result = setup_best_players(
            matches, TrueSkillSystem(), top_k=5, min_games=5, horizon=1
        )
        shaded, _ = setup_best_players(
            matches,
            TrueSkillSystem(),
            top_k=5,
            min_games=5,
            horizon=1,
            conservative_k=3.0,
        )
        assert plain.points and shaded.points


class TestCsvWriters:
    def test_match_metrics_csv(self, tmp_path):
        result = replay(synth_matches(match_count=4), EloSystem())
        path = tmp_path / "per_match.csv"
        write_match_metrics_csv(path, result.reports)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("match_id,timestamp,team_count,")
        assert len(lines) == 5
        assert lines[1].split(",")[0] == "m000001"

    def test_trend_csv_blank_focal_for_population_setup(self, tmp_path):
        trend, _ = setup_all_players(
            synth_matches(match_count=4), EloSystem(), window=2
        )
        path = tmp_path / "trend.csv"
        write_trend_csv(path, trend)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[0] == "position_index"
        assert lines[0].split(",")[-1] == "focal_team_error"
        assert len(lines) == 5
        assert all(line.endswith(",") for line in lines[1:])

    def test_trend_csv_focal_column_filled_for_cohorts(self, tmp_path):
        trend, _ = setup_best_players(
            three_player_history(), EloSystem(), top_k=10, min_games=2, horizon=2
        )
        path = tmp_path / "trend.csv"
        write_trend_csv(path, trend)
        lines = path.read_text().splitlines()
        assert all(not line.endswith(",") for line in lines[1:])
