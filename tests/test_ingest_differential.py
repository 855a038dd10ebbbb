"""Differential test of ``matchlog.ingest`` against the DictReader reader it
replaced.

``reference_ingest`` below is that earlier implementation, kept verbatim
apart from its name: one ``csv.DictReader`` pass that parses every row's
timestamp and placement, then a grouping pass.  Hypothesis writes match
logs with reordered, repeated and extra header columns, short and long
rows, blank lines, LF, CRLF and lone-CR line ends, a last line without
one, quoted fields holding newlines, ids holding characters that
``str.splitlines`` splits on and a NUL, one instant or placement spelt
several ways, interleaved and out-of-order matches and every semantic
defect, and both readers must agree on the matches, the ``IngestStats``,
the warnings logged (in order) and, when they raise, the ``DataError``
message.

``ingest`` reads quote-free logs in a column pass, a block of characters
at a time, and starts again on the ``csv.reader`` pass at the first line it
cannot check; every test here runs with blocks of a few lines, so
matches cross block boundaries and a restart can come late.  The last
tests check that the logs ``synth`` and the benchmark write never reach
the ``csv.reader`` pass.
"""

from __future__ import annotations

import codecs
import csv
import importlib
import importlib.util
import io
import json
import logging
import sys
import tempfile
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.cli import main
from royale_ratings.core import DataError, DomainError, MatchRecord, TeamEntry
from royale_ratings.matchlog import (
    MATCH_LOG_COLUMNS,
    IngestStats,
    ingest,
    parse_timestamp,
)
from royale_ratings.synth import SynthConfig, generate, write_match_log

log = logging.getLogger("royale_ratings.matchlog")
replay_module = importlib.import_module("royale_ratings.matchlog")

ROOT = Path(__file__).resolve().parents[1]
# characters of a line in each column-pass chunk, here and in production
SMALL_CHUNK = 64
FULL_CHUNK = replay_module._CHUNK_CHARS


@pytest.fixture(autouse=True, scope="module")
def small_chunks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay_module, "_CHUNK_CHARS", SMALL_CHUNK)
        yield


def reference_ingest(
    path: str | Path,
    *,
    team_size: int | None = None,
    stats: IngestStats | None = None,
) -> list[MatchRecord]:
    """Read a match-log CSV into time-sorted MatchRecords.

    Structurally malformed rows (missing fields, bad timestamp,
    non-integer placement) raise a DataError naming file and line.
    Semantically invalid matches (rows that disagree on the timestamp,
    placements not a permutation, duplicated players, placement < 1) are
    rejected with a logged diagnostic and the rest of the file is still
    used.  ``team_size`` keeps only matches whose teams all have exactly
    that many players.
    """
    path = Path(path)
    stats = stats if stats is not None else IngestStats()
    grouped: dict[str, list[tuple[datetime, str, str, int]]] = {}
    order: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file, expected a header row")
            missing = [c for c in MATCH_LOG_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise DataError(f"{path}: header is missing column(s) {missing}")
            for row in reader:
                line = reader.line_num
                values = [row.get(c) for c in MATCH_LOG_COLUMNS]
                if any(v is None or v == "" for v in values):
                    raise DataError(f"{path}:{line}: row is missing a required field")
                match_id, ts_text, team_id, player_id, placement_text = values
                try:
                    stamp = parse_timestamp(ts_text)
                except ValueError:
                    raise DataError(
                        f"{path}:{line}: bad timestamp {ts_text!r}"
                    ) from None
                try:
                    placement = int(placement_text)
                except ValueError:
                    raise DataError(
                        f"{path}:{line}: bad team_placement {placement_text!r}"
                    ) from None
                stats.rows += 1
                if match_id not in grouped:
                    grouped[match_id] = []
                    order.append(match_id)
                grouped[match_id].append((stamp, team_id, player_id, placement))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None

    matches: list[MatchRecord] = []
    for match_id in order:
        rows = grouped[match_id]
        stats.matches_read += 1
        teams: dict[str, list[str]] = {}
        placements: dict[str, int] = {}
        bad_reason: str | None = None
        stamp = rows[0][0]
        for row_stamp, team_id, player_id, placement in rows:
            if row_stamp != stamp:
                bad_reason = (
                    f"rows carry different timestamps ({stamp.isoformat()} "
                    f"and {row_stamp.isoformat()})"
                )
                break
            teams.setdefault(team_id, []).append(player_id)
            if team_id in placements and placements[team_id] != placement:
                bad_reason = f"team {team_id!r} has inconsistent placements"
                break
            placements[team_id] = placement
        if bad_reason is None and team_size is not None:
            if any(len(members) != team_size for members in teams.values()):
                stats.filtered += 1
                continue
        if bad_reason is None:
            try:
                record = MatchRecord(
                    match_id=match_id,
                    timestamp=stamp,
                    teams=tuple(
                        TeamEntry(
                            team_id=tid,
                            members=tuple(members),
                            observed_rank=placements[tid],
                        )
                        for tid, members in teams.items()
                    ),
                )
            except DomainError as exc:
                bad_reason = str(exc)
            else:
                matches.append(record)
                continue
        stats.rejected.append((match_id, bad_reason))
        log.warning("rejected match %s: %s", match_id, bad_reason)

    matches.sort(key=lambda m: m.timestamp)  # stable, equal stamps keep file order
    return matches


# each tuple spells one instant four ways: Z, +00:00, naive, another
# offset; the first two instants share a wall-clock spelling
INSTANTS = (
    (
        "2020-05-01T12:00:00Z",
        "2020-05-01T12:00:00+00:00",
        "2020-05-01T12:00:00",
        "2020-05-01T14:00:00+02:00",
    ),
    (
        "2020-05-01T10:00:00z",
        "2020-05-01 10:00:00+00:00",
        " 2020-05-01T10:00:00 ",
        "2020-05-01T12:00:00+02:00",
    ),
    (
        "2020-05-01T12:30:00.5Z",
        "2020-05-01T12:30:00.500+00:00",
        "2020-05-01T12:30:00.5",
        "2020-05-01T18:00:00.5+05:30",
    ),
)
BAD_STAMPS = ("not-a-time", "2020-13-01T00:00:00Z", " ")
BAD_PLACEMENTS = ("first", "1.5", " ")
# str.splitlines splits on \x0c, \x1c and \u2028; the csv module does not
LINE_LIKE = ("\x0c", "\x1c", "\u2028")
# the plain values are written without quotes and hold no NUL
PLAIN_PLAYERS = tuple("abcdefghij") + tuple(f"s{mark}p" for mark in LINE_LIKE)
PLAYERS = PLAIN_PLAYERS + ("multi\nline", 'q"uote', "x,y", "n\x00ul")
PLAIN_EXTRA_VALUES = ("", "x")
EXTRA_VALUES = PLAIN_EXTRA_VALUES + ("two\nlines", "three\r\nlines\n", '"', "a,b")


def placement_text(rank: int) -> st.SearchStrategy[str]:
    return st.sampled_from((str(rank), f" {rank}", f"+{rank}", f"0{rank}"))


def one_in(n: int) -> st.SearchStrategy[bool]:
    return st.sampled_from((True,) + (False,) * (n - 1))


@st.composite
def match_rows(draw, match_id: str, players: tuple[str, ...]) -> list[dict[str, str]]:
    """One match's rows, by column name, perhaps with one semantic defect."""
    defect = draw(
        st.sampled_from(
            ("none",) * 6
            + ("single", "tie", "inconsistent", "zero", "stamp", "twice", "two_teams")
        )
    )
    n_teams = 1 if defect == "single" else draw(st.integers(2, 4))
    ranks = list(draw(st.permutations(range(1, n_teams + 1))))
    if defect == "tie":
        ranks[1] = ranks[0]
    if defect == "zero":
        ranks[0] = draw(st.sampled_from((0, -1)))
    sizes = [draw(st.integers(1, 3)) for _ in ranks]
    total = sum(sizes)
    players = draw(
        st.lists(st.sampled_from(players), min_size=total, max_size=total, unique=True)
    )
    instant = draw(st.integers(0, len(INSTANTS) - 1))
    rows = []
    for team, (rank, size) in enumerate(zip(ranks, sizes)):
        for _ in range(size):
            rows.append(
                {
                    "match_id": match_id,
                    "timestamp": draw(st.sampled_from(INSTANTS[instant])),
                    "team_id": f"t{team}",
                    "player_id": players.pop(),
                    "team_placement": draw(placement_text(rank)),
                }
            )
    if defect == "inconsistent":
        rows[-1]["team_id"] = rows[0]["team_id"]
        rows[-1]["team_placement"] = str(int(rows[0]["team_placement"]) + 1)
    if defect == "stamp":
        other = (instant + 1) % len(INSTANTS)
        rows[-1]["timestamp"] = draw(st.sampled_from(INSTANTS[other]))
    if defect in ("twice", "two_teams"):
        # a player listed twice in one team, or in two teams
        source = rows[-1] if defect == "twice" else rows[0]
        rows.append({**source, "player_id": rows[-1]["player_id"]})
    return rows


@st.composite
def header_columns(draw) -> list[str]:
    """The five columns in any order, with extra and repeated columns and,
    rarely, one column left out."""
    columns = list(draw(st.permutations(MATCH_LOG_COLUMNS)))
    if draw(one_in(12)):
        columns.pop(draw(st.integers(0, len(columns) - 1)))
    names = st.sampled_from(("extra", "notes", "") + MATCH_LOG_COLUMNS)
    for name in draw(st.lists(names, max_size=3)):
        columns.insert(draw(st.integers(0, len(columns))), name)
    return columns


@st.composite
def match_logs(draw) -> str:
    header = draw(header_columns())
    last = {name: i for i, name in enumerate(header)}
    # half the logs are plain, so the column pass reads them to the end
    # unless a defect or a ragged row stops it
    plain = draw(st.booleans())
    ragged = draw(one_in(3))
    players = PLAIN_PLAYERS if plain else PLAYERS
    extras = PLAIN_EXTRA_VALUES if plain else EXTRA_VALUES
    rows: list[dict[str, str]] = []
    mark = draw(st.sampled_from(("",) + LINE_LIKE))
    for number in range(draw(st.integers(0, 5))):
        rows.extend(draw(match_rows(f"m{mark}{number}", players)))
    # interleave the matches' rows and move some matches before earlier ones
    rows = draw(st.permutations(rows)) if draw(one_in(3)) else rows
    # a structural defect in one row of some logs; the others reach the
    # semantic checks
    fault_at = draw(st.integers(0, len(rows) - 1)) if rows and draw(one_in(4)) else None
    fault = draw(st.sampled_from(("empty", "stamp", "placement", "short")))

    buffer = io.StringIO()
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    writer = csv.writer(buffer, lineterminator=ending)
    if draw(one_in(12)):
        buffer.write("\n")  # a blank first line stands where the header should
    writer.writerow(header)
    for number, row in enumerate(rows):
        faulty = number == fault_at
        if faulty and fault == "empty":
            row[draw(st.sampled_from(MATCH_LOG_COLUMNS))] = ""
        elif faulty and fault == "stamp":
            row["timestamp"] = draw(st.sampled_from(BAD_STAMPS))
        elif faulty and fault == "placement":
            row["team_placement"] = draw(st.sampled_from(BAD_PLACEMENTS))
        # an earlier copy of a repeated column holds a decoy
        fields = [
            row[name] if last[name] == i and name in row else draw(st.sampled_from(extras))
            for i, name in enumerate(header)
        ]
        if faulty and fault == "short":
            fields = fields[: draw(st.integers(0, len(fields) - 1))]
        if ragged:
            fields.extend(draw(st.lists(st.sampled_from(extras), max_size=2)))
        writer.writerow(fields)
        if draw(one_in(6)):
            buffer.write("\n")  # blank lines are skipped
    text = buffer.getvalue()
    if text.endswith(ending) and draw(one_in(4)):
        text = text[: -len(ending)]  # a last line without a line end
    return text


@contextmanager
def recorded_warnings():
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    log.addHandler(handler)
    try:
        yield records
    finally:
        log.removeHandler(handler)


def outcome(reader, path: Path, team_size: int | None):
    """Everything a caller can observe of one ingest call."""
    stats = IngestStats()
    with recorded_warnings() as records:
        try:
            matches = reader(path, team_size=team_size, stats=stats)
        except DataError as exc:
            return ("raised", str(exc))
    # == on aware datetimes ignores the offset, so compare the spelling too
    stamps = [m.timestamp.isoformat() for m in matches]
    warnings = [(r.levelname, r.getMessage()) for r in records]
    return matches, stamps, stats, warnings


def assert_same_outcome(text: str, team_size: int | None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = outcome(reference_ingest, path, team_size)
        assert outcome(ingest, path, team_size) == expected


@settings(max_examples=400, deadline=None)
@given(match_logs(), st.sampled_from((None, 1, 2, 3)))
def test_structured_logs_ingest_like_the_reference(text, team_size):
    assert_same_outcome(text, team_size)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet=',"\r\n\x00 mtpx1+Z:-T', max_size=80),
    st.sampled_from((None, 1, 2)),
)
def test_csv_noise_ingests_like_the_reference(body, team_size):
    # a valid header, so the rows reach the per-row checks
    assert_same_outcome(",".join(MATCH_LOG_COLUMNS) + "\n" + body, team_size)


def rows_text(rows: list[str], ending: str = "\n") -> str:
    return ending.join([",".join(MATCH_LOG_COLUMNS), *rows]) + ending


def match_of(match_id: str, stamp: str, teams: int, size: int) -> list[str]:
    """A valid match's rows, team t1 placed first."""
    return [
        f"{match_id},{stamp},t{team},{match_id}p{team}.{member},{team}"
        for team in range(1, teams + 1)
        for member in range(size)
    ]


def planted_log(count: int) -> list[str]:
    """``count`` duo and trio matches, some rejected for each reason."""
    rows: list[str] = []
    for number in range(count):
        stamp = f"2020-05-01T12:{number % 60:02d}:00Z"
        match = match_of(f"m{number}", stamp, 3, 2 + number % 2)
        if number % 5 == 1:  # two teams placed first
            match[-1] = match[-1][:-1] + "1"
            match[-2] = match[-2][:-1] + "1"
            if number % 2:
                match[-3] = match[-3][:-1] + "1"
        elif number % 5 == 3:  # a team whose rows disagree on its placement
            match[0] = match[0][:-1] + "2"
        rows.extend(match)
    return rows


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("team_size", [None, 2])
def test_a_late_quote_restarts_without_counting_twice(ending, team_size):
    # the column pass builds, filters and rejects matches for many chunks
    # before the quote; the csv pass then reads the file from the start
    rows = planted_log(13)
    rows[-1] = rows[-1].replace(",m12p3.1,", ',"m12p3.1",')
    assert_same_outcome(rows_text(rows, ending), team_size)


@pytest.mark.parametrize(
    "text",
    [
        # a match whose rows come in two runs
        rows_text(
            match_of("a", "2020-05-01T12:00:00Z", 2, 1)
            + match_of("b", "2020-05-01T12:00:00Z", 2, 1)
            + ["a,2020-05-01T12:00:00Z,t3,x,3"]
        ),
        # Z and +00:00, 07 and 7 inside one run
        rows_text(
            [
                "m,2020-05-01T12:00:00Z,t1,a,07",
                "m,2020-05-01T12:00:00+00:00,t1,b,7",
                "m,2020-05-01T12:00:00Z,t2,c,+1",
                "m,2020-05-01T12:00:00Z,t2,d,1",
            ]
        ),
        # a run of one shape whose rows disagree on the instant, or whose
        # later row has a timestamp that does not parse
        rows_text(
            ["m,2020-05-01T12:00:00Z,t1,a,1", "m,2020-05-01T12:00:00+00:00,t2,b,2"]
        ),
        rows_text(["m,2020-05-01T12:00:00Z,t1,a,1", "m,2020-05-01T13:00:00Z,t2,b,2"]),
        rows_text(["m,2020-05-01T12:00:00Z,t1,a,1", "m,not-a-time,t2,b,2"]),
        # teams of two sizes, and a team whose rows are not contiguous
        rows_text(
            [
                "m,2020-05-01T12:00:00Z,t1,a,1",
                "m,2020-05-01T12:00:00Z,t2,b,2",
                "m,2020-05-01T12:00:00Z,t2,c,2",
            ]
        ),
        rows_text(
            [
                "m,2020-05-01T12:00:00Z,t1,a,1",
                "m,2020-05-01T12:00:00Z,t2,b,2",
                "m,2020-05-01T12:00:00Z,t3,c,3",
                "m,2020-05-01T12:00:00Z,t2,d,2",
            ]
        ),
        # blank lines, a last line without a line end
        "\n" + rows_text(match_of("m", "2020-05-01T12:00:00Z", 2, 2)),
        rows_text(match_of("m", "2020-05-01T12:00:00Z", 2, 2), "\r\n\r\n").rstrip(),
        # quoted fields the csv module reads without their quotes
        rows_text(
            ['m,2020-05-01T12:00:00Z,t1,"a",1', 'm,2020-05-01T12:00:00Z,t2,b,"2"']
        ),
        # a NUL, and ids split by str.splitlines
        rows_text(match_of("m\x00", "2020-05-01T12:00:00Z", 2, 2)),
        *(
            rows_text(match_of(f"m{mark}", "2020-05-01T12:00:00Z", 3, 2))
            for mark in LINE_LIKE
        ),
        # an empty field, a bad placement and a short line late in the log
        rows_text(planted_log(6) + ["m9,2020-05-01T12:00:00Z,t1,,1"]),
        rows_text(planted_log(6) + ["m9,2020-05-01T12:00:00Z,t1,a,first"]),
        rows_text(planted_log(6) + ["m9,2020-05-01T12:00:00Z,t1,a"]),
    ],
)
@pytest.mark.parametrize("team_size", [None, 2])
def test_edge_logs_ingest_like_the_reference(text, team_size):
    assert_same_outcome(text, team_size)


def load_benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture(scope="module")
def fast_path_logs(tmp_path_factory) -> list[tuple[Path, int | None]]:
    """A ``synth`` log and one log of each benchmark shape, planted rejects
    included, each with the team sizes it is read with."""
    directory = tmp_path_factory.mktemp("logs")
    config = SynthConfig(
        player_count=60, team_size=2, teams_per_match=6, match_count=40, seed=3
    )
    matches, _ = generate(config)
    write_match_log(directory / "synth.csv", matches)
    logs = [(directory / "synth.csv", None), (directory / "synth.csv", 2)]
    # the same rows with LF or lone-CR line ends, blank lines, and a last
    # line without a line end
    lines = (directory / "synth.csv").read_text(encoding="utf-8").splitlines()
    for name, ending in (("lf", "\n"), ("cr", "\r")):
        spaced = "".join(
            line + ending * (1 + (i % 7 == 3)) for i, line in enumerate(lines)
        )
        path = directory / f"synth-{name}.csv"
        path.write_text(spaced.rstrip(ending), encoding="utf-8", newline="")
        logs.append((path, None))
    workloads = load_benchmark_workloads()
    for name, workload in workloads.WORKLOADS.items():
        path = workloads.ensure_log(name, 5, directory, scale=0.5) / "matches.csv"
        logs += [(path, None), (path, workload.target_mode[0])]
    return logs


@pytest.mark.parametrize("chunk", [SMALL_CHUNK, FULL_CHUNK])
def test_synth_and_benchmark_logs_take_the_column_pass(
    fast_path_logs, monkeypatch, chunk
):
    expected = [outcome(reference_ingest, path, size) for path, size in fast_path_logs]
    assert any(stats.rejected for _, _, stats, _ in expected)

    def csv_pass(*args, **kwargs):
        raise AssertionError("the csv.reader pass was reached")

    monkeypatch.setattr(replay_module, "_CHUNK_CHARS", chunk)
    monkeypatch.setattr(replay_module, "_read_grouped", csv_pass)
    for (path, size), reference in zip(fast_path_logs, expected):
        assert outcome(ingest, path, size) == reference, (path, size)


def test_a_chunk_of_blank_lines_takes_the_column_pass(monkeypatch, tmp_path):
    # chunks of one or two lines, so that runs of blank lines between and
    # inside the matches and after the last row make chunks of their own
    path = tmp_path / "blank.csv"
    rows = [
        row
        for number in range(4)
        for row in match_of(f"m{number}", f"2020-05-01T12:0{number}:00Z", 3, 2)
    ]
    lines = rows_text(rows).splitlines()
    spaced = "\n".join(line + "\n" * (i % 3) for i, line in enumerate(lines))
    path.write_text(spaced + "\n\n\n", encoding="utf-8", newline="")
    expected = outcome(reference_ingest, path, None)
    chunks = []
    column_chunk = replay_module._chunk_columns

    def recorded(lines, *args):
        chunks.append(lines)
        return column_chunk(lines, *args)

    def csv_pass(*args, **kwargs):
        raise AssertionError("the csv.reader pass was reached")

    monkeypatch.setattr(replay_module, "_CHUNK_CHARS", 1)
    monkeypatch.setattr(replay_module, "_chunk_columns", recorded)
    monkeypatch.setattr(replay_module, "_read_grouped", csv_pass)
    assert outcome(ingest, path, None) == expected
    assert len(expected[0]) == 4
    assert any(set(chunk) == {"\n"} for chunk in chunks)


def test_synth_and_benchmark_logs_through_the_csv_reader_pass(
    fast_path_logs, monkeypatch
):
    # the same logs, regular runs, rejects and the size filter together,
    # read by the csv.reader pass alone
    def column_pass(*args, **kwargs):
        raise replay_module._Unchecked

    monkeypatch.setattr(replay_module, "_read_columns", column_pass)
    outcomes = []
    for path, size in fast_path_logs:
        outcomes.append(outcome(ingest, path, size))
        assert outcomes[-1] == outcome(reference_ingest, path, size), (path, size)
    assert any(stats.rejected for _, _, stats, _ in outcomes)
    assert any(stats.filtered for _, _, stats, _ in outcomes)


def csv_pass_calls(monkeypatch) -> list[Path]:
    """The paths the csv.reader pass is called with, from here on."""
    read_grouped, calls = replay_module._read_grouped, []

    def recorded(path, *args):
        calls.append(path)
        return read_grouped(path, *args)

    monkeypatch.setattr(replay_module, "_read_grouped", recorded)
    return calls


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("last_ending", [True, False], ids=["ended", "unended"])
def test_read_blocks_of_a_few_characters_take_the_column_pass(
    monkeypatch, tmp_path, chunk, ending, last_ending
):
    # a read of a few characters ends inside a line, inside a CRLF and
    # between lines; each block is such a read plus the rest of the line it
    # ends in
    rows = [
        row
        for number in range(3)
        for row in match_of(f"m{number}", f"2020-05-01T12:0{number}:00Z", 3, 2)
    ]
    text = rows_text(rows, ending)
    path = tmp_path / "log.csv"
    path.write_text(
        text if last_ending else text.removesuffix(ending), encoding="utf-8", newline=""
    )
    expected = outcome(reference_ingest, path, None)
    calls = csv_pass_calls(monkeypatch)
    monkeypatch.setattr(replay_module, "_CHUNK_CHARS", chunk)
    assert outcome(ingest, path, None) == expected
    assert len(expected[0]) == 3
    assert calls == []


@pytest.fixture
def field_size_limit():
    limit = 80
    old = csv.field_size_limit(limit)
    try:
        yield limit
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("chunk", [1, 7, SMALL_CHUNK, FULL_CHUNK])
@pytest.mark.parametrize("excess", [-1, 0, 1])
@pytest.mark.parametrize("last_ending", [True, False], ids=["ended", "unended"])
def test_a_line_at_the_field_size_limit_takes_the_pass_it_took_before(
    monkeypatch, tmp_path, field_size_limit, chunk, excess, last_ending
):
    # the column pass checks a line as long as the limit, its line end
    # included, and leaves a longer one to the csv.reader pass
    head = "m,2020-05-01T12:00:00Z,t2,"
    player = "p" * (field_size_limit + excess - len(head) - 2)
    last = f"{head}{player},2"
    assert len(last) == field_size_limit + excess
    text = rows_text(["m,2020-05-01T12:00:00Z,t1,a,1", last])
    path = tmp_path / "log.csv"
    path.write_text(text if last_ending else text[:-1], encoding="utf-8", newline="")
    expected = outcome(reference_ingest, path, None)
    calls = csv_pass_calls(monkeypatch)
    monkeypatch.setattr(replay_module, "_CHUNK_CHARS", chunk)
    assert outcome(ingest, path, None) == expected
    assert expected[0][0].roster == ("a", player)
    assert (calls == [path]) == (len(last) + last_ending > field_size_limit)


@pytest.mark.parametrize("chunk", [1, 7, SMALL_CHUNK, FULL_CHUNK])
def test_a_line_at_the_limit_before_an_unended_last_line_takes_the_csv_reader_pass(
    monkeypatch, tmp_path, field_size_limit, chunk
):
    # the line at the limit is over it with its own line end, however the
    # last line after it, which has none, is counted
    head = "m,2020-05-01T12:00:00Z,t2,"
    player = "p" * (field_size_limit - len(head) - 2)
    line = f"{head}{player},2"
    assert len(line) == field_size_limit
    text = rows_text(
        ["m,2020-05-01T12:00:00Z,t1,a,1", line, "m,2020-05-01T12:00:00Z,t3,c,3"]
    )
    path = tmp_path / "log.csv"
    path.write_text(text[:-1], encoding="utf-8", newline="")
    expected = outcome(reference_ingest, path, None)
    calls = csv_pass_calls(monkeypatch)
    monkeypatch.setattr(replay_module, "_CHUNK_CHARS", chunk)
    assert outcome(ingest, path, None) == expected
    assert expected[0][0].roster == ("a", player, "c")
    assert calls == [path]


@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
def test_a_log_with_a_byte_order_mark_reads_like_its_twin(
    monkeypatch, tmp_path, capsys, quoted
):
    # "UTF-8 with BOM", as spreadsheet programs and editors save text; the
    # quoted log takes the csv.reader pass
    rows = match_of("m1", "2020-05-01T12:00:00Z", 3, 2)
    rows += match_of("m2", "2020-05-01T12:01:00Z", 2, 2)
    if quoted:
        rows[-1] = rows[-1].replace(",m2p2.1,", ',"m2p2.1",')
    twin, marked = tmp_path / "twin.csv", tmp_path / "bom.csv"
    twin.write_text(rows_text(rows), encoding="utf-8", newline="")
    marked.write_text(rows_text(rows), encoding="utf-8-sig", newline="")
    assert marked.read_bytes() == codecs.BOM_UTF8 + twin.read_bytes()
    calls = csv_pass_calls(monkeypatch)
    expected = outcome(ingest, twin, None)
    assert len(expected[0]) == 2
    assert outcome(ingest, marked, None) == expected
    assert calls == ([twin, marked] if quoted else [])
    summaries = []
    for path in (twin, marked):
        assert main(["inspect", "--input", str(path)]) == 0, capsys.readouterr().err
        summaries.append(json.loads(capsys.readouterr().out) | {"input": None})
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
def test_a_team_in_two_runs_of_the_first_teams_size_is_merged(
    monkeypatch, tmp_path, quoted
):
    # t2's rows come in two runs of two, the first team's size, so the
    # stepped team column repeats t2; the match is grouped row by row and
    # t2 keeps all four members in first-appearance order
    stamp = "2020-05-01T12:00:00Z"
    rows = [
        f"m1,{stamp},{team},{player},{team[1]}"
        for team, player in zip(
            ["t1", "t1", "t2", "t2", "t3", "t3", "t2", "t2"], "abcdefgh"
        )
    ]
    if quoted:
        rows[0] = rows[0].replace(",a,", ',"a",')
    path = tmp_path / "log.csv"
    path.write_text(rows_text(rows), encoding="utf-8", newline="")
    calls = csv_pass_calls(monkeypatch)
    result = outcome(ingest, path, None)
    assert result == outcome(reference_ingest, path, None)
    (match,), _, stats, warnings = result
    assert match.team_ids == ("t1", "t2", "t3")
    assert match.sizes == (2, 4, 2)
    assert match.roster == ("a", "b", "c", "d", "g", "h", "e", "f")
    assert stats.rejected == [] and warnings == []
    assert calls == ([path] if quoted else [])
