"""Differential test of ``replay.ingest`` against the DictReader reader it
replaced.

``reference_ingest`` below is that earlier implementation, kept verbatim
apart from its name: one ``csv.DictReader`` pass that parses every row's
timestamp and placement, then a grouping pass.  Hypothesis writes match
logs with reordered, repeated and extra header columns, short and long
rows, blank lines, quoted fields holding newlines, one instant spelt
several ways, interleaved and out-of-order matches and every semantic
defect, and both readers must agree on the matches, the ``IngestStats``,
the warnings logged (in order) and, when they raise, the ``DataError``
message.
"""

from __future__ import annotations

import csv
import io
import logging
import tempfile
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import DataError, DomainError, MatchRecord, TeamEntry
from royale_ratings.replay import (
    MATCH_LOG_COLUMNS,
    IngestStats,
    ingest,
    parse_timestamp,
)

log = logging.getLogger("royale_ratings.replay")


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
PLAYERS = tuple("abcdefghij") + ("multi\nline", 'q"uote', "x,y")
EXTRA_VALUES = ("", "x", "two\nlines", "three\r\nlines\n", '"', "a,b")


def placement_text(rank: int) -> st.SearchStrategy[str]:
    return st.sampled_from((str(rank), f" {rank}", f"+{rank}", f"0{rank}"))


def one_in(n: int) -> st.SearchStrategy[bool]:
    return st.sampled_from((True,) + (False,) * (n - 1))


@st.composite
def match_rows(draw, match_id: str) -> list[dict[str, str]]:
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
        st.lists(st.sampled_from(PLAYERS), min_size=total, max_size=total, unique=True)
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
    rows: list[dict[str, str]] = []
    for number in range(draw(st.integers(0, 5))):
        rows.extend(draw(match_rows(f"m{number}")))
    # interleave the matches' rows and move some matches before earlier ones
    rows = draw(st.permutations(rows)) if draw(st.booleans()) else rows
    # a structural defect in one row of some logs; the others reach the
    # semantic checks
    fault_at = draw(st.integers(0, len(rows) - 1)) if rows and draw(one_in(4)) else None
    fault = draw(st.sampled_from(("empty", "stamp", "placement", "short")))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(("\n", "\r\n"))))
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
            row[name] if last[name] == i and name in row else draw(st.sampled_from(EXTRA_VALUES))
            for i, name in enumerate(header)
        ]
        if faulty and fault == "short":
            fields = fields[: draw(st.integers(0, len(fields) - 1))]
        fields.extend(draw(st.lists(st.sampled_from(EXTRA_VALUES), max_size=2)))
        writer.writerow(fields)
        if draw(one_in(6)):
            buffer.write("\n")  # blank lines are skipped
    return buffer.getvalue()


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
