"""Match-log ingest: the log's columns, its timestamps, and ``ingest``.

Ingest has two tokenizers, a column pass for quote-free logs, which
splits each block of lines it reads into one flat list of fields with a
marker after each line's, and a ``csv.reader`` pass for any other, and
one builder that counts what they read and turns each match's rows into
a MatchRecord built straight from its layout, with one string object per
distinct player id and team id.
"""

from __future__ import annotations

import csv
import logging
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, compress, pairwise
from pathlib import Path
from typing import Any, Callable, Sequence

from .core import DataError, DomainError, MatchRecord, match_from_layout

__all__ = [
    "MATCH_LOG_COLUMNS",
    "IngestStats",
    "ingest",
    "parse_timestamp",
    "format_timestamp",
]

log = logging.getLogger(__name__)

MATCH_LOG_COLUMNS = ("match_id", "timestamp", "team_id", "player_id", "team_placement")


def parse_timestamp(text: str) -> datetime:
    """ISO-8601, with a trailing Z accepted; naive stamps are taken as UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    stamp = datetime.fromisoformat(raw)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def format_timestamp(stamp: datetime) -> str:
    """The UTC instant as ISO-8601 with a trailing Z and microseconds only
    when non-zero; a naive stamp is taken as UTC, as ``parse_timestamp`` does."""
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    return stamp.isoformat() + "Z"


@dataclass(slots=True)
class IngestStats:
    """Counters the ingest pass fills in for run summaries."""

    rows: int = 0
    matches_read: int = 0
    filtered: int = 0
    rejected: list[tuple[str, str]] = field(default_factory=list)


# the column pass reads the log in blocks of this many characters
_CHUNK_CHARS = 1 << 16


class _Unchecked(ValueError):
    """The column pass met a log it cannot check.  ``ingest`` reads the
    file again with ``csv.reader`` on any ValueError from that pass: this
    one, a string that ``_Parsed`` cannot parse, or bytes that are not
    UTF-8."""


class _Parsed(dict):
    """Each distinct string parsed once: a missing key is parsed and kept;
    a string that does not parse raises the parser's ValueError."""

    def __init__(self, parse: Callable[[str], Any]) -> None:
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str) -> Any:
        value = self[text] = self.parse(text)
        return value


def _header_columns(header: Sequence[str]) -> tuple[list[int], list[str]]:
    """The position of each of the five columns in a header row (a repeated
    column counts at its last position, as in DictReader), and the names of
    those it lacks."""
    position = {name: i for i, name in enumerate(header)}
    missing = [c for c in MATCH_LOG_COLUMNS if c not in position]
    return [position.get(c, -1) for c in MATCH_LOG_COLUMNS], missing


def _group(
    stamps: Sequence[datetime],
    team_ids: Sequence[str],
    players: Sequence[str],
    places: Sequence[int],
) -> tuple[datetime, dict[str, list[Any]]] | str:
    """One match's parsed rows, in file order, as the first row's timestamp
    and team_id -> ``[placement, *members]`` in first-appearance order; or
    the reason its first bad row rejects it: a timestamp that differs from
    the first row's or a placement that differs from the team's first row's."""
    first = stamps[0]
    teams: dict[str, list[Any]] = {}
    for stamp, team_id, player_id, placement in zip(stamps, team_ids, players, places):
        if stamp is not first and stamp != first:
            return (
                f"rows carry different timestamps ({first.isoformat()} "
                f"and {stamp.isoformat()})"
            )
        team = teams.get(team_id)
        if team is None:
            teams[team_id] = [placement, player_id]
        elif team[0] != placement:
            return f"team {team_id!r} has inconsistent placements"
        else:
            team.append(player_id)
    return first, teams


class _Kept:
    """The matches one ingest pass keeps, and every count of what it read:
    the rows and matches it was given, the matches it filtered and those
    it rejected.  ``commit`` hands them to an ``IngestStats`` and logs
    each rejection once the pass has finished, so a pass that raises
    counts and logs nothing.  Each distinct timestamp and placement string
    is parsed once, and each distinct player id and team id is kept once,
    per call: every record shares the one string object ``ids`` holds for
    it.  ``read`` holds the id of every match ``add_run`` has been given,
    and a second run of one id raises ``_Unchecked``: the one copy of the
    rule that a match's rows are contiguous.  The ``csv.reader`` pass
    gives each id once."""

    def __init__(self, team_size: int | None) -> None:
        self.team_size = team_size
        self.stamps = _Parsed(parse_timestamp)
        self.placements = _Parsed(int)
        self.ids: dict[str, str] = {}
        self.matches: list[MatchRecord] = []
        self.read: set[str] = set()
        self.rows = 0
        self.filtered = 0
        self.rejected: list[tuple[str, str]] = []

    def add_run(
        self,
        match_id: str,
        stamps: list[str],
        team_ids: list[str],
        players: list[str],
        places: list[str],
    ) -> None:
        """One match's rows, in file order, counted in ``rows``.  A run
        whose rows share one timestamp string, whose teams are contiguous
        and of one size and each have one placement string is built from
        its column slices; any other is grouped by ``_group``.  Its
        timestamps and placements are parsed before the ``team_size``
        filter, so a string that does not parse raises the parser's
        ValueError in any match; a match the filter drops is not built and
        keeps none of its ids.  A match id given before (a match whose rows
        are not contiguous) raises ``_Unchecked``."""
        if match_id in self.read:
            raise _Unchecked
        self.read.add(match_id)
        rows = len(team_ids)
        self.rows += rows
        size = team_ids.count(team_ids[0])
        teams: Sequence[str] = team_ids[::size]
        ranks = places[::size]
        count = len(teams)
        # rows is a multiple of size: team_ids[size - 1::size] == teams
        # holds only then
        if (
            stamps.count(stamps[0]) == rows
            and len(set(teams)) == count
            and all(
                team_ids[j::size] == teams and places[j::size] == ranks
                for j in range(1, size)
            )
        ):
            stamp = self.stamps[stamps[0]]
            ranks = list(map(self.placements.__getitem__, ranks))
            sizes: tuple[int, ...] = (size,) * count
            roster: Sequence[str] = players
        else:
            grouped = _group(
                list(map(self.stamps.__getitem__, stamps)),
                team_ids,
                players,
                list(map(self.placements.__getitem__, places)),
            )
            if isinstance(grouped, str):
                self.rejected.append((match_id, grouped))
                return
            stamp, entries = grouped
            teams = list(entries)
            ranks = [entry[0] for entry in entries.values()]
            rosters = [entry[1:] for entry in entries.values()]
            sizes = tuple(map(len, rosters))
            roster = list(chain.from_iterable(rosters))
        if self.team_size is not None and sizes.count(self.team_size) != len(sizes):
            self.filtered += 1
            return
        keep = self.ids.setdefault
        teams, roster = tuple(map(keep, teams, teams)), tuple(map(keep, roster, roster))
        try:
            self.matches.append(
                match_from_layout(match_id, stamp, teams, tuple(ranks), sizes, roster)
            )
        except DomainError as exc:
            self.rejected.append((match_id, str(exc)))

    def commit(self, stats: IngestStats) -> list[MatchRecord]:
        stats.rows += self.rows
        stats.matches_read += len(self.read)
        stats.filtered += self.filtered
        stats.rejected.extend(self.rejected)
        for match_id, reason in self.rejected:
            log.warning("rejected match %s: %s", match_id, reason)
        # stable, equal stamps keep file order
        self.matches.sort(key=operator.attrgetter("timestamp"))
        return self.matches


def _read_columns(path: Path, kept: _Kept) -> None:
    """The column pass of ``ingest`` over a quote-free log: it only
    tokenizes, and ``kept`` builds and counts.

    The log is read in blocks of whole lines: ``_CHUNK_CHARS`` characters
    and the rest of the line they end in.  Each block becomes one flat
    list of fields in one split (see ``_chunk_columns``, which also checks
    the header line), and ``_add_runs`` cuts the list into runs of one
    match id and hands each to ``kept.add_run`` as stepped slices of it.
    Only the fields of the last run, which may go on in the next block,
    carry over.  Whatever the pass cannot check the way the ``csv.reader``
    pass would raises a ValueError: ``_Unchecked`` for what it cannot
    tokenize and for a match whose rows are not contiguous (at the second
    run of its id), the parser's error for a timestamp or placement that
    does not parse, and ``UnicodeDecodeError`` for bytes that are not
    UTF-8.
    """
    limit = csv.field_size_limit()
    with open(path, encoding="utf-8-sig") as handle:
        head = handle.readline()
        header = _chunk_columns(head, head.count(",") + 1, [], limit)[:-1]
        picks, missing = _header_columns(header)
        if missing:
            raise _Unchecked
        width = len(header)
        step = width + 1
        carry: list[str] = []
        while block := handle.read(_CHUNK_CHARS) + handle.readline():
            fields = _chunk_columns(block, width, picks, limit)
            carry = _add_runs(kept, carry + fields, step, picks)
        if carry:
            _add_runs(kept, carry, step, picks, last=True)


def _chunk_columns(text: str, width: int, picks: list[int], limit: int) -> list[str]:
    """The fields of ``text``, whole lines read with universal newlines, in
    one split: each line's fields and then one ``"\\n"`` marker.  Blank
    lines are skipped, and the file's last line, which may have no line
    end, is read as if it had one.  Raises ``_Unchecked`` unless the
    ``csv.reader`` pass would read the same fields from the lines, none of
    the picked ones empty; a line longer than ``limit`` with its own line
    end (a last line without one as it stands) is not checked.  The lines
    have ``width`` fields each when the fields number ``width + 1`` per
    line and every ``width + 1``-th one is a marker."""
    end = text.rfind("\n") + 1  # after it, a last line without a line end
    if '"' in text or (
        len(text) > limit
        and (len(text) - end > limit or max(map(len, text[:end].split("\n"))) >= limit)
    ):
        raise _Unchecked
    if text[:1] == "\n" or "\n\n" in text:  # blank lines
        text = "".join([line + "\n" for line in text.split("\n") if line])
    elif end < len(text):
        text += "\n"
    marked = text.replace("\n", ",\n,")
    fields = marked.split(",")
    fields.pop()  # after the last marker
    lines = (len(marked) - len(text)) // 2  # each line end gained two commas
    step = width + 1
    if (
        len(fields) != lines * step
        or fields[width::step].count("\n") != lines
        or (not all(fields) and any("" in fields[pick::step] for pick in picks))
    ):
        raise _Unchecked
    return fields


def _add_runs(
    kept: _Kept, fields: list[str], step: int, picks: list[int], last: bool = False
) -> list[str]:
    """Hands each run of one match id in ``fields``, ``step`` fields a line,
    to ``kept.add_run`` as stepped slices of the picked columns, and
    returns the fields of the last run, which it hands on only if
    ``last``."""
    pick_id, pick_stamp, pick_team, pick_player, pick_place = picks
    ids = fields[pick_id::step]
    changes = map(operator.ne, ids, ids[1:])
    starts = [0, *compress(range(1, len(ids)), changes)]
    if last:
        starts.append(len(ids))
    for i, j in pairwise(starts):
        a, b = i * step, j * step
        kept.add_run(
            ids[i],
            fields[a + pick_stamp : b : step],
            fields[a + pick_team : b : step],
            fields[a + pick_player : b : step],
            fields[a + pick_place : b : step],
        )
    return fields[starts[-1] * step :]


def _read_grouped(path: Path, kept: _Kept) -> None:
    """The ``csv.reader`` pass of ``ingest``: it only tokenizes, and
    ``kept`` builds and counts.  Every row is checked and parsed in file
    order, so the first bad line raises a DataError naming it, and its
    four fields after the match id go on its match's one flat list, each
    as the one string ``kept.ids`` holds for it, so the lists hold each
    distinct field once however many rows repeat it; then each match, in
    first-appearance order, goes to ``kept.add_run`` as column slices of
    that list."""
    grouped: defaultdict[str, list[str]] = defaultdict(list)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, expected a header row")
            columns, missing = _header_columns(header)
            if missing:
                raise DataError(f"{path}: header is missing column(s) {missing}")
            pick = operator.itemgetter(*columns)
            width = max(columns) + 1
            for row in reader:
                if not row:
                    continue
                if len(row) < width or not all(values := pick(row)):
                    raise DataError(
                        f"{path}:{reader.line_num}: row is missing a required field"
                    )
                match_id, ts_text, _, _, placement_text = values
                try:
                    kept.stamps[ts_text]
                except ValueError:
                    raise DataError(
                        f"{path}:{reader.line_num}: bad timestamp {ts_text!r}"
                    ) from None
                try:
                    kept.placements[placement_text]
                except ValueError:
                    raise DataError(
                        f"{path}:{reader.line_num}: bad team_placement "
                        f"{placement_text!r}"
                    ) from None
                rest = values[1:]  # the match id is the list's key
                grouped[match_id].extend(map(kept.ids.setdefault, rest, rest))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: unreadable CSV ({exc})") from None
    for match_id, flat in grouped.items():
        kept.add_run(match_id, flat[::4], flat[1::4], flat[2::4], flat[3::4])


def ingest(
    path: str | Path,
    *,
    team_size: int | None = None,
    stats: IngestStats | None = None,
) -> list[MatchRecord]:
    """Read a match-log CSV into time-sorted MatchRecords.

    The rows' five columns are found at the positions the header gives
    them (a repeated column counts at its last position; extra columns are
    ignored; blank lines are skipped), and each distinct timestamp and
    placement string is parsed once per call.  Each distinct player id and
    team id is kept once, per call: every record holds the same string
    object for it, so a player's id costs memory once, not once per game.

    Two tokenizers feed one match builder, which gets each match's rows in
    file order.  Both read the file as UTF-8 and drop a byte-order mark at
    its start.  Every log starts on the column pass: it is read with
    universal newlines in blocks of whole lines, about ``_CHUNK_CHARS``
    characters each, and each block is split into its fields at once,
    with a ``"\\n"`` marker after each line's fields, so the markers'
    positions give each line's field count.  Both passes only tokenize
    (the ``csv.reader`` pass also parses each row, to name the first bad
    line); the builder parses, builds and counts.  Any ValueError ends the
    column pass: the pass raises one for a double quote, a line over the
    csv module's field size limit, a line with another number of fields
    than the header or an empty field; the builder for a match whose rows
    are not contiguous (a second run of one match id) and for a timestamp
    or placement it cannot parse; the decoder for bytes that are not
    UTF-8.
    The whole file is then read again, row by row, with ``csv.reader``,
    which holds each distinct field string once until the file ends.  So
    quote-free logs whose matches each sit in one run of rows (``synth``
    writes them so) take the column pass, and quoted logs give the results
    of their unquoted twins.  Only the ``csv.reader`` pass raises:
    structurally malformed rows (missing fields, bad timestamp, non-integer
    placement) and csv-level errors (a field over the csv module's size
    limit, ...) raise a DataError naming file and line, at the first bad
    line in file order; bytes that are not UTF-8 raise a DataError naming
    the file.

    Semantically invalid matches (rows that disagree on the timestamp,
    placements not a permutation, duplicated players, placement < 1) are
    rejected with a logged diagnostic and the rest of the file is still
    used.  ``team_size``, which must be positive, keeps only matches whose
    teams all have exactly that many players.  ``stats`` is filled in and
    the rejections are logged only when ``ingest`` returns: a restart
    counts and logs nothing twice, and a call that raises leaves ``stats``
    as it was given.
    """
    if team_size is not None and team_size < 1:
        raise DomainError(f"team_size must be positive, got {team_size}")
    path = Path(path)
    stats = stats if stats is not None else IngestStats()
    kept = _Kept(team_size)
    try:
        _read_columns(path, kept)
    except ValueError:
        kept = _Kept(team_size)
        _read_grouped(path, kept)
    return kept.commit(stats)

