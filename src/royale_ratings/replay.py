"""Chronological match replay, dataset ingestion, and evaluation set-ups.

Ingest has two tokenizers, a column pass for quote-free logs, which
splits each block of lines it reads into one flat list of fields with a
marker after each line's, and a ``csv.reader`` pass for any other, and
one builder that counts what they read and turns each match's rows into
a MatchRecord built straight from its layout, with one string object per
distinct player id and team id.

The harness replays matches in timestamp order through one rating
system: unseen players get the system default, the match is predicted
from pre-match ratings only, the prediction is scored with all six
rank metrics, and only then do the ratings update.  Three set-ups view
the resulting per-match reports:

all       every match in sequence, metrics smoothed by a trailing
          moving-average window
best      top-rated cohort after the full replay (the top_k best final
          ratings among players with more than min_games games), raw
          metrics indexed by each player's own 1st..horizon-th game
frequent  all players with more than min_games games, indexed by each
          player's own 1st..horizon-th game

Each set-up's defaults are the keyword defaults of its ``setup_*``
function, and the trend it returns records every value it used.

Cohort set-ups never re-simulate: they index the single chronological
pass, so a cohort player's 3rd game is scored with whatever ratings the
whole population had evolved by then.  Every set-up reads the same two
columns of that pass: one row per report of the six metrics and the
new-player fraction, and, for the cohorts, the |predicted - observed|
rank of each member's team, aligned with the replay's member array.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain, compress, filterfalse, islice, pairwise
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    DataError,
    DomainError,
    MatchRecord,
    PlayerRating,
    PredictedRanking,
    match_from_layout,
    require_at_least,
)
from .metrics import METRIC_NAMES, MetricReport, rank_pairs, score_match
from .systems import RatingState, RatingSystem, RatingTable, rating_columns, row_sums

__all__ = [
    "MATCH_LOG_COLUMNS",
    "IngestStats",
    "ingest",
    "parse_timestamp",
    "format_timestamp",
    "STORE_MAGIC",
    "RatingStore",
    "MatchReport",
    "ReplayResult",
    "replay",
    "TrendPoint",
    "ExperimentTrend",
    "setup_all_players",
    "setup_best_players",
    "setup_frequent_players",
    "SETUP_NAMES",
    "mean_metrics",
    "write_match_metrics_csv",
    "write_trend_csv",
]

log = logging.getLogger(__name__)

MATCH_LOG_COLUMNS = ("match_id", "timestamp", "team_id", "player_id", "team_placement")

SETUP_NAMES = ("all", "best", "frequent")

STORE_MAGIC = "#royale-ratings-store v1"
# snapshots are read, as logs are, as UTF-8 that may start with a
# byte-order mark; save writes none
_STORE_ENCODING = "utf-8-sig"
_STORE_FIELDS = "#fields=player_id mu sigma games_played last_observed_rank"
# snapshot lines joined per write: one write per line is slower than one
# write of the whole snapshot, and a run of lines holds far less
_STORE_ROWS = 4096


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


@dataclass(slots=True)
class RatingStore:
    """Every player's rating after a replay, plus how it was produced."""

    system: str
    params: dict[str, Any]
    seed: int
    matches_processed: int
    ratings: RatingState

    def check(self) -> str:
        """Every check of ``save``, which touches no file, and the
        snapshot's header.

        The params must be finite for JSON, no player id may hold a tab or
        a newline (the first such id in sorted order is named), and every
        string must encode as UTF-8 (the header first, then the ids in
        sorted order).  ``save`` runs it before it makes the file's
        directory, so a caller that saves the store as its first write
        leaves the directory as it was when this fails.
        """
        head = "\n".join(
            [
                STORE_MAGIC,
                f"#system={self.system}",
                f"#seed={self.seed}",
                f"#matches={self.matches_processed}",
                f"#params={json.dumps(self.params, sort_keys=True, allow_nan=False)}",
                _STORE_FIELDS,
                "",
            ]
        )
        unsaved = [i for i in self.ratings if "\t" in i or "\n" in i]
        if unsaved:
            raise DataError(f"player id {min(unsaved)!r} cannot be snapshotted")
        # a lone surrogate raises UnicodeEncodeError here, not mid-write
        for text in (head, *sorted(filterfalse(str.isascii, self.ratings))):
            text.encode("utf-8")
        return head

    def save(self, path: str | Path) -> None:
        """Versioned text snapshot, one player per line, sorted for
        reproducible bytes.

        Every check (``check``) runs first, then the file's directory is
        made if it is missing, then the file is opened; so a snapshot that
        fails makes no directory and leaves any file at ``path`` as it
        was.  The lines are written ``_STORE_ROWS`` at a time, so the
        snapshot is never held whole in memory.
        """
        head = self.check()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        ids, *columns = rating_columns(self.ratings)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = [ids[i] for i in order]
        lines = (
            f"{player_id}\t{mu!r}\t{'-' if math.isnan(sigma) else repr(sigma)}"
            f"\t{games}\t{last or '-'}\n"
            for player_id, mu, sigma, games, last in zip(
                ids, *(column[order].tolist() for column in columns)
            )
        )
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(head)
            while run := "".join(islice(lines, _STORE_ROWS)):
                handle.write(run)

    @staticmethod
    def is_snapshot(path: str | Path) -> bool:
        """Whether the file at ``path`` starts with the snapshot's magic
        line, read as ``load`` reads it."""
        # bytes that are not UTF-8 are no snapshot; ingest names them
        with open(path, encoding=_STORE_ENCODING, errors="replace") as handle:
            return handle.readline().startswith(STORE_MAGIC)

    @classmethod
    def load(cls, path: str | Path) -> "RatingStore":
        path = Path(path)
        try:
            lines = path.read_bytes().decode(_STORE_ENCODING).split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        if lines[0] != STORE_MAGIC or _STORE_FIELDS not in lines:
            raise DataError(f"{path}: not a rating-store snapshot")
        # the header ends at the #fields line, so an id may start with "#"
        body_start = lines.index(_STORE_FIELDS) + 1
        # header key -> (line number, value)
        header: dict[str, tuple[int, str]] = {}
        for number, line in enumerate(lines[1 : body_start - 1], start=2):
            key, _, value = line[1:].partition("=")
            header[key] = (number, value)
        for key in ("system", "seed", "matches", "params"):
            if key not in header:
                raise DataError(f"{path}: snapshot header lacks {key!r}")

        def header_value(key: str, parse: Callable[[str], Any]) -> Any:
            number, value = header[key]
            try:
                parsed = parse(value)
                json.dumps(parsed, allow_nan=False)  # NaN or an infinity raises
                return parsed
            except ValueError:
                raise DataError(f"{path}:{number}: bad #{key} value {value!r}") from None

        ratings: RatingState = {}
        for offset, line in enumerate(lines[body_start:], start=body_start + 1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise DataError(f"{path}:{offset}: expected 5 fields")
            player_id, mu, sigma, games, last = parts
            if player_id in ratings:
                raise DataError(
                    f"{path}:{offset}: player {player_id!r} is listed twice"
                )
            try:
                ratings[player_id] = PlayerRating(
                    mu=float(mu),
                    sigma=None if sigma == "-" else float(sigma),
                    games_played=int(games),
                    last_observed_rank=None if last == "-" else int(last),
                )
            except ValueError as exc:
                raise DataError(f"{path}:{offset}: bad rating row: {exc}") from None
        return cls(
            system=header["system"][1],
            params=header_value("params", json.loads),
            seed=header_value("seed", int),
            matches_processed=header_value("matches", int),
            ratings=ratings,
        )


@dataclass(frozen=True, slots=True)
class MatchReport:
    """One replayed match: what was predicted and how it scored."""

    match: MatchRecord
    ranking: PredictedRanking
    metrics: MetricReport
    new_player_fraction: float


class _PlayerMatches(Mapping[str, list[int]]):
    """Read-only map of each player, in first-appearance order, to the
    chronological positions (indices into ``reports``) of their matches.

    It holds the replay's member array (every member's row, match after
    match), not one list per player: the first lookup sorts that array
    once (a stable argsort).  ``members`` gives a player's entries in the
    array and ``match_of`` the matches of entries, so the cohort set-ups
    read a player's games from the same array as the member-error column
    of ``_member_errors``.
    """

    def __init__(self, players: dict[str, int], rows: np.ndarray, ends: np.ndarray) -> None:
        self._players = players  # id -> row, rows numbered in first-appearance order
        self._rows = rows  # every member's row, match after match
        self._ends = ends  # where each match's members end in rows
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._players)

    def __iter__(self) -> Iterator[str]:
        return iter(self._players)

    def members(self, player_id: str) -> np.ndarray:
        """The player's entries in the member array, chronological."""
        row = self._players[player_id]
        if self._sorted is None:
            # entries grouped by row; a stable sort keeps each row's
            # entries, and so its matches, in chronological order
            order = np.argsort(self._rows, kind="stable")
            counts = np.bincount(self._rows, minlength=len(self._players))
            self._sorted = order, np.concatenate(([0], np.cumsum(counts)))
        order, bounds = self._sorted
        return order[bounds[row] : bounds[row + 1]]

    def match_of(self, members: np.ndarray | list[int]) -> np.ndarray:
        """The chronological position of each entry's match."""
        return np.searchsorted(self._ends, members, side="right")

    def __getitem__(self, player_id: str) -> list[int]:
        return self.match_of(self.members(player_id)).tolist()

    def __repr__(self) -> str:
        return f"_PlayerMatches({dict(self)!r})"


@dataclass(slots=True)
class ReplayResult:
    store: RatingStore
    reports: list[MatchReport]
    # chronological positions (indices into reports) of each player's
    # matches; the cohort set-ups also read the member array behind it
    player_match_index: Mapping[str, list[int]]


def replay(
    matches: Sequence[MatchRecord],
    system: RatingSystem,
    *,
    seed: int = 0,
    position_index: str = "observed",
) -> ReplayResult:
    """Replay matches chronologically through one rating system.

    The caller provides matches already time-sorted (``ingest`` does).
    Per-match tie-break seeds are drawn from ``random.Random(seed)``, so
    the whole replay is reproducible from (matches, system, seed).

    One pass before the loop compiles the stream: every player gets a
    table row in first-appearance order, all rows are inserted at once
    with the system's initial rating (one ``initial_rating()`` call per
    player), and every member's row goes into one flat array.  A match's
    new players are the rows past the highest one seen before it.  The
    loop hands each match its slice of that array, so it looks up no
    player by id.  ``player_match_index`` is a read-only mapping over the
    same array.  The rosters are read twice, once to number the players
    and once to fill the array, so no flat list of members is held.
    """
    ends = np.cumsum([len(match.roster) for match in matches], dtype=np.intp)

    def members() -> Iterator[str]:
        return chain.from_iterable(map(operator.attrgetter("roster"), matches))

    players = {player: row for row, player in enumerate(dict.fromkeys(members()))}
    entries = ends[-1].item() if len(ends) else 0
    rows = np.fromiter(map(players.__getitem__, members()), np.intp, entries)
    # rows are numbered in first-appearance order, so the players seen by
    # the end of a match are its highest row so far, plus one
    seen = np.maximum.accumulate(rows)[ends - 1] + 1
    new_players = np.diff(seen, prepend=0).tolist()
    state = RatingTable()
    state.insert(list(players), [system.initial_rating() for _ in players])
    rng = random.Random(seed)
    reports: list[MatchReport] = []
    bounds = [0, *ends.tolist()]
    for match, start, end, new in zip(matches, bounds, bounds[1:], new_players):
        state.gather(match, rows[start:end])
        match_seed = rng.randrange(2**63)
        ranking = system.update_match(state, match, match_seed)
        pairs = rank_pairs(ranking, match)
        reports.append(
            MatchReport(
                match=match,
                ranking=ranking,
                metrics=score_match(pairs, position_index=position_index),
                new_player_fraction=new / (end - start),
            )
        )
    store = RatingStore(
        system=system.name,
        params=system.params_dict(),
        seed=seed,
        matches_processed=len(matches),
        ratings=state,
    )
    return ReplayResult(
        store=store,
        reports=reports,
        player_match_index=_PlayerMatches(players, rows, ends),
    )


@dataclass(frozen=True, slots=True)
class TrendPoint:
    """Mean metrics at one trend position.

    position_index is the match sequence number for the "all" set-up and
    the per-player game number for the cohort set-ups.  focal_team_error
    is the mean |predicted - observed| of the cohort players' own teams
    (None for the "all" set-up, which has no focal player).
    """

    position_index: int
    accuracy: float
    mae: float
    kendall_tau: float
    mrr: float
    ap: float
    ndcg: float
    new_player_fraction: float
    match_count: int
    focal_team_error: float | None = None


@dataclass(slots=True)
class ExperimentTrend:
    setup: str
    # every parameter the set-up used, defaulted or not
    params: dict[str, Any]
    points: list[TrendPoint]


_metric_values = operator.attrgetter(*METRIC_NAMES)
_alt_values = operator.attrgetter("alt_ap", "alt_ndcg")


def _metric_rows(reports: Iterable[MatchReport]) -> list[tuple[float, ...]]:
    """Each report's six metrics and new-player fraction, in TrendPoint order."""
    return [(*_metric_values(r.metrics), r.new_player_fraction) for r in reports]


def _column_means(rows: Sequence[Sequence[float]] | np.ndarray) -> list[float]:
    """Each column's mean over the (non-empty) rows, its sum the
    ``left_sum`` of the column: ``row_sums`` of the transpose plus 0.0."""
    return ((row_sums(np.transpose(rows)) + 0.0) / len(rows)).tolist()


def mean_metrics(reports: Iterable[MatchReport]) -> dict[str, float]:
    """Mean of each metric over the given reports."""
    rows = _metric_rows(reports)
    return dict(zip(METRIC_NAMES, _column_means(rows))) if rows else {}


def mean_metrics_alt_index(reports: Iterable[MatchReport]) -> dict[str, float]:
    """Mean AP and NDCG under the other position convention, from the
    ``alt_ap`` and ``alt_ndcg`` that ``score_match`` stored."""
    rows = [_alt_values(report.metrics) for report in reports]
    return dict(zip(("ap", "ndcg"), _column_means(rows))) if rows else {}


def setup_all_players(
    matches: Sequence[MatchRecord],
    system: RatingSystem,
    *,
    seed: int = 0,
    window: int = 500,
    position_index: str = "observed",
) -> tuple[ExperimentTrend, ReplayResult]:
    """Whole-population trend: trailing moving average over the match
    sequence."""
    require_at_least(1, window=window)
    result = replay(matches, system, seed=seed, position_index=position_index)
    rows = _metric_rows(result.reports)
    sums = [0.0] * (len(METRIC_NAMES) + 1)
    points: list[TrendPoint] = []
    for position, row in enumerate(rows, start=1):
        sums = list(map(operator.add, sums, row))
        if position > window:
            sums = list(map(operator.sub, sums, rows[position - 1 - window]))
        count = min(position, window)
        # the running add/drop sums drift at float resolution; any true
        # nonzero mean here is >= 1/(2500 * window), far above 1e-12
        means = [0.0 if abs(total) < 1e-12 * count else total / count for total in sums]
        points.append(TrendPoint(position, *means, match_count=count))
    return ExperimentTrend("all", {"window": window}, points), result


def _member_errors(reports: Sequence[MatchReport]) -> np.ndarray:
    """|predicted - observed| rank of each member's team, member after
    member as in the replay's member array."""
    predicted: list[int] = []
    observed: list[int] = []
    sizes: list[int] = []
    for report in reports:
        match = report.match
        predicted.extend(map(report.ranking.ranks.__getitem__, match.team_ids))
        observed.extend(match.ranks)
        sizes.extend(match.sizes)
    return np.repeat(np.abs(np.subtract(predicted, observed, dtype=np.intp)), sizes)


def _game_indexed_trend(
    result: ReplayResult, cohort: Sequence[str], setup: str, params: dict[str, Any]
) -> ExperimentTrend:
    """Raw per-game-index means over a player cohort, for games
    1..params["horizon"].  A game's contributions are the cohort players'
    entries in the replay's member array; the metric rows of their matches
    and their entries of the member-error column are read at once."""
    points: list[TrendPoint] = []
    if not cohort:
        log.warning("set-up %s: empty cohort, trend is empty", setup)
        return ExperimentTrend(setup, params, points)
    index = result.player_match_index
    horizon = params["horizon"]
    games = [index.members(pid)[:horizon].tolist() for pid in cohort]
    rows = np.array(_metric_rows(result.reports))
    errors = _member_errors(result.reports)
    for game in range(1, horizon + 1):
        members = [entries[game - 1] for entries in games if len(entries) >= game]
        if not members:
            log.warning(
                "set-up %s: no cohort player has a game %d, trend truncated",
                setup,
                game,
            )
            break
        count = len(members)
        points.append(
            TrendPoint(
                game,
                *_column_means(rows[index.match_of(members)]),
                match_count=count,
                focal_team_error=errors[members].sum().item() / count,
            )
        )
    return ExperimentTrend(setup, params, points)


def _cohort_by_final_rating(
    result: ReplayResult,
    *,
    min_games: int,
    top_k: int,
    conservative_k: float,
) -> list[str]:
    """Players with more than min_games games, best final rating first.

    Rating score is mu - conservative_k * sigma (sigma taken as 0 when
    the system carries none); ties break on player id so the cohort is
    stable.
    """
    ids, mu, sigma, games, _ = rating_columns(result.store.ratings)
    qualify = np.flatnonzero(games > min_games)
    # Python float arithmetic overflows to inf silently, and so may this
    with np.errstate(over="ignore"):
        values = mu[qualify] - conservative_k * np.nan_to_num(sigma[qualify])
    scores = dict(zip([ids[i] for i in qualify.tolist()], values.tolist()))
    qualifiers = sorted(scores, key=lambda pid: (-scores[pid], pid))
    if len(qualifiers) < top_k:
        log.warning(
            "only %d players qualify for a top-%d cohort, using all of them",
            len(qualifiers),
            top_k,
        )
    return qualifiers[:top_k]


def setup_best_players(
    matches: Sequence[MatchRecord],
    system: RatingSystem,
    *,
    seed: int = 0,
    top_k: int = 1000,
    min_games: int = 10,
    horizon: int = 10,
    conservative_k: float = 0.0,
    position_index: str = "observed",
) -> tuple[ExperimentTrend, ReplayResult]:
    """Early games of the players who ended up rated best."""
    require_at_least(1, top_k=top_k, horizon=horizon)
    if not math.isfinite(conservative_k):
        raise DomainError(f"conservative_k must be finite, got {conservative_k}")
    params = {
        "top_k": top_k,
        "min_games": min_games,
        "horizon": horizon,
        "conservative_k": conservative_k,
    }
    result = replay(matches, system, seed=seed, position_index=position_index)
    cohort = _cohort_by_final_rating(
        result, min_games=min_games, top_k=top_k, conservative_k=conservative_k
    )
    return _game_indexed_trend(result, cohort, "best", params), result


def setup_frequent_players(
    matches: Sequence[MatchRecord],
    system: RatingSystem,
    *,
    seed: int = 0,
    min_games: int = 100,
    horizon: int = 100,
    position_index: str = "observed",
) -> tuple[ExperimentTrend, ReplayResult]:
    """Early games of everyone who went on to play a lot."""
    require_at_least(1, horizon=horizon)
    result = replay(matches, system, seed=seed, position_index=position_index)
    ids, _, _, games, _ = rating_columns(result.store.ratings)
    cohort = sorted(ids[i] for i in np.flatnonzero(games > min_games).tolist())
    params = {"min_games": min_games, "horizon": horizon}
    return _game_indexed_trend(result, cohort, "frequent", params), result


def _write_csv(path: str | Path, header: Iterable[str], rows: Iterable[tuple]) -> None:
    """One header row and the rows through ``csv.writer``: a float as its
    ``repr``, None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_match_metrics_csv(path: str | Path, reports: Sequence[MatchReport]) -> None:
    _write_csv(
        path,
        ("match_id", "timestamp", "team_count", "new_player_fraction", *METRIC_NAMES),
        (
            (
                report.match.match_id,
                report.match.timestamp.isoformat(),
                report.match.team_count,
                report.new_player_fraction,
                *_metric_values(report.metrics),
            )
            for report in reports
        ),
    )


def write_trend_csv(path: str | Path, trend: ExperimentTrend) -> None:
    # attrgetter, not astuple: astuple deep-copies every value, 60x slower
    columns = [f.name for f in fields(TrendPoint)]
    _write_csv(path, columns, map(operator.attrgetter(*columns), trend.points))
