"""Chronological match replay, dataset ingestion, and evaluation set-ups.

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
import functools
import json
import logging
import math
import operator
import random
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import chain, compress, pairwise, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    DataError,
    DomainError,
    MatchRecord,
    PlayerRating,
    PredictedRanking,
    build_match,
)
from .metrics import METRIC_NAMES, MetricReport, rank_pairs, score_match
from .systems import RatingState, RatingSystem, RatingTable, rating_columns

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
_STORE_FIELDS = "#fields=player_id mu sigma games_played last_observed_rank"


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


# the column pass reads lines in chunks of about this many characters
_CHUNK_CHARS = 1 << 16


class _Unchecked(Exception):
    """The column pass met a log it cannot check; ``ingest`` reads the file
    again with ``csv.reader``."""


def _parse_all(parse: Callable[[str], Any], texts: Iterable[str]) -> list[Any]:
    try:
        return list(map(parse, texts))
    except ValueError:
        raise _Unchecked from None


def _group_row(
    grouped: dict[str, list[Any]],
    match_id: str,
    stamp: datetime,
    team_id: str,
    player_id: str,
    placement: int,
) -> None:
    """Add one parsed row to its team in its match.

    A match is ``[stamp, teams, reason]``: the timestamp of its first row,
    team_id -> ``[placement, *members]`` in first-appearance order (one
    list per team, the fewest objects the collector has to track), and None,
    or the reason its first bad row rejects it: a timestamp that differs
    from the first row's or a placement that differs from the team's
    first row's.  Rows after the first bad one are not grouped.
    """
    match = grouped.get(match_id)
    if match is None:
        grouped[match_id] = [stamp, {team_id: [placement, player_id]}, None]
        return
    first, teams, bad_reason = match
    if bad_reason is not None:
        return
    if stamp is not first and stamp != first:
        match[2] = (
            f"rows carry different timestamps ({first.isoformat()} "
            f"and {stamp.isoformat()})"
        )
        return
    team = teams.get(team_id)
    if team is None:
        teams[team_id] = [placement, player_id]
    elif team[0] != placement:
        match[2] = f"team {team_id!r} has inconsistent placements"
    else:
        team.append(player_id)


class _Kept:
    """The matches one ingest pass keeps, with the counts of those it
    reads, filters and rejects; ``commit`` hands them to an
    ``IngestStats`` and logs each rejection once the pass has finished."""

    def __init__(self, team_size: int | None) -> None:
        self.team_size = team_size
        self.matches: list[MatchRecord] = []
        self.read = 0
        self.filtered = 0
        self.rejected: list[tuple[str, str]] = []

    def add(
        self,
        match_id: str,
        stamp: datetime,
        team_ids: Sequence[str],
        rosters: Iterable[Iterable[str]],
        ranks: Sequence[int],
        sizes: Iterable[int],
    ) -> None:
        """One match as per-team columns; ``sizes`` holds every team size
        that occurs.  A match the ``team_size`` filter drops is not built."""
        self.read += 1
        size = self.team_size
        if size is not None and any(s != size for s in sizes):
            self.filtered += 1
            return
        try:
            self.matches.append(build_match(match_id, stamp, team_ids, rosters, ranks))
        except DomainError as exc:
            self.rejected.append((match_id, str(exc)))

    def add_grouped(
        self,
        match_id: str,
        stamp: datetime,
        teams: dict[str, list[Any]],
        bad_reason: str | None,
    ) -> None:
        """One match as ``_group_row`` grouped it."""
        if bad_reason is not None:
            self.read += 1
            self.rejected.append((match_id, bad_reason))
            return
        entries = teams.values()
        self.add(
            match_id,
            stamp,
            tuple(teams),
            [entry[1:] for entry in entries],
            [entry[0] for entry in entries],
            [len(entry) - 1 for entry in entries],
        )

    def commit(self, stats: IngestStats) -> list[MatchRecord]:
        stats.matches_read += self.read
        stats.filtered += self.filtered
        stats.rejected.extend(self.rejected)
        for match_id, reason in self.rejected:
            log.warning("rejected match %s: %s", match_id, reason)
        # stable, equal stamps keep file order
        self.matches.sort(key=operator.attrgetter("timestamp"))
        return self.matches


class _ColumnPass:
    """The column pass of ``ingest`` over a quote-free log.

    Each chunk of lines becomes the five columns in one split, the columns
    are cut into runs of one match id, and a run whose rows share one
    timestamp string, whose teams are contiguous and of one size, and
    whose teams each have one placement string is built from its column
    slices.  A run of another shape is grouped row by row by
    ``_group_row``.  Whatever it cannot check the way the ``csv.reader``
    pass would raises ``_Unchecked``.
    """

    def __init__(self, kept: _Kept) -> None:
        self.kept = kept
        self.stamps = functools.cache(parse_timestamp)
        self.placements = functools.cache(int)
        self.seen: set[str] = set()
        self.rows = 0

    def read(self, path: Path) -> None:
        limit = csv.field_size_limit()
        try:
            with open(path, encoding="utf-8") as handle:
                head = handle.readline()
                if '"' in head or "\0" in head or len(head) > limit:
                    raise _Unchecked
                header = head.rstrip("\n").split(",")
                # a repeated column counts at its last position, as in DictReader
                position = {name: i for i, name in enumerate(header)}
                if not position.keys() >= set(MATCH_LOG_COLUMNS):
                    raise _Unchecked
                picks = [position[c] for c in MATCH_LOG_COLUMNS]
                carry: list[list[str]] = [[] for _ in picks]
                while lines := handle.readlines(_CHUNK_CHARS):
                    columns = _chunk_columns(lines, len(header), picks, limit)
                    self.rows += len(columns[0])
                    # the last run may go on in the next chunk
                    columns = [old + new for old, new in zip(carry, columns)]
                    ids, stamps, teams, players, places = columns
                    changes = map(operator.ne, ids, ids[1:])
                    starts = [0, *compress(range(1, len(ids)), changes)]
                    for i, j in pairwise(starts):
                        self.add_run(
                            ids[i], stamps[i:j], teams[i:j], players[i:j], places[i:j]
                        )
                    carry = [column[starts[-1] :] for column in columns]
                if carry[0]:
                    self.add_run(carry[0][0], *carry[1:])
        except UnicodeDecodeError:
            raise _Unchecked from None

    def add_run(
        self,
        match_id: str,
        stamps: list[str],
        team_ids: list[str],
        players: list[str],
        places: list[str],
    ) -> None:
        """One match's rows, in file order."""
        if match_id in self.seen:
            raise _Unchecked  # the match's rows are not contiguous
        self.seen.add(match_id)
        rows = len(team_ids)
        size = team_ids.count(team_ids[0])
        teams = team_ids[::size]
        ranks = places[::size]
        if (
            rows == size * len(teams)
            and stamps.count(stamps[0]) == rows
            and len(set(teams)) == len(teams)
            and all(
                team_ids[j::size] == teams and places[j::size] == ranks
                for j in range(1, size)
            )
        ):
            (stamp,) = _parse_all(self.stamps, stamps[:1])
            ranks = _parse_all(self.placements, ranks)
            rosters = zip(*[iter(players)] * size)
            self.kept.add(match_id, stamp, teams, rosters, ranks, (size,))
            return
        grouped: dict[str, list[Any]] = {}
        for row in zip(
            _parse_all(self.stamps, stamps),
            team_ids,
            players,
            _parse_all(self.placements, places),
        ):
            _group_row(grouped, match_id, *row)
        self.kept.add_grouped(match_id, *grouped[match_id])


def _chunk_columns(
    lines: list[str], width: int, picks: list[int], limit: int
) -> list[list[str]]:
    """The picked columns of a chunk of lines read with universal newlines;
    raises ``_Unchecked`` unless the ``csv.reader`` pass would read the
    same fields from them, none of them empty."""
    if lines.count("\n"):
        lines = [line for line in lines if line != "\n"]  # blank lines are skipped
        if not lines:
            return [[] for _ in picks]
    text = "".join(lines)
    if (
        '"' in text
        or "\0" in text
        or (len(text) > limit and max(map(len, lines)) > limit)
        or list(map(str.count, lines, repeat(","))).count(width - 1) != len(lines)
    ):
        raise _Unchecked
    if text[-1] != "\n":
        text += "\n"  # a last line without one
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # after the last line's comma
    columns = [fields[pick::width] for pick in picks]
    if any("" in column for column in columns):
        raise _Unchecked
    return columns


def _read_grouped(path: Path, stats: IngestStats) -> dict[str, list[Any]]:
    """The ``csv.reader`` pass of ``ingest``: each row, checked and parsed,
    joins its team in its match through ``_group_row``; matches keep
    first-appearance order.  Rows after a match's first bad one are
    counted, not grouped.
    """
    grouped: dict[str, list[Any]] = {}
    stamps = functools.cache(parse_timestamp)
    placements = functools.cache(int)
    rows = 0
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, expected a header row")
            # a repeated column counts at its last position, as in DictReader
            position = {name: i for i, name in enumerate(header)}
            missing = [c for c in MATCH_LOG_COLUMNS if c not in position]
            if missing:
                raise DataError(f"{path}: header is missing column(s) {missing}")
            columns = [position[c] for c in MATCH_LOG_COLUMNS]
            pick = operator.itemgetter(*columns)
            width = max(columns) + 1
            for row in reader:
                if not row:
                    continue
                if len(row) < width or not all(values := pick(row)):
                    raise DataError(
                        f"{path}:{reader.line_num}: row is missing a required field"
                    )
                match_id, ts_text, team_id, player_id, placement_text = values
                try:
                    stamp = stamps(ts_text)
                except ValueError:
                    raise DataError(
                        f"{path}:{reader.line_num}: bad timestamp {ts_text!r}"
                    ) from None
                try:
                    placement = placements(placement_text)
                except ValueError:
                    raise DataError(
                        f"{path}:{reader.line_num}: bad team_placement "
                        f"{placement_text!r}"
                    ) from None
                rows += 1
                _group_row(grouped, match_id, stamp, team_id, player_id, placement)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: unreadable CSV ({exc})") from None
    finally:
        stats.rows += rows
    return grouped


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
    placement string is parsed once per call.

    Every log starts on the column pass: it is read with universal
    newlines about ``_CHUNK_CHARS`` characters at a time, each chunk is
    split into its columns at once, and each match is built from its
    column slices.  A double quote, a NUL (which ``csv.reader`` rejects
    before Python 3.11), a line over the csv module's field size limit, a
    line with another number of fields than the header, an empty field,
    an unparsable timestamp or placement, bytes that are not UTF-8, or a
    match whose rows are not contiguous ends that pass, and the whole file
    is read again, row by row, with ``csv.reader``.  So quote-free logs
    whose matches each sit in one run of rows (``synth`` writes them so)
    take the column pass, and quoted logs give the results of their
    unquoted twins.  Only the ``csv.reader`` pass raises: structurally
    malformed rows (missing fields, bad timestamp, non-integer placement)
    and csv-level errors (a field over the csv module's size limit, ...)
    raise a DataError naming file and line, at the first bad line in file
    order; bytes that are not UTF-8 raise a DataError naming the file.

    Semantically invalid matches (rows that disagree on the timestamp,
    placements not a permutation, duplicated players, placement < 1) are
    rejected with a logged diagnostic and the rest of the file is still
    used.  ``team_size``, which must be positive, keeps only matches whose
    teams all have exactly that many players.  The column pass fills in
    ``stats`` and logs the rejections only once it has read the whole
    file, so a restart counts and logs nothing twice.
    """
    if team_size is not None and team_size < 1:
        raise DomainError(f"team_size must be positive, got {team_size}")
    path = Path(path)
    stats = stats if stats is not None else IngestStats()
    kept = _Kept(team_size)
    column_pass = _ColumnPass(kept)
    try:
        column_pass.read(path)
    except _Unchecked:
        kept = _Kept(team_size)
        for match_id, match in _read_grouped(path, stats).items():
            kept.add_grouped(match_id, *match)
    else:
        stats.rows += column_pass.rows
    return kept.commit(stats)


@dataclass(slots=True)
class RatingStore:
    """Every player's rating after a replay, plus how it was produced."""

    system: str
    params: dict[str, Any]
    seed: int
    matches_processed: int
    ratings: RatingState

    def save(self, path: str | Path) -> None:
        """Versioned text snapshot, one player per line, sorted for
        reproducible bytes."""
        lines = [
            STORE_MAGIC,
            f"#system={self.system}",
            f"#seed={self.seed}",
            f"#matches={self.matches_processed}",
            f"#params={json.dumps(self.params, sort_keys=True, allow_nan=False)}",
            _STORE_FIELDS,
        ]
        ids, *columns = rating_columns(self.ratings)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        for player_id, mu, sigma, games, last in zip(
            [ids[i] for i in order], *(column[order].tolist() for column in columns)
        ):
            if "\t" in player_id or "\n" in player_id:
                raise DataError(f"player id {player_id!r} cannot be snapshotted")
            sigma = "-" if math.isnan(sigma) else repr(sigma)
            lines.append(f"{player_id}\t{mu!r}\t{sigma}\t{games}\t{last or '-'}")
        Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "RatingStore":
        path = Path(path)
        try:
            lines = path.read_bytes().decode("utf-8").split("\n")
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
    same array.
    """
    members = list(chain.from_iterable(match.roster for match in matches))
    players = {player: row for row, player in enumerate(dict.fromkeys(members))}
    rows = np.fromiter(map(players.__getitem__, members), np.intp, len(members))
    ends = np.cumsum([len(match.roster) for match in matches], dtype=np.intp)
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
    """Each column's mean over the (non-empty) rows.  The sums add top to
    bottom, as a running total from 0.0 does; adding 0.0 turns the one
    sum that can differ, a -0.0, into that total's 0.0."""
    return ((np.cumsum(rows, axis=0)[-1] + 0.0) / len(rows)).tolist()


def mean_metrics(reports: Iterable[MatchReport]) -> dict[str, float]:
    """Mean of each metric over the given reports."""
    rows = _metric_rows(reports)
    return dict(zip(METRIC_NAMES, _column_means(rows))) if rows else {}


def mean_metrics_alt_index(reports: Iterable[MatchReport]) -> dict[str, float]:
    """Mean AP and NDCG under the other position convention, from the
    ``alt_ap`` and ``alt_ndcg`` that ``score_match`` stored."""
    rows = [_alt_values(report.metrics) for report in reports]
    return dict(zip(("ap", "ndcg"), _column_means(rows))) if rows else {}


def _require_positive(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value}")


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
    _require_positive(window=window)
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
    _require_positive(top_k=top_k, horizon=horizon)
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
    _require_positive(horizon=horizon)
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
