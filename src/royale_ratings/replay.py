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
whole population had evolved by then.
"""

from __future__ import annotations

import csv
import json
import logging
import operator
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .core import (
    DataError,
    DomainError,
    MatchRecord,
    PlayerRating,
    PredictedRanking,
    TeamEntry,
)
from .metrics import METRIC_NAMES, MetricReport, rank_pairs, score_match
from .systems import RatingState, RatingSystem, RatingTable

__all__ = [
    "MATCH_LOG_COLUMNS",
    "IngestStats",
    "ingest",
    "parse_timestamp",
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

_STORE_MAGIC = "#royale-ratings-store v1"


def parse_timestamp(text: str) -> datetime:
    """ISO-8601, with a trailing Z accepted; naive stamps are taken as UTC."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    stamp = datetime.fromisoformat(raw)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


@dataclass(slots=True)
class IngestStats:
    """Counters the ingest pass fills in for run summaries."""

    rows: int = 0
    matches_read: int = 0
    filtered: int = 0
    rejected: list[tuple[str, str]] = field(default_factory=list)


def _read_grouped(
    path: Path, stats: IngestStats
) -> dict[str, list[tuple[datetime, str, str, int]]]:
    """The streaming pass of ``ingest``: each row, checked and parsed, is
    appended to its match's list; matches keep first-appearance order."""
    grouped: dict[str, list[tuple[datetime, str, str, int]]] = {}
    stamps: dict[str, datetime] = {}
    placements: dict[str, int] = {}
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
                stamp = stamps.get(ts_text)
                if stamp is None:
                    try:
                        stamp = stamps[ts_text] = parse_timestamp(ts_text)
                    except ValueError:
                        raise DataError(
                            f"{path}:{reader.line_num}: bad timestamp {ts_text!r}"
                        ) from None
                placement = placements.get(placement_text)
                if placement is None:
                    try:
                        placement = placements[placement_text] = int(placement_text)
                    except ValueError:
                        raise DataError(
                            f"{path}:{reader.line_num}: bad team_placement "
                            f"{placement_text!r}"
                        ) from None
                rows += 1
                match_rows = grouped.get(match_id)
                if match_rows is None:
                    match_rows = grouped[match_id] = []
                match_rows.append((stamp, team_id, player_id, placement))
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

    One streaming pass reads the rows with ``csv.reader``, picks the five
    columns at the positions the header gives them (a repeated column
    counts at its last position; extra columns are ignored; blank lines
    are skipped) and appends each row to its match's list.  Each distinct
    timestamp and placement string is parsed once per call.  Structurally
    malformed rows (missing fields, bad timestamp, non-integer placement)
    and csv-level errors (a field over the csv module's size limit, ...)
    raise a DataError naming file and line, at the first bad line in file
    order; bytes that are not UTF-8 raise a DataError naming the file.
    Semantically invalid matches (rows that disagree on the timestamp,
    placements not a permutation, duplicated players, placement < 1) are
    rejected with a logged diagnostic and the rest of the file is still
    used.  ``team_size``, which must be positive, keeps only matches whose
    teams all have exactly that many players.
    """
    if team_size is not None and team_size < 1:
        raise DomainError(f"team_size must be positive, got {team_size}")
    path = Path(path)
    stats = stats if stats is not None else IngestStats()
    grouped = _read_grouped(path, stats)

    matches: list[MatchRecord] = []
    for match_id, rows in grouped.items():
        stats.matches_read += 1
        # team_id -> (placement, members), in first-appearance order
        teams: dict[str, tuple[int, list[str]]] = {}
        bad_reason: str | None = None
        stamp = rows[0][0]
        for row_stamp, team_id, player_id, placement in rows:
            if row_stamp != stamp:
                bad_reason = (
                    f"rows carry different timestamps ({stamp.isoformat()} "
                    f"and {row_stamp.isoformat()})"
                )
                break
            team = teams.get(team_id)
            if team is None:
                teams[team_id] = (placement, [player_id])
            elif team[0] != placement:
                bad_reason = f"team {team_id!r} has inconsistent placements"
                break
            else:
                team[1].append(player_id)
        if bad_reason is None and team_size is not None:
            if any(len(members) != team_size for _, members in teams.values()):
                stats.filtered += 1
                continue
        if bad_reason is None:
            try:
                record = MatchRecord(
                    match_id=match_id,
                    timestamp=stamp,
                    teams=tuple(
                        TeamEntry(
                            team_id=tid, members=tuple(members), observed_rank=placement
                        )
                        for tid, (placement, members) in teams.items()
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
            _STORE_MAGIC,
            f"#system={self.system}",
            f"#seed={self.seed}",
            f"#matches={self.matches_processed}",
            f"#params={json.dumps(self.params, sort_keys=True, allow_nan=False)}",
            "#fields=player_id mu sigma games_played last_observed_rank",
        ]
        for player_id in sorted(self.ratings):
            if "\t" in player_id or "\n" in player_id:
                raise DataError(f"player id {player_id!r} cannot be snapshotted")
            r = self.ratings[player_id]
            sigma = "-" if r.sigma is None else repr(r.sigma)
            last = "-" if r.last_observed_rank is None else str(r.last_observed_rank)
            lines.append(
                f"{player_id}\t{r.mu!r}\t{sigma}\t{r.games_played}\t{last}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RatingStore":
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        if not lines or lines[0] != _STORE_MAGIC:
            raise DataError(f"{path}: not a rating-store snapshot")
        # header key -> (line number, value)
        header: dict[str, tuple[int, str]] = {}
        body_start = 1
        for line in lines[1:]:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition("=")
            body_start += 1
            header[key] = (body_start, value)
        for key in ("system", "seed", "matches", "params"):
            if key not in header:
                raise DataError(f"{path}: snapshot header lacks {key!r}")

        def header_value(key: str, parse: Callable[[str], Any]) -> Any:
            number, value = header[key]
            try:
                return parse(value)
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


@dataclass(slots=True)
class ReplayResult:
    store: RatingStore
    reports: list[MatchReport]
    # chronological positions (indices into reports) of each player's matches
    player_match_index: dict[str, list[int]]


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
    """
    rng = random.Random(seed)
    state = RatingTable()
    reports: list[MatchReport] = []
    player_matches: dict[str, list[int]] = defaultdict(list)
    for index, match in enumerate(matches):
        players = match.players()
        unseen = state.missing(players)
        for player in unseen:
            state[player] = system.initial_rating()
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


def mean_metrics(reports: Iterable[MatchReport]) -> dict[str, float]:
    """Mean of each metric over the given reports."""
    totals = dict.fromkeys(METRIC_NAMES, 0.0)
    count = 0
    for report in reports:
        for name in METRIC_NAMES:
            totals[name] += getattr(report.metrics, name)
        count += 1
    if count == 0:
        return {}
    return {name: totals[name] / count for name in METRIC_NAMES}


def mean_metrics_alt_index(reports: Iterable[MatchReport]) -> dict[str, float]:
    """Mean AP and NDCG under the other position convention, from the
    ``alt_ap`` and ``alt_ndcg`` that ``score_match`` stored."""
    total_ap = total_ndcg = 0.0
    count = 0
    for report in reports:
        total_ap += report.metrics.alt_ap
        total_ndcg += report.metrics.alt_ndcg
        count += 1
    if count == 0:
        return {}
    return {"ap": total_ap / count, "ndcg": total_ndcg / count}


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
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window}")
    result = replay(matches, system, seed=seed, position_index=position_index)
    names = METRIC_NAMES + ("new_player_fraction",)
    sums = dict.fromkeys(names, 0.0)
    recent: deque[tuple[float, ...]] = deque()
    points: list[TrendPoint] = []
    for position, report in enumerate(result.reports, start=1):
        values = tuple(getattr(report.metrics, n) for n in METRIC_NAMES) + (
            report.new_player_fraction,
        )
        recent.append(values)
        for name, value in zip(names, values):
            sums[name] += value
        if len(recent) > window:
            dropped = recent.popleft()
            for name, value in zip(names, dropped):
                sums[name] -= value
        count = len(recent)
        # the running add/drop sums drift at float resolution; any true
        # nonzero mean here is >= 1/(2500 * window), far above 1e-12
        means = {
            name: 0.0 if abs(sums[name]) < 1e-12 * count else sums[name] / count
            for name in names
        }
        points.append(
            TrendPoint(
                position_index=position,
                match_count=count,
                focal_team_error=None,
                **means,
            )
        )
    return ExperimentTrend("all", {"window": window}, points), result


def _team_error_of(report: MatchReport, player_id: str) -> int:
    for team in report.match.teams:
        if player_id in team.members:
            return abs(report.ranking.rank_of(team.team_id) - team.observed_rank)
    raise DomainError(
        f"player {player_id!r} not in match {report.match.match_id!r}"
    )


def _game_indexed_trend(
    result: ReplayResult, cohort: Sequence[str], setup: str, params: dict[str, Any]
) -> ExperimentTrend:
    """Raw per-game-index means over a player cohort, for games
    1..params["horizon"]."""
    points: list[TrendPoint] = []
    if not cohort:
        log.warning("set-up %s: empty cohort, trend is empty", setup)
        return ExperimentTrend(setup, params, points)
    for game in range(1, params["horizon"] + 1):
        contributions = [
            (pid, result.player_match_index[pid][game - 1])
            for pid in cohort
            if len(result.player_match_index[pid]) >= game
        ]
        if not contributions:
            log.warning(
                "set-up %s: no cohort player has a game %d, trend truncated",
                setup,
                game,
            )
            break
        sums = dict.fromkeys(METRIC_NAMES + ("new_player_fraction",), 0.0)
        focal_total = 0.0
        for pid, index in contributions:
            report = result.reports[index]
            for name in METRIC_NAMES:
                sums[name] += getattr(report.metrics, name)
            sums["new_player_fraction"] += report.new_player_fraction
            focal_total += _team_error_of(report, pid)
        count = len(contributions)
        points.append(
            TrendPoint(
                position_index=game,
                match_count=count,
                focal_team_error=focal_total / count,
                **{name: sums[name] / count for name in sums},
            )
        )
    return ExperimentTrend(setup, params, points)


def _cohort_by_final_rating(
    result: ReplayResult,
    *,
    min_games: int,
    top_k: int | None,
    conservative_k: float,
) -> list[str]:
    """Players with more than min_games games, best final rating first.

    Rating score is mu - conservative_k * sigma (sigma taken as 0 when
    the system carries none); ties break on player id so the cohort is
    stable.
    """
    scores = {
        pid: rating.mu - conservative_k * (rating.sigma or 0.0)
        for pid, rating in result.store.ratings.items()
        if rating.games_played > min_games
    }
    qualifiers = sorted(scores, key=lambda pid: (-scores[pid], pid))
    if top_k is not None:
        if len(qualifiers) < top_k:
            log.warning(
                "only %d players qualify for a top-%d cohort, using all of them",
                len(qualifiers),
                top_k,
            )
        qualifiers = qualifiers[:top_k]
    return qualifiers


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
    result = replay(matches, system, seed=seed, position_index=position_index)
    cohort = sorted(
        pid
        for pid, rating in result.store.ratings.items()
        if rating.games_played > min_games
    )
    params = {"min_games": min_games, "horizon": horizon}
    return _game_indexed_trend(result, cohort, "frequent", params), result


def write_match_metrics_csv(path: str | Path, reports: Sequence[MatchReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["match_id", "timestamp", "team_count", "new_player_fraction"]
            + list(METRIC_NAMES)
        )
        for report in reports:
            writer.writerow(
                [
                    report.match.match_id,
                    report.match.timestamp.isoformat(),
                    report.match.team_count,
                    repr(report.new_player_fraction),
                ]
                + [repr(getattr(report.metrics, name)) for name in METRIC_NAMES]
            )


def write_trend_csv(path: str | Path, trend: ExperimentTrend) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["position_index"]
            + list(METRIC_NAMES)
            + ["new_player_fraction", "match_count", "focal_team_error"]
        )
        for point in trend.points:
            writer.writerow(
                [point.position_index]
                + [repr(getattr(point, name)) for name in METRIC_NAMES]
                + [
                    repr(point.new_player_fraction),
                    point.match_count,
                    "" if point.focal_team_error is None else repr(point.focal_team_error),
                ]
            )
