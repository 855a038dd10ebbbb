"""Chronological match replay and its evaluation set-ups.

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
import logging
import math
import operator
import random
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import DomainError, MatchRecord, PredictedRanking, require_at_least
from .metrics import METRIC_NAMES, MetricReport, rank_pairs, score_match
from .store import RatingStore
from .systems import RatingSystem, RatingTable, rating_columns, row_sums

__all__ = [
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

SETUP_NAMES = ("all", "best", "frequent")


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
