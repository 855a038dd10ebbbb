"""Differential test of the experiment set-ups against their per-report loops.

The set-ups read one table of metric rows (each report's six metrics and
new-player fraction) and one column of focal team errors aligned with the
replay's member array.  The reference below is the code as it stood
before: the ``all`` set-up kept the last ``window`` reports in a deque and
per-metric running sums in a dict, the cohort trend summed each game's
reports one contribution at a time, the focal team error scanned the
match's roster and predicted order for the player, and the mean helpers
summed the reports one by one.  The reference is frozen: do not edit it.

Logs are drawn with prediction ties (new players share the default
rating, and prevrank ties often), mixed team sizes, and cohort
parameters that leave a cohort empty or run it out of games before the
horizon.  Both sides must give equal trends (points, params, and the
reprs of both, so a float's sign of zero and type count), equal mean
dicts, and the same warning records in the same order.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import deque
from datetime import timedelta
from itertools import accumulate
from typing import Any, Iterable, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from royale_ratings.core import DomainError, build_match
from royale_ratings.metrics import METRIC_NAMES, POSITION_INDICES
from royale_ratings.replay import (
    ExperimentTrend,
    MatchReport,
    ReplayResult,
    TrendPoint,
    _cohort_by_final_rating,
    mean_metrics,
    mean_metrics_alt_index,
    replay,
    setup_all_players,
    setup_best_players,
    setup_frequent_players,
)
from royale_ratings.systems import SYSTEM_NAMES, make_system, rating_columns

from conftest import BASE_TIME

log = logging.getLogger("royale_ratings.replay")


# --- frozen reference -------------------------------------------------------


def reference_mean_metrics(reports: Iterable[MatchReport]) -> dict[str, float]:
    totals = dict.fromkeys(METRIC_NAMES, 0.0)
    count = 0
    for report in reports:
        for name in METRIC_NAMES:
            totals[name] += getattr(report.metrics, name)
        count += 1
    if count == 0:
        return {}
    return {name: totals[name] / count for name in METRIC_NAMES}


def reference_mean_metrics_alt_index(reports: Iterable[MatchReport]) -> dict[str, float]:
    total_ap = total_ndcg = 0.0
    count = 0
    for report in reports:
        total_ap += report.metrics.alt_ap
        total_ndcg += report.metrics.alt_ndcg
        count += 1
    if count == 0:
        return {}
    return {"ap": total_ap / count, "ndcg": total_ndcg / count}


def reference_all_trend(result: ReplayResult, window: int) -> ExperimentTrend:
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
    return ExperimentTrend("all", {"window": window}, points)


def reference_team_error_of(report: MatchReport, player_id: str) -> int:
    match = report.match
    try:
        position = match.roster.index(player_id)
    except ValueError:
        raise DomainError(
            f"player {player_id!r} not in match {match.match_id!r}"
        ) from None
    sizes = match.sizes
    if sizes.count(sizes[0]) == len(sizes):
        # equal teams: the roster is in blocks of one size
        team = position // sizes[0]
    else:
        team = bisect_right(list(accumulate(sizes)), position)
    predicted = report.ranking.order.index(match.team_ids[team]) + 1
    return abs(predicted - match.ranks[team])


def reference_game_indexed_trend(
    result: ReplayResult, cohort: Sequence[str], setup: str, params: dict[str, Any]
) -> ExperimentTrend:
    points: list[TrendPoint] = []
    if not cohort:
        log.warning("set-up %s: empty cohort, trend is empty", setup)
        return ExperimentTrend(setup, params, points)
    games = [(pid, result.player_match_index[pid]) for pid in cohort]
    for game in range(1, params["horizon"] + 1):
        contributions = [
            (pid, indices[game - 1]) for pid, indices in games if len(indices) >= game
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
            focal_total += reference_team_error_of(report, pid)
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


def reference_setup(name, matches, system, *, seed, position_index, **kw):
    """The set-up ``name`` with the reference views over the library's replay."""
    result = replay(matches, system, seed=seed, position_index=position_index)
    if name == "all":
        return reference_all_trend(result, kw["window"]), result
    if name == "best":
        params = {
            "top_k": kw["top_k"],
            "min_games": kw["min_games"],
            "horizon": kw["horizon"],
            "conservative_k": kw["conservative_k"],
        }
        cohort = _cohort_by_final_rating(
            result,
            min_games=kw["min_games"],
            top_k=kw["top_k"],
            conservative_k=kw["conservative_k"],
        )
    else:
        ids, _, _, games, _ = rating_columns(result.store.ratings)
        cohort = sorted(ids[i] for i in np.flatnonzero(games > kw["min_games"]).tolist())
        params = {"min_games": kw["min_games"], "horizon": kw["horizon"]}
    return reference_game_indexed_trend(result, cohort, name, params), result


# --- generated logs ---------------------------------------------------------


@st.composite
def logs(draw):
    """0-14 matches of 2-4 teams of 1-3 members from a pool of 12 players,
    so players come back for several games."""
    count = draw(st.integers(0, 14))
    matches = []
    for index in range(count):
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
        players = iter(draw(st.permutations(range(12))))
        rosters = [[f"p{next(players)}" for _ in range(size)] for size in sizes]
        ranks = draw(st.permutations(range(1, len(sizes) + 1)))
        team_ids = [f"t{i}" for i in range(len(sizes))]
        stamp = BASE_TIME + timedelta(minutes=index)
        matches.append(build_match(f"m{index}", stamp, team_ids, rosters, ranks))
    return matches


SETUPS = {
    "all": (setup_all_players, st.fixed_dictionaries({"window": st.integers(1, 6)})),
    "best": (
        setup_best_players,
        st.fixed_dictionaries(
            {
                "top_k": st.integers(1, 8),
                "min_games": st.integers(0, 6),
                "horizon": st.integers(1, 9),
                "conservative_k": st.sampled_from([0.0, 1.5, -2.0]),
            }
        ),
    ),
    "frequent": (
        setup_frequent_players,
        st.fixed_dictionaries(
            {"min_games": st.integers(0, 6), "horizon": st.integers(1, 9)}
        ),
    ),
}


def outcome(run, caplog):
    caplog.clear()
    trend, result = run()
    return (trend, repr(trend), result.reports), caplog.record_tuples


@pytest.mark.parametrize("position_index", POSITION_INDICES)
@pytest.mark.parametrize("system_name", SYSTEM_NAMES)
@pytest.mark.parametrize("setup_name", sorted(SETUPS))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_views_equal_the_per_report_loops(
    setup_name, system_name, position_index, data, caplog
):
    setup, params_strategy = SETUPS[setup_name]
    params = data.draw(params_strategy)
    matches = data.draw(logs())
    seed = data.draw(st.integers(0, 2**32))
    system = make_system(system_name)
    keywords = dict(seed=seed, position_index=position_index, **params)
    with caplog.at_level(logging.WARNING, logger="royale_ratings"):
        got, got_records = outcome(lambda: setup(matches, system, **keywords), caplog)
        expected, expected_records = outcome(
            lambda: reference_setup(setup_name, matches, system, **keywords), caplog
        )
    assert got == expected
    assert got_records == expected_records
    reports = got[2]
    for mean, reference in (
        (mean_metrics, reference_mean_metrics),
        (mean_metrics_alt_index, reference_mean_metrics_alt_index),
    ):
        assert repr(mean(reports)) == repr(reference(reports))
        assert repr(mean(iter(reports))) == repr(reference(reports))
