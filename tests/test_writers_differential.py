"""Differential test of the metric CSV writers.

``write_match_metrics_csv`` and ``write_trend_csv`` write each record's
values as one ``csv.writer`` row, the trend's header and row taken from
``TrendPoint``'s fields.  The references below are frozen copies of the
writers as they stood when each column was named and ``repr``-ed by hand;
never edit them to make a test pass.  Drawn reports and trends, with a
missing focal team error, -0.0, subnormal numbers, +-1e308, NaN,
infinities and ids that need quoting, must give the same bytes.
"""

from __future__ import annotations

import csv
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from royale_ratings.core import PredictedRanking, build_match
from royale_ratings.metrics import METRIC_NAMES, MetricReport
from royale_ratings.replay import (
    ExperimentTrend,
    MatchReport,
    TrendPoint,
    write_match_metrics_csv,
    write_trend_csv,
)

# --- frozen reference -------------------------------------------------------


def reference_write_match_metrics_csv(path, reports):
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


def reference_write_trend_csv(path, trend):
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


# --- drawn inputs ------------------------------------------------------------

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]
values = st.one_of(st.sampled_from(EDGES), st.floats())
ids = st.one_of(
    st.text(alphabet=',"\r\n abé\t', min_size=1, max_size=6),
    st.from_regex(r"m[0-9]{1,4}", fullmatch=True),
)
stamps = st.datetimes(
    min_value=datetime(1970, 1, 1),
    max_value=datetime(2100, 1, 1),
    timezones=st.sampled_from(
        [timezone.utc, timezone(timedelta(hours=-5)), timezone(timedelta(minutes=330))]
    ),
)


@st.composite
def reports(draw):
    n = draw(st.integers(2, 5))
    team_ids = [f"t{i}" for i in range(n)]
    match = build_match(
        draw(ids),
        draw(stamps),
        team_ids,
        [[f"{team}_p"] for team in team_ids],
        list(range(1, n + 1)),
    )
    metrics = MetricReport(
        *[draw(values) for _ in METRIC_NAMES],
        team_count=n,
        alt_ap=draw(values),
        alt_ndcg=draw(values),
    )
    ranking = PredictedRanking(tuple(team_ids), (), 0)
    return MatchReport(match, ranking, metrics, draw(values))


points = st.builds(
    TrendPoint,
    st.integers(0, 10**6),
    *[values for _ in METRIC_NAMES],
    new_player_fraction=values,
    match_count=st.integers(0, 10**6),
    focal_team_error=st.one_of(st.none(), values),
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def written(writer, path: Path, payload) -> bytes:
    writer(path, payload)
    return path.read_bytes()


@SETTINGS
@given(st.lists(reports(), max_size=8))
def test_match_metrics_csv_bytes(tmp_path, drawn):
    assert written(write_match_metrics_csv, tmp_path / "a.csv", drawn) == written(
        reference_write_match_metrics_csv, tmp_path / "b.csv", drawn
    )


@SETTINGS
@given(st.lists(points, max_size=12), st.sampled_from(["all", "best", "frequent"]))
def test_trend_csv_bytes(tmp_path, drawn, setup):
    trend = ExperimentTrend(setup, {}, drawn)
    assert written(write_trend_csv, tmp_path / "a.csv", trend) == written(
        reference_write_trend_csv, tmp_path / "b.csv", trend
    )


def test_fixed_edge_cases(tmp_path):
    # one of each edge, whatever the search draws
    trend = ExperimentTrend(
        "best",
        {},
        [
            TrendPoint(
                7,
                -0.0,
                5e-324,
                1e308,
                float("nan"),
                float("-inf"),
                0.25,
                new_player_fraction=-0.0,
                match_count=3,
                focal_team_error=focal,
            )
            for focal in (None, -0.0, 5e-324)
        ],
    )
    new = written(write_trend_csv, tmp_path / "a.csv", trend)
    assert new == written(reference_write_trend_csv, tmp_path / "b.csv", trend)
    assert new.decode().splitlines()[1:] == [
        f"7,-0.0,5e-324,1e+308,nan,-inf,0.25,-0.0,3,{focal}"
        for focal in ("", "-0.0", "5e-324")
    ]
    stamp = datetime(2020, 1, 2, 3, 4, 5, 6, timezone.utc)
    match = build_match('a,"b\r\n', stamp, ["x", "y"], [["p"], ["q"]], [2, 1])
    metrics = MetricReport(*[-0.0] * 6, team_count=2, alt_ap=0.0, alt_ndcg=0.0)
    report = MatchReport(match, PredictedRanking(("y", "x"), (), 0), metrics, 1e308)
    new = written(write_match_metrics_csv, tmp_path / "c.csv", [report])
    old = written(reference_write_match_metrics_csv, tmp_path / "d.csv", [report])
    assert new == old
    assert new.split(b"\r\n", 1)[1] == (
        b'"a,""b\r\n",2020-01-02T03:04:05.000006+00:00,2,1e+308,'
        b"-0.0,-0.0,-0.0,-0.0,-0.0,-0.0\r\n"
    )
