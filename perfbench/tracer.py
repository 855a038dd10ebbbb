"""Span recorder for the traced benchmark run, from outside the package.

``install()`` rebinds each layer's public entry point where its caller
looks it up, so the package itself is unchanged:

- ``cli`` imports ``ingest``, ``replay``, ``setup_*``, the writers and
  ``mean_metrics_alt_index`` by name, so those are rebound in ``cli``;
- ``royale_ratings.replay`` looks up ``replay`` (from ``setup_*``),
  ``score_match`` and ``rank_pairs`` in its own namespace.  The module is
  fetched through ``sys.modules`` because the package re-exports the
  ``replay`` function under the module's name;
- ``systems`` imports ``rank_teams_by_score`` by name, and ``predict``,
  ``update_match``, ``_apply`` and ``initial_rating`` are looked up on the
  rating-system classes;
- ``cli`` calls ``synth.generate`` and ``synth.write_match_log`` through
  the module.

A span is (name, parent index, start ns, end ns); spans stay in memory
and ``dump`` writes them when the run ends.  Spans of one command share
the ``cli`` span at their root.  Counts that a span cannot give (rows
read, tie-broken predictions, bytes written, WARNING records per logger)
are taken at the same boundaries.
"""

from __future__ import annotations

import logging
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Recorder", "CountingHandler", "install", "layer_metrics"]

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording a ``name`` span per call; ``after(result, args)``
        runs outside the span to take counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if after is not None:
                after(return_value, args, kwargs)
            return return_value

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, parent, start, end in self.spans:
                handle.write(f"{name}\t{parent}\t{start}\t{end}\n")


class CountingHandler(logging.Handler):
    """Counts records per (logger, message template), then writes each one
    exactly as the last-resort handler would, so stderr bytes match an
    untraced run."""

    def __init__(self, counters: Counter[str]) -> None:
        super().__init__()
        self.counters = counters

    def emit(self, record: logging.LogRecord) -> None:
        self.counters[f"log\t{record.levelname}\t{record.name}\t{record.msg}"] += 1
        logging.lastResort.handle(record)


def install() -> Recorder:
    import royale_ratings.cli as cli
    from royale_ratings import elo, glicko, prevrank, synth, systems, trueskill

    replay_module = sys.modules["royale_ratings.replay"]
    rec = Recorder()
    counters = rec.counters
    logging.getLogger("royale_ratings").addHandler(CountingHandler(counters))

    def after_ingest(matches, args, kwargs):
        stats = kwargs.get("stats")
        counters["ingest.rows"] += stats.rows
        counters["ingest.matches_read"] += stats.matches_read
        counters["ingest.matches_kept"] += len(matches)

    def traced_ingest(*args, **kwargs):
        before = _rss_mb()
        matches = ingest(*args, **kwargs)
        grown = _rss_mb() - before
        counters["ingest.rss_delta_mb"] = max(counters["ingest.rss_delta_mb"], grown)
        return matches

    ingest = rec.wrap("ingest", cli.ingest, after_ingest)
    cli.ingest = traced_ingest

    def after_write(_, args, kwargs):
        counters["write.bytes"] += os.path.getsize(args[0])

    def after_save(_, args, kwargs):
        counters["write.bytes"] += os.path.getsize(args[1])

    def after_cohort(result, args, kwargs):
        trend = result[0]
        setup = trend.setup
        counters[f"trend.cohort_size.{setup}"] += trend.points[0].match_count if trend.points else 0
        counters["trend.contributions"] += sum(p.match_count for p in trend.points)

    cli.replay = rec.wrap("replay", cli.replay)
    cli.setup_all_players = rec.wrap("trend.all", cli.setup_all_players)
    cli.setup_best_players = rec.wrap("trend.best", cli.setup_best_players, after_cohort)
    cli.setup_frequent_players = rec.wrap(
        "trend.frequent", cli.setup_frequent_players, after_cohort
    )
    cli.write_match_metrics_csv = rec.wrap(
        "write.match_csv", cli.write_match_metrics_csv, after_write
    )
    cli.write_trend_csv = rec.wrap("write.trend_csv", cli.write_trend_csv, after_write)
    cli.mean_metrics_alt_index = rec.wrap("metrics.alt_pass", cli.mean_metrics_alt_index)
    replay_module.RatingStore.save = rec.wrap(
        "write.store", replay_module.RatingStore.save, after_save
    )
    replay_module.replay = rec.wrap("replay", replay_module.replay)
    replay_module.score_match = rec.wrap("metrics.score", replay_module.score_match)
    replay_module.rank_pairs = rec.wrap("metrics.pairs", replay_module.rank_pairs)

    def after_predict(ranking, args, kwargs):
        counters["predict.tie_broken"] += bool(ranking.tie_groups)

    def after_update(_, args, kwargs):
        counters["bookkeeping.member_updates"] += sum(len(t.members) for t in args[2].teams)

    base = systems.RatingSystem
    base.predict = rec.wrap("predict", base.predict, after_predict)
    base.update_match = rec.wrap("update_match", base.update_match, after_update)
    systems.rank_teams_by_score = rec.wrap("core.rank", systems.rank_teams_by_score)
    for cls in (
        elo.EloSystem,
        glicko.GlickoSystem,
        trueskill.TrueSkillSystem,
        prevrank.PreviousRankSystem,
    ):
        cls._apply = rec.wrap(f"update.{cls.name}", cls._apply)
        cls.initial_rating = rec.count("replay.new_players", cls.initial_rating)

    synth.generate = rec.wrap("synth.generate", synth.generate)
    synth.write_match_log = rec.wrap("synth.write", synth.write_match_log)
    return rec


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans_path: Path, counters: dict, stderr_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced job, from its spans and counters."""
    spans = []
    with open(spans_path) as handle:
        for line in handle:
            name, parent, start, end = line.split("\t")
            spans.append((name, int(parent), (int(end) - int(start)) / 1e9))
    covered = [0.0] * len(spans)
    for name, parent, seconds in spans:
        if parent >= 0:
            covered[parent] += seconds
    busy: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    per_call = defaultdict(list)
    loop_metrics = 0.0
    for index, (name, parent, seconds) in enumerate(spans):
        busy[name] += seconds
        self_s[name] += seconds - covered[index]
        calls[name] += 1
        if name.startswith("update."):
            per_call[name].append(seconds)
        if name.startswith("metrics.") and parent >= 0 and spans[parent][0] == "replay":
            loop_metrics += seconds
    warnings: Counter[str] = Counter()
    for key, count in counters.items():
        if key.startswith("log\t"):
            _, level, logger, message = key.split("\t", 3)
            if "sigma collapsed" in message:
                warnings["glicko_collapse"] += count
            elif "uniform member weights" in message:
                warnings["weight_fallback"] += count
            elif "rejected match" in message:
                warnings["ingest_reject"] += count
    rows = counters.get("ingest.rows", 0)
    read = counters.get("ingest.matches_read", 0)
    predictions = calls["predict"]
    out = {
        "ingest.busy_s": busy["ingest"],
        "ingest.rows": rows,
        "ingest.rows_per_s": rows / busy["ingest"] if busy["ingest"] else 0.0,
        "ingest.accept_ratio": counters.get("ingest.matches_kept", 0) / read if read else 0.0,
        "ingest.rss_delta_mb": counters.get("ingest.rss_delta_mb", 0.0),
        "replay.loop.self_s": self_s["replay"],
        "replay.new_players": counters.get("replay.new_players", 0),
        "predict.busy_s": busy["predict"],
        "predict.calls": predictions,
        "predict.tie_broken_ratio": (
            counters.get("predict.tie_broken", 0) / predictions if predictions else 0.0
        ),
        "core.rank.busy_s": busy["core.rank"],
    }
    for system in ("elo", "glicko", "trueskill"):
        durations = per_call[f"update.{system}"]
        out[f"update.{system}.busy_s"] = busy[f"update.{system}"]
        out[f"update.{system}.p99_us"] = _quantile(durations, 0.99) * 1e6 if durations else 0.0
    out.update(
        {
            "bookkeeping.self_s": self_s["update_match"],
            "bookkeeping.member_updates": counters.get("bookkeeping.member_updates", 0),
            "metrics.busy_s": loop_metrics,
            "metrics.calls": calls["metrics.score"],
            "metrics.alt_pass.busy_s": busy["metrics.alt_pass"],
        }
    )
    for setup in ("all", "best", "frequent"):
        out[f"trend.{setup}.self_s"] = self_s[f"trend.{setup}"]
    for setup in ("best", "frequent"):
        out[f"trend.cohort_size.{setup}"] = counters.get(f"trend.cohort_size.{setup}", 0)
    out["trend.contributions"] = counters.get("trend.contributions", 0)
    for writer in ("match_csv", "trend_csv", "store"):
        out[f"write.{writer}.busy_s"] = busy[f"write.{writer}"]
    out["write.bytes"] = counters.get("write.bytes", 0)
    out["synth.generate.busy_s"] = busy["synth.generate"]
    out["synth.write.busy_s"] = busy["synth.write"]
    for kind in ("glicko_collapse", "weight_fallback", "ingest_reject"):
        out[f"log.warnings.{kind}"] = warnings[kind]
    out["stderr.bytes"] = stderr_bytes
    out["cli.self_s"] = self_s["cli"]
    return out
