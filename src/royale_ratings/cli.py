"""Command line front end.

One binary, four subcommands:

    royale-ratings replay     --system elo --input matches.csv --output-dir out
    royale-ratings experiment --setup best --system trueskill --input matches.csv --output-dir out
    royale-ratings synth      --players 200 --teams 10 --team-size 2 --matches 1000 --output-dir out
    royale-ratings inspect    --input matches.csv

Every run ends by echoing a JSON summary to stdout that contains every
parameter the run actually used, defaulted or not; the same JSON is
written next to the other outputs.  Outputs carry no wall-clock state,
so identical flags and seed reproduce identical bytes.  Importing the
module moves every object alive at that point out of the cyclic garbage
collector's reach (``gc.freeze``).

``replay`` and ``experiment`` share one path.  Each parameter flag's
default is the library's: an omitted flag passes nothing, so the
``*Params`` field, ``setup_*`` keyword or ``SynthConfig`` field it sets
keeps its default.  Only ``--seed`` and ``--position-index`` have parser
defaults, because the summary echoes them.

Exit codes: 0 success, 1 unusable data, 2 usage errors (unknown or
missing flags, a non-positive --team-size, --window, --top-k,
--horizon or synth --matches, a negative synth --seed, and a non-finite
value of any float flag).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import inspect
import json
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable

# the replay module is imported by name because the package re-exports
# its replay() function under the same name, shadowing the module attribute
from . import synth
from .metrics import POSITION_INDICES
from .replay import (
    SETUP_NAMES,
    STORE_MAGIC,
    IngestStats,
    RatingStore,
    ingest,
    mean_metrics,
    mean_metrics_alt_index,
    replay,
    setup_all_players,
    setup_best_players,
    setup_frequent_players,
    write_match_metrics_csv,
    write_trend_csv,
)
from .core import RatingsError
from .systems import SYSTEM_NAMES, make_system
from .trueskill import MEMBER_SHARES

# What the imports built (about 41,000 tracked objects: numpy, scipy and
# this package) lives as long as the process, so it leaves the cyclic
# collector's reach.  A full collection then scans only what commands
# allocate, under 1 ms instead of 20-25 ms (2-vCPU VM, Python 3.11), so
# the first one, due a few commands into a long-lived process, costs the
# command it falls in next to nothing.
gc.freeze()

__all__ = ["main", "build_parser"]

# system parameter flags: flag -> (system, field of its params, help)
_SYSTEM_FLAGS = {
    "--k-factor": ("elo", "k_factor", "elo K"),
    "--d-scale": ("elo", "d_scale", "elo curve scale"),
    "--default-rating": ("elo", "default_rating", "elo starting rating"),
    "--glicko-mu": ("glicko", "default_mu", "glicko starting rating"),
    "--glicko-sigma": ("glicko", "default_sigma", "glicko starting deviation"),
    "--ts-mu": ("trueskill", "default_mu", "trueskill starting mean"),
    "--ts-sigma": ("trueskill", "default_sigma", "trueskill starting deviation"),
    "--beta": ("trueskill", "beta", "trueskill beta"),
    "--tau": ("trueskill", "tau_dynamics", "trueskill dynamics noise"),
    "--member-share": (
        "trueskill",
        "member_share",
        "how trueskill splits team deltas across members",
    ),
}


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool], expected: str):
    """An argparse type: ``parse`` the text, then require ``ok`` of the value."""

    def convert(text: str) -> Any:
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


_positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda value: value >= 0, "a non-negative integer")
_finite_float = _checked(float, math.isfinite, "a finite number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="royale-ratings",
        description="Rate team battle-royale matches and score rank predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="match-log CSV to replay")
        p.add_argument("--output-dir", required=True, help="directory for outputs")
        p.add_argument("--seed", type=int, default=0, help="tie-break seed (default 0)")
        p.add_argument(
            "--team-size",
            type=_positive_int,
            help="keep only matches whose teams all have this size (e.g. 2 for duos)",
        )
        p.add_argument(
            "--system", required=True, choices=SYSTEM_NAMES, help="rating system"
        )
        p.add_argument(
            "--position-index",
            choices=POSITION_INDICES,
            default="observed",
            help="leaderboard position convention for AP and NDCG",
        )
        group = p.add_argument_group("system parameters (defaults used when omitted)")
        for flag, (_, field, help_text) in _SYSTEM_FLAGS.items():
            if field == "member_share":
                group.add_argument(flag, choices=MEMBER_SHARES, help=help_text)
            else:
                group.add_argument(flag, type=_finite_float, help=help_text)

    p_replay = sub.add_parser("replay", help="replay a match log, score every match")
    add_common(p_replay)

    p_exp = sub.add_parser("experiment", help="replay and build a metric trend")
    add_common(p_exp)
    p_exp.add_argument("--setup", required=True, choices=SETUP_NAMES)
    p_exp.add_argument(
        "--window", type=_positive_int, help="moving-average window (setup all)"
    )
    p_exp.add_argument("--top-k", type=_positive_int, help="cohort size (setup best)")
    p_exp.add_argument(
        "--min-games",
        type=int,
        help="cohort needs more than this many games (setups best, frequent)",
    )
    p_exp.add_argument(
        "--horizon",
        type=_positive_int,
        help="game indices to trend (setups best, frequent)",
    )
    p_exp.add_argument(
        "--conservative-k",
        type=_finite_float,
        help="rank the best cohort by mu - k*sigma instead of mu",
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic match log")
    # each generator flag's dest is the SynthConfig field it sets
    add = p_synth.add_argument
    add("--players", dest="player_count", metavar="PLAYERS", type=int, required=True)
    add("--team-size", type=_positive_int)
    add("--teams", dest="teams_per_match", metavar="TEAMS", type=int)
    add("--matches", dest="match_count", metavar="MATCHES", type=_positive_int)
    add("--skill-mean", type=_finite_float)
    add("--skill-spread", type=_finite_float)
    add("--noise-spread", type=_finite_float)
    add("--seed", type=_non_negative_int)
    add("--output-dir", required=True)

    p_inspect = sub.add_parser(
        "inspect", help="summarize a match log or a rating-store snapshot"
    )
    p_inspect.add_argument("--input", required=True)

    return parser


def _given(args: argparse.Namespace, names: Iterable[str]) -> dict[str, Any]:
    """The flags among ``names`` that were given, by name."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _keywords(function: Callable[..., Any], args: argparse.Namespace) -> dict[str, Any]:
    """The given flags named by ``function``'s keyword-only parameters."""
    parameters = inspect.signature(function).parameters.values()
    return _given(args, (p.name for p in parameters if p.kind is p.KEYWORD_ONLY))


def _system_overrides(args: argparse.Namespace) -> dict[str, Any]:
    """The given parameter flags of ``args.system``, by params field."""
    return {
        field: value
        for flag, (system, field, _) in _SYSTEM_FLAGS.items()
        if system == args.system
        and (value := getattr(args, flag[2:].replace("-", "_"))) is not None
    }


def _emit_summary(summary: dict[str, Any], output_dir: Path | None) -> None:
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    if output_dir is not None:
        (output_dir / "run_summary.json").write_text(text + "\n", encoding="utf-8")
    print(text)


def _cmd_run(args: argparse.Namespace) -> int:
    """``replay`` and ``experiment``: one replay, its artifacts, one summary."""
    out = Path(args.output_dir)
    system = make_system(args.system, **_system_overrides(args))
    stats = IngestStats()
    matches = ingest(args.input, team_size=args.team_size, stats=stats)
    if args.command == "replay":
        result = replay(matches, system, **_keywords(replay, args))
        name, write, data = "per_match_metrics", write_match_metrics_csv, result.reports
        setup_summary: dict[str, Any] = {}
    else:
        # looked up when the command runs, so a rebound cli.setup_* is called
        setup = {
            "all": setup_all_players,
            "best": setup_best_players,
            "frequent": setup_frequent_players,
        }[args.setup]
        trend, result = setup(matches, system, **_keywords(setup, args))
        name, write, data = "trend", write_trend_csv, trend
        setup_summary = {
            "setup": args.setup,
            "setup_params": trend.params,
            "trend_points": len(trend.points),
        }
    # every artifact's check runs first, and the directory is made just
    # before the first write, so a run that failed leaves it as it was
    result.store.check()
    out.mkdir(parents=True, exist_ok=True)
    write(out / f"{name}.csv", data)
    result.store.save(out / "rating_store.txt")
    (other_index,) = set(POSITION_INDICES) - {args.position_index}
    summary = {
        "command": args.command,
        "input": args.input,
        "output_dir": args.output_dir,
        "seed": args.seed,
        "team_size": args.team_size,
        "system": system.name,
        "system_params": system.params_dict(),
        "metric_options": {"position_index": args.position_index},
        "counts": {
            "rows": stats.rows,
            "matches_read": stats.matches_read,
            "matches_filtered": stats.filtered,
            "matches_rejected": len(stats.rejected),
            "matches_replayed": len(result.reports),
            "players": len(result.store.ratings),
        },
        "mean_metrics": mean_metrics(result.reports),
        "mean_metrics_alt_position_index": {
            "position_index": other_index,
            **mean_metrics_alt_index(result.reports),
        },
        **setup_summary,
        "outputs": {
            name: f"{name}.csv",
            "rating_store": "rating_store.txt",
            "run_summary": "run_summary.json",
        },
    }
    _emit_summary(summary, out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    fields = (field.name for field in dataclasses.fields(synth.SynthConfig))
    config = synth.SynthConfig(**_given(args, fields))
    matches, skills = synth.generate(config)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    synth.write_match_log(out / "matches.csv", matches)
    synth.write_latent_skills(out / "latent_skills.csv", skills)
    summary = {
        "command": "synth",
        "output_dir": args.output_dir,
        "generator": dataclasses.asdict(config),
        "counts": {"matches": len(matches), "players": len(skills)},
        "outputs": {
            "matches": "matches.csv",
            "latent_skills": "latent_skills.csv",
            "run_summary": "run_summary.json",
        },
    }
    _emit_summary(summary, out)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.input)
    with open(path, "rb") as handle:
        first = handle.readline()
    if first.startswith(STORE_MAGIC.encode()):
        store = RatingStore.load(path)
        with_sigma = sum(1 for r in store.ratings.values() if r.sigma is not None)
        summary: dict[str, Any] = {
            "command": "inspect",
            "input": args.input,
            "kind": "rating_store",
            "system": store.system,
            "system_params": store.params,
            "seed": store.seed,
            "matches_processed": store.matches_processed,
            "players": len(store.ratings),
            "players_with_sigma": with_sigma,
        }
        if store.ratings:
            top = sorted(
                store.ratings.items(), key=lambda kv: (-kv[1].mu, kv[0])
            )[:10]
            summary["top_players"] = [
                {"player_id": pid, "mu": r.mu, "games_played": r.games_played}
                for pid, r in top
            ]
    else:
        stats = IngestStats()
        matches = ingest(path, stats=stats)
        sizes: Counter[int] = Counter()
        players: set[str] = set()
        for match in matches:
            sizes.update(match.sizes)
            players.update(match.roster)
        summary = {
            "command": "inspect",
            "input": args.input,
            "kind": "match_log",
            "counts": {
                "rows": stats.rows,
                "matches_read": stats.matches_read,
                "matches_valid": len(matches),
                "matches_rejected": len(stats.rejected),
                "players": len(players),
            },
            "team_size_histogram": {str(k): sizes[k] for k in sorted(sizes)},
        }
        if matches:
            summary["time_range"] = [
                matches[0].timestamp.isoformat(),
                matches[-1].timestamp.isoformat(),
            ]
    _emit_summary(summary, None)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "replay": _cmd_run,
        "experiment": _cmd_run,
        "synth": _cmd_synth,
        "inspect": _cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except (RatingsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
