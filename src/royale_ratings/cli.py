"""Command line front end.

One binary, four subcommands:

    royale-ratings replay     --system elo --input matches.csv --output-dir out
    royale-ratings experiment --setup best --system trueskill --input matches.csv --output-dir out
    royale-ratings synth      --players 200 --teams 10 --team-size 2 --matches 1000 --output-dir out
    royale-ratings inspect    --input matches.csv

Every run ends by echoing a JSON summary to stdout that contains every
parameter the run actually used, defaulted or not; the same JSON is
written next to the other outputs.  Outputs carry no wall-clock state,
so identical flags and seed reproduce identical bytes.

``replay`` and ``experiment`` share one path.  A set-up's defaults live
only in its ``setup_*`` function: the CLI passes on just the set-up flags
given, and ``setup_params`` records every value the set-up used.

Exit codes: 0 success, 1 unusable data, 2 usage errors (unknown or
missing flags, a non-positive --team-size, --window, --top-k or
--horizon, a negative synth --seed, and a non-finite value of any
float flag).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

# the replay module is imported by name because the package re-exports
# its replay() function under the same name, shadowing the module attribute
from . import synth
from .replay import (
    SETUP_NAMES,
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

__all__ = ["main", "build_parser"]

# the experiment flags each set-up reads; the others are ignored
_SETUP_FLAGS = {
    "all": ("window",),
    "best": ("top_k", "min_games", "horizon", "conservative_k"),
    "frequent": ("min_games", "horizon"),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


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
            default=None,
            help="keep only matches whose teams all have this size (e.g. 2 for duos)",
        )
        p.add_argument(
            "--system", required=True, choices=SYSTEM_NAMES, help="rating system"
        )
        p.add_argument(
            "--position-index",
            choices=("observed", "predicted"),
            default="observed",
            help="leaderboard position convention for AP and NDCG",
        )
        group = p.add_argument_group("system parameters (defaults used when omitted)")
        for flag, help_text in (
            ("--k-factor", "elo K"),
            ("--d-scale", "elo curve scale"),
            ("--default-rating", "elo starting rating"),
            ("--glicko-mu", "glicko starting rating"),
            ("--glicko-sigma", "glicko starting deviation"),
            ("--ts-mu", "trueskill starting mean"),
            ("--ts-sigma", "trueskill starting deviation"),
            ("--beta", "trueskill beta"),
            ("--tau", "trueskill dynamics noise"),
        ):
            group.add_argument(flag, type=_finite_float, default=None, help=help_text)
        group.add_argument(
            "--member-share",
            choices=("sigma_sq", "mu"),
            default=None,
            help="how trueskill splits team deltas across members",
        )

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
    p_synth.add_argument("--players", type=int, required=True)
    p_synth.add_argument("--team-size", type=int, default=2)
    p_synth.add_argument("--teams", type=int, default=10)
    p_synth.add_argument("--matches", type=int, default=1000)
    p_synth.add_argument("--skill-mean", type=_finite_float, default=0.0)
    p_synth.add_argument("--skill-spread", type=_finite_float, default=1.0)
    p_synth.add_argument("--noise-spread", type=_finite_float, default=0.0)
    p_synth.add_argument("--seed", type=_non_negative_int, default=0)
    p_synth.add_argument("--output-dir", required=True)

    p_inspect = sub.add_parser(
        "inspect", help="summarize a match log or a rating-store snapshot"
    )
    p_inspect.add_argument("--input", required=True)

    return parser


def _system_overrides(args: argparse.Namespace) -> dict[str, Any]:
    by_system = {
        "elo": {
            "k_factor": args.k_factor,
            "d_scale": args.d_scale,
            "default_rating": args.default_rating,
        },
        "glicko": {
            "default_mu": args.glicko_mu,
            "default_sigma": args.glicko_sigma,
        },
        "trueskill": {
            "default_mu": args.ts_mu,
            "default_sigma": args.ts_sigma,
            "beta": args.beta,
            "tau_dynamics": args.tau,
            "member_share": args.member_share,
        },
        "prevrank": {},
    }
    return {k: v for k, v in by_system[args.system].items() if v is not None}


def _emit_summary(summary: dict[str, Any], output_dir: Path | None) -> None:
    text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    if output_dir is not None:
        (output_dir / "run_summary.json").write_text(text + "\n", encoding="utf-8")
    print(text)


def _cmd_run(args: argparse.Namespace) -> int:
    """``replay`` and ``experiment``: one replay, its artifacts, one summary."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    system = make_system(args.system, **_system_overrides(args))
    stats = IngestStats()
    matches = ingest(args.input, team_size=args.team_size, stats=stats)
    shared = {"seed": args.seed, "position_index": args.position_index}
    if args.command == "replay":
        result = replay(matches, system, **shared)
        write_match_metrics_csv(out / "per_match_metrics.csv", result.reports)
        outputs = {"per_match_metrics": "per_match_metrics.csv"}
        setup_summary: dict[str, Any] = {}
    else:
        # looked up when the command runs, so a rebound cli.setup_* is called
        setups = {
            "all": setup_all_players,
            "best": setup_best_players,
            "frequent": setup_frequent_players,
        }
        given = {
            flag: getattr(args, flag)
            for flag in _SETUP_FLAGS[args.setup]
            if getattr(args, flag) is not None
        }
        trend, result = setups[args.setup](matches, system, **given, **shared)
        write_trend_csv(out / "trend.csv", trend)
        outputs = {"trend": "trend.csv"}
        setup_summary = {
            "setup": args.setup,
            "setup_params": trend.params,
            "trend_points": len(trend.points),
        }
    result.store.save(out / "rating_store.txt")
    other_index = "predicted" if args.position_index == "observed" else "observed"
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
            **outputs,
            "rating_store": "rating_store.txt",
            "run_summary": "run_summary.json",
        },
    }
    _emit_summary(summary, out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = synth.SynthConfig(
        player_count=args.players,
        team_size=args.team_size,
        teams_per_match=args.teams,
        match_count=args.matches,
        skill_mean=args.skill_mean,
        skill_spread=args.skill_spread,
        noise_spread=args.noise_spread,
        seed=args.seed,
    )
    matches, skills = synth.generate(config)
    synth.write_match_log(out / "matches.csv", matches)
    synth.write_latent_skills(out / "latent_skills.csv", skills)
    summary = {
        "command": "synth",
        "output_dir": args.output_dir,
        "generator": synth.config_dict(config),
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
    if first.startswith(b"#royale-ratings-store"):
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
        sizes: dict[int, int] = {}
        players: set[str] = set()
        for match in matches:
            for team in match.teams:
                sizes[len(team.members)] = sizes.get(len(team.members), 0) + 1
                players.update(team.members)
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
