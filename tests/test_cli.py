from __future__ import annotations

import csv
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from royale_ratings.cli import _finite_float, build_parser, main
from royale_ratings.matchlog import MATCH_LOG_COLUMNS
from royale_ratings.metrics import POSITION_INDICES
from royale_ratings.replay import (
    setup_all_players,
    setup_best_players,
    setup_frequent_players,
)
from royale_ratings.store import RatingStore
from royale_ratings.synth import SynthConfig
from royale_ratings.systems import SYSTEM_NAMES, make_system
from royale_ratings.trueskill import MEMBER_SHARES

GOLDEN_LOG = Path(__file__).resolve().parent / "golden" / "matches.csv"
SRC = Path(__file__).resolve().parent.parent / "src"
PERFORMANCE_OVERFLOW = r"match 'm00000[1-3]': team 't0[1-3]' performance overflows"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured


def run_json(capsys, *argv):
    code, captured = run_cli(capsys, *argv)
    assert code == 0, captured.err
    return json.loads(captured.out)


def make_log(capsys, tmp_path, name="data", matches="30", noise="1.0"):
    out = tmp_path / name
    run_json(
        capsys,
        "synth",
        "--players",
        "30",
        "--team-size",
        "2",
        "--teams",
        "5",
        "--matches",
        matches,
        "--noise-spread",
        noise,
        "--seed",
        "11",
        "--output-dir",
        str(out),
    )
    return out / "matches.csv"


class TestSynthCommand:
    def test_writes_outputs_and_summary(self, capsys, tmp_path):
        out = tmp_path / "gen"
        summary = run_json(
            capsys,
            "synth",
            "--players",
            "24",
            "--matches",
            "4",
            "--seed",
            "3",
            "--output-dir",
            str(out),
        )
        assert summary["command"] == "synth"
        assert summary["counts"] == {"matches": 4, "players": 24}
        assert (out / "matches.csv").exists()
        assert (out / "latent_skills.csv").exists()
        stored = json.loads((out / "run_summary.json").read_text())
        assert stored == summary

    def test_summary_records_every_generator_parameter(self, capsys, tmp_path):
        out = tmp_path / "gen"
        summary = run_json(
            capsys,
            "synth",
            "--players",
            "24",
            "--matches",
            "2",
            "--skill-spread",
            "2.5",
            "--output-dir",
            str(out),
        )
        gen = summary["generator"]
        assert gen["player_count"] == 24
        assert gen["team_size"] == 2
        assert gen["teams_per_match"] == 10
        assert gen["match_count"] == 2
        assert gen["skill_mean"] == 0.0
        assert gen["skill_spread"] == 2.5
        assert gen["noise_spread"] == 0.0
        assert gen["seed"] == 0

    def test_omitted_flags_take_the_config_defaults(self, capsys, tmp_path):
        summary = run_json(
            capsys, "synth", "--players", "24", "--output-dir", str(tmp_path / "gen")
        )
        assert summary["generator"] == asdict(SynthConfig(player_count=24))

    def test_deterministic_bytes(self, capsys, tmp_path):
        a = make_log(capsys, tmp_path, "one")
        b = make_log(capsys, tmp_path, "two")
        assert a.read_bytes() == b.read_bytes()

    def test_impossible_roster_is_exit_one(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys,
            "synth",
            "--players",
            "5",
            "--matches",
            "1",
            "--output-dir",
            str(tmp_path / "gen"),
        )
        assert code == 1
        assert "error:" in captured.err

    def test_negative_seed_is_exit_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "synth",
                    "--players",
                    "24",
                    "--seed",
                    "-1",
                    "--output-dir",
                    str(tmp_path / "gen"),
                ]
            )
        assert exc.value.code == 2
        assert "expected a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--skill-mean", "1.7e308"], PERFORMANCE_OVERFLOW),
            (["--skill-spread", "1e308", "--noise-spread", "1e308"], PERFORMANCE_OVERFLOW),
            (
                ["--skill-mean", "1e308", "--skill-spread", "1e308"],
                r"player 'p0001' latent skill overflows .*",
            ),
        ],
        ids=["team-sum", "nan-performance", "latent-skill"],
    )
    def test_overflowing_draw_is_exit_one(self, tmp_path, flags, error):
        # a fresh interpreter, so a numpy warning would reach stderr as a user sees it
        out = tmp_path / "gen"
        paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
        done = subprocess.run(
            [
                sys.executable, "-m", "royale_ratings.cli", "synth", "--players", "12",
                "--team-size", "2", "--teams", "3", "--matches", "3", "--seed", "1",
                *flags, "--output-dir", str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
            timeout=120,
        )
        assert done.returncode == 1
        assert re.fullmatch(f"error: {error}\n", done.stderr), done.stderr
        assert done.stdout == ""
        assert not (out / "matches.csv").exists()

    def test_out_of_memory_is_exit_one(self, tmp_path):
        resource = pytest.importorskip("resource")
        cap = 512 << 20

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        # only ever run under the cap: uncapped, this player count takes
        # every byte the host has
        out = tmp_path / "gen"
        paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
        done = subprocess.run(
            [
                sys.executable, "-m", "royale_ratings.cli", "synth",
                "--players", "99999999999999999999", "--output-dir", str(out),
            ],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(p for p in paths if p),
                "OPENBLAS_NUM_THREADS": "1",
            },
            preexec_fn=limit_address_space,
            timeout=120,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr == "error: out of memory\n"
        assert not (out / "matches.csv").exists()

    @pytest.mark.parametrize("flag", ["--team-size", "--matches"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_size_is_exit_two(self, capsys, tmp_path, flag, value):
        out = tmp_path / "gen"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--players", "24", flag, value, "--output-dir", str(out)])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert not out.exists()


class TestReplayCommand:
    def test_end_to_end(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path)
        out = tmp_path / "run"
        summary = run_json(
            capsys,
            "replay",
            "--input",
            str(log),
            "--output-dir",
            str(out),
            "--system",
            "elo",
            "--seed",
            "7",
        )
        assert summary["command"] == "replay"
        assert summary["system"] == "elo"
        assert summary["seed"] == 7
        assert summary["counts"]["matches_replayed"] == 30
        assert summary["counts"]["players"] == 30
        assert set(summary["mean_metrics"]) == {
            "accuracy",
            "mae",
            "kendall_tau",
            "mrr",
            "ap",
            "ndcg",
        }
        assert (out / "per_match_metrics.csv").exists()
        assert (out / "rating_store.txt").exists()
        assert json.loads((out / "run_summary.json").read_text()) == summary

    def test_summary_records_system_parameters(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path)
        summary = run_json(
            capsys,
            "replay",
            "--input",
            str(log),
            "--output-dir",
            str(tmp_path / "run"),
            "--system",
            "elo",
            "--k-factor",
            "20",
        )
        assert summary["system_params"]["k_factor"] == 20.0
        assert summary["system_params"]["d_scale"] == 400.0
        assert summary["metric_options"] == {"position_index": "observed"}
        alt = summary["mean_metrics_alt_position_index"]
        assert alt["position_index"] == "predicted"
        assert "ndcg" in alt

    def test_each_system_runs(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path)
        for system in ("elo", "glicko", "trueskill", "prevrank"):
            summary = run_json(
                capsys,
                "replay",
                "--input",
                str(log),
                "--output-dir",
                str(tmp_path / f"run_{system}"),
                "--system",
                system,
            )
            assert summary["system"] == system
            # no parameter flag given, so every parameter is the library's
            assert summary["system_params"] == make_system(system).params_dict()

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path)
        for name in ("a", "b"):
            run_json(
                capsys,
                "replay",
                "--input",
                str(log),
                "--output-dir",
                str(tmp_path / name),
                "--system",
                "glicko",
                "--seed",
                "5",
            )
        for artifact in ("per_match_metrics.csv", "rating_store.txt", "run_summary.json"):
            a = (tmp_path / "a" / artifact).read_bytes()
            b = (tmp_path / "b" / artifact).read_bytes()
            # summaries embed their own output dir, so compare after
            # stripping the differing path
            if artifact == "run_summary.json":
                a = a.replace(str(tmp_path / "a").encode(), b"X")
                b = b.replace(str(tmp_path / "b").encode(), b"X")
            assert a == b, artifact

    def test_missing_input_is_exit_one(self, capsys, tmp_path):
        code, captured = run_cli(
            capsys,
            "replay",
            "--system",
            "elo",
            "--input",
            str(tmp_path / "nope.csv"),
            "--output-dir",
            str(tmp_path / "run"),
        )
        assert code == 1
        assert "error:" in captured.err

    def test_malformed_input_is_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "match_id,timestamp,team_id,player_id,team_placement\n"
            "m1,garbage,t1,a,1\n"
        )
        code, captured = run_cli(
            capsys,
            "replay",
            "--system",
            "elo",
            "--input",
            str(bad),
            "--output-dir",
            str(tmp_path / "run"),
        )
        assert code == 1
        assert "bad timestamp" in captured.err

    @pytest.mark.parametrize(
        "system, flag, value",
        [("trueskill", "--beta", "1e300"), ("glicko", "--glicko-sigma", "1e-300")],
    )
    def test_arithmetic_failure_is_exit_one(self, capsys, tmp_path, system, flag, value):
        log = make_log(capsys, tmp_path, matches="2")
        code, captured = run_cli(
            capsys,
            "replay",
            "--input",
            str(log),
            "--output-dir",
            str(tmp_path / "run"),
            "--system",
            system,
            flag,
            value,
        )
        assert code == 1
        assert "error: match " in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--system", "elo", "--default-rating", "1e308"], "elo prediction failed"),
            (["--system", "glicko", "--glicko-mu", "1e308"], "glicko prediction failed"),
            (["--system", "trueskill", "--ts-mu", "1e308"], "trueskill prediction failed"),
            (
                ["--system", "trueskill", "--ts-sigma", "1e-300", "--tau", "0"],
                "trueskill update failed (sigmas must be positive)",
            ),
        ],
    )
    def test_failed_match_is_named(self, capsys, tmp_path, flags, message):
        log = make_log(capsys, tmp_path, matches="60")
        code, captured = run_cli(
            capsys,
            "replay",
            "--input",
            str(log),
            "--output-dir",
            str(tmp_path / "run"),
            *flags,
        )
        assert code == 1
        assert captured.err.startswith("error: match 'm")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--system", "glicko", "--glicko-sigma", "1e160"],
            ["--system", "glicko", "--glicko-sigma", "1e308"],
            ["--system", "trueskill", "--ts-sigma", "1e154"],
            ["--system", "trueskill", "--ts-sigma", "1e160", "--tau", "0"],
        ],
    )
    def test_deviation_overflow_names_the_team(self, capsys, tmp_path, flags):
        code, captured = run_cli(
            capsys,
            "replay",
            "--input",
            str(GOLDEN_LOG),
            "--output-dir",
            str(tmp_path / "run"),
            *flags,
        )
        assert code == 1
        assert re.fullmatch(
            r"error: match 'm\d+': \w+ update failed \(team 't\d+' deviation "
            r"overflows when squared\)\n",
            captured.err,
        ), captured.err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--system", "glicko", "--glicko-sigma", "1e154"],
            ["--system", "trueskill", "--ts-sigma", "1e154"],
        ],
    )
    def test_combined_deviation_overflow_names_the_teams(self, capsys, tmp_path, flags):
        # solo teams: every square is finite, a pair's sum is not
        log = tmp_path / "solo" / "matches.csv"
        run_json(
            capsys, "synth", "--players", "12", "--team-size", "1", "--teams", "6",
            "--matches", "5", "--seed", "3", "--output-dir", str(log.parent),
        )
        run = tmp_path / "run"
        code, captured = run_cli(
            capsys, "replay", "--input", str(log), "--output-dir", str(run), *flags
        )
        assert code == 1
        assert re.fullmatch(
            r"error: match 'm000001': \w+ update failed \(teams 't\d+' and 't\d+' "
            r"deviations overflow when combined\)\n",
            captured.err,
        ), captured.err

    def test_non_utf8_input_is_exit_one(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path, matches="2")
        log.write_bytes(log.read_bytes().replace(b"p", b"\xff", 1))
        code, captured = run_cli(
            capsys,
            "replay",
            "--input",
            str(log),
            "--output-dir",
            str(tmp_path / "run"),
            "--system",
            "elo",
        )
        assert code == 1
        assert f"error: {log}: not UTF-8 text" in captured.err

    @pytest.mark.parametrize("command", ["replay", "experiment"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_team_size_is_exit_two(self, capsys, tmp_path, command, value):
        log = make_log(capsys, tmp_path, matches="2")
        setup = ["--setup", "all"] if command == "experiment" else []
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    command,
                    *setup,
                    "--input",
                    str(log),
                    "--output-dir",
                    str(tmp_path / "run"),
                    "--system",
                    "elo",
                    f"--team-size={value}",
                ]
            )
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unparsable_number_is_exit_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "replay",
                    "--input",
                    str(tmp_path / "unread.csv"),
                    "--output-dir",
                    str(tmp_path / "run"),
                    "--system",
                    "elo",
                    "--k-factor",
                    "abc",
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --k-factor: expected a finite number, got 'abc'" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_flag_is_exit_two(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--frobnicate", "yes"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


    def test_trueskill_with_a_huge_starting_sigma(self, capsys, tmp_path):
        # pairs reach the deep losing tail of v and w, where w must stay < 1
        # for a sigma to stay positive
        log = make_log(capsys, tmp_path)
        out = tmp_path / "run"
        summary = run_json(
            capsys,
            "replay",
            "--input",
            str(log),
            "--output-dir",
            str(out),
            "--system",
            "trueskill",
            "--ts-sigma",
            "1e150",
        )
        assert summary["counts"]["matches_replayed"] == 30
        ratings = RatingStore.load(out / "rating_store.txt").ratings
        assert all(rating.sigma > 0 for rating in ratings.values())


    @pytest.mark.parametrize("sigma", ["1e-300", "1e-170"])
    def test_glicko_deviation_underflow_names_the_team(self, capsys, tmp_path, sigma):
        # every team deviation squares to 0.0, which 1 / sigma_t^2 would
        # divide by
        out = tmp_path / "run"
        code, captured = run_cli(
            capsys, "replay", "--input", str(GOLDEN_LOG), "--output-dir", str(out),
            "--system", "glicko", "--glicko-sigma", sigma,
        )
        assert code == 1
        assert re.fullmatch(
            r"error: match 'm\d+': glicko update failed \(team 't\d+' deviation "
            r"underflows when squared\)\n",
            captured.err,
        ), captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--beta", "1e300", "2 beta^2 overflows"),
            ("--beta", "1e154", "2 beta^2 overflows"),
            ("--tau", "1e300", "tau_dynamics^2 overflows"),
        ],
    )
    def test_trueskill_parameter_overflow_names_the_parameter(
        self, capsys, tmp_path, flag, value, message
    ):
        out = tmp_path / "run"
        code, captured = run_cli(
            capsys, "replay", "--input", str(GOLDEN_LOG), "--output-dir", str(out),
            "--system", "trueskill", flag, value,
        )
        assert code == 1
        assert re.fullmatch(
            rf"error: match 'm\d+': trueskill update failed \({re.escape(message)}\)\n",
            captured.err,
        ), captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "--system", "elo"],
            ["experiment", "--setup", "best", "--system", "glicko"],
        ],
        ids=["replay", "experiment"],
    )
    def test_a_run_checks_its_store_once(self, capsys, tmp_path, monkeypatch, argv):
        # every check of the store runs in its save
        save, calls = RatingStore.save, []

        def counted(store, path):
            calls.append(store)
            return save(store, path)

        monkeypatch.setattr(RatingStore, "save", counted)
        log = make_log(capsys, tmp_path, matches="4")
        out = tmp_path / "run"
        run_json(capsys, *argv, "--input", str(log), "--output-dir", str(out))
        assert len(calls) == 1
        assert (out / "rating_store.txt").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--system", "elo", "--d-scale", "5e-324"],
                r"elo update failed \(team rating gap / d_scale overflows\)",
            ),
            (
                ["--system", "elo", "--default-rating", "1.7e308"],
                r"elo prediction failed \(team 't\d+' rating sum overflows\)",
            ),
            (
                ["--system", "glicko", "--glicko-mu", "1.7e308"],
                r"glicko prediction failed \(team 't\d+' rating sum overflows\)",
            ),
            (
                ["--system", "trueskill", "--ts-mu", "1.7e308"],
                r"trueskill prediction failed \(team 't\d+' rating sum overflows\)",
            ),
        ],
        ids=["d-scale", "default-rating", "glicko-mu", "ts-mu"],
    )
    def test_float_overflow_names_its_cause(self, capsys, tmp_path, flags, message):
        log = make_log(capsys, tmp_path, matches="4")
        out = tmp_path / "run"
        code, captured = run_cli(
            capsys, "replay", "--input", str(log), "--output-dir", str(out), *flags
        )
        assert code == 1
        assert re.fullmatch(rf"error: match 'm\d+': {message}\n", captured.err), captured.err
        assert not out.exists()

    @pytest.mark.parametrize("team_size", ["1", "2"])
    def test_trueskill_tau_overflow_names_tau(self, capsys, tmp_path, team_size):
        # every member's own sigma is 8.33, but two of their variances,
        # inflated by tau^2 = 1e308, sum past the largest double: in a duo
        # team's variance, or in a pair of solo teams' c^2
        data = tmp_path / "data"
        run_json(
            capsys, "synth", "--players", "12", "--team-size", team_size,
            "--teams", "4", "--matches", "3", "--output-dir", str(data),
        )
        out = tmp_path / "run"
        code, captured = run_cli(
            capsys, "replay", "--input", str(data / "matches.csv"), "--output-dir",
            str(out), "--system", "trueskill", "--tau", "1e154",
        )
        assert code == 1
        assert captured.err == (
            "error: match 'm000001': trueskill update failed "
            "(tau_dynamics^2 over 2 members overflows)\n"
        )
        assert not out.exists()


class TestExperimentCommand:
    def test_all_setup_writes_trend(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path)
        out = tmp_path / "exp"
        summary = run_json(
            capsys,
            "experiment",
            "--input",
            str(log),
            "--output-dir",
            str(out),
            "--system",
            "elo",
            "--setup",
            "all",
            "--window",
            "5",
        )
        assert summary["command"] == "experiment"
        assert summary["setup"] == "all"
        assert summary["setup_params"] == {"window": 5}
        assert summary["trend_points"] == 30
        lines = (out / "trend.csv").read_text().splitlines()
        assert len(lines) == 31
        assert (out / "rating_store.txt").exists()

    def test_best_setup_defaults(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path)
        summary = run_json(
            capsys,
            "experiment",
            "--input",
            str(log),
            "--output-dir",
            str(tmp_path / "exp"),
            "--system",
            "trueskill",
            "--setup",
            "best",
            "--min-games",
            "3",
            "--top-k",
            "5",
        )
        assert summary["setup"] == "best"
        params = summary["setup_params"]
        assert params["top_k"] == 5
        assert params["min_games"] == 3
        assert params["horizon"] == 10  # default fills in when not given
        assert params["conservative_k"] == 0.0

    @pytest.mark.parametrize(
        "setup, flag",
        [("all", "--window"), ("best", "--top-k"), ("best", "--horizon"), ("frequent", "--horizon")],
    )
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_size_is_exit_two(self, capsys, tmp_path, setup, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "experiment",
                    "--input",
                    str(tmp_path / "unread.csv"),
                    "--output-dir",
                    str(tmp_path / "exp"),
                    "--system",
                    "elo",
                    "--setup",
                    setup,
                    flag,
                    value,
                ]
            )
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_conservative_k_is_exit_two(self, capsys, tmp_path, value):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "experiment",
                    "--input",
                    str(tmp_path / "unread.csv"),
                    "--output-dir",
                    str(tmp_path / "exp"),
                    "--system",
                    "elo",
                    "--setup",
                    "best",
                    f"--conservative-k={value}",
                ]
            )
        assert exc.value.code == 2
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setup, function, foreign_flags",
        [
            (
                "all",
                setup_all_players,
                ["--top-k", "3", "--min-games", "5", "--horizon", "5", "--conservative-k", "2"],
            ),
            ("best", setup_best_players, ["--window", "7"]),
            (
                "frequent",
                setup_frequent_players,
                ["--window", "7", "--top-k", "3", "--conservative-k", "2"],
            ),
        ],
    )
    def test_setup_params_default_to_the_setup_signature(
        self, capsys, tmp_path, setup, function, foreign_flags
    ):
        # the set-up function is the one place its defaults live; flags
        # that belong to other set-ups must not leak into this one
        defaults = {
            name: parameter.default
            for name, parameter in inspect.signature(function).parameters.items()
            if parameter.kind is parameter.KEYWORD_ONLY
            and name not in ("seed", "position_index")
        }
        log = make_log(capsys, tmp_path)
        for name, extra in (("plain", []), ("foreign", foreign_flags)):
            summary = run_json(
                capsys,
                "experiment",
                "--input",
                str(log),
                "--output-dir",
                str(tmp_path / name),
                "--system",
                "elo",
                "--setup",
                setup,
                *extra,
            )
            assert summary["setup_params"] == defaults, name

    def test_frequent_setup(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path)
        summary = run_json(
            capsys,
            "experiment",
            "--input",
            str(log),
            "--output-dir",
            str(tmp_path / "exp"),
            "--system",
            "prevrank",
            "--setup",
            "frequent",
            "--min-games",
            "2",
            "--horizon",
            "4",
        )
        assert summary["setup"] == "frequent"
        assert summary["setup_params"] == {"min_games": 2, "horizon": 4}
        assert summary["trend_points"] <= 4


class TestInspectCommand:
    def test_match_log_kind(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path, matches="6")
        summary = run_json(capsys, "inspect", "--input", str(log))
        assert summary["kind"] == "match_log"
        assert summary["counts"]["matches_valid"] == 6
        assert summary["team_size_histogram"] == {"2": 30}
        assert len(summary["time_range"]) == 2

    def test_rating_store_kind(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path)
        out = tmp_path / "run"
        run_json(
            capsys,
            "replay",
            "--input",
            str(log),
            "--output-dir",
            str(out),
            "--system",
            "glicko",
        )
        summary = run_json(
            capsys, "inspect", "--input", str(out / "rating_store.txt")
        )
        assert summary["kind"] == "rating_store"
        assert summary["system"] == "glicko"
        assert summary["players"] == 30
        assert summary["players_with_sigma"] == 30
        assert len(summary["top_players"]) == 10
        mus = [p["mu"] for p in summary["top_players"]]
        assert mus == sorted(mus, reverse=True)

    @pytest.mark.parametrize(
        "player_ids", [("#x", "p2", "p3", "p4"), ("a\x0cb", "p2"), ("a\rb", "p2")]
    )
    def test_store_keeps_every_player_id(self, capsys, tmp_path, player_ids):
        log = tmp_path / "log.csv"
        with log.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(MATCH_LOG_COLUMNS)
            for i, player_id in enumerate(player_ids):
                team = i % 2 + 1
                stamp = "2020-05-01T12:00:00Z"
                writer.writerow(["m1", stamp, f"t{team}", player_id, team])
        out = tmp_path / "run"
        run_json(
            capsys, "replay", "--input", str(log), "--output-dir", str(out), "--system", "elo"
        )
        summary = run_json(capsys, "inspect", "--input", str(out / "rating_store.txt"))
        assert summary["players"] == len(player_ids)
        assert {p["player_id"] for p in summary["top_players"]} == set(player_ids)

    def test_corrupt_store_is_exit_one(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path, matches="2")
        out = tmp_path / "run"
        run_json(
            capsys, "replay", "--input", str(log), "--output-dir", str(out), "--system", "elo"
        )
        store = out / "rating_store.txt"
        store.write_text(store.read_text().replace("#seed=0", "#seed=x"))
        code, captured = run_cli(capsys, "inspect", "--input", str(store))
        assert code == 1
        assert f"{store}:3:" in captured.err

    def test_deeply_nested_params_are_exit_one(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path, matches="2")
        out = tmp_path / "run"
        run_json(
            capsys, "replay", "--input", str(log), "--output-dir", str(out), "--system", "elo"
        )
        store = out / "rating_store.txt"
        lines = store.read_text().splitlines(keepends=True)
        assert lines[4].startswith("#params=")
        lines[4] = "#params=" + "[" * 2000 + "]" * 2000 + "\n"
        store.write_text("".join(lines))
        code, captured = run_cli(capsys, "inspect", "--input", str(store))
        assert code == 1
        assert f"error: {store}:5: bad #params value '[[[" in captured.err
        assert "Traceback" not in captured.err

    def test_store_repeating_a_player_is_exit_one(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path, matches="2")
        out = tmp_path / "run"
        run_json(
            capsys, "replay", "--input", str(log), "--output-dir", str(out), "--system", "elo"
        )
        store = out / "rating_store.txt"
        lines = store.read_text().splitlines()
        store.write_text("\n".join(lines + [lines[-1]]) + "\n")
        code, captured = run_cli(capsys, "inspect", "--input", str(store))
        assert code == 1
        assert f"{store}:{len(lines) + 1}:" in captured.err

    @pytest.mark.parametrize("kind", ["log", "store"])
    def test_non_utf8_input_is_exit_one(self, capsys, tmp_path, kind):
        path = make_log(capsys, tmp_path, matches="2")
        if kind == "store":
            out = tmp_path / "run"
            run_json(
                capsys, "replay", "--input", str(path), "--output-dir", str(out), "--system", "elo"
            )
            # the magic line stays intact, so the store reader sees the byte
            path = out / "rating_store.txt"
            path.write_bytes(path.read_bytes() + b"\xff\t1.0\t-\t1\t1\n")
        else:
            path.write_bytes(b"\xff" + path.read_bytes())
        code, captured = run_cli(capsys, "inspect", "--input", str(path))
        assert code == 1
        assert f"error: {path}: not UTF-8 text" in captured.err

    def test_csv_field_over_the_size_limit_is_exit_one(self, capsys, tmp_path):
        path = make_log(capsys, tmp_path, matches="2")
        big = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        with path.open("a", encoding="utf-8") as handle:
            handle.write(f"m9,2020-05-01T12:00:00Z,t1,{big},1\n")
        code, captured = run_cli(capsys, "inspect", "--input", str(path))
        assert code == 1
        assert f"error: {path}:" in captured.err
        assert "unreadable CSV (field larger than field limit" in captured.err
        assert "Traceback" not in captured.err

    def test_inspect_writes_no_files(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path, matches="2")
        before = set(tmp_path.rglob("*"))
        run_json(capsys, "inspect", "--input", str(log))
        assert set(tmp_path.rglob("*")) == before


    def test_store_with_a_byte_order_mark_reads_like_its_twin(self, capsys, tmp_path):
        # "UTF-8 with BOM", as an editor may save the snapshot again
        log = make_log(capsys, tmp_path, matches="6")
        out = tmp_path / "run"
        run_json(
            capsys, "replay", "--input", str(log), "--output-dir", str(out),
            "--system", "glicko",
        )
        twin, marked = out / "rating_store.txt", tmp_path / "marked.txt"
        marked.write_bytes("\ufeff".encode() + twin.read_bytes())
        summaries = [
            run_json(capsys, "inspect", "--input", str(path)) | {"input": None}
            for path in (twin, marked)
        ]
        assert summaries[0]["kind"] == "rating_store"
        assert summaries[1] == summaries[0]
        assert RatingStore.load(marked) == RatingStore.load(twin)


SYNTH_ARGV = [
    "synth", "--players", "6", "--team-size", "2", "--teams", "3", "--matches", "3"
]


class TestOutputDirectory:
    """The output directory is made just before the first artifact is
    written, so a run that fails leaves none behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "--system", "elo"],
            ["experiment", "--setup", "all", "--system", "glicko"],
        ],
        ids=["replay", "experiment"],
    )
    def test_missing_input_leaves_no_directory(self, capsys, tmp_path, argv):
        out = tmp_path / "run"
        missing = str(tmp_path / "missing.csv")
        code, captured = run_cli(
            capsys, *argv, "--input", missing, "--output-dir", str(out)
        )
        assert code == 1
        assert captured.err.startswith("error: ")
        assert not out.exists()

    def test_failed_replay_leaves_no_directory(self, capsys, tmp_path):
        log = make_log(capsys, tmp_path, matches="4")
        out = tmp_path / "run"
        code, captured = run_cli(
            capsys, "replay", "--system", "elo", "--default-rating", "1e308",
            "--input", str(log), "--output-dir", str(out),
        )
        assert code == 1
        assert "elo prediction failed" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "--system", "elo"],
            ["experiment", "--setup", "all", "--system", "elo"],
        ],
        ids=["replay", "experiment"],
    )
    @pytest.mark.parametrize("older_run", [False, True], ids=["new", "older-run"])
    def test_failed_store_check_writes_nothing(self, capsys, tmp_path, argv, older_run):
        """A player id with a tab is a valid CSV field that the rating
        store cannot hold: the run fails before its first write."""
        log = make_log(capsys, tmp_path, matches="2")
        out = tmp_path / "run"
        if older_run:
            older = make_log(capsys, tmp_path, name="older", matches="3")
            run_json(capsys, *argv, "--input", str(older), "--output-dir", str(out))
        before = {p.name: p.read_bytes() for p in out.iterdir()} if older_run else None
        with open(log, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        rows[1][3] += "\tx"
        bad_log = tmp_path / "bad.csv"
        with open(bad_log, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        code, captured = run_cli(
            capsys, *argv, "--input", str(bad_log), "--output-dir", str(out)
        )
        assert code == 1
        assert captured.err == f"error: player id {rows[1][3]!r} cannot be snapshotted\n"
        if older_run:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--players", "3"], ["--skill-mean", "1.7e308"]],
        ids=["too-few-players", "overflowing-skill"],
    )
    def test_failed_synth_leaves_no_directory(self, capsys, tmp_path, flags):
        out = tmp_path / "gen"
        code, captured = run_cli(capsys, *SYNTH_ARGV, *flags, "--output-dir", str(out))
        assert code == 1
        assert captured.err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["nested", "existing"])
    def test_nested_or_existing_directory_is_used(self, capsys, tmp_path, existing):
        gen = tmp_path / "a" / "b" / "gen"
        run = tmp_path / "c" / "d" / "run"
        if existing:
            gen.mkdir(parents=True)
            run.mkdir(parents=True)
        run_json(capsys, *SYNTH_ARGV, "--output-dir", str(gen))
        assert {p.name for p in gen.iterdir()} == {
            "matches.csv", "latent_skills.csv", "run_summary.json"
        }
        log = str(gen / "matches.csv")
        run_json(
            capsys, "replay", "--system", "elo", "--input", log, "--output-dir", str(run)
        )
        assert {p.name for p in run.iterdir()} == {
            "per_match_metrics.csv", "rating_store.txt", "run_summary.json"
        }


def _float_flags():
    """(command, flag) for every float-valued flag; a flag that replay and
    experiment share is listed under replay only."""
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    seen = set()
    flags = []
    for command in ("replay", "experiment", "synth"):
        for action in commands[command]._actions:
            if action.type in (float, _finite_float):
                flag = action.option_strings[0]
                if flag not in seen:
                    seen.add(flag)
                    flags.append((command, flag))
    return flags


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _choices(command, dest):
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    (action,) = [a for a in commands[command]._actions if a.dest == dest]
    return action.choices


class TestParserReadsTheLibrary:
    @pytest.mark.parametrize("command", ["replay", "experiment"])
    def test_choices_are_the_library_constants(self, command):
        assert _choices(command, "member_share") == MEMBER_SHARES
        assert _choices(command, "position_index") == POSITION_INDICES


class TestNonFiniteFlags:
    def test_every_float_flag_is_checked_for_finiteness(self):
        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        untyped = [
            action.option_strings[0]
            for sub in commands.values()
            for action in sub._actions
            if action.type is float
        ]
        assert untyped == []
        assert len(_float_flags()) == 13

    @pytest.mark.parametrize("command, flag", _float_flags())
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_cleanly(
        self, capsys, tmp_path, command, flag, value
    ):
        log = make_log(capsys, tmp_path, matches="4")
        if command == "synth":
            runs = {"synth": ["synth", "--players", "30", "--matches", "4"]}
        else:
            setup = ["--setup", "best"] if command == "experiment" else []
            runs = {
                system: [command, *setup, "--system", system, "--input", str(log)]
                for system in SYSTEM_NAMES
            }
        for name, argv in runs.items():
            out = str(tmp_path / f"out-{name}")
            try:
                code = main([*argv, "--output-dir", out, f"{flag}={value}"])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert code in (1, 2), argv
            assert "Traceback" not in captured.err
        for path in tmp_path.rglob("*.json"):
            _strict_json(path.read_text(encoding="utf-8"))


class TestImportHeap:
    def test_import_leaves_only_later_objects_to_the_collector(self):
        # a fresh interpreter, so the counts are what importing the CLI leaves
        paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import gc, royale_ratings.cli; "
                "print(gc.get_freeze_count(), len(gc.get_objects()))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        frozen, tracked = map(int, done.stdout.split())
        assert frozen > 10 * tracked, (frozen, tracked)
