"""Every float flag of the rating systems, at values from zero and the
smallest subnormal to the largest double and past it, on a tiny duo log
and a tiny solo log: a run ends in exit code 0, 1 or 2, never a
traceback, and an error of code 1 is in the package's words, not
numpy's."""

from __future__ import annotations

import pytest

from royale_ratings.cli import _SYSTEM_FLAGS, main

VALUES = (
    "0", "-0.0", "-1", "5e-324", "1e-300", "1e-170", "1e-155", "1e-100",
    "1e100", "1e154", "1e200", "1e300", "1.7e308", "inf", "nan",
)
# (system, the flags that go with the swept one) under the swept flag's id
FLAGS = {
    flag: (system, [flag]) for flag, (system, field, _) in _SYSTEM_FLAGS.items()
    if field != "member_share"
}
FLAGS["--ts-mu-by-mu"] = ("trueskill", ["--member-share", "mu", "--ts-mu"])
# --team-size and --players of each log
LOGS = {"duo": ("2", "60"), "solo": ("1", "40")}


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    paths = {}
    for name, (team_size, players) in LOGS.items():
        out = tmp_path_factory.mktemp(name)
        code = main(
            [
                "synth", "--players", players, "--team-size", team_size,
                "--teams", "10", "--matches", "6", "--noise-spread", "1.0",
                "--seed", "3", "--output-dir", str(out),
            ]
        )
        assert code == 0
        paths[name] = out / "matches.csv"
    return paths


@pytest.mark.parametrize("log", sorted(LOGS))
@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_flag_value_ends_in_a_usable_exit(logs, capsys, tmp_path, flag, value, log):
    system, flags = FLAGS[flag]
    argv = [
        "replay", "--input", str(logs[log]), "--output-dir", str(tmp_path / "run"),
        "--system", system, *flags, value,
    ]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        assert "encountered in" not in err, err
