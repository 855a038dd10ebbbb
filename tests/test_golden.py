"""Byte-for-byte gate on every artifact the command line writes.

``tests/golden/matches.csv`` is a fixed synthetic log (``synth --players
40 --team-size 2 --teams 6 --matches 60 --noise-spread 1.0 --seed 3``).
Each run below replays it and must reproduce the frozen files under
``tests/golden/<run>/`` exactly: the per-match metrics, the rating store,
the trend and the run summary (minus its ``input`` and ``output_dir``,
which name the machine's paths).  A refactor that changes a single
output bit fails here.

The ``synth`` command that wrote the log is gated the same way: it must
reproduce ``tests/golden/matches.csv`` and the frozen files under
``tests/golden/synth/`` (the latent skills and the run summary minus its
``output_dir``).

Regenerate the files only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from royale_ratings.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
LOG = GOLDEN / "matches.csv"
SYNTH_ARGV = [
    "synth", "--players", "40", "--team-size", "2", "--teams", "6",
    "--matches", "60", "--noise-spread", "1.0", "--seed", "3",
]
COHORT_FLAGS = ["--min-games", "5", "--horizon", "5"]

RUNS = {
    **{
        f"replay_{system}": ["replay", "--system", system]
        for system in ("elo", "glicko", "trueskill", "prevrank")
    },
    "experiment_all_elo": ["experiment", "--setup", "all", "--system", "elo", *COHORT_FLAGS],
    "experiment_best_trueskill": [
        "experiment",
        "--setup",
        "best",
        "--system",
        "trueskill",
        "--conservative-k",
        "3",
        *COHORT_FLAGS,
    ],
    "experiment_frequent_glicko": [
        "experiment",
        "--setup",
        "frequent",
        "--system",
        "glicko",
        *COHORT_FLAGS,
    ],
}


def _artifacts(run: str, out: Path) -> dict[str, bytes]:
    """Run one command into ``out``; its comparable output files by name."""
    argv = RUNS[run] + ["--seed", "3", "--input", str(LOG), "--output-dir", str(out)]
    if main(argv) != 0:
        raise AssertionError(f"{run} failed")
    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    del summary["input"], summary["output_dir"]
    files = {
        name: (out / name).read_bytes()
        for name in summary["outputs"].values()
        if name != "run_summary.json"
    }
    files["run_summary.json"] = (
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    ).encode("utf-8")
    return files


def _synth_artifacts(out: Path) -> dict[str, bytes]:
    """Run the ``synth`` command that wrote the golden log into ``out``;
    its files by golden path, relative to ``GOLDEN``."""
    if main(SYNTH_ARGV + ["--output-dir", str(out)]) != 0:
        raise AssertionError("synth failed")
    summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
    del summary["output_dir"]
    return {
        LOG.name: (out / "matches.csv").read_bytes(),
        "synth/latent_skills.csv": (out / "latent_skills.csv").read_bytes(),
        "synth/run_summary.json": (
            json.dumps(summary, sort_keys=True, indent=2) + "\n"
        ).encode("utf-8"),
    }


def test_synth_matches_golden_bytes(tmp_path, capsys):
    produced = _synth_artifacts(tmp_path)
    capsys.readouterr()
    assert sorted(path.name for path in (GOLDEN / "synth").iterdir()) == [
        "latent_skills.csv",
        "run_summary.json",
    ]
    for name, data in produced.items():
        assert data == (GOLDEN / name).read_bytes(), f"synth {name} differs from golden"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_outputs_match_golden_bytes(run, tmp_path, capsys):
    produced = _artifacts(run, tmp_path)
    capsys.readouterr()
    expected = {path.name: path.read_bytes() for path in (GOLDEN / run).iterdir()}
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, f"{run}/{name} differs from the golden file"


if __name__ == "__main__":
    import tempfile

    (GOLDEN / "synth").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, data in _synth_artifacts(Path(scratch)).items():
            (GOLDEN / name).write_bytes(data)
    for run in RUNS:
        target = GOLDEN / run
        target.mkdir(exist_ok=True)
        for name, data in _artifacts(run, target).items():
            (target / name).write_bytes(data)
