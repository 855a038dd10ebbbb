"""Differential tests of the synthetic generator and its CSV writers.

``generate`` sums each match's team performances as one row sum over the
roster's latents laid out (teams x team_size); the reference sums every
team on its own, one numpy ``.sum()`` per team.  Drawn configs must give
equal records, equal layouts and equal latent tables.

``write_match_log`` and ``write_latent_skills`` join the lines of rows
that hold nothing to quote by hand and pass any others to
``csv.writer``; the reference writes every row through ``csv.writer``.
Logs that mix plain matches with ids holding commas, double quotes, CR,
LF, leading spaces and non-ASCII text must give the same bytes, and
``ingest`` must read the written log back to the same records.

The references are frozen copies of the code they replaced; never edit
them to make a test pass.
"""

from __future__ import annotations

import csv
from datetime import datetime, timedelta, timezone
from itertools import chain, repeat

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import build_match
from royale_ratings.replay import MATCH_LOG_COLUMNS, format_timestamp, ingest
from royale_ratings.synth import (
    SynthConfig,
    generate,
    write_latent_skills,
    write_match_log,
)

_EPOCH = datetime(2018, 1, 1, tzinfo=timezone.utc)


def reference_generate(config):
    rng = np.random.default_rng(config.seed)
    width = max(4, len(str(config.player_count - 1)))
    player_ids = [f"p{i:0{width}d}" for i in range(config.player_count)]
    latents = config.skill_mean + config.skill_spread * rng.standard_normal(
        config.player_count
    )

    n_teams = config.teams_per_match
    size = config.team_size
    team_ids = [f"t{k + 1:02d}" for k in range(n_teams)]
    spans = [slice(k * size, (k + 1) * size) for k in range(n_teams)]
    matches = []
    for m in range(config.match_count):
        chosen = rng.choice(config.player_count, size=n_teams * size, replace=False)
        performance = np.array(
            [latents[chosen[span]].sum() for span in spans]
        ) + config.noise_spread * rng.standard_normal(n_teams)
        # placements follow descending performance; stable order breaks the
        # measure-zero exact ties deterministically
        by_perf = np.argsort(-performance, kind="stable")
        placement = np.empty(n_teams, dtype=int)
        placement[by_perf] = np.arange(1, n_teams + 1)
        members = [player_ids[p] for p in chosen.tolist()]
        matches.append(
            build_match(
                f"m{m + 1:06d}",
                _EPOCH + timedelta(minutes=m),
                team_ids,
                [members[span] for span in spans],
                placement.tolist(),
            )
        )
    skills = {pid: float(s) for pid, s in zip(player_ids, latents)}
    return matches, skills


def reference_write_match_log(path, matches):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(MATCH_LOG_COLUMNS)
        for match in matches:
            sizes = match.sizes
            team_ids = chain.from_iterable(map(repeat, match.team_ids, sizes))
            ranks = chain.from_iterable(map(repeat, match.ranks, sizes))
            first = repeat(match.match_id), repeat(format_timestamp(match.timestamp))
            writer.writerows(zip(*first, team_ids, match.roster, ranks))


def reference_write_latent_skills(path, skills):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["player_id", "latent_skill"])
        for player_id in sorted(skills):
            writer.writerow([player_id, repr(skills[player_id])])


@st.composite
def configs(draw):
    size = draw(st.integers(1, 12))
    teams = draw(st.integers(2, 60))
    return SynthConfig(
        player_count=size * teams + draw(st.integers(0, 40)),
        team_size=size,
        teams_per_match=teams,
        match_count=draw(st.integers(1, 6)),
        skill_mean=draw(st.floats(-1e3, 1e3)),
        skill_spread=draw(st.floats(1e-3, 1e3)),
        noise_spread=draw(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 30.0])),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=150, deadline=None)
@given(configs())
def test_generate_matches_the_per_team_sums(config):
    matches, skills = generate(config)
    expected, expected_skills = reference_generate(config)
    assert matches == expected
    for got, want in zip(matches, expected):
        assert got.team_ids == want.team_ids
        assert got.ranks == want.ranks
        assert got.sizes == want.sizes
        assert got.roster == want.roster
    assert list(skills.items()) == list(expected_skills.items())


# each text needs quoting, or is plain but for a leading space or non-ASCII
AWKWARD = ["a,b", 'say "hi"', "cr\rid", "lf\nid", "crlf\r\nid", " lead", "é中🎲", '","']
IDS = st.text(
    st.sampled_from(["a", "7", " ", ",", '"', "\r", "\n", "é", "中"]), min_size=1, max_size=4
)


def _mixed_log() -> list:
    """Plain synthetic matches with awkward ids spliced into some of them."""
    plain, _ = generate(
        SynthConfig(
            player_count=40, team_size=2, teams_per_match=6, match_count=12, seed=5
        )
    )
    matches = []
    for m, match in enumerate(plain):
        team_ids, roster = list(match.team_ids), list(match.roster)
        match_id = match.match_id
        if m % 3 == 1:
            awkward = AWKWARD[m % len(AWKWARD)]
            match_id = f"{awkward}{m}"
            team_ids[m % 6] = awkward
            roster[m % 12] = f"{AWKWARD[(m + 1) % len(AWKWARD)]}{m}"
        rosters = [roster[k : k + 2] for k in range(0, 12, 2)]
        matches.append(
            build_match(match_id, match.timestamp, team_ids, rosters, match.ranks)
        )
    return matches


def test_mixed_log_matches_csv_writer(tmp_path):
    matches = _mixed_log()
    write_match_log(tmp_path / "got.csv", matches)
    reference_write_match_log(tmp_path / "want.csv", matches)
    written = (tmp_path / "got.csv").read_bytes()
    assert written == (tmp_path / "want.csv").read_bytes()
    assert b'"' in written  # some rows took the csv.writer path
    assert ingest(tmp_path / "got.csv") == matches


@st.composite
def logs(draw):
    """1-4 matches of 2-4 teams of 1-3 players whose ids mix plain and
    awkward text, a minute apart."""
    matches = []
    for m in range(draw(st.integers(1, 4))):
        n = draw(st.integers(2, 4))
        sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        team_ids = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
        players = sum(sizes)
        roster = iter(draw(st.lists(IDS, min_size=players, max_size=players, unique=True)))
        ranks = draw(st.permutations(range(1, n + 1)))
        matches.append(
            build_match(
                f"{draw(IDS)}#{m}",
                _EPOCH + timedelta(minutes=m, microseconds=draw(st.integers(0, 1))),
                team_ids,
                [[next(roster) for _ in range(size)] for size in sizes],
                ranks,
            )
        )
    return matches


@settings(max_examples=150, deadline=None)
@given(logs())
def test_drawn_log_matches_csv_writer(tmp_path_factory, matches):
    folder = tmp_path_factory.mktemp("log")
    write_match_log(folder / "got.csv", matches)
    reference_write_match_log(folder / "want.csv", matches)
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()
    assert ingest(folder / "got.csv") == matches


def test_latent_table_matches_csv_writer(tmp_path):
    # more rows than one joined run, and awkward ids in the middle of one
    _, skills = generate(
        SynthConfig(
            player_count=9000, team_size=1, teams_per_match=2, match_count=1, seed=2
        )
    )
    skills.update({f"p5{text}": -0.0 for text in AWKWARD})
    skills["p8999x"] = float("inf")
    write_latent_skills(tmp_path / "got.csv", skills)
    reference_write_latent_skills(tmp_path / "want.csv", skills)
    written = (tmp_path / "got.csv").read_bytes()
    assert written == (tmp_path / "want.csv").read_bytes()
    assert b'"' in written


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(IDS, st.floats(allow_nan=False), max_size=8))
def test_drawn_latent_table_matches_csv_writer(tmp_path_factory, skills):
    folder = tmp_path_factory.mktemp("skills")
    write_latent_skills(folder / "got.csv", skills)
    reference_write_latent_skills(folder / "want.csv", skills)
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()
