from __future__ import annotations

import math

import pytest

from royale_ratings.core import DomainError
from royale_ratings.replay import ingest
from royale_ratings.synth import SynthConfig, generate, write_match_log


def small_config(**overrides):
    base = dict(
        player_count=60,
        team_size=2,
        teams_per_match=10,
        match_count=25,
        seed=42,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_roster_must_fit_the_player_pool(self):
        with pytest.raises(DomainError):
            SynthConfig(
                player_count=19, team_size=2, teams_per_match=10, match_count=1
            )

    def test_positive_counts_required(self):
        with pytest.raises(DomainError):
            small_config(match_count=0)
        with pytest.raises(DomainError):
            small_config(team_size=0)
        with pytest.raises(DomainError):
            small_config(teams_per_match=1)

    def test_spread_signs(self):
        with pytest.raises(DomainError):
            small_config(skill_spread=0.0)
        with pytest.raises(DomainError):
            small_config(noise_spread=-1.0)
        small_config(noise_spread=0.0)  # boundary is allowed

    @pytest.mark.parametrize("field", ["skill_mean", "skill_spread", "noise_spread"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_are_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            small_config(**{field: value})

    def test_negative_seed_is_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            small_config(seed=-1)
        small_config(seed=0)  # boundary is allowed


class TestGeneration:
    def test_same_seed_reproduces_everything(self):
        a_matches, a_skills = generate(small_config())
        b_matches, b_skills = generate(small_config())
        assert a_skills == b_skills
        assert a_matches == b_matches

    def test_different_seed_differs(self):
        a_matches, _ = generate(small_config())
        b_matches, _ = generate(small_config(seed=43))
        assert a_matches != b_matches

    def test_shapes_and_ids(self):
        matches, skills = generate(small_config())
        assert len(matches) == 25
        assert len(skills) == 60
        assert set(skills) == {f"p{i:04d}" for i in range(60)}
        for match in matches:
            assert match.team_count == 10
            assert all(len(t.members) == 2 for t in match.teams)
            roster = match.players()
            assert len(roster) == len(set(roster)) == 20

    def test_timestamps_strictly_increase(self):
        matches, _ = generate(small_config())
        stamps = [m.timestamp for m in matches]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_zero_noise_placements_follow_latent_sums(self):
        matches, skills = generate(small_config(noise_spread=0.0))
        for match in matches:
            totals = {
                t.team_id: sum(skills[p] for p in t.members) for t in match.teams
            }
            by_rank = sorted(match.teams, key=lambda t: t.observed_rank)
            sums = [totals[t.team_id] for t in by_rank]
            assert all(a >= b for a, b in zip(sums, sums[1:]))

    def test_noise_can_flip_placements(self):
        quiet, skills = generate(small_config(noise_spread=0.0))
        noisy, _ = generate(small_config(noise_spread=50.0))
        flips = 0
        for match in noisy:
            totals = {
                t.team_id: sum(skills[p] for p in t.members) for t in match.teams
            }
            by_rank = sorted(match.teams, key=lambda t: t.observed_rank)
            sums = [totals[t.team_id] for t in by_rank]
            flips += sum(a < b for a, b in zip(sums, sums[1:]))
        assert flips > 0

    def test_placements_are_a_permutation(self):
        matches, _ = generate(small_config(noise_spread=3.0))
        for match in matches:
            ranks = sorted(t.observed_rank for t in match.teams)
            assert ranks == list(range(1, 11))


class TestRoundTrip:
    def test_written_log_ingests_to_the_same_matches(self, tmp_path):
        matches, _ = generate(small_config())
        path = tmp_path / "matches.csv"
        write_match_log(path, matches)
        recovered = ingest(path)
        assert recovered == matches

    def test_header_and_row_count(self, tmp_path):
        matches, _ = generate(small_config(match_count=3))
        path = tmp_path / "matches.csv"
        write_match_log(path, matches)
        lines = path.read_text().splitlines()
        assert lines[0] == "match_id,timestamp,team_id,player_id,team_placement"
        assert len(lines) == 1 + 3 * 20
