"""The integer lower bounds of the set-ups, the synthetic generator,
result normalization, the previous-rank baseline and Glicko's g, which
``core.require_at_least`` checks: each error's type and full text, and,
where one call checks several values, which one is named."""

from __future__ import annotations

import pytest

from royale_ratings.core import DomainError, normalized_result
from royale_ratings.elo import EloSystem
from royale_ratings.glicko import g_weight
from royale_ratings.prevrank import player_prev_rank
from royale_ratings.replay import (
    setup_all_players,
    setup_best_players,
    setup_frequent_players,
)
from royale_ratings.synth import SynthConfig

CASES = {
    "window": (
        lambda: setup_all_players([], EloSystem(), window=0),
        "window must be >= 1, got 0",
    ),
    "top_k": (
        lambda: setup_best_players([], EloSystem(), top_k=-1),
        "top_k must be >= 1, got -1",
    ),
    "top_k-before-horizon": (
        lambda: setup_best_players([], EloSystem(), top_k=0, horizon=0),
        "top_k must be >= 1, got 0",
    ),
    "best-horizon": (
        lambda: setup_best_players([], EloSystem(), horizon=0),
        "horizon must be >= 1, got 0",
    ),
    "frequent-horizon": (
        lambda: setup_frequent_players([], EloSystem(), horizon=0),
        "horizon must be >= 1, got 0",
    ),
    "synth-team_size": (
        lambda: SynthConfig(player_count=20, team_size=0),
        "team_size must be >= 1, got 0",
    ),
    "synth-teams_per_match": (
        lambda: SynthConfig(player_count=20, teams_per_match=1),
        "teams_per_match must be >= 2, got 1",
    ),
    "synth-match_count": (
        lambda: SynthConfig(player_count=20, match_count=0),
        "match_count must be >= 1, got 0",
    ),
    "synth-seed": (
        lambda: SynthConfig(player_count=20, seed=-1),
        "seed must be >= 0, got -1",
    ),
    "synth-team_size-first": (
        lambda: SynthConfig(player_count=20, team_size=0, teams_per_match=1, seed=-1),
        "team_size must be >= 1, got 0",
    ),
    "normalized_result": (
        lambda: normalized_result(1, 1),
        "team_count must be >= 2, got 1",
    ),
    "player_prev_rank": (
        lambda: player_prev_rank({}, "p", 1),
        "team_count must be >= 2, got 1",
    ),
    "g_weight": (lambda: g_weight(-1.0), "sigma must be >= 0, got -1.0"),
}


@pytest.mark.parametrize("call, text", CASES.values(), ids=CASES)
def test_bound_error_type_and_text(call, text):
    with pytest.raises(DomainError) as raised:
        call()
    assert type(raised.value) is DomainError
    assert str(raised.value) == text

