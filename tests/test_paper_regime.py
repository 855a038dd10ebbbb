"""The paper's regime on synthetic data.

``L6`` is the paper's duo shape (48 teams of 2, 20,000 players, 5000
matches) with ``noise_spread=6.0``, where a prediction is close to
random, as on the real duo dataset.  Each system's last all-players
point (window 500, seed 0) must fall within the tolerances that
acceptance criteria 10 to 13 apply to that dataset.  A predictor that
ignores ratings meets those too: one that scores every team 0, so the
seeded tie-break shuffles the whole match, reads accuracy 0.0215, MAE
16.02, MRR 0.128 and AP 0.0046 there.  So each system's Kendall tau must
also exceed ``MIN_TAU``, which that predictor's -0.0038 to 0.0013 at
seeds 0 to 4 does not reach, and the systems' 0.023 to 0.10 do.  This
checks the whole pipeline in the paper's regime; it does not stand in
for those criteria, which stay skipped without the dataset.
"""

from __future__ import annotations

import pytest

from royale_ratings.replay import setup_all_players
from royale_ratings.synth import SynthConfig, generate
from royale_ratings.systems import SYSTEM_NAMES, make_system

L6 = SynthConfig(
    player_count=20000,
    team_size=2,
    teams_per_match=48,
    match_count=5000,
    noise_spread=6.0,
    seed=1,
)

# metric -> (target, absolute tolerance) of criteria 10 to 13
CRITERIA = {
    "accuracy": (0.025, 0.01),
    "mae": (14.5, 2.0),
    "mrr": (0.14, 0.03),
    "ap": (0.0055, 0.004),
}
# a bound that a predictor ignoring ratings cannot meet
MIN_TAU = 0.015


@pytest.fixture(scope="module")
def l6_matches():
    return generate(L6)[0]


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_last_point_within_the_dataset_tolerances(l6_matches, name):
    trend, _ = setup_all_players(l6_matches, make_system(name), seed=0, window=500)
    last = trend.points[-1]
    assert last.position_index == L6.match_count
    for metric, (target, tolerance) in CRITERIA.items():
        value = getattr(last, metric)
        assert value == pytest.approx(target, abs=tolerance), f"{name} {metric}: {value}"
    assert last.kendall_tau > MIN_TAU, f"{name} kendall_tau: {last.kendall_tau}"
