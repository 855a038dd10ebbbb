"""The public kernel calls of Elo, Glicko and TrueSkill, and each
system's ``update_match`` on a two-team solo match, at team means and
deviations from zero and the smallest subnormal to the largest double:
each call returns finite values or raises a ``RatingsError`` in the
package's words, never numpy's, and a failed update leaves its state
as it was.  The values are the flag sweep's finite ones."""

from __future__ import annotations

import math

import numpy as np
import pytest

from royale_ratings import elo, glicko, trueskill
from royale_ratings.core import PlayerRating, RatingsError
from royale_ratings.systems import left_sum, make_system, squares

from conftest import quick_match
from test_flag_sweep import VALUES

FINITE = [float(value) for value in VALUES if math.isfinite(float(value))]
# each finite value with both signs: a mean pair is any two of them
MEANS = sorted({sign * value for value in FINITE for sign in (1.0, -1.0)})
# every finite value, including those no sigma may take
DEVIATIONS = sorted(set(FINITE))
POSITIVE = [value for value in DEVIATIONS if value > 0]
# numpy's words, and TrueSkill's x blamed for a rating gap
BANNED = ("encountered in", "x must be finite")


def outcome(call, *args):
    """``call(*args)``, or None when it raised a RatingsError in the
    package's words; a result other than None must be all finite."""
    try:
        result = call(*args)
    except RatingsError as exc:
        assert not any(words in str(exc) for words in BANNED), (args, exc)
        return None
    if result is not None:
        assert np.isfinite(np.asarray(result, dtype=np.float64)).all(), (args, result)
    return result


def update_pair(winner, loser):
    """``trueskill.update_pair``, or None for its documented OverflowError."""
    params = trueskill.TrueSkillParams()
    try:
        return trueskill.update_pair(winner, loser, params)
    except OverflowError:
        # documented for c^2 = 2 beta^2 + sigma_w^2 + sigma_l^2 past the
        # largest double, whichever of its terms overflows first
        c_sq = 2.0 * params.beta**2 + left_sum(squares([winner[1], loser[1]]))
        assert c_sq == math.inf, (winner, loser)
        return None


def update_mus(system, state, match):
    """Every member's mu after ``system.update_match``."""
    system.update_match(state, match, 0)
    return [rating.mu for rating in state.values()]


@pytest.mark.parametrize("first", MEANS)
def test_public_calls(first):
    for mus in [(first, second) for second in MEANS]:
        outcome(elo.win_probabilities, list(mus), elo.EloParams())
        for sigma_a in DEVIATIONS:
            for sigma_b in (sigma_a, 1.0):
                sigmas = [sigma_a, sigma_b]
                outcome(
                    glicko.win_probabilities, list(mus), sigmas, glicko.GlickoParams()
                )
                outcome(update_pair, (mus[0], sigma_a), (mus[1], sigma_b))


@pytest.mark.parametrize("name", ["elo", "glicko", "trueskill"])
@pytest.mark.parametrize("first", MEANS)
def test_update_match_on_two_solo_teams(name, first):
    system = make_system(name)
    match = quick_match([2, 1])
    players = match.players()
    for mus in [(first, second) for second in MEANS]:
        for sigma in POSITIVE if name != "elo" else [None]:
            state = {
                player: PlayerRating(mu, sigma) for player, mu in zip(players, mus)
            }
            before = dict(state)
            if outcome(update_mus, system, state, match) is None:
                assert state == before, (mus, sigma)
