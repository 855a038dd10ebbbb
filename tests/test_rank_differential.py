"""Exact differential test of ``rank_teams_by_score`` against the
dict-of-groups version it replaced.

The oracle below is the earlier code kept verbatim: it groups the teams
by score in a dict, walks the distinct scores in descending order and
shuffles each group of two or more with one ``random.Random(rng_seed)``.
The production version sorts once and shuffles the runs of equal
scores; the order, the tie groups and every error must come out the
same, so the RNG draws must too.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import (
    DataError,
    DomainError,
    PredictedRanking,
    rank_teams_by_score,
)


def reference_rank_teams_by_score(
    scores: list[tuple[str, float]], rng_seed: int
) -> PredictedRanking:
    if not scores:
        raise DomainError("scores must be non-empty")
    ids = [tid for tid, _ in scores]
    if len(set(ids)) != len(ids):
        raise DomainError("duplicate team_id in scores")
    for tid, value in scores:
        if not math.isfinite(value):
            raise DataError(f"team {tid!r} has non-finite score {value!r}")

    groups: dict[float, list[str]] = {}
    for tid, value in scores:
        groups.setdefault(value, []).append(tid)

    rng = random.Random(rng_seed)
    order: list[str] = []
    tie_groups: list[tuple[str, ...]] = []
    for value in sorted(groups, reverse=True):
        members = groups[value]
        if len(members) > 1:
            tie_groups.append(tuple(sorted(members)))
            rng.shuffle(members)
        order.extend(members)
    return PredictedRanking(
        order=tuple(order), tie_groups=tuple(tie_groups), seed_used=rng_seed
    )


# a small pool makes ties common; 0.0 and -0.0 are equal scores
TIED_SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e300])
SCORES = (
    TIED_SCORES
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([math.nan, math.inf, -math.inf])
)
TEAM_IDS = st.text(alphabet="abcT0", min_size=1, max_size=3)


def outcome(rank, scores, seed):
    try:
        return rank(scores, seed)
    except (DomainError, DataError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    scores=st.lists(st.tuples(TEAM_IDS, SCORES), max_size=40),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_matches_the_dict_of_groups_reference(scores, seed):
    assert outcome(rank_teams_by_score, scores, seed) == outcome(
        reference_rank_teams_by_score, scores, seed
    )


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(TIED_SCORES, min_size=1, max_size=100),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
def test_tied_runs_shuffle_like_the_reference(values, seed):
    scores = [(f"t{i}", value) for i, value in enumerate(values)]
    assert rank_teams_by_score(scores, seed) == reference_rank_teams_by_score(
        scores, seed
    )


@pytest.mark.parametrize("seed", range(20))
def test_signed_zeros_form_one_tie_group(seed):
    scores = [("a", 0.0), ("b", -0.0), ("c", 1.0), ("d", -0.0)]
    ranking = rank_teams_by_score(scores, seed)
    assert ranking == reference_rank_teams_by_score(scores, seed)
    assert ranking.tie_groups == (("a", "b", "d"),)
    assert ranking.order[0] == "c"
