"""Exact differential test of ``score_match`` against the per-function
metric implementations it replaced.

The oracle below is the earlier code kept verbatim: every function
validates its own pairs, Kendall counts inversions with a merge sort,
and AP and NDCG each sort the teams into positions.  Every field must be
equal with ``==``, so any change to the order of float operations shows.
"""

from __future__ import annotations

import math
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royale_ratings.core import DomainError
from royale_ratings.metrics import (
    accuracy,
    average_precision,
    kendall_tau,
    mae,
    mrr,
    ndcg,
    score_match,
)
from royale_ratings.systems import left_sum

RankPair = tuple[str, int, int]

_POSITION_INDICES = ("observed", "predicted")
_OTHER_INDEX = {"observed": "predicted", "predicted": "observed"}


def _validate(pairs: Sequence[RankPair]) -> int:
    n = len(pairs)
    if n < 2:
        raise DomainError(f"need >= 2 teams to score, got {n}")
    full = list(range(1, n + 1))
    if sorted(p for _, p, _ in pairs) != full:
        raise DomainError("predicted ranks are not a permutation of 1..N")
    if sorted(o for _, _, o in pairs) != full:
        raise DomainError("observed ranks are not a permutation of 1..N")
    return n


def oracle_accuracy(pairs: Sequence[RankPair]) -> float:
    n = _validate(pairs)
    return sum(1 for _, p, o in pairs if p == o) / n


def oracle_mae(pairs: Sequence[RankPair]) -> float:
    n = _validate(pairs)
    return sum(abs(p - o) for _, p, o in pairs) / n


def _count_inversions(seq: list[int]) -> int:
    """Inversions via merge sort, O(N log N)."""
    if len(seq) <= 1:
        return 0
    mid = len(seq) // 2
    left, right = seq[:mid], seq[mid:]
    count = _count_inversions(left) + _count_inversions(right)
    merged: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            count += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    seq[:] = merged
    return count


def oracle_kendall_tau(pairs: Sequence[RankPair]) -> float:
    n = _validate(pairs)
    observed_in_predicted_order = [
        o for _, _, o in sorted(pairs, key=lambda pair: pair[1])
    ]
    inversions = _count_inversions(observed_in_predicted_order)
    total = n * (n - 1) // 2
    return (total - 2 * inversions) / total


def oracle_mrr(pairs: Sequence[RankPair]) -> float:
    n = _validate(pairs)
    return left_sum(1.0 / (1 + abs(p - o)) for _, p, o in pairs) / n


def _errors_by_position(pairs: Sequence[RankPair], position_index: str) -> list[int]:
    if position_index not in _POSITION_INDICES:
        raise DomainError(
            f"position_index must be one of {_POSITION_INDICES}, got {position_index!r}"
        )
    key = 2 if position_index == "observed" else 1
    ordered = sorted(pairs, key=lambda pair: pair[key])
    return [abs(p - o) for _, p, o in ordered]


def oracle_average_precision(
    pairs: Sequence[RankPair], position_index: str = "observed"
) -> float:
    n = _validate(pairs)
    errors = _errors_by_position(pairs, position_index)
    hits = 0
    total = 0.0
    for i, err in enumerate(errors, start=1):
        if err == 0:
            hits += 1
        total += (hits / i) * (1.0 / (1 + err))
    return total / n


def oracle_ndcg(
    pairs: Sequence[RankPair],
    weight_base: float = 2.0,
    position_index: str = "observed",
) -> float:
    if not weight_base > 1:
        raise DomainError(f"weight_base must be > 1, got {weight_base}")
    _validate(pairs)
    errors = _errors_by_position(pairs, position_index)
    dcg = 0.0
    ideal = 0.0
    for i, err in enumerate(errors, start=1):
        weight = 1.0 / math.log(i + 1, weight_base)
        dcg += weight * (1.0 / (1 + err))
        ideal += weight
    return dcg / ideal


@st.composite
def permutation_pairs(draw, max_n: int = 100):
    n = draw(st.integers(min_value=2, max_value=max_n))
    predicted = draw(st.permutations(range(1, n + 1)))
    observed = draw(st.permutations(range(1, n + 1)))
    # team ids out of rank order, so input order matters for MRR's sum
    return [(f"t{i}", p, o) for i, (p, o) in enumerate(zip(predicted, observed))]


@pytest.mark.parametrize("position_index", _POSITION_INDICES)
@given(pairs=permutation_pairs())
@settings(max_examples=200, deadline=None)
def test_score_match_equals_the_oracle_exactly(pairs, position_index):
    report = score_match(pairs, position_index=position_index)
    assert report.accuracy == oracle_accuracy(pairs)
    assert report.mae == oracle_mae(pairs)
    assert report.kendall_tau == oracle_kendall_tau(pairs)
    assert report.mrr == oracle_mrr(pairs)
    assert report.ap == oracle_average_precision(pairs, position_index)
    assert report.ndcg == oracle_ndcg(pairs, 2.0, position_index)
    assert report.team_count == len(pairs)
    other = score_match(pairs, position_index=_OTHER_INDEX[position_index])
    assert (report.alt_ap, report.alt_ndcg) == (other.ap, other.ndcg)


@pytest.mark.parametrize("position_index", _POSITION_INDICES)
@given(pairs=permutation_pairs())
@settings(max_examples=50, deadline=None)
def test_single_metric_functions_equal_the_oracle_exactly(pairs, position_index):
    assert accuracy(pairs) == oracle_accuracy(pairs)
    assert mae(pairs) == oracle_mae(pairs)
    assert kendall_tau(pairs) == oracle_kendall_tau(pairs)
    assert mrr(pairs) == oracle_mrr(pairs)
    assert average_precision(pairs, position_index) == oracle_average_precision(
        pairs, position_index
    )
    assert ndcg(pairs, position_index) == oracle_ndcg(pairs, 2.0, position_index)


@pytest.mark.parametrize("n", [2, 48, 100])
@pytest.mark.parametrize("position_index", _POSITION_INDICES)
def test_full_reversal_equals_the_oracle_exactly(n, position_index):
    pairs = [(f"t{r}", r, n + 1 - r) for r in range(1, n + 1)]
    report = score_match(pairs, position_index=position_index)
    assert report.kendall_tau == oracle_kendall_tau(pairs) == -1.0
    assert report.ndcg == oracle_ndcg(pairs, 2.0, position_index)
    assert report.ap == oracle_average_precision(pairs, position_index) == 0.0
