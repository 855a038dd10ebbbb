from __future__ import annotations

import math

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
    rank_pairs,
    score_match,
)

from conftest import quick_match


def pairs_from(predicted: list[int], observed: list[int]) -> list[tuple[str, int, int]]:
    return [(f"t{i}", p, o) for i, (p, o) in enumerate(zip(predicted, observed))]


def quadratic_tau(pairs) -> float:
    """O(N^2) sign-product reference for tau-a."""
    n = len(pairs)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            sign = (pairs[i][1] - pairs[j][1]) * (pairs[i][2] - pairs[j][2])
            if sign > 0:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / math.comb(n, 2)


@st.composite
def permutation_pairs(draw, max_n: int = 12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    predicted = draw(st.permutations(range(1, n + 1)))
    observed = draw(st.permutations(range(1, n + 1)))
    return pairs_from(list(predicted), list(observed))


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(pairs_from([1, 2, 3], [1, 2, 3])) == 1.0

    def test_two_team_reversal(self):
        assert accuracy(pairs_from([1, 2], [2, 1])) == 0.0

    def test_single_swap_of_four(self):
        assert accuracy(pairs_from([1, 2, 3, 4], [1, 2, 4, 3])) == 0.5

    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError):
            accuracy([("a", 1, 1), ("b", 1, 2)])
        with pytest.raises(DomainError):
            accuracy([("a", 1, 1), ("b", 2, 3)])
        with pytest.raises(DomainError):
            accuracy([("a", 1, 1)])


class TestMae:
    def test_full_reversal_of_three(self):
        assert mae(pairs_from([1, 2, 3], [3, 2, 1])) == pytest.approx(4 / 3, abs=0)

    def test_zero_iff_perfect(self):
        assert mae(pairs_from([2, 1], [2, 1])) == 0.0
        assert mae(pairs_from([1, 2], [2, 1])) == 1.0


class TestKendallTau:
    def test_perfect_and_reversed(self):
        assert kendall_tau(pairs_from([1, 2, 3, 4], [1, 2, 3, 4])) == 1.0
        assert kendall_tau(pairs_from([1, 2, 3, 4], [4, 3, 2, 1])) == -1.0

    def test_one_discordant_pair_of_three(self):
        assert kendall_tau(pairs_from([1, 2, 3], [1, 3, 2])) == pytest.approx(1 / 3)

    def test_adjacent_swap_of_four(self):
        assert kendall_tau(pairs_from([1, 2, 3, 4], [2, 1, 3, 4])) == pytest.approx(
            4 / 6
        )

    @given(permutation_pairs(max_n=60))
    @settings(max_examples=300)
    def test_matches_quadratic_reference(self, pairs):
        assert kendall_tau(pairs) == pytest.approx(quadratic_tau(pairs), abs=1e-14)

    @given(permutation_pairs())
    def test_antisymmetric_under_observed_reversal(self, pairs):
        n = len(pairs)
        reversed_obs = [(tid, p, n + 1 - o) for tid, p, o in pairs]
        assert kendall_tau(reversed_obs) == pytest.approx(-kendall_tau(pairs))


class TestMrr:
    def test_errors_zero_one_two(self):
        # errors (0, 1, 2) -> (1 + 1/2 + 1/3) / 3
        pairs = pairs_from([1, 3, 2], [1, 2, 3])
        got = sorted(abs(p - o) for _, p, o in pairs)
        assert got == [0, 1, 1]  # permutations cannot give (0,1,2); use direct value
        assert mrr(pairs) == pytest.approx((1 + 0.5 + 0.5) / 3)

    def test_worst_case_two_teams(self):
        assert mrr(pairs_from([1, 2], [2, 1])) == 0.5

    @given(permutation_pairs())
    def test_bounded_in_unit_interval(self, pairs):
        value = mrr(pairs)
        assert 0.0 < value <= 1.0


class TestAveragePrecision:
    def test_hit_only_at_the_top(self):
        # observed positions 1..3 hold errors (0, 1, 1)
        pairs = pairs_from([1, 3, 2], [1, 2, 3])
        expected = (1.0 * 1.0 + (1 / 2) * (1 / 2) + (1 / 3) * (1 / 2)) / 3
        assert average_precision(pairs) == pytest.approx(expected, abs=1e-15)

    def test_no_exact_hit_gives_zero(self):
        assert average_precision(pairs_from([1, 2], [2, 1])) == 0.0

    def test_perfect_is_one(self):
        assert average_precision(pairs_from([1, 2, 3], [1, 2, 3])) == 1.0

    def test_position_conventions_disagree_in_general(self):
        # a hit at the top, then unequal errors placed differently by the
        # two conventions
        pairs = pairs_from([1, 3, 4, 2], [1, 2, 3, 4])
        by_observed = average_precision(pairs, "observed")
        by_predicted = average_precision(pairs, "predicted")
        assert by_observed == pytest.approx(0.375, abs=1e-15)
        assert by_predicted == pytest.approx(35 / 96, abs=1e-12)
        assert by_observed != by_predicted

    def test_unknown_convention_rejected(self):
        with pytest.raises(DomainError):
            average_precision(pairs_from([1, 2], [1, 2]), "alphabetical")


class TestNdcg:
    def test_perfect_is_one(self):
        assert ndcg(pairs_from([1, 2, 3], [1, 2, 3])) == 1.0

    def test_hand_computed_three_teams(self):
        pairs = pairs_from([1, 3, 2], [1, 2, 3])
        dcg = 1.0 / math.log2(2) + 0.5 / math.log2(3) + 0.5 / math.log2(4)
        idcg = 1 / math.log2(2) + 1 / math.log2(3) + 1 / math.log2(4)
        assert ndcg(pairs) == pytest.approx(dcg / idcg, abs=1e-15)

    def test_error_later_hurts_less(self):
        # same errors {1, 1, 0}; paying them at observed positions (2, 3)
        # beats paying them at positions (1, 2)
        early = pairs_from([2, 1, 3], [1, 2, 3])
        late = pairs_from([1, 3, 2], [1, 2, 3])
        assert ndcg(late) > ndcg(early)

    @given(permutation_pairs())
    def test_bounded_and_positive(self, pairs):
        value = ndcg(pairs)
        assert 0.0 < value <= 1.0


class TestScoreMatch:
    def test_perfection_is_equivalent_across_metrics(self):
        report = score_match(pairs_from([3, 1, 2, 4], [3, 1, 2, 4]))
        assert report.accuracy == 1.0
        assert report.mae == 0.0
        assert report.kendall_tau == 1.0
        assert report.mrr == 1.0
        assert report.ap == 1.0
        assert report.ndcg == 1.0
        assert report.team_count == 4

    @given(permutation_pairs())
    def test_any_imperfection_shows_everywhere(self, pairs):
        report = score_match(pairs)
        perfect = all(p == o for _, p, o in pairs)
        flags = [
            report.accuracy == 1.0,
            report.mae == 0.0,
            report.mrr == 1.0,
            report.ndcg == 1.0,
            report.kendall_tau == 1.0,
        ]
        assert all(flags) if perfect else not any(flags)

    def test_as_dict_lists_all_six(self):
        report = score_match(pairs_from([1, 2], [1, 2]))
        assert set(report.as_dict()) == {
            "accuracy",
            "mae",
            "kendall_tau",
            "mrr",
            "ap",
            "ndcg",
        }


class TestRankPairs:
    def test_pairs_up_prediction_and_outcome(self):
        match = quick_match([2, 1, 3])
        ranking_scores = [("t1", 5.0), ("t2", 9.0), ("t3", 1.0)]
        from royale_ratings.core import rank_teams_by_score

        ranking = rank_teams_by_score(ranking_scores, 0)
        pairs = rank_pairs(ranking, match)
        assert pairs == [("t1", 2, 2), ("t2", 1, 1), ("t3", 3, 3)]

    def test_mismatched_teams_rejected(self):
        from royale_ratings.core import rank_teams_by_score

        match = quick_match([1, 2])
        ranking = rank_teams_by_score([("x", 1.0), ("y", 0.0)], 0)
        with pytest.raises(DomainError):
            rank_pairs(ranking, match)
