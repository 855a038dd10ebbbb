"""Per-match rank-prediction metrics.

All six metrics score one match: N teams, a predicted rank and an
observed rank per team, both strict permutations of 1..N.  The
per-team error is e_i = |predicted - observed|.

accuracy       fraction of exact hits (e_i = 0)
mae            mean absolute rank error
kendall_tau    tau-a, (concordant - discordant) / C(N, 2)
mrr            mean reciprocal rank, mean of 1 / (1 + e_i)
ap             average precision with graded relevance 1 / (1 + e_i)
ndcg           discounted cumulative gain against the ideal prefix, with
               positional weight 1 / log2(i + 1)

AP and NDCG walk leaderboard positions i = 1..N.  By default position i
is the team that actually finished i-th (``position_index="observed"``);
``"predicted"`` walks the predicted leaderboard instead.  Both are
reported by the harness summaries since the two conventions disagree on
imperfect predictions.

``score_match`` computes all six in one pass over the teams and one walk
over the positions; each single-metric function reads its field.  The
same walk scores AP and NDCG under the other convention too, kept in
``alt_ap`` and ``alt_ndcg`` (not in ``as_dict``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, MatchRecord, PredictedRanking

__all__ = [
    "RankPair",
    "MetricReport",
    "rank_pairs",
    "accuracy",
    "mae",
    "kendall_tau",
    "mrr",
    "average_precision",
    "ndcg",
    "score_match",
    "METRIC_NAMES",
]

# (team_id, predicted_rank, observed_rank)
RankPair = tuple[str, int, int]

METRIC_NAMES = ("accuracy", "mae", "kendall_tau", "mrr", "ap", "ndcg")

_POSITION_INDICES = ("observed", "predicted")


@dataclass(frozen=True, slots=True)
class MetricReport:
    accuracy: float
    mae: float
    kendall_tau: float
    mrr: float
    ap: float
    ndcg: float
    team_count: int
    # AP and NDCG under the position convention score_match was not asked for
    alt_ap: float
    alt_ndcg: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def rank_pairs(ranking: PredictedRanking, match: MatchRecord) -> list[RankPair]:
    """Pair up predicted and observed ranks for one match's teams."""
    predicted = ranking.ranks
    missing = [t.team_id for t in match.teams if t.team_id not in predicted]
    if missing or len(ranking.order) != match.team_count:
        raise DomainError(
            f"match {match.match_id!r}: prediction does not cover its teams"
        )
    return [
        (t.team_id, predicted[t.team_id], t.observed_rank) for t in match.teams
    ]


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


def accuracy(pairs: Sequence[RankPair]) -> float:
    """Fraction of teams whose rank was predicted exactly."""
    return score_match(pairs).accuracy


def mae(pairs: Sequence[RankPair]) -> float:
    """Mean absolute rank error; 0 iff the prediction is perfect."""
    return score_match(pairs).mae


def kendall_tau(pairs: Sequence[RankPair]) -> float:
    """Kendall tau-a between the two permutations, in [-1, 1]."""
    return score_match(pairs).kendall_tau


def mrr(pairs: Sequence[RankPair]) -> float:
    """Mean reciprocal rank with reciprocal 1 / (1 + |error|), in (0, 1]."""
    return score_match(pairs).mrr


def average_precision(
    pairs: Sequence[RankPair], position_index: str = "observed"
) -> float:
    """AP with prefix precision P(i) = exact hits in positions 1..i over i
    and graded relevance 1 / (1 + e_i); 0 when nothing was hit exactly."""
    return score_match(pairs, position_index=position_index).ap


def ndcg(pairs: Sequence[RankPair], position_index: str = "observed") -> float:
    """Normalized DCG with relevance 1 / (1 + e_i) and positional weight
    1 / log2(i + 1), in (0, 1], 1 iff perfect."""
    return score_match(pairs, position_index=position_index).ndcg


def score_match(
    pairs: Sequence[RankPair], *, position_index: str = "observed"
) -> MetricReport:
    """All six metrics for one match.

    Kendall's (concordant - discordant) = C(N, 2) - 2 inv, where inv
    counts inversions of the observed ranks read in predicted order; the
    quotient is formed from that exact integer so it rounds once.  MRR
    sums over the teams in the order given, AP and NDCG over positions.
    """
    if position_index not in _POSITION_INDICES:
        raise DomainError(
            f"position_index must be one of {_POSITION_INDICES}, got {position_index!r}"
        )
    n = _validate(pairs)
    observed_in_predicted_order = [0] * n
    errors_by_observed = [0] * n
    errors_by_predicted = [0] * n
    error_sum = 0
    reciprocal_sum = 0.0
    for _, p, o in pairs:
        err = abs(p - o)
        error_sum += err
        reciprocal_sum += 1.0 / (1 + err)
        observed_in_predicted_order[p - 1] = o
        errors_by_observed[o - 1] = err
        errors_by_predicted[p - 1] = err

    # one walk over the positions scores both conventions
    hits_o = hits_p = 0
    ap_o = ap_p = dcg_o = dcg_p = ideal = 0.0
    for i, (err_o, err_p) in enumerate(
        zip(errors_by_observed, errors_by_predicted), start=1
    ):
        # not math.log2: it differs in the last bit at some i, which
        # would change the written metric bytes
        weight = 1.0 / math.log(i + 1, 2.0)
        ideal += weight
        relevance = 1.0 / (1 + err_o)
        if err_o == 0:
            hits_o += 1
        ap_o += (hits_o / i) * relevance
        dcg_o += weight * relevance
        relevance = 1.0 / (1 + err_p)
        if err_p == 0:
            hits_p += 1
        ap_p += (hits_p / i) * relevance
        dcg_p += weight * relevance

    ranks = np.array(observed_in_predicted_order)
    inversions = int(np.count_nonzero(np.triu(ranks[:, None] > ranks, 1)))
    total = n * (n - 1) // 2
    if position_index == "observed":
        ap, dcg, alt_ap, alt_dcg = ap_o, dcg_o, ap_p, dcg_p
    else:
        ap, dcg, alt_ap, alt_dcg = ap_p, dcg_p, ap_o, dcg_o
    return MetricReport(
        accuracy=hits_o / n,
        mae=error_sum / n,
        kendall_tau=(total - 2 * inversions) / total,
        mrr=reciprocal_sum / n,
        ap=ap / n,
        ndcg=dcg / ideal,
        team_count=n,
        alt_ap=alt_ap / n,
        alt_ndcg=alt_dcg / ideal,
    )
