"""Skill rating systems and rank-prediction metrics for team
battle-royale matches.

Three rating systems extended to N-team free-for-alls (Elo, Glicko,
TrueSkill) plus a previous-placement baseline, six per-match rank
metrics, a chronological replay harness with cohort experiment set-ups,
and a synthetic match generator with known latent skills.
"""

from __future__ import annotations

from .core import (
    DataError,
    DomainError,
    MatchRecord,
    MissingStateError,
    PlayerRating,
    PredictedRanking,
    RatingsError,
    TeamEntry,
    normalized_result,
    rank_teams_by_score,
)
from .elo import EloParams, EloSystem
from .glicko import GlickoParams, GlickoSystem
from .metrics import METRIC_NAMES, MetricReport, rank_pairs, score_match
from .prevrank import PreviousRankSystem, player_prev_rank
from .replay import (
    ExperimentTrend,
    IngestStats,
    MatchReport,
    RatingStore,
    ReplayResult,
    TrendPoint,
    ingest,
    replay,
    setup_all_players,
    setup_best_players,
    setup_frequent_players,
)
from .synth import SynthConfig, generate
from .systems import SYSTEM_NAMES, RatingSystem, RatingTable, make_system
from .trueskill import TrueSkillParams, TrueSkillSystem, update_pair, v_exceeds, w_exceeds

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DomainError",
    "MatchRecord",
    "MissingStateError",
    "PlayerRating",
    "PredictedRanking",
    "RatingsError",
    "TeamEntry",
    "normalized_result",
    "rank_teams_by_score",
    "EloParams",
    "EloSystem",
    "GlickoParams",
    "GlickoSystem",
    "METRIC_NAMES",
    "MetricReport",
    "rank_pairs",
    "score_match",
    "PreviousRankSystem",
    "player_prev_rank",
    "ExperimentTrend",
    "IngestStats",
    "MatchReport",
    "RatingStore",
    "ReplayResult",
    "TrendPoint",
    "ingest",
    "replay",
    "setup_all_players",
    "setup_best_players",
    "setup_frequent_players",
    "SynthConfig",
    "generate",
    "SYSTEM_NAMES",
    "RatingSystem",
    "RatingTable",
    "make_system",
    "TrueSkillParams",
    "TrueSkillSystem",
    "update_pair",
    "v_exceeds",
    "w_exceeds",
    "__version__",
]
