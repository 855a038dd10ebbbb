"""Domain types shared by every rating system, plus result normalization
and the common score-to-ranking step.

Ranks are team placements: 1 is the winner, N is the last team out of N.
All rating math is double precision.

A ``TeamEntry`` is a named tuple (team_id, members, observed_rank),
checked when it is built by name.  A ``MatchRecord`` stores its teams as
its layout: ``team_ids``, ``ranks`` and ``sizes`` per team, in record
order, and ``roster``, every player id with each team's members in a
row.  Prediction, the update, the metrics and the writers read these
tuples and never walk the teams.  ``teams`` is still a field, compared,
shown in ``repr`` and taken by ``dataclasses.replace``, but its tuple of
``TeamEntry`` is built from the layout each time it is read.  A record
keeps no per-team object because CPython's collector never untracks a
tuple subclass: one ``TeamEntry`` per team of a long log would stay in
every full collection for the life of the run, while the layout's plain
tuples of strings and ints are untracked at the first collection.  The
layout fields take no part in ``==`` or ``repr``.  ``build_match``
builds a record from per-team columns with one check of the whole match,
and falls back to the checked constructors, for their error text, only
when that check fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from datetime import datetime
from itertools import accumulate, chain, compress, pairwise, repeat
from operator import ne
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "RatingsError",
    "DomainError",
    "DataError",
    "MissingStateError",
    "PlayerRating",
    "TeamEntry",
    "MatchRecord",
    "build_match",
    "PredictedRanking",
    "normalized_result",
    "rank_teams_by_score",
]


class RatingsError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(RatingsError, ValueError):
    """A value violated a precondition (rank out of range, empty roster, ...)."""


class DataError(RatingsError, ValueError):
    """Input data is unusable (non-finite score, malformed file, ...)."""


class MissingStateError(RatingsError, KeyError):
    """A match roster references a player with no rating entry."""

    def __str__(self) -> str:  # KeyError repr-quotes its payload otherwise
        return self.args[0] if self.args else ""


@dataclass(frozen=True, slots=True)
class PlayerRating:
    """One player's belief state.

    ``sigma`` is None for systems that carry no uncertainty (Elo, the
    previous-rank baseline).  ``games_played`` counts applied updates and
    ``last_observed_rank`` is the team placement from the player's most
    recent match, if any.
    """

    mu: float
    sigma: float | None = None
    games_played: int = 0
    last_observed_rank: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError(f"player mu must be finite, got {self.mu!r}")
        if self.sigma is not None and not self.sigma > 0:
            raise DomainError(f"player sigma must be positive, got {self.sigma!r}")
        if self.games_played < 0:
            raise DomainError("games_played cannot be negative")
        if self.last_observed_rank is not None and self.last_observed_rank < 1:
            raise DomainError(
                f"last_observed_rank must be >= 1, got {self.last_observed_rank}"
            )


class _TeamFields(NamedTuple):
    team_id: str
    members: tuple[str, ...]
    observed_rank: int


class TeamEntry(_TeamFields):
    """One team's roster and observed placement within a single match.

    A named tuple, checked when built by name; a ``MatchRecord`` builds its
    teams with ``tuple.__new__`` from its layout, checked as a whole.
    """

    __slots__ = ()

    def __new__(
        cls, team_id: str, members: tuple[str, ...], observed_rank: int
    ) -> "TeamEntry":
        if not team_id:
            raise DomainError("team_id must be a non-empty token")
        if not members:
            raise DomainError(f"team {team_id!r} has an empty roster")
        if not all(members):
            raise DomainError(f"team {team_id!r} has an empty player id")
        if len(set(members)) != len(members):
            raise DomainError(f"team {team_id!r} lists a player twice")
        if observed_rank < 1:
            raise DomainError(
                f"team {team_id!r} has placement {observed_rank}, expected >= 1"
            )
        return super().__new__(cls, team_id, members, observed_rank)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "TeamEntry":
        # the named tuple's _make, and _replace through it, would skip the checks
        return cls(*iterable)


class _Teams:
    """The ``teams`` field of a ``MatchRecord``: the teams given are stored
    as the record's layout, and each read builds them from it."""

    def __get__(
        self, record: "MatchRecord | None", owner: type | None = None
    ) -> tuple[TeamEntry, ...]:
        if record is None:
            raise AttributeError("teams")  # the field has no default
        roster, sizes = record.roster, record.sizes
        spans = map(slice, accumulate(sizes, initial=0), accumulate(sizes))
        members = map(roster.__getitem__, spans)
        return tuple(
            map(tuple.__new__, repeat(TeamEntry), zip(record.team_ids, members, record.ranks))
        )

    def __set__(self, record: "MatchRecord", teams: Iterable[TeamEntry]) -> None:
        teams = tuple(teams)
        team_ids, rosters, ranks = zip(*teams) if teams else ((), (), ())
        record._set_layout(
            team_ids, ranks, tuple(map(len, rosters)), tuple(chain.from_iterable(rosters))
        )


@dataclass(frozen=True)
class MatchRecord:
    """A completed match: at least two teams whose observed placements form
    a permutation of 1..N and whose rosters are disjoint.

    The record stores its layout, ``team_ids``, ``ranks`` (observed
    placements) and ``sizes`` per team in record order, and ``roster``,
    every player id with each team's members in a row.  ``teams`` is
    built from it on each read.
    """

    match_id: str
    timestamp: datetime
    teams: tuple[TeamEntry, ...] = _Teams()
    team_ids: tuple[str, ...] = field(init=False, compare=False, repr=False)
    ranks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    sizes: tuple[int, ...] = field(init=False, compare=False, repr=False)
    roster: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        team_ids, ranks, roster = self.team_ids, self.ranks, self.roster
        n = len(team_ids)
        if n < 2:
            raise DomainError(f"match {self.match_id!r} needs >= 2 teams, got {n}")
        if len(set(team_ids)) != n:
            raise DomainError(f"match {self.match_id!r} repeats a team_id")
        if sorted(ranks) != list(range(1, n + 1)):
            raise DomainError(
                f"match {self.match_id!r} placements are not a permutation of 1..{n}"
            )
        if len(set(roster)) != len(roster):
            seen: set[str] = set()
            for player in roster:
                if player in seen:
                    raise DomainError(
                        f"match {self.match_id!r}: player {player!r} appears in two teams"
                    )
                seen.add(player)

    def _set_layout(
        self,
        team_ids: tuple[str, ...],
        ranks: tuple[int, ...],
        sizes: tuple[int, ...],
        roster: tuple[str, ...],
    ) -> None:
        set_field = object.__setattr__
        set_field(self, "team_ids", team_ids)
        set_field(self, "ranks", ranks)
        set_field(self, "sizes", sizes)
        set_field(self, "roster", roster)

    @property
    def team_count(self) -> int:
        return len(self.team_ids)

    def players(self) -> list[str]:
        """All player ids in roster order (teams in record order)."""
        return list(self.roster)


def build_match(
    match_id: str,
    timestamp: datetime,
    team_ids: Sequence[str],
    rosters: Sequence[Iterable[str]],
    ranks: Sequence[int],
) -> MatchRecord:
    """The ``MatchRecord`` of teams given as parallel columns: each team's
    id, members and observed placement.

    The whole match is checked at once: at least two teams, ids and
    player ids non-empty, rosters non-empty, team ids distinct, no player
    listed twice, placements a permutation of 1..N.  A match that fails
    is built again through the checked constructors, which raise the
    ``DomainError`` that ``MatchRecord(teams=(TeamEntry(...), ...))``
    raises, with the same text.
    """
    team_ids = tuple(team_ids)
    rosters = tuple(map(tuple, rosters))
    ranks = tuple(ranks)
    n = len(team_ids)
    if not len(rosters) == n == len(ranks):
        raise DomainError(
            f"match {match_id!r}: {n} team ids, {len(rosters)} rosters and "
            f"{len(ranks)} placements"
        )
    roster = tuple(chain.from_iterable(rosters))
    if (
        n >= 2
        and all(team_ids)
        and all(rosters)
        and all(roster)
        and len(set(team_ids)) == n
        and len(set(roster)) == len(roster)
        and sorted(ranks) == list(range(1, n + 1))
    ):
        record = object.__new__(MatchRecord)
        object.__setattr__(record, "match_id", match_id)
        object.__setattr__(record, "timestamp", timestamp)
        record._set_layout(team_ids, ranks, tuple(map(len, rosters)), roster)
        return record
    return MatchRecord(
        match_id=match_id,
        timestamp=timestamp,
        teams=tuple(map(TeamEntry, team_ids, rosters, ranks)),
    )


@dataclass(frozen=True, slots=True)
class PredictedRanking:
    """A predicted leaderboard: ``order[0]`` is the predicted winner.

    ``tie_groups`` records which teams had exactly equal scores before the
    seeded tie-break shuffled them; ``seed_used`` reproduces the shuffle.
    """

    order: tuple[str, ...]
    tie_groups: tuple[tuple[str, ...], ...]
    seed_used: int

    def rank_of(self, team_id: str) -> int:
        """Predicted rank of a team, 1 = predicted winner."""
        return self.order.index(team_id) + 1

    @property
    def ranks(self) -> dict[str, int]:
        return dict(zip(self.order, range(1, len(self.order) + 1)))


def normalized_result(observed_rank: int, team_count: int) -> float:
    """Map an observed placement onto the pooled pairwise scale.

    R' = (N - rank) / C(N, 2).  Rank 1 of N scores (N-1)/C(N,2), the last
    team scores 0, and the values over one match sum to exactly 1.
    """
    if team_count < 2:
        raise DomainError(f"team_count must be >= 2, got {team_count}")
    if not 1 <= observed_rank <= team_count:
        raise DomainError(
            f"observed_rank {observed_rank} outside 1..{team_count}"
        )
    return (team_count - observed_rank) / math.comb(team_count, 2)


def rank_teams_by_score(
    scores: list[tuple[str, float]], rng_seed: int
) -> PredictedRanking:
    """Turn per-team scores into a predicted ranking, higher score = better rank.

    Teams with exactly equal scores are ordered by a uniform shuffle drawn
    from ``random.Random(rng_seed)``, so the result is deterministic for a
    given (scores, seed) pair.  Tie groups of size >= 2 are recorded on the
    returned ranking.
    """
    if not scores:
        raise DomainError("scores must be non-empty")
    ids = [tid for tid, _ in scores]
    if len(set(ids)) != len(ids):
        raise DomainError("duplicate team_id in scores")
    values = [value for _, value in scores]
    if not all(map(math.isfinite, values)):
        tid, value = next((t, v) for t, v in scores if not math.isfinite(v))
        raise DataError(f"team {tid!r} has non-finite score {value!r}")

    # a stable descending sort leaves each set of equal scores (0.0 and
    # -0.0 alike) as one run in input order; every run of two or more is
    # shuffled in place, best run first
    n = len(values)
    ranked = sorted(range(n), key=values.__getitem__, reverse=True)
    order = [ids[i] for i in ranked]
    ordered = [values[i] for i in ranked]
    bounds = [0, *compress(range(1, n), map(ne, ordered, ordered[1:])), n]
    tie_groups: list[tuple[str, ...]] = []
    if len(bounds) <= n:
        rng = random.Random(rng_seed)
        for start, end in pairwise(bounds):
            if end - start > 1:
                run = order[start:end]
                tie_groups.append(tuple(sorted(run)))
                rng.shuffle(run)
                order[start:end] = run
    return PredictedRanking(
        order=tuple(order), tie_groups=tuple(tie_groups), seed_used=rng_seed
    )
