"""Common machinery for replaying one match through a rating system.

A rating system declares its ``name``, its ``Params`` dataclass, the
rating of a player never seen before (``_new_player``), its belief
update (``_apply``) and, unless it sums member mu, its per-team
prediction score.  The ``RatingSystem`` skeleton owns the rest: the
construction from ``params or Params()``, the cached ``initial_rating``,
``params_dict`` (``asdict``), and ``update_match``, which predicts
strictly from pre-match state, then updates, the order the replay
harness relies on.  Each ``Params`` checks its numeric fields in one
``check_fields`` call, and ``make_system`` finds a system by ``name``.

State layout
------------
State is owned by the caller and ``update_match`` is the only code that
writes it.  The replay keeps it in a ``RatingTable``: an id -> row map
plus four numpy columns, ``mu``, ``sigma`` (NaN for a player without
one), ``games`` and ``last_rank`` (0 for a player without one), grown in
amortized steps.  The table is also a ``MutableMapping[str,
PlayerRating]``: ``table[p]`` builds a validated view and ``table[p] =
rating`` writes one row, so stores, cohort selection and library callers
see the familiar mapping.  The per-match path never builds a view.
``table[p] = rating`` and ``insert`` share one row write, the only code
that turns a ``PlayerRating`` into a row.

``RatingTable.insert`` adds many rows at once and grows the columns in
the same steps as one ``table[p] = rating`` at a time; ``replay``
inserts every player of its log in one call before its loop.  Per
match, ``RatingTable.gather`` copies the members' rows once into a
``MatchBlock``, reading the match's layout (``roster``, ``sizes``,
``ranks``; see ``core``): (teams x width) matrices in record order, a
member's position in its team as its column, zero where a team is
narrower than the widest.  ``gather`` looks the members' rows up by id,
or takes them precompiled (``replay`` hands each match its slice of one
array of member rows); the read-only ``sizes`` and ``mask`` of a block
are built once per distinct team-size tuple and kept by the table.
``predict`` ranks ``team_scores(block)``; ``_apply(block)`` is a pure
function returning the posterior ``(mu, sigma)`` matrices of the same
shape, ``sigma`` None for systems that carry none.  Then
``RatingTable.scatter`` checks every posterior at once (mu finite,
sigma > 0; the first bad member's ``PlayerRating`` is built to raise
that class's error) and only then writes mu, sigma, ``games + 1`` and
the team placement as the last rank in one scatter, so an update that
raises (a certain Glicko outcome, an invalid posterior) leaves state
exactly as it was.  The table keeps the last block until its next
write, so ``predict`` and ``_apply`` share one gather.

A plain dict of ``PlayerRating`` is accepted too: the update runs on a
table of the match's members and is written back to the dict only after
it succeeds.

Floating point
--------------
The array code must give the bits the scalar code gave.  Row sums use
``row_sums`` (a cumulative sum, adding left to right like ``sum``), never
``ndarray.sum``, which adds pairwise.  A square that the scalar code took
with Python's ``**`` stays a Python ``**``: CPython's ``x**2`` calls C
``pow``, which rounds some squares differently from numpy's ``x*x``.
TrueSkill's chain is scalar Python on team sums, and only the final
member split, a divide, a multiply and an add per member, is array code.

numpy reports a float fault by a warning or not at all, where Python
raises or stays silent, so each numpy step states what it does:

- ``predict`` sums team scores under ``np.errstate(over="raise")``; a
  sum past the largest double becomes a ``RatingsError`` naming the
  match and system, with no ``RuntimeWarning``.
- ``update_match`` runs ``_apply`` under ``np.errstate(divide="raise",
  over="raise", invalid="raise")``.  The ``FloatingPointError``, like any
  ``ArithmeticError`` (a Python overflow or division by zero at extreme
  finite parameters), becomes a ``RatingsError`` naming the match.  A
  ``DomainError`` from ``_apply`` or from the posterior check (a sigma
  that is not positive) keeps its type and text behind the same
  match-and-system prefix.  Glicko and TrueSkill square each team's
  deviation through ``squares`` before any array step, and a team whose
  square overflows is named by ``require_finite_variances``.  Squares
  that are each finite but overflow when added (Glicko's pairwise
  kernel and opponent RMS, TrueSkill's c^2) name the pair of teams, or
  the team, instead.
- A posterior equal to the prior although the prediction missed the
  observed order means every change was lost to rounding (a delta
  absorbed by a huge rating, or one that underflowed); ``update_match``
  raises a ``DomainError`` for it rather than report an upset that moved
  nothing.  A system whose beliefs never change (prevrank) returns the
  prior ``block.mu`` itself and is exempt.
- Array steps that stand in for Python float arithmetic, which
  overflows to inf silently, ignore that flag (TrueSkill's split, the
  ``best`` cohort's conservative scores).

Member shares
-------------
Elo, Glicko and TrueSkill with ``member_share="mu"`` split a team's mu
delta by ``member_weights`` (``member_shares`` for a whole block): each
member takes the share mu_j / sum(mu), so the shares sum to 1.  When any
member's mu is <= 0 every member takes the same share 1/n instead,
because a proportional share is negative for a negative member and would
move that member against the match result.
"""

from __future__ import annotations

import logging
import math
import operator
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Mapping, MutableMapping
from dataclasses import asdict, dataclass, fields
from itertools import filterfalse
from typing import Any, Sequence

import numpy as np

from .core import (
    DomainError,
    MatchRecord,
    MissingStateError,
    PlayerRating,
    PredictedRanking,
    RatingsError,
    rank_teams_by_score,
)

__all__ = [
    "RatingSystem",
    "RatingState",
    "RatingTable",
    "MatchBlock",
    "Posterior",
    "make_system",
    "check_fields",
    "member_weights",
    "member_shares",
    "normalized_results",
    "rating_columns",
    "row_sums",
    "SYSTEM_NAMES",
]

log = logging.getLogger(__name__)

# what predict and update_match accept: a RatingTable or a plain dict
RatingState = MutableMapping[str, PlayerRating]

# posterior (mu, sigma) matrices of a block; sigma is None for systems without one
Posterior = tuple[np.ndarray, "np.ndarray | None"]

SYSTEM_NAMES = ("elo", "glicko", "trueskill", "prevrank")

_COLUMNS = ("_mu", "_sigma", "_games", "_last_rank")

_BOUNDS = {"> 0": operator.gt, ">= 0": operator.ge}

# distinct team-size tuples whose block shape a table keeps
_SHAPES_KEPT = 256


def row_sums(matrix: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right like Python's ``sum``."""
    return np.cumsum(matrix, axis=1)[:, -1]


@dataclass(frozen=True, slots=True)
class MatchBlock:
    """One match's members, gathered from a ``RatingTable``.

    Matrices are (teams x width) in record and roster order, zero where
    ``mask`` is False (a team narrower than the widest).
    """

    match: MatchRecord
    rows: np.ndarray  # table row of every member, in match.roster order
    mask: np.ndarray
    sizes: np.ndarray  # members per team
    ranks: np.ndarray  # observed placement per team
    mu: np.ndarray
    sigma: np.ndarray  # NaN for a member without one
    last_rank: np.ndarray  # 0 for a member without one

    def pad(self, teams: list[list[float]]) -> np.ndarray:
        """Per-team member lists as a zero-padded matrix of the block's shape."""
        out = np.zeros(self.mask.shape)
        out[self.mask] = [value for team in teams for value in team]
        return out


class RatingTable(MutableMapping[str, PlayerRating]):
    """Every player's rating as numpy columns, one row per player."""

    def __init__(self, ratings: Mapping[str, PlayerRating] | None = None) -> None:
        self._rows: dict[str, int] = {}
        self._mu = np.zeros(0)
        self._sigma = np.zeros(0)
        self._games = np.zeros(0, dtype=np.int64)
        self._last_rank = np.zeros(0, dtype=np.int64)
        self._block: MatchBlock | None = None
        self._shapes: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        if ratings:
            self.insert(list(ratings), list(ratings.values()))

    def __repr__(self) -> str:
        return f"RatingTable({dict(self)!r})"

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __contains__(self, player_id: object) -> bool:
        return player_id in self._rows

    def missing(self, players: Iterable[str]) -> list[str]:
        """The given player ids that have no row, in the order given."""
        return list(filterfalse(self._rows.__contains__, players))

    def __getitem__(self, player_id: str) -> PlayerRating:
        row = self._rows[player_id]
        sigma = self._sigma.item(row)
        return PlayerRating(
            self._mu.item(row),
            None if math.isnan(sigma) else sigma,
            self._games.item(row),
            self._last_rank.item(row) or None,
        )

    def _reserve(self, size: int) -> None:
        """Room for ``size`` rows, grown in the steps that adding one row
        at a time takes: by max(64, capacity) whenever it is full."""
        capacity = grown = len(self._mu)
        while grown < size:
            grown += max(64, grown)
        if grown > capacity:
            for name in _COLUMNS:
                column = getattr(self, name)
                extra = np.zeros(grown - capacity, column.dtype)
                setattr(self, name, np.append(column, extra))

    def __setitem__(self, player_id: str, rating: PlayerRating) -> None:
        row = self._rows.get(player_id)
        if row is None:
            self.insert((player_id,), (rating,))
        else:
            self._write(row, (rating,))

    def insert(self, players: Sequence[str], ratings: Sequence[PlayerRating]) -> None:
        """Rows for players the table does not hold yet, in the order
        given: the table that ``table[p] = rating`` for each in turn gives."""
        rows = self._rows
        start = len(rows)
        end = start + len(players)
        if (
            len(ratings) != len(players)
            or len(set(players)) != len(players)
            or not rows.keys().isdisjoint(players)
        ):
            raise DomainError("insert takes one rating per new, distinct player id")
        self._reserve(end)
        rows.update(zip(players, range(start, end)))
        self._write(start, ratings)

    def _write(self, start: int, ratings: Sequence[PlayerRating]) -> None:
        """The ratings into the rows from ``start`` on."""
        end = start + len(ratings)
        self._mu[start:end] = [r.mu for r in ratings]
        self._sigma[start:end] = [
            math.nan if r.sigma is None else r.sigma for r in ratings
        ]
        self._games[start:end] = [r.games_played for r in ratings]
        self._last_rank[start:end] = [r.last_observed_rank or 0 for r in ratings]
        self._block = None

    def __delitem__(self, player_id: str) -> None:
        row = self._rows.pop(player_id)
        end = len(self._rows)
        for name in _COLUMNS:
            column = getattr(self, name)
            column[row:end] = column[row + 1 : end + 1]
        for later, index in self._rows.items():
            if index > row:
                self._rows[later] = index - 1
        self._block = None

    def _shape(self, team_sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The read-only ``sizes`` and ``mask`` of a block whose teams have
        these sizes, built once per distinct sizes tuple."""
        shape = self._shapes.get(team_sizes)
        if shape is None:
            if len(self._shapes) == _SHAPES_KEPT:
                self._shapes.clear()  # a log of many mixed shapes
            sizes = np.array(team_sizes)
            mask = np.arange(max(team_sizes)) < sizes[:, None]
            sizes.flags.writeable = mask.flags.writeable = False
            shape = self._shapes[team_sizes] = sizes, mask
        return shape

    def gather(self, match: MatchRecord, rows: np.ndarray | None = None) -> MatchBlock:
        """The match's member rows as a ``MatchBlock``; raises
        ``MissingStateError`` when a member has no row.  A caller that
        holds the members' table rows, in roster order, passes them as
        ``rows`` and spares the lookup by id."""
        if self._block is not None and self._block.match is match:
            return self._block
        if rows is None:
            roster = match.roster
            try:
                rows = np.fromiter(
                    map(self._rows.__getitem__, roster), np.intp, len(roster)
                )
            except KeyError:
                missing = self.missing(roster)
                raise MissingStateError(
                    f"match {match.match_id!r}: no rating entry for "
                    f"{len(missing)} player(s), first {missing[0]!r}"
                ) from None
        sizes, mask = self._shape(match.sizes)

        def matrix(column: np.ndarray) -> np.ndarray:
            out = np.zeros(mask.shape, column.dtype)
            out[mask] = column[rows]
            # the block is kept for reuse, so no caller may change it
            out.flags.writeable = False
            return out

        self._block = MatchBlock(
            match=match,
            rows=rows,
            mask=mask,
            sizes=sizes,
            ranks=np.array(match.ranks),
            mu=matrix(self._mu),
            sigma=matrix(self._sigma),
            last_rank=matrix(self._last_rank),
        )
        return self._block

    def scatter(
        self, block: MatchBlock, mu: np.ndarray, sigma: np.ndarray | None
    ) -> None:
        """Write one match's posteriors, games + 1 and the placements.

        Every posterior is checked before the first write, so a failed
        check leaves the table untouched.
        """
        new_mu = mu[block.mask]
        bad = ~np.isfinite(new_mu)
        new_sigma = None
        if sigma is not None:
            new_sigma = sigma[block.mask]
            bad |= ~(new_sigma > 0)
        if bad.any():
            first = int(bad.argmax())
            # the first bad member's rating raises PlayerRating's own error
            PlayerRating(
                float(new_mu[first]),
                None if new_sigma is None else float(new_sigma[first]),
            )
        rows = block.rows
        self._mu[rows] = new_mu
        if new_sigma is not None:
            self._sigma[rows] = new_sigma
        self._games[rows] += 1
        self._last_rank[rows] = np.repeat(block.ranks, block.sizes)
        self._block = None


def rating_columns(
    state: RatingState,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every player id in the state's order, with its ``mu``, ``sigma``
    (NaN for none), ``games`` and ``last_rank`` (0 for none) columns in
    that order, read-only; a plain dict is read through a table."""
    table = state if isinstance(state, RatingTable) else RatingTable(state)
    n = len(table)
    columns = [getattr(table, name)[:n] for name in _COLUMNS]
    for column in columns:
        column.flags.writeable = False
    return list(table), *columns


def _as_table(state: RatingState, match: MatchRecord) -> RatingTable:
    """The table itself, or a table of the match's members from a dict."""
    if isinstance(state, RatingTable):
        return state
    return RatingTable({p: state[p] for p in match.roster if p in state})


def squares(values: list[float]) -> list[float]:
    """Each value's ``**2``, as the scalar code squares (C ``pow``), with
    inf where that overflows."""
    try:
        return [value**2 for value in values]
    except OverflowError:
        pass
    out = []
    for value in values:
        try:
            out.append(value**2)
        except OverflowError:
            out.append(math.inf)
    return out


def require_finite_variances(team_ids: Sequence[str], variances: list[float]) -> None:
    """Raise a DomainError naming the first team whose variance, its
    deviation squared, passed the largest double."""
    if math.inf in variances:
        team_id = team_ids[variances.index(math.inf)]
        raise DomainError(f"team {team_id!r} deviation overflows when squared")


def warn_uniform_weights(team_id: str, lowest: float) -> None:
    """Log a team that fell back to uniform member weights."""
    log.warning(
        "team %s has a member rated %.6g, using uniform member weights",
        team_id,
        lowest,
    )


def member_weights(member_mus: Sequence[float], team_id: str) -> list[float]:
    """Each member's share of a team delta: mu_j / sum(mu), or uniform
    1/n when any member's mu is <= 0 (logged as a warning)."""
    lowest = min(member_mus)
    if lowest <= 0:
        warn_uniform_weights(team_id, lowest)
        return [1.0 / len(member_mus)] * len(member_mus)
    total = float(sum(member_mus))
    return [m / total for m in member_mus]


def member_shares(
    block: MatchBlock, team_mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``member_weights`` of every team in a block, as a matrix zero at
    padding, and each team's lowest member mu; ``team_mu`` is
    ``row_sums(block.mu)``.  The caller logs each team whose lowest mu is
    <= 0 with ``warn_uniform_weights``, in team order."""
    lowest = np.where(block.mask, block.mu, np.inf).min(axis=1)
    uniform = lowest <= 0
    total = np.where(uniform, 1.0, team_mu)[:, None]
    shares = np.where(
        uniform[:, None], block.mask / block.sizes[:, None], block.mu / total
    )
    return shares, lowest


def normalized_results(block: MatchBlock) -> np.ndarray:
    """``core.normalized_result`` of every team in a block."""
    n = len(block.ranks)
    return (n - block.ranks) / math.comb(n, 2)


class RatingSystem(ABC):
    """The skeleton every rating system fills in (see the module docstring)."""

    name: str = ""
    Params: type[Any]

    def __init__(self, params: Any = None) -> None:
        self.params = params or self.Params()
        self._initial = self._new_player()

    @abstractmethod
    def _new_player(self) -> PlayerRating:
        """Belief assigned to a player never seen before, from ``params``."""

    def initial_rating(self) -> PlayerRating:
        """Belief assigned to a player never seen before, built once."""
        return self._initial

    def params_dict(self) -> dict[str, Any]:
        """The system's full parameterization, for run summaries and snapshots."""
        return asdict(self.params)

    def team_scores(self, block: MatchBlock) -> np.ndarray:
        """Pre-match strength score of every team; higher predicts better.

        The default is the sum of the members' mu.
        """
        return row_sums(block.mu)

    @abstractmethod
    def _apply(self, block: MatchBlock) -> Posterior:
        """Posterior (mu, sigma) matrices of every member, from the
        pre-match block; reads and writes no state.  A system whose
        beliefs never change returns ``block.mu`` itself."""

    def predict(
        self, state: RatingState, match: MatchRecord, rng_seed: int
    ) -> PredictedRanking:
        """Rank the match's teams from pre-match state only."""
        block = _as_table(state, match).gather(match)
        try:
            with np.errstate(over="raise"):
                scores = self.team_scores(block).tolist()
        except ArithmeticError as exc:
            raise RatingsError(
                f"match {match.match_id!r}: {self.name} prediction failed ({exc})"
            ) from exc
        return rank_teams_by_score(list(zip(match.team_ids, scores)), rng_seed)

    def update_match(
        self, state: RatingState, match: MatchRecord, rng_seed: int
    ) -> PredictedRanking:
        """Predict, then update beliefs from the observed placements.

        Returns the prediction made before any rating changed.  Every
        participant's games_played is incremented and last_observed_rank
        set to their team's placement.  If the update raises, ``state``
        is unchanged.
        """
        table = _as_table(state, match)
        block = table.gather(match)
        ranking = self.predict(table, match, rng_seed)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                mu, sigma = self._apply(block)
            if mu is not block.mu and _missed_yet_unmoved(block, mu, sigma, ranking):
                raise DomainError(
                    "the prediction missed the observed order, yet every rating "
                    "change is lost to rounding"
                )
            table.scatter(block, mu, sigma)
        except (ArithmeticError, DomainError) as exc:
            kind = DomainError if isinstance(exc, DomainError) else RatingsError
            raise kind(
                f"match {match.match_id!r}: {self.name} update failed ({exc})"
            ) from exc
        if table is not state:
            for player in match.roster:
                state[player] = table[player]
        return ranking


def _missed_yet_unmoved(
    block: MatchBlock, mu: np.ndarray, sigma: np.ndarray | None, ranking: PredictedRanking
) -> bool:
    """Whether a posterior equals the prior although the prediction missed
    the observed order, so the update computed a change that rounding
    (absorption into a large rating, or underflow) lost entirely."""
    if not np.array_equal(mu, block.mu):
        return False
    if sigma is not None and not np.array_equal(sigma, block.sigma):
        return False
    team_ids = block.match.team_ids
    return list(ranking.order) != [team_ids[i] for i in np.argsort(block.ranks).tolist()]


def make_system(name: str, **overrides: Any) -> RatingSystem:
    """Build a rating system by name with keyword parameter overrides."""
    from . import elo, glicko, prevrank, trueskill

    for system in (
        elo.EloSystem,
        glicko.GlickoSystem,
        trueskill.TrueSkillSystem,
        prevrank.PreviousRankSystem,
    ):
        if system.name == name:
            if overrides and not fields(system.Params):
                raise ValueError(f"{name} takes no parameters")
            return system(system.Params(**overrides))
    raise ValueError(f"unknown rating system {name!r}, expected one of {SYSTEM_NAMES}")


def check_fields(params: object, **rules: str) -> None:
    """Raise a DomainError for the first field, in the order given, that
    breaks its rule: "finite", or finite and "> 0" or ">= 0"."""
    for name, rule in rules.items():
        value = getattr(params, name)
        if rule == "finite":
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
        elif not (math.isfinite(value) and _BOUNDS[rule](value, 0)):
            raise DomainError(f"{name} must be finite and {rule}, got {value}")
