"""The rating snapshot: every player's rating after a replay, plus how it
was produced, saved as versioned text and loaded back."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import filterfalse, islice
from pathlib import Path
from typing import Any, Callable

from .core import DataError, PlayerRating
from .systems import RatingState, rating_columns

__all__ = ["STORE_MAGIC", "RatingStore"]

STORE_MAGIC = "#royale-ratings-store v1"
# snapshots are read, as logs are, as UTF-8 that may start with a
# byte-order mark; save writes none
_STORE_ENCODING = "utf-8-sig"
_STORE_FIELDS = "#fields=player_id mu sigma games_played last_observed_rank"
# snapshot lines joined per write: one write per line is slower than one
# write of the whole snapshot, and a run of lines holds far less
_STORE_ROWS = 4096


@dataclass(slots=True)
class RatingStore:
    """Every player's rating after a replay, plus how it was produced."""

    system: str
    params: dict[str, Any]
    seed: int
    matches_processed: int
    ratings: RatingState

    def save(self, path: str | Path) -> None:
        """Versioned text snapshot, one player per line, sorted for
        reproducible bytes.

        Every check runs first: the params must be finite for JSON, no
        player id may hold a tab or a newline (the first such id in sorted
        order is named), and every string must encode as UTF-8 (the header
        first, then the ids in sorted order).  Then the file's directory is
        made if it is missing, then the file is opened; so a snapshot that
        fails makes no directory and leaves any file at ``path`` as it
        was, and a caller that saves the store as its first write leaves
        the directory as it was.  The lines are written ``_STORE_ROWS`` at
        a time, so the snapshot is never held whole in memory.
        """
        head = "\n".join(
            [
                STORE_MAGIC,
                f"#system={self.system}",
                f"#seed={self.seed}",
                f"#matches={self.matches_processed}",
                f"#params={json.dumps(self.params, sort_keys=True, allow_nan=False)}",
                _STORE_FIELDS,
                "",
            ]
        )
        unsaved = [i for i in self.ratings if "\t" in i or "\n" in i]
        if unsaved:
            raise DataError(f"player id {min(unsaved)!r} cannot be snapshotted")
        # a lone surrogate raises UnicodeEncodeError here, not mid-write
        for text in (head, *sorted(filterfalse(str.isascii, self.ratings))):
            text.encode("utf-8")
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        ids, *columns = rating_columns(self.ratings)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = [ids[i] for i in order]
        lines = (
            f"{player_id}\t{mu!r}\t{'-' if math.isnan(sigma) else repr(sigma)}"
            f"\t{games}\t{last or '-'}\n"
            for player_id, mu, sigma, games, last in zip(
                ids, *(column[order].tolist() for column in columns)
            )
        )
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(head)
            while run := "".join(islice(lines, _STORE_ROWS)):
                handle.write(run)

    @staticmethod
    def is_snapshot(path: str | Path) -> bool:
        """Whether the file at ``path`` starts with the snapshot's magic
        line, read as ``load`` reads it."""
        # bytes that are not UTF-8 are no snapshot; ingest names them
        with open(path, encoding=_STORE_ENCODING, errors="replace") as handle:
            return handle.readline().startswith(STORE_MAGIC)

    @classmethod
    def load(cls, path: str | Path) -> "RatingStore":
        path = Path(path)
        try:
            lines = path.read_bytes().decode(_STORE_ENCODING).split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        if lines[0] != STORE_MAGIC or _STORE_FIELDS not in lines:
            raise DataError(f"{path}: not a rating-store snapshot")
        # the header ends at the #fields line, so an id may start with "#"
        body_start = lines.index(_STORE_FIELDS) + 1
        # header key -> (line number, value)
        header: dict[str, tuple[int, str]] = {}
        for number, line in enumerate(lines[1 : body_start - 1], start=2):
            key, _, value = line[1:].partition("=")
            header[key] = (number, value)
        for key in ("system", "seed", "matches", "params"):
            if key not in header:
                raise DataError(f"{path}: snapshot header lacks {key!r}")

        def header_value(key: str, parse: Callable[[str], Any]) -> Any:
            number, value = header[key]
            try:
                parsed = parse(value)
                json.dumps(parsed, allow_nan=False)  # NaN or an infinity raises
                return parsed
            # json.loads raises RecursionError on arrays nested too deep
            except (ValueError, RecursionError):
                raise DataError(f"{path}:{number}: bad #{key} value {value!r}") from None

        ratings: RatingState = {}
        for offset, line in enumerate(lines[body_start:], start=body_start + 1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise DataError(f"{path}:{offset}: expected 5 fields")
            player_id, mu, sigma, games, last = parts
            if player_id in ratings:
                raise DataError(
                    f"{path}:{offset}: player {player_id!r} is listed twice"
                )
            try:
                ratings[player_id] = PlayerRating(
                    mu=float(mu),
                    sigma=None if sigma == "-" else float(sigma),
                    games_played=int(games),
                    last_observed_rank=None if last == "-" else int(last),
                )
            except ValueError as exc:
                raise DataError(f"{path}:{offset}: bad rating row: {exc}") from None
        return cls(
            system=header["system"][1],
            params=header_value("params", json.loads),
            seed=header_value("seed", int),
            matches_processed=header_value("matches", int),
            ratings=ratings,
        )
