"""Ingest fuzzer: whatever a match-log file holds, ``ingest`` returns or
raises a DataError whose message starts with the file's path, and
``inspect`` on the file exits 0 or 1 with no traceback.  One strategy
holds no double quote, so its texts, long unquoted fields included, start
on the column pass."""

from __future__ import annotations

import csv
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from royale_ratings.cli import main
from royale_ratings.core import DataError
from royale_ratings.replay import MATCH_LOG_COLUMNS, ingest

HEADER = ",".join(MATCH_LOG_COLUMNS) + "\n"
ROW = "m1,2020-05-01T12:00:00Z,t1,a,1\n"
# one field longer than the csv module accepts
LONG_FIELD = '"' + "x" * (csv.field_size_limit() + 1) + '"'

pieces = st.one_of(
    st.text(max_size=30),
    st.text(alphabet=',"\r\n\x00 xZz1+:-T', max_size=30),
    st.sampled_from((HEADER, ROW, '"', ",", "\n", "\r", "\ufeff")),
    st.builds(
        lambda char, size: char * size,
        st.sampled_from(("x", '"')),
        st.integers(csv.field_size_limit() - 2, csv.field_size_limit() + 2),
    ),
)
log_texts = st.tuples(st.sampled_from(("", HEADER)), st.lists(pieces, max_size=8)).map(
    lambda parts: parts[0] + "".join(parts[1])
)
# no double quote anywhere, so each text starts on the column pass, long
# unquoted fields included
quote_free_pieces = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters='"'), max_size=30),
    st.text(alphabet=",\r\n\x00 xZz1+:-T", max_size=30),
    st.sampled_from((HEADER, ROW, ",", "\n", "\r", "\ufeff")),
    st.integers(csv.field_size_limit() - 2, csv.field_size_limit() + 2).map(
        lambda size: "x" * size
    ),
)
quote_free_texts = st.tuples(
    st.sampled_from(("", HEADER)), st.lists(quote_free_pieces, max_size=8)
).map(lambda parts: parts[0] + "".join(parts[1]))
log_bytes = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda body: HEADER.encode() + body),
)

FIELD_LIMIT_LOGS = (
    HEADER + ROW + f"m1,2020-05-01T12:00:00Z,t2,{LONG_FIELD},2\n",
    HEADER.rstrip("\n") + f",{LONG_FIELD}\n",
)
UNQUOTED_FIELD_LIMIT_LOGS = tuple(text.replace('"', "") for text in FIELD_LIMIT_LOGS)


def check_ingest(path: Path) -> None:
    try:
        ingest(path)
    except DataError as exc:
        assert str(exc).startswith(str(path)), str(exc)


@settings(max_examples=300, deadline=None)
@given(log_texts)
@example(FIELD_LIMIT_LOGS[0])
@example(FIELD_LIMIT_LOGS[1])
def test_any_text_ingests_or_names_the_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_text(text, encoding="utf-8", newline="")
        check_ingest(path)


@settings(max_examples=300, deadline=None)
@given(quote_free_texts)
@example(UNQUOTED_FIELD_LIMIT_LOGS[0])
@example(UNQUOTED_FIELD_LIMIT_LOGS[1])
def test_any_quote_free_text_ingests_or_names_the_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_text(text, encoding="utf-8", newline="")
        check_ingest(path)


@settings(max_examples=300, deadline=None)
@given(log_bytes)
@example(FIELD_LIMIT_LOGS[0].encode())
def test_any_bytes_ingest_or_name_the_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(data)
        check_ingest(path)


@settings(max_examples=100, deadline=None)
@given(st.one_of(log_texts.map(lambda text: text.encode("utf-8")), log_bytes))
@example(FIELD_LIMIT_LOGS[0].encode())
def test_inspect_exits_zero_or_one_without_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["inspect", "--input", str(path)])
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith(f"error: {path}"), err.getvalue()
