"""Fuzz tests: the parser must fail cleanly, never crash.

Any input text must either parse or raise
:class:`~repro.engine.errors.ParseError` (or a TypeMismatchError for a
bad type name) — no other exception type may escape, and a successful
parse must be executable-or-EngineError against a database.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.errors import EngineError
from repro.engine.parser import normalize_sql, parse, parse_cached

sql_alphabet = (
    string.ascii_letters + string.digits + " '\"(),.*=<>!+-/%;_\n\t"
)


class TestParserNeverCrashes:
    @given(st.text(alphabet=sql_alphabet, max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_random_text(self, text):
        try:
            parse(text)
        except EngineError:
            pass  # ParseError / TypeMismatchError are the contract

    @given(
        st.text(alphabet=sql_alphabet, max_size=60),
        st.sampled_from(
            [
                "SELECT {} FROM t",
                "SELECT * FROM t WHERE {}",
                "INSERT INTO t VALUES ({})",
                "UPDATE t SET v = {}",
                "DELETE FROM t WHERE {}",
                "CREATE TABLE x ({})",
            ]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_statement_shaped_fuzz(self, filler, template):
        try:
            parse(template.format(filler))
        except EngineError:
            pass

    @given(st.text(alphabet=sql_alphabet, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_parsed_statements_execute_or_engine_error(self, text):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        try:
            statement = parse(text)
        except EngineError:
            return
        try:
            db.execute(statement)
        except EngineError:
            pass


class TestStatementCacheMatchesTheCanonicalParse:
    """Whatever the text, the statement caches answer what parsing the
    canonical text answers: the same tree, or the same error with the
    same message and position."""

    @staticmethod
    def outcome(call, text):
        try:
            return "ok", call(text)
        except Exception as error:  # noqa: BLE001 - the error is the answer
            return "error", (
                type(error),
                getattr(error, "message", str(error)),
                getattr(error, "position", None),
            )

    @given(
        st.text(alphabet=sql_alphabet, max_size=60),
        st.sampled_from(
            [
                "SELECT {} FROM t",
                "SELECT * FROM t WHERE {}",
                "SELECT * FROM t WHERE id = 1 {}",
                "INSERT INTO t VALUES ({})",
                "UPDATE t SET v = {}",
                "CREATE TABLE x ({})",
                "{}",
            ]
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_shaped_equals_canonical(self, filler, template):
        text = template.format(filler)
        canonical = self.outcome(lambda sql: parse(normalize_sql(sql)), text)
        assert self.outcome(parse_cached, text) == canonical
        # Again: now the memo or the shape's template answers.
        assert self.outcome(parse_cached, text) == canonical
        assert self.outcome(parse_cached, text + " ") == canonical
