"""Canonical SQL text, statement shapes, and statement-cache keying.

The parse cache used to be keyed on raw SQL text, so `SELECT 1` and
`select  1 ;` occupied two slots and an adversary could thrash the LRU
with whitespace noise. The statement cache now keys on a statement's
*shape* — its canonical text (:func:`normalize_sql`'s spelling) with
each value literal lifted into a typed slot — and the result cache on
``(shape, params)``. These tests pin the normalization rules, prove
textual variants collapse to one cache slot, and prove a statement
bound into a cached shape is exactly the canonical parse.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DelayGuard, GuardConfig
from repro.engine import Database, expr
from repro.engine.parser import (
    Parser,
    configure_parse_cache,
    normalize_cache_info,
    normalize_sql,
    parse,
    parse_cache_info,
    parse_cached,
    shaped_statement,
    tokenize,
)
from repro.engine.parser import ast as ast_module
from repro.engine.parser import normalize as normalize_module
from repro.engine.parser import parser as parser_module
from repro.engine.parser.normalize import render_token
from repro.engine.parser.parser import PARSE_CACHE_DEFAULT_SIZE


@pytest.fixture(autouse=True)
def fresh_parse_cache():
    """Reset the process-global parse cache around each test."""
    configure_parse_cache(PARSE_CACHE_DEFAULT_SIZE)
    yield
    configure_parse_cache(PARSE_CACHE_DEFAULT_SIZE)


class TestNormalizeSql:
    def test_whitespace_collapses(self):
        assert (
            normalize_sql("SELECT   *\n\tFROM t")
            == normalize_sql("SELECT * FROM t")
        )

    def test_keywords_uppercased(self):
        assert normalize_sql("select * from t where id = 1") == (
            "SELECT * FROM t WHERE id = 1"
        )

    def test_comments_stripped(self):
        assert normalize_sql(
            "SELECT * FROM t -- trailing comment\nWHERE id = 1"
        ) == "SELECT * FROM t WHERE id = 1"

    def test_trailing_semicolon_dropped(self):
        assert normalize_sql("SELECT * FROM t;") == normalize_sql(
            "SELECT * FROM t"
        )

    def test_identifier_case_preserved(self):
        # Result column labels preserve source case, so normalization
        # must NOT fold identifier case: a cached result for
        # `SELECT V FROM t` cannot answer `SELECT v FROM t`.
        assert "V" in normalize_sql("SELECT V FROM t")
        assert normalize_sql("SELECT V FROM t") != normalize_sql(
            "SELECT v FROM t"
        )

    def test_string_literals_preserved_exactly(self):
        out = normalize_sql("SELECT * FROM t WHERE v = 'It''s'")
        assert "'It''s'" in out
        # Case inside strings is data, never folded.
        assert normalize_sql(
            "select * from t where v = 'Mixed Case'"
        ).endswith("'Mixed Case'")

    def test_not_equals_canonicalized(self):
        assert normalize_sql("SELECT * FROM t WHERE a <> 1") == (
            normalize_sql("SELECT * FROM t WHERE a != 1")
        )

    def test_unparseable_text_passes_through(self):
        garbage = "NOT SQL @ ALL !!!"
        assert normalize_sql(garbage) == garbage

    def test_numbers_and_operators_survive(self):
        out = normalize_sql("SELECT a+1 FROM t WHERE b >= 2.5")
        assert "2.5" in out and ">=" in out

    def test_memoized(self):
        before = normalize_cache_info().hits
        normalize_sql("SELECT 12345 FROM memo_probe")
        normalize_sql("SELECT 12345 FROM memo_probe")
        assert normalize_cache_info().hits > before


class TestParseCacheKeying:
    VARIANTS = [
        "SELECT * FROM t WHERE id = 1",
        "select * from t where id = 1",
        "SELECT  *  FROM  t  WHERE  id  =  1",
        "SELECT * FROM t WHERE id = 1;",
        "SELECT * FROM t -- noise\nWHERE id = 1",
        "select\t*\nfrom t where id=1 ;",
    ]

    def test_variants_share_one_cache_slot(self):
        for sql in self.VARIANTS:
            parse_cached(sql)
        info = parse_cache_info()
        # One miss for the canonical form, the rest are hits.
        assert info.misses == 1
        assert info.hits == len(self.VARIANTS) - 1
        assert info.currsize == 1

    def test_variants_parse_identically(self):
        statements = [parse_cached(sql) for sql in self.VARIANTS]
        assert all(stmt is statements[0] for stmt in statements)

    def test_distinct_statements_get_distinct_slots(self):
        # Distinct statements are distinct shapes; literals alone are
        # not (see "statement shapes" below).
        parse_cached("SELECT * FROM t WHERE id = 1")
        parse_cached("SELECT * FROM t WHERE v = 1")
        assert parse_cache_info().currsize == 2


# -- statement shapes -------------------------------------------------------

STATEMENT_HEAD = re.compile(
    r"^\s*(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|EXPLAIN|BEGIN|COMMIT"
    r"|ROLLBACK)\b",
    re.IGNORECASE,
)


def corpus():
    """Every SQL string the engine suites write, as the parser corpus."""
    texts = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and STATEMENT_HEAD.match(node.value)
            ):
                texts.add(node.value)
    return sorted(texts)


def spine_stream():
    """The head of every benchmark workload's statement streams."""
    from benchmarks.spine.workloads import SCHEMA, WORKLOADS, take

    texts = list(SCHEMA)
    for spec in WORKLOADS.values():
        for client in range(2):
            texts.extend(op.sql for op in take(spec, 1, client, 150))
    return texts


CORPUS = corpus()


def canonical(sql):
    """What the statement caches must answer: the canonical parse, or
    its error as (type, message, position)."""
    try:
        return parse(normalize_sql(sql)), None
    except Exception as error:  # noqa: BLE001 - the error is the answer
        return None, (
            type(error),
            getattr(error, "message", str(error)),
            getattr(error, "position", None),
        )


def assert_shaped_like_canonical(sql):
    statement, error = canonical(sql)
    if error is not None:
        with pytest.raises(Exception) as raised:
            shaped_statement(sql)
        assert (
            type(raised.value),
            getattr(raised.value, "message", str(raised.value)),
            getattr(raised.value, "position", None),
        ) == error, sql
        return None
    shaped = shaped_statement(sql)
    assert shaped.statement == statement, sql
    assert parse_cached(sql) == statement, sql
    return shaped


def relex(sql, substitute):
    """``sql`` re-spelled from its tokens, each literal token passed
    through ``substitute(token)``."""
    return " ".join(
        substitute(token) if token.kind in ("number", "string") else (
            render_token(token)
        )
        for token in tokenize(sql)
        if token.kind != "eof"
    )


class TestStatementShapes:
    def test_corpus_is_large(self):
        assert len(CORPUS) > 300

    def test_corpus_binds_to_the_canonical_parse(self):
        for sql in CORPUS:
            assert_shaped_like_canonical(sql)
        # Second pass: every shape is now cached, so each statement
        # comes from a bind (or the memo), not a parse.
        configure_parse_cache(PARSE_CACHE_DEFAULT_SIZE)
        for sql in CORPUS:
            assert_shaped_like_canonical(sql)
        for sql in reversed(CORPUS):
            assert_shaped_like_canonical(sql + " ")

    def test_spine_streams_bind_to_the_canonical_parse(self):
        texts = spine_stream()
        for sql in texts:
            assert_shaped_like_canonical(sql)
        info = parse_cache_info()
        # A handful of shapes serve every statement of every workload.
        assert info.misses <= 20
        assert info.hits >= len(texts) - 20

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_other_literals_of_the_same_kind(self, data):
        sql = data.draw(st.sampled_from(CORPUS))
        try:
            tokenize(sql)
        except Exception:  # noqa: BLE001 - nothing to substitute
            return

        def substitute(token):
            if token.kind == "string":
                text = data.draw(st.text(max_size=8))
                return "'" + text.replace("'", "''") + "'"
            if any(mark in token.value for mark in ".eE"):
                value = data.draw(
                    st.floats(allow_nan=False, allow_infinity=False, min_value=0)
                )
                return repr(float(value))
            return str(data.draw(st.integers(min_value=0, max_value=10**30)))

        assert_shaped_like_canonical(sql)
        assert_shaped_like_canonical(relex(sql, substitute))

    def test_literal_kinds_are_distinct_slots(self):
        keys = {
            shaped_statement(f"SELECT * FROM t WHERE id = {literal}").key
            for literal in ("1", "1.0", "'1'")
        }
        assert len(keys) == 3
        assert len({key[0] for key in keys}) == 3  # three shapes

    def test_counts_and_ddl_literals_stay_in_the_shape(self):
        pairs = [
            ("SELECT a FROM t LIMIT 1", "SELECT a FROM t LIMIT 2"),
            (
                "SELECT a FROM t LIMIT 5 OFFSET 1",
                "SELECT a FROM t LIMIT 5 OFFSET 2",
            ),
            (
                "CREATE TABLE x (a VARCHAR(10))",
                "CREATE TABLE x (a VARCHAR(20))",
            ),
        ]
        for one, other in pairs:
            first, second = shaped_statement(one), shaped_statement(other)
            assert first.key[0] != second.key[0]
            assert first.statement == parse(one)
            assert second.statement == parse(other)

    def test_values_and_in_lists_bind(self):
        for one, other in [
            ("SELECT 1 FROM t", "SELECT 2 FROM t"),
            ("SELECT * FROM t WHERE a = - 5", "SELECT * FROM t WHERE a = - 6"),
            (
                "SELECT * FROM t WHERE v = 'it''s'",
                "SELECT * FROM t WHERE v = 'its'",
            ),
        ]:
            first, second = shaped_statement(one), shaped_statement(other)
            assert first.key[0] == second.key[0]
            assert first.key[1] != second.key[1]
            assert second.statement == parse(other)
        short = shaped_statement("SELECT * FROM t WHERE id IN (1, 2)")
        long = shaped_statement("SELECT * FROM t WHERE id IN (1, 2, 3)")
        assert short.key[0] != long.key[0]

    def test_two_large_inserts_share_one_parse(self):
        def insert(offset):
            rows = ", ".join(
                f"({offset + i}, 'name-{offset + i}', {i}.5, {i % 7})"
                for i in range(500)
            )
            return f"INSERT INTO t VALUES {rows}"

        built = []
        original = Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0][:30])
            original(self, *args, **kwargs)

        Parser.__init__ = counting
        try:
            first = shaped_statement(insert(0))
            second = shaped_statement(insert(1000))
        finally:
            Parser.__init__ = original
        assert len(built) == 1
        assert first.key[0] == second.key[0]
        assert len(second.key[1]) == 2000
        assert second.statement == parse(insert(1000))
        assert parse_cache_info().misses == 1

    def test_each_literal_case_has_its_own_cached_result(self):
        database = Database()
        database.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, f FLOAT)"
        )
        database.insert_rows(
            "t", [(1, "1", -5.0), (2, "it's", 7.0), (3, "its", -6.0)]
        )
        guard = DelayGuard(
            database, config=GuardConfig(cap=1.0, result_cache_size=64)
        )
        cases = {
            "SELECT * FROM t WHERE id = 1": [(1, "1", -5.0)],
            "SELECT * FROM t WHERE id = 1.0": [(1, "1", -5.0)],
            "SELECT * FROM t WHERE v = '1'": [(1, "1", -5.0)],
            "SELECT 1 FROM t WHERE id = 2": [(1,)],
            "SELECT 1.0 FROM t WHERE id = 2": [(1.0,)],
            "SELECT 2 FROM t WHERE id = 2": [(2,)],
            "SELECT id FROM t ORDER BY id LIMIT 1": [(1,)],
            "SELECT id FROM t ORDER BY id LIMIT 2": [(1,), (2,)],
            "SELECT id FROM t ORDER BY id LIMIT 1 OFFSET 1": [(2,)],
            "SELECT id FROM t WHERE f = - 5": [(1,)],
            "SELECT id FROM t WHERE f = - 6": [(3,)],
            "SELECT id FROM t WHERE v = 'it''s'": [(2,)],
            "SELECT id FROM t WHERE v = 'its'": [(3,)],
            "SELECT id FROM t WHERE id IN (1, 2) ORDER BY id": [(1,), (2,)],
            "SELECT id FROM t WHERE id IN (1, 2, 3) ORDER BY id": [
                (1,),
                (2,),
                (3,),
            ],
        }
        labels = {}
        for _round in range(2):
            for sql, rows in cases.items():
                result = guard.execute(sql)
                assert [tuple(row) for row in result.rows] == rows, sql
                assert [type(v) for row in result.rows for v in row] == [
                    type(v) for row in rows for v in row
                ], sql
                labels.setdefault(sql, result.result.columns)
                assert result.result.columns == labels[sql], sql
                assert result.cached == bool(_round), sql
        assert labels["SELECT 1 FROM t WHERE id = 2"] == ["1"]
        assert labels["SELECT 1.0 FROM t WHERE id = 2"] == ["1.0"]
        assert guard.result_cache.info()["entries"] == len(cases)
        # Both VARCHAR lengths parse to their own statements.
        for length in (10, 20):
            assert parse_cached(
                f"CREATE TABLE x{length} (a VARCHAR({length}))"
            ) == parse(f"CREATE TABLE x{length} (a VARCHAR({length}))")


def test_non_canonical_statement_is_lexed_once(monkeypatch):
    """A fresh, non-canonical statement through the guard: one lexer
    pass and one memo slot (it used to be three passes and two slots:
    normalize the text, normalize the normalized text, lex it again to
    parse)."""
    guard = DelayGuard(Database(), config=GuardConfig(cap=1.0))
    guard.database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    guard.database.execute("INSERT INTO t VALUES (1, 'a')")
    lexed = []

    def counting(sql):
        lexed.append(sql)
        return tokenize(sql)

    for module in (parser_module, normalize_module):
        monkeypatch.setattr(module, "tokenize", counting)
    normalized_before = normalize_cache_info().currsize
    memo_before = parser_module._memo.cache_info().currsize
    sql = "select  *  from t\n where id=1 ; "
    assert guard.execute(sql).rows == [(1, "a")]
    assert lexed == [sql]
    assert normalize_cache_info().currsize == normalized_before
    assert parser_module._memo.cache_info().currsize == memo_before + 1


def test_bound_node_classes_build_without_init():
    """``shapes._bind`` writes a rebound node's fields straight into its
    instance dict, skipping ``__init__``: sound only while no AST or
    expression node has ``__slots__`` or a ``__post_init__``."""
    nodes = [
        cls
        for module in (ast_module, expr)
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    ]
    assert len(nodes) > 20
    for cls in nodes:
        assert "__slots__" not in vars(cls), cls
        assert not hasattr(cls, "__post_init__"), cls
