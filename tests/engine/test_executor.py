"""Tests for statement execution through the Database facade."""

import pytest

from repro.engine import Database
from repro.engine.errors import (
    CatalogError,
    ConstraintError,
    ExecutionError,
)


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, "
        "age INTEGER, score FLOAT)"
    )
    database.execute(
        "INSERT INTO users VALUES "
        "(1, 'alice', 30, 9.5), (2, 'bob', 25, 7.0), "
        "(3, 'carol', 35, NULL), (4, 'dave', 25, 8.0)"
    )
    return database


class TestSelect:
    def test_star_returns_all_columns(self, db):
        result = db.execute("SELECT * FROM users WHERE id = 1")
        assert result.columns == ["id", "name", "age", "score"]
        assert result.rows == [(1, "alice", 30, 9.5)]

    def test_projection_order(self, db):
        result = db.execute("SELECT name, id FROM users WHERE id = 2")
        assert result.rows == [("bob", 2)]

    def test_computed_projection_with_alias(self, db):
        result = db.execute("SELECT age * 2 AS doubled FROM users WHERE id = 1")
        assert result.columns == ["doubled"]
        assert result.rows == [(60,)]

    def test_where_filtering(self, db):
        rows = db.query("SELECT id FROM users WHERE age = 25")
        assert sorted(rows) == [(2,), (4,)]

    def test_null_never_matches_equality(self, db):
        assert db.query("SELECT id FROM users WHERE score = NULL") == []

    def test_is_null(self, db):
        assert db.query("SELECT id FROM users WHERE score IS NULL") == [(3,)]

    def test_order_by_asc_desc(self, db):
        rows = db.query("SELECT id FROM users ORDER BY age DESC, name ASC")
        assert rows == [(3,), (1,), (2,), (4,)]

    def test_order_by_nulls_first_ascending(self, db):
        rows = db.query("SELECT id FROM users ORDER BY score")
        assert rows[0] == (3,)

    def test_limit_offset(self, db):
        rows = db.query("SELECT id FROM users ORDER BY id LIMIT 2 OFFSET 1")
        assert rows == [(2,), (3,)]

    def test_limit_zero(self, db):
        assert db.query("SELECT id FROM users LIMIT 0") == []

    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT age FROM users ORDER BY age")
        assert rows == [(25,), (30,), (35,)]

    def test_rowids_follow_output_rows(self, db):
        result = db.execute("SELECT id FROM users ORDER BY id DESC LIMIT 2")
        assert result.rows == [(4,), (3,)]
        assert len(result.rowids) == 2

    def test_like(self, db):
        rows = db.query("SELECT name FROM users WHERE name LIKE '%a%'")
        assert sorted(rows) == [("alice",), ("carol",), ("dave",)]


class TestAggregates:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM users").scalar() == 4

    def test_count_column_skips_nulls(self, db):
        assert db.execute("SELECT COUNT(score) FROM users").scalar() == 3

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT age) FROM users").scalar() == 3

    def test_sum_avg(self, db):
        result = db.execute("SELECT SUM(age), AVG(age) FROM users")
        assert result.rows == [(115, 28.75)]

    def test_min_max(self, db):
        result = db.execute("SELECT MIN(name), MAX(score) FROM users")
        assert result.rows == [("alice", 9.5)]

    def test_aggregate_over_empty_set(self, db):
        result = db.execute(
            "SELECT COUNT(*), SUM(age), MIN(age) FROM users WHERE id > 99"
        )
        assert result.rows == [(0, None, None)]

    def test_aggregate_rowids_are_matching_rows(self, db):
        result = db.execute("SELECT COUNT(*) FROM users WHERE age = 25")
        assert len(result.rowids) == 2

    def test_sum_of_text_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT SUM(name) FROM users")

    def test_mixed_aggregate_and_column_rejected(self, db):
        with pytest.raises(ExecutionError, match="GROUP BY"):
            db.execute("SELECT COUNT(*), name FROM users")


class TestInsert:
    def test_positional_insert(self, db):
        result = db.execute("INSERT INTO users VALUES (5, 'eve', 22, 6.5)")
        assert result.rowcount == 1
        assert db.row_count("users") == 5

    def test_column_list_insert_defaults_null(self, db):
        db.execute("INSERT INTO users (id, name) VALUES (6, 'frank')")
        assert db.query("SELECT age FROM users WHERE id = 6") == [(None,)]

    def test_multi_row_insert(self, db):
        result = db.execute(
            "INSERT INTO users (id, name) VALUES (7, 'g'), (8, 'h')"
        )
        assert result.rowcount == 2

    def test_expression_values(self, db):
        db.execute("INSERT INTO users (id, age) VALUES (9, 20 + 5)")
        assert db.query("SELECT age FROM users WHERE id = 9") == [(25,)]

    def test_duplicate_pk_rejected(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO users (id) VALUES (1)")

    def test_arity_mismatch_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO users (id, name) VALUES (10)")


class TestUpdate:
    def test_update_with_where(self, db):
        result = db.execute("UPDATE users SET age = 26 WHERE name = 'bob'")
        assert result.rowcount == 1
        assert db.query("SELECT age FROM users WHERE id = 2") == [(26,)]

    def test_update_references_old_values(self, db):
        db.execute("UPDATE users SET age = age + 1 WHERE id = 1")
        assert db.query("SELECT age FROM users WHERE id = 1") == [(31,)]

    def test_update_all_rows(self, db):
        result = db.execute("UPDATE users SET score = 0.0")
        assert result.rowcount == 4

    def test_update_no_match(self, db):
        assert db.execute("UPDATE users SET age = 1 WHERE id = 99").rowcount == 0

    def test_self_referential_swap_is_safe(self, db):
        # Predicate evaluated against materialized targets first.
        db.execute("UPDATE users SET age = 25 WHERE age = 25")
        assert db.execute(
            "SELECT COUNT(*) FROM users WHERE age = 25"
        ).scalar() == 2


class TestDelete:
    def test_delete_with_where(self, db):
        result = db.execute("DELETE FROM users WHERE age = 25")
        assert result.rowcount == 2
        assert db.row_count("users") == 2

    def test_delete_all(self, db):
        db.execute("DELETE FROM users")
        assert db.row_count("users") == 0

    def test_delete_none(self, db):
        assert db.execute("DELETE FROM users WHERE id = 99").rowcount == 0


@pytest.mark.parametrize("vectorized", [True, False])
class TestQualifiedNamesInDML:
    """UPDATE and DELETE see the ``table.column`` spelling a SELECT's
    WHERE sees (and SQLite accepts), on either executor tier."""

    @pytest.fixture
    def t(self, vectorized):
        database = Database()
        database.configure_execution(vectorized=vectorized)
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        database.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        return database

    def test_update_where_qualified(self, t):
        result = t.execute("UPDATE t SET v = 11 WHERE t.id = 1")
        assert (result.rowids, result.rowcount) == ([1], 1)
        assert t.query("SELECT v FROM t ORDER BY id") == [(11,), (20,), (30,)]

    def test_update_set_reads_qualified(self, t):
        t.execute("UPDATE t SET v = t.v + 1 WHERE t.id = 1")
        assert t.query("SELECT v FROM t WHERE id = 1") == [(11,)]

    def test_delete_where_qualified(self, t):
        result = t.execute("DELETE FROM t WHERE t.id = 3")
        assert (result.rowids, result.touched) == ([3], [("t", 3)])
        assert t.query("SELECT id FROM t ORDER BY id") == [(1,), (2,)]

    def test_unknown_qualifier_still_rejected(self, t):
        with pytest.raises(ExecutionError, match="unknown or ambiguous"):
            t.execute("UPDATE t SET v = 1 WHERE u.id = 1")
        assert t.query("SELECT v FROM t ORDER BY id") == [(10,), (20,), (30,)]


class TestDDL:
    def test_create_and_drop_table(self, db):
        db.execute("CREATE TABLE extra (a INTEGER)")
        assert db.catalog.has_table("extra")
        db.execute("DROP TABLE extra")
        assert not db.catalog.has_table("extra")

    def test_create_existing_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE users (a INTEGER)")

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS users (a INTEGER)")
        assert db.catalog.table("users").schema.column_names() == [
            "id", "name", "age", "score",
        ]

    def test_create_index_speeds_path(self, db):
        assert db.explain("SELECT * FROM users WHERE name = 'bob'") == (
            "FULL SCAN"
        )
        db.execute("CREATE INDEX iname ON users (name)")
        assert "INDEX" in db.explain("SELECT * FROM users WHERE name = 'bob'")

    def test_index_results_match_scan_results(self, db):
        before = sorted(db.query("SELECT id FROM users WHERE age = 25"))
        db.execute("CREATE INDEX iage ON users (age)")
        after = sorted(db.query("SELECT id FROM users WHERE age = 25"))
        assert before == after


class TestResultSet:
    def test_scalar_requires_1x1(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT id, name FROM users WHERE id = 1").scalar()

    def test_column_accessor(self, db):
        result = db.execute("SELECT id, name FROM users ORDER BY id")
        assert result.column("name")[0] == "alice"
        with pytest.raises(ExecutionError):
            result.column("missing")

    def test_as_dicts(self, db):
        result = db.execute("SELECT id, name FROM users WHERE id = 1")
        assert result.as_dicts() == [{"id": 1, "name": "alice"}]

    def test_iteration_and_len(self, db):
        result = db.execute("SELECT id FROM users")
        assert len(result) == 4
        assert len(list(result)) == 4


class TestEngineStats:
    def test_stats_accumulate(self, db):
        before = db.stats.statements
        db.execute("SELECT * FROM users")
        db.execute("INSERT INTO users (id) VALUES (50)")
        assert db.stats.statements == before + 2
        assert db.stats.by_kind.get("select", 0) >= 1
        assert db.stats.rows_written >= 1
