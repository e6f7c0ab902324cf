"""Tests for JOIN execution."""

import pytest

from repro.engine import Database
from repro.engine.errors import ExecutionError, ParseError
from repro.engine.parser import parse


def make_db():
    database = Database()
    database.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, customer INTEGER, "
        "total FLOAT)"
    )
    database.execute(
        "CREATE TABLE customers (id INTEGER PRIMARY KEY, name TEXT, "
        "city TEXT)"
    )
    database.execute(
        "INSERT INTO customers VALUES (1, 'alice', 'aa'), "
        "(2, 'bob', 'bb'), (3, 'carol', 'aa')"
    )
    database.execute(
        "INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.5), "
        "(12, 2, 3.0), (13, 9, 1.0)"
    )
    return database


@pytest.fixture
def db():
    return make_db()


class TestParsing:
    def test_join_clause_parsed(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y")
        assert len(stmt.joins) == 1
        assert stmt.joins[0].table == "b"
        assert not stmt.joins[0].outer

    def test_left_join_variants(self):
        assert parse("SELECT * FROM a LEFT JOIN b ON a.x = b.y").joins[0].outer
        assert parse(
            "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y"
        ).joins[0].outer

    def test_inner_join_keyword(self):
        stmt = parse("SELECT * FROM a INNER JOIN b ON a.x = b.y")
        assert not stmt.joins[0].outer

    def test_aliases(self):
        stmt = parse("SELECT * FROM a x JOIN b AS y ON x.i = y.i")
        assert stmt.table_alias == "x"
        assert stmt.joins[0].alias == "y"

    def test_qualified_column_refs(self):
        stmt = parse("SELECT a.v FROM a JOIN b ON a.x = b.y")
        assert stmt.items[0].expression.name == "a.v"

    def test_join_requires_on(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM a JOIN b")

    def test_multiple_joins(self):
        stmt = parse(
            "SELECT * FROM a JOIN b ON a.i = b.i JOIN c ON b.j = c.j"
        )
        assert len(stmt.joins) == 2


class TestInnerJoin:
    def test_equi_join_matches(self, db):
        rows = db.query(
            "SELECT orders.id, customers.name FROM orders "
            "JOIN customers ON orders.customer = customers.id "
            "ORDER BY orders.id"
        )
        assert rows == [(10, "alice"), (11, "alice"), (12, "bob")]

    def test_unmatched_rows_dropped(self, db):
        rows = db.query(
            "SELECT orders.id FROM orders "
            "JOIN customers ON orders.customer = customers.id"
        )
        assert (13,) not in rows  # customer 9 does not exist

    def test_aliased_join(self, db):
        rows = db.query(
            "SELECT o.id, c.name FROM orders o JOIN customers c "
            "ON o.customer = c.id WHERE c.name = 'bob'"
        )
        assert rows == [(12, "bob")]

    def test_star_expands_both_tables(self, db):
        result = db.execute(
            "SELECT * FROM orders o JOIN customers c ON o.customer = c.id "
            "ORDER BY o.id LIMIT 1"
        )
        assert result.columns == [
            "id", "customer", "total", "id", "name", "city",
        ]
        assert result.rows == [(10, 1, 5.0, 1, "alice", "aa")]

    def test_touched_covers_both_tables(self, db):
        result = db.execute(
            "SELECT o.id FROM orders o JOIN customers c "
            "ON o.customer = c.id"
        )
        tables = {name for name, _ in result.touched}
        assert tables == {"orders", "customers"}
        assert len(result.touched) == 2 * len(result.rows)

    def test_non_equi_join_condition(self, db):
        rows = db.query(
            "SELECT o.id FROM orders o JOIN customers c "
            "ON o.customer < c.id ORDER BY o.id"
        )
        # order 10/11 (cust 1) match customers 2,3; order 12 (cust 2)
        # matches customer 3; order 13 (cust 9) matches none.
        assert rows == [(10,), (10,), (11,), (11,), (12,)]

    def test_where_applied_after_join(self, db):
        rows = db.query(
            "SELECT o.id FROM orders o JOIN customers c "
            "ON o.customer = c.id WHERE o.total > 4 AND c.city = 'aa'"
        )
        assert sorted(rows) == [(10,), (11,)]

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE cities (city TEXT, country TEXT)")
        db.execute("INSERT INTO cities VALUES ('aa', 'A'), ('bb', 'B')")
        rows = db.query(
            "SELECT o.id, t.country FROM orders o "
            "JOIN customers c ON o.customer = c.id "
            "JOIN cities t ON c.city = t.city ORDER BY o.id"
        )
        assert rows == [(10, "A"), (11, "A"), (12, "B")]

    def test_shared_column_requires_qualification(self, db):
        # 'id' exists in both tables: bare reference must fail.
        with pytest.raises(ExecutionError, match="ambiguous"):
            db.query(
                "SELECT id FROM orders o JOIN customers c "
                "ON o.customer = c.id"
            )

    def test_unshared_column_usable_bare(self, db):
        rows = db.query(
            "SELECT name FROM orders o JOIN customers c "
            "ON o.customer = c.id WHERE total = 3.0"
        )
        assert rows == [("bob",)]

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(ExecutionError, match="duplicate table alias"):
            db.query(
                "SELECT * FROM orders x JOIN customers x ON x.id = x.id"
            )


class TestLeftJoin:
    def test_unmatched_left_rows_padded_with_null(self, db):
        rows = db.query(
            "SELECT o.id, c.name FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.id ORDER BY o.id"
        )
        assert rows == [
            (10, "alice"), (11, "alice"), (12, "bob"), (13, None),
        ]

    def test_null_padding_filterable(self, db):
        rows = db.query(
            "SELECT o.id FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.id WHERE c.name IS NULL"
        )
        assert rows == [(13,)]

    def test_left_join_non_equi(self, db):
        rows = db.query(
            "SELECT o.id, c.id FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.id AND o.total > 100 ORDER BY o.id"
        )
        # AND o.total > 100 never holds => every left row padded.
        assert rows == [(10, None), (11, None), (12, None), (13, None)]

    def test_touched_excludes_padded_right(self, db):
        result = db.execute(
            "SELECT o.id FROM orders o LEFT JOIN customers c "
            "ON o.customer = c.id WHERE c.id IS NULL"
        )
        assert result.touched == [("orders", 4)]


class TestJoinWithAggregates:
    def test_join_then_group(self, db):
        rows = db.query(
            "SELECT c.name, COUNT(*) AS n, SUM(o.total) AS spent "
            "FROM orders o JOIN customers c ON o.customer = c.id "
            "GROUP BY c.name ORDER BY spent DESC"
        )
        assert rows == [("alice", 2, 12.5), ("bob", 1, 3.0)]

    def test_join_global_aggregate(self, db):
        result = db.execute(
            "SELECT COUNT(*), AVG(o.total) FROM orders o "
            "JOIN customers c ON o.customer = c.id"
        )
        assert result.rows == [(3, pytest.approx(15.5 / 3))]
