"""LIMIT/OFFSET must trim rowids/touched consistently with rows.

The guard prices a SELECT off ``ResultSet.touched`` and records
popularity off the same list, so the engine's slicing rules are part
of the defense's contract:

* plain and grouped paths slice rows, rowids, and touched together —
  a row the client never received must not be charged or recorded
  differently across executors;
* aggregate results charge every aggregated tuple while the single
  output row survives the slice, but when LIMIT/OFFSET trims the
  result to *nothing* the statement returns no data and must not
  look, to pricing, like a full scan (the classic path used to ignore
  LIMIT/OFFSET on aggregates entirely — the regression pinned here).

Every case runs on both executors and asserts they agree exactly.
Both executors shape a SELECT with the same code, so agreement alone
no longer pins that code: ``EXPECTED`` spells out the ``rows``,
``rowids`` and ``touched`` each shape must produce.
"""

import pytest

from repro.engine import Database, Executor, VectorizedExecutor
from repro.engine.parser import parse


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, v FLOAT)"
    )
    database.insert_rows(
        "t", [(i, i % 3, float(i)) for i in range(1, 13)]
    )
    database.execute(
        "CREATE TABLE u (id INTEGER PRIMARY KEY, tid INTEGER)"
    )
    database.insert_rows("u", [(i, (i % 12) + 1) for i in range(1, 25)])
    return database


SLICES = ["", " LIMIT 0", " LIMIT 3", " LIMIT 3 OFFSET 2", " LIMIT 2 OFFSET 11"]

SHAPES = {
    "plain": "SELECT id FROM t WHERE grp != 1 ORDER BY id",
    "join": (
        "SELECT t.id, u.id FROM t JOIN u ON t.id = u.tid "
        "ORDER BY u.id"
    ),
    "aggregate": "SELECT COUNT(*), SUM(v) FROM t",
    "grouped": "SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp",
}


def both(db, sql):
    statement = parse(sql)
    classic = Executor(db.catalog).execute(statement)
    vectorized = VectorizedExecutor(db.catalog).execute(parse(sql))
    return classic, vectorized


@pytest.mark.parametrize("suffix", SLICES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_slicing_consistent_across_paths_and_executors(db, shape, suffix):
    sql = SHAPES[shape] + suffix
    classic, vectorized = both(db, sql)
    # executors agree on everything pricing reads
    assert repr(vectorized.rows) == repr(classic.rows), sql
    assert vectorized.rowids == classic.rowids, sql
    assert vectorized.touched == classic.touched, sql
    assert vectorized.rowcount == classic.rowcount, sql
    for result in (classic, vectorized):
        # a result trimmed to nothing charges nothing
        if not result.rows:
            assert result.rowids == [], sql
            assert result.touched == [], sql
        assert result.rowcount == len(result.rows), sql
        if shape in ("plain", "grouped"):
            # one rowid per emitted row on single-table paths
            assert len(result.rowids) == len(result.rows), sql


@pytest.mark.parametrize("shape", ["plain", "join", "grouped"])
def test_offset_slices_the_same_window_it_returns(db, shape):
    base = SHAPES[shape]
    full_classic, full_vectorized = both(db, base)
    window_classic, window_vectorized = both(db, base + " LIMIT 2 OFFSET 1")
    assert window_classic.rows == full_classic.rows[1:3]
    assert window_vectorized.rows == full_vectorized.rows[1:3]
    if shape != "join":
        assert window_classic.rowids == full_classic.rowids[1:3]
        assert window_vectorized.rowids == full_vectorized.rowids[1:3]


def test_aggregate_limit_zero_prices_as_empty(db):
    """The regression: LIMIT 0 aggregates used to charge a full scan."""
    for sql in (
        "SELECT COUNT(*) FROM t LIMIT 0",
        "SELECT SUM(v) FROM t LIMIT 0",
        "SELECT COUNT(*) FROM t LIMIT 1 OFFSET 1",
        "SELECT COUNT(*) FROM t WHERE grp = 0 LIMIT 0",
    ):
        classic, vectorized = both(db, sql)
        for result in (classic, vectorized):
            assert result.rows == [], sql
            assert result.rowids == [], sql
            assert result.touched == [], sql
            assert result.rowcount == 0, sql


def test_aggregate_within_limit_still_charges_all_aggregated_tuples(db):
    classic, vectorized = both(db, "SELECT COUNT(*) FROM t LIMIT 1")
    for result in (classic, vectorized):
        assert result.rows == [(12,)]
        # the single output row aggregates all 12 tuples — all charged
        assert len(result.touched) == 12


def t(*rowids):
    return [("t", rowid) for rowid in rowids]


EXPECTED = {
    "distinct keeps the first occurrence's tuples": (
        "SELECT DISTINCT grp FROM t WHERE id > 4",
        [(2,), (0,), (1,)],
        [5, 6, 7],
        t(5, 6, 7),
    ),
    "order by window": (
        "SELECT id, v FROM t ORDER BY v DESC LIMIT 3 OFFSET 2",
        [(10, 10.0), (9, 9.0), (8, 8.0)],
        [10, 9, 8],
        t(10, 9, 8),
    ),
    "aggregate under limit 1": (
        "SELECT COUNT(*), SUM(v) FROM t WHERE grp = 0 LIMIT 1",
        [(4, 30.0)],
        [3, 6, 9, 12],
        t(3, 6, 9, 12),
    ),
    "aggregate under limit 0": (
        "SELECT COUNT(*), SUM(v) FROM t WHERE grp = 0 LIMIT 0",
        [],
        [],
        [],
    ),
    "having on an alias, order by an aggregate's alias": (
        "SELECT grp, COUNT(*) AS n, SUM(v) AS total FROM t WHERE id <= 11 "
        "GROUP BY grp HAVING n > 3 ORDER BY total DESC",
        [(2, 4, 26.0), (1, 4, 22.0)],
        [2, 1],
        t(2, 5, 8, 11, 1, 4, 7, 10),
    ),
    "grouped plain item read from a joined table": (
        "SELECT t.grp, t.v, COUNT(*) AS n FROM u JOIN t ON u.tid = t.id "
        "WHERE u.id <= 6 GROUP BY t.grp",
        [(2, 2.0, 2), (0, 3.0, 2), (1, 4.0, 2)],
        [1, 2, 3],
        [
            ("u", 1), ("t", 2), ("u", 4), ("t", 5),
            ("u", 2), ("t", 3), ("u", 5), ("t", 6),
            ("u", 3), ("t", 4), ("u", 6), ("t", 7),
        ],
    ),
    "star over a left join: the unmatched side is NULL and untouched": (
        "SELECT * FROM t LEFT JOIN u ON t.grp = u.id WHERE t.id <= 3",
        [(1, 1, 1.0, 1, 2), (2, 2, 2.0, 2, 3), (3, 0, 3.0, None, None)],
        [1, 2, 3],
        [("t", 1), ("u", 1), ("t", 2), ("u", 2), ("t", 3)],
    ),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_shaping_produces_expected_rows_rowids_and_touched(db, case):
    sql, rows, rowids, touched = EXPECTED[case]
    classic, vectorized = both(db, sql)
    assert vectorized.execution_path == "vectorized", sql
    for result in (classic, vectorized):
        assert repr(result.rows) == repr(rows), sql
        assert result.rowids == rowids, sql
        assert result.touched == touched, sql
        assert result.rowcount == len(rows), sql
