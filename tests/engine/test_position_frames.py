"""Aggregated SELECTs on position frames equal the row tier.

An aggregated statement (GROUP BY, or any aggregate item) runs on a
``PositionFrame``: one position array per source. Filtering, the
int64 equi-join, grouping, COUNT/SUM/AVG and the footprint read the
arrays; everything else reads the frame as position tuples. Each case
below runs through the row tier and the columnar tier and must agree
on ``repr`` of the rows, ``rowids``, ``touched`` and the error, on
both sides of 48 rows and of 48 index-probe candidates, on a batch
whose rowids no longer ascend, and on a cluster's merged view. A guard
stream then checks that the delays priced off them are equal.
"""

import pytest

from repro.cluster import ClusterService
from repro.core import GuardConfig
from repro.core.clock import VirtualClock
from repro.core.guard import DelayGuard
from repro.engine import FOOTPRINT_FROM, Database, Executor, Footprint
from repro.engine.errors import EngineError
from repro.engine.parser import parse
from repro.engine.vectorized import VectorizedExecutor
from repro.engine.vectorized.executor import PositionFrame


def make_db(rows=120):
    db = Database()
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, f FLOAT, "
        "s TEXT, b BOOLEAN)"
    )
    db.execute("CREATE INDEX t_k ON t (k)")
    db.insert_rows(
        "t",
        [
            (
                i,
                None if i % 11 == 0 else i % 6,
                None if i % 7 == 0 else (i * 37 % 101) / 4,
                None if i % 13 == 0 else f"s{i % 5}",
                None if i % 17 == 0 else i % 3 == 0,
            )
            for i in range(1, rows + 1)
        ],
    )
    # duplicate and NULL keys; kf holds the same keys as FLOAT
    db.execute(
        "CREATE TABLE d (id INTEGER PRIMARY KEY, k INTEGER, kf FLOAT, "
        "region TEXT, flag BOOLEAN)"
    )
    db.insert_rows(
        "d",
        [
            (j, key, None if key is None else float(key), f"r{j % 3}", j % 2 == 0)
            for j, key in enumerate([0, 1, 1, 2, 3, 3, 3, None, 9, 1], start=1)
        ],
    )
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, region TEXT, w INTEGER)")
    db.insert_rows("e", [(1, "r0", 5), (2, "r1", None), (3, "r1", 7)])
    return db


def outcome(executor, sql):
    try:
        result = executor.execute(parse(sql))
    except EngineError as error:
        return ("error", type(error).__name__, str(error))
    return (repr(result.rows), result.rowids, list(result.touched))


def assert_tiers_agree(db, sql):
    classic = outcome(Executor(db.catalog), sql)
    vectorized = outcome(VectorizedExecutor(db.catalog), sql)
    assert vectorized == classic, sql
    return classic


#: template -> values of {n} that put it on both sides of 48 rows.
SINGLE = [
    "SELECT COUNT(*) FROM t WHERE id <= {n}",
    "SELECT COUNT(k), COUNT(s), COUNT(b) FROM t WHERE id <= {n}",
    "SELECT SUM(k), AVG(k), SUM(f), AVG(f) FROM t WHERE id <= {n}",
    "SELECT MIN(f), MAX(s), COUNT(DISTINCT k), SUM(DISTINCT f) "
    "FROM t WHERE id <= {n}",
    "SELECT SUM(k * 2), AVG(f + k) FROM t WHERE id <= {n}",
    "SELECT k, COUNT(*), SUM(f), AVG(k) FROM t WHERE id <= {n} GROUP BY k",
    "SELECT b, s, COUNT(*), AVG(f) FROM t WHERE id <= {n} GROUP BY b, s",
    "SELECT f, COUNT(*) FROM t WHERE id <= {n} GROUP BY f",
    "SELECT k + 1 AS kk, COUNT(*) FROM t WHERE id <= {n} GROUP BY k + 1",
    "SELECT k, MIN(s), MAX(f), COUNT(DISTINCT s) FROM t WHERE id <= {n} "
    "GROUP BY k",
    "SELECT k, COUNT(*) AS c FROM t WHERE id <= {n} GROUP BY k "
    "HAVING c > 3",
    "SELECT k, s, COUNT(*) AS c FROM t WHERE id <= {n} GROUP BY k "
    "HAVING s = 's1' OR c > 8",
    "SELECT k, COUNT(*) AS c FROM t WHERE id <= {n} GROUP BY k "
    "ORDER BY c DESC, k LIMIT 3 OFFSET 1",
    "SELECT COUNT(*), SUM(f) FROM t WHERE id <= {n} LIMIT 0",
    "SELECT COUNT(*) FROM t WHERE id <= {n} LIMIT 1 OFFSET 1",
    "SELECT SUM(s) FROM t WHERE id <= {n}",
    "SELECT k, AVG(b) FROM t WHERE id <= {n} GROUP BY k",
    "SELECT COUNT(*), AVG(f) FROM t WHERE id <= {n} AND id < 0",
    "SELECT k, COUNT(*) FROM t WHERE id <= {n} AND f > 1000 GROUP BY k",
    "SELECT COUNT(*) FROM t",
    "SELECT k, COUNT(*) FROM t GROUP BY k",
]

#: probes through the index on k, about 20 candidates per key: the key
#: lists put them on both sides of 48 candidates.
KEYS = ["2", "1.0", "1, 2", "0, 4, 5", "1, 2, 3, 5", "99"]
PROBED = [
    sql.replace("{keys}", keys)
    for keys in KEYS
    for sql in (
        "SELECT COUNT(*), SUM(f), AVG(id) FROM t WHERE k IN ({keys})",
        "SELECT COUNT(*), AVG(f) FROM t WHERE k IN ({keys}) AND f > 5",
        "SELECT s, COUNT(*), SUM(k) FROM t WHERE k IN ({keys}) GROUP BY s",
        "SELECT k, MAX(f), COUNT(s) FROM t WHERE k IN ({keys}) GROUP BY k",
    )
] + [
    "SELECT COUNT(*), MAX(f) FROM t WHERE k >= {n} / 20",
    "SELECT COUNT(*), AVG(f) FROM t WHERE k = 2 AND id <= {n}",
]

JOINS = [
    # inner, int64 keys, duplicate right keys
    "SELECT d.region, COUNT(*), SUM(t.f), AVG(t.k) FROM t "
    "JOIN d ON t.k = d.k WHERE t.id <= {n} GROUP BY d.region",
    # LEFT, unmatched and NULL keys
    "SELECT d.region, COUNT(*), COUNT(d.id), SUM(d.k) FROM t "
    "LEFT JOIN d ON t.k = d.k WHERE t.id <= {n} GROUP BY d.region",
    "SELECT COUNT(*), COUNT(d.k), AVG(t.f) FROM t LEFT JOIN d "
    "ON d.k = t.k WHERE t.id <= {n}",
    # INTEGER = FLOAT, and 1 / 1.0 / True through the dict
    "SELECT COUNT(*), SUM(t.id) FROM t JOIN d ON t.k = d.kf "
    "WHERE t.id <= {n}",
    "SELECT d.flag, COUNT(*) FROM t JOIN d ON t.b = d.k "
    "WHERE t.id <= {n} GROUP BY d.flag",
    "SELECT COUNT(*) FROM t LEFT JOIN d ON t.b = d.flag WHERE t.id <= {n}",
    # self-join
    "SELECT a.k, COUNT(*), SUM(b.f) FROM t a JOIN t b ON a.k = b.k "
    "WHERE a.id <= {n} AND b.id <= 30 GROUP BY a.k",
    # three-way, the last join on TEXT keys, then a residual WHERE
    "SELECT e.w, COUNT(*), SUM(t.f) FROM t JOIN d ON t.k = d.k "
    "LEFT JOIN e ON d.region = e.region WHERE t.id <= {n} GROUP BY e.w",
    "SELECT d.region, COUNT(*) FROM t JOIN d ON t.k = d.k "
    "WHERE t.id <= {n} AND (t.f > d.kf OR d.region = 'r1') "
    "GROUP BY d.region",
    # a nested-loop ON
    "SELECT COUNT(*), AVG(d.kf) FROM t JOIN d ON t.k < d.k "
    "WHERE t.id <= {n}",
    # empty right side of a LEFT join feeding another join
    "SELECT COUNT(*), COUNT(x.k) FROM t LEFT JOIN d x ON t.k = x.k + 100 "
    "JOIN d y ON x.k = y.k WHERE t.id <= {n}",
    "SELECT COUNT(*), COUNT(x.k) FROM t LEFT JOIN d x ON t.k = x.k + 100 "
    "LEFT JOIN d y ON x.k = y.k WHERE t.id <= {n}",
    "SELECT region, w FROM e JOIN d ON e.w = d.k GROUP BY region",
]

SIZES = (5, 40, 47, 48, 49, 120)


@pytest.fixture(scope="module")
def db():
    return make_db()


@pytest.mark.parametrize("template", SINGLE + PROBED + JOINS)
def test_tiers_agree_on_both_sides_of_48(db, template):
    for n in SIZES:
        assert_tiers_agree(db, template.format(n=n))


def test_probes_reach_both_sides_of_48_candidates(db, monkeypatch):
    from repro.engine.vectorized import ColumnBatch

    calls = []
    original = ColumnBatch.positions_of
    monkeypatch.setattr(
        ColumnBatch,
        "positions_of",
        lambda self, rowids: calls.append(len(rowids)) or original(self, rowids),
    )
    executor = VectorizedExecutor(db.catalog)
    small = executor.execute(parse("SELECT COUNT(*) FROM t WHERE k IN (1, 2)"))
    assert calls == [] and type(small.touched) is list
    large = executor.execute(parse("SELECT COUNT(*) FROM t WHERE k IN (1, 2, 3)"))
    assert calls == [55] and isinstance(large.touched, Footprint)


@pytest.mark.parametrize("template", [SINGLE[0], SINGLE[5], JOINS[0]])
def test_the_sizes_reach_both_sides_of_48(db, template):
    kinds = {
        isinstance(
            VectorizedExecutor(db.catalog)
            .execute(parse(template.format(n=n)))
            .touched,
            Footprint,
        )
        for n in SIZES
    }
    assert kinds == {False, True}


def test_aggregated_statements_run_on_frames(db, monkeypatch):
    seen = []
    original = VectorizedExecutor._shape

    def spy(self, statement, sources, reader, rows):
        seen.append(type(rows))
        return original(self, statement, sources, reader, rows)

    monkeypatch.setattr(VectorizedExecutor, "_shape", spy)
    executor = VectorizedExecutor(db.catalog)
    executor.execute(parse(SINGLE[0].format(n=100)))
    executor.execute(parse(JOINS[0].format(n=100)))
    executor.execute(parse("SELECT id FROM t WHERE k = 2"))
    assert seen == [PositionFrame, PositionFrame, list]


def test_large_probe_touches_a_footprint(db):
    result = VectorizedExecutor(db.catalog).execute(
        parse("SELECT COUNT(*) FROM t WHERE k IN (1, 2, 3)")
    )
    assert isinstance(result.touched, Footprint)
    assert_tiers_agree(db, "SELECT COUNT(*) FROM t WHERE k IN (1, 2, 3)")


def test_a_batch_made_non_ascending_by_an_undone_delete():
    db = make_db()
    db.execute("SELECT COUNT(*) FROM t")  # build the batch and rowid array
    for rowid in (3, 60, 90):
        db.execute("BEGIN")
        db.execute(f"DELETE FROM t WHERE id = {rowid}")
        db.execute("ROLLBACK")
    batch = db.catalog.table("t").column_batch()
    assert batch.rowids != sorted(batch.rowids)
    for template in SINGLE + PROBED + JOINS:
        for n in (40, 120):
            assert_tiers_agree(db, template.format(n=n))


def test_the_cluster_merged_view():
    """Scatter reads run against a merged engine whose heaps interleave
    the shards' strided rowids (not ascending)."""
    config = GuardConfig(policy="popularity", cap=5.0)
    cluster = ClusterService(shard_count=3, guard_config=config, gossip=False)
    try:
        source = make_db()
        for sql in (
            "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, f FLOAT, "
            "s TEXT, b BOOLEAN)",
            "CREATE INDEX t_k ON t (k)",
            "CREATE TABLE d (id INTEGER PRIMARY KEY, k INTEGER, kf FLOAT, "
            "region TEXT, flag BOOLEAN)",
        ):
            cluster.query(None, sql)
        for name in ("t", "d"):
            for _rowid, row in source.catalog.table(name).scan():
                values = ", ".join(
                    "NULL" if v is None else repr(v).upper() if isinstance(v, bool)
                    else repr(v)
                    for v in row
                )
                cluster.query(None, f"INSERT INTO {name} VALUES ({values})")
        cluster.query(None, "SELECT COUNT(*) FROM t")
        merged = cluster.router._view
        assert merged is not None
        rowids = merged.catalog.table("t").column_batch().rowids
        assert rowids != sorted(rowids)
        for template in SINGLE + PROBED + JOINS[:7]:
            if " e " in template or "JOIN e" in template:
                continue
            for n in (40, 120):
                assert_tiers_agree(merged, template.format(n=n))
    finally:
        cluster.close()


def test_guard_priced_delays_are_equal():
    def guard(vectorized):
        return DelayGuard(
            make_db(),
            config=GuardConfig(
                policy="popularity", cap=5.0, vectorized_execution=vectorized
            ),
            clock=VirtualClock(),
        )

    columnar, classic = guard(True), guard(False)
    stream = [
        template.format(n=n)
        for n in SIZES
        for template in SINGLE + PROBED + JOINS
    ]
    for sql in stream * 2:
        outcomes = []
        for one in (columnar, classic):
            try:
                answer = one.execute(sql, sleep=False)
            except EngineError as error:
                outcomes.append(str(error))
            else:
                outcomes.append((repr(answer.result.rows), answer.delay))
        assert outcomes[0] == outcomes[1], sql
    assert list(columnar.popularity.store.items()) == list(
        classic.popularity.store.items()
    )
