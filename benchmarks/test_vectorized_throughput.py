"""Vectorized-vs-classic executor throughput on the guarded hot paths.

The columnar executor exists to make the *engine* share of Table 5's
cost split small: full scans, IN-probes, hash joins, and aggregates
are the statement shapes the replication workloads hammer. Each
benchmark times the vectorized path (pytest-benchmark, many rounds),
then times both executors with the same best-of-3 loop on the same
catalog and statement, asserts the speedup floor on that ratio, and
records it in ``extra_info`` so the uploaded ``BENCH_vectorized.json``
carries the before/after evidence. The floors also hold under
``--benchmark-disable``, where pytest-benchmark runs each case once
and keeps no statistics.

Floors are set from measured headroom (see EXPERIMENTS.md), not
aspiration: scans and join-aggregates clear 5x with a wide margin;
the projecting join and grouped aggregation spend most of their time
materialising output rows in Python, so their floors are lower.

Run with::

    pytest benchmarks/test_vectorized_throughput.py --benchmark-only
"""

import os
import time

import pytest

from repro.engine import Database, Executor, VectorizedExecutor
from repro.engine.parser import parse

SCAN_ROWS = int(os.environ.get("VEC_BENCH_ROWS", "50000"))
JOIN_ROWS = int(os.environ.get("VEC_BENCH_JOIN_ROWS", "20000"))
TIMING_REPEATS = 3


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.execute(
        "CREATE TABLE s (id INTEGER PRIMARY KEY, grp INTEGER, "
        "score FLOAT, flag BOOLEAN)"
    )
    database.insert_rows(
        "s",
        [
            (i, i % 100, (i * 7 % 1000) / 10.0, i % 2 == 0)
            for i in range(1, SCAN_ROWS + 1)
        ],
    )
    database.execute(
        "CREATE TABLE d (id INTEGER PRIMARY KEY, sid INTEGER, w FLOAT)"
    )
    database.insert_rows(
        "d",
        [
            (i, (i * 13 % SCAN_ROWS) + 1, float(i % 97))
            for i in range(1, JOIN_ROWS + 1)
        ],
    )
    return database


def _best_seconds(executor, statement):
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        started = time.perf_counter()
        executor.execute(statement)
        best = min(best, time.perf_counter() - started)
    return best


def _run_case(benchmark, db, sql, floor):
    statement = parse(sql)
    vectorized = VectorizedExecutor(db.catalog)
    expected = Executor(db.catalog).execute(statement)
    result = benchmark(vectorized.execute, statement)
    # throughput means nothing if the answers differ
    assert repr(result.rows) == repr(expected.rows)
    assert result.touched == expected.touched
    assert vectorized.path_counts["classic"] == 0, "fell back to classic"
    classic_seconds = _best_seconds(Executor(db.catalog), statement)
    vectorized_seconds = _best_seconds(vectorized, statement)
    ratio = classic_seconds / vectorized_seconds
    benchmark.extra_info["classic_seconds"] = classic_seconds
    benchmark.extra_info["speedup_x"] = round(ratio, 2)
    print(f"\n  {sql}\n  classic/vectorized = {ratio:.1f}x")
    assert ratio >= floor, (
        f"vectorized speedup {ratio:.1f}x under the {floor}x floor"
    )


class TestVectorizedSpeedup:
    def test_full_scan_filter(self, benchmark, db):
        _run_case(
            benchmark,
            db,
            "SELECT id FROM s WHERE score > 42.5 AND grp < 50",
            floor=5.0,
        )

    def test_scan_count(self, benchmark, db):
        _run_case(
            benchmark,
            db,
            "SELECT COUNT(*) FROM s WHERE score > 42.5",
            floor=5.0,
        )

    def test_in_probe(self, benchmark, db):
        _run_case(
            benchmark,
            db,
            "SELECT id FROM s WHERE grp IN (3, 17, 42, 99)",
            floor=5.0,
        )

    def test_join_aggregate(self, benchmark, db):
        _run_case(
            benchmark,
            db,
            "SELECT COUNT(*) FROM s JOIN d ON s.id = d.sid",
            floor=5.0,
        )

    def test_join_project(self, benchmark, db):
        # output-row materialisation dominates; floor reflects it
        _run_case(
            benchmark,
            db,
            "SELECT s.id, d.w FROM s JOIN d ON s.id = d.sid WHERE d.w > 50",
            floor=2.5,
        )

    def test_group_by(self, benchmark, db):
        _run_case(
            benchmark,
            db,
            "SELECT grp, COUNT(*), SUM(score) FROM s GROUP BY grp",
            floor=1.5,
        )
