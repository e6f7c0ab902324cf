"""The router's live merged view equals a fresh copy of the shards.

A scatter reads one merged engine that is seeded once from every
shard's heaps and then patched from their row events. These tests hold
it to the obvious reference — the same SELECT on a database rebuilt
from the shards with ``HeapTable.copy_from`` — after every statement of
a seeded stream (owner and broadcast writes, a rolled-back multi-row
INSERT, a CREATE TABLE, a promotion), check that the stream costs one
seed and one columnar build, and that concurrent writers are seen one
whole statement at a time.

Rows the view patches in append in commit order, not in shard order as
a rebuild places them, so without ORDER BY only the multiset of rows
(and ``touched``) is compared — and the order-sensitive float SUM is
left out.

The concurrency test has a ``stress`` variant; scale it with
``STRESS_MERGED_BATCHES`` (INSERT batches per writer) and
``STRESS_MERGED_SCATTERS`` (scatter threads)::

    STRESS_MERGED_BATCHES=300 STRESS_MERGED_SCATTERS=4 \\
        pytest tests/cluster/test_merged_view.py -m stress
"""

import itertools
import os
import random
import sys
import threading

import pytest

from repro.cluster import ClusterService
from repro.core import GuardConfig
from repro.engine.database import Database
from repro.engine.errors import EngineError
from repro.obs import AuditLog, Observability

CONFIG = dict(policy="popularity", cap=20.0, unit=600.0)
ITEMS, CATEGORIES = 60, 4
SCATTERS = {
    "items": (
        "SELECT id, cat, v FROM items ORDER BY id",
        "SELECT id, v FROM items WHERE v > 20",
        (
            "SELECT cat, COUNT(*), MIN(v), MAX(v) FROM items "
            "GROUP BY cat ORDER BY cat"
        ),
    ),
    "tags": ("SELECT id, label FROM tags ORDER BY id",),
}


def rebuild(cluster):
    """The reference: every shard's heaps copied into a fresh engine."""
    merged = Database()
    for shard in cluster.shards:
        with shard.database.read_view():
            catalog = shard.database.catalog
            for name in catalog.table_names():
                heap = catalog.table(name)
                if not merged.catalog.has_table(name):
                    merged.catalog.create_table(heap.schema)
                merged.catalog.table(name).copy_from(heap)
    return merged


def assert_scatters_match(cluster):
    reference = rebuild(cluster)
    for table, statements in SCATTERS.items():
        if not reference.catalog.has_table(table):
            continue
        for sql in statements:
            served = cluster.router.execute(sql, record=False).result
            want = reference.execute(sql)
            assert cluster.router._view is not None, sql
            if "ORDER BY" in sql:
                assert served.rows == want.rows, sql
            else:
                assert sorted(served.rows) == sorted(want.rows), sql
            assert sorted(served.touched) == sorted(want.touched), sql


def owned_ids(cluster, table, shard, candidates, count):
    """The first ``count`` of ``candidates`` that hash to ``shard``."""
    owned = (
        i
        for i in candidates
        if cluster.shard_map.shard_for(table, i) == shard
    )
    return [next(owned) for _ in range(count)]


def load_items(cluster):
    cluster.query(
        None,
        "CREATE TABLE items (id INTEGER PRIMARY KEY, cat INTEGER, v REAL)",
    )
    rows = ", ".join(
        f"({i}, {i % CATEGORIES}, {i * 0.5})" for i in range(1, ITEMS + 1)
    )
    cluster.query(None, f"INSERT INTO items VALUES {rows}")


def write_stream(cluster, rng, length, fresh_ids):
    """Seeded owner/broadcast writes, including a rolled-back INSERT.

    ``fresh_ids`` yields primary keys no row has had yet.
    """
    for _ in range(length):
        shape = rng.choice(
            ["insert", "update", "delete", "broadcast", "rollback"]
        )
        key = rng.randrange(1, 2 * ITEMS)
        if shape == "insert":
            new = next(fresh_ids)
            sql = (
                f"INSERT INTO items VALUES ({new}, {new % CATEGORIES}, "
                f"{rng.random() * 40:.2f})"
            )
        elif shape == "update":
            sql = f"UPDATE items SET v = v + 7 WHERE id = {key}"
        elif shape == "delete":
            sql = f"DELETE FROM items WHERE id = {key}"
        elif shape == "broadcast":
            sql = (
                f"DELETE FROM items WHERE cat = {rng.randrange(CATEGORIES)} "
                f"AND v > {rng.randrange(35, 45)}"
            )
        else:
            # Three rows for one shard, the middle one a key it holds:
            # the shard applies the first, fails, and rolls it back.
            shard = rng.randrange(cluster.shard_count)
            heap = cluster.shards[shard].database.table("items")
            existing = next(row[0] for _, row in heap.scan())
            first, last = owned_ids(cluster, "items", shard, fresh_ids, 2)
            sql = "INSERT INTO items VALUES " + ", ".join(
                f"({i}, 0, 1.0)" for i in (first, existing, last)
            )
        try:
            cluster.query(None, sql)
        except EngineError:
            assert shape == "rollback"
        else:
            assert shape != "rollback"
        yield sql


class TestLiveViewEqualsRebuild:
    def test_every_statement_of_a_seeded_stream(self, tmp_path):
        cluster = ClusterService(
            shard_count=3,
            guard_config=GuardConfig(**CONFIG),
            data_dir=tmp_path,
            replication_factor=2,
            gossip=False,
        )
        try:
            load_items(cluster)
            assert_scatters_match(cluster)
            rng, fresh_ids = random.Random(32), itertools.count(ITEMS + 1)
            for _ in write_stream(cluster, rng, 25, fresh_ids):
                assert_scatters_match(cluster)
            cluster.query(
                None, "CREATE TABLE tags (id INTEGER PRIMARY KEY, label TEXT)"
            )
            assert_scatters_match(cluster)
            for i in range(1, 9):
                cluster.query(None, f"INSERT INTO tags VALUES ({i}, 't{i}')")
                assert_scatters_match(cluster)
            # Promotion: the follower lags two inserts, so the promoted
            # heaps hold less than the view was patched with.
            cluster.monitor.ship_all()
            for i in owned_ids(cluster, "items", 0, fresh_ids, 2):
                cluster.query(None, f"INSERT INTO items VALUES ({i}, 0, 1.0)")
            assert_scatters_match(cluster)
            cluster.groups[0].primary.kill()
            assert cluster.monitor.probe()[0]["promoted"] == "shard-0-r1"
            assert_scatters_match(cluster)
            for _ in write_stream(cluster, rng, 25, fresh_ids):
                assert_scatters_match(cluster)
            stats = cluster.router.routing_stats()
            # First scatter, CREATE TABLE, promotion: one seed each.
            assert stats["merged_view_seeds"] == 3
            assert stats["merged_view_patches"] > 0
        finally:
            cluster.close()

    def test_writes_patch_and_never_rebuild(self):
        cluster = ClusterService(
            shard_count=4, guard_config=GuardConfig(**CONFIG), gossip=False
        )
        try:
            load_items(cluster)
            stream = write_stream(
                cluster, random.Random(7), 50, itertools.count(ITEMS + 1)
            )
            scatters = 0
            for _ in stream:
                statement = SCATTERS["items"][scatters % 3]
                cluster.router.execute(statement, record=False)
                scatters += 1
            assert scatters == 50
            stats = cluster.router.routing_stats()
            assert stats["merged_view_seeds"] == 1
            assert stats["merged_view_patches"] > 0
            view = cluster.router._view
            assert view.catalog.table("items").batch_builds == 1
            assert view.catalog.table("items").batch_drops == 0
            assert_scatters_match(cluster)
        finally:
            cluster.close()

    def test_close_removes_every_observer(self):
        cluster = ClusterService(
            shard_count=2, guard_config=GuardConfig(**CONFIG), gossip=False
        )
        load_items(cluster)
        heaps = [shard.database.table("items") for shard in cluster.shards]
        before = [list(heap._observers) for heap in heaps]
        cluster.query(None, "SELECT COUNT(*) FROM items")
        assert [len(heap._observers) for heap in heaps] == [
            len(observers) + 1 for observers in before
        ]
        cluster.close()
        assert [list(heap._observers) for heap in heaps] == before
        patches = cluster.router.merged_view_patches
        cluster.query(None, "UPDATE items SET v = 0 WHERE id = 1")
        assert cluster.router.merged_view_patches == patches

    def test_a_patch_that_cannot_apply_never_fails_the_write(
        self, tmp_path
    ):
        audit = AuditLog(str(tmp_path / "audit.jsonl"))
        cluster = ClusterService(
            shard_count=2,
            guard_config=GuardConfig(**CONFIG),
            obs=Observability(audit=audit),
            gossip=False,
        )
        try:
            load_items(cluster)
            cluster.query(None, "SELECT COUNT(*) FROM items")
            # Corrupt the view behind the router's back: the shard's
            # DELETE of this row then has nothing to mirror.
            owner = cluster.shards[cluster.shard_map.shard_for("items", 1)]
            rowid = owner.database.table("items").lookup_pk(1)
            cluster.router._view.table("items").delete(rowid)
            deleted = cluster.query(None, "DELETE FROM items WHERE id = 1")
            assert deleted.result.rowcount == 1
            assert cluster.router._view is None
            assert_scatters_match(cluster)
            assert cluster.router.merged_view_seeds == 2
        finally:
            cluster.close()
        audit.close()
        events = list(audit.replay())
        assert [e["event"] for e in events].count("cluster_view_dropped") == 1

    def test_counters_reach_health_and_the_registry(self):
        cluster = ClusterService(
            shard_count=2, guard_config=GuardConfig(**CONFIG), gossip=False
        )
        try:
            load_items(cluster)
            cluster.query(None, "SELECT COUNT(*) FROM items")
            cluster.query(None, "UPDATE items SET v = 0 WHERE cat = 1")
            routing = cluster.cluster_health()["routing"]
            assert routing["merged_view_seeds"] == 1
            assert routing["merged_view_patches"] == ITEMS // CATEGORIES
            registry = cluster.obs.registry
            seeds = registry.get("cluster_merged_view_seeds_total")
            patches = registry.get("cluster_merged_view_patches_total")
            assert seeds.snapshot()["value"] == 1
            assert patches.snapshot()["value"] == ITEMS // CATEGORIES
        finally:
            cluster.close()


def run_concurrent(batches, scatter_threads, rows_per_batch=5):
    """Two shard writers against scatter readers; returns the cluster."""
    cluster = ClusterService(
        shard_count=4, guard_config=GuardConfig(**CONFIG), gossip=False
    )
    cluster.query(
        None, "CREATE TABLE t (id INTEGER PRIMARY KEY, w INTEGER)"
    )
    writers = (0, 1)
    keys = {
        shard: owned_ids(
            cluster, "t", shard, itertools.count(1), batches * rows_per_batch
        )
        for shard in writers
    }
    errors = []
    done = threading.Event()
    seen = []

    def write(shard):
        try:
            ids = keys[shard]
            for start in range(0, len(ids), rows_per_batch):
                rows = ", ".join(
                    f"({i}, {shard})"
                    for i in ids[start : start + rows_per_batch]
                )
                cluster.query(None, f"INSERT INTO t VALUES {rows}")
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    def scatter():
        try:
            while not done.is_set():
                result = cluster.router.execute(
                    "SELECT w, COUNT(*) FROM t GROUP BY w",
                    record=False,
                    sleep=False,
                ).result
                for _, count in result.rows:
                    assert count % rows_per_batch == 0, result.rows
                seen.append(result.rows)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    readers = [
        threading.Thread(target=scatter) for _ in range(scatter_threads)
    ]
    writer_threads = [
        threading.Thread(target=write, args=(shard,)) for shard in writers
    ]
    interval = sys.getswitchinterval()
    # Switch threads every few bytecodes, so that a scatter not holding
    # the shard read locks would land inside a write within a few runs.
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + writer_threads:
            thread.start()
        for thread in writer_threads:
            thread.join(timeout=120)
        done.set()
        for thread in readers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + writer_threads)
    assert not errors, errors
    assert seen
    final = cluster.router.execute(
        "SELECT w, COUNT(*) FROM t GROUP BY w ORDER BY w", record=False
    ).result
    assert final.rows == [
        (shard, batches * rows_per_batch) for shard in writers
    ]
    assert sorted(final.touched) == sorted(
        rebuild(cluster).execute("SELECT w FROM t").touched
    )
    return cluster


class TestConcurrentWrites:
    def test_batches_are_seen_whole(self):
        cluster = run_concurrent(batches=20, scatter_threads=2)
        cluster.close()

    @pytest.mark.stress
    def test_batches_are_seen_whole_under_stress(self):
        cluster = run_concurrent(
            batches=int(os.environ.get("STRESS_MERGED_BATCHES", "10")),
            scatter_threads=int(
                os.environ.get("STRESS_MERGED_SCATTERS", "2")
            ),
        )
        cluster.close()
