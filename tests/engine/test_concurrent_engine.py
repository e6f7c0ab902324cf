"""Concurrency tests for the engine's read/write lock and Database.

The engine replaced "one statement at a time" with a writer-preferring
read/write lock owned by :class:`repro.engine.Database`: SELECTs share
the read side while DML/DDL take the exclusive write side. These tests
drive real reader and writer threads against one database and check the
invariants that lock is supposed to provide — no torn rows, no lost
index entries, writers not starved, and reentrancy for the owning
thread.
"""

import sys
import threading
import time

import pytest

from repro.engine import Database, LockError, ReadWriteLock
from repro.engine.vectorized import ColumnBatch


def make_db(rows=200):
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)"
    )
    database.insert_rows("t", [(i, i, i) for i in range(1, rows + 1)])
    database.execute("CREATE INDEX idx_a ON t (a)")
    return database


def run_threads(threads, timeout=30):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "worker thread deadlocked"


class TestReadWriteLockUnit:
    def test_read_reentrant(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():
                assert lock.active_readers >= 1

    def test_write_reentrant(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                assert lock.write_locked_now

    def test_writer_may_nest_reads(self):
        # A write transaction that internally calls a read helper (the
        # guard's population() inside a pipeline, say) must not
        # self-deadlock.
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.read_locked():
                assert lock.write_locked_now

    def test_sole_reader_may_upgrade(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.write_locked():
                assert lock.write_locked_now
            # Downgrade back to the still-held read side.
            assert not lock.write_locked_now
            assert lock.active_readers == 1

    def test_shared_read_upgrade_refused(self):
        lock = ReadWriteLock()
        other_holding = threading.Event()
        release_other = threading.Event()

        def other_reader():
            with lock.read_locked():
                other_holding.set()
                release_other.wait(timeout=10)

        thread = threading.Thread(target=other_reader)
        thread.start()
        assert other_holding.wait(timeout=10)
        try:
            with lock.read_locked():
                with pytest.raises(LockError):
                    lock.acquire_write()
        finally:
            release_other.set()
            thread.join(timeout=10)

    def test_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        writer_in = threading.Event()
        release_writer = threading.Event()
        reader_got_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                release_writer.wait(timeout=10)

        def reader():
            with lock.read_locked():
                reader_got_in.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert writer_in.wait(timeout=10)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        # The reader must be parked while the writer holds the lock.
        assert not reader_got_in.wait(timeout=0.2)
        release_writer.set()
        assert reader_got_in.wait(timeout=10)
        writer_thread.join(timeout=10)
        reader_thread.join(timeout=10)

    def test_telemetry_counts_acquisitions(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            pass
        with lock.write_locked():
            time.sleep(0.01)
        assert lock.read_acquisitions == 1
        assert lock.write_acquisitions == 1
        assert lock.write_hold_seconds >= 0.01


class TestConcurrentReadersAndWriters:
    def test_readers_see_no_torn_rows_under_updates(self):
        """UPDATE rewrites (a, b) together; a scan must never observe
        a row where a != b (half of an update)."""
        database = make_db(rows=100)
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                result = database.execute("SELECT a, b FROM t")
                for a, b in result.rows:
                    if a != b:
                        torn.append((a, b))
                        return

        def writer():
            for round_number in range(30):
                shift = (round_number + 1) * 1000
                database.execute(
                    f"UPDATE t SET a = id + {shift}, b = id + {shift}"
                )
            stop.set()

        readers = [threading.Thread(target=reader) for _ in range(4)]
        run_threads(readers + [threading.Thread(target=writer)])
        stop.set()
        assert torn == [], f"torn rows observed: {torn[:5]}"

    def test_joins_against_concurrent_inserts_are_consistent(self):
        """A self-join under the read lock sees one stable snapshot:
        every joined pair agrees, and the row count is one the table
        actually had at some instant (a multiple of the batch size)."""
        database = Database()
        database.execute(
            "CREATE TABLE left_t (id INTEGER PRIMARY KEY, v INTEGER)"
        )
        database.execute(
            "CREATE TABLE right_t (id INTEGER PRIMARY KEY, v INTEGER)"
        )
        batch = 10
        seed = [(i, i) for i in range(1, batch + 1)]
        database.insert_rows("left_t", seed)
        database.insert_rows("right_t", seed)
        stop = threading.Event()
        bad_counts = []

        def reader():
            while not stop.is_set():
                result = database.execute(
                    "SELECT left_t.id, right_t.v FROM left_t "
                    "JOIN right_t ON left_t.id = right_t.id"
                )
                if len(result.rows) % batch != 0:
                    bad_counts.append(len(result.rows))
                    return

        def writer():
            for round_number in range(1, 20):
                base = round_number * batch
                fresh = [(base + i, base + i) for i in range(1, batch + 1)]
                # Each side grows by a full batch inside one statement,
                # so any consistent join snapshot is a batch multiple.
                database.insert_rows("left_t", fresh)
                database.insert_rows("right_t", fresh)
            stop.set()

        readers = [threading.Thread(target=reader) for _ in range(3)]
        run_threads(readers + [threading.Thread(target=writer)])
        stop.set()
        assert bad_counts == [], f"inconsistent join sizes: {bad_counts[:5]}"

    def test_no_lost_index_entries_under_concurrent_traffic(self):
        """Index lookups during INSERT/UPDATE churn: afterwards the
        index answers exactly the rows a full scan finds."""
        database = make_db(rows=50)
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                # Planner uses idx_a for this equality predicate.
                database.execute("SELECT * FROM t WHERE a = 25")

        def inserter():
            for i in range(51, 151):
                database.execute(
                    f"INSERT INTO t VALUES ({i}, {i}, {i})"
                )

        def updater():
            for i in range(1, 51):
                database.execute(
                    f"UPDATE t SET a = {i + 500}, b = {i + 500} "
                    f"WHERE id = {i}"
                )

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=inserter))
        threads.append(threading.Thread(target=updater))
        for thread in threads[2:]:
            thread.start()
        for thread in threads[:2]:
            thread.start()
        for thread in threads[2:]:
            thread.join(timeout=30)
            assert not thread.is_alive()
        stop.set()
        for thread in threads[:2]:
            thread.join(timeout=30)
            assert not thread.is_alive()

        # Every tuple must be findable through the index.
        expected = dict(
            (row[0], row[1])
            for row in database.execute("SELECT id, a FROM t").rows
        )
        assert len(expected) == 150
        for rowid_value, a_value in expected.items():
            hit = database.execute(
                f"SELECT id FROM t WHERE a = {a_value}"
            )
            assert (rowid_value,) in hit.rows, (
                f"index lost id={rowid_value} (a={a_value})"
            )

    def test_patched_column_batch_never_shows_a_reader_half_a_write(self):
        """Writes patch the table's columnar view in place instead of
        replacing it, so the lock is now all that keeps a reader off a
        half-patched list or numpy array. The writer keeps a == b in
        every row and inserts and deletes rows two at a time, in one
        statement each; point, range and COUNT(*) readers on the
        vectorized tier must never see otherwise."""
        base = 200
        database = make_db(rows=base)
        table = database.catalog.table("t")
        database.execute("SELECT id FROM t WHERE a >= 0 AND b >= 0")
        stop = threading.Event()
        violations = []

        def check(sql, problem):
            result = database.execute(sql)
            message = problem(result.rows)
            if result.execution_path != "vectorized":
                message = f"served by {result.execution_path}"
            if message:
                violations.append((sql, message))
                stop.set()

        def point_reader():
            key = 0
            while not stop.is_set():
                key = key % base + 1
                check(
                    f"SELECT a, b FROM t WHERE id = {key}",
                    lambda rows: None
                    if len(rows) == 1 and rows[0][0] == rows[0][1]
                    else f"torn point read {rows}",
                )

        def range_reader():
            while not stop.is_set():
                check(
                    f"SELECT id, a, b FROM t WHERE id > {base} AND a = b",
                    lambda rows: None
                    if len(rows) % 2 == 0
                    and all(id_ == a == b for id_, a, b in rows)
                    else f"odd or torn range {rows[:4]}",
                )

        def count_reader():
            while not stop.is_set():
                check(
                    "SELECT COUNT(*) FROM t WHERE a = b",
                    lambda rows: None
                    if rows[0][0] >= base and rows[0][0] % 2 == 0
                    else f"count {rows}",
                )

        def writer():
            for round_number in range(150):
                if stop.is_set():
                    return
                key = round_number % base + 1
                shift = key + 1000 * (round_number + 1)
                database.execute(
                    f"UPDATE t SET a = {shift}, b = {shift} WHERE id = {key}"
                )
                low = base + 1 + 2 * round_number
                database.execute(
                    f"INSERT INTO t VALUES ({low}, {low}, {low}), "
                    f"({low + 1}, {low + 1}, {low + 1})"
                )
                if round_number % 3 == 2:
                    gone = low - 4
                    database.execute(
                        f"DELETE FROM t WHERE id >= {gone} AND id <= {gone + 1}"
                    )
                # Reading its own write back also keeps the view "read"
                # however the readers are scheduled, so its copy budget
                # never runs out and the patch count below is exact.
                check(
                    f"SELECT a, b FROM t WHERE id = {key}",
                    lambda rows: None
                    if rows == [(shift, shift)]
                    else f"lost update {rows}",
                )
            stop.set()

        readers = [
            threading.Thread(target=target)
            for target in (point_reader, range_reader, count_reader) * 2
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(readers + [threading.Thread(target=writer)])
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert violations == []
        # Every read was served by one view, patched by every write.
        assert table.batch_builds == 1 and table.batch_drops == 0
        assert table.batch_patches == 150 * 3 + 50 * 2
        live, fresh = table.column_batch(), ColumnBatch.from_table(table)
        assert live.rowids == fresh.rowids and live.columns == fresh.columns

    def test_writer_not_starved_by_reader_stream(self):
        """Writer preference: a writer queued behind a continuous
        stream of readers still gets in promptly."""
        database = make_db(rows=20)
        stop = threading.Event()
        wrote = threading.Event()

        def reader():
            while not stop.is_set():
                database.execute("SELECT * FROM t WHERE id = 1")

        def writer():
            database.execute("UPDATE t SET a = 999 WHERE id = 1")
            wrote.set()

        readers = [threading.Thread(target=reader) for _ in range(6)]
        for thread in readers:
            thread.start()
        time.sleep(0.05)  # readers saturating the lock
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        finished = wrote.wait(timeout=10)
        stop.set()
        writer_thread.join(timeout=10)
        for thread in readers:
            thread.join(timeout=10)
        assert finished, "writer starved behind reader stream"
        result = database.execute("SELECT a FROM t WHERE id = 1")
        assert result.rows == [(999,)]

    def test_transactions_are_exclusive(self):
        """The engine allows one open explicit transaction at a time;
        a concurrent BEGIN fails cleanly with TransactionError rather
        than corrupting the first transaction's undo state. Transactors
        that retry BEGIN therefore serialise, and disjoint-key updates
        all land (no lost updates)."""
        from repro.engine.transactions import TransactionError

        database = make_db(rows=10)

        def transactor(offset):
            deadline = time.monotonic() + 20
            while True:
                try:
                    database.execute("BEGIN")
                    break
                except TransactionError:
                    assert time.monotonic() < deadline, "BEGIN never won"
                    time.sleep(0.001)
            try:
                for i in range(1, 6):
                    key = offset + i
                    database.execute(
                        f"UPDATE t SET b = {key * 10} WHERE id = {key}"
                    )
            except Exception:
                database.execute("ROLLBACK")
                raise
            database.execute("COMMIT")

        # Disjoint key ranges: 1-5 and 6-10.
        run_threads(
            [
                threading.Thread(target=transactor, args=(0,)),
                threading.Thread(target=transactor, args=(5,)),
            ]
        )
        rows = database.execute("SELECT id, b FROM t").rows
        assert sorted(rows) == [(i, i * 10) for i in range(1, 11)]

    def test_read_view_reentrant_inside_read_view(self):
        database = make_db(rows=5)
        with database.read_view():
            with database.read_view():
                result = database.execute("SELECT * FROM t WHERE id = 1")
                assert result.rowcount == 1

    def test_write_txn_may_execute_reads_and_writes(self):
        database = make_db(rows=5)
        with database.write_txn():
            database.execute("UPDATE t SET a = 7 WHERE id = 1")
            result = database.execute("SELECT a FROM t WHERE id = 1")
            assert result.rows == [(7,)]

    def test_dump_waits_for_active_reader(self):
        """Persistence takes the write side: a dump started while a
        reader holds the lock completes only after the reader leaves,
        and captures a consistent snapshot."""
        from repro.engine import dump_database, load_database

        database = make_db(rows=10)
        reader_in = threading.Event()
        release_reader = threading.Event()
        payload_holder = {}

        def long_reader():
            with database.read_view():
                reader_in.set()
                release_reader.wait(timeout=10)

        def dumper():
            payload_holder["payload"] = dump_database(database)

        reader_thread = threading.Thread(target=long_reader)
        reader_thread.start()
        assert reader_in.wait(timeout=10)
        dump_thread = threading.Thread(target=dumper)
        dump_thread.start()
        assert not payload_holder, "dump proceeded under an active reader"
        release_reader.set()
        dump_thread.join(timeout=10)
        reader_thread.join(timeout=10)
        assert "payload" in payload_holder
        restored = load_database(payload_holder["payload"])
        assert restored.row_count("t") == 10
