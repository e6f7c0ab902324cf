"""Tests for transactions and statement-level atomicity."""

import pytest

from repro.engine import Database
from repro.engine.errors import ConstraintError
from repro.engine.transactions import TransactionError, UndoLog


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    return database


def rows(db):
    return db.query("SELECT * FROM t ORDER BY id")


class TestRollback:
    def test_rollback_insert(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (4, 'd')")
        db.execute("ROLLBACK")
        assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]

    def test_rollback_update_restores_values(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'X'")
        db.execute("ROLLBACK")
        assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]

    def test_rollback_delete_restores_rows_and_rowids(self, db):
        original_rowids = sorted(db.catalog.table("t").rowids())
        db.execute("BEGIN")
        db.execute("DELETE FROM t WHERE id = 2")
        db.execute("ROLLBACK")
        assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]
        assert sorted(db.catalog.table("t").rowids()) == original_rowids

    def test_rollback_mixed_sequence(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'X' WHERE id = 1")
        db.execute("DELETE FROM t WHERE id = 2")
        db.execute("INSERT INTO t VALUES (4, 'd')")
        db.execute("UPDATE t SET v = 'Y' WHERE id = 4")
        db.execute("ROLLBACK")
        assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]

    def test_rollback_keeps_indexes_consistent(self, db):
        db.execute("CREATE INDEX iv ON t (v)")
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'zzz' WHERE id = 1")
        db.execute("ROLLBACK")
        assert db.query("SELECT id FROM t WHERE v = 'a'") == [(1,)]
        assert db.query("SELECT id FROM t WHERE v = 'zzz'") == []

    def test_rollback_update_of_pk(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE t SET id = 99 WHERE id = 1")
        db.execute("ROLLBACK")
        assert db.query("SELECT v FROM t WHERE id = 1") == [("a",)]
        assert db.query("SELECT v FROM t WHERE id = 99") == []


class TestCommit:
    def test_commit_keeps_changes(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'X' WHERE id = 1")
        db.execute("COMMIT")
        assert db.query("SELECT v FROM t WHERE id = 1") == [("X",)]

    def test_commit_ends_transaction(self, db):
        db.execute("BEGIN")
        db.execute("COMMIT")
        assert not db.in_transaction

    def test_keyword_variants(self, db):
        db.execute("BEGIN TRANSACTION")
        db.execute("COMMIT WORK")
        db.execute("BEGIN WORK")
        db.execute("ROLLBACK TRANSACTION")

    def test_changes_after_commit_are_independent(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'X' WHERE id = 1")
        db.execute("COMMIT")
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'Y' WHERE id = 2")
        db.execute("ROLLBACK")
        assert rows(db) == [(1, "X"), (2, "b"), (3, "c")]


class TestControlErrors:
    def test_nested_begin_rejected(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError, match="already open"):
            db.execute("BEGIN")

    def test_commit_without_begin(self, db):
        with pytest.raises(TransactionError, match="no transaction"):
            db.execute("COMMIT")

    def test_rollback_without_begin(self, db):
        with pytest.raises(TransactionError, match="no transaction"):
            db.execute("ROLLBACK")

    def test_ddl_rejected_in_transaction(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError, match="DDL"):
            db.execute("CREATE TABLE u (a INTEGER)")
        with pytest.raises(TransactionError, match="DDL"):
            db.execute("DROP TABLE t")
        db.execute("ROLLBACK")

    def test_python_api(self, db):
        db.begin()
        assert db.in_transaction
        db.execute("DELETE FROM t")
        assert db.rollback() == 3
        assert len(rows(db)) == 3


class TestStatementAtomicity:
    def test_multi_row_insert_atomic(self, db):
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (4, 'd'), (5, 'e'), (1, 'dup')")
        # Rows 4 and 5 must not have survived the failed statement.
        assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]

    def test_update_hitting_pk_conflict_atomic(self, db):
        # id = id + 1 conflicts when 1 -> 2 while 2 still exists.
        with pytest.raises(ConstraintError):
            db.execute("UPDATE t SET id = id + 1 WHERE id < 3")
        assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]

    def test_atomicity_inside_transaction_preserves_prior_work(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE t SET v = 'X' WHERE id = 3")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (4, 'd'), (1, 'dup')")
        # The failed statement is gone; the earlier update is pending.
        assert db.query("SELECT v FROM t WHERE id = 3") == [("X",)]
        assert db.query("SELECT * FROM t WHERE id = 4") == []
        db.execute("ROLLBACK")
        assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]


class TestUndoLogUnit:
    def test_records_and_lengths(self, db):
        heap = db.catalog.table("t")
        log = UndoLog()
        log.attach(heap)
        heap.insert([7, "g"])
        heap.delete(1)
        assert len(log) == 2
        assert log.rollback() == 2
        assert db.query("SELECT v FROM t WHERE id = 1") == [("a",)]
        assert db.query("SELECT * FROM t WHERE id = 7") == []

    def test_commit_discards(self, db):
        heap = db.catalog.table("t")
        log = UndoLog()
        log.attach(heap)
        heap.insert([8, "h"])
        assert log.commit() == 1
        assert db.query("SELECT v FROM t WHERE id = 8") == [("h",)]

    def test_detach_stops_recording(self, db):
        heap = db.catalog.table("t")
        log = UndoLog()
        log.attach(heap)
        log.detach()
        heap.insert([9, "i"])
        assert len(log) == 0


class TestRestoreTable:
    def test_restore_occupied_rowid_rejected(self, db):
        heap = db.catalog.table("t")
        with pytest.raises(ConstraintError, match="occupied"):
            heap.restore(1, [9, "z"])

    def test_restore_duplicate_pk_rejected(self, db):
        heap = db.catalog.table("t")
        heap.delete(1)
        with pytest.raises(ConstraintError, match="duplicate"):
            heap.restore(1, [2, "z"])

    def test_restore_bumps_rowid_counter(self, db):
        heap = db.catalog.table("t")
        heap.restore(100, [50, "z"])
        assert heap.insert([51, "w"]) > 100


class TestCopyFrom:
    def test_copy_keeps_rowids_rows_and_indexes(self, db):
        db.execute("DELETE FROM t WHERE id = 2")
        target = Database()
        target.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        target.execute("CREATE INDEX idx_v ON t (v)")
        heap = target.catalog.table("t")
        heap.copy_from(db.catalog.table("t"))
        assert list(heap.scan()) == list(db.catalog.table("t").scan())
        assert heap.lookup_pk(3) == 3
        assert target.query("SELECT id FROM t WHERE v = 'c'") == [(3,)]
        assert heap.insert([4, "d"]) > 3

    def test_copy_rejects_clashing_rowid_and_key(self, db):
        source = db.catalog.table("t")
        other = Database()
        other.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        other.execute("INSERT INTO t VALUES (7, 'x')")  # rowid 1
        with pytest.raises(ConstraintError, match="occupied"):
            other.catalog.table("t").copy_from(source)
        other.catalog.table("t").restore(9, [1, "y"])
        other.catalog.table("t").delete(1)
        with pytest.raises(ConstraintError, match="duplicate"):
            other.catalog.table("t").copy_from(source)

    def test_copy_rejects_different_columns(self, db):
        other = Database()
        other.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        with pytest.raises(ConstraintError, match="different columns"):
            other.catalog.table("t").copy_from(db.catalog.table("t"))
