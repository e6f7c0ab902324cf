"""Tests for the write-ahead journal: framing, torn tails, checkpoints."""

import pytest

from repro.engine import (
    Database,
    JournalError,
    WriteAheadJournal,
    replay_journal,
    scan_journal,
)
from repro.engine.journal import MAGIC, _HEADER, JournalFollower
from repro.service import DataProviderService
from repro.testing.faults import injected_faults, injector


@pytest.fixture
def path(tmp_path):
    return tmp_path / "journal.bin"


class TestFraming:
    def test_round_trip(self, path):
        with WriteAheadJournal(path) as journal:
            journal.append({"k": "sql", "sql": "INSERT INTO t VALUES (1)"})
            journal.append({"k": "sql", "sql": "DELETE FROM t WHERE id = 1"})
        scan = scan_journal(path)
        assert not scan.torn
        assert [r.payload["sql"] for r in scan.records] == [
            "INSERT INTO t VALUES (1)",
            "DELETE FROM t WHERE id = 1",
        ]

    def test_sequence_numbers_monotonic(self, path):
        with WriteAheadJournal(path) as journal:
            first = journal.append({"k": "sql", "sql": "a"})
            batch = journal.append_many(
                [{"k": "sql", "sql": "b"}, {"k": "sql", "sql": "c"}]
            )
        assert first == 1
        assert batch == [2, 3]
        assert [r.seq for r in scan_journal(path).records] == [1, 2, 3]

    def test_missing_file_scans_empty(self, path):
        scan = scan_journal(path)
        assert scan.records == []
        assert not scan.torn
        assert scan.last_seq == 0

    def test_wrong_file_raises(self, path):
        path.write_bytes(b'{"this": "is json, not a journal"}')
        with pytest.raises(JournalError):
            scan_journal(path)

    def test_clock_stamps_ts(self, path):
        class FixedClock:
            def now(self):
                return 42.5

        with WriteAheadJournal(path, clock=FixedClock()) as journal:
            journal.append({"k": "sql", "sql": "a"})
        assert scan_journal(path).records[0].payload["ts"] == 42.5

    def test_append_many_single_fsync(self, path):
        with WriteAheadJournal(path) as journal:
            baseline = journal.fsyncs
            journal.append_many([{"k": "sql", "sql": s} for s in "abcde"])
            assert journal.fsyncs == baseline + 1

    def test_closed_journal_rejects_appends(self, path):
        journal = WriteAheadJournal(path)
        journal.close()
        with pytest.raises(JournalError):
            journal.append({"k": "sql", "sql": "a"})


class TestFailedAppend:
    """An append whose write, flush or fsync fails leaves no trace."""

    def test_failed_fsync_cuts_the_batch_back_out(self, path):
        with WriteAheadJournal(path) as journal:
            journal.append({"k": "sql", "sql": "a"})
            size = journal.size_bytes
            with injected_faults():
                injector.fail("journal.fsync", OSError("disk gone"))
                with pytest.raises(OSError, match="disk gone"):
                    journal.append_many(
                        [{"k": "sql", "sql": "b"}, {"k": "sql", "sql": "c"}]
                    )
            assert path.stat().st_size == size == journal.size_bytes
            assert journal.last_seq == 1
            assert journal.append({"k": "sql", "sql": "d"}) == 2
        scan = scan_journal(path)
        assert not scan.torn
        assert [r.payload["sql"] for r in scan.records] == ["a", "d"]

    def test_a_failed_cut_refuses_later_appends(self, path):
        journal = WriteAheadJournal(path)
        journal.append({"k": "sql", "sql": "a"})
        with injected_faults():
            # The append's fsync fails, then the cut's own fsync.
            injector.fail("journal.fsync", OSError("disk gone"), times=2)
            with pytest.raises(OSError):
                journal.append({"k": "sql", "sql": "b"})
        with pytest.raises(JournalError, match="no more appends"):
            journal.append({"k": "sql", "sql": "c"})
        journal.close()

    def test_follower_reads_no_further_than_the_limit(self, path):
        with WriteAheadJournal(path) as journal:
            journal.append({"k": "sql", "sql": "a"})
            synced = journal.size_bytes
            journal.append({"k": "sql", "sql": "b"})
            follower = JournalFollower(path)
            assert [r.seq for r in follower.poll(synced)] == [1]
            assert [r.seq for r in follower.poll(journal.size_bytes)] == [2]


class TestReopen:
    def test_sequence_continues_across_reopen(self, path):
        with WriteAheadJournal(path) as journal:
            journal.append({"k": "sql", "sql": "a"})
            journal.append({"k": "sql", "sql": "b"})
        with WriteAheadJournal(path) as journal:
            assert journal.last_seq == 2
            assert journal.append({"k": "sql", "sql": "c"}) == 3

    def test_sequence_continues_across_truncate(self, path):
        with WriteAheadJournal(path) as journal:
            journal.append({"k": "sql", "sql": "a"})
            journal.append({"k": "sql", "sql": "b"})
            journal.truncate()
            assert journal.size_bytes == len(MAGIC)
            # seq keeps counting: snapshot_seq comparisons stay valid.
            assert journal.append({"k": "sql", "sql": "c"}) == 3
        assert [r.seq for r in scan_journal(path).records] == [3]


class TestTornTails:
    def _write_valid(self, path, count=3):
        with WriteAheadJournal(path) as journal:
            for index in range(count):
                journal.append({"k": "sql", "sql": f"stmt-{index}"})
        return path.read_bytes()

    def test_truncated_payload_detected(self, path):
        data = self._write_valid(path)
        path.write_bytes(data[:-3])
        scan = scan_journal(path)
        assert scan.torn
        assert len(scan.records) == 2

    def test_truncated_header_detected(self, path):
        data = self._write_valid(path, count=1)
        path.write_bytes(data + b"\x00\x00")
        scan = scan_journal(path)
        assert scan.torn
        assert len(scan.records) == 1

    def test_corrupt_checksum_detected(self, path):
        data = bytearray(self._write_valid(path))
        data[-1] ^= 0xFF  # flip a byte in the last payload
        path.write_bytes(bytes(data))
        scan = scan_journal(path)
        assert scan.torn
        assert len(scan.records) == 2

    def test_absurd_length_treated_as_corruption(self, path):
        data = self._write_valid(path, count=1)
        bogus = _HEADER.pack(2**31, 0)
        path.write_bytes(data + bogus + b"xx")
        scan = scan_journal(path)
        assert scan.torn
        assert len(scan.records) == 1

    def test_reopen_truncates_torn_tail(self, path):
        data = self._write_valid(path)
        path.write_bytes(data + b"\x01\x02\x03garbage")
        with WriteAheadJournal(path) as journal:
            assert journal.torn_bytes_truncated > 0
            assert journal.last_seq == 3
            journal.append({"k": "sql", "sql": "after"})
        scan = scan_journal(path)
        assert not scan.torn
        assert [r.seq for r in scan.records] == [1, 2, 3, 4]

    def test_partial_magic_starts_fresh(self, path):
        path.write_bytes(MAGIC[:3])
        with WriteAheadJournal(path) as journal:
            assert journal.last_seq == 0
            journal.append({"k": "sql", "sql": "a"})
        assert len(scan_journal(path).records) == 1

    def test_every_truncation_point_recovers(self, path, tmp_path):
        """Cutting the journal at *any* byte yields a valid prefix."""
        data = self._write_valid(path)
        copy = tmp_path / "cut.bin"
        for cut in range(len(MAGIC), len(data)):
            copy.write_bytes(data[:cut])
            scan = scan_journal(copy)
            replayed = [r.payload["sql"] for r in scan.records]
            assert replayed == [f"stmt-{i}" for i in range(len(replayed))]


def replayed(path):
    """A fresh database rebuilt from the journal at ``path`` alone."""
    database = Database()
    replay_journal(database, path)
    return database


class TestDatabaseIntegration:
    @pytest.fixture(autouse=True)
    def _close_opened(self):
        self._opened = []
        yield
        for opened in self._opened:
            opened.close()

    @staticmethod
    def _seed(database):
        database.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
        )
        database.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")

    def _build(self, path):
        database = Database()
        journal = WriteAheadJournal(path)
        self._opened.append(journal)
        database.attach_journal(journal)
        self._seed(database)
        return database, journal

    def _build_service(self, path, snapshot):
        service = DataProviderService(
            snapshot_path=snapshot, journal_path=path
        )
        self._opened.append(service)
        self._seed(service.database)
        return service

    def _recover(self, path, snapshot):
        recovered = DataProviderService.recover(
            snapshot_path=snapshot, journal_path=path
        )
        self._opened.append(recovered)
        return recovered.database, recovered.last_recovery

    def test_recovery_replays_committed_statements(self, path):
        database, _ = self._build(path)
        database.execute("UPDATE t SET v = 'ONE' WHERE id = 1")
        recovered, report = self._recover(path, None)
        assert recovered.query("SELECT * FROM t ORDER BY id") == (
            database.query("SELECT * FROM t ORDER BY id")
        )
        assert report.replayed_statements == 3
        assert not report.snapshot_loaded

    def test_rowids_preserved_through_recovery(self, path):
        database, _ = self._build(path)
        database.execute("DELETE FROM t WHERE id = 1")
        database.execute("INSERT INTO t VALUES (3, 'three')")
        recovered = replayed(path)
        assert recovered.table("t").rowids() == database.table("t").rowids()

    def test_rolled_back_transaction_not_journalled(self, path):
        database, journal = self._build(path)
        database.execute("BEGIN")
        database.execute("INSERT INTO t VALUES (9, 'discarded')")
        database.execute("ROLLBACK")
        recovered = replayed(path)
        assert recovered.query("SELECT id FROM t ORDER BY id") == [(1,), (2,)]

    def test_open_transaction_lost_on_crash(self, path):
        database, journal = self._build(path)
        database.execute("BEGIN")
        database.execute("INSERT INTO t VALUES (9, 'uncommitted')")
        # Crash before COMMIT: the journal holds only committed work.
        recovered = replayed(path)
        assert recovered.query("SELECT id FROM t ORDER BY id") == [(1,), (2,)]

    def test_committed_transaction_is_one_batch(self, path):
        database, journal = self._build(path)
        fsyncs_before = journal.fsyncs
        database.execute("BEGIN")
        database.execute("INSERT INTO t VALUES (3, 'x')")
        database.execute("INSERT INTO t VALUES (4, 'y')")
        database.execute("COMMIT")
        assert journal.fsyncs == fsyncs_before + 1
        recovered = replayed(path)
        assert recovered.row_count("t") == 4

    def test_zero_row_dml_not_journalled(self, path):
        database, journal = self._build(path)
        before = journal.records_written
        database.execute("UPDATE t SET v = 'z' WHERE id = 999")
        assert journal.records_written == before

    def test_bulk_insert_journalled(self, path):
        database, _ = self._build(path)
        database.insert_rows("t", [[3, "three"], [4, "four"]])
        recovered = replayed(path)
        assert recovered.row_count("t") == 4
        assert recovered.table("t").rowids() == database.table("t").rowids()

    def test_checkpoint_truncates_and_recovery_skips(self, path, tmp_path):
        snapshot = tmp_path / "snapshot.json"
        service = self._build_service(path, snapshot)
        database, journal = service.database, service.journal
        seq = service.checkpoint()
        assert seq == journal.last_seq
        assert journal.size_bytes == len(MAGIC)
        database.execute("INSERT INTO t VALUES (3, 'post')")
        recovered, report = self._recover(path, snapshot)
        assert report.snapshot_loaded
        assert report.snapshot_seq == seq
        assert report.replayed_statements == 1
        assert recovered.query("SELECT id FROM t ORDER BY id") == (
            database.query("SELECT id FROM t ORDER BY id")
        )

    def test_crash_between_snapshot_and_truncate_not_double_applied(
        self, path, tmp_path
    ):
        """The checkpoint crash window: snapshot written, journal intact."""
        snapshot = tmp_path / "snapshot.json"
        service = self._build_service(path, snapshot)
        database = service.database
        # An export records journal_seq like a checkpoint but never
        # truncates: "crash" here. Recovery must skip the records the
        # snapshot already contains.
        service.save(snapshot)
        recovered, report = self._recover(path, snapshot)
        assert report.skipped_records == 2
        assert report.replayed_statements == 0
        assert recovered.query("SELECT * FROM t ORDER BY id") == (
            database.query("SELECT * FROM t ORDER BY id")
        )

    def test_preparsed_statement_without_source_rejected(self, path):
        from repro.engine.parser.parser import parse

        database, _ = self._build(path)
        statement = parse("INSERT INTO t VALUES (7, 'seven')")
        with pytest.raises(JournalError):
            database.execute(statement)

    def test_preparsed_select_needs_no_source(self, path):
        from repro.engine.parser.parser import parse

        database, _ = self._build(path)
        statement = parse("SELECT * FROM t")
        assert len(database.execute(statement).rows) == 2
