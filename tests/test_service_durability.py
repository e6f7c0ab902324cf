"""Service-level durability: journalled runs recover to identical state.

The acceptance bar for the durability subsystem: kill the service at an
arbitrary point in a write workload, recover, and the database *and*
the delay-relevant tracker state must match a reference that never
crashed — rowids preserved, eq. 1 delays unchanged.
"""

import json

import pytest

from repro.core import AccountPolicy
from repro.core.config import GuardConfig
from repro.engine.journal import MAGIC, scan_journal
from repro.engine.persistence import PersistenceError
from repro.service import DataProviderService
from repro.testing.faults import injected_faults, injector


def make_config():
    return GuardConfig(policy="both", update_time_constant=50.0, cap=10.0)


def make_policy():
    return AccountPolicy(registration_fee=2.5, daily_query_quota=1000)


def build_service(tmp_path, journal=True):
    return DataProviderService(
        guard_config=make_config(),
        account_policy=make_policy(),
        snapshot_path=tmp_path / "snapshot.json",
        journal_path=(tmp_path / "journal.bin") if journal else None,
    )


def run_workload(service):
    """A mixed workload: DDL, inserts, reads, updates, a transaction."""
    service.database.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, v TEXT)"
    )
    service.database.execute(
        "INSERT INTO items VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d')"
    )
    service.register("alice", subnet="10.0.0.0/8")
    service.register("bob", subnet="10.1.0.0/16")
    service.clock.advance(2.0)
    for _ in range(5):
        service.query("alice", "SELECT * FROM items WHERE id = 1")
    service.query("bob", "UPDATE items SET v = 'B' WHERE id = 2")
    service.clock.advance(3.0)
    service.query("bob", "UPDATE items SET v = 'BB' WHERE id = 2")
    service.query("alice", "DELETE FROM items WHERE id = 4")
    service.query(
        "alice", "INSERT INTO items VALUES (5, 'e')"
    )


def assert_equivalent(recovered, reference):
    """Recovered service state matches the reference in every delay input."""
    assert sorted(
        recovered.database.query("SELECT id, v FROM items")
    ) == sorted(reference.database.query("SELECT id, v FROM items"))
    assert (
        recovered.database.table("items").rowids()
        == reference.database.table("items").rowids()
    )
    assert dict(recovered.guard.last_update_times) == dict(
        reference.guard.last_update_times
    )
    for key in ("items", 1), ("items", 2), ("items", 5):
        assert recovered.guard.update_rates.rate(key) == pytest.approx(
            reference.guard.update_rates.rate(key)
        )


class TestRecoverFromJournalOnly:
    def test_database_and_update_trackers_match(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        recovered = DataProviderService.recover(
            snapshot_path=tmp_path / "snapshot.json",
            journal_path=tmp_path / "journal.bin",
            guard_config=make_config(),
            account_policy=make_policy(),
        )
        assert_equivalent(recovered, service)
        assert not recovered.last_recovery.snapshot_loaded
        assert recovered.last_recovery.replayed_statements > 0
        service.close()
        recovered.close()

    def test_clock_restored_past_last_journal_ts(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        recovered = DataProviderService.recover(
            journal_path=tmp_path / "journal.bin",
            guard_config=make_config(),
        )
        last_ts = max(
            entry.ts
            for entry in recovered.last_recovery.entries
            if entry.ts is not None
        )
        assert recovered.clock.now() >= last_ts
        service.close()
        recovered.close()

    def test_direct_engine_writes_do_not_feed_trackers(self, tmp_path):
        """Only guard-tracked statements rebuild update-rate state."""
        service = build_service(tmp_path)
        run_workload(service)
        # The CREATE/INSERT above went straight to the engine, not the
        # guard; a live run never recorded them as updates, so recovery
        # must not either.
        recovered = DataProviderService.recover(
            journal_path=tmp_path / "journal.bin",
            guard_config=make_config(),
        )
        assert ("items", 3) not in recovered.guard.last_update_times
        assert recovered.guard.update_rates.rate(("items", 3)) == 0.0
        service.close()
        recovered.close()


class TestCheckpoint:
    def test_checkpoint_truncates_journal(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        assert service.journal.size_bytes > len(MAGIC)
        service.checkpoint()
        assert service.journal.size_bytes == len(MAGIC)
        assert service.checkpoints_completed == 1
        service.close()

    def test_recovery_after_checkpoint_matches(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        service.checkpoint()
        # More traffic after the checkpoint: replay picks up the tail.
        service.query("bob", "UPDATE items SET v = 'post' WHERE id = 5")
        recovered = DataProviderService.recover(
            snapshot_path=tmp_path / "snapshot.json",
            journal_path=tmp_path / "journal.bin",
            guard_config=make_config(),
            account_policy=make_policy(),
        )
        assert recovered.last_recovery.snapshot_loaded
        assert recovered.last_recovery.replayed_statements == 1
        assert_equivalent(recovered, service)
        # Popularity (SELECT-driven, snapshot-only) survives via the
        # checkpoint, so eq. 1 delays match on the read side too.
        assert recovered.guard.delay_for("items", 1) == pytest.approx(
            service.guard.delay_for("items", 1)
        )
        service.close()
        recovered.close()

    def test_accounts_survive_checkpoint(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        service.checkpoint()
        recovered = DataProviderService.recover(
            snapshot_path=tmp_path / "snapshot.json",
            journal_path=tmp_path / "journal.bin",
            guard_config=make_config(),
            account_policy=make_policy(),
        )
        live = service.accounts
        rec = recovered.accounts
        assert set(rec.accounts) == {"alice", "bob"}
        assert rec.fees_collected == live.fees_collected
        assert rec.account("alice").subnet == "10.0.0.0/8"
        assert (
            rec.account("alice").queries_issued
            == live.account("alice").queries_issued
        )
        assert rec._quota_windows == live._quota_windows
        service.close()
        recovered.close()

    def test_no_path_configured_raises(self, tmp_path):
        service = DataProviderService(
            guard_config=make_config(),
            journal_path=tmp_path / "journal.bin",
        )
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError, match="checkpoint path"):
            service.checkpoint()
        service.close()

    def test_checkpoint_crash_window_idempotent(self, tmp_path):
        """Snapshot replaced but journal not yet truncated: no double-apply."""
        service = build_service(tmp_path)
        run_workload(service)
        # An export is a checkpoint that stops before the truncate.
        service.save(tmp_path / "snapshot.json")
        # "Crash" before truncate: every journal record is <= journal_seq.
        recovered = DataProviderService.recover(
            snapshot_path=tmp_path / "snapshot.json",
            journal_path=tmp_path / "journal.bin",
            guard_config=make_config(),
            account_policy=make_policy(),
        )
        assert recovered.last_recovery.replayed_statements == 0
        assert recovered.last_recovery.skipped_records > 0
        assert_equivalent(recovered, service)
        service.close()
        recovered.close()


class TestTornJournal:
    def test_torn_tail_truncated_not_fatal(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        journal_path = tmp_path / "journal.bin"
        with open(journal_path, "ab") as handle:
            handle.write(b"\x00\x00\x01\x99half-a-record")
        recovered = DataProviderService.recover(
            journal_path=journal_path,
            guard_config=make_config(),
            account_policy=make_policy(),
        )
        assert recovered.last_recovery.torn_bytes_truncated > 0
        assert sorted(
            recovered.database.query("SELECT id, v FROM items")
        ) == sorted(service.database.query("SELECT id, v FROM items"))
        # The re-attached journal accepts new commits after truncation.
        recovered.database.execute("INSERT INTO items VALUES (9, 'new')")
        again = DataProviderService.recover(
            journal_path=journal_path, guard_config=make_config()
        )
        assert again.database.query(
            "SELECT v FROM items WHERE id = 9"
        ) == [("new",)]
        for opened in (service, recovered, again):
            opened.close()


class TestSaveLoadFormats:
    def test_save_is_v2_and_atomic(self, tmp_path):
        service = build_service(tmp_path, journal=False)
        run_workload(service)
        path = tmp_path / "export.json"
        service.save(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-service-v2"
        assert payload["accounts"] is not None
        assert "journal_seq" in payload

    def test_v2_round_trip(self, tmp_path):
        service = build_service(tmp_path, journal=False)
        run_workload(service)
        path = tmp_path / "export.json"
        service.save(path)
        loaded = DataProviderService.recover(
            snapshot_path=path,
            guard_config=make_config(),
            account_policy=make_policy(),
        )
        assert_equivalent(loaded, service)
        assert loaded.accounts.fees_collected == (
            service.accounts.fees_collected
        )

    def test_v1_save_still_loads(self, tmp_path):
        """Pre-durability save files (v1) stay readable."""
        service = build_service(tmp_path, journal=False)
        run_workload(service)
        payload = service._dump_service()
        guard_v1 = dict(payload["guard"])
        guard_v1["format"] = "repro-guard-v1"
        guard_v1.pop("update_rates")
        v1 = {
            "format": "repro-service-v1",
            "database": payload["database"],
            "guard": guard_v1,
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(v1))
        loaded = DataProviderService.recover(
            snapshot_path=path, guard_config=make_config()
        )
        assert sorted(
            loaded.database.query("SELECT id, v FROM items")
        ) == sorted(service.database.query("SELECT id, v FROM items"))
        # v1 predates update-rate persistence: tracker starts empty.
        assert loaded.guard.update_rates.tracked_keys() == 0

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"format": "repro-service-v99"}))
        with pytest.raises(PersistenceError, match="unsupported"):
            DataProviderService.recover(snapshot_path=path)


class TestDurabilityMetrics:
    def test_journal_metrics_exposed(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        service.checkpoint()
        text = service.obs.registry.render_prometheus()
        assert "durability_journal_records_total" in text
        assert "durability_journal_fsyncs_total" in text
        assert "durability_checkpoints_total 1" in text
        service.close()

    def test_recovery_metrics_exposed(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        recovered = DataProviderService.recover(
            journal_path=tmp_path / "journal.bin",
            guard_config=make_config(),
        )
        text = recovered.obs.registry.render_prometheus()
        assert "durability_recovery_replayed_statements" in text
        assert "durability_recovery_seconds" in text
        service.close()
        recovered.close()

    def test_double_journal_attach_rejected(self, tmp_path):
        service = build_service(tmp_path)
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError, match="already attached"):
            service.enable_journal(tmp_path / "other.bin")
        service.close()


class TestMutationEpochDurability:
    """The result cache's epoch must survive crashes without rewinding.

    If recovery restarted the epoch at zero, a result cached against a
    pre-crash epoch could later be keyed current and serve pre-crash
    bytes for post-crash data.
    """

    def test_epoch_tracks_journal_during_run(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        assert service.database.mutation_epoch == service.journal.last_seq
        service.close()

    def test_checkpoint_records_epoch(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        service.checkpoint()
        payload = json.loads(
            (tmp_path / "snapshot.json").read_text()
        )
        assert payload["mutation_epoch"] == service.database.mutation_epoch
        service.close()

    def test_recovered_epoch_not_behind_crash_point(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        service.checkpoint()
        service.query("bob", "UPDATE items SET v = 'post' WHERE id = 2")
        pre_crash = service.database.mutation_epoch
        recovered = DataProviderService.recover(
            snapshot_path=tmp_path / "snapshot.json",
            journal_path=tmp_path / "journal.bin",
            guard_config=make_config(),
            account_policy=make_policy(),
        )
        assert recovered.database.mutation_epoch >= pre_crash
        assert (
            recovered.database.mutation_epoch
            == recovered.last_recovery.last_seq
        )
        service.close()
        recovered.close()

    def test_snapshot_only_recovery_restores_epoch(self, tmp_path):
        service = build_service(tmp_path)
        run_workload(service)
        service.checkpoint()
        epoch = service.database.mutation_epoch
        recovered = DataProviderService.recover(
            snapshot_path=tmp_path / "snapshot.json",
            guard_config=make_config(),
            account_policy=make_policy(),
        )
        assert recovered.database.mutation_epoch >= epoch
        service.close()


class TestFailedJournalAppend:
    """A write whose journal append fails is undone: the engine, the
    result cache and recovery all keep the state before it."""

    def build(self, tmp_path):
        service = DataProviderService(
            guard_config=GuardConfig(cap=10.0, result_cache_size=8),
            account_policy=None,
            journal_path=tmp_path / "journal.bin",
        )
        service.database.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
        )
        service.database.execute("INSERT INTO t VALUES (1, 'a')")
        return service

    def count(self, service):
        return service.query(None, "SELECT COUNT(*) FROM t")

    def assert_one_row_everywhere(self, service, tmp_path):
        assert service.database.row_count("t") == 1
        answer = self.count(service)
        assert answer.cached and answer.rows == [(1,)]
        service.close()
        recovered = DataProviderService.recover(
            journal_path=tmp_path / "journal.bin",
            guard_config=GuardConfig(cap=10.0),
            account_policy=None,
        )
        assert recovered.database.row_count("t") == 1
        # The journal still takes appends, numbered after the survivor.
        recovered.database.execute("INSERT INTO t VALUES (3, 'c')")
        recovered.close()
        scan = scan_journal(tmp_path / "journal.bin")
        assert [record.seq for record in scan.records] == [1, 2, 3]

    def test_autocommit_write_is_undone(self, tmp_path):
        service = self.build(tmp_path)
        assert not self.count(service).cached  # now cached at this epoch
        epoch = service.database.mutation_epoch
        with injected_faults():
            injector.fail("journal.fsync", OSError("disk gone"))
            with pytest.raises(OSError, match="disk gone"):
                service.query(None, "INSERT INTO t VALUES (2, 'b')")
        assert service.database.mutation_epoch == epoch
        self.assert_one_row_everywhere(service, tmp_path)

    def test_failed_commit_rolls_the_transaction_back(self, tmp_path):
        service = self.build(tmp_path)
        assert not self.count(service).cached
        database = service.database
        database.execute("BEGIN")
        database.execute("INSERT INTO t VALUES (2, 'b')")
        database.execute("UPDATE t SET v = 'z' WHERE id = 1")
        with injected_faults():
            injector.fail("journal.fsync", OSError("disk gone"))
            with pytest.raises(OSError, match="disk gone"):
                database.execute("COMMIT")
        assert not database.in_transaction
        assert database.query("SELECT v FROM t") == [("a",)]
        self.assert_one_row_everywhere(service, tmp_path)

    def test_drop_table_is_undone(self, tmp_path):
        service = self.build(tmp_path)
        database = service.database
        database.execute("CREATE INDEX t_v ON t (v)")
        assert not self.count(service).cached
        epoch = database.mutation_epoch
        with injected_faults():
            injector.fail("journal.fsync", OSError("disk gone"))
            with pytest.raises(OSError, match="disk gone"):
                service.query(None, "DROP TABLE t")
        assert database.catalog.has_table("t")
        assert database.mutation_epoch == epoch
        # The table came back with its index still tracking it.
        database.execute("INSERT INTO t VALUES (2, 'b')")
        index = database.catalog.index_on("t", "v")
        assert index is not None and index.lookup("b") == [2]
        database.execute("DELETE FROM t WHERE id = 2")
        service.close()
        recovered = DataProviderService.recover(
            journal_path=tmp_path / "journal.bin",
            guard_config=GuardConfig(cap=10.0),
            account_policy=None,
        )
        assert recovered.database.row_count("t") == 1
        recovered.close()

    def test_create_table_is_undone(self, tmp_path):
        service = self.build(tmp_path)
        assert not self.count(service).cached
        epoch = service.database.mutation_epoch
        with injected_faults():
            injector.fail("journal.fsync", OSError("disk gone"))
            with pytest.raises(OSError, match="disk gone"):
                service.query(None, "CREATE TABLE u (id INTEGER PRIMARY KEY)")
        assert not service.database.catalog.has_table("u")
        assert service.database.mutation_epoch == epoch
        self.assert_one_row_everywhere(service, tmp_path)
