"""Tests for the DataProviderService facade."""

import pytest

from repro.core import AccessDenied, AccountPolicy, GuardConfig, VirtualClock
from repro.core.errors import ConfigError
from repro.engine.persistence import PersistenceError
from repro.service import DataProviderService


def make_service(rows=50, account_policy=None, **config_kwargs):
    service = DataProviderService(
        guard_config=GuardConfig(**config_kwargs) if config_kwargs else None,
        account_policy=account_policy,
    )
    service.database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
    )
    service.database.insert_rows(
        "t", [(i, f"v{i}") for i in range(1, rows + 1)]
    )
    return service


class TestQueries:
    def test_anonymous_queries_without_accounts(self):
        service = make_service()
        result = service.query(None, "SELECT * FROM t WHERE id = 1")
        assert result.rows == [(1, "v1")]
        assert result.delay > 0

    def test_register_requires_account_policy(self):
        with pytest.raises(ConfigError, match="without accounts"):
            make_service().register("alice")

    def test_registered_flow(self):
        service = make_service(account_policy=AccountPolicy())
        service.register("alice", subnet="10.0.0.0/8")
        result = service.query("alice", "SELECT * FROM t WHERE id = 2")
        assert result.rows == [(2, "v2")]
        assert service.accounts.account("alice").queries_issued == 1

    def test_quota_enforced_through_service(self):
        service = make_service(
            account_policy=AccountPolicy(daily_query_quota=1)
        )
        service.register("bob")
        service.query("bob", "SELECT * FROM t WHERE id = 1")
        with pytest.raises(AccessDenied):
            service.query("bob", "SELECT * FROM t WHERE id = 2")


class TestReport:
    def test_report_contents(self):
        service = make_service(rows=20, cap=5.0)
        for _ in range(10):
            service.query(None, "SELECT * FROM t WHERE id = 1")
        report = service.report()
        assert report.queries == 10
        assert report.users == 0
        assert report.extraction_cost > 0
        assert report.max_extraction_cost == pytest.approx(100.0)
        assert report.protection_ratio > 1
        assert report.top_tuples[0][:2] == ("t", 1)
        assert "extraction cost" in report.render()

    def test_report_with_no_traffic(self):
        report = make_service().report()
        assert report.median_user_delay == 0.0
        assert report.protection_ratio == float("inf")

    def test_top_tuple_shares_normalised_under_decay(self):
        # Every request hits the same tuple, so its share of the
        # (decayed) traffic is exactly 100% regardless of decay rate.
        # The old report divided decayed weights by the raw request
        # total, shrinking the share as decay accumulated.
        service = make_service(rows=20, cap=5.0, decay_rate=1.5)
        for _ in range(10):
            service.query(None, "SELECT * FROM t WHERE id = 1")
        report = service.report()
        table, rowid, share = report.top_tuples[0]
        assert (table, rowid) == ("t", 1)
        assert share == pytest.approx(1.0)

    def test_top_tuple_shares_stay_normalised_after_apply_decay(self):
        service = make_service(rows=20, cap=5.0, decay_rate=1.0)
        for _ in range(10):
            service.query(None, "SELECT * FROM t WHERE id = 1")
        service.guard.popularity.apply_decay(4.0)
        for _ in range(2):
            service.query(None, "SELECT * FROM t WHERE id = 2")
        report = service.report()
        shares = {
            (table, rowid): share
            for table, rowid, share in report.top_tuples
        }
        # Shares are proportions of the decayed total: they must sum to
        # at most 1 and reflect the post-decay balance (the old key-1
        # history is worth 10/4 = 2.5 present requests vs 2 for key 2).
        assert sum(shares.values()) <= 1.0 + 1e-9
        assert shares[("t", 1)] == pytest.approx(2.5 / 4.5)
        assert shares[("t", 2)] == pytest.approx(2.0 / 4.5)


class TestPersistence:
    def test_save_load_round_trip_keeps_delays(self, tmp_path):
        service = make_service(rows=30, cap=8.0)
        for _ in range(100):
            service.query(None, "SELECT * FROM t WHERE id = 3")
        warm = service.guard.delay_for("t", 3)
        cold = service.guard.delay_for("t", 17)
        path = tmp_path / "svc.json"
        service.save(path)

        restored = DataProviderService.recover(
            snapshot_path=path, guard_config=GuardConfig(cap=8.0)
        )
        assert restored.guard.delay_for("t", 3) == pytest.approx(warm)
        assert restored.guard.delay_for("t", 17) == pytest.approx(cold)
        assert restored.database.row_count("t") == 30

    def test_load_requires_matching_decay(self, tmp_path):
        service = make_service(rows=5, decay_rate=1.5)
        path = tmp_path / "svc.json"
        service.save(path)
        with pytest.raises(ConfigError, match="decay rate"):
            DataProviderService.recover(
                snapshot_path=path, guard_config=GuardConfig(decay_rate=1.0)
            )

    def test_load_missing_file(self, tmp_path):
        # Without a journal there is nothing else to restore from: a
        # mistyped export path must not quietly yield an empty service.
        with pytest.raises(PersistenceError):
            DataProviderService.recover(snapshot_path=tmp_path / "nope.json")

    def test_load_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(PersistenceError, match="corrupt"):
            DataProviderService.recover(snapshot_path=path)

    def test_load_wrong_format(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(PersistenceError, match="format"):
            DataProviderService.recover(snapshot_path=path)

    def test_decayed_state_round_trips(self, tmp_path):
        service = make_service(rows=10, decay_rate=1.01)
        for item in (1, 1, 2, 3, 1):
            service.query(None, f"SELECT * FROM t WHERE id = {item}")
        before = service.guard.delay_for("t", 1)
        path = tmp_path / "svc.json"
        service.save(path)
        restored = DataProviderService.recover(
            snapshot_path=path, guard_config=GuardConfig(decay_rate=1.01)
        )
        assert restored.guard.delay_for("t", 1) == pytest.approx(before)
        # And the restored tracker keeps decaying consistently.
        restored.query(None, "SELECT * FROM t WHERE id = 2")
        assert restored.guard.popularity.total_requests == 6
