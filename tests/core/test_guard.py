"""Tests for the DelayGuard front door."""

import pytest

from repro.core import (
    AccessDenied,
    AccountManager,
    AccountPolicy,
    ConfigError,
    DelayGuard,
    FixedDelayPolicy,
    GuardConfig,
    VirtualClock,
)
from repro.engine import Database


def make_db(rows=100):
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    db.insert_rows("t", [(i, f"v{i}") for i in range(1, rows + 1)])
    return db


def make_guard(rows=100, config=None, **kwargs):
    clock = VirtualClock()
    guard = DelayGuard(make_db(rows), config=config, clock=clock, **kwargs)
    return guard, clock


class TestDelayCharging:
    def test_cold_start_charges_cap(self):
        guard, _ = make_guard(config=GuardConfig(cap=10.0))
        result = guard.execute("SELECT * FROM t WHERE id = 1")
        assert result.delay == 10.0
        assert result.per_tuple_delays == [10.0]

    def test_popular_tuple_gets_cheap(self):
        guard, _ = make_guard(config=GuardConfig(cap=10.0))
        for _ in range(200):
            guard.execute("SELECT * FROM t WHERE id = 1")
        assert guard.execute("SELECT * FROM t WHERE id = 1").delay < 0.1

    def test_multi_tuple_query_charges_sum(self):
        guard, _ = make_guard(config=GuardConfig(cap=2.0))
        result = guard.execute("SELECT * FROM t WHERE id <= 5")
        assert result.delay == pytest.approx(10.0)  # 5 cold tuples
        assert len(result.per_tuple_delays) == 5

    def test_empty_result_no_delay(self):
        guard, _ = make_guard(config=GuardConfig(cap=10.0))
        result = guard.execute("SELECT * FROM t WHERE id = 99999")
        assert result.delay == 0.0

    def test_sleep_happens_on_clock(self):
        guard, clock = make_guard(config=GuardConfig(cap=3.0))
        guard.execute("SELECT * FROM t WHERE id = 1")
        assert clock.total_slept == pytest.approx(3.0)

    def test_delay_computed_before_recording(self):
        """First access must not see its own count."""
        guard, _ = make_guard(config=GuardConfig(cap=10.0))
        first = guard.execute("SELECT * FROM t WHERE id = 7")
        assert first.delay == 10.0  # not 1/(N * tiny popularity)

    def test_record_false_leaves_counts_alone(self):
        guard, _ = make_guard(config=GuardConfig(cap=10.0))
        guard.execute("SELECT * FROM t WHERE id = 1", record=False)
        assert guard.popularity.total_requests == 0

    def test_dml_charges_no_delay(self):
        guard, _ = make_guard(config=GuardConfig(cap=10.0))
        result = guard.execute("UPDATE t SET v = 'x' WHERE id = 1")
        assert result.delay == 0.0

    def test_custom_policy_overrides_config(self):
        guard, _ = make_guard(policy=FixedDelayPolicy(1.5))
        result = guard.execute("SELECT * FROM t WHERE id = 1")
        assert result.delay == 1.5


class TestUpdateTracking:
    def test_updates_recorded(self):
        guard, clock = make_guard()
        clock.advance(5.0)
        guard.execute("UPDATE t SET v = 'new' WHERE id = 3")
        times = guard.last_update_times_for("t")
        assert times[3] == pytest.approx(5.0)
        assert guard.update_rates.total_updates == 1

    def test_insert_and_delete_tracked(self):
        guard, _ = make_guard(rows=5)
        guard.execute("INSERT INTO t VALUES (100, 'new')")
        assert guard.update_rates.total_updates == 1
        guard.execute("DELETE FROM t WHERE id = 100")
        assert guard.update_rates.total_updates == 2


class TestAccountsIntegration:
    def test_identity_required_when_accounts_attached(self):
        accounts = AccountManager(clock=VirtualClock())
        guard = DelayGuard(
            make_db(), clock=VirtualClock(), accounts=accounts
        )
        with pytest.raises(ConfigError, match="identity"):
            guard.execute("SELECT * FROM t WHERE id = 1")

    def test_quota_denial_counted(self):
        clock = VirtualClock()
        accounts = AccountManager(
            policy=AccountPolicy(daily_query_quota=1), clock=clock
        )
        guard = DelayGuard(make_db(), clock=clock, accounts=accounts)
        accounts.register("u")
        guard.execute("SELECT * FROM t WHERE id = 1", identity="u")
        with pytest.raises(AccessDenied):
            guard.execute("SELECT * FROM t WHERE id = 2", identity="u")
        assert guard.stats.denied == 1

    def test_accounts_attached_after_construction_are_enforced(self):
        # Hosts may swap ``guard.accounts`` between scenarios (the web
        # directory example does): every query asks the host afresh.
        guard, clock = make_guard(config=GuardConfig(result_cache_size=16))
        guard.execute("SELECT * FROM t WHERE id = 1")
        guard.accounts = AccountManager(
            policy=AccountPolicy(daily_query_quota=1), clock=clock
        )
        with pytest.raises(ConfigError, match="identity"):
            guard.execute("SELECT * FROM t WHERE id = 1")
        guard.accounts.register("u")
        guard.execute("SELECT * FROM t WHERE id = 1", identity="u")
        with pytest.raises(AccessDenied) as denied:
            guard.execute("SELECT * FROM t WHERE id = 1", identity="u")
        assert denied.value.reason == "query_quota"
        assert guard.accounts.account("u").queries_issued == 1
        guard.accounts = None
        assert guard.execute("SELECT * FROM t WHERE id = 2").rows == [
            (2, "v2")
        ]

    def test_retrievals_recorded_per_identity(self):
        clock = VirtualClock()
        accounts = AccountManager(clock=clock)
        guard = DelayGuard(make_db(), clock=clock, accounts=accounts)
        accounts.register("u")
        guard.execute("SELECT * FROM t WHERE id <= 3", identity="u")
        assert accounts.account("u").tuples_retrieved == 3


class TestStats:
    def test_median_and_quantiles(self):
        guard, _ = make_guard(config=GuardConfig(cap=10.0))
        guard.execute("SELECT * FROM t WHERE id = 1")  # 10
        for _ in range(3):
            guard.execute("SELECT * FROM t WHERE id = 1")  # cheap
        assert guard.stats.selects == 4
        assert guard.stats.median_delay() < 10.0
        assert guard.stats.quantile_delay(1.0) == 10.0
        with pytest.raises(ConfigError):
            guard.stats.quantile_delay(1.5)

    def test_quantile_nearest_rank_boundaries(self):
        guard, _ = make_guard()
        for delay in [4.0, 1.0, 3.0, 2.0]:
            guard.stats.note_select(delay, 1)
        # Nearest-rank over [1, 2, 3, 4]: q=0 is the minimum, q=0.5 the
        # 2nd element (not the 3rd, the old int-truncation bias), q=1
        # the maximum. The histogram answers exactly here because each
        # delay occupies its own bucket.
        assert guard.stats.quantile_delay(0.0) == 1.0
        assert guard.stats.quantile_delay(0.5) == 2.0
        assert guard.stats.quantile_delay(1.0) == 4.0

    def test_quantile_nearest_rank_odd_length(self):
        guard, _ = make_guard()
        for delay in [5.0, 1.0, 3.0]:
            guard.stats.note_select(delay, 1)
        assert guard.stats.quantile_delay(0.0) == 1.0
        assert guard.stats.quantile_delay(0.5) == 3.0
        assert guard.stats.quantile_delay(1.0) == 5.0

    def test_empty_stats(self):
        guard, _ = make_guard()
        assert guard.stats.median_delay() == 0.0
        assert guard.stats.quantile_delay(0.5) == 0.0
        assert guard.stats.overhead_fraction() == 0.0

    def test_timing_buckets_accumulate(self):
        guard, _ = make_guard()
        guard.execute("SELECT * FROM t WHERE id = 1")
        assert guard.stats.engine_seconds > 0
        assert guard.stats.accounting_seconds > 0


class TestExtractionCost:
    def test_cold_table_costs_n_times_cap(self):
        guard, _ = make_guard(rows=50, config=GuardConfig(cap=2.0))
        assert guard.extraction_cost("t") == pytest.approx(100.0)
        assert guard.max_extraction_cost("t") == pytest.approx(100.0)

    def test_warm_table_costs_less(self):
        guard, _ = make_guard(rows=50, config=GuardConfig(cap=2.0))
        for _ in range(100):
            guard.execute("SELECT * FROM t WHERE id = 1")
        assert guard.extraction_cost("t") < 100.0

    def test_extraction_cost_does_not_mutate(self):
        guard, _ = make_guard(rows=10)
        before = guard.popularity.total_requests
        guard.extraction_cost("t")
        assert guard.popularity.total_requests == before

    def test_max_cost_requires_cap(self):
        guard, _ = make_guard(config=GuardConfig(cap=None))
        with pytest.raises(ConfigError):
            guard.max_extraction_cost("t")

    def test_population_counts_all_tables(self):
        guard, _ = make_guard(rows=10)
        guard.database.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)")
        guard.database.insert_rows("u", [(i,) for i in range(5)])
        assert guard.population() == 15


class TestConfigValidation:
    def test_bad_policy_name(self):
        with pytest.raises(ConfigError):
            GuardConfig(policy="bogus").validate()

    def test_policy_kinds_build(self):
        for policy in ("popularity", "update", "both", "fixed", "none"):
            guard, _ = make_guard(rows=3, config=GuardConfig(policy=policy))
            guard.execute("SELECT * FROM t WHERE id = 1")

    def test_repr_mentions_policy(self):
        guard, _ = make_guard()
        assert "popularity" in repr(guard)
