"""Tests for the guard's metrics and lifecycle-trace instrumentation."""

import pytest

from repro.core import (
    AccessDenied,
    AccountManager,
    AccountPolicy,
    DelayGuard,
    GuardConfig,
    RealClock,
    VirtualClock,
)
from repro.engine import Database
from repro.obs import Observability, Tracer

from .test_guard import make_db, make_guard


class TestGuardMetrics:
    def test_counters_reconcile_with_stats(self):
        guard, _ = make_guard(config=GuardConfig(cap=5.0))
        for item in range(1, 6):
            guard.execute(f"SELECT * FROM t WHERE id = {item}")
        guard.execute("UPDATE t SET v = 'x' WHERE id = 1")
        registry = guard.obs.registry
        stats = guard.stats
        assert registry.get("guard_queries_total").value() == stats.queries
        assert registry.get("guard_selects_total").value() == stats.selects
        assert (
            registry.get("guard_tuples_charged_total").value()
            == stats.tuples_charged
        )
        assert registry.get("guard_delay_seconds_total").value() == (
            pytest.approx(stats.total_delay)
        )
        assert registry.get("guard_engine_seconds_total").value() == (
            pytest.approx(stats.engine_seconds)
        )
        assert registry.get("guard_accounting_seconds_total").value() == (
            pytest.approx(stats.accounting_seconds)
        )

    def test_delay_histogram_is_the_stats_histogram(self):
        guard, _ = make_guard(config=GuardConfig(cap=5.0))
        guard.execute("SELECT * FROM t WHERE id = 1")
        registered = guard.obs.registry.get("guard_select_delay_seconds")
        assert registered is guard.stats.delay_histogram
        assert registered.count == 1
        assert registered.max == 5.0

    def test_denials_counted_by_reason(self):
        clock = VirtualClock()
        accounts = AccountManager(
            policy=AccountPolicy(daily_query_quota=2), clock=clock
        )
        guard = DelayGuard(make_db(), clock=clock, accounts=accounts)
        accounts.register("u")
        guard.execute("SELECT * FROM t WHERE id = 1", identity="u")
        guard.execute("SELECT * FROM t WHERE id = 2", identity="u")
        with pytest.raises(AccessDenied):
            guard.execute("SELECT * FROM t WHERE id = 3", identity="u")
        denied = guard.obs.registry.get("guard_denied_total")
        assert denied.value(reason="query_quota") == 1
        assert guard.stats.denied == 1

    def test_per_identity_delay_attribution(self):
        clock = VirtualClock()
        accounts = AccountManager(clock=clock)
        guard = DelayGuard(
            make_db(),
            config=GuardConfig(cap=4.0),
            clock=clock,
            accounts=accounts,
        )
        accounts.register("alice")
        accounts.register("bob")
        guard.execute("SELECT * FROM t WHERE id = 1", identity="alice")
        guard.execute("SELECT * FROM t WHERE id = 2", identity="bob")
        guard.execute("SELECT * FROM t WHERE id = 3", identity="bob")
        per_identity = guard.obs.registry.get(
            "guard_identity_delay_seconds_total"
        )
        assert per_identity.value(identity="alice") == pytest.approx(4.0)
        assert per_identity.value(identity="bob") == pytest.approx(8.0)

    def test_state_gauges_track_trackers(self):
        guard, _ = make_guard(rows=50, config=GuardConfig(cap=1.0))
        registry = guard.obs.registry
        assert registry.get("guard_population").value() == 50
        assert registry.get("guard_popularity_tracked_keys").value() == 0
        guard.execute("SELECT * FROM t WHERE id <= 3")
        assert registry.get("guard_popularity_tracked_keys").value() == 3
        assert registry.get("guard_popularity_requests_total").value() == 3
        guard.execute("UPDATE t SET v = 'y' WHERE id = 1")
        assert registry.get("guard_update_tracker_keys").value() == 1

    def test_disabled_observability_is_inert(self):
        guard, _ = make_guard(
            config=GuardConfig(cap=5.0), obs=Observability.disabled()
        )
        guard.execute("SELECT * FROM t WHERE id = 1")
        # No metrics registered, no traces collected — but stats (and
        # their canonical histogram) still work.
        assert len(guard.obs.registry) == 0
        assert len(guard.obs.tracer) == 0
        assert guard.stats.selects == 1
        assert guard.stats.delay_histogram.count == 1
        assert guard.stats.median_delay() == 5.0


class TestGuardTracing:
    def test_ok_select_records_lifecycle_stages(self):
        guard, _ = make_guard(config=GuardConfig(cap=3.0))
        guard.execute("SELECT * FROM t WHERE id = 1", identity=None)
        [trace] = guard.obs.tracer.recent(limit=1)
        assert trace.status == "ok"
        assert trace.delay == 3.0
        assert trace.rows == 1
        assert trace.sql == "SELECT * FROM t WHERE id = 1"
        stages = [span.name for span in trace.spans]
        # No accounts → no admit/authorize stages; virtual clock →
        # sleep span still recorded (the sleep itself is instantaneous).
        assert stages == [
            "parse", "execute", "account", "price", "record", "sleep"
        ]

    def test_denied_query_traced_with_reason(self):
        clock = VirtualClock()
        accounts = AccountManager(
            policy=AccountPolicy(daily_query_quota=1), clock=clock
        )
        guard = DelayGuard(make_db(), clock=clock, accounts=accounts)
        accounts.register("u")
        guard.execute("SELECT * FROM t WHERE id = 1", identity="u")
        with pytest.raises(AccessDenied):
            guard.execute("SELECT * FROM t WHERE id = 2", identity="u")
        [denied, ok] = guard.obs.tracer.recent(limit=2)
        assert ok.status == "ok"
        assert denied.status == "denied"
        assert denied.reason == "query_quota"
        assert [span.name for span in denied.spans] == [
            "admit", "parse", "authorize"
        ]

    def test_error_query_traced(self):
        guard, _ = make_guard()
        with pytest.raises(Exception):
            guard.execute("SELECT * FROM missing WHERE id = 1")
        [trace] = guard.obs.tracer.recent(limit=1)
        assert trace.status == "error"
        assert trace.reason

    def test_statement_object_traced_without_parse_stage(self):
        from repro.engine.parser.parser import parse_cached

        guard, _ = make_guard(config=GuardConfig(cap=1.0))
        statement = parse_cached("SELECT * FROM t WHERE id = 1")
        guard.execute(statement)
        [trace] = guard.obs.tracer.recent(limit=1)
        assert trace.sql is None
        assert trace.spans[0].name == "execute"

    def test_delayed_select_span_durations_match_wall_clock(self):
        """Acceptance: stage durations ≈ observed wall-clock delay."""
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        database.insert_rows("t", [(1, "v1")])
        guard = DelayGuard(
            database, config=GuardConfig(cap=0.15), clock=RealClock()
        )
        import time

        start = time.perf_counter()
        result = guard.execute("SELECT * FROM t WHERE id = 1")
        wall = time.perf_counter() - start
        assert result.delay == pytest.approx(0.15)
        [trace] = guard.obs.tracer.recent(limit=1)
        stages = trace.stage_seconds()
        # The sleep stage served (at least) the charged delay…
        assert stages["sleep"] >= 0.15
        # …and the spans together account for the observed wall clock:
        # span sum and total duration agree, and both bracket the wall
        # time within a small tolerance for untraced gaps.
        assert trace.span_total() == pytest.approx(
            trace.duration, rel=0.05, abs=0.01
        )
        assert trace.duration == pytest.approx(wall, rel=0.05, abs=0.01)
        assert wall >= 0.15

    def test_ring_bounded_under_many_queries(self):
        guard, _ = make_guard(
            config=GuardConfig(cap=1.0),
            obs=Observability(tracer=Tracer(capacity=8)),
        )
        for _ in range(50):
            guard.execute("SELECT * FROM t WHERE id = 1")
        assert len(guard.obs.tracer) == 8
        assert guard.obs.tracer.finished_total == 50
