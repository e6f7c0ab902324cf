"""Tests for live extraction forensics (ForensicsMonitor)."""

import json
import random
import sys
import threading
from pathlib import Path

import pytest

from repro.core import GuardConfig
from repro.obs import AuditLog, ForensicsMonitor
from repro.obs.forensics import OVERFLOW_IDENTITY
from repro.obs.metrics import MetricsRegistry
from repro.service import DataProviderService
from repro.workloads import ZipfSampler

STREAM_EXPECTED = Path(__file__).with_name("forensics_stream.json")


def build(population=100, **kwargs):
    defaults = dict(
        coverage_threshold=0.5,
        novelty_threshold=0.9,
        window=20,
        min_requests=5,
    )
    defaults.update(kwargs)
    return ForensicsMonitor(population, **defaults)


def feed(monitor, identity, items, table="t"):
    for item in items:
        monitor.observe(identity, [(table, item)])


def coverage(monitor, identity):
    return monitor.profiles[identity].coverage(monitor.population)


def novelty(monitor, identity):
    return monitor.profiles[identity].novelty_rate()


class TestSignals:
    def test_coverage_counts_distinct(self):
        monitor = ForensicsMonitor(population=100)
        feed(monitor, "u", [1, 2, 3, 1, 1])
        assert coverage(monitor, "u") == pytest.approx(0.03)

    def test_novelty_rate_window(self):
        monitor = ForensicsMonitor(population=100, window=4)
        feed(monitor, "u", [1, 2, 1, 2])  # recent: T T F F
        assert novelty(monitor, "u") == pytest.approx(0.5)
        feed(monitor, "u", [3, 4])  # window slides: F F T T
        assert novelty(monitor, "u") == pytest.approx(0.5)
        assert len(monitor.profiles["u"].recent_novelty) == 4

    def test_callable_population(self):
        size = [10]
        monitor = ForensicsMonitor(population=lambda: size[0])
        feed(monitor, "u", [1, 2, 3, 4, 5])
        assert coverage(monitor, "u") == pytest.approx(0.5)
        size[0] = 20
        assert coverage(monitor, "u") == pytest.approx(0.25)
        assert monitor.summary()["population"] == 20

    def test_unknown_identity_defaults(self):
        monitor = ForensicsMonitor(population=10)
        assert "ghost" not in monitor.profiles
        assert monitor.flagged() == {}
        assert monitor.top() == []

    def test_invalid_params(self):
        for bad in (
            dict(coverage_threshold=0),
            dict(novelty_threshold=1.5),
            dict(window=0),
            dict(min_requests=0),
        ):
            with pytest.raises(ValueError):
                ForensicsMonitor(10, **bad)

    def test_delay_paid_and_tuples_accumulate(self):
        monitor = ForensicsMonitor(population=100)
        monitor.observe("u", [("t", 1), ("t", 2)], delay=0.5)
        monitor.observe("u", [("t", 2)], delay=0.25)
        profile = monitor.profiles["u"]
        assert profile.requests == 2
        assert profile.tuples == 3
        assert profile.delay_paid == pytest.approx(0.75)


class TestFlagging:
    def test_coverage_flag(self):
        monitor = ForensicsMonitor(
            population=10, coverage_threshold=0.5, min_requests=1000
        )
        feed(monitor, "robot", range(1, 6))
        assert monitor.flagged() == {"robot": ("coverage",)}

    def test_novelty_flag_respects_grace_period(self):
        monitor = ForensicsMonitor(
            population=10_000,
            coverage_threshold=1.0,
            novelty_threshold=0.9,
            min_requests=50,
        )
        feed(monitor, "young", range(1, 30))  # all novel but < 50 reqs
        assert monitor.flagged() == {}
        feed(monitor, "young", range(30, 80))
        assert monitor.flagged() == {"young": ("novelty",)}

    def test_robot_flagged_zipf_browser_not(self):
        """The core claim: extraction traffic separates cleanly from
        legitimate skewed browsing."""
        population = 2000
        monitor = ForensicsMonitor(
            population=population,
            coverage_threshold=0.5,
            novelty_threshold=0.9,
            window=300,
            min_requests=200,
        )
        sampler = ZipfSampler(population, alpha=1.2, seed=31)
        feed(monitor, "browser", (int(i) for i in sampler.sample_many(3000)))
        feed(monitor, "robot", range(1, population + 1))
        assert set(monitor.flagged()) == {"robot"}
        assert novelty(monitor, "robot") == pytest.approx(1.0)
        assert novelty(monitor, "browser") < 0.5


class TestGuardFeed:
    """The pipeline's forensics stage feeds identified SELECTs only."""

    def build_service(self, rows):
        service = DataProviderService(
            guard_config=GuardConfig(cap=0.001, forensics=True)
        )
        service.database.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
        )
        service.database.insert_rows(
            "t", [(i, "x") for i in range(1, rows + 1)]
        )
        return service

    def test_guard_profiles_identified_selects(self):
        service = self.build_service(20)
        for item in range(1, 6):
            service.guard.execute(
                f"SELECT * FROM t WHERE id = {item}", identity="u"
            )
        service.guard.execute("UPDATE t SET v = 'y' WHERE id = 9",
                              identity="u")
        monitor = service.guard.forensics
        assert coverage(monitor, "u") == pytest.approx(0.25)
        assert monitor.profiles["u"].requests == 5

    def test_anonymous_queries_not_profiled(self):
        service = self.build_service(1)
        service.guard.execute("SELECT * FROM t WHERE id = 1")
        assert service.guard.forensics.profiles == {}


class TestFlagTransitions:
    def test_robot_raises_one_flag(self):
        forensics = build()
        for key in range(60):
            forensics.observe("robot", [("t", key)])
        assert forensics.flagged() == {
            "robot": ("coverage", "novelty"),
        }
        assert forensics.flags_raised_total == 1
        assert forensics.flags_cleared_total == 0

    def test_flag_clears_when_signals_subside(self):
        forensics = build(
            population=1000, coverage_threshold=0.99, window=10,
        )
        for key in range(10):
            forensics.observe("probe", [("t", key)])
        assert "probe" in forensics.flagged()  # novelty tripped
        # Re-reading known tuples floods the window with repeats.
        for _ in range(3):
            for key in range(10):
                forensics.observe("probe", [("t", key)])
        assert forensics.flagged() == {}
        assert forensics.flags_raised_total == 1
        assert forensics.flags_cleared_total == 1

    def test_audit_events_on_raise_and_clear(self, tmp_path):
        log = AuditLog(str(tmp_path / "audit.jsonl"))
        forensics = build(
            population=1000, coverage_threshold=0.99, window=10, audit=log,
        )
        for key in range(10):
            forensics.observe("probe", [("t", key)], trace_id=f"t-{key}")
        for _ in range(3):
            for key in range(10):
                forensics.observe("probe", [("t", key)])
        log.close()
        kinds = [record["event"] for record in log.replay()]
        assert "forensic_flag" in kinds
        assert kinds[-1] == "forensic_flag_cleared"
        first_flag = next(
            record for record in log.replay()
            if record["event"] == "forensic_flag"
        )
        assert first_flag["identity"] == "probe"
        assert first_flag["reasons"] == ["novelty"]
        assert first_flag["trace_id"].startswith("t-")


class TestConcurrency:
    def test_concurrent_observers_lose_no_update(self):
        # One lock covers record and evaluate: with more threads than
        # cores and a short switch interval, every request, tuple and
        # flag transition is counted exactly once.
        forensics = build(population=400, window=50, min_requests=20)
        threads_n, per_thread = 8, 400
        start = threading.Barrier(threads_n)

        def worker(index):
            start.wait(timeout=10)
            for step in range(per_thread):
                identity = f"id-{step % 4}"
                forensics.observe(identity, [("t", index * per_thread + step)])
                forensics.top(2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        profiles = forensics.profiles.values()
        assert sum(p.requests for p in profiles) == threads_n * per_thread
        assert sum(p.tuples for p in profiles) == threads_n * per_thread
        for profile in profiles:
            assert profile.novel_in_window == sum(profile.recent_novelty)
        assert (
            forensics.flags_raised_total - forensics.flags_cleared_total
            == len(forensics.flagged())
        )


class TestScoring:
    def test_extraction_eta_prices_remaining_population(self):
        forensics = build(population=100)
        # 20 distinct tuples at 0.5 s each: per-tuple price 0.5.
        for key in range(20):
            forensics.observe("walker", [("t", key)], delay=0.5)
        (entry,) = forensics.top(1)
        assert entry["identity"] == "walker"
        assert entry["delay_paid_seconds"] == pytest.approx(10.0)
        # 80 tuples remain at 0.5 s observed price.
        assert entry["eta_seconds"] == pytest.approx(80 * 0.5)

    def test_eta_zero_without_charged_tuples(self):
        forensics = build()
        forensics.observe("ghost", [])
        (entry,) = forensics.top(1)
        assert entry["eta_seconds"] == 0.0

    def test_top_ranks_robot_above_browser(self):
        forensics = build(population=100)
        for key in range(60):
            forensics.observe("robot", [("t", key)], delay=0.1)
        for _ in range(60):
            forensics.observe("browser", [("t", 1)], delay=0.1)
        ranked = forensics.top(2)
        assert [entry["identity"] for entry in ranked] == [
            "robot", "browser",
        ]
        assert ranked[0]["flagged"] and not ranked[1]["flagged"]
        assert ranked[0]["risk"] > 1.0 > ranked[1]["risk"]

    def test_summary_counts(self):
        forensics = build(population=100)
        for key in range(60):
            forensics.observe("robot", [("t", key)])
        forensics.observe("browser", [("t", 1)])
        summary = forensics.summary()
        assert summary["population"] == 100
        assert summary["tracked_identities"] == 2
        assert summary["flagged_identities"] == 1
        assert summary["flags_raised_total"] == 1


class TestBoundedCardinality:
    def test_ten_thousand_identities_fold_into_other(self):
        """Memory and metric cardinality stay bounded at scale."""
        forensics = build(
            population=1000, max_identities=100,
            max_keys_per_identity=50, max_flagged_series=8,
        )
        registry = MetricsRegistry()
        forensics.register_metrics(registry)
        for index in range(10_000):
            forensics.observe(f"user-{index}", [("t", index % 500)])
        # 100 individual profiles plus the _other aggregate.
        assert len(forensics.profiles) == 101
        assert forensics.overflowed_identities == 9_900
        assert forensics.profiles[OVERFLOW_IDENTITY].requests == 9_900
        # The aggregate is never flagged, whatever its totals look like.
        assert forensics.flagged() == {}
        snapshot = registry.to_json()
        assert (
            snapshot["forensics_tracked_identities"]["value"] == 101
        )

    def test_identity_cap_folds_tail_into_other(self):
        monitor = ForensicsMonitor(population=100, max_identities=3)
        for index in range(10):
            monitor.observe(f"u{index}", [("t", index)])
        assert len(monitor.profiles) == 4  # 3 individual + the aggregate
        assert monitor.overflowed_identities == 7
        assert monitor.profiles[OVERFLOW_IDENTITY].requests == 7
        assert monitor.summary()["tracked_identities"] == 4

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            ForensicsMonitor(population=10, max_identities=0)
        with pytest.raises(ValueError):
            ForensicsMonitor(population=10, max_keys_per_identity=0)

    def test_key_cap_bounds_retrieved_set(self):
        monitor = ForensicsMonitor(population=1000, max_keys_per_identity=5)
        feed(monitor, "u", range(20))
        profile = monitor.profiles["u"]
        assert len(profile.retrieved) == 5
        assert profile.tuples == 20

    def test_overflow_aggregate_is_never_ranked(self):
        # The pooled aggregate's coverage and novelty are sums over
        # unrelated users: ranked, it would lead the board as a
        # non-identity once traffic passes max_identities.
        forensics = ForensicsMonitor(population=1000, max_identities=100)
        for index in range(10_000):
            forensics.observe(
                f"user-{index}", [("t", index % 1000)], delay=0.01
            )
        assert forensics.profiles[OVERFLOW_IDENTITY].requests == 9_900
        ranked = forensics.top(3)
        assert len(ranked) == 3
        assert OVERFLOW_IDENTITY not in {
            entry["identity"] for entry in ranked
        }
        assert len(forensics.top(1000)) == 100

    def test_overflow_aggregate_is_never_flagged(self):
        forensics = ForensicsMonitor(
            population=10, coverage_threshold=0.1, min_requests=1,
            max_identities=1,
        )
        forensics.observe("first", [("t", 1)])
        for index in range(10):
            forensics.observe(f"late{index}", [("t", index)])
        assert forensics.profiles[OVERFLOW_IDENTITY].requests == 10
        assert set(forensics.flagged()) == {"first"}

    def test_key_cap_bounds_coverage(self):
        forensics = build(population=1000, max_keys_per_identity=50)
        for key in range(200):
            forensics.observe("walker", [("t", key)])
        profile = forensics.profiles["walker"]
        assert len(profile.retrieved) == 50
        assert profile.tuples == 200
        assert coverage(forensics, "walker") == pytest.approx(0.05)

    def test_flagged_gauges_overflow_label(self):
        """Adversarial identity counts cannot mint unbounded series."""
        registry = MetricsRegistry()
        forensics = build(
            population=10, coverage_threshold=0.1, min_requests=1,
            max_flagged_series=3,
        )
        forensics.register_metrics(registry)
        for index in range(8):
            forensics.observe(f"bot-{index}", [("t", index % 10)])
        series = registry.to_json()["forensics_identity_coverage"][
            "series"
        ]
        labels = {entry["labels"]["identity"] for entry in series}
        assert len(labels) <= 4  # 3 real + "_other"
        assert "_other" in labels

    def test_flagged_gauges_read_the_live_profile(self):
        registry = MetricsRegistry()
        forensics = build(population=100)
        forensics.register_metrics(registry)
        feed(forensics, "robot", range(50))
        gauge = registry.get("forensics_identity_coverage")
        assert gauge.value(identity="robot") == pytest.approx(0.5)
        # No flag transition in between: the series still moves.
        feed(forensics, "robot", range(50, 80))
        assert gauge.value(identity="robot") == pytest.approx(0.8)

    def test_flag_metrics_count_reasons(self):
        registry = MetricsRegistry()
        forensics = build(population=100)
        forensics.register_metrics(registry)
        for key in range(60):
            forensics.observe("robot", [("t", key)])
        series = registry.to_json()["forensics_flags_total"]["series"]
        reasons = {
            entry["labels"]["reason"]: entry["value"] for entry in series
        }
        assert reasons == {"coverage": 1, "novelty": 1}


def run_seeded_stream(audit_path):
    """A robot, a prober and twelve Zipf browsers through a service.

    The robot walks the key space (novelty flags, then coverage joins,
    then novelty clears as it wraps around), the prober walks 120 keys
    and then re-reads seven (its novelty flag raises and clears), and
    the browsers read Zipf points and short ranges. Rows are added part
    way, so the population moves under the monitor.
    """
    service = DataProviderService(
        guard_config=GuardConfig(forensics=True), audit_path=audit_path
    )
    database = service.database
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    database.insert_rows("t", [(i, f"v{i}") for i in range(1, 301)])
    rng = random.Random(35)
    sampler = ZipfSampler(300, alpha=1.2, seed=35)
    browsers = [f"browser-{n}" for n in range(12)]
    prober_keys = list(range(1, 301))
    rng.shuffle(prober_keys)
    robot_step = prober_step = 0
    for step in range(1500):
        if step == 900:
            database.insert_rows(
                "t", [(i, f"v{i}") for i in range(301, 401)]
            )
        if step % 3 == 0:
            key = robot_step % 400 + 1
            robot_step += 1
            sql, identity = f"SELECT * FROM t WHERE id = {key}", "robot"
        elif step % 5 == 1:
            key = prober_keys[
                prober_step % (120 if prober_step < 400 else 7)
            ]
            prober_step += 1
            sql, identity = f"SELECT * FROM t WHERE id = {key}", "prober"
        else:
            identity = rng.choice(browsers)
            rank = int(sampler.sample_many(1)[0])
            if rng.random() < 0.1:
                sql = (
                    f"SELECT * FROM t WHERE id >= {rank} "
                    f"AND id < {rank + 3}"
                )
            else:
                sql = f"SELECT * FROM t WHERE id = {rank}"
        service.guard.execute(sql, identity=identity)
    forensics = service.guard.forensics
    snapshot = service.obs.registry.to_json()
    observed = {
        "top": forensics.top(10),
        "summary": forensics.summary(),
        "series": {
            name: snapshot[name]
            for name in snapshot
            if name.startswith("forensics_")
        },
    }
    service.obs.audit.close()
    events, kinds = [], {}
    for position, record in enumerate(service.obs.audit.replay()):
        kinds[record["event"]] = kinds.get(record["event"], 0) + 1
        if record["event"].startswith("forensic"):
            record = dict(record)
            del record["ts"]
            record.pop("trace_id", None)
            record["position"] = position
            events.append(record)
    observed["events"] = events
    observed["kinds"] = kinds
    # Through JSON, as a scrape or the forensics op would carry it.
    return json.loads(json.dumps(observed))


def test_seeded_stream_matches_the_recorded_run(tmp_path):
    """Top, summary, audit events and the ``forensics_*`` series of one
    seeded serving stream come out exactly as recorded. The
    per-identity gauges are read at scrape time, so the robot's novelty
    series is its window rate at the end of the stream, not the rate
    its last flag transition saw."""
    expected = json.loads(STREAM_EXPECTED.read_text())
    observed = run_seeded_stream(str(tmp_path / "audit.jsonl"))
    for part in ("top", "summary", "events", "kinds", "series"):
        assert observed[part] == expected[part], part
    assert [event["event"] for event in observed["events"]] == [
        "forensic_flag",
        "forensic_flag",
        "forensic_flag",
        "forensic_flag_cleared",
        "forensic_flag",
    ]
