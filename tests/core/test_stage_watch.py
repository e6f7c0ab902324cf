"""Watching a query costs one record, folded in batches — by exact counts.

The pipeline reads the clock once per stage boundary into one record
per query, and the ``guard_stage_<name>_seconds`` histograms, the
``guard_execution_path_total`` series, the GuardStats timing buckets and
the retained traces are all built from it. These tests pin that what
an operator reads is exactly what ran: the same counts a per-stage
``Histogram.observe`` gave, whatever mix of hits, misses, denials,
errors and deadline aborts produced them, from any number of threads,
and whether or not a batch has filled yet.
"""

import sys
import threading
import time

import pytest

from repro.core import (
    AccessDenied,
    AccountManager,
    AccountPolicy,
    DelayGuard,
    GuardConfig,
    VirtualClock,
)
from repro.core.pipeline import QueryPipeline, StageWatch
from repro.engine import Database
from repro.obs import Observability, Tracer
from repro.obs.metrics import MetricError

STAGES = [stage.name for stage in QueryPipeline.STAGES]

#: Stage run counts of :func:`drive` — the same numbers a per-stage
#: ``Histogram.observe`` in the stage loop recorded before the fold.
EXPECTED_COUNTS = {
    "admit": 14,
    "parse": 15,
    "authorize": 14,
    "cache": 13,
    "execute": 9,
    "cache_store": 7,
    "account": 11,
    "price": 11,
    "record": 11,
    "forensics": 0,
    "sleep": 10,
}
EXPECTED_PATHS = {"vectorized": 7, "cached": 4, "classic": 1}


def make_guard(obs=None, rows=50, quota=13):
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    database.insert_rows("t", [(i, f"v{i}") for i in range(1, rows + 1)])
    clock = VirtualClock()
    accounts = AccountManager(
        policy=AccountPolicy(daily_query_quota=quota), clock=clock
    )
    accounts.register("u")
    guard = DelayGuard(
        database,
        config=GuardConfig(cap=2.0, result_cache_size=64),
        clock=clock,
        accounts=accounts,
        obs=obs,
    )
    return guard


def drive(guard):
    """Hits, misses, probes, a write, an error, two deadline aborts and
    a quota denial; returns what each statement answered."""
    answers = []

    def run(sql, **kwargs):
        try:
            result = guard.execute(sql, identity="u", **kwargs)
        except Exception as error:  # noqa: BLE001 - the answer is the error
            answers.append(("error", type(error).__name__, str(error)))
            return
        if result is None:
            answers.append(("probe-miss",))
            return
        answers.append(
            (result.rows, result.delay, result.per_tuple_delays, result.cached)
        )

    run("SELECT * FROM t WHERE id = 1")  # miss
    run("SELECT * FROM t WHERE id = 1")  # hit
    run("select * from t where id = 2;")  # miss
    run("SELECT * FROM t WHERE id = 2")  # hit: the same statement
    run("SELECT * FROM t WHERE id = 3", cache_only=True)  # probe miss
    run("SELECT * FROM t WHERE id = 3")  # miss
    run("SELECT * FROM t WHERE id = 3", cache_only=True)  # probe hit
    run("UPDATE t SET v = 'w' WHERE id = 4")  # a write
    run("SELECT * FROM t WHERE id = 4")  # miss after the write
    run("SELECT * FROM missing WHERE id = 1")  # engine error
    run("SELECT * FROM t WHERE id = 5", deadline_at=time.monotonic() - 1)
    run("SELECT * FROM t WHERE id = 6", deadline_at=time.monotonic() + 1.0)
    run("SELECT v FROM t WHERE id <= 2")  # miss, two tuples
    run("SELECT v FROM t WHERE id <= 2")  # hit
    run("SELECT * FROM t WHERE id = 1")  # hit
    run("SELECT * FROM t WHERE id = 7")  # over the quota: denied
    return answers


def stage_counts(guard):
    registry = guard.obs.registry
    return {
        name: registry.get(f"guard_stage_{name}_seconds").count
        for name in STAGES
    }


def path_counts(guard):
    paths = guard.obs.registry.get("guard_execution_path_total")
    return {
        labels["path"]: value for labels, value in paths.series() if value
    }


class TestCountsAreExact:
    def test_each_stage_counts_its_runs(self):
        guard = make_guard()
        answers = drive(guard)
        assert [answer[1:] for answer in answers if answer[0] == "error"] == [
            ("CatalogError", "no table named 'missing'"),
            ("AccessDenied", "access denied: deadline_exceeded"),
            ("AccessDenied", "access denied: deadline_exceeded"),
            ("AccessDenied", "access denied: query_quota"),
        ]
        assert stage_counts(guard) == EXPECTED_COUNTS
        assert path_counts(guard) == EXPECTED_PATHS
        charged = guard.obs.registry.get("guard_identity_delay_seconds_total")
        served = [answer for answer in answers if len(answer) == 4]
        assert charged.value(identity="u") == pytest.approx(
            sum(delay for _rows, delay, _per_tuple, _cached in served)
        )
        assert charged.value(identity="u") == pytest.approx(8.495)
        # The denial, the error and both deadline aborts each left a
        # trace; the probe miss did not.
        assert guard.obs.tracer.finished_total == 15

    def test_counts_equal_the_traced_spans(self):
        guard = make_guard()
        drive(guard)
        spans = {}
        for trace in guard.obs.tracer.recent(limit=256):
            for span in trace.spans:
                spans[span.name] = spans.get(span.name, 0) + 1
        # The probe miss ran parse and cache without leaving a trace.
        spans["parse"] += 1
        spans["cache"] += 1
        assert {name: spans.get(name, 0) for name in STAGES} == (
            EXPECTED_COUNTS
        )

    def test_a_scrape_mid_batch_sees_every_finished_query(self):
        guard = make_guard(quota=None)
        for item in range(1, 11):
            guard.execute(f"SELECT * FROM t WHERE id = {item}", identity="u")
        assert 10 < StageWatch.BATCH  # nothing has folded on its own
        scraped = guard.obs.registry.to_json()
        for name in ("admit", "parse", "authorize", "execute", "price"):
            assert scraped[f"guard_stage_{name}_seconds"]["count"] == 10
        text = guard.obs.registry.render_prometheus()
        assert "guard_stage_record_seconds_count 10" in text
        assert 'guard_execution_path_total{path="vectorized"} 10' in text

    def test_trace_spans_reconcile_with_stage_sums(self):
        guard = make_guard(
            obs=Observability(tracer=Tracer(capacity=256)), quota=None
        )
        for item in range(1, 101):
            guard.execute(f"SELECT * FROM t WHERE id = {item % 7}", identity="u")
        sums = {}
        for trace in guard.obs.tracer.recent(limit=256):
            for name, seconds in trace.stage_seconds().items():
                sums[name] = sums.get(name, 0.0) + seconds
        registry = guard.obs.registry
        for name in STAGES:
            histogram = registry.get(f"guard_stage_{name}_seconds")
            assert histogram.sum == pytest.approx(sums.get(name, 0.0))
        # Boundaries are shared, so the spans tile each query's run.
        stats = guard.stats
        assert stats.engine_seconds + stats.accounting_seconds == (
            pytest.approx(sum(sums.values()) - sums["sleep"])
        )

    def test_four_threads_lose_and_double_count_nothing(self):
        guard = make_guard(quota=None, rows=200)
        per_thread = 300
        barrier = threading.Barrier(4)

        def reader(offset):
            barrier.wait()
            for item in range(per_thread):
                guard.execute(
                    f"SELECT * FROM t WHERE id = {(item * 7 + offset) % 200 + 1}",
                    identity="u",
                )

        threads = [
            threading.Thread(target=reader, args=(offset,))
            for offset in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave appends and folds
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = 4 * per_thread
        counts = stage_counts(guard)
        for name in ("admit", "parse", "authorize", "cache", "account"):
            assert counts[name] == total, name
        assert counts["execute"] + sum(
            value
            for labels, value in guard.obs.registry.get(
                "guard_execution_path_total"
            ).series()
            if labels["path"] == "cached"
        ) == total
        assert sum(path_counts(guard).values()) == total
        assert guard.stats.queries == total


class TestOneWatchPerRegistry:
    def test_a_second_host_cannot_share_the_registry(self):
        # So no series is ever folded by two watches, or by a dead one.
        obs = Observability()
        first = make_guard(obs=obs)
        with pytest.raises(MetricError, match="already registered"):
            make_guard(obs=obs)
        admit = obs.registry.get("guard_stage_admit_seconds")
        assert admit._source == first.pipeline.watch.fold


class TestWatchingChangesNothingElse:
    def test_observability_on_and_off_serve_identically(self):
        watched = make_guard()
        unwatched = make_guard(obs=Observability.disabled())
        assert drive(watched) == drive(unwatched)
        for attribute in ("popularity", "update_rates"):
            # ``origin`` is each tracker's own generated name.
            states = [
                {
                    key: value
                    for key, value in getattr(guard, attribute)
                    .dump_state()
                    .items()
                    if key != "origin"
                }
                for guard in (watched, unwatched)
            ]
            assert states[0] == states[1], attribute
        account, twin = (
            guard.accounts.account("u") for guard in (watched, unwatched)
        )
        assert (account.queries_issued, account.tuples_retrieved) == (
            twin.queries_issued,
            twin.tuples_retrieved,
        )
        for field in ("queries", "selects", "tuples_charged", "denied"):
            assert getattr(watched.stats, field) == getattr(
                unwatched.stats, field
            ), field
        assert watched.stats.total_delay == unwatched.stats.total_delay
