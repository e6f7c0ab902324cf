"""The delay-aware result cache: priced hits, epoch invalidation.

The cache sits between authorize and execute in the guard pipeline. A
hit skips ONLY the engine's execute stage — accounting, pricing,
popularity recording, and the mandated sleep all still run against the
cached result's touched set, so the delay defense is unchanged: an
adversary cannot launder probes through the cache to dodge the price.
The unit tests pin the `ResultCache` container semantics (LRU, epoch
sweeps, stale-put refusal); the guard tests pin hit/miss
equivalence; the laundering test compares a cache-on and a cache-off
service end to end.
"""

import pytest

from repro.core import (
    AccountManager,
    AccountPolicy,
    ConfigError,
    DelayGuard,
    GuardConfig,
    ResultCache,
    VirtualClock,
)
from repro.core.result_cache import CachedResult
from repro.engine import Database
from repro.engine.executor import ResultSet


def make_db(rows=6):
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    for i in range(rows):
        db.execute(f"INSERT INTO t (id, v) VALUES ({i}, 'x{i}')")
    return db


def select_result(n=2):
    return ResultSet(
        columns=["id", "v"],
        rows=[(i, f"x{i}") for i in range(n)],
        rowcount=n,
        statement_kind="select",
        table="t",
        rowids=list(range(n)),
        touched=[("t", i) for i in range(n)],
    )


# -- container semantics ------------------------------------------------------


class TestResultCacheUnit:
    def test_roundtrip(self):
        cache = ResultCache(maxsize=4)
        frozen = CachedResult.freeze(select_result())
        assert cache.put("SELECT * FROM t", 1, frozen)
        hit = cache.get("SELECT * FROM t", 1)
        assert hit is frozen
        assert cache.info()["hits"] == 1

    def test_miss_on_unknown_sql(self):
        cache = ResultCache(maxsize=4)
        assert cache.get("SELECT * FROM t", 1) is None
        assert cache.info()["misses"] == 1

    def test_miss_on_different_epoch(self):
        cache = ResultCache(maxsize=4)
        cache.put("q", 1, CachedResult.freeze(select_result()))
        assert cache.get("q", 2) is None

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        frozen = CachedResult.freeze(select_result())
        cache.put("a", 1, frozen)
        cache.put("b", 1, frozen)
        cache.get("a", 1)  # refresh a
        cache.put("c", 1, frozen)  # evicts b, the LRU entry
        assert cache.get("a", 1) is not None
        assert cache.get("b", 1) is None
        assert cache.info()["evictions"] == 1

    def test_newer_epoch_sweeps_older_entries(self):
        cache = ResultCache(maxsize=8)
        frozen = CachedResult.freeze(select_result())
        cache.put("a", 1, frozen)
        cache.put("b", 1, frozen)
        cache.put("c", 2, frozen)  # observing epoch 2 sweeps epoch-1 keys
        assert len(cache) == 1
        assert cache.info()["invalidations"] == 2
        assert cache.get("c", 2) is not None

    def test_stale_put_refused(self):
        cache = ResultCache(maxsize=8)
        frozen = CachedResult.freeze(select_result())
        cache.put("a", 5, frozen)
        # A racer that executed against epoch 3 must not insert a
        # result that epoch-3 lookups would then treat as current.
        assert not cache.put("b", 3, frozen)
        assert cache.get("b", 3) is None

    def test_clear(self):
        cache = ResultCache(maxsize=4)
        cache.put("a", 1, CachedResult.freeze(select_result()))
        cache.clear()
        assert len(cache) == 0

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            ResultCache(maxsize=0)

    def test_thaw_builds_fresh_containers(self):
        frozen = CachedResult.freeze(select_result())
        first = frozen.thaw()
        second = frozen.thaw()
        first.rows.append(("poison",))
        first.columns.append("poison")
        assert second.rows == select_result().rows
        assert second.columns == ["id", "v"]
        assert frozen.thaw().rows == select_result().rows

    def test_freeze_copies_a_list_typed_touched_pair(self):
        result = select_result()
        shared = result.touched[0]
        result.touched[1] = ["t", 1]
        frozen = CachedResult.freeze(result)
        # An immutable pair is kept as is; a mutable one is rebuilt, so
        # the caller poisoning its own list cannot reach the cache.
        assert frozen.touched[0] is shared
        result.touched[1][1] = 999
        assert frozen.touched == (("t", 0), ("t", 1))
        assert frozen.thaw().touched == [("t", 0), ("t", 1)]


# -- guard integration --------------------------------------------------------


def make_guard(db=None, **overrides):
    config = dict(
        policy="popularity", cap=5.0, unit=1.0, result_cache_size=32
    )
    config.update(overrides)
    return DelayGuard(
        db if db is not None else make_db(),
        config=GuardConfig(**config),
        clock=VirtualClock(),
    )


class TestGuardIntegration:
    def test_disabled_by_default(self):
        guard = make_guard(result_cache_size=None)
        assert guard.result_cache is None
        first = guard.execute("SELECT * FROM t WHERE id <= 1", sleep=False)
        second = guard.execute("SELECT * FROM t WHERE id <= 1", sleep=False)
        assert not first.cached and not second.cached

    def test_second_identical_query_hits(self):
        guard = make_guard()
        first = guard.execute("SELECT * FROM t WHERE id <= 2", sleep=False)
        second = guard.execute("SELECT * FROM t WHERE id <= 2", sleep=False)
        assert not first.cached
        assert second.cached
        assert second.result.rows == first.result.rows
        assert second.result.columns == first.result.columns
        assert guard.result_cache.info()["hits"] == 1

    def test_textual_variants_hit(self):
        guard = make_guard()
        guard.execute("SELECT * FROM t WHERE id <= 2", sleep=False)
        variant = guard.execute(
            "select *  from t -- probe\n where id<=2;", sleep=False
        )
        assert variant.cached

    def test_hit_skips_engine_execution(self):
        db = make_db()
        guard = make_guard(db)
        for _ in range(5):
            guard.execute("SELECT * FROM t WHERE id <= 2", sleep=False)
        assert db.stats.by_kind.get("select", 0) == 1

    def test_hit_still_pays_delay_and_popularity(self):
        # A hit skips the engine, never the price: every repetition is
        # charged a positive delay and recorded into popularity, so the
        # counts read 4 even though the engine ran once.
        guard = make_guard(cap=None, unit=0.001)
        results = [
            guard.execute("SELECT * FROM t WHERE id <= 2", sleep=False)
            for _ in range(4)
        ]
        assert not results[0].cached
        assert all(r.cached for r in results[1:])
        assert all(r.delay > 0 for r in results)
        assert guard.stats.total_delay == pytest.approx(
            sum(r.delay for r in results)
        )
        counts = dict(guard.popularity.store.items())
        assert counts == {key: 4.0 for key in results[0].result.touched}

    def test_dml_invalidates(self):
        db = make_db()
        guard = make_guard(db)
        guard.execute("SELECT * FROM t WHERE id <= 1", sleep=False)
        guard.execute("UPDATE t SET v = 'changed' WHERE id = 0", sleep=False)
        after = guard.execute("SELECT * FROM t WHERE id <= 1", sleep=False)
        assert not after.cached
        assert after.result.rows[0][1] == "changed"

    def test_zero_row_dml_keeps_cache_warm(self):
        guard = make_guard()
        guard.execute("SELECT * FROM t WHERE id <= 1", sleep=False)
        guard.execute("UPDATE t SET v = 'x' WHERE id = 999", sleep=False)
        assert guard.execute(
            "SELECT * FROM t WHERE id <= 1", sleep=False
        ).cached

    def test_cached_rows_cannot_be_poisoned(self):
        # Regression: the guard must hand each caller fresh containers.
        guard = make_guard()
        first = guard.execute("SELECT * FROM t WHERE id <= 2", sleep=False)
        pristine = [tuple(row) for row in first.result.rows]
        hit = guard.execute("SELECT * FROM t WHERE id <= 2", sleep=False)
        assert hit.cached
        hit.result.rows.append(("poison",))
        hit.result.rows[0] = ("poison",)
        hit.result.columns.append("poison")
        again = guard.execute("SELECT * FROM t WHERE id <= 2", sleep=False)
        assert again.cached
        assert [tuple(row) for row in again.result.rows] == pristine
        assert again.result.columns == ["id", "v"]

    def test_metrics_registered(self):
        guard = make_guard()
        guard.execute("SELECT * FROM t WHERE id <= 1", sleep=False)
        guard.execute("SELECT * FROM t WHERE id <= 1", sleep=False)
        exported = guard.obs.registry.render_prometheus()
        assert "guard_result_cache_hits 1" in exported
        assert "guard_result_cache_misses 1" in exported


# -- adversarial laundering ---------------------------------------------------


PROBES = [
    "SELECT * FROM t WHERE id <= 2",
    "SELECT * FROM t WHERE id <= 2",
    "select * from t where id <= 2;",
    "SELECT v FROM t WHERE id = 0",
    "SELECT * FROM t WHERE id <= 2",
]


def run_probe_stream(result_cache_size):
    """One identity hammering the same probes through a guard."""
    clock = VirtualClock()
    accounts = AccountManager(policy=AccountPolicy(), clock=clock)
    accounts.register("adversary")
    guard = DelayGuard(
        make_db(),
        config=GuardConfig(
            policy="popularity",
            cap=None,
            unit=0.001,
            result_cache_size=result_cache_size,
        ),
        clock=clock,
        accounts=accounts,
    )
    results = [
        guard.execute(sql, identity="adversary", sleep=False)
        for sql in PROBES
    ]
    return guard, accounts, results


class TestCacheLaundering:
    """Repeated identical probes must cost the same, hit or miss."""

    def test_hits_and_misses_priced_identically(self):
        guard_on, accounts_on, on = run_probe_stream(result_cache_size=32)
        guard_off, accounts_off, off = run_probe_stream(None)
        # The cache actually engaged (otherwise this test proves nothing).
        assert guard_on.result_cache.info()["hits"] >= 2
        assert guard_off.result_cache is None
        # Per-query mandated delay: bit-identical between hit and miss.
        assert [r.delay for r in on] == [r.delay for r in off]
        # Rows returned: identical.
        for r_on, r_off in zip(on, off):
            assert r_on.result.rows == r_off.result.rows
        # Popularity counts accrued per tuple: identical.
        assert dict(guard_on.popularity.store.items()) == dict(
            guard_off.popularity.store.items()
        )
        # Account charges: identical.
        acct_on = accounts_on.account("adversary")
        acct_off = accounts_off.account("adversary")
        assert acct_on.tuples_retrieved == acct_off.tuples_retrieved
        assert acct_on.queries_issued == acct_off.queries_issued
        # Guard-level pricing stats: identical.
        assert guard_on.stats.tuples_charged == guard_off.stats.tuples_charged
        assert guard_on.stats.total_delay == guard_off.stats.total_delay
