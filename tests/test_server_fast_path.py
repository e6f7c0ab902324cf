"""The I/O-loop fast path for result-cache hits.

A cached SELECT needs no worker: the I/O thread probes the guard in
``cache_only`` mode and, on a hit, prices + answers the request without
ever touching the admission queue. These tests pin the contract:

- hits are served on the loop (the counter moves, the worker pool's
  does not need to), still carry their §2 delay, and still burn account
  quota — the cache is a *throughput* optimisation, not a discount;
- misses fall through to the normal path and are charged exactly once;
- a guard without a result cache is never probed.
"""

import pytest

from repro.core import AccountPolicy, GuardConfig
from repro.server import DelayClient, DelayServer, ServerError
from repro.service import DataProviderService


def build_service(quota=100, cache_size=32):
    provider = DataProviderService(
        guard_config=GuardConfig(
            policy="popularity",
            cap=5.0,
            unit=10.0,
            result_cache_size=cache_size,
        ),
        account_policy=AccountPolicy(daily_query_quota=quota),
    )
    provider.database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
    )
    provider.database.insert_rows(
        "t", [(i, f"v{i}") for i in range(1, 21)]
    )
    return provider


class TestFastPathHits:
    def test_hit_served_on_io_loop_with_delay(self):
        service = build_service()
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                client.register("alice")
                miss = client.query(
                    "SELECT * FROM t WHERE id = 3", identity="alice"
                )
                assert not miss.get("cached", False)
                assert server.cache_fast_path_hits == 0
                hit = client.query(
                    "SELECT * FROM t WHERE id = 3", identity="alice"
                )
        assert hit["cached"] is True
        assert hit["rows"] == miss["rows"]
        assert server.cache_fast_path_hits == 1
        # Priced, not free: the warm popularity delay still applies.
        assert hit["delay"] > 0

    def test_hits_counted_in_health_and_metrics(self):
        service = build_service()
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                client.register("alice")
                client.query("SELECT * FROM t", identity="alice")
                client.query("SELECT * FROM t", identity="alice")
                health = client.health()
                metrics = client.metrics()
        assert health["server"]["cache_fast_path_hits"] == 1
        gauge = metrics["metrics"]["server_cache_fast_path_hits_total"]
        assert gauge["value"] == 1.0

    def test_fast_path_hits_still_burn_quota(self):
        service = build_service(quota=5)
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                client.register("alice")
                sql = "SELECT * FROM t WHERE id = 1"
                for _ in range(5):  # 1 miss + 4 fast-path hits
                    client.query(sql, identity="alice")
                assert server.cache_fast_path_hits == 4
                with pytest.raises(ServerError, match="quota"):
                    client.query(sql, identity="alice")

    def test_denial_answered_on_io_loop(self):
        """An exhausted account is refused without queueing a worker."""
        service = build_service(quota=1)
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                client.register("alice")
                sql = "SELECT * FROM t WHERE id = 2"
                client.query(sql, identity="alice")
                with pytest.raises(ServerError, match="quota"):
                    client.query(sql, identity="alice")
        # The refused retry *was* a cache hit; it never became a worker
        # item, and it never became a served fast-path hit either.
        assert server.cache_fast_path_hits == 0


class TestMissesAndToggles:
    def test_miss_charged_exactly_once(self):
        """The cache-only probe must not pre-charge the account.

        With a quota of exactly N, N distinct (always-miss) queries
        succeed and the N+1th is refused — double charging on the probe
        would refuse around N/2.
        """
        service = build_service(quota=6)
        with DelayServer(service) as server:
            with DelayClient(*server.address) as client:
                client.register("alice")
                for i in range(1, 7):
                    client.query(
                        f"SELECT * FROM t WHERE id = {i}",
                        identity="alice",
                    )
                with pytest.raises(ServerError, match="quota"):
                    client.query(
                        "SELECT * FROM t WHERE id = 7", identity="alice"
                    )
        assert server.cache_fast_path_hits == 0

    def test_no_cache_configured_never_probes(self):
        provider = DataProviderService(
            guard_config=GuardConfig(policy="popularity", cap=5.0)
        )
        provider.database.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY)"
        )
        provider.database.insert_rows("t", [(1,), (2,)])
        with DelayServer(provider) as server:
            with DelayClient(*server.address) as client:
                client.query("SELECT * FROM t")
                client.query("SELECT * FROM t")
        assert server.cache_fast_path_hits == 0
