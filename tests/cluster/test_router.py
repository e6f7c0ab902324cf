"""Router correctness: a 4-shard cluster answers like a single node.

The reference for every assertion is an identical single-node
:class:`DataProviderService` fed the same statements — the cluster
refactor is correct exactly when no client can tell the two apart
(results *and* prices).
"""


import pytest

from repro.cluster import ClusterService
from repro.core import AccountPolicy, GuardConfig
from repro.core.errors import AccessDenied, ConfigError, ShardUnavailable
from repro.obs import AuditLog, Observability
from repro.service import DataProviderService

CONFIG = dict(policy="popularity", cap=30.0, unit=600.0)


def build_pair(shard_count=4, **kwargs):
    """A cluster and a single-node reference with the same config."""
    config = GuardConfig(**CONFIG)
    cluster = ClusterService(
        shard_count=shard_count, guard_config=config, **kwargs
    )
    reference = DataProviderService(guard_config=GuardConfig(**CONFIG))
    return cluster, reference


def load_fixture(*services, identity=None):
    statements = [
        "CREATE TABLE users "
        "(id INTEGER PRIMARY KEY, name TEXT, team INTEGER)",
        "CREATE TABLE teams (id INTEGER PRIMARY KEY, label TEXT)",
        "CREATE INDEX idx_team ON users (team)",
    ]
    statements += [
        f"INSERT INTO users VALUES ({i}, 'user-{i}', {i % 5})"
        for i in range(1, 41)
    ]
    statements += [
        f"INSERT INTO teams VALUES ({i}, 'team-{i}')" for i in range(5)
    ]
    for service in services:
        for sql in statements:
            service.query(identity, sql)


PARITY_QUERIES = [
    "SELECT * FROM users WHERE id = 7",
    "SELECT * FROM users WHERE id IN (3, 17, 29) ORDER BY id",
    "SELECT * FROM users WHERE team = 2 ORDER BY id",
    "SELECT COUNT(*), MIN(id), MAX(id) FROM users",
    "SELECT team, COUNT(*) FROM users GROUP BY team ORDER BY team",
    "SELECT t.label, COUNT(*) FROM users u "
    "JOIN teams t ON u.team = t.id GROUP BY t.label ORDER BY t.label",
    "SELECT name FROM users WHERE id > 30 ORDER BY id DESC LIMIT 4",
    "SELECT DISTINCT team FROM users ORDER BY team",
]


class TestReadParity:
    def test_cluster_matches_single_node(self):
        cluster, reference = build_pair()
        load_fixture(cluster, reference)
        for sql in PARITY_QUERIES:
            ours = cluster.query(None, sql, record=False)
            theirs = reference.query(None, sql, record=False)
            assert ours.result.rows == theirs.result.rows, sql
            assert ours.result.columns == theirs.result.columns, sql

    def test_rowids_are_globally_unique(self):
        cluster, reference = build_pair()
        load_fixture(cluster, reference)
        result = cluster.query(
            None, "SELECT * FROM users", record=False
        ).result
        assert len(set(result.rowids)) == len(result.rowids) == 40

    def test_single_shard_fast_path_taken_for_pk_lookups(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        before = cluster.router.single_shard_queries
        cluster.query(None, "SELECT * FROM users WHERE id = 5")
        assert cluster.router.single_shard_queries == before + 1

    def test_scans_scatter(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        before = cluster.router.scatter_queries
        cluster.query(None, "SELECT COUNT(*) FROM users")
        assert cluster.router.scatter_queries == before + 1


class TestWriteParity:
    def test_update_delete_match_single_node(self):
        cluster, reference = build_pair()
        load_fixture(cluster, reference)
        for sql in (
            "UPDATE users SET name = 'renamed' WHERE id = 3",
            "UPDATE users SET name = 'bulk' WHERE team = 1",
            "DELETE FROM users WHERE id = 17",
            "DELETE FROM users WHERE team = 4",
        ):
            ours = cluster.query(None, sql)
            theirs = reference.query(None, sql)
            assert ours.result.rowcount == theirs.result.rowcount, sql
        ours = cluster.query(
            None, "SELECT * FROM users ORDER BY id", record=False
        )
        theirs = reference.query(
            None, "SELECT * FROM users ORDER BY id", record=False
        )
        assert ours.result.rows == theirs.result.rows

    def test_pk_update_routes_to_one_shard(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        broadcasts = cluster.router.broadcast_statements
        cluster.query(None, "UPDATE users SET name = 'x' WHERE id = 9")
        assert cluster.router.broadcast_statements == broadcasts

    def test_insert_places_rows_on_hash_owners(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        shard_map = cluster.shard_map
        for i in range(41, 61):
            cluster.query(
                None, f"INSERT INTO users VALUES ({i}, 'n{i}', 0)"
            )
            owner = shard_map.shard_for("users", i)
            found = cluster.shards[owner].database.query(
                f"SELECT id FROM users WHERE id = {i}"
            )
            assert found == [(i,)], f"row {i} not on shard {owner}"

    def test_insert_requires_literal_rows(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        with pytest.raises(ConfigError, match="literal"):
            cluster.query(
                None, "INSERT INTO users VALUES (99, 'x', 1 + 1)"
            )

    def test_insert_without_pk_column_rejected(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        with pytest.raises(ConfigError, match="partition key"):
            cluster.query(
                None, "INSERT INTO users (name, team) VALUES ('x', 1)"
            )

    def test_transactions_rejected(self):
        cluster, _ = build_pair()
        with pytest.raises(ConfigError, match="transactions"):
            cluster.query(None, "BEGIN")


class TestGlobalPricing:
    def test_population_is_global(self):
        cluster, reference = build_pair()
        load_fixture(cluster, reference)
        assert cluster.population() == reference.guard.population() == 45
        for guard in cluster.guards:
            assert guard.population() == 45

    def test_scatter_price_matches_single_node(self):
        """A warmed scan costs the same on the cluster as on one node."""
        cluster, reference = build_pair()
        load_fixture(cluster, reference)
        warm = "SELECT * FROM users WHERE team = 2"
        for _ in range(10):
            ours = cluster.query(None, warm)
            theirs = reference.query(None, warm)
        cluster.gossip.run_round()
        ours = cluster.query(None, warm)
        theirs = reference.query(None, warm)
        assert ours.delay == pytest.approx(theirs.delay, rel=1e-9)

    def test_fast_path_price_matches_after_gossip(self):
        """Post-gossip, a pk lookup is priced like the single node."""
        cluster, reference = build_pair()
        load_fixture(cluster, reference)
        lookup = "SELECT * FROM users WHERE id = 7"
        for _ in range(8):
            cluster.query(None, lookup)
            reference.query(None, lookup)
        cluster.gossip.run_round()
        ours = cluster.query(None, lookup, record=False)
        theirs = reference.query(None, lookup, record=False)
        assert ours.delay == pytest.approx(theirs.delay, rel=1e-9)

    def test_one_delay_never_per_shard_sums(self):
        """The served delay equals the merged-set price, not M prices."""
        cluster, reference = build_pair()
        load_fixture(cluster, reference)
        scan = "SELECT * FROM users"
        ours = cluster.query(None, scan)
        theirs = reference.query(None, scan)
        assert ours.delay == pytest.approx(theirs.delay, rel=1e-9)
        assert len(ours.per_tuple_delays) == 40

    def test_scatter_reads_recorded_at_owners(self):
        cluster, _ = build_pair()
        load_fixture(cluster)
        cluster.query(None, "SELECT * FROM users WHERE team = 0")
        recorded = [
            guard.popularity.store.items() for guard in cluster.guards
        ]
        owned = [
            {(key[1] - 1) % 4 for key, _ in items} for items in recorded
        ]
        for shard, owners in enumerate(owned):
            assert owners <= {shard}, (
                f"shard {shard} recorded keys it does not own: {owners}"
            )


class TestAccounts:
    def test_budgets_are_cluster_global(self):
        config = GuardConfig(**CONFIG)
        cluster = ClusterService(
            shard_count=4,
            guard_config=config,
            account_policy=AccountPolicy(daily_query_quota=10),
        )
        cluster.register("loader")
        cluster.query(
            "loader",
            "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT)",
        )
        cluster.query(
            "loader", "INSERT INTO users VALUES (1, 'a'), (2, 'b')"
        )
        cluster.register("alice")
        # The quota is per identity across the WHOLE cluster: spraying
        # the lookups over different shards buys no extra budget.
        for i in range(10):
            cluster.query(
                "alice", f"SELECT * FROM users WHERE id = {1 + i % 2}"
            )
        with pytest.raises(AccessDenied):
            cluster.query("alice", "SELECT * FROM users WHERE id = 2")
        assert cluster.router.stats.denied == 1


class TestResultLimit:
    def test_limit_enforced_on_scatter_and_single_shard_reads(self):
        """§1.1's strawman limit holds on both read paths (a scatter
        used to be served whatever its size)."""
        cluster = ClusterService(
            shard_count=2,
            guard_config=GuardConfig(max_result_rows=5, **CONFIG),
        )
        load_fixture(cluster)
        for denied, sql in enumerate(
            (
                "SELECT * FROM users WHERE team = 2",  # 8 rows, scattered
                "SELECT * FROM users WHERE id = 4 OR id < 0 OR id > 34",
            ),
            start=1,
        ):
            with pytest.raises(AccessDenied) as refused:
                cluster.query(None, sql)
            assert refused.value.reason == "result_limit", sql
            assert cluster.router.stats.denied == denied
        for guard in cluster.guards:
            assert guard.popularity.total_requests == 0
        assert cluster.clock.now() == 0.0
        served = cluster.query(None, "SELECT * FROM users WHERE team = 2 LIMIT 5")
        assert len(served.rows) == 5


class TestShardFailure:
    def test_reads_and_writes_share_one_failure_taxonomy(
        self, monkeypatch, tmp_path
    ):
        """An owner blowing up mid-statement is ``shard_unavailable`` for
        a single-shard SELECT exactly as for an UPDATE (the SELECT used
        to surface the raw exception)."""
        audit = AuditLog(str(tmp_path / "audit.jsonl"))
        cluster, _ = build_pair(obs=Observability(audit=audit))
        load_fixture(cluster)
        owner = cluster.shard_map.shard_for("users", 7)

        def explode(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cluster.shards[owner].database, "execute", explode)
        for failures, sql in enumerate(
            (
                "SELECT * FROM users WHERE id = 7",
                "UPDATE users SET name = 'x' WHERE id = 7",
            ),
            start=1,
        ):
            with pytest.raises(ShardUnavailable) as refused:
                cluster.query(None, sql)
            assert refused.value.reason == "shard_unavailable"
            assert refused.value.shards == [owner]
            assert cluster.router.shard_failures == failures
            assert cluster.router.stats.denied == failures
        audit.close()
        events = audit.replay()
        assert [
            event["shard"]
            for event in events
            if event["event"] == "cluster_shard_failure"
        ] == [owner, owner]


class TestOwnerSplit:
    """``_by_owner`` splits a footprint on its rowid array into exactly
    the per-owner lists the key-by-key path builds."""

    def footprint(self, rowids, codes=None):
        import numpy as np

        from repro.engine import Footprint

        return Footprint(
            ("users", "teams"),
            np.array(rowids, dtype=np.int64),
            None if codes is None else np.array(codes, dtype=np.int8),
        )

    def test_shares_equal_the_list_path_in_order(self):
        import random

        from repro.engine import FOOTPRINT_FROM, Footprint

        cluster = ClusterService(
            shard_count=4, guard_config=GuardConfig(**CONFIG), gossip=False
        )
        try:
            router = cluster.router
            rng = random.Random(3)
            for size in (5, 60, 300):
                rowids = [rng.randrange(1, 500) for _ in range(size)]
                codes = [rng.randrange(2) for _ in range(size)]
                for footprint in (
                    self.footprint(rowids),
                    self.footprint(rowids, codes),
                ):
                    split = router._by_owner(footprint)
                    expected = router._by_owner(list(footprint))
                    assert list(split) == list(expected)  # first appearance
                    for owner, share in split.items():
                        assert list(share) == expected[owner]
                        large = len(share) >= FOOTPRINT_FROM
                        assert isinstance(share, Footprint) == large
        finally:
            cluster.close()

    def test_a_down_owners_share_is_recorded_at_a_live_peer(self):
        cluster = ClusterService(
            shard_count=4, guard_config=GuardConfig(**CONFIG), gossip=False
        )
        twin = ClusterService(
            shard_count=4, guard_config=GuardConfig(**CONFIG), gossip=False
        )
        try:
            rowids = list(range(1, 400, 3))
            for service, keys in (
                (cluster, self.footprint(rowids)),
                (twin, list(self.footprint(rowids))),
            ):
                service.shards[2].available = False
                ctx = type("Ctx", (), {"keys": keys})()
                service.router.record_reads(ctx)
            for one, other in zip(cluster.shards, twin.shards):
                assert list(one.guard.popularity.store.items()) == list(
                    other.guard.popularity.store.items()
                )
        finally:
            cluster.close()
            twin.close()
