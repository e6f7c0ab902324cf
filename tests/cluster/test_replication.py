"""Replica groups: shipping, price-safe promotion, degraded serving.

The failover contract under test, in the defense's terms: a promoted
follower serves exactly the primary's *committed prefix* — of the data
(journal-fingerprint equality) and of the defense state (the digest
piggyback makes its trackers equal the primary's as of the last
acknowledged shipment) — so the mandated delay after failover is never
below what the never-crashed primary would have charged at that point.
"""

import pytest

from repro.cluster import ClusterService, StaleTermError
from repro.cluster.replication import (
    FENCED,
    FOLLOWER,
    PRIMARY,
    ReplicationError,
    WireDecoder,
    encode_message,
)
from repro.core.config import GuardConfig
from repro.core.errors import ConfigError, ShardUnavailable
from repro.engine.journal import fingerprint_journal
from repro.obs.health import replication_summary

CONFIG = dict(policy="popularity", cap=20.0, unit=600.0, decay_rate=1.0)
TABLE = "t"


def make_config(**overrides):
    return GuardConfig(**{**CONFIG, **overrides})


def build_cluster(tmp_path, rows=20, **kwargs):
    kwargs.setdefault("guard_config", make_config())
    kwargs.setdefault("replication_factor", 2)
    cluster = ClusterService(
        shard_count=2, data_dir=tmp_path, **kwargs
    )
    cluster.query(
        None, f"CREATE TABLE {TABLE} (id INTEGER PRIMARY KEY, v TEXT)"
    )
    for i in range(1, rows + 1):
        cluster.query(None, f"INSERT INTO {TABLE} VALUES ({i}, 'v{i}')")
    return cluster


class TestWireFraming:
    def test_roundtrip_across_arbitrary_chunking(self):
        messages = [
            {"t": "ship", "entries": [{"seq": i}]} for i in range(5)
        ]
        blob = b"".join(encode_message(m) for m in messages)
        decoder = WireDecoder()
        decoded = []
        for i in range(0, len(blob), 7):  # deliberately torn reads
            decoded.extend(decoder.feed(blob[i : i + 7]))
        assert decoded == messages
        assert decoder.pending_bytes == 0

    def test_corrupt_frame_raises(self):
        blob = bytearray(encode_message({"t": "ship"}))
        blob[-1] ^= 0xFF
        with pytest.raises(ReplicationError):
            WireDecoder().feed(bytes(blob))


class TestShipping:
    def test_ship_drains_lag_and_acks(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            for group in cluster.groups:
                health = group.replication_health()
                assert health["replication_lag"] > 0
            assert cluster.monitor.ship_all() > 0
            for group in cluster.groups:
                health = group.replication_health()
                assert health["replication_lag"] == 0
                follower = group.followers[0]
                assert follower.acked_seq == group.committed_seq
        finally:
            cluster.close()

    def test_follower_journal_is_byte_identical_prefix(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            for group in cluster.groups:
                follower = group.followers[0]
                assert fingerprint_journal(
                    follower.journal.path
                ) == fingerprint_journal(
                    group.primary.service.journal.path,
                    upto_seq=follower.acked_seq,
                )
        finally:
            cluster.close()

    def test_digest_piggyback_syncs_popularity(self, tmp_path):
        cluster = build_cluster(tmp_path, gossip=False)
        try:
            for i in range(1, 21):
                cluster.query(
                    None, f"SELECT * FROM {TABLE} WHERE id = {i}"
                )
            cluster.monitor.ship_all()
            for group in cluster.groups:
                primary = group.primary.service.guard
                follower = group.followers[0].service.guard
                for key, count in primary.popularity.snapshot():
                    assert follower.popularity.present_count(
                        key
                    ) == pytest.approx(count)
        finally:
            cluster.close()

    def test_redelivery_is_idempotent(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            group = cluster.groups[0]
            follower = group.followers[0]
            with open(group.primary.service.journal.path, "rb") as fh:
                fh.read(6)  # magic
            # Re-deliver the full committed prefix straight to the
            # follower: every seq <= applied_seq must be skipped.
            from repro.engine.journal import scan_journal

            scan = scan_journal(group.primary.service.journal.path)
            before = follower.applied_seq
            rowcount = len(
                follower.service.database.catalog.table(TABLE)
            )
            ack = follower.apply_ship(
                {
                    "t": "ship",
                    "term": group.term,
                    "entries": [r.payload for r in scan.records],
                    "digest": {},
                }
            )
            assert ack["t"] == "ack"
            assert follower.applied_seq == before
            assert (
                len(follower.service.database.catalog.table(TABLE))
                == rowcount
            )
        finally:
            cluster.close()

    def test_checkpoint_ships_before_truncating(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            # No manual ship: checkpoint itself must drain the backlog
            # before the journal is cut back.
            cluster.checkpoint()
            for group in cluster.groups:
                follower = group.followers[0]
                assert follower.applied_seq > 0
                assert group.replication_health()["replication_lag"] == 0
        finally:
            cluster.close()


class TestFailover:
    def test_promotion_serves_exact_committed_prefix(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            group0 = cluster.groups[0]
            acked = group0.followers[0].acked_seq
            primary_journal = group0.primary.service.journal.path
            # A doomed suffix: committed on the primary, never shipped.
            cluster.query(
                None, f"INSERT INTO {TABLE} VALUES (101, 'doomed')"
            )
            cluster.query(
                None, f"INSERT INTO {TABLE} VALUES (103, 'doomed')"
            )
            group0.primary.kill()
            reports = cluster.monitor.probe()
            assert reports[0]["promoted"] == "shard-0-r1"
            assert group0.available
            assert group0.term == 2
            assert group0.primary.role == PRIMARY
            # The promoted journal is byte-identical to the dead
            # primary's committed prefix at the last ack.
            assert fingerprint_journal(
                group0.primary.service.journal.path
            ) == fingerprint_journal(primary_journal, upto_seq=acked)
            rows = cluster.query(
                None, f"SELECT id FROM {TABLE}"
            ).result.rows
            ids = {row[0] for row in rows}
            assert ids == set(range(1, 21))  # suffix gone, prefix exact
        finally:
            cluster.close()

    def test_promotion_never_understates_delay(self, tmp_path):
        cluster = build_cluster(tmp_path, gossip=False)
        try:
            for _ in range(3):
                for i in range(1, 21):
                    cluster.query(
                        None, f"SELECT * FROM {TABLE} WHERE id = {i}"
                    )
            cluster.monitor.ship_all()
            group0 = cluster.groups[0]
            keys = [
                key for key, _ in group0.primary.service.guard
                .popularity.snapshot()
            ]
            reference = group0.primary.service.guard.policy.delays_for(
                keys
            )
            group0.primary.kill()
            cluster.monitor.probe()
            promoted = group0.guard.policy.delays_for(keys)
            for got, want in zip(promoted, reference):
                assert got >= want - 1e-9
        finally:
            cluster.close()

    def test_whole_group_down_is_a_structured_denial(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            group0 = cluster.groups[0]
            for member in group0.members:
                member.kill()
            cluster.monitor.probe()
            assert not group0.available
            # Find an id owned by shard 0 for the single-shard path.
            owned = next(
                i
                for i in range(1, 21)
                if cluster.shard_map.shard_for(TABLE, i) == 0
            )
            with pytest.raises(ShardUnavailable) as denied:
                cluster.query(
                    None, f"SELECT * FROM {TABLE} WHERE id = {owned}"
                )
            assert denied.value.reason == "shard_unavailable"
            assert denied.value.retry_after > 0
            assert denied.value.shards == [0]
            # Scatter fails closed by default — never silently partial.
            with pytest.raises(ShardUnavailable):
                cluster.query(None, f"SELECT * FROM {TABLE}")
            # A query the live shard can answer alone still serves.
            other = next(
                i
                for i in range(1, 21)
                if cluster.shard_map.shard_for(TABLE, i) == 1
            )
            result = cluster.query(
                None, f"SELECT * FROM {TABLE} WHERE id = {other}"
            )
            assert result.result.rows
        finally:
            cluster.close()

    def test_partial_results_attaches_coverage(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            complete = cluster.guard.execute(
                f"SELECT id FROM {TABLE}", sleep=False
            )
            assert complete.coverage is None
            group0 = cluster.groups[0]
            for member in group0.members:
                member.kill()
            cluster.monitor.probe()
            degraded = cluster.guard.execute(
                f"SELECT id FROM {TABLE}",
                sleep=False,
                partial_results=True,
            )
            assert degraded.coverage == {
                "partial": True,
                "shards_total": 2,
                "shards_answered": [1],
                "shards_missing": [0],
            }
            returned = {row[0] for row in degraded.result.rows}
            shard1_ids = {
                i
                for i in range(1, 21)
                if cluster.shard_map.shard_for(TABLE, i) == 1
            }
            assert returned == shard1_ids
            stats = cluster.router.routing_stats()
            assert stats["partial_scatter_queries"] == 1
            assert stats["unavailable_denials"] == 0
        finally:
            cluster.close()

    def test_deposed_primary_is_fenced_on_return(self, tmp_path):
        cluster = build_cluster(
            tmp_path, replication_factor=3, gossip=False
        )
        try:
            cluster.monitor.ship_all()
            group0 = cluster.groups[0]
            old = group0.primary
            # A divergent suffix only the doomed primary holds (the id
            # must hash to shard 0, or the insert lands on a group
            # that never fails over).
            divergent = next(
                i
                for i in range(200, 300)
                if cluster.shard_map.shard_for(TABLE, i) == 0
            )
            cluster.query(
                None,
                f"INSERT INTO {TABLE} VALUES ({divergent}, 'divergent')",
            )
            old.kill()
            cluster.monitor.probe()
            assert group0.primary is not old
            assert old.role == FENCED
            # The old primary comes back and tries to ship its term-1
            # timeline: every follower nacks, the group raises.
            old.alive = True
            with pytest.raises(StaleTermError):
                group0._ship_from(old)
            assert group0.fencings >= 1
            rows = cluster.query(
                None, f"SELECT id FROM {TABLE}"
            ).result.rows
            assert divergent not in {row[0] for row in rows}
        finally:
            cluster.close()

    def test_scatter_after_promotion_serves_the_new_primary(self, tmp_path):
        # The promoted follower lagged two frames, so two new commits
        # bring its epoch back to the value the deposed primary had
        # when the last scatter ran: a view keyed on epochs alone would
        # serve the dead primary's rows.
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            owned = [
                i
                for i in range(100, 200)
                if cluster.shard_map.shard_for(TABLE, i) == 0
            ]
            lost, committed = owned[:2], owned[2:4]
            for i in lost:
                cluster.query(
                    None, f"INSERT INTO {TABLE} VALUES ({i}, 'lost')"
                )
            before = cluster.query(None, f"SELECT id FROM {TABLE}")
            assert set(lost) <= {row[0] for row in before.result.rows}
            group0 = cluster.groups[0]
            deposed_epoch = group0.database.mutation_epoch
            group0.primary.kill()
            assert cluster.monitor.probe()[0]["promoted"] == "shard-0-r1"
            for i in committed:
                cluster.query(
                    None, f"INSERT INTO {TABLE} VALUES ({i}, 'kept')"
                )
            assert group0.database.mutation_epoch == deposed_epoch
            after = cluster.query(None, f"SELECT id FROM {TABLE}").result
            ids = {row[0] for row in after.rows}
            assert ids == set(range(1, 21)) | set(committed)
            # ...and prices exactly the live rows, at their owners' rowids.
            owned_rowids = []
            for i in ids:
                owner = cluster.shards[cluster.shard_map.shard_for(TABLE, i)]
                owned_rowids.append(owner.database.table(TABLE).lookup_pk(i))
            assert sorted(after.touched) == sorted(
                (TABLE, rowid) for rowid in owned_rowids
            )
        finally:
            cluster.close()


class TestClusterSurface:
    def test_health_exposes_replication(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            health = cluster.cluster_health()
            replication = health["replication"]
            assert replication["factor"] == 2
            summary = replication["summary"]
            assert summary["groups_available"] == 2
            assert summary["max_replication_lag"] == 0
            assert summary["failovers_total"] == 0
            roles = {
                row["role"]
                for group in replication["groups"]
                for row in group["members"]
            }
            assert roles == {PRIMARY, FOLLOWER}
            cluster.groups[0].primary.kill()
            cluster.monitor.probe()
            summary = cluster.cluster_health()["replication"]["summary"]
            assert summary["failovers_total"] == 1
        finally:
            cluster.close()

    def test_summary_folds_the_rows_it_is_shown_beside(
        self, tmp_path, monkeypatch
    ):
        # A row read twice can move in between (the monitor thread
        # ships); each group is read once per health call, so the
        # summary is exactly the fold of the payload's own rows.
        cluster = build_cluster(tmp_path)
        try:
            for group in cluster.groups:
                read = group.replication_health
                calls = []

                def moving(read=read, calls=calls):
                    calls.append(1)
                    row = read()
                    row["replication_lag"] = len(calls)
                    return row

                monkeypatch.setattr(group, "replication_health", moving)
            replication = cluster.cluster_health()["replication"]
            assert replication["summary"] == replication_summary(
                replication["groups"]
            )
            lags = [row["replication_lag"] for row in replication["groups"]]
            assert lags == [1, 1]
        finally:
            cluster.close()

    def test_metrics_gauges_track_failover(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            exported = cluster.obs.registry.to_json()
            assert exported["cluster_replication_lag"]["value"] == 0
            assert exported["cluster_groups_available"]["value"] == 2
            cluster.groups[0].primary.kill()
            cluster.monitor.probe()
            exported = cluster.obs.registry.to_json()
            assert exported["cluster_failovers_total"]["value"] == 1
        finally:
            cluster.close()

    def test_replication_requires_data_dir(self):
        with pytest.raises(ConfigError):
            ClusterService(shard_count=2, replication_factor=2)

    def test_population_survives_a_down_group(self, tmp_path):
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            before = cluster.population()
            for member in cluster.groups[0].members:
                member.kill()
            assert cluster.population() == before
        finally:
            cluster.close()

    def test_population_after_promotion_counts_the_new_primary(
        self, tmp_path
    ):
        # Two unshipped inserts die with the primary; two deletes on the
        # promoted follower bring its epoch back to the deposed one's.
        cluster = build_cluster(tmp_path)
        try:
            cluster.monitor.ship_all()
            owned = [
                i
                for i in range(1, 200)
                if cluster.shard_map.shard_for(TABLE, i) == 0
            ]
            for i in owned[-2:]:
                cluster.query(
                    None, f"INSERT INTO {TABLE} VALUES ({i}, 'lost')"
                )
            assert cluster.population() == 22
            group0 = cluster.groups[0]
            deposed_epoch = group0.database.mutation_epoch
            group0.primary.kill()
            cluster.monitor.probe()
            for i in owned[:2]:
                cluster.query(None, f"DELETE FROM {TABLE} WHERE id = {i}")
            assert group0.database.mutation_epoch == deposed_epoch
            assert cluster.population() == 18
        finally:
            cluster.close()
