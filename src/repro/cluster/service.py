"""The deployable M-shard cluster, quacking like one service.

:class:`ClusterService` owns M :class:`~repro.service.DataProviderService`
shards — each with its own engine, journal, and snapshot — plus the
glue that keeps the *defense* single-node-equivalent:

- every shard's guard prices against the **global** population (a
  shared provider summing all shards, cached per mutation-epoch
  vector);
- a :class:`~repro.cluster.gossip.GossipCoordinator` keeps the
  popularity/update-rate trackers convergent, so a single-shard
  fast-path query is priced from (boundedly stale) global counts;
- a :class:`~repro.cluster.router.ClusterRouter` serves every
  statement with exactly one globally-priced delay;
- accounts live at the router, never at the shards, so per-identity
  budgets cannot be multiplied by spraying shards.

The whole composition exposes the :class:`DataProviderService` surface
(``guard``/``query``/``register``/``report``/``checkpoint``/
``durability_health``), so :class:`~repro.server.DelayServer` and the
CLI serve a cluster unchanged; ``cluster_health()`` additionally feeds
the server's ``health`` op a shard-level view (per-shard lag, gossip
round-trips, count divergence).
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.accounts import Account, AccountManager, AccountPolicy
from ..core.clock import Clock, VirtualClock
from ..core.config import GuardConfig
from ..core.errors import ConfigError
from ..core.guard import GuardedResult, staleness_entry
from ..engine.database import Database
from ..engine.journal import WriteAheadJournal
from ..obs import Observability
from ..obs.health import replication_summary
from ..service import DataProviderService, ServiceReport, build_report
from .gossip import GossipCoordinator
from .replication import GroupMonitor, ReplicaGroup, ReplicaMember
from .router import ClusterRouter
from .sharding import ShardMap


def _shard_config(config: GuardConfig, index: int) -> GuardConfig:
    """Shard ``index``'s copy of the cluster config (see
    :class:`ClusterService`'s ``guard_config``)."""
    return dataclasses.replace(
        config,
        node_id=f"shard-{index}",
        forensics=False,
        max_result_rows=None,
    )


def _shard_paths(
    data_dir: Optional[Path], index: int
) -> Tuple[Optional[Path], Optional[Path]]:
    """Shard ``index``'s snapshot and journal files under ``data_dir``."""
    if data_dir is None:
        return None, None
    return (
        data_dir / f"shard-{index}.snapshot.json",
        data_dir / f"shard-{index}.journal",
    )


class ClusterGuard:
    """The router dressed in :class:`~repro.core.guard.DelayGuard`'s API.

    :class:`~repro.server.DelayServer` and the CLI talk to
    ``service.guard``; this adapter forwards queries to the router —
    the cluster's :class:`~repro.core.pipeline.PipelineHost`, so a
    cluster query runs the same lifecycle stages, metrics and traces as
    a single node's — and aggregates the read-only surfaces (stats,
    forensics, staleness, extraction cost) cluster-wide.
    ``result_cache`` is None, as the router's is: the server's I/O-loop
    cache probe is a single-guard optimisation and stays off for
    clusters (a ``cache_only`` probe sent anyway misses in the
    pipeline's own probe order).
    """

    result_cache = None

    def __init__(self, cluster: "ClusterService"):
        self._cluster = cluster
        self.config = cluster.config
        #: the server's query surface is the router's front door itself.
        self.execute = cluster.router.execute

    @property
    def stats(self):
        return self._cluster.router.stats

    @property
    def forensics(self):
        return self._cluster.router.forensics

    @property
    def popularity(self):
        """A live shard's gossip-merged popularity view."""
        return self._cluster.router._reference_shard().guard.popularity

    # -- aggregated read-only surfaces --------------------------------------

    def population(self) -> int:
        return self._cluster.population()

    def extraction_cost(self, table: Optional[str] = None) -> float:
        """Global extraction cost: the sum over every shard's tuples.

        Each shard prices its own partition against the merged trackers
        and the global N, so the sum equals the single-node figure up
        to gossip staleness. Down replica groups are skipped — their
        partitions are unreadable, so the figure is a lower bound while
        degraded (the health view flags the missing groups).
        """
        return sum(
            guard.extraction_cost(table)
            for guard in self._cluster.live_guards()
        )

    def max_extraction_cost(self, table: Optional[str] = None) -> float:
        if self.config.cap is None:
            raise ConfigError("max_extraction_cost requires a delay cap")
        if table is not None:
            total = 0
            for shard in self._cluster.live_shards():
                with shard.database.read_view():
                    total += len(shard.database.catalog.table(table))
            return total * self.config.cap
        return self.population() * self.config.cap

    def staleness_report(self) -> Dict[str, Dict]:
        """Per-table staleness over the cluster, as one node reports it.

        Each shard contributes only its own partition's rows: their
        population, extraction seconds and update rates. Populations
        and horizons add, and the stale fraction is evaluated once,
        over every row, against the global extraction horizon.
        """
        merged: Dict[str, list] = {}
        for guard in self._cluster.live_guards():
            for table, inputs in guard.staleness_inputs().items():
                population, horizon, rates = inputs
                slot = merged.setdefault(table, [0, 0.0, []])
                slot[0] += population
                slot[1] += horizon
                slot[2].append(rates)
        return {
            table: staleness_entry(population, horizon, np.concatenate(rates))
            for table, (population, horizon, rates) in merged.items()
        }

    def refresh_staleness_gauges(self) -> Dict[str, Dict]:
        """The server's health op calls this; clusters just report.

        Shard guards run with observability disabled, so there are no
        per-shard gauges to pump — the merged report is the product.
        """
        return self.staleness_report()


class ClusterService:
    """M shards + gossip + router, exposing one service surface.

    Args:
        shard_count: number of shards (M).
        guard_config: the cluster-wide defense configuration. Each
            shard runs a copy with ``node_id="shard-i"`` (its stable
            gossip origin) and with forensics and the result limit off
            — both judge the *whole* answer and run once, in the
            router's pipeline.
        account_policy: §2.4 account defenses, enforced at the router
            (shards never see identities, so budgets are global).
        clock: the shared cluster clock (virtual by default). All
            shards, the accounts, and the router's single served delay
            use this one clock.
        obs: the router-level observability bundle (enabled by
            default); shard services always run with observability
            disabled so their metric registrations don't collide.
        data_dir: when set, shard ``i`` checkpoints to
            ``shard-i.snapshot.json`` and journals to
            ``shard-i.journal`` under this directory. Required for
            :meth:`checkpoint` and :meth:`recover`.
        journal_sync: fsync shard journals on every commit.
        gossip: run anti-entropy at all. Exists so the attack test can
            demonstrate the vulnerability gossip closes; leave True.
        gossip_interval: seconds between background anti-entropy
            rounds; None means manual (call
            ``service.gossip.run_round()`` — virtual-clock tests do).
        replication_factor: members per replica group (1 = no
            replication, the historical single-service shard). With a
            factor of R, each shard is a :class:`ReplicaGroup` of one
            journalling primary plus R−1 followers fed by journal
            shipping; requires ``data_dir`` (shipping tails the
            primary's journal file).
        probe_interval: seconds between group-monitor passes (liveness
            probe → promote → ship); None means manual — call
            ``service.monitor.probe()``, as the virtual-clock tests do.
            Also becomes the ``retry_after`` hint on degraded denials.
    """

    def __init__(
        self,
        shard_count: int = 2,
        guard_config: Optional[GuardConfig] = None,
        account_policy: Optional[AccountPolicy] = None,
        clock: Optional[Clock] = None,
        obs: Optional[Observability] = None,
        data_dir: Optional[Union[str, Path]] = None,
        journal_sync: bool = True,
        gossip: bool = True,
        gossip_interval: Optional[float] = None,
        replication_factor: int = 1,
        probe_interval: Optional[float] = None,
        _shards: Optional[List[DataProviderService]] = None,
    ):
        if shard_count < 1:
            raise ConfigError(
                f"shard_count must be >= 1, got {shard_count}"
            )
        if replication_factor < 1:
            raise ConfigError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if replication_factor > 1 and data_dir is None:
            raise ConfigError(
                "replication requires data_dir= (followers are fed by "
                "shipping the primary's journal file)"
            )
        self.shard_count = shard_count
        self.replication_factor = replication_factor
        self.config = (
            guard_config if guard_config is not None else GuardConfig()
        )
        self.clock = clock if clock is not None else VirtualClock()
        self.obs = obs if obs is not None else Observability()
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.accounts: Optional[AccountManager] = (
            AccountManager(policy=account_policy, clock=self.clock)
            if account_policy is not None
            else None
        )
        if _shards is not None:
            # recover() built the primaries already (snapshot + replay).
            primaries = _shards
        else:
            primaries = [
                self._build_shard(index, journal_sync)
                for index in range(shard_count)
            ]
        self.groups: Optional[List[ReplicaGroup]] = None
        self.monitor: Optional[GroupMonitor] = None
        if replication_factor > 1:
            self.groups = [
                self._build_group(index, primary, journal_sync)
                for index, primary in enumerate(primaries)
            ]
            self.shards = self.groups
            self.monitor = GroupMonitor(
                self.groups, interval=probe_interval
            )
        else:
            self.shards = primaries
        self._pop_lock = threading.Lock()
        self._pop_cache: Optional[Tuple[tuple, int]] = None
        self._last_counts: Dict[int, int] = {}
        for guard in self.all_member_guards():
            guard.set_population_provider(self.population)
        self.shard_map = ShardMap(shard_count)
        # The anti-entropy mesh spans *every* member — followers gossip
        # too, so a promoted replica's trackers are already convergent
        # (up to one round) the moment it starts serving.
        self.gossip: Optional[GossipCoordinator] = (
            GossipCoordinator(
                self.all_member_guards(), interval=gossip_interval
            )
            if gossip
            else None
        )
        self.router = ClusterRouter(
            self.shards,
            self.shard_map,
            self.config,
            self.clock,
            population=self.population,
            accounts=self.accounts,
            obs=self.obs,
        )
        self.guard = ClusterGuard(self)
        self.checkpoints_completed = 0
        self._register_metrics()
        if self.gossip is not None and gossip_interval is not None:
            self.gossip.start()
        if self.monitor is not None and probe_interval is not None:
            self.monitor.start()

    def _build_shard(
        self, index: int, journal_sync: bool
    ) -> DataProviderService:
        database = Database()
        database.set_rowid_allocation(index, self.shard_count)
        snapshot_path, journal_path = _shard_paths(self.data_dir, index)
        return DataProviderService(
            database=database,
            guard_config=_shard_config(self.config, index),
            clock=self.clock,
            obs=Observability.disabled(),
            snapshot_path=snapshot_path,
            journal_path=journal_path,
            journal_sync=journal_sync,
        )

    def _build_group(
        self, index: int, primary: DataProviderService, journal_sync: bool
    ) -> ReplicaGroup:
        """One shard's replica group: the journalling primary plus
        R−1 followers seeded from the primary's current state.

        Seeding copies the primary's rows (preserving rowids) and
        merges its full tracker digest, then marks the follower caught
        up to the primary's current journal seq — on a fresh cluster
        both are empty and this is a no-op; after :meth:`recover` it
        re-seeds followers from the recovered primary (their previous
        replica journals are superseded and reset). Followers run with
        a *detached* database journal — shipped frames are persisted
        verbatim into a dedicated replica journal instead, which
        promotion attaches as the live journal so local commits
        continue the replicated numbering.
        """
        members = [ReplicaMember(f"shard-{index}", service=primary)]
        snapshot_seq = (
            primary.journal.last_seq if primary.journal is not None else 0
        )
        for replica in range(1, self.replication_factor):
            database = Database()
            database.set_rowid_allocation(index, self.shard_count)
            with primary.database.read_view():
                database.catalog.copy_tables_from(primary.database.catalog)
            member_id = f"shard-{index}-r{replica}"
            follower = DataProviderService(
                database=database,
                guard_config=dataclasses.replace(
                    _shard_config(self.config, index), node_id=member_id
                ),
                clock=self.clock,
                obs=Observability.disabled(),
            )
            follower.guard.gossip_merge(
                primary.guard.gossip_digest(None)
            )
            journal_path = self.data_dir / f"shard-{index}-r{replica}.journal"
            if journal_path.exists():
                journal_path.unlink()
            member = ReplicaMember(
                member_id,
                service=follower,
                journal=WriteAheadJournal(journal_path, sync=journal_sync),
            )
            member.applied_seq = snapshot_seq
            member.acked_seq = snapshot_seq
            members.append(member)
        return ReplicaGroup(
            index,
            members,
            audit=self.obs.audit if self.obs.enabled else None,
        )

    # -- member access --------------------------------------------------------

    @property
    def guards(self) -> List:
        """Each shard's *current* serving guard (promotion redirects)."""
        return [shard.guard for shard in self.shards]

    def live_shards(self) -> List:
        """The shards currently able to serve (groups may be down)."""
        return [
            shard
            for shard in self.shards
            if getattr(shard, "available", True)
        ]

    def live_guards(self) -> List:
        return [shard.guard for shard in self.live_shards()]

    def all_member_guards(self) -> List:
        """Every local member's guard, followers included — the gossip
        mesh and the population provider span all of them."""
        if self.groups is not None:
            return [
                guard
                for group in self.groups
                for guard in group.member_guards
            ]
        return [shard.guard for shard in self.shards]

    def _register_metrics(self) -> None:
        """Callback-backed replication gauges on the router registry."""
        if not self.obs.enabled or self.groups is None:
            return
        registry = self.obs.registry
        groups = self.groups
        registry.gauge(
            "cluster_replication_lag",
            "max committed-vs-acked lag across replica groups",
        ).set_function(
            lambda: max(
                (g.replication_health()["replication_lag"] for g in groups),
                default=0,
            )
        )
        registry.counter(
            "cluster_failovers_total",
            "promotions across all replica groups",
        ).set_function(lambda: sum(g.failovers for g in groups))
        registry.gauge(
            "cluster_groups_available",
            "replica groups currently able to serve",
        ).set_function(
            lambda: sum(1 for g in groups if g.available)
        )

    # -- the service surface the server consumes ----------------------------

    def register(self, identity: str, subnet: str = "0.0.0.0/0") -> Account:
        """Register an identity with the cluster-wide account manager."""
        if self.accounts is None:
            raise ConfigError(
                "this cluster runs without accounts; queries are anonymous"
            )
        return self.accounts.register(identity, subnet=subnet)

    def query(
        self, identity: Optional[str], sql: str, record: bool = True
    ) -> GuardedResult:
        """Serve one statement through the router."""
        return self.router.execute(sql, identity=identity, record=record)

    def report(self, top_k: int = 3) -> ServiceReport:
        """Operator report over the *cluster*: router stats only.

        Shard guards also keep stats internally, but every client query
        passes through the router exactly once — counting shard-side
        executions too would double-book scatter reads.
        """
        return build_report(self.guard, self.accounts, top_k)

    def checkpoint(self) -> int:
        """Checkpoint every shard; returns the highest journal seq."""
        if self.data_dir is None:
            raise ConfigError(
                "no checkpoint path: construct the cluster with data_dir="
            )
        seq = 0
        for shard in self.shards:
            seq = max(seq, shard.checkpoint())
        self.checkpoints_completed += 1
        return seq

    def durability_health(self) -> Dict:
        """Aggregate durability posture plus the per-shard detail."""
        per_shard = [shard.durability_health() for shard in self.shards]
        return {
            "journal_attached": all(
                entry["journal_attached"] for entry in per_shard
            ),
            "checkpoints_completed": self.checkpoints_completed,
            "journal_lag": sum(
                entry.get("journal_lag", 0) for entry in per_shard
            ),
            "shards": per_shard,
        }

    def cluster_health(self) -> Dict:
        """The shard-level view the server's ``health`` op embeds."""
        shards = []
        for index, shard in enumerate(self.shards):
            available = getattr(shard, "available", True)
            if available:
                with shard.database.read_view():
                    rows = sum(
                        len(heap) for heap in shard.database.catalog.tables()
                    )
                epoch = shard.database.mutation_epoch
                attached = shard.journal is not None
            else:
                rows = self._last_counts.get(index)
                epoch = None
                attached = False
            shards.append(
                {
                    "shard": index,
                    "rows": rows,
                    "available": available,
                    "mutation_epoch": epoch,
                    "journal_attached": attached,
                }
            )
        replication = None
        if self.groups is not None:
            group_rows = [
                group.replication_health() for group in self.groups
            ]
            replication = {
                "factor": self.replication_factor,
                "summary": replication_summary(group_rows),
                "groups": group_rows,
                "monitor": (
                    {
                        "probes_total": self.monitor.probes_total,
                        "probe_failures_total": (
                            self.monitor.probe_failures_total
                        ),
                        "interval": self.monitor.interval,
                        "running": self.monitor.running,
                    }
                    if self.monitor is not None
                    else None
                ),
            }
        return {
            "shard_count": self.shard_count,
            "population": self.population(),
            "shards": shards,
            "gossip": (
                self.gossip.stats() if self.gossip is not None else None
            ),
            "routing": self.router.routing_stats(),
            "replication": replication,
        }

    def close(self) -> None:
        """Stop the background gossip/monitor loops, detach the
        router's merged view from the shards, then close every shard —
        each member's service and replica journal (idempotent)."""
        if self.gossip is not None:
            self.gossip.stop()
        if self.monitor is not None:
            self.monitor.stop()
        self.router.close()
        for shard in self.shards:
            shard.close()

    # -- sizing --------------------------------------------------------------

    def population(self) -> int:
        """Global tuple count, cached per each shard's (database, epoch).

        Every shard guard prices against this (see
        :meth:`~repro.core.guard.DelayGuard.set_population_provider`):
        a committed mutation on any shard moves that shard's epoch and
        invalidates the cache, so the count is always exact. The
        database is part of the key because a promoted follower can
        reach the epoch its deposed primary had with other rows.

        A down replica group contributes its last-known count: the
        partition's tuples still exist (they are merely unservable), so
        letting N collapse would misprice every other shard's delays
        while the group fails over.
        """
        epochs = []
        for index, shard in enumerate(self.shards):
            if getattr(shard, "available", True):
                database = shard.database
                epochs.append((database, database.mutation_epoch))
            else:
                epochs.append(("down", self._last_counts.get(index, 0)))
        epochs = tuple(epochs)
        with self._pop_lock:
            cached = self._pop_cache
            if cached is not None and cached[0] == epochs:
                return cached[1]
        total = 0
        for index, shard in enumerate(self.shards):
            if not getattr(shard, "available", True):
                total += self._last_counts.get(index, 0)
                continue
            with shard.database.read_view():
                count = sum(
                    len(heap) for heap in shard.database.catalog.tables()
                )
            self._last_counts[index] = count
            total += count
        value = max(total, 1)
        with self._pop_lock:
            self._pop_cache = (epochs, value)
        return value

    # -- crash recovery ------------------------------------------------------

    @classmethod
    def recover(
        cls,
        shard_count: int,
        data_dir: Union[str, Path],
        guard_config: Optional[GuardConfig] = None,
        account_policy: Optional[AccountPolicy] = None,
        clock: Optional[Clock] = None,
        obs: Optional[Observability] = None,
        journal_sync: bool = True,
        gossip: bool = True,
        gossip_interval: Optional[float] = None,
        replication_factor: int = 1,
        probe_interval: Optional[float] = None,
    ) -> "ClusterService":
        """Rebuild a cluster from each shard's snapshot + journal.

        Each shard recovers independently — its own snapshot, its own
        journal replay, with strided rowid allocation configured
        *before* replay so re-applied INSERTs land on exactly the
        rowids they held before the crash. Restored tracker state
        includes each shard's mirrored view of its peers, and the next
        anti-entropy round re-converges anything the crash lost.

        With ``replication_factor > 1``, followers are re-seeded from
        the recovered primary's state rather than replaying their old
        replica journals (the primary's snapshot+journal is the
        authoritative timeline; stale replica journals are reset) —
        recovery restores durability first, then redundancy.
        """
        config = guard_config if guard_config is not None else GuardConfig()
        shared_clock = clock if clock is not None else VirtualClock()
        shards: List[DataProviderService] = []
        for index in range(shard_count):
            snapshot_path, journal_path = _shard_paths(Path(data_dir), index)

            def stride(db: Database, index: int = index) -> None:
                db.set_rowid_allocation(index, shard_count)

            shards.append(
                DataProviderService.recover(
                    snapshot_path=snapshot_path,
                    journal_path=journal_path,
                    guard_config=_shard_config(config, index),
                    clock=shared_clock,
                    obs=Observability.disabled(),
                    journal_sync=journal_sync,
                    database_setup=stride,
                )
            )
        return cls(
            shard_count=shard_count,
            guard_config=guard_config,
            account_policy=account_policy,
            clock=shared_clock,
            obs=obs,
            data_dir=data_dir,
            journal_sync=journal_sync,
            gossip=gossip,
            gossip_interval=gossip_interval,
            replication_factor=replication_factor,
            probe_interval=probe_interval,
            _shards=shards,
        )
