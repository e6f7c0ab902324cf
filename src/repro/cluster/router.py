"""Scatter-gather statement routing with one globally-priced delay.

The router is the cluster's single front door. Every statement enters
here, and the defense's invariant is enforced here: **one delay per
query, priced from the global merged view, served once** — never
per-shard sleeps (summing M per-shard prices computed against M
under-counted views is exactly the vulnerability sharding introduces).

The router hosts the same :class:`~repro.core.pipeline.QueryPipeline`
as a single node's guard — admit, authorize, the result limit, price,
record, forensics, the one sleep, the trace and audit envelope are that
module's code, not a copy. What is the router's own is the *execute*
stage, :class:`RouteStage`, and the answers to the pipeline's three
questions: the owner's policy prices a single-shard read and a live
reference shard's prices a scatter; reads are recorded at each tuple's
owning shard; updates were already recorded by the shards that applied
them.

Routing by statement kind:

- **DDL** (CREATE/DROP/EXPLAIN targets) broadcasts to every shard —
  all shards hold the full schema, so any shard can answer any
  statement about its own partition.
- **INSERT** splits its VALUES rows by partition-key hash and
  re-renders each shard's subset as SQL text (shards journal DML as
  source text).
- **UPDATE/DELETE** routes to the owning shard when the WHERE clause
  proves a partition key, otherwise broadcasts — partitions are
  disjoint, so the broadcast touches each affected row exactly once.
- **SELECT** takes the single-shard fast path when a partition-key
  equality proves one owner: the owner executes it (its result cache
  serves repeats) and its policy — a gossip-merged tracker view against
  the *global* population — prices it, so the price equals the
  single-node price up to gossip staleness. Anything else — scans,
  joins, aggregates — executes, holding every shard's read lock,
  against one live merged engine (copied from the shards at the first
  scatter, then patched from their row events) and is priced **once**
  from the merged touched-set. Either way the reads are recorded at
  each tuple's owning shard, so the owners stay the authoritative
  count holders.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.accounts import AccountManager
from ..core.clock import Clock
from ..core.config import GuardConfig
from ..core.delay_policy import DelayPolicy
from ..core.errors import AccessDenied, ConfigError, ShardUnavailable
from ..core.guard import GuardedResult, GuardStats
from ..core.pipeline import ExecuteStage, PipelineHost, QueryContext
from ..engine.database import Database
from ..engine.errors import EngineError
from ..engine.executor import ResultSet
from ..engine.expr import Literal
from ..engine.parser.ast import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    TransactionStatement,
    UpdateStatement,
)
from ..engine.table import HeapTable
from ..obs import Observability
from .sharding import ShardMap, pk_values_from_where, render_insert_sql

Key = Tuple[str, int]


@dataclass
class RouteContext(QueryContext):
    """A query's state plus what routing it decided."""

    #: serve a scatter from the live shards when some are down.
    partial_results: bool = False
    #: the one shard that answered alone, or None for a scatter.
    single: Optional[int] = None
    #: the policy that prices this read: the owner's, or for a scatter
    #: a live reference shard's.
    policy: Optional[DelayPolicy] = None
    #: which shards answered a degraded scatter (None when complete).
    coverage: Optional[Dict] = None


class RouteStage(ExecuteStage):
    """The cluster's execute stage: route, scatter, split or broadcast."""

    def run(self, ctx: RouteContext) -> None:
        router, statement, source = self.host, ctx.statement, ctx.source
        if isinstance(statement, TransactionStatement):
            raise ConfigError(
                "explicit transactions are not supported through the "
                "cluster router (statements are atomic per shard)"
            )
        if isinstance(statement, SelectStatement):
            ctx.result = router._route_select(ctx, statement, source)
        elif isinstance(statement, InsertStatement):
            ctx.result = router._execute_insert(statement, source)
        elif isinstance(statement, (UpdateStatement, DeleteStatement)):
            ctx.result = router._execute_dml(statement, source)
        else:
            ctx.result = router._broadcast(statement, source)


class ClusterRouter(PipelineHost):
    """Routes statements across shards; prices one global delay.

    Args:
        shards: the shard services, in shard-index order (shard ``i``
            allocates rowids ≡ ``i + 1 (mod M)``).
        shard_map: the cluster's partitioning scheme.
        config: the cluster-wide guard configuration — pricing mode,
            cap, forensics on or off. Shard guards run with forensics
            off; the router runs the cluster-wide monitor over the
            global population so spray-across-shards coverage is
            visible in one place.
        clock: the shared cluster clock (delays are served here).
        accounts: the shared account manager (per-identity budgets are
            global, not per-shard).
        obs: the router's observability bundle; audit events carry the
            shard ids each query touched.
        population: zero-argument callable returning the global tuple
            count.
    """

    execute_stage = RouteStage

    def __init__(
        self,
        shards: Sequence,
        shard_map: ShardMap,
        config: GuardConfig,
        clock: Clock,
        population,
        accounts: Optional[AccountManager] = None,
        obs: Optional[Observability] = None,
    ):
        self.shards = list(shards)
        self.shard_map = shard_map
        self.config = config
        self.clock = clock
        self.accounts = accounts
        self.obs = obs if obs is not None else Observability.disabled()
        self.population = population
        self.stats = GuardStats()
        #: the live merged view (:meth:`_live_view`), the shard heaps it
        #: mirrors and its observers; the lock serialises patch and seed.
        self._merged_lock = threading.Lock()
        self._view: Optional[Database] = None
        self._view_sources: Tuple[HeapTable, ...] = ()
        self._view_observers: List[Tuple[HeapTable, Callable]] = []
        self.merged_view_seeds = self.merged_view_patches = 0
        #: routing counters for cluster health.
        self.single_shard_queries = 0
        self.scatter_queries = 0
        self.broadcast_statements = 0
        #: degraded-mode counters (replica groups down, shard errors).
        self.shard_failures = 0
        self.unavailable_denials = 0
        self.partial_scatter_queries = 0
        self._start_lifecycle()
        if self.obs.enabled:
            self.obs.registry.counter(
                "cluster_merged_view_seeds_total",
                "Whole copies of the shards made for the scatter view",
            ).set_function(lambda: self.merged_view_seeds)
            self.obs.registry.counter(
                "cluster_merged_view_patches_total",
                "Shard row events patched into the scatter view",
            ).set_function(lambda: self.merged_view_patches)

    # -- shard availability --------------------------------------------------

    @property
    def guards(self) -> List:
        """Every shard's current guard (replica groups resolve to
        their current primary — raising when the group is down)."""
        return [shard.guard for shard in self.shards]

    def _is_available(self, index: int) -> bool:
        return getattr(self.shards[index], "available", True)

    def _available_indexes(self) -> List[int]:
        return [
            index
            for index in range(len(self.shards))
            if self._is_available(index)
        ]

    def _deny_unavailable(self, indexes: Sequence[int]) -> ShardUnavailable:
        """Build (and account) the structured degraded-mode denial."""
        retry_after = max(
            (
                getattr(self.shards[index], "retry_after", 0.0)
                for index in indexes
            ),
            default=0.0,
        )
        self.unavailable_denials += 1
        self.note_denial("shard_unavailable")
        self._emit_audit(
            "cluster_shard_unavailable", shards=sorted(indexes)
        )
        return ShardUnavailable(indexes, retry_after=retry_after)

    def _require_shards(self, indexes: Sequence[int]) -> None:
        down = [i for i in indexes if not self._is_available(i)]
        if down:
            raise self._deny_unavailable(down)

    def _shard_guard(self, index: int):
        self._require_shards([index])
        return self.shards[index].guard

    def _reference_shard(self):
        """Any live shard (schema is replicated everywhere): used for
        catalog lookups and coordinator-side pricing."""
        for index in range(len(self.shards)):
            if self._is_available(index):
                return self.shards[index]
        raise self._deny_unavailable(list(range(len(self.shards))))

    # -- the front door ------------------------------------------------------

    def execute(
        self,
        sql_or_statement: Union[str, object],
        identity: Optional[str] = None,
        record: bool = True,
        sleep: bool = True,
        deadline_at: Optional[float] = None,
        partial_results: bool = False,
        cache_only: bool = False,
    ) -> Optional[GuardedResult]:
        """Route one statement; charge and serve its single delay.

        ``partial_results`` opts a scatter SELECT into degraded-mode
        serving: with one or more replica groups down it answers from
        the live shards and attaches per-shard coverage metadata to
        the result instead of failing closed — never silently partial.
        ``cache_only`` is the server's probe (see
        :meth:`~repro.core.guard.DelayGuard.execute`): the router keeps
        no result cache, so it misses — None, nothing charged.
        """
        ctx = RouteContext(
            sql_or_statement=sql_or_statement,
            identity=identity,
            record=record,
            sleep=sleep,
            deadline_at=deadline_at,
            cache_only=cache_only,
            partial_results=partial_results,
        )
        if not self.pipeline.serve(ctx):
            return None
        if ctx.result.statement_kind == "select" and self.obs.audit is not None:
            self._emit_audit(
                "cluster_select",
                shards=(
                    [ctx.single]
                    if ctx.single is not None
                    else sorted(self._by_owner(ctx.keys))
                ),
                identity=identity,
                delay=ctx.delay,
                tuples=len(ctx.keys),
            )
        return GuardedResult(
            result=ctx.result,
            delay=ctx.delay,
            per_tuple_delays=ctx.per_tuple,
            identity=identity,
            trace=ctx.trace,
            coverage=ctx.coverage,
        )

    # -- writes and DDL ------------------------------------------------------

    def _shard_execute(
        self, index: int, statement, source, completed: Optional[List[int]] = None
    ) -> ResultSet:
        """Run one statement on one shard's guard (no sleep, no price).

        Failure taxonomy: semantic errors (the engine parsing or
        rejecting the statement, a guard denial) propagate unchanged —
        the shard answered, deterministically. An *infrastructure*
        failure (the shard process/group blowing up mid-statement) is
        mapped into the structured ``shard_unavailable`` denial, with
        the partial outcome — which shards had already applied the
        statement — recorded in routing stats and the audit log rather
        than silently discarded.
        """
        guard = self._shard_guard(index)
        try:
            guarded = guard.execute(
                source if source is not None else statement,
                record=False,
                sleep=False,
            )
        except (EngineError, AccessDenied, ConfigError):
            raise
        except Exception as error:
            self.shard_failures += 1
            self.note_denial("shard_unavailable")
            self._emit_audit(
                "cluster_shard_failure",
                shard=index,
                error=repr(error),
                completed_shards=list(completed or []),
            )
            raise ShardUnavailable(
                [index],
                retry_after=getattr(self.shards[index], "retry_after", 0.0),
            ) from error
        return guarded.result

    def _broadcast(self, statement, source) -> ResultSet:
        """DDL fan-out: every shard applies the same statement."""
        self.broadcast_statements += 1
        self._require_shards(range(len(self.shards)))
        result = None
        completed: List[int] = []
        for index in range(len(self.shards)):
            result = self._shard_execute(index, statement, source, completed)
            completed.append(index)
        self._emit_audit(
            "cluster_broadcast",
            shards=list(range(len(self.shards))),
            kind=type(statement).__name__,
        )
        return result if result is not None else ResultSet(
            statement_kind="ddl"
        )

    def _execute_insert(
        self, statement: InsertStatement, source
    ) -> ResultSet:
        """Split VALUES rows by partition key; re-render per shard."""
        if self.shard_map.shard_count == 1:
            return self._shard_execute(0, statement, source)
        schema = self._reference_shard().database.catalog.table(
            statement.table
        ).schema
        pk = schema.primary_key
        if pk is None:
            raise ConfigError(
                f"sharded INSERT into {statement.table!r} requires a "
                "primary key to place rows"
            )
        if statement.columns:
            names = [name.lower() for name in statement.columns]
            if pk.lower() not in names:
                raise ConfigError(
                    f"sharded INSERT into {statement.table!r} must "
                    f"list the partition key column {pk!r}"
                )
            pk_position = names.index(pk.lower())
        else:
            pk_position = schema.position(pk)
        for row in statement.rows:
            for value in row:
                if not isinstance(value, Literal):
                    raise ConfigError(
                        "sharded INSERT rows must be literal values"
                    )
        placed: List[List[Tuple[Literal, ...]]] = [
            [] for _ in range(self.shard_map.shard_count)
        ]
        for row in statement.rows:
            shard = self.shard_map.shard_for(
                statement.table, row[pk_position].value
            )
            placed[shard].append(row)
        total = 0
        touched_shards = []
        self._require_shards(
            [index for index, rows in enumerate(placed) if rows]
        )
        for index, rows in enumerate(placed):
            if not rows:
                continue
            sql = render_insert_sql(
                statement.table, statement.columns, rows
            )
            result = self._shard_execute(index, None, sql, touched_shards)
            total += result.rowcount
            touched_shards.append(index)
        self._emit_audit(
            "cluster_insert",
            shards=touched_shards,
            table=statement.table,
            rows=total,
        )
        return ResultSet(
            table=statement.table, rowcount=total, statement_kind="insert"
        )

    def _execute_dml(self, statement, source) -> ResultSet:
        """UPDATE/DELETE: owner when the key is proven, else broadcast."""
        schema = self._reference_shard().database.catalog.table(
            statement.table
        ).schema
        values = pk_values_from_where(
            statement.where, schema.primary_key, statement.table
        )
        if values is not None:
            owners = {
                self.shard_map.shard_for(statement.table, value)
                for value in values
            }
            if len(owners) == 1:
                owner = owners.pop()
                result = self._shard_execute(owner, statement, source)
                self._emit_audit(
                    "cluster_dml",
                    shards=[owner],
                    table=statement.table,
                    rowcount=result.rowcount,
                )
                return result
        self.broadcast_statements += 1
        self._require_shards(range(len(self.shards)))
        total = 0
        rowids: List[int] = []
        completed: List[int] = []
        for index in range(len(self.shards)):
            result = self._shard_execute(index, statement, source, completed)
            completed.append(index)
            total += result.rowcount
            rowids.extend(result.rowids)
        self._emit_audit(
            "cluster_dml",
            shards=list(range(len(self.shards))),
            table=statement.table,
            rowcount=total,
        )
        return ResultSet(
            table=statement.table,
            rowcount=total,
            rowids=rowids,
            statement_kind=result.statement_kind,
        )

    # -- reads ---------------------------------------------------------------

    def _route_select(
        self, ctx: RouteContext, statement: SelectStatement, source
    ) -> ResultSet:
        """The owner alone when the key proves one, else a scatter."""
        ctx.single = self._single_shard_for(statement)
        if ctx.single is not None:
            result = self._shard_execute(ctx.single, statement, source)
            self.single_shard_queries += 1
            ctx.policy = self.shards[ctx.single].guard.policy
            return result
        self.scatter_queries += 1
        answering = self._available_indexes()
        missing = sorted(set(range(len(self.shards))) - set(answering))
        if missing and not ctx.partial_results:
            # Fail closed: a silently partial scan would both hide
            # rows and under-price the touched-set.
            raise self._deny_unavailable(missing)
        if missing:
            self.partial_scatter_queries += 1
            ctx.coverage = {
                "partial": True,
                "shards_total": len(self.shards),
                "shards_answered": answering,
                "shards_missing": missing,
            }
        # One global price from the merged touched-set, computed at a
        # live shard's gossip-merged trackers (every shard converges on
        # the same global view).
        ctx.policy = self._reference_shard().guard.policy
        databases = [self.shards[index].database for index in answering]
        with ExitStack() as held:
            # Every answering shard's read lock, in shard order, for the
            # whole execution: no shard commits (so no patch lands)
            # while the scatter reads, and it sees a committed cut. A
            # degraded scatter reads an unsubscribed one-off copy.
            for database in databases:
                held.enter_context(database.read_view())
            view = (
                self._seed(databases)[0]
                if missing
                else self._live_view(databases)
            )
            return view.execute(statement, tracked=True)

    def _single_shard_for(
        self, statement: SelectStatement
    ) -> Optional[int]:
        """The one shard that can answer this SELECT alone, if proven."""
        if statement.joins:
            return None
        catalog = self._reference_shard().database.catalog
        if not catalog.has_table(statement.table):
            return None
        schema = catalog.table(statement.table).schema
        values = pk_values_from_where(
            statement.where,
            schema.primary_key,
            statement.table,
            statement.table_alias,
        )
        if not values:
            return None
        owners = {
            self.shard_map.shard_for(statement.table, value)
            for value in values
        }
        if len(owners) == 1:
            return owners.pop()
        return None

    # -- the pipeline's three questions --------------------------------------

    def pricing_policy(self, ctx: RouteContext) -> DelayPolicy:
        return ctx.policy

    def _by_owner(self, keys: Sequence[Key]) -> Dict[int, Sequence[Key]]:
        """Each owner's keys, in their order, owners in order of first
        appearance. A footprint is split on its rowid array, and an
        owner's share of ``FOOTPRINT_FROM`` keys or more stays one."""
        import numpy as np

        from ..engine.footprint import FOOTPRINT_FROM, Footprint

        if isinstance(keys, Footprint):
            owners = (keys.rowids - 1) % self.shard_map.shard_count
            _, first = np.unique(owners, return_index=True)
            shares: Dict[int, Sequence[Key]] = {}
            for owner in owners[np.sort(first)].tolist():
                at = np.flatnonzero(owners == owner)
                if len(at) < FOOTPRINT_FROM:
                    shares[owner] = keys.pairs_at(at)
                else:
                    codes = None if keys.codes is None else keys.codes[at]
                    shares[owner] = Footprint(
                        keys.tables, keys.rowids[at], codes
                    )
            return shares
        by_owner: Dict[int, List[Key]] = {}
        for key in keys:
            owner = self.shard_map.owner_of_rowid(key[1])
            by_owner.setdefault(owner, []).append(key)
        return by_owner

    def record_reads(self, ctx: RouteContext) -> None:
        """Record the accesses into each owner's tracker.

        Owners stay the authoritative holders of their partition's
        counts — gossip then carries these increments to every peer.
        """
        for owner, owned in self._by_owner(ctx.keys).items():
            if not self._is_available(owner):
                # Partial-mode reads never return a down owner's
                # rows; this is pure defence-in-depth. Recording at
                # a live peer keeps the mass in the global view —
                # gossip carries it onward, never understating.
                self._reference_shard().guard.popularity.record_many(owned)
                continue
            self.shards[owner].guard.popularity.record_many(owned)

    def record_updates(self, result: ResultSet) -> None:
        """Nothing to do: each shard recorded what it applied."""

    # -- the merged read view ------------------------------------------------

    @staticmethod
    def _seed(
        databases: Sequence[Database],
    ) -> Tuple[Database, List[Tuple[HeapTable, HeapTable]]]:
        """An engine holding these shards' rows at their global rowids
        (so the merged touched-set prices and records the owners' keys)
        and its ``(shard heap, merged heap)`` pairs. The caller holds
        every database's read view."""
        merged, pairs = Database(), []
        for database in databases:
            pairs += merged.catalog.copy_tables_from(database.catalog)
        return merged, pairs

    def _live_view(self, databases: Sequence[Database]) -> Database:
        """The merged engine over every shard; the caller holds their
        read views. It is valid while it mirrors the shards' current
        heaps, by identity: CREATE, DROP, promotion and recovery swap a
        heap and reseed it once. In between, :meth:`_patcher` applies
        each shard row event, so a write costs one row here."""
        current = tuple(
            heap for db in databases for heap in db.catalog.tables()
        )
        with self._merged_lock:
            if self._view is None or self._view_sources != current:
                self._detach()
                self._view, pairs = self._seed(databases)
                for source, target in pairs:
                    observer = self._patcher(self._view, target)
                    source.subscribe(observer)
                    self._view_observers.append((source, observer))
                self._view_sources = current
                self.merged_view_seeds += 1
            return self._view

    def _patcher(self, merged: Database, target: HeapTable) -> Callable:
        """The observer mirroring one shard heap, rollback's inverse
        events included, into ``target``. It runs under the shard's
        write lock (no scatter reads) and the router's (no other shard
        patches); a patch that cannot apply drops the view for a reseed.
        """

        def patch(event, rowid, row, old) -> None:
            with self._merged_lock:
                if self._view is not merged:
                    return
                try:
                    target.mirror(event, rowid, row)
                    self.merged_view_patches += 1
                except Exception as error:
                    # Never fail the shard's write for its mirror.
                    self._view = None
                    self._emit_audit("cluster_view_dropped", error=repr(error))

        return patch

    def _detach(self) -> None:
        for source, observer in self._view_observers:
            source.unsubscribe(observer)
        self._view_observers, self._view = [], None

    def close(self) -> None:
        """Drop the merged view and unsubscribe it (idempotent)."""
        with self._merged_lock:
            self._detach()

    # -- observability -------------------------------------------------------

    def _emit_audit(self, event: str, **fields) -> None:
        audit = self.obs.audit
        if audit is not None:
            audit.emit(event, **fields)

    def routing_stats(self) -> Dict:
        """Routing counters for cluster health."""
        return {
            "single_shard_queries": self.single_shard_queries,
            "scatter_queries": self.scatter_queries,
            "broadcast_statements": self.broadcast_statements,
            "shard_failures": self.shard_failures,
            "unavailable_denials": self.unavailable_denials,
            "partial_scatter_queries": self.partial_scatter_queries,
            "merged_view_seeds": self.merged_view_seeds,
            "merged_view_patches": self.merged_view_patches,
        }
