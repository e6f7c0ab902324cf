"""Scatter-gather statement routing with one globally-priced delay.

The router is the cluster's single front door. Every statement enters
here, and the defense's invariant is enforced here: **one delay per
query, priced from the global merged view, served once** — never
per-shard sleeps (summing M per-shard prices computed against M
under-counted views is exactly the vulnerability sharding introduces).

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
  equality proves one owner (the owner prices from its gossip-merged
  tracker view against the *global* population, so the price equals
  the single-node price up to gossip staleness). Anything else —
  scans, joins, aggregates — executes against a merged read-only
  engine built from every shard's rows under their read locks (cached
  per cluster-wide mutation-epoch vector), is priced **once** at the
  coordinator from the merged touched-set, and is recorded at each
  tuple's owning shard so the owners stay the authoritative count
  holders.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.accounts import AccountManager
from ..core.clock import Clock
from ..core.config import GuardConfig
from ..core.detection import CoverageMonitor
from ..core.errors import AccessDenied, ConfigError, ShardUnavailable
from ..core.guard import GuardedResult, GuardStats
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
from ..engine.parser.normalize import normalize_sql
from ..engine.parser.parser import parse_cached
from ..obs import ForensicsMonitor, Observability
from .sharding import ShardMap, pk_values_from_where, render_insert_sql

Key = Tuple[str, int]


class ClusterRouter:
    """Routes statements across shards; prices one global delay.

    Args:
        shards: the shard services, in shard-index order (shard ``i``
            allocates rowids ≡ ``i + 1 (mod M)``).
        shard_map: the cluster's partitioning scheme.
        config: the cluster-wide guard configuration — pricing mode,
            cap, forensics thresholds. Shard guards run with forensics
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
        #: cluster-wide extraction forensics over the global population.
        self.forensics: Optional[ForensicsMonitor] = None
        if config.forensics:
            self.forensics = ForensicsMonitor(
                CoverageMonitor(
                    population=population,
                    coverage_threshold=config.forensics_coverage_threshold,
                    novelty_threshold=config.forensics_novelty_threshold,
                    window=config.forensics_window,
                    min_requests=config.forensics_min_requests,
                    max_identities=config.forensics_max_identities,
                    max_keys_per_identity=(
                        config.forensics_max_keys_per_identity
                    ),
                ),
                audit=self.obs.audit if self.obs.enabled else None,
            )
        self._merged_lock = threading.Lock()
        self._merged_cache: Optional[Tuple[tuple, Database]] = None
        #: routing counters for cluster health.
        self.single_shard_queries = 0
        self.scatter_queries = 0
        self.broadcast_statements = 0
        #: degraded-mode counters (replica groups down, shard errors).
        self.shard_failures = 0
        self.unavailable_denials = 0
        self.partial_scatter_queries = 0

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
        self.stats.note_denied()
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
    ) -> GuardedResult:
        """Route one statement; charge and serve its single delay.

        ``partial_results`` opts a scatter SELECT into degraded-mode
        serving: with one or more replica groups down it answers from
        the live shards and attaches per-shard coverage metadata to
        the result instead of failing closed — never silently partial.
        """
        started = time.perf_counter()
        if isinstance(sql_or_statement, str):
            statement = parse_cached(normalize_sql(sql_or_statement))
            source = sql_or_statement
        else:
            statement = sql_or_statement
            source = None
        if isinstance(statement, TransactionStatement):
            raise ConfigError(
                "explicit transactions are not supported through the "
                "cluster router (statements are atomic per shard)"
            )
        if self.accounts is not None:
            if identity is None:
                raise ConfigError(
                    "this cluster requires an identity for every query"
                )
            try:
                self.accounts.authorize_query(identity)
            except Exception:
                self.stats.note_denied()
                raise
        if isinstance(statement, SelectStatement):
            return self._execute_select(
                statement, source, identity, record, sleep, deadline_at,
                started, partial_results,
            )
        if isinstance(statement, InsertStatement):
            result = self._execute_insert(statement, source)
        elif isinstance(statement, (UpdateStatement, DeleteStatement)):
            result = self._execute_dml(statement, source)
        else:
            result = self._broadcast(statement, source)
        self.stats.note_query(0.0, time.perf_counter() - started, 0.0)
        return GuardedResult(result=result, delay=0.0, identity=identity)

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
            self.stats.note_denied()
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

    def _execute_select(
        self,
        statement: SelectStatement,
        source,
        identity: Optional[str],
        record: bool,
        sleep: bool,
        deadline_at: Optional[float],
        started: float,
        partial_results: bool = False,
    ) -> GuardedResult:
        single = self._single_shard_for(statement)
        engine_seconds = 0.0
        coverage = None
        if single is not None:
            guard = self._shard_guard(single)
            try:
                guarded = guard.execute(
                    source if source is not None else statement,
                    record=record,
                    sleep=False,
                    deadline_at=deadline_at,
                )
            except AccessDenied as denied:
                if denied.reason == "deadline_exceeded":
                    self.stats.note_deadline_abort()
                else:
                    self.stats.note_denied()
                raise
            self.single_shard_queries += 1
            keys = self._result_keys(guarded.result)
            shards = [single]
            delay = guarded.delay
            per_tuple = guarded.per_tuple_delays
            result_set = guarded.result
        else:
            self.scatter_queries += 1
            answering = self._available_indexes()
            missing = sorted(
                set(range(len(self.shards))) - set(answering)
            )
            if missing and not partial_results:
                # Fail closed: a silently partial scan would both hide
                # rows and under-price the touched-set.
                raise self._deny_unavailable(missing)
            if missing:
                self.partial_scatter_queries += 1
                coverage = {
                    "partial": True,
                    "shards_total": len(self.shards),
                    "shards_answered": answering,
                    "shards_missing": missing,
                }
            merged = self._merged_database(tuple(answering))
            engine_started = time.perf_counter()
            result_set = merged.execute(statement, tracked=True)
            engine_seconds = time.perf_counter() - engine_started
            keys = self._result_keys(result_set)
            # One global price from the merged touched-set, computed at
            # the coordinator's gossip-merged trackers (the first live
            # shard; every shard converges on the same global view).
            per_tuple = self._reference_shard().guard.policy.delays_for(
                keys
            )
            if self.config.charge_returned_tuples:
                delay = sum(per_tuple)
            else:
                delay = max(per_tuple, default=0.0)
            if deadline_at is not None and delay > 0:
                if delay > deadline_at - time.monotonic():
                    self.stats.note_deadline_abort()
                    raise AccessDenied(
                        "deadline_exceeded", retry_after=delay
                    )
            shards = self._record_at_owners(keys, record)
        if self.accounts is not None and identity is not None:
            self.accounts.record_retrieval(identity, len(keys))
        self.stats.note_query(delay, engine_seconds, 0.0)
        self.stats.note_select(delay, len(keys))
        if self.forensics is not None and identity is not None:
            self.forensics.observe(identity, keys, delay=delay)
        self._emit_audit(
            "cluster_select",
            shards=shards,
            identity=identity,
            delay=delay,
            tuples=len(keys),
        )
        if sleep and delay > 0:
            self.clock.sleep(delay)
        return GuardedResult(
            result=result_set,
            delay=delay,
            per_tuple_delays=list(per_tuple),
            identity=identity,
            coverage=coverage,
        )

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

    def _result_keys(self, result: ResultSet) -> List[Key]:
        """The charged tuple keys for a SELECT result."""
        if result.touched:
            return list(result.touched)
        if result.table is None:
            return []
        table = result.table.lower()
        return [(table, rowid) for rowid in result.rowids]

    def _record_at_owners(
        self, keys: List[Key], record: bool
    ) -> List[int]:
        """Record scatter-read accesses into each owner's tracker.

        Owners stay the authoritative holders of their partition's
        counts — gossip then carries these increments to every peer.
        Returns the touched shard indexes (for the audit event).
        """
        by_owner: Dict[int, List[Key]] = {}
        for key in keys:
            owner = self.shard_map.owner_of_rowid(key[1])
            by_owner.setdefault(owner, []).append(key)
        if record and self.config.record_accesses:
            for owner, owned in by_owner.items():
                if not self._is_available(owner):
                    # Partial-mode reads never return a down owner's
                    # rows; this is pure defence-in-depth. Recording at
                    # a live peer keeps the mass in the global view —
                    # gossip carries it onward, never understating.
                    self._reference_shard().guard.popularity.record_many(
                        owned
                    )
                    continue
                self.shards[owner].guard.popularity.record_many(owned)
        return sorted(by_owner)

    # -- the merged read view ------------------------------------------------

    def _merged_database(
        self, indexes: Optional[Tuple[int, ...]] = None
    ) -> Database:
        """A read-only engine holding every shard's rows, global rowids.

        Cached on (participating shards, their mutation-epoch vector):
        any committed mutation on any included shard invalidates it
        (the epoch moves), so a served scatter-read is always against a
        consistent cut no older than the last commit; a degraded merge
        over fewer shards never aliases the full one. Rows keep their
        global rowids via ``HeapTable.copy_from`` (which does not
        re-validate what the owner validated), so the merged
        touched-set prices and records against exactly the same keys
        the owners track.
        """
        if indexes is None:
            indexes = tuple(range(len(self.shards)))
        participants = [self.shards[index] for index in indexes]
        epochs = (
            indexes,
            tuple(
                shard.database.mutation_epoch for shard in participants
            ),
        )
        with self._merged_lock:
            cached = self._merged_cache
            if cached is not None and cached[0] == epochs:
                return cached[1]
        merged = Database()
        for shard in participants:
            with shard.database.read_view():
                catalog = shard.database.catalog
                for name in catalog.table_names():
                    heap = catalog.table(name)
                    if not merged.catalog.has_table(name):
                        merged.catalog.create_table(heap.schema)
                    merged.catalog.table(name).copy_from(heap)
        with self._merged_lock:
            self._merged_cache = (epochs, merged)
        return merged

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
        }
