"""The query lifecycle as an explicit staged pipeline.

The paper's guarantee is one lifecycle, and this module is its only
implementation:

    admit → parse → authorize → cache → execute → cache_store
          → account → price → record → forensics → sleep

Each stage owns one concern and declares which Table 5 cost bucket
its time lands in: *parse* and *execute* feed ``engine_seconds``, the
accounting stages feed ``accounting_seconds``, and *sleep* is the
product, charged to neither.

Watching costs one clock read per stage boundary. The pipeline reads
``perf_counter`` once as a query starts and once as each stage ends,
and keeps ``(stage, start, end)`` for every stage that ran: one record
per query. Three things are built from that record. The
:class:`~repro.core.guard.GuardStats` timing buckets add each span as
it closes. With observability on, the record *is* the query's retained
:class:`~repro.obs.QueryTrace`, and a :class:`StageWatch` queues it to
be folded into the ``guard_stage_<name>_seconds`` histograms in
batches, once per stage per batch instead of one locked
``Histogram.observe`` per stage per query. Every histogram read folds
the queue first, so a scrape never lags the queries that finished.

Hosts: three front doors run this pipeline, each a
:class:`PipelineHost` — :class:`~repro.core.guard.DelayGuard` over the
native engine, :class:`~repro.cluster.router.ClusterRouter` over the
shards, and :class:`~repro.adapters.sqlite_proxy.SQLiteDelayProxy` over
``sqlite3``. A host swaps exactly one stage, *execute* (its
``execute_stage`` class: how a parsed statement becomes a
:class:`~repro.engine.executor.ResultSet` with its ``touched`` tuples),
and may answer three questions the stages ask — which policy prices
these keys, where these reads are recorded, where these updates are
recorded. Everything else — quota, the result limit, one delay priced
before this statement's own record, deadlines, forensics, the single
sleep, the trace and audit envelope (:meth:`QueryPipeline.serve`) — is
the same code for all three.

Concurrency: no stage holds the engine lock except *execute*, which
delegates to :meth:`repro.engine.database.Database.execute` — the engine
takes its own read/write lock there (shared for SELECT/EXPLAIN,
exclusive for DML/DDL). Everything else synchronises on the component
it touches (tracker locks, the account manager's lock, the host's
update-times lock), so concurrent queries overlap everywhere except
inside conflicting engine statements. *price* reads each tuple's counts
through the policy's :meth:`~repro.core.delay_policy.DelayPolicy.delays_for`,
which resolves the whole key list against one consistent tracker
snapshot instead of re-locking per tuple.

Denial taxonomy: every refusal is a structured
:class:`~repro.core.errors.AccessDenied` with a machine-readable
``reason`` — ``result_limit``, ``deadline_exceeded``, ``query_quota``,
``registration_rate``, ``subnet_rate``, and (from the cluster's execute
stage) ``shard_unavailable`` with the dead shard indexes and a
``retry_after`` covering the failover window. The server maps them all
onto one wire shape; nothing in the stack ever surfaces a raw
infrastructure exception to a client.

The *cache* / *cache_store* pair (skipped entirely unless the host has
a :class:`~repro.core.result_cache.ResultCache`) serves repeated
SELECTs without touching the engine. Deliberately, a hit replaces
**only** the execute stage: account, price, record, and sleep still run
on the cached result's ``touched`` set, so a hit and a miss are
indistinguishable in popularity counts, account charges, and mandated
delay — the cache saves engine CPU, never the defense's price.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..engine.footprint import Footprint
from ..engine.parser.ast import SelectStatement
from ..engine.parser.parser import parse_cache_info, shaped_statement
from ..obs import ForensicsMonitor, QueryTrace, delay_buckets
from .delay_policy import DelayPolicy, policy_from_config
from .errors import AccessDenied, ConfigError
from .popularity import PopularityTracker
from .result_cache import CachedResult
from .update_tracker import UpdateRateTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.executor import ResultSet

#: Bucket bounds for the per-stage latency histograms: stages run in
#: microseconds (accounting) up to tens of seconds (sleep).
_STAGE_BUCKETS = delay_buckets(low=1e-6, high=1e2, per_decade=3)


@dataclass
class QueryContext:
    """Mutable state threaded through the pipeline for one query."""

    sql_or_statement: Union[str, object]
    identity: Optional[str] = None
    record: bool = True
    sleep: bool = True
    #: fast-path probe mode: run parse → cache lookup first and bail
    #: out (before authorize charges the account) when the result
    #: cache misses. See :meth:`QueryPipeline.run`.
    cache_only: bool = False
    #: absolute ``time.monotonic()`` deadline for the whole request, or
    #: None for no budget. Checked at every stage boundary, and by the
    #: price stage against the mandated delay itself (a delay longer
    #: than the remaining budget is rejected up front instead of
    #: holding a thread in sleep).
    deadline_at: Optional[float] = None
    trace: Optional[QueryTrace] = None
    #: the parsed statement (set by *parse*, or directly for pre-parsed
    #: input).
    statement: object = None
    #: the statement's ``(shape, params)`` result-cache key (set by
    #: *parse*; None for pre-parsed input, which the result cache
    #: therefore never serves).
    statement_key: Optional[tuple] = None
    #: the engine snapshot epoch the cache stage observed, and whether
    #: it served the result (execute is skipped on a hit).
    cache_epoch: Optional[int] = None
    cache_hit: bool = False
    #: the engine result (set by *execute*).
    result: Optional["ResultSet"] = None
    #: base tuples charged for a SELECT (set by *account*): a list, or
    #: the result's :class:`~repro.engine.footprint.Footprint`.
    keys: Sequence[Tuple[str, int]] = field(default_factory=list)
    per_tuple: List[float] = field(default_factory=list)
    delay: float = 0.0
    #: the delay *record* charged to ``identity`` for a served SELECT.
    charged: float = 0.0
    #: set by *record* for a SELECT; the pipeline counts it as served
    #: (``GuardStats.note_select``) once the whole run has finished.
    served_select: bool = False
    engine_seconds: float = 0.0
    accounting_seconds: float = 0.0
    #: set when a denial should still count the query's timing buckets
    #: (the result-limit strawman denies *after* the engine did the
    #: work, so its cost must not vanish from Table 5).
    count_query_on_denial: bool = False
    #: the watch record: ``(stage name, start, end)`` per stage run, in
    #: ``perf_counter`` seconds (the trace's own span list when traced).
    spans: List[tuple] = field(default_factory=list)

    @property
    def source(self) -> Optional[str]:
        """The SQL text as submitted (None for a pre-parsed statement)."""
        text = self.sql_or_statement
        return text if isinstance(text, str) else None


class Stage:
    """One pipeline step.

    Attributes:
        name: span and histogram label.
        bucket: which :class:`~repro.core.guard.GuardStats` timing
            bucket this stage's wall time lands in — ``"engine"``,
            ``"accounting"``, or None (the sleep itself is the charged
            product, not overhead).
    """

    name = "stage"
    bucket: Optional[str] = None

    def __init__(self, host: "PipelineHost"):
        self.host = host

    def applies(self, ctx: QueryContext) -> bool:
        """Whether this stage runs for this query (skipped silently)."""
        return True

    def run(self, ctx: QueryContext) -> None:
        raise NotImplementedError


class AdmitStage(Stage):
    """Reject unidentified callers when the host enforces accounts."""

    name = "admit"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        return self.host.accounts is not None

    def run(self, ctx: QueryContext) -> None:
        if ctx.identity is None:
            raise ConfigError(
                "an identity is required for every query"
            )


class ParseStage(Stage):
    """Parse SQL text (cached); pre-parsed statements skip this stage.

    Reads the one statement memo (:func:`shaped_statement`): a repeated
    text is a dict hit, a fresh literal of a known shape is one lexer
    pass and a bind. Parsing lands in the engine bucket: it used to
    happen inside ``Database.execute``, and keeping it there keeps
    Table 5 comparisons stable across refactors.
    """

    name = "parse"
    bucket = "engine"

    def applies(self, ctx: QueryContext) -> bool:
        return isinstance(ctx.sql_or_statement, str)

    def run(self, ctx: QueryContext) -> None:
        ctx.statement, ctx.statement_key = shaped_statement(
            ctx.sql_or_statement
        )


class AuthorizeStage(Stage):
    """Charge the query against every account-level limit (§2.4)."""

    name = "authorize"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        return self.host.accounts is not None

    def run(self, ctx: QueryContext) -> None:
        try:
            self.host.accounts.authorize_query(ctx.identity)
        except Exception as error:
            self.host.note_denial(
                getattr(error, "reason", None) or type(error).__name__
            )
            raise


class CacheLookupStage(Stage):
    """Serve a repeated SELECT from the result cache — still priced.

    Runs *after* admit/authorize (an unauthorized caller never sees a
    cached byte) and replaces only the execute stage on a hit: the
    account, price, record, and sleep stages run on the cached result's
    ``touched`` set exactly as they would on a miss, so popularity
    counts, account charges, and the mandated delay are identical
    either way. The key is ``(shape, params, snapshot epoch)`` —
    identity-independent by design, and bumped past every committed
    mutation by the engine's epoch counter. An adversary's probes are
    priced whether they hit or miss; only engine CPU is ever saved.
    """

    name = "cache"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        return (
            self.host.result_cache is not None
            and ctx.statement_key is not None
            and isinstance(ctx.statement, SelectStatement)
        )

    def run(self, ctx: QueryContext) -> None:
        host = self.host
        ctx.cache_epoch = host.database.mutation_epoch
        frozen = host.result_cache.get(ctx.statement_key, ctx.cache_epoch)
        if frozen is not None:
            ctx.result = frozen.thaw()
            ctx.cache_hit = True


class ExecuteStage(Stage):
    """Run the statement on the engine.

    The one stage a host swaps (:attr:`PipelineHost.execute_stage`):
    this class serves the native engine, the cluster router routes and
    scatters, the SQLite proxy attributes rowids and runs ``sqlite3``.
    Each leaves a ``ResultSet`` in ``ctx.result`` and keeps the name
    ``execute``, so spans, histograms and dashboards line up across
    hosts. Here it is also the only stage that touches the engine
    lock: ``Database.execute`` classifies the statement and takes the
    shared read side for SELECT/EXPLAIN or the exclusive write side for
    everything else. Skipped when the cache stage already produced the
    result.
    """

    name = "execute"
    bucket = "engine"

    def applies(self, ctx: QueryContext) -> bool:
        return not ctx.cache_hit

    def run(self, ctx: QueryContext) -> None:
        # Pass the original SQL text through when we have it: an
        # attached write-ahead journal records committed statements as
        # text, and a pre-parsed statement carries none.
        ctx.result = self.host.database.execute(
            ctx.statement, source=ctx.source, tracked=True
        )


class CacheStoreStage(Stage):
    """Freeze a freshly-executed SELECT into the result cache.

    Only sound when no commit landed during execution: the stage
    re-reads the engine epoch and skips the store if it moved past the
    one the lookup observed (and the cache itself refuses stale-epoch
    writes, so the check is belt *and* suspenders).
    """

    name = "cache_store"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        return (
            self.host.result_cache is not None
            and not ctx.cache_hit
            and ctx.cache_epoch is not None
            and result is not None
            and result.statement_kind == "select"
            and result.table is not None
        )

    def run(self, ctx: QueryContext) -> None:
        host = self.host
        if host.database.mutation_epoch != ctx.cache_epoch:
            return
        host.result_cache.put(
            ctx.statement_key,
            ctx.cache_epoch,
            CachedResult.freeze(ctx.result),
        )


class AccountStage(Stage):
    """Result-limit strawman, charged-key extraction, per-identity use."""

    name = "account"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        return (
            result is not None
            and result.statement_kind == "select"
            and result.table is not None
        )

    def run(self, ctx: QueryContext) -> None:
        host = self.host
        result = ctx.result
        # §1.1's strawman result-size limit, kept as a baseline.
        # Enforced post-execution (the engine has already read the rows)
        # but pre-recording/charging: the caller gets nothing.
        limit = host.config.max_result_rows
        if limit is not None and len(result.rows) > limit:
            host.note_denial("result_limit")
            ctx.count_query_on_denial = True
            raise AccessDenied("result_limit")
        # `touched` covers every contributing base tuple, across joined
        # tables; fall back to the driving table's rowids for result
        # sets produced without it. A footprint is immutable and is
        # priced and recorded as arrays, so it is kept as it is.
        if isinstance(result.touched, Footprint):
            ctx.keys = result.touched
        elif result.touched:
            ctx.keys = list(result.touched)
        else:
            ctx.keys = [
                (result.table.lower(), rowid) for rowid in result.rowids
            ]
        if host.accounts is not None and ctx.identity is not None:
            host.accounts.record_retrieval(ctx.identity, len(ctx.keys))


class PriceStage(Stage):
    """Compute per-tuple delays from one consistent count snapshot.

    The statement's delay is their sum: a multi-tuple result costs what
    the single-tuple queries that retrieve it would (§2).
    """

    name = "price"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        return (
            result is not None
            and result.statement_kind == "select"
            and result.table is not None
        )

    def run(self, ctx: QueryContext) -> None:
        host = self.host
        ctx.per_tuple = host.pricing_policy(ctx).delays_for(ctx.keys)
        ctx.delay = sum(ctx.per_tuple)
        if ctx.deadline_at is not None and ctx.delay > 0:
            remaining = ctx.deadline_at - time.monotonic()
            if ctx.delay > remaining:
                # The mandated delay cannot fit the caller's budget:
                # reject *before* the record/sleep stages, reporting
                # the full delay so the caller knows the true price.
                # Nothing is recorded — the tuples were never served.
                host.note_denial("deadline_exceeded")
                raise AccessDenied(
                    "deadline_exceeded", retry_after=ctx.delay
                )


class RecordStage(Stage):
    """Feed the trackers: popularity for reads, rates for updates."""

    name = "record"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        if result is None:
            return False
        if result.statement_kind == "select":
            return result.table is not None
        return result.statement_kind in ("insert", "update", "delete")

    def run(self, ctx: QueryContext) -> None:
        host = self.host
        result = ctx.result
        if result.statement_kind == "select":
            if ctx.record:
                host.record_reads(ctx)
            ctx.charged = ctx.delay
            ctx.served_select = True
            return
        if result.table is not None:
            host.record_updates(result)


class ForensicsStage(Stage):
    """Feed the live extraction-risk monitor (§2.4 "notice the robot").

    Runs after *record* (the served tuples and the priced delay are
    final) and before *sleep* (the caller's mandated delay should not
    postpone their own risk evaluation). Skipped entirely unless the
    guard was built with ``GuardConfig.forensics`` — the monitor's
    observe is an extra accounting cost per identified SELECT.
    """

    name = "forensics"
    bucket = "accounting"

    def applies(self, ctx: QueryContext) -> bool:
        result = ctx.result
        return (
            self.host.forensics is not None
            and ctx.identity is not None
            and result is not None
            and result.statement_kind == "select"
            and result.table is not None
        )

    def run(self, ctx: QueryContext) -> None:
        self.host.forensics.observe(
            ctx.identity,
            ctx.keys,
            delay=ctx.delay,
            trace_id=ctx.trace.trace_id if ctx.trace is not None else None,
        )


class SleepStage(Stage):
    """Serve the computed delay on the guard's clock.

    Unbucketed: the sleep is the defense's product, not overhead. The
    server and the concurrent simulator pass ``sleep=False`` and serve
    the delay themselves (per-connection / event-scheduled), so only
    that one caller blocks — never the pipeline of another query.
    """

    name = "sleep"
    bucket = None

    def applies(self, ctx: QueryContext) -> bool:
        return ctx.delay > 0 and ctx.sleep

    def run(self, ctx: QueryContext) -> None:
        self.host.clock.sleep(ctx.delay)


class StageWatch:
    """The ``guard_stage_<name>_seconds`` histograms, fed in batches.

    :meth:`add` queues one query's record with the engine path that
    served it, for a host that counts paths
    (``guard_execution_path_total``), and the delay charged to its
    identity (``guard_identity_delay_seconds_total``). The record is
    the list the stage loop filled, which nothing appends to afterwards:
    a span the server adds to a finished trace (its own sleep) goes to
    a new list (:meth:`~repro.obs.QueryTrace.extend`). Every
    :attr:`BATCH` records, and before any read of the histograms or the
    counters, :meth:`fold` drains the queue into them with one locked
    update per series. Records are appended from the I/O loop and from
    workers without a lock (``deque.append`` is atomic) and are only
    ever removed under the fold lock, so each is folded exactly once,
    and a reader that folds waits for a fold in progress to land before
    it reads. One registry serves one host (a second host's
    :meth:`~PipelineHost._register_lifecycle_metrics` raises), so each
    series has one watch to fold it.
    """

    BATCH = 256

    def __init__(
        self, registry, names: List[str], paths=None, identity_delay=None
    ):
        self._histograms = {
            name: registry.histogram(
                f"guard_stage_{name}_seconds",
                f"Wall time in the {name!r} pipeline stage (seconds)",
                buckets=_STAGE_BUCKETS,
            )
            for name in names
        }
        self._paths = paths
        self._identity_delay = identity_delay
        self._pending: "deque[tuple]" = deque()
        self._fold_lock = threading.Lock()
        for metric in (*self._histograms.values(), paths, identity_delay):
            if metric is not None:
                metric.defer_to(self.fold)

    def add(
        self,
        record: List[tuple],
        path: Optional[str] = None,
        identity: Optional[str] = None,
        charged: float = 0.0,
    ) -> None:
        """Queue one query's ``(stage, start, end)`` record, the path
        that served it and the delay charged to its identity."""
        pending = self._pending
        pending.append((record, path, identity, charged))
        if len(pending) >= self.BATCH:
            self.fold()

    def fold(self) -> None:
        """Drain every queued record into the histograms and paths."""
        with self._fold_lock:
            pending = self._pending
            durations = {name: [] for name in self._histograms}
            appenders = {
                name: values.append for name, values in durations.items()
            }
            paths, charged = {}, {}
            while pending:
                record, path, identity, delay = pending.popleft()
                for name, start, end in record:
                    appenders[name](end - start)
                if path:
                    paths[path] = paths.get(path, 0) + 1
                if identity is not None and delay > 0:
                    charged[identity] = charged.get(identity, 0.0) + delay
            for name, values in durations.items():
                if values:
                    self._histograms[name].observe_many(values)
            if self._paths is not None:
                for path, served in paths.items():
                    self._paths.inc(served, path=path)
            if self._identity_delay is not None:
                for identity, delay in charged.items():
                    self._identity_delay.inc(delay, identity=identity)


class QueryPipeline:
    """Runs the staged lifecycle for one host.

    Stateless between queries: all per-query state lives in the
    :class:`QueryContext`, so one pipeline instance serves any number
    of concurrent callers.
    """

    STAGES = (
        AdmitStage,
        ParseStage,
        AuthorizeStage,
        CacheLookupStage,
        ExecuteStage,
        CacheStoreStage,
        AccountStage,
        PriceStage,
        RecordStage,
        ForensicsStage,
        SleepStage,
    )

    def __init__(self, host: "PipelineHost"):
        self.host = host
        self.stages = [
            host.execute_stage(host)
            if stage_class is ExecuteStage
            else stage_class(host)
            for stage_class in self.STAGES
        ]
        # Fast-path probe order (``ctx.cache_only``): the cache lookup
        # runs *before* admit/authorize so a miss can bail out at the
        # gate (None) without charging the account — the full pipeline
        # run that follows charges exactly once. A hit still authorizes
        # before a single byte is returned (AccountStage runs after
        # AuthorizeStage). Every stage asks its host per query whether
        # it applies: a host may attach accounts after it is built.
        by_name = {stage.name: stage for stage in self.stages}
        self._probe_stages = [
            by_name[name] if name is not None else None
            for name in (
                "parse",
                "cache",
                None,
                "admit",
                "authorize",
                "account",
                "price",
                "record",
                "forensics",
                "sleep",
            )
        ]
        self.watch = (
            StageWatch(
                host.obs.registry,
                [stage.name for stage in self.stages],
                paths=getattr(host, "_m_execution_path", None),
                identity_delay=host._m_identity_delay,
            )
            if host.obs.enabled
            else None
        )

    def serve(self, ctx: QueryContext) -> bool:
        """:meth:`run` inside the trace and audit envelope.

        With observability on, every query leaves one finished
        :class:`~repro.obs.QueryTrace` (``ok`` / ``denied`` / ``error``)
        and, when an audit log is attached, ``query_served`` or
        ``query_cached`` plus ``delay_priced``, or ``query_denied`` /
        ``query_deadline_aborted``. Returns False for a ``cache_only``
        probe that missed — nothing ran, nothing was charged, and its
        trace is discarded (the full run that follows records its own).
        """
        obs = self.host.obs
        if not obs.enabled:
            self.run(ctx)
            return ctx.cache_hit or not ctx.cache_only
        ctx.trace = QueryTrace(
            "query", identity=ctx.identity, sql=ctx.source, events=ctx.spans
        )
        audit = obs.audit
        try:
            self.run(ctx)
        except AccessDenied as denied:
            obs.tracer.finish(ctx.trace.finish("denied", reason=denied.reason))
            if audit is not None:
                audit.emit(
                    "query_deadline_aborted"
                    if denied.reason == "deadline_exceeded"
                    else "query_denied",
                    trace_id=ctx.trace.trace_id,
                    identity=ctx.identity,
                    reason=denied.reason,
                    retry_after=getattr(denied, "retry_after", None),
                )
            raise
        except Exception as error:
            obs.tracer.finish(ctx.trace.finish("error", reason=str(error)))
            raise
        if ctx.cache_only and not ctx.cache_hit:
            return False
        obs.tracer.finish(
            ctx.trace.finish("ok", delay=ctx.delay, rows=ctx.result.rowcount)
        )
        if audit is not None:
            audit.emit(
                "query_cached" if ctx.cache_hit else "query_served",
                trace_id=ctx.trace.trace_id,
                identity=ctx.identity,
                delay=ctx.delay,
                rows=ctx.result.rowcount,
                table=ctx.result.table,
            )
            if ctx.delay > 0:
                audit.emit(
                    "delay_priced",
                    trace_id=ctx.trace.trace_id,
                    identity=ctx.identity,
                    delay=ctx.delay,
                    tuples=len(ctx.keys),
                )
        return True

    def run(self, ctx: QueryContext) -> QueryContext:
        """Run every applicable stage in order; returns the context.

        A stage that raises still gets its span and bucket time
        recorded (partial work costs real time). Denials flagged with
        ``count_query_on_denial`` contribute their timing buckets to
        :class:`~repro.core.guard.GuardStats` before propagating. The
        record reaches the stage histograms however the run ends — a
        ``cache_only`` probe that missed included.
        """
        if not isinstance(ctx.sql_or_statement, str):
            ctx.statement = ctx.sql_or_statement
        stages = self._probe_stages if ctx.cache_only else self.stages
        spans = ctx.spans
        clock = time.perf_counter
        mark = clock()
        try:
            for stage in stages:
                if stage is None:
                    if ctx.cache_hit:
                        continue
                    # Probe missed the cache: hand the query back
                    # untouched and uncharged — no engine work, no
                    # authorize charge, no query/timing stats (the full
                    # run counts it once).
                    return ctx
                if not stage.applies(ctx):
                    continue
                if ctx.deadline_at is not None:
                    self._check_deadline(ctx)
                try:
                    stage.run(ctx)
                finally:
                    # One clock read per boundary: this stage's end is
                    # the next one's start.
                    now = clock()
                    spans.append((stage.name, mark, now))
                    if stage.bucket == "engine":
                        ctx.engine_seconds += now - mark
                    elif stage.bucket == "accounting":
                        ctx.accounting_seconds += now - mark
                    mark = now
        except Exception:
            if ctx.count_query_on_denial:
                self.host.stats.note_query(
                    0.0, ctx.engine_seconds, ctx.accounting_seconds
                )
            raise
        finally:
            if self.watch is not None:
                self.watch.add(
                    spans,
                    getattr(ctx.result, "execution_path", None),
                    ctx.identity,
                    ctx.charged,
                )
        stats = self.host.stats
        stats.note_query(ctx.delay, ctx.engine_seconds, ctx.accounting_seconds)
        # Counted after the query, never before: at any instant the
        # delay histogram's count is at most ``stats.queries``.
        if ctx.served_select:
            stats.note_select(ctx.delay, len(ctx.keys))
        return ctx

    def _check_deadline(self, ctx: QueryContext) -> None:
        """Abort between stages once the caller's budget is spent.

        Cheap (one clock read) and early: a request that can no longer
        be answered in time should not consume engine or accounting
        work it cannot finish. Only called when ``ctx.deadline_at`` is
        set.
        """
        if time.monotonic() >= ctx.deadline_at:
            self.host.note_denial("deadline_exceeded")
            raise AccessDenied("deadline_exceeded")

    def stage_names(self) -> List[str]:
        """The configured stage order (introspection/docs)."""
        return [stage.name for stage in self.stages]


class PipelineHost:
    """What the stages read from whoever runs them, named once.

    A host sets ``config`` (a validated
    :class:`~repro.core.config.GuardConfig`), ``clock``, ``accounts``
    (an :class:`~repro.core.accounts.AccountManager` or None), ``stats``
    (a :class:`~repro.core.guard.GuardStats`), ``obs`` and a
    ``population()`` callable, then calls :meth:`_start_lifecycle`,
    which adds ``forensics``, the metric handles ``_m_denied`` and
    ``_m_identity_delay`` (observability on only) and ``pipeline``.

    A host with its own trackers calls :meth:`_init_trackers` first and
    inherits the three hooks; one whose counts live elsewhere (the
    cluster router: at the shards) overrides them instead.
    """

    #: the one stage class a host swaps.
    execute_stage = ExecuteStage
    #: a :class:`~repro.core.result_cache.ResultCache`, or None: the
    #: cache stages are skipped and a ``cache_only`` probe misses.
    result_cache = None
    #: live extraction forensics, or None unless ``config.forensics``.
    forensics: Optional[ForensicsMonitor] = None

    def _init_trackers(self, policy: Optional[DelayPolicy] = None) -> None:
        """Build the popularity/update-rate trackers and the policy."""
        config = self.config
        self.popularity = PopularityTracker(
            decay_rate=config.decay_rate, origin=config.node_id
        )
        self.update_rates = UpdateRateTracker(
            clock=self.clock,
            time_constant=config.update_time_constant,
            origin=config.node_id,
        )
        #: key -> clock time of last update (for staleness evaluation),
        #: guarded by ``_updates_lock``.
        self.last_update_times = {}
        self._updates_lock = threading.Lock()
        self.policy = (
            policy
            if policy is not None
            else policy_from_config(
                config, self.popularity, self.update_rates, self.population
            )
        )

    def _start_lifecycle(self) -> None:
        """Build forensics, the lifecycle metrics and the pipeline."""
        config = self.config
        if config.forensics:
            self.forensics = ForensicsMonitor(
                self.population,
                audit=self.obs.audit if self.obs.enabled else None,
            )
        if self.obs.enabled:
            self._register_lifecycle_metrics()
        self.pipeline = QueryPipeline(self)

    def _register_lifecycle_metrics(self) -> None:
        """The series every host exports about the queries it served.

        The unlabelled totals are callback-backed views over
        :attr:`stats` — the hot path pays nothing for them, and a scrape
        can never disagree with the stats because they are read from the
        same fields. Denials by reason are counted as they happen, on a
        cold path; the delay per identity and the execution paths are
        folded from the per-query records (:class:`StageWatch`).
        """
        registry = self.obs.registry
        stats = self.stats
        # The canonical delay distribution IS the stats histogram:
        # registering the same object means a scrape and GuardStats can
        # never disagree. Registered ahead of the totals, so a scrape
        # reads it first: a SELECT lands in it only after its query was
        # counted, hence its count never exceeds ``guard_queries_total``
        # in the same scrape.
        registry.register(stats.delay_histogram)
        registry.counter(
            "guard_queries_total", "Statements executed through the guard"
        ).set_function(lambda: stats.queries)
        registry.counter(
            "guard_selects_total", "SELECT statements served"
        ).set_function(lambda: stats.selects)
        registry.counter(
            "guard_tuples_charged_total", "Base tuples charged a delay"
        ).set_function(lambda: stats.tuples_charged)
        registry.counter(
            "guard_delay_seconds_total", "Total delay charged (seconds)"
        ).set_function(lambda: stats.total_delay)
        registry.counter(
            "guard_engine_seconds_total",
            "Time spent parsing and executing statements (seconds)",
        ).set_function(lambda: stats.engine_seconds)
        registry.counter(
            "guard_accounting_seconds_total",
            "Time spent on guard accounting (seconds)",
        ).set_function(lambda: stats.accounting_seconds)
        registry.counter(
            "guard_deadline_aborts_total",
            "Queries refused because their deadline budget ran out",
        ).set_function(lambda: stats.deadline_aborts)
        registry.counter(
            "guard_shed_total",
            "Requests sacrificed by overload shedding",
        ).set_function(lambda: stats.shed)
        # The parse stage's statement caches (process-global).
        registry.gauge(
            "guard_parse_cache_hits",
            "Statements served without a parse (memo hit or bind)",
        ).set_function(lambda: parse_cache_info().hits)
        registry.gauge(
            "guard_parse_cache_misses", "Statement shapes parsed"
        ).set_function(lambda: parse_cache_info().misses)
        registry.gauge(
            "guard_parse_cache_entries", "Statement shapes cached"
        ).set_function(lambda: parse_cache_info().currsize)
        registry.gauge(
            "guard_parse_cache_capacity", "Statement-cache maximum size"
        ).set_function(lambda: parse_cache_info().maxsize or 0)
        self._m_denied = registry.counter(
            "guard_denied_total", "Queries refused", ("reason",)
        )
        self._m_identity_delay = registry.counter(
            "guard_identity_delay_seconds_total",
            "Delay charged per identity (seconds); extraction-detection "
            "raw material",
            ("identity",),
        )
        if self.forensics is not None:
            self.forensics.register_metrics(registry)

    def note_denial(self, reason: str) -> None:
        """Count one refusal, in :attr:`stats` and by reason."""
        if reason == "deadline_exceeded":
            self.stats.note_deadline_abort()
        else:
            self.stats.note_denied()
        if self.obs.enabled:
            self._m_denied.inc(reason=reason)

    # -- the three questions the stages ask ---------------------------------

    def pricing_policy(self, ctx: QueryContext) -> DelayPolicy:
        """The policy that prices ``ctx.keys``."""
        return self.policy

    def record_reads(self, ctx: QueryContext) -> None:
        """Count ``ctx.keys`` as retrieved (§2.3 learning)."""
        self.popularity.record_many(ctx.keys)

    def record_updates(self, result: "ResultSet") -> None:
        """Count a DML result's rowids as updated (§3), as one batch."""
        now = self.clock.now()
        table_key = result.table.lower()
        keys = [(table_key, rowid) for rowid in result.rowids]
        with self._updates_lock:
            self.update_rates.record_many(keys)
            self.last_update_times.update(dict.fromkeys(keys, now))
