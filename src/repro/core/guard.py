"""The delay guard: the paper's defense as a query front door.

:class:`DelayGuard` wraps a :class:`repro.engine.Database` without
modifying it. Every query passes through the guard, which

1. authorizes the caller (registration, quotas, subnet limits — §2.4),
2. executes the statement on the engine,
3. charges a delay for each returned tuple per the configured policy
   (§2 popularity / §3 update rate), sleeping on the configured clock,
4. records the accesses and updates into the trackers that future
   delays are computed from (§2.3 learning).

Delays are computed from the counts *as they were before the query*, so
a tuple's first-ever retrieval is always charged the cold-start cap.

The lifecycle itself runs as an explicit staged pipeline
(:mod:`repro.core.pipeline`): admit → parse → authorize → execute →
account → price → record → sleep. Only the *execute* stage touches the
engine lock (shared for reads, exclusive for writes), so concurrent
queries overlap everywhere else — there is no statement-level gate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine.database import Database
from ..engine.executor import ResultSet
from ..obs import Histogram, Observability, QueryTrace
from .accounts import AccountManager
from .clock import Clock, VirtualClock
from .config import GuardConfig
from .delay_policy import DelayPolicy
from .errors import ConfigError
from .pipeline import PipelineHost, QueryContext
from .popularity import DecayedCounts
from .result_cache import ResultCache

#: Guard-level tuple key: (lower-cased table name, rowid).
TupleKey = Tuple[str, int]


def staleness_entry(
    population: int, horizon: float, rates: np.ndarray
) -> Dict[str, float]:
    """One table's staleness row (§3, eqs. 8-12) from its rows' rates.

    A tuple updated at Poisson rate ``r`` and extracted at a uniformly
    random instant of a ``horizon``-second scan is stale by scan end
    with probability ``1 - (1 - e^(-rT)) / (rT)`` (``expm1`` keeps tiny
    ``rT`` from cancelling). ``smax_fraction`` is the expected stale
    share of the ``population``; never-updated rows contribute zero.
    """
    rates = rates[rates > 0]
    exposure = rates * horizon
    exposure = exposure[exposure > 0]
    expected_stale = float(np.sum(1.0 + np.expm1(-exposure) / exposure))
    return {
        "population": population,
        "extraction_seconds": horizon,
        "update_rate_per_second": float(rates.sum()),
        "updated_keys": len(rates),
        "smax_fraction": expected_stale / max(population, 1),
    }


@dataclass
class GuardedResult:
    """A query result annotated with the delay that was charged."""

    result: ResultSet
    delay: float
    per_tuple_delays: List[float] = field(default_factory=list)
    identity: Optional[str] = None
    #: True when the result came from the guard's result cache. The
    #: delay, charges, and popularity counts are identical either way
    #: — a cached answer only skipped the engine, never the price.
    cached: bool = False
    #: The lifecycle trace recorded for this query (None when the
    #: guard's observability is disabled). Lets callers that serve the
    #: sleep themselves (the server does, outside its statement lock)
    #: extend the trace with the stage they served.
    trace: Optional[QueryTrace] = field(
        default=None, repr=False, compare=False
    )
    #: Per-shard coverage for a degraded cluster scatter served with
    #: ``partial_results=True``: which shards answered and which were
    #: down. None for complete results — a partial answer is never
    #: silent.
    coverage: Optional[Dict] = None

    @property
    def rows(self):
        """The underlying result rows."""
        return self.result.rows


def _delay_histogram() -> Histogram:
    """The canonical per-SELECT delay distribution (bounded memory)."""
    return Histogram(
        "guard_select_delay_seconds",
        "Delay charged per SELECT (seconds)",
    )


@dataclass
class GuardStats:
    """Aggregate guard behaviour, used by the evaluation harness.

    Thread-safe for concurrent serving: the ``note_*`` methods take an
    internal lock so each logical event (a denial, a served SELECT, a
    finished query) lands atomically even when many handler threads
    share one guard. The fields stay public for single-threaded readers
    (experiments, reports).

    The per-SELECT delay distribution lives in ``delay_histogram``, a
    bounded streaming histogram (the old unbounded ``select_delays``
    list would leak on a long-running server). Quantiles come from the
    histogram: exact at q=0/q=1 and whenever a bucket holds one
    distinct value, bucket-width-bounded otherwise. Callers needing raw
    per-query delays (windowed medians, cap re-sweeps) should collect
    them at the call site from :class:`GuardedResult`.
    """

    queries: int = 0
    selects: int = 0
    tuples_charged: int = 0
    total_delay: float = 0.0
    denied: int = 0
    #: denials whose cause was an exhausted ``deadline_ms`` budget —
    #: either mid-pipeline (budget ran out) or up front (the mandated
    #: delay would not fit). A subset of :attr:`denied`.
    deadline_aborts: int = 0
    #: requests sacrificed by overload shedding (admission-queue
    #: overflow or delay-parking eviction). Counted by the server's
    #: shedding machinery, not by the pipeline — a shed query may have
    #: been priced but was never answered.
    shed: int = 0
    engine_seconds: float = 0.0
    accounting_seconds: float = 0.0
    delay_histogram: Histogram = field(
        default_factory=_delay_histogram, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- atomic recording ---------------------------------------------------

    def note_denied(self) -> None:
        """Count one refused query."""
        with self._lock:
            self.denied += 1

    def note_deadline_abort(self) -> None:
        """Count one refusal caused by an exhausted deadline budget."""
        with self._lock:
            self.denied += 1
            self.deadline_aborts += 1

    def note_shed(self) -> None:
        """Count one request sacrificed by overload shedding."""
        with self._lock:
            self.shed += 1

    def note_select(self, delay: float, tuples: int) -> None:
        """Count one served SELECT and the tuples it was charged for."""
        with self._lock:
            self.selects += 1
            self.tuples_charged += tuples
            self.delay_histogram.observe(delay)

    def note_query(
        self,
        delay: float,
        engine_seconds: float,
        accounting_seconds: float,
    ) -> None:
        """Count one finished statement with its timing buckets."""
        with self._lock:
            self.queries += 1
            self.total_delay += delay
            self.engine_seconds += engine_seconds
            self.accounting_seconds += accounting_seconds

    # -- summaries ----------------------------------------------------------

    def median_delay(self) -> float:
        """Median per-SELECT delay (the paper's headline user metric)."""
        return self.delay_histogram.quantile(0.5)

    def quantile_delay(self, q: float) -> float:
        """Delay at quantile ``q`` in [0, 1] over SELECT queries.

        Histogram-estimated nearest-rank: q=0 gives the exact minimum,
        q=1 the exact maximum; interior quantiles answer with the mean
        of the matched bucket (exact when the bucket holds one distinct
        value, bucket-width-bounded error otherwise).
        """
        if not 0 <= q <= 1:
            raise ConfigError(f"quantile must be in [0,1], got {q}")
        return self.delay_histogram.quantile(q)

    def overhead_fraction(self) -> float:
        """Accounting cost relative to raw engine cost (Table 5 metric).

        Both buckets are read under the lock so a concurrent
        ``note_query`` can never yield a torn pair (accounting from one
        query paired with engine time missing it).
        """
        with self._lock:
            engine = self.engine_seconds
            accounting = self.accounting_seconds
        if engine == 0:
            return 0.0
        return accounting / engine


class DelayGuard(PipelineHost):
    """Wraps a database so every retrieval pays its popularity price.

    Args:
        database: the engine to protect.
        config: declarative configuration (see :class:`GuardConfig`).
        clock: time source; defaults to a fresh :class:`VirtualClock`
            so tests and benchmarks never actually block.
        policy: a pre-built policy, overriding ``config.policy``.
        accounts: an :class:`AccountManager` enforcing §2.4 defenses;
            when provided, ``execute`` requires a registered identity.
        obs: observability bundle (registry + tracer). A fresh enabled
            one by default; pass ``Observability.disabled()`` to skip
            all metric/trace work (overhead-sensitive replays), or the
            service's bundle so one scrape covers every layer. Each
            guard needs its own registry (metric names would collide).

    >>> from repro.engine import Database
    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    >>> guard = DelayGuard(db, config=GuardConfig(cap=5.0))
    >>> first = guard.execute("SELECT * FROM t WHERE id = 1")
    >>> first.delay  # cold start: the cap
    5.0
    """

    def __init__(
        self,
        database: Database,
        config: Optional[GuardConfig] = None,
        clock: Optional[Clock] = None,
        policy: Optional[DelayPolicy] = None,
        accounts: Optional[AccountManager] = None,
        obs: Optional[Observability] = None,
        population_provider: Optional[Callable[[], int]] = None,
    ):
        self.database = database
        self.config = (config if config is not None else GuardConfig()).validate()
        self.clock = clock if clock is not None else VirtualClock()
        self.accounts = accounts
        self.stats = GuardStats()
        #: cluster hook: when set, :meth:`population` asks the provider
        #: for the *global* tuple count instead of the local engine, so
        #: a shard prices against N of the whole dataset (per-shard N
        #: would divide every delay by the shard count).
        self._population_provider = population_provider
        self._population_cache: Optional[Tuple[int, int]] = None
        self._init_trackers(policy)
        #: delay-aware result cache (None unless configured): hits skip
        #: only the execute stage; pricing and recording always run.
        self.result_cache = (
            ResultCache(maxsize=self.config.result_cache_size)
            if self.config.result_cache_size is not None
            else None
        )
        self.obs = obs if obs is not None else Observability()
        if not self.config.vectorized_execution:
            # Only reconfigure when the config deviates from the engine
            # default: a Database may be shared (tests, embedding) and
            # rebuilding its executor resets the path counters.
            self.database.configure_execution(vectorized=False)
        if self.obs.enabled:
            # Counted from the pipeline's per-query records, so it
            # exists before the pipeline does.
            self._m_execution_path = self.obs.registry.counter(
                "guard_execution_path_total",
                "Statements served per engine execution path",
                ("path",),
            )
        self._start_lifecycle()
        if self.obs.enabled:
            self._register_metrics()

    # -- construction helpers ----------------------------------------------

    def _register_metrics(self) -> None:
        """The state gauges of this host's engine, trackers and caches
        (the per-query series are the lifecycle's:
        :meth:`~repro.core.pipeline.PipelineHost._register_lifecycle_metrics`).
        """
        registry = self.obs.registry
        registry.gauge(
            "guard_population", "Protected tuples (N in the formulas)"
        ).set_function(self.population)
        popularity = self.popularity
        registry.gauge(
            "guard_popularity_tracked_keys", "Keys with a popularity count"
        ).set_function(popularity.tracked_keys)
        registry.gauge(
            "guard_popularity_requests_total",
            "Undecayed recorded accesses",
        ).set_function(lambda: popularity.total_requests)
        registry.gauge(
            "guard_popularity_decayed_total",
            "Decayed request total on the present-request scale",
        ).set_function(lambda: popularity.decayed_total)
        registry.gauge(
            "guard_popularity_rescales", "Overflow rescales performed"
        ).set_function(lambda: popularity.rescales)
        update_rates = self.update_rates
        registry.gauge(
            "guard_update_tracker_keys", "Keys with recorded updates"
        ).set_function(update_rates.tracked_keys)
        registry.gauge(
            "guard_update_tracker_updates_total", "Updates recorded"
        ).set_function(lambda: update_rates.total_updates)
        rwlock = self.database.rwlock
        registry.gauge(
            "engine_read_lock_waiters",
            "Threads currently waiting for the engine's shared read lock",
        ).set_function(lambda: rwlock.waiting_readers)
        registry.gauge(
            "engine_write_lock_waiters",
            "Threads currently waiting for the engine's exclusive "
            "write lock",
        ).set_function(lambda: rwlock.waiting_writers)
        registry.gauge(
            "engine_write_lock_hold_seconds",
            "Cumulative seconds the engine write lock has been held",
        ).set_function(lambda: rwlock.write_hold_seconds)
        batch_events = registry.counter(
            "engine_column_batch_events_total",
            "Columnar views fully built, patched in place by a row "
            "mutation, or dropped because a patch was not possible",
            ("event",),
        )
        database = self.database
        for event in ("build", "patch", "drop"):
            batch_events.set_function(
                lambda name=event: database.column_batch_counts()[name],
                event=event,
            )
        cache = self.result_cache
        if cache is not None:
            descriptions = {
                "hits": "Result-cache hits (priced and recorded like "
                "misses; only engine CPU was saved)",
                "misses": "Result-cache misses",
                "evictions": "Result-cache LRU evictions",
                "invalidations": "Entries swept because a committed "
                "mutation advanced the snapshot epoch",
                "entries": "Results currently cached",
                "capacity": "Result-cache maximum size",
                "epoch": "Highest engine mutation epoch the cache has "
                "observed",
            }
            for stat, help_text in descriptions.items():
                registry.gauge(
                    f"guard_result_cache_{stat}", help_text
                ).set_function(lambda name=stat: cache.info()[name])
        # Per-table staleness-guarantee gauges. Labelled gauges cannot
        # be callback-backed, so they are refreshed on demand by
        # refresh_staleness_gauges() (the server's health op does).
        self._m_stale_extraction = registry.gauge(
            "staleness_extraction_seconds",
            "Seconds a full extraction of this table would take at "
            "today's prices (T in eqs. 8-12)",
            ("table",),
        )
        self._m_stale_rate = registry.gauge(
            "staleness_update_rate_per_second",
            "Summed estimated update rate across this table's tuples",
            ("table",),
        )
        self._m_stale_smax = registry.gauge(
            "staleness_smax_fraction",
            "Live S_max: expected stale fraction of an extraction "
            "spread over the table's current extraction time",
            ("table",),
        )

    # -- sizing ----------------------------------------------------------------

    def set_population_provider(self, provider: Callable[[], int]) -> None:
        """Price against an external (global) population count.

        Cluster shards call this so every delay formula uses the
        cluster-wide N instead of the shard's local row count — with M
        shards, pricing against N/M local rows would cut every delay by
        roughly M. Takes effect immediately: the policies hold this
        guard's bound :meth:`population` method.
        """
        self._population_provider = provider
        self._population_cache = None

    def population(self) -> int:
        """Total protected tuples (N in the paper's formulas).

        Reads the catalog under the engine's shared read lock so a
        concurrent DDL/DML writer can't change the table set mid-sum.
        The read lock is reentrant, so this is safe to call from inside
        the pipeline's price stage or another read section.

        The sum is cached per mutation epoch — the population can only
        change through a committed mutation, and every commit advances
        the epoch, so a cached value at the current epoch is exact.
        That keeps lock-free callers (the server's I/O-loop cache fast
        path) from queueing behind an engine writer. With a
        ``population_provider`` (cluster shards), the provider's global
        count is used instead.
        """
        if self._population_provider is not None:
            return max(int(self._population_provider()), 1)
        cached = self._population_cache
        if cached is not None and cached[0] == self.database.mutation_epoch:
            return cached[1]
        with self.database.read_view():
            epoch = self.database.mutation_epoch
            catalog = self.database.catalog
            total = sum(len(heap) for heap in catalog.tables())
        value = max(total, 1)
        self._population_cache = (epoch, value)
        return value

    # -- the front door -----------------------------------------------------

    def execute(
        self,
        sql_or_statement: Union[str, object],
        identity: Optional[str] = None,
        record: bool = True,
        sleep: bool = True,
        deadline_at: Optional[float] = None,
        cache_only: bool = False,
    ) -> Optional[GuardedResult]:
        """Execute a statement, charging and applying its delay.

        Runs the staged pipeline (admit → parse → authorize → execute →
        account → price → record → sleep). When the guard's
        :class:`~repro.obs.Observability` is enabled, each query also
        emits a lifecycle trace with one span per stage and updates the
        metrics registry; both stay exactly consistent with
        :attr:`stats`.

        Thread-safe with no statement-level gate: only the execute
        stage takes the engine lock (shared for SELECT/EXPLAIN,
        exclusive for DML/DDL), so concurrent callers overlap in every
        other stage.

        Args:
            sql_or_statement: SQL text or a pre-parsed statement.
            identity: registered identity, required when the guard has
                an :class:`AccountManager` attached.
            record: whether this query's accesses feed the popularity
                counts (experiments replaying an adversary against a
                frozen distribution pass False).
            sleep: whether to apply the delay on the guard's clock. The
                server and the concurrent simulator pass False and
                serve each caller's delay themselves — per connection
                or by event scheduling — so one penalised query never
                blocks another.
            deadline_at: absolute ``time.monotonic()`` deadline for the
                caller's end-to-end budget. The pipeline aborts with
                ``deadline_exceeded`` at the first stage boundary past
                it, and rejects a mandated delay longer than the
                remaining budget *before* recording or sleeping
                (reporting the full delay as ``retry_after``).
            cache_only: probe mode for the server's I/O-loop fast
                path. The pipeline runs parse → cache lookup first; on
                a miss it returns ``None`` immediately — before the
                authorize stage, so the account is *not* charged (the
                caller re-submits through the full pipeline, which
                charges exactly once). On a hit the remaining stages
                (admit, authorize, account, price, record, forensics,
                sleep) run exactly as usual, so a fast-path hit is
                indistinguishable from a worker-pool hit in counts,
                charges, and mandated delay.

        Raises:
            AccessDenied: if an account-level limit refuses the query,
                or the deadline budget cannot be met.
        """
        ctx = QueryContext(
            sql_or_statement=sql_or_statement,
            identity=identity,
            record=record,
            sleep=sleep,
            deadline_at=deadline_at,
            cache_only=cache_only,
        )
        if not self.pipeline.serve(ctx):
            return None
        return GuardedResult(
            result=ctx.result,
            delay=ctx.delay,
            per_tuple_delays=ctx.per_tuple,
            identity=identity,
            trace=ctx.trace,
            cached=ctx.cache_hit,
        )

    # -- analysis hooks ----------------------------------------------------------

    def delay_for(self, table: str, rowid: int) -> float:
        """The delay the policy would charge for one tuple right now."""
        return self.policy.delay_for((table.lower(), rowid))

    def last_update_times_for(self, table: str) -> Dict:
        """Last-update times for one table, keyed by primary key value.

        Translates the guard's internal (table, rowid) keys into the
        table's primary-key domain so they can be matched against an
        adversary's extracted snapshot. Tables without a primary key
        are keyed by rowid.
        """
        with self._updates_lock:
            updates = list(self.last_update_times.items())
        with self.database.read_view():
            heap = self.database.catalog.table(table)
            prefix = heap.name.lower()
            pk = heap.schema.primary_key
            pk_position = heap.schema.position(pk) if pk else None
            translated: Dict = {}
            for (name, rowid), when in updates:
                if name != prefix:
                    continue
                if pk_position is None:
                    translated[rowid] = when
                    continue
                row = heap.get(rowid)
                if row is not None:
                    translated[row[pk_position]] = when
            return translated

    def extraction_cost(self, table: Optional[str] = None) -> float:
        """Total delay an adversary would pay to extract everything now.

        Computed statically from the current counts (the paper computes
        adversary delay this way in §4.1: "by examining the access
        counts after the trace was replayed"). Does not mutate state.
        """
        with self.database.read_view():
            names = (
                [table]
                if table is not None
                else self.database.catalog.table_names()
            )
            keyed = []
            for name in names:
                heap = self.database.catalog.table(name)
                key_prefix = heap.name.lower()
                keyed.extend((key_prefix, rowid) for rowid in heap.rowids())
        # Price outside the read lock: the policy only reads trackers.
        return sum(self.policy.delays_for(keyed))

    def staleness_inputs(self) -> Dict[str, Tuple[int, float, np.ndarray]]:
        """Per table: its population, today's full-extraction seconds
        (:meth:`extraction_cost`), and the update rate of every row it
        holds — the rows population and extraction cost count, and no
        key this tracker only mirrors or no longer stores."""
        with self.database.read_view():
            tables = {}
            for name in self.database.catalog.table_names():
                heap = self.database.catalog.table(name)
                prefix = heap.name.lower()
                tables[name] = [(prefix, rowid) for rowid in heap.rowids()]
        # Priced outside the read lock, as extraction_cost prices them.
        return {
            name.lower(): (
                len(keys),
                sum(self.policy.delays_for(keys)),
                self.update_rates.rate_array(keys),
            )
            for name, keys in tables.items()
        }

    def staleness_report(self) -> Dict[str, Dict]:
        """Per-table live staleness guarantee (§3, eqs. 8-12).

        For each table, prices today's full-extraction time T from the
        current counts and evaluates the paper's Poisson staleness model
        against the live update-rate estimates (:func:`staleness_entry`).
        The reported ``smax_fraction`` is the expected stale fraction of
        a full extraction *started now* — the guarantee the defense is
        currently delivering, live.
        """
        return {
            table: staleness_entry(*inputs)
            for table, inputs in self.staleness_inputs().items()
        }

    def refresh_staleness_gauges(self) -> Dict[str, Dict]:
        """Recompute :meth:`staleness_report` and push it to the gauges.

        Labelled gauges cannot be callback-backed, so something must
        pump them; the server's ``health`` op calls this on every
        request, which makes a scrape-after-health always current.
        Returns the report it pushed.
        """
        report = self.staleness_report()
        if self.obs.enabled:
            for table, entry in report.items():
                self._m_stale_extraction.set(
                    entry["extraction_seconds"], table=table
                )
                self._m_stale_rate.set(
                    entry["update_rate_per_second"], table=table
                )
                self._m_stale_smax.set(
                    entry["smax_fraction"], table=table
                )
        return report

    def max_extraction_cost(self, table: Optional[str] = None) -> float:
        """The N·d_max bound: every tuple at the cap (needs a cap)."""
        if self.config.cap is None:
            raise ConfigError("max_extraction_cost requires a delay cap")
        if table is not None:
            with self.database.read_view():
                n = len(self.database.catalog.table(table))
        else:
            n = self.population()
        return n * self.config.cap

    # -- cluster gossip -------------------------------------------------------

    def _trackers(self) -> Dict[str, DecayedCounts]:
        return {
            "popularity": self.popularity,
            "update_rates": self.update_rates,
        }

    def gossip_versions(self) -> Dict:
        """Per-origin version marks for both trackers (anti-entropy)."""
        return {name: t.versions() for name, t in self._trackers().items()}

    def gossip_digest(self, versions: Optional[Dict] = None) -> Dict:
        """Tracker deltas newer than a peer's ``versions`` marks.

        Feed a peer's :meth:`gossip_versions` in to get exactly what it
        is missing; None produces a full digest (initial sync).
        """
        versions = versions if versions is not None else {}
        return {
            name: tracker.delta_since(versions.get(name))
            for name, tracker in self._trackers().items()
        }

    def gossip_merge(self, digest: Dict) -> Dict[str, int]:
        """Fold a peer's :meth:`gossip_digest` into this guard's trackers.

        Commutative and idempotent (per-origin last-writer-wins joins),
        so rounds may repeat, reorder, or overlap without double
        counting. Returns entries adopted per tracker.
        """
        return {
            name: tracker.merge(digest[name]) if digest.get(name) else 0
            for name, tracker in self._trackers().items()
        }

    # -- state persistence ---------------------------------------------------

    def dump_state(self) -> Dict:
        """Serialise learned state to a JSON-compatible dictionary.

        Covers popularity counts (with their decay bookkeeping, origin,
        versions, and any gossip mirrors), the raw request totals, and
        last-update times — everything needed for a restarted guard to
        keep charging the same delays, and for a restarted *shard* to
        reclaim its own entries from peers via anti-entropy. Account
        state and statistics are not included.
        """
        with self._updates_lock:
            updates = [
                [f"{table}:{rowid}", when]
                for (table, rowid), when in self.last_update_times.items()
            ]
        return {
            "format": "repro-guard-v3",
            "decay_rate": self.popularity.decay_rate,
            "popularity": self.popularity.dump_state(),
            "last_update_times": updates,
            "update_rates": self.update_rates.dump_state(),
        }

    def load_state(self, payload: Dict) -> None:
        """Restore state produced by :meth:`dump_state`.

        Accepts the current ``repro-guard-v3`` format plus v2 and v1
        (which predate tracker-level persistence; v1 additionally
        leaves the update tracker empty). The guard's configured decay
        rate and update time constant must match the saved ones (delays
        would silently change otherwise).
        """
        fmt = payload.get("format")
        if fmt not in ("repro-guard-v1", "repro-guard-v2", "repro-guard-v3"):
            raise ConfigError(
                f"unsupported guard state format {payload.get('format')!r}"
            )
        if payload["decay_rate"] != self.popularity.decay_rate:
            raise ConfigError(
                f"saved decay rate {payload['decay_rate']} does not match "
                f"configured {self.popularity.decay_rate}"
            )
        if "update_rates" in payload:
            # First: it refuses a snapshot decayed under another τ.
            self.update_rates.load_state(payload["update_rates"])
        if fmt == "repro-guard-v3" or "popularity" in payload:
            # v3 nests full tracker state; older tags carrying the
            # nested shape (re-labelled exports) load the same way.
            self.popularity.load_state(payload["popularity"])
        else:
            self.popularity.reset()
            self.popularity._increment = payload["increment"]
            self.popularity._raw_total = payload["raw_total"]
            self.popularity._decayed_total = payload["decayed_total"]
            for key_text, weight in payload["counts"]:
                table, _, rowid = key_text.partition(":")
                self.popularity.store.add((table, int(rowid)), weight)
        with self._updates_lock:
            self.last_update_times.clear()
            for key_text, when in payload["last_update_times"]:
                table, _, rowid = key_text.partition(":")
                self.last_update_times[(table, int(rowid))] = when

    def record_replayed_updates(
        self, table: str, rowids, when: Optional[float] = None
    ) -> None:
        """Re-record journalled updates during crash recovery.

        Mirrors what the pipeline's execute stage does for a live DML
        statement, but stamps the tracker with ``when`` — the service
        clock time the statement originally committed at (from its
        journal record) — so recovered update rates decay from the
        right instant instead of clustering at recovery time.
        """
        keys = self.note_replicated_updates(table, rowids, when)
        self.update_rates.record_many(keys, at=when)

    def note_replicated_updates(
        self, table: str, rowids, when: Optional[float] = None
    ) -> List[Tuple[str, int]]:
        """Note applied writes' times, counting nothing; returns the keys.

        A follower's apply path: the ship digest already carries the
        primary's count, which gossip would add to a second one here.
        """
        stamp = when if when is not None else self.clock.now()
        keys = [(table.lower(), rowid) for rowid in rowids]
        with self._updates_lock:
            self.last_update_times.update(dict.fromkeys(keys, stamp))
        return keys

    def __repr__(self) -> str:
        return (
            f"DelayGuard(policy={self.policy.describe()}, "
            f"queries={self.stats.queries})"
        )
