"""The complete data-provider service: database + guard + accounts.

:class:`DataProviderService` is the deployable composition of every
layer in this library — what the paper's information provider would
actually run. It owns the engine, the delay guard, and the account
manager; exposes user-facing ``register``/``query``; and gives the
operator an admin report plus a lifecycle of one path per verb: build
or :meth:`~DataProviderService.recover`,
:meth:`~DataProviderService.checkpoint`,
:meth:`~DataProviderService.close`. Saved state is the schema, the
data, *and* the learned popularity and accounts, so delays survive
restarts.

Thread-safe without external serialisation: queries run the guard's
staged pipeline, data access is arbitrated by the engine's read/write
lock (concurrent readers, exclusive writers), and a snapshot takes the
write side so it is a consistent point in time.
Callers — including :class:`~repro.server.DelayServer` — need no
statement-level lock of their own.

>>> from repro.core import AccountPolicy
>>> service = DataProviderService(account_policy=AccountPolicy())
>>> _ = service.database.execute(
...     "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
>>> _ = service.database.execute("INSERT INTO t VALUES (1, 'x')")
>>> _ = service.register("alice")
>>> service.query("alice", "SELECT * FROM t WHERE id = 1").rows
[(1, 'x')]
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .core.accounts import Account, AccountManager, AccountPolicy
from .core.clock import Clock, VirtualClock
from .core.config import GuardConfig
from .core.errors import ConfigError
from .core.guard import DelayGuard, GuardedResult
from .engine.database import Database
from .engine.durability import RecoveryReport, replay_journal
from .engine.journal import WriteAheadJournal
from .engine.persistence import (
    PersistenceError,
    atomic_write_json,
    dump_database,
    load_database,
)
from .obs import AuditLog, Observability
from .sim.metrics import format_seconds

#: Format identifier for full-service save files. v2 adds account state
#: and the journal high-water mark (``journal_seq``); :meth:`recover`
#: still reads v1 files.
SERVICE_FORMAT = "repro-service-v2"
_LEGACY_FORMATS = ("repro-service-v1",)


@dataclass
class ServiceReport:
    """Operator-facing snapshot of a running service.

    Attributes:
        users: registered identities.
        queries: queries served (including denials).
        denied: queries refused by account limits.
        median_user_delay: median per-SELECT delay so far.
        total_delay_charged: cumulative delay charged.
        extraction_cost: what a full extraction would cost right now.
        max_extraction_cost: the N·d_max bound (None without a cap).
        protection_ratio: extraction cost over median delay.
        top_tuples: the currently most popular (table, rowid, share).
    """

    users: int
    queries: int
    denied: int
    median_user_delay: float
    total_delay_charged: float
    extraction_cost: float
    max_extraction_cost: Optional[float]
    top_tuples: List[Tuple[str, int, float]] = field(default_factory=list)

    @property
    def protection_ratio(self) -> float:
        """Adversary cost relative to the median legitimate delay."""
        if self.median_user_delay <= 0:
            return float("inf")
        return self.extraction_cost / self.median_user_delay

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"users               : {self.users}",
            f"queries served      : {self.queries} "
            f"({self.denied} denied)",
            f"median user delay   : "
            f"{format_seconds(self.median_user_delay)}",
            f"delay charged total : "
            f"{format_seconds(self.total_delay_charged)}",
            f"extraction cost now : {format_seconds(self.extraction_cost)}",
        ]
        if self.max_extraction_cost is not None:
            fraction = (
                self.extraction_cost / self.max_extraction_cost
                if self.max_extraction_cost
                else 0.0
            )
            lines.append(
                f"vs N*d_max bound    : "
                f"{format_seconds(self.max_extraction_cost)} "
                f"({fraction:.0%} reached)"
            )
        for table, rowid, share in self.top_tuples:
            lines.append(
                f"  hot tuple {table}#{rowid}: {share:.1%} of requests"
            )
        return "\n".join(lines)


def build_report(guard, accounts, top_k: int) -> ServiceReport:
    """The operator report over a guard surface (single node or cluster)."""
    stats = guard.stats
    popularity = guard.popularity
    # Snapshot weights are decayed, so their shares must be taken
    # against the decayed total; dividing by the raw request count
    # mixes scales and misreports "% of requests" whenever
    # decay_rate > 1 or apply_decay has run. Equal to total_requests
    # when decay is off.
    total = max(popularity.decayed_total, 1.0)
    return ServiceReport(
        users=len(accounts.accounts) if accounts else 0,
        queries=stats.queries,
        denied=stats.denied,
        median_user_delay=stats.median_delay(),
        total_delay_charged=stats.total_delay,
        extraction_cost=guard.extraction_cost(),
        max_extraction_cost=(
            guard.max_extraction_cost()
            if guard.config.cap is not None
            else None
        ),
        top_tuples=[
            (table, rowid, count / total)
            for (table, rowid), count in popularity.snapshot()[:top_k]
        ],
    )


class DataProviderService:
    """Database + delay guard + accounts, wired together.

    Args:
        database: an existing engine (a fresh one by default).
        guard_config: delay policy configuration (§2 defaults).
        account_policy: §2.4 defenses; None disables account
            enforcement entirely (anonymous queries allowed).
        clock: time source (virtual by default; pass
            :class:`~repro.core.clock.RealClock` to actually delay).
        obs: observability bundle shared with the guard (and, when the
            service is wrapped in a :class:`~repro.server.DelayServer`,
            with the server), so one scrape covers every layer. A fresh
            enabled bundle by default.
        snapshot_path: the file :meth:`checkpoint` writes and
            :meth:`recover` reads. Optional; :meth:`save` exports to an
            explicit path instead.
        journal_path: when set, a write-ahead journal is opened there
            and attached to the engine — every committed mutation is
            fsync'd before its caller is told it succeeded. On a fresh
            start this is correct on its own; after a crash use
            :meth:`recover`, which replays the journal *before*
            re-attaching it.
        journal_sync: fsync the journal on every commit (default).
            Turning it off trades the durability of the newest commits
            for write throughput.
        audit_path: when set, an :class:`~repro.obs.AuditLog` is opened
            there and attached to the observability bundle — the guard
            and server emit structured defense events (served, denied,
            shed, priced, checkpoint, recovery, forensic flags) through
            a non-blocking background writer with size rotation. Only
            attached when the bundle doesn't already carry one, and
            closed by :meth:`close`.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        guard_config: Optional[GuardConfig] = None,
        account_policy: Optional[AccountPolicy] = None,
        clock: Optional[Clock] = None,
        obs: Optional[Observability] = None,
        snapshot_path: Optional[Union[str, Path]] = None,
        journal_path: Optional[Union[str, Path]] = None,
        journal_sync: bool = True,
        audit_path: Optional[Union[str, Path]] = None,
    ):
        self.database = database if database is not None else Database()
        self.clock = clock if clock is not None else VirtualClock()
        self.obs = obs if obs is not None else Observability()
        #: the audit log this service opened, and so closes.
        self._own_audit: Optional[AuditLog] = None
        if audit_path is not None and self.obs.audit is None:
            self._own_audit = self.obs.audit = AuditLog(str(audit_path))
            if self.obs.enabled:
                self.obs.audit.register_metrics(self.obs.registry)
        self.accounts: Optional[AccountManager] = (
            AccountManager(policy=account_policy, clock=self.clock)
            if account_policy is not None
            else None
        )
        self.guard = DelayGuard(
            self.database,
            config=guard_config,
            clock=self.clock,
            accounts=self.accounts,
            obs=self.obs,
        )
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None
        #: report of the recovery pass that produced this service, when
        #: it was built by :meth:`recover`.
        self.last_recovery: Optional[RecoveryReport] = None
        self.checkpoints_completed = 0
        #: journal seq covered by the newest checkpoint — the journal
        #: lag reported by :meth:`durability_health` is measured from it.
        self.last_checkpoint_seq = 0
        self._durability_metrics_registered = False
        if journal_path is not None:
            self.enable_journal(journal_path, sync=journal_sync)

    # -- durability ----------------------------------------------------------

    @property
    def journal(self) -> Optional[WriteAheadJournal]:
        """The engine's attached write-ahead journal, if any."""
        return self.database.journal

    def enable_journal(
        self, path: Union[str, Path], sync: bool = True
    ) -> WriteAheadJournal:
        """Open a write-ahead journal at ``path`` and attach it.

        Opening truncates any torn tail durably and continues sequence
        numbering after the last surviving record. Statements committed
        from here on are journalled (stamped with the service clock, so
        recovery can rebuild update-rate state with original
        timestamps). Call only on a state that already reflects the
        journal's contents — a fresh service, or one built by
        :meth:`recover`.
        """
        if self.database.journal is not None:
            raise ConfigError("a journal is already attached")
        journal = WriteAheadJournal(path, clock=self.clock, sync=sync)
        self.database.attach_journal(journal)
        if self.obs.enabled:
            self._register_durability_metrics()
        return journal

    def checkpoint(self) -> int:
        """Snapshot full service state to ``snapshot_path``, then
        truncate the journal.

        The snapshot goes where :meth:`recover` reads it, and nowhere
        else: truncating the journal behind a snapshot recovery never
        reads would lose every commit in between. Runs under one
        exclusive write lock: the snapshot, the ``journal_seq`` it
        records, and the truncation are a single point in time. A crash
        anywhere in between is safe — recovery skips journal records
        the snapshot already covers. Returns the journal sequence
        number the snapshot covers.
        """
        target = self.snapshot_path
        if target is None:
            raise ConfigError(
                "no checkpoint path: construct the service with "
                "snapshot_path="
            )
        with self.database.write_txn():
            journal = self.database.journal
            payload = self._dump_service()
            atomic_write_json(target, payload)
            if journal is not None:
                journal.truncate()
            self.checkpoints_completed += 1
            self.last_checkpoint_seq = payload["journal_seq"]
        if self.obs.audit is not None:
            self.obs.audit.emit(
                "checkpoint",
                path=str(target),
                journal_seq=self.last_checkpoint_seq,
                checkpoints_completed=self.checkpoints_completed,
            )
        return self.last_checkpoint_seq

    def _dump_service(self) -> Dict:
        """Full service state as one JSON document (holds the write lock)."""
        with self.database.write_txn():
            journal = self.database.journal
            return {
                "format": SERVICE_FORMAT,
                "database": dump_database(self.database),
                "guard": self.guard.dump_state(),
                "accounts": (
                    self.accounts.dump_state()
                    if self.accounts is not None
                    else None
                ),
                "journal_seq": journal.last_seq if journal is not None else 0,
                "mutation_epoch": self.database.mutation_epoch,
                "clock": self.clock.now(),
            }

    def _register_durability_metrics(self) -> None:
        """Expose journal and recovery health through the shared registry."""
        if self._durability_metrics_registered:
            return
        self._durability_metrics_registered = True
        registry = self.obs.registry
        database = self.database

        def journal_stat(attribute: str):
            def read() -> float:
                journal = database.journal
                return getattr(journal, attribute) if journal else 0

            return read

        registry.counter(
            "durability_journal_records_total",
            "Statements appended to the write-ahead journal",
        ).set_function(journal_stat("records_written"))
        registry.counter(
            "durability_journal_bytes_total",
            "Bytes appended to the write-ahead journal",
        ).set_function(journal_stat("bytes_written"))
        registry.counter(
            "durability_journal_fsyncs_total",
            "fsync calls issued by the journal",
        ).set_function(journal_stat("fsyncs"))
        registry.gauge(
            "durability_journal_size_bytes",
            "Current journal file size (shrinks at checkpoints)",
        ).set_function(journal_stat("size_bytes"))
        registry.gauge(
            "durability_journal_last_seq",
            "Sequence number of the newest journalled statement",
        ).set_function(journal_stat("last_seq"))
        registry.counter(
            "durability_checkpoints_total",
            "Snapshots completed (journal truncations)",
        ).set_function(lambda: self.checkpoints_completed)
        registry.gauge(
            "durability_recovery_seconds",
            "Wall-clock duration of the last crash recovery",
        ).set_function(
            lambda: (
                self.last_recovery.duration_seconds
                if self.last_recovery
                else 0.0
            )
        )
        registry.gauge(
            "durability_recovery_replayed_statements",
            "Journal records re-applied by the last crash recovery",
        ).set_function(
            lambda: (
                self.last_recovery.replayed_statements
                if self.last_recovery
                else 0
            )
        )
        registry.gauge(
            "durability_recovery_torn_bytes",
            "Invalid trailing journal bytes dropped by the last recovery",
        ).set_function(
            lambda: (
                self.last_recovery.torn_bytes_truncated
                if self.last_recovery
                else 0
            )
        )

    # -- user-facing ---------------------------------------------------------

    def register(self, identity: str, subnet: str = "0.0.0.0/0") -> Account:
        """Register an identity (subject to the registration gate)."""
        if self.accounts is None:
            raise ConfigError(
                "this service runs without accounts; queries are anonymous"
            )
        return self.accounts.register(identity, subnet=subnet)

    def query(
        self, identity: Optional[str], sql: str, record: bool = True
    ) -> GuardedResult:
        """Serve one query through the guard."""
        return self.guard.execute(sql, identity=identity, record=record)

    # -- operator-facing ---------------------------------------------------------

    def report(self, top_k: int = 3) -> ServiceReport:
        """Build an operator report of current protection posture."""
        return build_report(self.guard, self.accounts, top_k)

    def durability_health(self) -> Dict:
        """Journal/checkpoint posture for the server's ``health`` op.

        ``journal_lag`` is the number of committed statements the
        newest checkpoint does *not* cover — what a crash right now
        would have to replay.
        """
        journal = self.database.journal
        payload: Dict = {
            "journal_attached": journal is not None,
            "checkpoints_completed": self.checkpoints_completed,
            "last_checkpoint_seq": self.last_checkpoint_seq,
        }
        if journal is not None:
            payload["journal_last_seq"] = journal.last_seq
            payload["journal_size_bytes"] = journal.size_bytes
            payload["journal_lag"] = max(
                journal.last_seq - self.last_checkpoint_seq, 0
            )
        recovery = self.last_recovery
        payload["last_recovery"] = (
            {
                "snapshot_loaded": recovery.snapshot_loaded,
                "replayed_statements": recovery.replayed_statements,
                "torn_bytes_truncated": recovery.torn_bytes_truncated,
                "duration_seconds": recovery.duration_seconds,
            }
            if recovery is not None
            else None
        )
        return payload

    def close(self) -> None:
        """Close the journal attached to the database and the audit log
        opened from ``audit_path`` (idempotent).

        Nothing the caller passed in is closed: an ``obs`` bundle that
        already carried an audit log keeps it open. Every journal frame
        is flushed before its commit returns, so closing changes nothing
        on disk. A write after close raises
        :class:`~repro.engine.errors.JournalError`.
        """
        journal = self.database.journal
        if journal is not None:
            journal.close()
        if self._own_audit is not None:
            self._own_audit.close()

    # -- state persistence ----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Export database, learned guard state, and accounts, atomically.

        Unlike :meth:`checkpoint` this does not touch the journal — it
        is a portable export, safe to point anywhere. Restore it with
        ``recover(snapshot_path=path)``.
        """
        atomic_write_json(path, self._dump_service())

    @staticmethod
    def _read_service_payload(path: Union[str, Path]) -> Dict:
        file_path = Path(path)
        if not file_path.exists():
            raise PersistenceError(f"no service save at {file_path}")
        try:
            payload = json.loads(file_path.read_text())
        except json.JSONDecodeError as error:
            raise PersistenceError(f"corrupt service save: {error}") from error
        if (
            payload.get("format") != SERVICE_FORMAT
            and payload.get("format") not in _LEGACY_FORMATS
        ):
            raise PersistenceError(
                f"unsupported service format {payload.get('format')!r}"
            )
        return payload

    def _load_state_payload(self, payload: Dict) -> None:
        """Restore guard and account state from a service payload."""
        # The clock first, as it stood at the save: restored update
        # counts are read as of the clock, never ahead of it.
        self._advance_clock_to(payload.get("clock"))
        self.guard.load_state(payload["guard"])
        accounts_state = payload.get("accounts")
        if accounts_state is not None and self.accounts is not None:
            self.accounts.load_state(accounts_state)
        # Restore the snapshot epoch so nothing cached against the
        # previous run's epochs (result-cache entries, or any persisted
        # derivative of them) can ever be current again: the epoch
        # resumes at the snapshot's high-water mark instead of zero.
        self.database.bump_mutation_epoch(
            max(
                int(payload.get("journal_seq") or 0),
                int(payload.get("mutation_epoch") or 0),
            )
        )

    def _advance_clock_to(self, target: Optional[float]) -> None:
        """Move a virtual clock forward to ``target``, never backward.

        Restored tracker state carries timestamps from the previous
        run's timeline; a virtual clock restarted at zero would sit
        *before* them and mis-decay everything. Real clocks
        (``time.monotonic``) are system-wide and need no restoration.
        """
        if target is None or not hasattr(self.clock, "advance"):
            return
        delta = target - self.clock.now()
        if delta > 0:
            self.clock.advance(delta)

    @classmethod
    def recover(
        cls,
        snapshot_path: Optional[Union[str, Path]] = None,
        journal_path: Optional[Union[str, Path]] = None,
        guard_config: Optional[GuardConfig] = None,
        account_policy: Optional[AccountPolicy] = None,
        clock: Optional[Clock] = None,
        obs: Optional[Observability] = None,
        journal_sync: bool = True,
        audit_path: Optional[Union[str, Path]] = None,
        database_setup: Optional[Callable[[Database], None]] = None,
    ) -> "DataProviderService":
        """Rebuild a service from its snapshot and journal — the one
        restore path, after a crash and for an export from :meth:`save`.

        Loads the snapshot (v2 or v1; v1 predates account persistence,
        so accounts start empty). With a ``journal_path`` a missing
        snapshot means "never checkpointed" and is fine; without one it
        raises :class:`~repro.engine.persistence.PersistenceError`, as
        there is nothing to restore from. Then replays journal records
        past the snapshot's ``journal_seq`` — re-applying each statement to
        the engine *and* re-recording its updates into the guard's
        trackers with the timestamps they originally committed at — then
        re-attaches the journal so new commits keep being logged. Torn
        journal tails are truncated, not fatal. The result is stored in
        :attr:`last_recovery`. The guard configuration is supplied by
        the caller (policy knobs are deployment configuration, not
        data); its decay rate must match the saved state.

        ``database_setup``, when given, runs against the engine after the
        snapshot is loaded but *before* journal replay — cluster shards
        use it to configure strided rowid allocation so replayed INSERTs
        re-allocate exactly the rowids they held before the crash.
        """
        started = time.perf_counter()
        payload = None
        if snapshot_path is not None and (
            journal_path is None or Path(snapshot_path).exists()
        ):
            payload = cls._read_service_payload(snapshot_path)
        service = cls(
            database=(
                load_database(payload["database"])
                if payload is not None
                else None
            ),
            guard_config=guard_config,
            account_policy=account_policy,
            clock=clock,
            obs=obs,
            snapshot_path=snapshot_path,
            audit_path=audit_path,
        )
        if database_setup is not None:
            database_setup(service.database)
        report = RecoveryReport()
        if payload is not None:
            service._load_state_payload(payload)
            report.snapshot_loaded = True
            report.snapshot_seq = int(payload.get("journal_seq", 0))
        if journal_path is not None:
            entries, scan = replay_journal(
                service.database, journal_path, after_seq=report.snapshot_seq
            )
            for entry in entries:
                # The clock first: a tracker counts an update stamped
                # ahead of its clock as happening now.
                if entry.ts is not None:
                    service._advance_clock_to(entry.ts)
                if entry.tracked and entry.table is not None and entry.rowids:
                    service.guard.record_replayed_updates(
                        entry.table, entry.rowids, entry.ts
                    )
            report.entries = entries
            report.replayed_statements = len(entries)
            report.skipped_records = len(scan.records) - len(entries)
            report.last_seq = max(scan.last_seq, report.snapshot_seq)
            if scan.torn:
                report.torn_bytes_truncated = (
                    scan.total_bytes - scan.valid_bytes
                )
            service.enable_journal(journal_path, sync=journal_sync)
        else:
            report.last_seq = report.snapshot_seq
        # Re-anchor the mutation epoch at the journal high-water mark so
        # it is never behind where the pre-crash process left it: any
        # result cached against a pre-crash epoch stays invisible.
        service.database.bump_mutation_epoch(report.last_seq)
        report.duration_seconds = time.perf_counter() - started
        service.last_recovery = report
        service.last_checkpoint_seq = report.snapshot_seq
        if service.obs.audit is not None:
            service.obs.audit.emit(
                "recovery",
                snapshot_loaded=report.snapshot_loaded,
                snapshot_seq=report.snapshot_seq,
                replayed_statements=report.replayed_statements,
                torn_bytes_truncated=report.torn_bytes_truncated,
                duration_seconds=report.duration_seconds,
            )
        return service
