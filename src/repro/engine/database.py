"""The `Database` facade: parse + plan + execute in one call.

This is the layer the delay guard wraps. It accepts SQL text or
pre-parsed statements, collects simple execution statistics, and offers
convenience helpers (``insert_rows``, ``explain``) used throughout the
workload generators and benchmarks.

Concurrency: the database owns a writer-preferring, reentrant
:class:`~repro.engine.rwlock.ReadWriteLock`. SELECT and EXPLAIN execute
under the shared read side (:meth:`Database.read_view`), so concurrent
readers proceed in parallel; DML, DDL, and transaction control take the
exclusive write side (:meth:`Database.write_txn`). Reads never mutate
engine state — scans, planner decisions, index lookups, and subquery
binding are pure; the only read-path bookkeeping is
:class:`EngineStats`, which takes its own small lock.

Durability: :meth:`Database.attach_journal` connects a
:class:`~repro.engine.journal.WriteAheadJournal`. Every committed
mutating operation that flows through the database's public surface —
SQL DML/DDL, :meth:`Database.create_table`, :meth:`Database.insert_rows`
— is appended (and fsync'd) before the call returns, under the same
exclusive write lock that applied it. Statements inside an explicit
transaction are buffered and appended as one batch at COMMIT, so the
journal only ever contains committed work; a crash mid-transaction
loses exactly the uncommitted statements. Direct ``catalog``/heap
access bypasses the journal by design (that is how snapshot *loading*
avoids re-journalling itself).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..testing.faults import fire
from .catalog import Catalog, CatalogScope
from .errors import JournalError
from .executor import Executor, ResultSet
from .vectorized.executor import VectorizedExecutor
from .parser.ast import (
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    ExplainStatement,
    InsertStatement,
    SelectStatement,
    TransactionStatement,
    UpdateStatement,
)
from .expr import ColumnRef, Comparison
from .parser.parser import parse, parse_cached
from .planner import choose_access_path
from .rwlock import ReadWriteLock
from .schema import TableSchema
from .table import HeapTable
from .transactions import TransactionError, UndoLog
from .types import SQLValue


@dataclass
class EngineStats:
    """Aggregate execution statistics, by statement kind.

    ``record`` takes an internal lock: statistics are the one piece of
    shared state the *read* path mutates, and concurrent SELECTs under
    the shared engine lock would otherwise lose increments.
    """

    statements: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    rows_returned: int = 0
    rows_written: int = 0
    total_execution_seconds: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, result: ResultSet, elapsed: float) -> None:
        """Fold one statement's outcome into the totals (atomically)."""
        with self._lock:
            self.statements += 1
            self.by_kind[result.statement_kind] = (
                self.by_kind.get(result.statement_kind, 0) + 1
            )
            if result.statement_kind == "select":
                self.rows_returned += len(result.rows)
            else:
                self.rows_written += result.rowcount
            self.total_execution_seconds += elapsed


class Database:
    """An in-process relational database.

    >>> db = Database()
    >>> _ = db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    >>> _ = db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    >>> db.execute("SELECT v FROM t WHERE id = 2").scalar()
    'two'
    """

    def __init__(self) -> None:
        self.catalog = Catalog()
        # Columnar execution is the default: it falls back to the
        # classic row-at-a-time path statement-by-statement, emitting
        # bit-identical results either way (see repro.engine.vectorized).
        self.executor: Executor = VectorizedExecutor(self.catalog)
        self.stats = EngineStats()
        #: Engine-level reader/writer lock: SELECT/EXPLAIN share the
        #: read side, everything that mutates takes the write side.
        self.rwlock = ReadWriteLock()
        self._transaction: Optional[UndoLog] = None
        #: write-ahead journal, when durability is enabled.
        self._journal = None
        #: journal entries of the open explicit transaction, appended as
        #: one batch at COMMIT and discarded at ROLLBACK.
        self._txn_journal: List[Dict] = []
        #: monotonic commit counter: bumped once per committed mutation
        #: (statement, bulk load, DDL, or explicit-transaction COMMIT).
        #: Caches key entries on it, so any committed change invalidates
        #: everything cached against the previous value. Aligned with
        #: the journal's ``last_seq`` whenever one is attached, so the
        #: epoch survives checkpoints and crash recovery. Like the
        #: journal, direct catalog/heap access bypasses it by design.
        self._mutation_epoch = 0

    # -- snapshot epoch ------------------------------------------------------

    @property
    def mutation_epoch(self) -> int:
        """The current snapshot epoch (monotonic committed-mutation count).

        Reading is lock-free: a plain int read is atomic, and cache
        users tolerate observing the value an instant early or late —
        they re-check it around execution.
        """
        return self._mutation_epoch

    def bump_mutation_epoch(self, floor: int) -> int:
        """Raise the epoch to at least ``floor``; returns the new epoch.

        Used when restoring state: a recovered process must start its
        epoch at (or past) the snapshot's journal high-water mark so no
        cache entry keyed before the crash can ever be current again.
        Never moves the epoch backward.
        """
        with self.write_txn():
            if floor > self._mutation_epoch:
                self._mutation_epoch = floor
            return self._mutation_epoch

    def _advance_mutation_epoch(self) -> None:
        """Bump the epoch for one committed mutation (write lock held)."""
        epoch = self._mutation_epoch + 1
        if self._journal is not None:
            epoch = max(epoch, self._journal.last_seq)
        self._mutation_epoch = epoch

    # -- execution engine selection ------------------------------------------

    def configure_execution(self, vectorized: bool = True) -> None:
        """Choose the execution tier.

        Args:
            vectorized: the columnar executor (the default) runs every
                statement; False selects the row-at-a-time reference
                tier.
        """
        with self.write_txn():
            executor = VectorizedExecutor if vectorized else Executor
            self.executor = executor(self.catalog)

    def column_batch_counts(self) -> Dict[str, int]:
        """What writes did to the tables' columnar views (observability).

        ``build`` full transpositions, ``patch`` single-row patches,
        ``drop`` views thrown away because a patch was impossible or
        over its copy budget — summed over the tables that exist now,
        so DROP TABLE takes its table's share with it (a scraper sees
        an ordinary counter reset).
        """
        counts = {"build": 0, "patch": 0, "drop": 0}
        for table in self.catalog.tables():
            counts["build"] += table.batch_builds
            counts["patch"] += table.batch_patches
            counts["drop"] += table.batch_drops
        return counts

    def set_rowid_allocation(self, offset: int, stride: int) -> None:
        """Allocate rowids from residue class ``offset + 1 (mod stride)``.

        Cluster shards call this before replaying their journal so rowids
        stay globally unique (see :meth:`Catalog.set_rowid_allocation`).
        """
        with self.write_txn():
            self.catalog.set_rowid_allocation(offset, stride)

    # -- durability ----------------------------------------------------------

    @property
    def journal(self):
        """The attached write-ahead journal, or None."""
        return self._journal

    def attach_journal(self, journal) -> None:
        """Journal every committed mutating operation from now on.

        Attach *after* loading a snapshot (and after replay): loading
        goes through the catalog directly precisely so restored rows are
        not re-journalled.
        """
        with self.write_txn():
            self._journal = journal

    def _journal_entry(self, entry: Dict) -> None:
        """Record one committed mutation; caller holds the write side."""
        if self._transaction is not None:
            self._txn_journal.append(entry)
        else:
            self._journal.append(entry)

    # -- concurrency ---------------------------------------------------------

    @contextmanager
    def read_view(self) -> Iterator["Database"]:
        """Shared read access: a stable database for scans and lookups.

        Reentrant (a reader may nest further read views), and a thread
        holding :meth:`write_txn` may open read views over its own
        uncommitted state.
        """
        self.rwlock.acquire_read()
        try:
            yield self
        finally:
            self.rwlock.release_read()

    @contextmanager
    def write_txn(self) -> Iterator["Database"]:
        """Exclusive write access; excludes readers and other writers.

        Reentrant for the owning thread, so statement execution may
        nest inside an explicit-transaction scope.
        """
        self.rwlock.acquire_write()
        try:
            yield self
        finally:
            self.rwlock.release_write()

    # -- transactions -------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True while an explicit transaction is open."""
        return self._transaction is not None

    def begin(self) -> None:
        """Open an explicit transaction (no nesting)."""
        with self.write_txn():
            if self._transaction is not None:
                raise TransactionError("a transaction is already open")
            self._transaction = UndoLog()

    def commit(self) -> int:
        """Commit the open transaction; returns mutations kept."""
        with self.write_txn():
            if self._transaction is None:
                raise TransactionError("no transaction to commit")
            if self._journal is not None and self._txn_journal:
                # One append batch (one fsync) for the whole transaction;
                # only committed statements ever reach the journal. The
                # effects are kept only once it is durable: a failed
                # append rolls the transaction back and ends it.
                try:
                    self._journal.append_many(self._txn_journal)
                except Exception:
                    self._transaction.rollback()
                    self._transaction = None
                    self._txn_journal = []
                    raise
            count = self._transaction.commit()
            self._transaction = None
            self._txn_journal = []
            if count > 0:
                # One epoch bump for the whole transaction: its effects
                # become visible atomically at COMMIT.
                self._advance_mutation_epoch()
            return count

    def rollback(self) -> int:
        """Roll back the open transaction; returns mutations undone."""
        with self.write_txn():
            if self._transaction is None:
                raise TransactionError("no transaction to roll back")
            count = self._transaction.rollback()
            self._transaction = None
            self._txn_journal = []
            return count

    # -- statement execution ---------------------------------------------

    def execute(
        self,
        sql_or_statement: Union[str, object],
        source: Optional[str] = None,
        tracked: bool = False,
    ) -> ResultSet:
        """Execute one SQL string or pre-parsed statement.

        SELECT and EXPLAIN run under the shared read side of the engine
        lock, so any number of them proceed in parallel; everything
        else (DML, DDL, transaction control) takes the exclusive write
        side. DML statements are atomic: a statement that fails
        part-way (e.g. a multi-row INSERT hitting a duplicate key)
        leaves no effects. Inside an explicit transaction its effects
        are instead queued for COMMIT/ROLLBACK. DDL is rejected inside
        transactions.

        Args:
            source: the SQL text a pre-parsed statement came from. Only
                needed when a journal is attached — the journal records
                statements as text — and ignored for reads. Callers
                passing SQL text directly never need it.
            tracked: mark the journal record as having passed through
                the delay guard. On recovery, only tracked statements
                re-feed the guard's update trackers — replaying an
                operator's direct engine write into them would invent
                tracker state the live run never had.
        """
        fire("engine.execute")
        statement = (
            parse_cached(sql_or_statement)
            if isinstance(sql_or_statement, str)
            else sql_or_statement
        )
        if isinstance(sql_or_statement, str):
            source = sql_or_statement
        if isinstance(statement, TransactionStatement):
            with self.write_txn():
                return self._execute_transaction_control(statement)
        if isinstance(statement, ExplainStatement):
            with self.read_view():
                return self._execute_explain(statement)
        if isinstance(statement, SelectStatement):
            with self.read_view():
                started = time.perf_counter()
                result = self.executor.execute(statement)
                self.stats.record(result, time.perf_counter() - started)
                return result
        with self.write_txn():
            return self._execute_write(statement, source, tracked)

    def _execute_write(
        self,
        statement,
        source: Optional[str] = None,
        tracked: bool = False,
    ) -> ResultSet:
        """Run a mutating statement; caller holds the write side."""
        if self._transaction is not None and isinstance(
            statement,
            (CreateTableStatement, CreateIndexStatement, DropTableStatement),
        ):
            raise TransactionError(
                "DDL is not transactional; COMMIT or ROLLBACK first"
            )
        scope = self._statement_scope(statement)
        started = time.perf_counter()
        try:
            result = self.executor.execute(statement)
            # Journal before keeping the effects: a statement whose
            # append fails is undone, so the engine never holds a write
            # that neither the journal nor the mutation epoch saw.
            self._journal_statement(result, source, tracked)
        except Exception:
            if scope is not None:
                scope.rollback()
            raise
        if scope is not None:
            if self._transaction is not None:
                scope.merge_into(self._transaction)
            else:
                scope.commit()
        if self._transaction is None and (
            result.statement_kind == "ddl" or result.rowcount > 0
        ):
            # Zero-row DML changed nothing — the journal skips it and
            # caches keyed on the old epoch stay exactly correct.
            self._advance_mutation_epoch()
        self.stats.record(result, time.perf_counter() - started)
        return result

    def _journal_statement(
        self, result: ResultSet, source: Optional[str], tracked: bool = False
    ) -> None:
        """Append a committed statement to the journal, if one is attached.

        DML that affected zero rows is skipped (replay would be a
        no-op); DDL is always recorded. Raises
        :class:`~repro.engine.errors.JournalError` for a pre-parsed
        statement without its SQL text — silently skipping it would make
        recovery diverge.
        """
        if self._journal is None:
            return
        if result.statement_kind != "ddl" and result.rowcount == 0:
            return
        if source is None:
            raise JournalError(
                "cannot journal a pre-parsed statement without its SQL "
                "text; pass execute(..., source=sql)"
            )
        entry = {"k": "sql", "sql": source}
        if tracked:
            entry["g"] = True
        self._journal_entry(entry)

    def _statement_scope(self, statement):
        """An undo scope covering the statement's target table, if DML,
        or the catalog, if DDL (DESIGN §8: journal first, undo on
        failure)."""
        if isinstance(
            statement,
            (CreateTableStatement, CreateIndexStatement, DropTableStatement),
        ):
            return CatalogScope(self.catalog)
        if not isinstance(
            statement, (InsertStatement, UpdateStatement, DeleteStatement)
        ):
            return None
        if not self.catalog.has_table(statement.table):
            return None  # the executor will raise CatalogError
        scope = UndoLog()
        scope.attach(self.catalog.table(statement.table))
        return scope

    def _execute_explain(self, statement: ExplainStatement) -> ResultSet:
        """Describe the plan for the wrapped statement."""
        inner = statement.statement
        lines = []
        table_name = getattr(inner, "table", None)
        if table_name is None or not self.catalog.has_table(table_name):
            lines.append("NO PLAN (not a table statement)")
        else:
            table = self.catalog.table(table_name)
            where = getattr(inner, "where", None)
            joins = getattr(inner, "joins", ())
            if joins:
                lines.append(f"FULL SCAN {table.name}")
                for join in joins:
                    condition = join.condition
                    hash_joinable = (
                        isinstance(condition, Comparison)
                        and condition.op == "="
                        and isinstance(condition.left, ColumnRef)
                        and isinstance(condition.right, ColumnRef)
                    )
                    strategy = "HASH JOIN" if hash_joinable else "NESTED LOOP"
                    outer = "LEFT " if join.outer else ""
                    lines.append(
                        f"{outer}{strategy} {join.table} ON {condition}"
                    )
                if where is not None:
                    lines.append(f"FILTER {where}")
            else:
                path = choose_access_path(self.catalog, table, where)
                lines.append(path.describe())
            if getattr(inner, "group_by", ()):
                keys = ", ".join(str(key) for key in inner.group_by)
                lines.append(f"GROUP BY {keys}")
            if getattr(inner, "order_by", ()):
                lines.append("SORT")
        return ResultSet(
            columns=["plan"],
            rows=[(line,) for line in lines],
            statement_kind="ddl",
        )

    def _execute_transaction_control(
        self, statement: TransactionStatement
    ) -> ResultSet:
        if statement.action == "begin":
            self.begin()
        elif statement.action == "commit":
            self.commit()
        else:
            self.rollback()
        return ResultSet(statement_kind="ddl")

    def query(self, sql: str) -> List[Tuple[SQLValue, ...]]:
        """Execute a SELECT and return just its rows."""
        return self.execute(sql).rows

    # -- schema helpers ------------------------------------------------------

    def create_table(self, schema: TableSchema) -> HeapTable:
        """Create a table from a pre-built schema object."""
        with self.write_txn():
            table = self.catalog.create_table(schema)
            if self._journal is not None:
                self._journal_entry(
                    {
                        "k": "schema",
                        "table": schema.name,
                        "columns": [c.to_dict() for c in schema.columns],
                    }
                )
            if self._transaction is None:
                self._advance_mutation_epoch()
            return table

    def table(self, name: str) -> HeapTable:
        """Direct access to a heap table (bypasses SQL)."""
        return self.catalog.table(name)

    def insert_rows(
        self, table_name: str, rows: Iterable[Sequence[SQLValue]]
    ) -> List[int]:
        """Bulk-insert positional rows without SQL parsing overhead.

        This is the fast path used when loading large synthetic datasets
        for benchmarks; it performs the same validation as INSERT, and
        — like INSERT — is atomic: a row failing validation part-way
        (e.g. a duplicate key) rolls back the whole batch, so the heap
        never holds, and the journal never records, a partial load.
        """
        materialized = [list(row) for row in rows]
        with self.write_txn():
            table = self.catalog.table(table_name)
            scope = UndoLog()
            scope.attach(table)
            try:
                rowids = [table.insert(row) for row in materialized]
                if self._journal is not None and materialized:
                    self._journal_entry(
                        {
                            "k": "rows",
                            "table": table_name,
                            "rows": materialized,
                        }
                    )
            except Exception:
                scope.rollback()
                raise
            if self._transaction is not None:
                scope.merge_into(self._transaction)
            else:
                scope.commit()
            if self._transaction is None and materialized:
                self._advance_mutation_epoch()
            return rowids

    # -- introspection --------------------------------------------------------

    def explain(self, sql: str) -> str:
        """Return the access path a SELECT/UPDATE/DELETE would use."""
        statement = parse(sql)
        where = getattr(statement, "where", None)
        table_name = getattr(statement, "table", None)
        with self.read_view():
            if table_name is None or not self.catalog.has_table(table_name):
                return "NO PLAN (not a table statement)"
            table = self.catalog.table(table_name)
            path = choose_access_path(self.catalog, table, where)
            return path.describe()

    def row_count(self, table_name: str) -> int:
        """Number of rows currently in a table."""
        with self.read_view():
            return len(self.catalog.table(table_name))

    def __repr__(self) -> str:
        tables = ", ".join(self.catalog.table_names()) or "<empty>"
        return f"Database(tables=[{tables}])"
