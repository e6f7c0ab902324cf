"""The delay defense as a proxy over SQLite.

:class:`SQLiteDelayProxy` gives a real ``sqlite3`` database the paper's
front door: every SELECT is charged per returned tuple by popularity,
updates feed the update-rate tracker, and the §2.4 account limits apply
— all without touching the underlying schema (no count column is added;
counts live in the proxy, exactly as §2.3/§4.4 recommend via external
count storage).

The proxy hosts the same :class:`~repro.core.pipeline.QueryPipeline`
as the native guard (quota, result limit, pricing, recording, the one
sleep are that module's code) and swaps in one stage,
:class:`SQLiteExecuteStage`. The incoming SQL is parsed with this
library's own parser (so only its SQL subset is accepted — a real
deployment would fail closed on statements it cannot attribute). For a
SELECT, the stage runs a companion query ``SELECT rowid FROM <table>
[WHERE ...] [ORDER BY ...] [LIMIT ...]`` to learn exactly which rows the
user's query touches, then the user's original query for the results;
the pipeline charges and records those rowids. DML statements likewise
resolve their affected rowids first.

Stage order is the native guard's: parse precedes authorize, so a
statement that does not parse no longer spends the caller's quota.

Joins, GROUP BY and subqueries are rejected by the proxy (attribution
through SQLite would need rowid plumbing per table); the native engine
guard supports them.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.accounts import AccountManager
from ..core.clock import Clock, VirtualClock
from ..core.config import GuardConfig
from ..core.errors import ConfigError
from ..core.guard import GuardStats
from ..core.pipeline import ExecuteStage, PipelineHost, QueryContext
from ..engine.executor import ResultSet
from ..engine.parser.ast import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
)
from ..obs import Observability


@dataclass
class ProxyResult:
    """Result of a proxied statement."""

    rows: List[Tuple] = field(default_factory=list)
    columns: List[str] = field(default_factory=list)
    delay: float = 0.0
    rowids: List[int] = field(default_factory=list)
    rowcount: int = 0
    statement_kind: str = "select"


class SQLiteExecuteStage(ExecuteStage):
    """The proxy's execute stage: attribute rowids, then run ``sqlite3``."""

    def run(self, ctx: QueryContext) -> None:
        proxy = self.host
        statement, sql = ctx.statement, ctx.sql_or_statement
        connection = proxy.connection
        if isinstance(statement, SelectStatement):
            if statement.joins or statement.group_by:
                raise ConfigError(
                    "the SQLite proxy cannot attribute joins or GROUP BY; "
                    "use the native engine guard for those"
                )
            rowids = proxy._rowids_for(statement)
            cursor = connection.execute(sql)
            rows = cursor.fetchall()
            ctx.result = ResultSet(
                columns=[desc[0] for desc in cursor.description or []],
                rows=rows,
                rowids=rowids,
                table=statement.table,
                rowcount=len(rows),
            )
        elif isinstance(
            statement, (InsertStatement, UpdateStatement, DeleteStatement)
        ):
            inserting = isinstance(statement, InsertStatement)
            rowids = [] if inserting else proxy._rowids_for(statement)
            cursor = connection.execute(sql)
            connection.commit()
            if inserting:
                last = cursor.lastrowid or 0
                count = cursor.rowcount if cursor.rowcount > 0 else 1
                rowids = list(range(last - count + 1, last + 1))
            kind = type(statement).__name__.replace("Statement", "").lower()
            ctx.result = ResultSet(
                rowids=rowids,
                table=statement.table,
                rowcount=len(rowids),
                statement_kind=kind,
            )
        else:
            # DDL and transaction control pass straight through.
            connection.execute(sql)
            connection.commit()
            ctx.result = ResultSet(statement_kind="ddl")


class SQLiteDelayProxy(PipelineHost):
    """Wraps a ``sqlite3.Connection`` with the delay defense.

    Args:
        connection: an open sqlite3 connection (the proxy does not own
            it; close it yourself).
        config: guard configuration (same knobs as the native guard).
        clock: time source; virtual by default.
        accounts: optional §2.4 account manager.

    >>> import sqlite3
    >>> conn = sqlite3.connect(":memory:")
    >>> _ = conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    >>> _ = conn.execute("INSERT INTO t VALUES (1, 'x')")
    >>> proxy = SQLiteDelayProxy(conn, config=GuardConfig(cap=3.0))
    >>> result = proxy.execute("SELECT * FROM t WHERE id = 1")
    >>> (result.rows, result.delay)
    ([(1, 'x')], 3.0)
    """

    execute_stage = SQLiteExecuteStage

    def __init__(
        self,
        connection: sqlite3.Connection,
        config: Optional[GuardConfig] = None,
        clock: Optional[Clock] = None,
        accounts: Optional[AccountManager] = None,
    ):
        self.connection = connection
        self.config = (config if config is not None else GuardConfig()).validate()
        self.clock = clock if clock is not None else VirtualClock()
        self.accounts = accounts
        self.stats = GuardStats()
        self.obs = Observability.disabled()
        self._init_trackers()
        self._start_lifecycle()

    def population(self) -> int:
        """Total rows across all user tables in the SQLite database."""
        total = 0
        names = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        for (name,) in names:
            count = self.connection.execute(
                f'SELECT COUNT(*) FROM "{name}"'
            ).fetchone()
            total += count[0]
        return max(total, 1)

    # -- statement handling ----------------------------------------------------

    @staticmethod
    def _tail_sql(statement: SelectStatement) -> str:
        parts = []
        if statement.order_by:
            keys = ", ".join(
                f"{item.expression}{' DESC' if item.descending else ''}"
                for item in statement.order_by
            )
            parts.append(f" ORDER BY {keys}")
        if statement.limit is not None:
            parts.append(f" LIMIT {statement.limit}")
            if statement.offset is not None:
                parts.append(f" OFFSET {statement.offset}")
        return "".join(parts)

    def _rowids_for(self, statement) -> List[int]:
        """The rowids ``statement`` touches (the companion query)."""
        sql = f'SELECT rowid FROM "{statement.table}"'
        if statement.where:
            sql += f" WHERE {statement.where}"
        if isinstance(statement, SelectStatement) and not any(
            item.aggregate for item in statement.items
        ):
            sql += self._tail_sql(statement)
        return [row[0] for row in self.connection.execute(sql)]

    def execute(
        self,
        sql: str,
        identity: Optional[str] = None,
        record: bool = True,
        sleep: bool = True,
    ) -> ProxyResult:
        """Proxy one statement through the defense to SQLite.

        Raises :class:`~repro.engine.errors.ParseError` for SQL outside
        the supported subset and
        :class:`~repro.core.errors.ConfigError` for attributable-but-
        unsupported shapes (joins, GROUP BY, subqueries).
        """
        ctx = QueryContext(
            sql_or_statement=sql, identity=identity, record=record, sleep=sleep
        )
        self.pipeline.serve(ctx)
        result = ctx.result
        return ProxyResult(
            rows=result.rows,
            columns=result.columns,
            delay=ctx.delay,
            rowids=result.rowids,
            rowcount=result.rowcount,
            statement_kind=result.statement_kind,
        )

    # -- analysis --------------------------------------------------------------

    def delay_for(self, table: str, rowid: int) -> float:
        """Current delay for one tuple."""
        return self.policy.delay_for((table.lower(), rowid))

    def extraction_cost(self, table: str) -> float:
        """Total delay to extract ``table`` under current counts."""
        rowids = [
            row[0]
            for row in self.connection.execute(
                f'SELECT rowid FROM "{table}"'
            )
        ]
        key = table.lower()
        return sum(self.policy.delay_for((key, rowid)) for rowid in rowids)
