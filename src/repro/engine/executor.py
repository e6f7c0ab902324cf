"""Statement execution against a catalog.

The executor consumes parsed statements, uses the planner for access-path
selection, and produces :class:`ResultSet` objects. Result sets carry the
base-table rows that contributed to the result — the hook the delay
layer uses to charge per-tuple delays and maintain popularity counts
without modifying the engine. For joined queries, ``touched`` lists
every contributing ``(table, rowid)`` pair across all joined tables.

A SELECT runs in two halves. A row source (scan, filter, join) yields
working rows; :meth:`Executor._shape` turns them into the result:
projection, DISTINCT, aggregates, GROUP BY/HAVING, ORDER BY,
LIMIT/OFFSET and the ``rowids``/``touched`` lists. The shaper is the
only code that decides what a statement is charged for, and every
executor tier runs it: a tier supplies its own row source and a reader
for its working rows (:class:`ContextReader` here, the columnar tier's
``PositionReader`` in :mod:`.vectorized.executor`). UPDATE and DELETE
take their targets from the same tier's single-table row source.

This module's :class:`Executor` is the row-at-a-time tier. It serves
nothing by default — the columnar
:class:`~repro.engine.vectorized.executor.VectorizedExecutor` runs every
statement — and stays as the reference the equivalence tests and the
benchmark's oracle compare against
(``GuardConfig(vectorized_execution=False)``).

Concurrency audit: the executor is stateless between calls (it holds
only the catalog reference), and the whole SELECT path — planning,
subquery binding, scans, joins, aggregation — allocates its intermediate
state per call and never writes through to tables, indexes, or the
catalog. Concurrent SELECTs under the engine's shared read lock are
therefore safe; the mutating handlers (``execute_insert`` etc.) run only
under the exclusive write side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import Catalog
from .errors import CatalogError, ExecutionError
from .expr import (
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    InSet,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Logical,
    Negate,
    Not,
    ScalarSubquery,
    predicate_holds,
)
from .parser.ast import (
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
    UpdateStatement,
)
from .schema import TableSchema
from .table import HeapTable, Row
from .types import SQLValue, sort_key

#: A contributing base row: (lower-cased table name, rowid).
Touched = Tuple[str, int]

#: A working row during SELECT execution: the base rows it came from,
#: plus the name->value evaluation context.
Context = Tuple[Tuple[Touched, ...], Dict[str, SQLValue]]


@dataclass
class ResultSet:
    """The result of executing one statement.

    Attributes:
        columns: output column names, in order.
        rows: output rows as tuples.
        rowids: base-table rowids of the *driving* table that
            contributed to the output (one per output row for a plain
            SELECT, after LIMIT/OFFSET; every matching rowid for
            aggregates; affected rowids for DML).
        touched: every contributing (table, rowid) pair, across joins.
            For single-table statements this mirrors ``rowids``.
        table: name of the driving base table, if any.
        rowcount: rows affected, for DML statements.
        statement_kind: "select" | "insert" | "update" | "delete" | "ddl".
        execution_path: which tier served a SELECT — "vectorized"
            (columnar), "classic" (the row-at-a-time reference tier),
            or "cached" (thawed from the result cache); None for every
            other statement. Observability only; never affects content.
    """

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[SQLValue, ...]] = field(default_factory=list)
    rowids: List[int] = field(default_factory=list)
    touched: List[Touched] = field(default_factory=list)
    table: Optional[str] = None
    rowcount: int = 0
    statement_kind: str = "select"
    execution_path: Optional[str] = None

    def scalar(self) -> SQLValue:
        """Return the single value of a 1×1 result (or raise)."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.rows[0]) if self.rows else 0}"
            )
        return self.rows[0][0]

    def column(self, name: str) -> List[SQLValue]:
        """Return one output column as a list."""
        try:
            position = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"no result column {name!r}") from None
        return [row[position] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, SQLValue]]:
        """Return rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class ContextReader:
    """The classic tier's reader for :meth:`Executor._shape`.

    A working row is a ``(touched, context)`` pair: the base rows it came
    from, driving table first, and the merged name->value dict of their
    fragments.
    """

    def __init__(self, sources: List[Tuple[HeapTable, str]]):
        self._sources = sources
        self._star_keys: Optional[List[str]] = None

    @staticmethod
    def evaluator(expression: Expression):
        evaluate = expression.evaluate
        return lambda row: evaluate(row[1])

    def star(self, row: Context) -> Tuple[SQLValue, ...]:
        if self._star_keys is None:
            self._star_keys = [
                f"{label}.{column.name.lower()}"
                for table, label in self._sources
                for column in table.schema.columns
            ]
        context = row[1]
        return tuple([context[key] for key in self._star_keys])

    @staticmethod
    def context(row: Context) -> Dict[str, SQLValue]:
        return row[1]

    @staticmethod
    def rowids(rows: List[Context]) -> List[int]:
        return [touched[0][1] for touched, _ in rows]

    @staticmethod
    def touched(rows: List[Context]) -> List[Touched]:
        return [pair for touched, _ in rows for pair in touched]


class Executor:
    """Executes parsed statements against a :class:`Catalog`."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- dispatch ---------------------------------------------------------

    def execute(self, statement) -> ResultSet:
        """Execute any supported statement AST node."""
        if isinstance(statement, SelectStatement):
            return self.execute_select(statement)
        if isinstance(statement, InsertStatement):
            return self.execute_insert(statement)
        if isinstance(statement, UpdateStatement):
            return self.execute_update(statement)
        if isinstance(statement, DeleteStatement):
            return self.execute_delete(statement)
        if isinstance(statement, CreateTableStatement):
            return self.execute_create_table(statement)
        if isinstance(statement, CreateIndexStatement):
            return self.execute_create_index(statement)
        if isinstance(statement, DropTableStatement):
            return self.execute_drop_table(statement)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    # -- subquery binding ---------------------------------------------------

    def _bind_subqueries(
        self,
        expression: Optional[Expression],
        extra_touched: List[Touched],
    ) -> Optional[Expression]:
        """Replace subquery nodes with their evaluated results.

        Subqueries are uncorrelated: each runs exactly once, here. The
        tuples they read are appended to ``extra_touched`` so the delay
        layer charges them like any other retrieval.
        """
        if expression is None:
            return None
        if isinstance(expression, ScalarSubquery):
            result = self.execute_select(expression.select)
            extra_touched.extend(result.touched)
            if len(result.columns) != 1:
                raise ExecutionError(
                    "scalar subquery must return exactly one column"
                )
            if len(result.rows) > 1:
                raise ExecutionError(
                    "scalar subquery returned more than one row"
                )
            value = result.rows[0][0] if result.rows else None
            return Literal(value)
        if isinstance(expression, InSubquery):
            result = self.execute_select(expression.select)
            extra_touched.extend(result.touched)
            if len(result.columns) != 1:
                raise ExecutionError(
                    "IN-subquery must return exactly one column"
                )
            values = tuple(row[0] for row in result.rows)
            return InSet(
                operand=self._bind_subqueries(
                    expression.operand, extra_touched
                ),
                values=tuple(v for v in values if v is not None),
                negated=expression.negated,
                contains_null=any(v is None for v in values),
            )
        bind = lambda child: self._bind_subqueries(child, extra_touched)
        if isinstance(expression, Comparison):
            return Comparison(
                expression.op, bind(expression.left), bind(expression.right)
            )
        if isinstance(expression, Arithmetic):
            return Arithmetic(
                expression.op, bind(expression.left), bind(expression.right)
            )
        if isinstance(expression, Logical):
            return Logical(
                expression.op, bind(expression.left), bind(expression.right)
            )
        if isinstance(expression, Not):
            return Not(bind(expression.operand))
        if isinstance(expression, Negate):
            return Negate(bind(expression.operand))
        if isinstance(expression, IsNull):
            return IsNull(bind(expression.operand), expression.negated)
        if isinstance(expression, InList):
            return InList(
                bind(expression.operand),
                tuple(bind(item) for item in expression.items),
                expression.negated,
            )
        if isinstance(expression, Between):
            return Between(
                bind(expression.operand),
                bind(expression.low),
                bind(expression.high),
                expression.negated,
            )
        if isinstance(expression, Like):
            return Like(
                bind(expression.operand),
                bind(expression.pattern),
                expression.negated,
            )
        return expression  # Literal, ColumnRef, InSet: nothing to bind

    # -- SELECT: row sourcing ----------------------------------------------

    @staticmethod
    def _fragment(
        table: HeapTable,
        label: str,
        row: Optional[Row],
        shared: frozenset,
    ) -> Dict[str, SQLValue]:
        """Build the context fragment one base row contributes.

        Keys: ``label.col`` always; bare ``col`` only when the name is
        not shared with another table in the FROM clause (shared names
        must be qualified, as in standard SQL).
        """
        fragment: Dict[str, SQLValue] = {}
        for position, column in enumerate(table.schema.columns):
            name = column.name.lower()
            value = row[position] if row is not None else None
            fragment[f"{label}.{name}"] = value
            if name not in shared:
                fragment[name] = value
        return fragment

    def _select_sources(
        self, statement: SelectStatement
    ) -> List[Tuple[HeapTable, str]]:
        """All (table, label) pairs in FROM order; labels lower-cased."""
        driving = self.catalog.table(statement.table)
        sources = [
            (driving, (statement.table_alias or driving.name).lower())
        ]
        for join in statement.joins:
            table = self.catalog.table(join.table)
            sources.append((table, (join.alias or table.name).lower()))
        labels = [label for _, label in sources]
        if len(set(labels)) != len(labels):
            raise ExecutionError(
                f"duplicate table alias in FROM clause: {labels}"
            )
        return sources

    def _shared_columns(
        self, sources: List[Tuple[HeapTable, str]]
    ) -> frozenset:
        seen: Dict[str, int] = {}
        for table, _label in sources:
            for column in table.schema.columns:
                name = column.name.lower()
                seen[name] = seen.get(name, 0) + 1
        return frozenset(name for name, count in seen.items() if count > 1)

    def _collect_contexts(
        self, statement: SelectStatement, sources: List[Tuple[HeapTable, str]]
    ) -> List[Context]:
        """Produce joined row contexts for a SELECT (or, single-table,
        for an UPDATE/DELETE's WHERE)."""
        from .planner import candidate_rowids, choose_access_path

        shared = self._shared_columns(sources)
        driving, driving_label = sources[0]
        driving_key = driving.name.lower()

        # Driving table: use the planner only for single-table selects
        # (join predicates reference other tables, so path matching on
        # the WHERE clause is only safe without joins).
        if statement.joins:
            rowids = driving.rowids()
        else:
            path = choose_access_path(self.catalog, driving, statement.where)
            rowids = candidate_rowids(self.catalog, driving, path)

        contexts: List[Context] = []
        for rowid in rowids:
            row = driving.get(rowid)
            if row is None:
                continue
            contexts.append(
                (
                    ((driving_key, rowid),),
                    self._fragment(driving, driving_label, row, shared),
                )
            )

        for join, (table, label) in zip(statement.joins, sources[1:]):
            contexts = self._apply_join(contexts, join, table, label, shared)

        if statement.where is not None:
            contexts = [
                context
                for context in contexts
                if predicate_holds(statement.where, context[1])
            ]
        return contexts

    def _apply_join(
        self,
        contexts: List[Context],
        join: JoinClause,
        table: HeapTable,
        label: str,
        shared: frozenset,
    ) -> List[Context]:
        table_key = table.name.lower()
        right_rows: List[Tuple[Touched, Dict[str, SQLValue]]] = [
            ((table_key, rowid), self._fragment(table, label, row, shared))
            for rowid, row in table.scan()
        ]
        null_fragment = self._fragment(table, label, None, shared)

        # Hash-join fast path: ON is `left_col = right_col` where one
        # side resolves against the left contexts and the other against
        # the joined table's fragment.
        equi = self._equi_join_keys(join.condition, contexts, right_rows)
        result: List[Context] = []
        if equi is not None:
            left_key, right_key = equi
            buckets: Dict[SQLValue, List[Tuple[Touched, Dict[str, SQLValue]]]]
            buckets = {}
            for touched, fragment in right_rows:
                value = fragment[right_key]
                if value is None:
                    continue
                buckets.setdefault(value, []).append((touched, fragment))
            for touched, context in contexts:
                value = context.get(left_key)
                matches = buckets.get(value, []) if value is not None else []
                for right_touched, fragment in matches:
                    result.append(
                        (touched + (right_touched,), {**context, **fragment})
                    )
                if not matches and join.outer:
                    result.append((touched, {**context, **null_fragment}))
            return result

        # General nested-loop join.
        for touched, context in contexts:
            matched = False
            for right_touched, fragment in right_rows:
                merged = {**context, **fragment}
                if predicate_holds(join.condition, merged):
                    result.append((touched + (right_touched,), merged))
                    matched = True
            if not matched and join.outer:
                result.append((touched, {**context, **null_fragment}))
        return result

    @staticmethod
    def _equi_join_keys(
        condition: Expression,
        contexts: List[Context],
        right_rows: List[Tuple[Touched, Dict[str, SQLValue]]],
    ) -> Optional[Tuple[str, str]]:
        if not isinstance(condition, Comparison) or condition.op != "=":
            return None
        if not isinstance(condition.left, ColumnRef) or not isinstance(
            condition.right, ColumnRef
        ):
            return None
        if not contexts or not right_rows:
            return None
        left_keys = contexts[0][1]
        right_keys = right_rows[0][1]
        a = condition.left.name.lower()
        b = condition.right.name.lower()
        if a in left_keys and b in right_keys and b not in left_keys:
            return a, b
        if b in left_keys and a in right_keys and a not in left_keys:
            return b, a
        return None

    # -- SELECT: shaping ------------------------------------------------------

    def execute_select(self, statement: SelectStatement) -> ResultSet:
        # Bind any WHERE/HAVING subqueries first; the tuples they read
        # are prepended to the final result's `touched` list.
        subquery_touched: List[Touched] = []
        bound_where = self._bind_subqueries(statement.where, subquery_touched)
        bound_having = self._bind_subqueries(
            statement.having, subquery_touched
        )
        if (
            bound_where is not statement.where
            or bound_having is not statement.having
        ):
            from dataclasses import replace

            statement = replace(
                statement, where=bound_where, having=bound_having
            )
        result = self._execute_bound_select(statement)
        if subquery_touched:
            result.touched = subquery_touched + result.touched
        return result

    def _execute_bound_select(self, statement: SelectStatement) -> ResultSet:
        sources = self._select_sources(statement)
        contexts = self._collect_contexts(statement, sources)
        reader = ContextReader(sources)
        result = self._shape(statement, sources, reader, contexts)
        result.execution_path = "classic"
        return result

    def _shape(
        self, statement: SelectStatement, sources, reader, rows
    ) -> ResultSet:
        """The post-scan half of SELECT, shared by every executor tier.

        ``rows`` are the tier's working rows after scan, join and WHERE,
        in the order the row source produced them. ``reader`` reads them:
        ``evaluator(expr)`` returns a per-row evaluator, ``star(row)`` the
        values of every FROM column, ``context(row)`` the row's full
        name->value dict (HAVING and grouped plain items see it),
        ``rowids(rows)`` the driving table's rowid per row, and
        ``touched(rows)`` every contributing ``(table, rowid)`` pair.

        Each output row keeps the working rows it was built from, so
        LIMIT/OFFSET trims ``rowids`` and ``touched`` with ``rows``: a
        row the client never receives is neither charged nor recorded.
        ``rowids`` holds one rowid per output row (a group's is its first
        member's), except for a global aggregate, which lists every
        aggregated row.
        """
        items = statement.items
        grouped = bool(statement.group_by)
        aggregated = grouped or any(item.aggregate for item in items)
        if grouped and any(item.star for item in items):
            raise ExecutionError("SELECT * is not valid with GROUP BY")
        if aggregated and not grouped and not all(
            item.aggregate for item in items
        ):
            raise ExecutionError(
                "mixing aggregates with plain columns requires GROUP BY"
            )
        columns = self._output_columns(statement, sources)

        if grouped:
            shaped = self._grouped(statement, reader, rows, columns)
            if statement.order_by:
                # grouped ORDER BY sees select-list aliases and labels
                lowered = [column.lower() for column in columns]
                shaped = self._ordered(
                    shaped,
                    statement.order_by,
                    [
                        lambda entry, expression=item.expression: (
                            expression.evaluate(dict(zip(lowered, entry[0])))
                        )
                        for item in statement.order_by
                    ],
                )
        elif aggregated:
            aggregates = self._aggregators(items, reader)
            shaped = [
                (tuple(aggregate(rows) for aggregate in aggregates), rows)
            ]
        else:
            if statement.order_by:
                rows = self._ordered(
                    rows,
                    statement.order_by,
                    [
                        reader.evaluator(item.expression)
                        for item in statement.order_by
                    ],
                )
            project = self._projector(items, reader)
            shaped = [(project(row), row) for row in rows]
            if statement.distinct:
                seen = set()
                unique = []
                for entry in shaped:
                    key = tuple(sort_key(value) for value in entry[0])
                    if key not in seen:
                        seen.add(key)
                        unique.append(entry)
                shaped = unique

        offset = statement.offset or 0
        if offset or statement.limit is not None:
            limit = statement.limit
            shaped = shaped[offset : None if limit is None else offset + limit]

        if aggregated:
            served = [row for _, members in shaped for row in members]
            leaders = (
                [members[0] for _, members in shaped] if grouped else served
            )
        else:
            served = leaders = [row for _, row in shaped]
        return ResultSet(
            columns=columns,
            rows=[values for values, _ in shaped],
            rowids=reader.rowids(leaders),
            touched=reader.touched(served),
            table=statement.table if aggregated else sources[0][0].name,
            rowcount=len(shaped),
            statement_kind="select",
        )

    def _output_columns(
        self,
        statement: SelectStatement,
        sources: List[Tuple[HeapTable, str]],
    ) -> List[str]:
        columns: List[str] = []
        for item in statement.items:
            if item.star:
                for table, _label in sources:
                    columns.extend(table.schema.column_names())
            elif item.alias:
                columns.append(item.alias)
            elif item.aggregate:
                columns.append(self._aggregate_label(item))
            else:
                columns.append(str(item.expression))
        return columns

    @staticmethod
    def _projector(items: Sequence[SelectItem], reader):
        if items[0].star:  # the grammar makes '*' the whole select list
            return reader.star
        evaluators = [reader.evaluator(item.expression) for item in items]
        return lambda row: tuple([evaluate(row) for evaluate in evaluators])

    @staticmethod
    def _ordered(entries, order_by: Sequence[OrderItem], evaluators):
        """Stable multi-key ORDER BY: one stable sort per key, last first."""
        result = list(entries)
        for item, evaluate in reversed(list(zip(order_by, evaluators))):
            result.sort(
                key=lambda entry: sort_key(evaluate(entry)),
                reverse=item.descending,
            )
        return result

    # -- aggregates -------------------------------------------------------------

    def _aggregators(self, items: Sequence[SelectItem], reader):
        """Per select item, a function from member rows to its aggregate
        value, or None for a plain item."""

        def aggregator(item: SelectItem):
            if item.aggregate == "COUNT" and item.expression is None:
                return len
            evaluate = reader.evaluator(item.expression)
            return lambda members: self._aggregate_of_values(
                item.aggregate,
                item.distinct,
                [evaluate(row) for row in members],
            )

        return [aggregator(item) if item.aggregate else None for item in items]

    def _grouped(self, statement: SelectStatement, reader, rows, columns):
        """``(values, members)`` per group that passes HAVING, in order of
        each group's first row."""
        by = [reader.evaluator(key) for key in statement.group_by]
        groups: Dict[Tuple, list] = {}
        for row in rows:
            key = tuple(sort_key(evaluate(row)) for evaluate in by)
            members = groups.get(key)
            if members is None:
                groups[key] = [row]
            else:
                members.append(row)

        items = statement.items
        parts = list(zip(self._aggregators(items, reader), items))
        having = statement.having
        needs_context = having is not None or not all(
            item.aggregate for item in items
        )
        lowered = [column.lower() for column in columns]
        shaped = []
        for members in groups.values():
            context = reader.context(members[0]) if needs_context else None
            values = tuple(
                aggregate(members)
                if aggregate is not None
                else item.expression.evaluate(context)
                for aggregate, item in parts
            )
            if having is not None:
                having_context = dict(context)
                having_context.update(zip(lowered, values))
                if not predicate_holds(having, having_context):
                    continue
            shaped.append((values, members))
        return shaped

    @staticmethod
    def _aggregate_label(item: SelectItem) -> str:
        inner = "*" if item.expression is None else str(item.expression)
        prefix = "DISTINCT " if item.distinct else ""
        return f"{item.aggregate}({prefix}{inner})"

    @staticmethod
    def _aggregate_of_values(
        func: str, distinct: bool, observed: List[SQLValue]
    ) -> SQLValue:
        """Aggregate already-evaluated values.

        SUM/AVG add in Python's sequential ``sum`` order. numpy's
        pairwise summation rounds differently, so a vectorised
        aggregate must never substitute it: results would stop being
        bit-identical to the row tier's.
        """
        observed = [value for value in observed if value is not None]
        if distinct:
            unique: List[SQLValue] = []
            seen = set()
            for value in observed:
                key = sort_key(value)
                if key not in seen:
                    seen.add(key)
                    unique.append(value)
            observed = unique
        if func == "COUNT":
            return len(observed)
        if not observed:
            return None
        if func == "MIN":
            return min(observed, key=sort_key)
        if func == "MAX":
            return max(observed, key=sort_key)
        for value in observed:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ExecutionError(f"{func} expects numeric values")
        if func == "SUM":
            return sum(observed)
        if func == "AVG":
            return sum(observed) / len(observed)
        raise ExecutionError(f"unknown aggregate {func!r}")

    # -- DML ------------------------------------------------------------------

    def execute_insert(self, statement: InsertStatement) -> ResultSet:
        table = self.catalog.table(statement.table)
        schema = table.schema
        inserted: List[int] = []
        for value_exprs in statement.rows:
            values = [expression.evaluate({}) for expression in value_exprs]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError(
                        f"INSERT specifies {len(statement.columns)} columns "
                        f"but {len(values)} values"
                    )
                row = schema.row_from_mapping(dict(zip(statement.columns, values)))
            else:
                row = schema.validate_row(values)
            inserted.append(table.insert(row))
        key = table.name.lower()
        return ResultSet(
            table=table.name,
            rowids=inserted,
            touched=[(key, rowid) for rowid in inserted],
            rowcount=len(inserted),
            statement_kind="insert",
        )

    def _write_targets(self, statement) -> Tuple[HeapTable, str, List[int]]:
        """An UPDATE's or DELETE's table, its label, and its targets.

        Binds the WHERE's subqueries (a write is charged for the rows it
        writes, not for what its subqueries read), then takes the target
        rowids from the tier's single-table row source: the one a SELECT
        with the same FROM and WHERE reads, in the planner's candidate
        order. The list is complete before the caller writes anything.
        """
        where = self._bind_subqueries(statement.where, [])
        select = SelectStatement(table=statement.table, items=(), where=where)
        source = self._select_sources(select)[0]
        return source[0], source[1], self._target_rowids(select, source)

    def _target_rowids(
        self, statement: SelectStatement, source: Tuple[HeapTable, str]
    ) -> List[int]:
        """The row tier's pick: the driving rowid of each context."""
        return ContextReader.rowids(self._collect_contexts(statement, [source]))

    def execute_update(self, statement: UpdateStatement) -> ResultSet:
        table, label, targets = self._write_targets(statement)
        schema = table.schema
        assignments = [
            (schema.position(column), expression)
            for column, expression in statement.assignments
        ]
        for rowid in targets:
            row = table.get(rowid)
            # SET sees the context a SELECT's WHERE sees: label.col and col
            context = self._fragment(table, label, row, frozenset())
            new_row = list(row)
            for position, expression in assignments:
                new_row[position] = expression.evaluate(context)
            table.update(rowid, new_row)
        key = table.name.lower()
        return ResultSet(
            table=table.name,
            rowids=targets,
            touched=[(key, rowid) for rowid in targets],
            rowcount=len(targets),
            statement_kind="update",
        )

    def execute_delete(self, statement: DeleteStatement) -> ResultSet:
        table, _label, targets = self._write_targets(statement)
        for rowid in targets:
            table.delete(rowid)
        key = table.name.lower()
        return ResultSet(
            table=table.name,
            rowids=targets,
            touched=[(key, rowid) for rowid in targets],
            rowcount=len(targets),
            statement_kind="delete",
        )

    # -- DDL ------------------------------------------------------------------

    def execute_create_table(self, statement: CreateTableStatement) -> ResultSet:
        schema = TableSchema(statement.table, list(statement.columns))
        self.catalog.create_table(schema, if_not_exists=statement.if_not_exists)
        return ResultSet(table=statement.table, statement_kind="ddl")

    def execute_create_index(self, statement: CreateIndexStatement) -> ResultSet:
        self.catalog.create_index(
            statement.name, statement.table, statement.column, statement.kind
        )
        return ResultSet(table=statement.table, statement_kind="ddl")

    def execute_drop_table(self, statement: DropTableStatement) -> ResultSet:
        dropped = self.catalog.drop_table(
            statement.table, if_exists=statement.if_exists
        )
        return ResultSet(
            table=statement.table,
            rowcount=1 if dropped else 0,
            statement_kind="ddl",
        )
