"""Statement execution against a catalog.

The executor consumes parsed statements, uses the planner for access-path
selection, and produces :class:`ResultSet` objects. Result sets carry the
base-table rows that contributed to the result — the hook the delay
layer uses to charge per-tuple delays and maintain popularity counts
without modifying the engine. For joined queries, ``touched`` lists
every contributing ``(table, rowid)`` pair across all joined tables.

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
        execution_path: which engine path produced this result —
            "classic" (row-at-a-time), "vectorized", or "cached"
            (thawed from the result cache). Observability only; never
            affects content.
    """

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[SQLValue, ...]] = field(default_factory=list)
    rowids: List[int] = field(default_factory=list)
    touched: List[Touched] = field(default_factory=list)
    table: Optional[str] = None
    rowcount: int = 0
    statement_kind: str = "select"
    execution_path: str = "classic"

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

    def _collect_contexts(self, statement: SelectStatement) -> List[Context]:
        """Produce joined row contexts for a SELECT."""
        from .planner import candidate_rowids, choose_access_path

        sources = self._select_sources(statement)
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
        contexts = self._collect_contexts(statement)
        has_aggregate = any(item.aggregate for item in statement.items)

        if statement.group_by:
            return self._grouped_result(statement, contexts)
        if has_aggregate:
            return self._aggregate_result(statement, contexts)

        if statement.order_by:
            contexts = self._sorted(contexts, statement.order_by)

        sources = self._select_sources(statement)
        columns = self._output_columns(statement, sources)
        projected: List[Tuple[Tuple[Touched, ...], Tuple[SQLValue, ...]]] = []
        for touched, context in contexts:
            projected.append(
                (touched, self._project(statement, sources, context))
            )

        if statement.distinct:
            seen = set()
            unique = []
            for touched, row in projected:
                key = tuple(sort_key(value) for value in row)
                if key not in seen:
                    seen.add(key)
                    unique.append((touched, row))
            projected = unique

        offset = statement.offset or 0
        if offset:
            projected = projected[offset:]
        if statement.limit is not None:
            projected = projected[: statement.limit]

        driving = self.catalog.table(statement.table)
        return ResultSet(
            columns=columns,
            rows=[row for _, row in projected],
            rowids=[
                rowid
                for touched, _ in projected
                for name, rowid in touched[:1]
            ],
            touched=[
                pair for touched, _ in projected for pair in touched
            ],
            table=driving.name,
            rowcount=len(projected),
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

    def _project(
        self,
        statement: SelectStatement,
        sources: List[Tuple[HeapTable, str]],
        context: Dict[str, SQLValue],
    ) -> Tuple[SQLValue, ...]:
        values: List[SQLValue] = []
        for item in statement.items:
            if item.star:
                for table, label in sources:
                    values.extend(
                        context[f"{label}.{column.name.lower()}"]
                        for column in table.schema.columns
                    )
            else:
                values.append(item.expression.evaluate(context))
        return tuple(values)

    def _sorted(
        self, contexts: List[Context], order_by: Sequence[OrderItem]
    ) -> List[Context]:
        result = list(contexts)
        for item in reversed(order_by):
            result.sort(
                key=lambda pair: sort_key(item.expression.evaluate(pair[1])),
                reverse=item.descending,
            )
        return result

    # -- aggregates -------------------------------------------------------------

    def _aggregate_result(
        self, statement: SelectStatement, contexts: List[Context]
    ) -> ResultSet:
        for item in statement.items:
            if not item.aggregate:
                raise ExecutionError(
                    "mixing aggregates with plain columns requires GROUP BY"
                )
        columns: List[str] = []
        values: List[SQLValue] = []
        for item in statement.items:
            columns.append(item.alias or self._aggregate_label(item))
            values.append(self._compute_aggregate(item, contexts))
        rows = [tuple(values)]
        rowids = [
            rowid for touched, _ in contexts for _name, rowid in touched[:1]
        ]
        touched = [pair for group, _ in contexts for pair in group]
        # LIMIT/OFFSET must trim rowids/touched consistently with rows
        # (the plain and grouped paths already do): an aggregate row
        # dropped by OFFSET or LIMIT 0 was never served, so its
        # contributing tuples must not be charged or recorded.
        offset = statement.offset or 0
        if offset:
            rows = rows[offset:]
        if statement.limit is not None:
            rows = rows[: statement.limit]
        if not rows:
            rowids = []
            touched = []
        return ResultSet(
            columns=columns,
            rows=rows,
            rowids=rowids,
            touched=touched,
            table=statement.table,
            rowcount=len(rows),
            statement_kind="select",
        )

    def _grouped_result(
        self, statement: SelectStatement, contexts: List[Context]
    ) -> ResultSet:
        for item in statement.items:
            if item.star:
                raise ExecutionError("SELECT * is not valid with GROUP BY")
        groups: Dict[Tuple, List[Context]] = {}
        order: List[Tuple] = []
        for context in contexts:
            key = tuple(
                sort_key(expression.evaluate(context[1]))
                for expression in statement.group_by
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(context)

        columns: List[str] = [
            item.alias
            or (
                self._aggregate_label(item)
                if item.aggregate
                else str(item.expression)
            )
            for item in statement.items
        ]

        rows: List[Tuple[SQLValue, ...]] = []
        row_touched: List[List[Touched]] = []
        for key in order:
            members = groups[key]
            first_context = members[0][1]
            values: List[SQLValue] = []
            for item in statement.items:
                if item.aggregate:
                    values.append(self._compute_aggregate(item, members))
                else:
                    values.append(item.expression.evaluate(first_context))
            if statement.having is not None:
                having_context = self._having_context(
                    statement, columns, values, first_context
                )
                if not predicate_holds(statement.having, having_context):
                    continue
            rows.append(tuple(values))
            row_touched.append(
                [pair for touched, _ in members for pair in touched]
            )

        combined = list(zip(rows, row_touched))
        if statement.order_by:
            combined = self._sort_grouped(combined, columns, statement)

        offset = statement.offset or 0
        if offset:
            combined = combined[offset:]
        if statement.limit is not None:
            combined = combined[: statement.limit]

        return ResultSet(
            columns=columns,
            rows=[row for row, _ in combined],
            rowids=[
                rowid
                for _, touched in combined
                for name, rowid in touched[:1]
            ],
            touched=[pair for _, touched in combined for pair in touched],
            table=statement.table,
            rowcount=len(combined),
            statement_kind="select",
        )

    def _sort_grouped(self, combined, columns, statement):
        """Stable multi-key ORDER BY over grouped output rows.

        Sort keys may reference select-list aliases or aggregate labels.
        """
        lowered = [column.lower() for column in columns]

        def context_of(row):
            return dict(zip(lowered, row))

        result = list(combined)
        for item in reversed(statement.order_by):
            result.sort(
                key=lambda pair: sort_key(
                    item.expression.evaluate(context_of(pair[0]))
                ),
                reverse=item.descending,
            )
        return result

    def _having_context(
        self, statement, columns, values, first_context
    ) -> Dict[str, SQLValue]:
        """Context for HAVING: group-row values by alias/label, plus the
        underlying first-row context for grouping columns."""
        context = dict(first_context)
        for column, value in zip(columns, values):
            context[column.lower()] = value
        return context

    @staticmethod
    def _aggregate_label(item: SelectItem) -> str:
        inner = "*" if item.expression is None else str(item.expression)
        prefix = "DISTINCT " if item.distinct else ""
        return f"{item.aggregate}({prefix}{inner})"

    @staticmethod
    def _compute_aggregate(
        item: SelectItem, contexts: List[Context]
    ) -> SQLValue:
        func = item.aggregate
        if func == "COUNT" and item.expression is None:
            return len(contexts)
        assert item.expression is not None
        observed = [
            item.expression.evaluate(context) for _, context in contexts
        ]
        return Executor._aggregate_of_values(func, item.distinct, observed)

    @staticmethod
    def _aggregate_of_values(
        func: str, distinct: bool, observed: List[SQLValue]
    ) -> SQLValue:
        """Aggregate already-evaluated values.

        Shared by the classic and vectorized executors so both paths
        aggregate bit-identically — including Python's sequential
        ``sum`` order for SUM/AVG (numpy's pairwise summation rounds
        differently and must never be substituted here).
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

    def execute_update(self, statement: UpdateStatement) -> ResultSet:
        from .planner import candidate_rowids, choose_access_path

        subquery_touched: List[Touched] = []
        bound = self._bind_subqueries(statement.where, subquery_touched)
        if bound is not statement.where:
            from dataclasses import replace

            statement = replace(statement, where=bound)
        table = self.catalog.table(statement.table)
        schema = table.schema
        names = [c.name.lower() for c in schema.columns]
        positions = {
            column: schema.position(column)
            for column, _ in statement.assignments
        }
        path = choose_access_path(self.catalog, table, statement.where)
        # Materialize targets first: mutating during a scan is unsafe.
        targets: List[Tuple[int, Row]] = []
        for rowid in candidate_rowids(self.catalog, table, path):
            row = table.get(rowid)
            if row is None:
                continue
            if predicate_holds(statement.where, dict(zip(names, row))):
                targets.append((rowid, row))
        updated: List[int] = []
        for rowid, row in targets:
            context = dict(zip(names, row))
            new_row = list(row)
            for column, expression in statement.assignments:
                new_row[positions[column]] = expression.evaluate(context)
            table.update(rowid, new_row)
            updated.append(rowid)
        key = table.name.lower()
        return ResultSet(
            table=table.name,
            rowids=updated,
            touched=[(key, rowid) for rowid in updated],
            rowcount=len(updated),
            statement_kind="update",
        )

    def execute_delete(self, statement: DeleteStatement) -> ResultSet:
        from .planner import candidate_rowids, choose_access_path

        subquery_touched: List[Touched] = []
        bound = self._bind_subqueries(statement.where, subquery_touched)
        if bound is not statement.where:
            from dataclasses import replace

            statement = replace(statement, where=bound)
        table = self.catalog.table(statement.table)
        names = [c.name.lower() for c in table.schema.columns]
        path = choose_access_path(self.catalog, table, statement.where)
        targets: List[int] = []
        for rowid in candidate_rowids(self.catalog, table, path):
            row = table.get(rowid)
            if row is None:
                continue
            if predicate_holds(statement.where, dict(zip(names, row))):
                targets.append(rowid)
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
