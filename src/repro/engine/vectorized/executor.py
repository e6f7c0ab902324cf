"""The vectorized SELECT executor.

:class:`VectorizedExecutor` subclasses the classic
:class:`~repro.engine.executor.Executor` and overrides only the bound
SELECT path. Instead of materialising a dict context per row, it works
over *positions* into each table's :class:`~repro.engine.vectorized.
columns.ColumnBatch` view, which only a writer holding the engine's
exclusive lock patches: a working row is a tuple of per-source
positions (``-1`` marks an outer-join null extension). Predicates
compile into batch evaluators (:mod:`.compiler`), equi-joins become
positional hash joins, and aggregation gathers value lists straight
from the column arrays.

Everything that is not provably reproducible raises
:class:`~repro.engine.vectorized.compiler.NotVectorizable` during
planning and the statement reruns on the inherited classic path — DML
and DDL never enter this module at all. The invariant is bit-identical
output: ``rows``, ``rowids``, and ``touched`` (values *and* order)
must equal the classic executor's, because the delay guard prices
queries, maintains popularity counts, and keys its result cache off
them. Every equivalence-relevant decision below mirrors a specific
classic code path and says which one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..catalog import Catalog
from ..errors import ExecutionError
from ..executor import Executor, ResultSet, Touched
from ..expr import ColumnRef, Comparison, Expression, predicate_holds
from ..parser.ast import SelectStatement
from ..types import SQLValue, sort_key
from .columns import HAVE_NUMPY, ColumnBatch
from .compiler import (
    NotVectorizable,
    SelView,
    SingleTableResolver,
    compile_filter,
)

if HAVE_NUMPY:
    import numpy as _np

#: A working row: one position per FROM source, -1 = outer-join null.
PosTuple = Tuple[int, ...]


class MultiView:
    """Compiler view over joined position tuples (see :class:`SelView`).

    Column indices are ``(source, column)`` pairs; gathers follow the
    per-source position of each tuple, yielding NULL for ``-1``
    (outer-join null extensions), exactly like the classic executor's
    null fragments.
    """

    __slots__ = ("batches", "tuples", "_np_idx")

    def __init__(self, batches: List[ColumnBatch], tuples: List[PosTuple]):
        self.batches = batches
        self.tuples = tuples
        self._np_idx: Dict[int, Tuple[object, object]] = {}

    @property
    def size(self) -> int:
        return len(self.tuples)

    def values(self, index) -> List[SQLValue]:
        source, column = index
        values = self.batches[source].columns[column]
        return [
            values[t[source]] if t[source] >= 0 else None
            for t in self.tuples
        ]

    def np_col(self, index):
        source, column = index
        values, nulls = self.batches[source].numpy_column(column)
        if values is None:
            return (None, None)
        positions, missing = self._positions(source)
        return (values[positions], nulls[positions] | missing)

    def _positions(self, source: int):
        cached = self._np_idx.get(source)
        if cached is None:
            raw = _np.fromiter(
                (t[source] for t in self.tuples),
                dtype=_np.intp,
                count=len(self.tuples),
            )
            missing = raw < 0
            cached = (_np.where(missing, 0, raw), missing)
            self._np_idx[source] = cached
        return cached


class MultiResolver:
    """Resolve column names to ``(source, column)`` across all sources."""

    def __init__(self, key_map: Dict[str, Tuple[int, int]], batches):
        self._key_map = key_map
        self._batches = batches

    def resolve(self, name: str):
        entry = self._key_map.get(name.lower())
        if entry is None:
            raise NotVectorizable(f"unresolvable column {name!r}")
        source, column = entry
        return entry, self._batches[source].dtypes[column]


class VectorizedExecutor(Executor):
    """Columnar SELECT execution with classic fallback."""

    def __init__(self, catalog: Catalog):
        super().__init__(catalog)
        #: dispatch counters, surfaced by the guard's observability.
        self.path_counts: Dict[str, int] = {"vectorized": 0, "classic": 0}

    # -- dispatch -----------------------------------------------------------

    def _execute_bound_select(self, statement: SelectStatement) -> ResultSet:
        try:
            result = self._vector_select(statement)
        except NotVectorizable:
            result = super()._execute_bound_select(statement)
            result.execution_path = "classic"
            self.path_counts["classic"] += 1
            return result
        result.execution_path = "vectorized"
        self.path_counts["vectorized"] += 1
        return result

    # -- planning -----------------------------------------------------------

    def _vector_select(self, statement: SelectStatement) -> ResultSet:
        # Source resolution raises the same CatalogError /
        # ExecutionError the classic path would (shared methods).
        sources = self._select_sources(statement)
        shared = self._shared_columns(sources)
        batches = [table.column_batch() for table, _ in sources]
        # name -> (source, column): the static image of the classic
        # executor's merged fragment keys (label.col always, bare col
        # only when unshared; labels are unique so keys never collide).
        key_map: Dict[str, Tuple[int, int]] = {}
        for source_index, ((_table, label), batch) in enumerate(
            zip(sources, batches)
        ):
            for column_index, name in enumerate(batch.column_names):
                key_map[f"{label}.{name}"] = (source_index, column_index)
                if name not in shared:
                    key_map[name] = (source_index, column_index)

        if statement.joins:
            tuples = self._joined_tuples(statement, sources, batches, key_map)
            if statement.where is not None:
                batch_filter = compile_filter(
                    statement.where, MultiResolver(key_map, batches)
                )
                mask = batch_filter(MultiView(batches, tuples))
                tuples = [tuples[i] for i in mask.true_positions()]
        else:
            tuples = self._single_table_tuples(
                statement, sources[0], batches[0]
            )

        if statement.group_by:
            return self._vector_grouped(
                statement, sources, batches, key_map, shared, tuples
            )
        if any(item.aggregate for item in statement.items):
            return self._vector_aggregate(
                statement, sources, batches, key_map, tuples
            )
        return self._vector_plain(
            statement, sources, batches, key_map, tuples
        )

    # -- row sourcing ---------------------------------------------------------

    def _single_table_tuples(
        self,
        statement: SelectStatement,
        source,
        batch: ColumnBatch,
    ) -> List[PosTuple]:
        """Filtered positions for a single-table SELECT.

        Uses the same planner access path as the classic executor, so
        candidate order (and therefore output order) is identical.
        """
        from ..planner import candidate_rowids, choose_access_path

        table, label = source
        path = choose_access_path(self.catalog, table, statement.where)
        if path.kind == "full_scan":
            # rowids() and the batch share scan order exactly.
            positions: Optional[List[int]] = None
        else:
            positions = []
            for rowid in candidate_rowids(self.catalog, table, path):
                position = batch.position_of(rowid)
                if position is not None:  # classic skips vanished rows
                    positions.append(position)

        if statement.where is None:
            selected = (
                list(range(len(batch))) if positions is None else positions
            )
            return [(p,) for p in selected]

        batch_filter = compile_filter(
            statement.where, SingleTableResolver(batch, label)
        )
        mask = batch_filter(SelView(batch, positions))
        hits = mask.true_positions()
        if positions is not None:
            hits = [positions[i] for i in hits]
        return [(p,) for p in hits]

    def _joined_tuples(
        self,
        statement: SelectStatement,
        sources,
        batches: List[ColumnBatch],
        key_map: Dict[str, Tuple[int, int]],
    ) -> List[PosTuple]:
        """Positional hash joins, replicating the classic join exactly.

        The classic `_apply_join` picks its hash path from the merged
        context keys at runtime; those key sets equal our static
        ``key_map`` prefixes, so the same statements hash-join here.
        Bucket lookups use a plain dict exactly like the classic path
        (so e.g. ``1`` and ``1.0`` share a bucket there and here).
        Conditions the classic path would nested-loop fall back
        entirely (NotVectorizable).
        """
        # Classic: joins drive off table.rowids() (full scan order).
        tuples: List[PosTuple] = [(p,) for p in range(len(batches[0]))]
        left_keys = {
            name
            for name, (source, _column) in key_map.items()
            if source == 0
        }
        for join_index, join in enumerate(statement.joins, start=1):
            batch = batches[join_index]
            right_keys = {
                name
                for name, (source, _column) in key_map.items()
                if source == join_index
            }
            equi = self._static_equi_keys(
                join.condition, left_keys, right_keys
            )
            if equi is None:
                raise NotVectorizable("non-equi join condition")
            left_name, right_name = equi
            left_source, left_column = key_map[left_name]
            right_column = key_map[right_name][1]
            left_values = batches[left_source].columns[left_column]
            right_values = batch.columns[right_column]

            buckets: Dict[SQLValue, List[int]] = {}
            for position, value in enumerate(right_values):
                if value is None:
                    continue
                buckets.setdefault(value, []).append(position)

            joined: List[PosTuple] = []
            for t in tuples:
                left_position = t[left_source]
                value = (
                    left_values[left_position] if left_position >= 0 else None
                )
                matches = (
                    buckets.get(value, []) if value is not None else []
                )
                for right_position in matches:
                    joined.append(t + (right_position,))
                if not matches and join.outer:
                    joined.append(t + (-1,))
            tuples = joined
            left_keys |= right_keys
        return tuples

    @staticmethod
    def _static_equi_keys(
        condition: Expression, left_keys, right_keys
    ) -> Optional[Tuple[str, str]]:
        """Static twin of the classic ``_equi_join_keys`` membership test.

        The classic check also returns None when either input is empty
        (falling to its nested loop) — but on an empty side both
        branches produce identical output, so resolving statically here
        is equivalence-preserving.
        """
        if not isinstance(condition, Comparison) or condition.op != "=":
            return None
        if not isinstance(condition.left, ColumnRef) or not isinstance(
            condition.right, ColumnRef
        ):
            return None
        a = condition.left.name.lower()
        b = condition.right.name.lower()
        if a in left_keys and b in right_keys and b not in left_keys:
            return a, b
        if b in left_keys and a in right_keys and a not in left_keys:
            return b, a
        return None

    # -- shared shaping helpers ------------------------------------------------

    def _touched_of(
        self, batches: List[ColumnBatch], t: PosTuple
    ) -> List[Touched]:
        """(table, rowid) pairs in source order; -1 contributes nothing
        (classic outer joins don't record the unmatched side)."""
        return [
            (batches[s].table_key, batches[s].rowids[p])
            for s, p in enumerate(t)
            if p >= 0
        ]

    def _evaluator(
        self,
        expression: Expression,
        key_map: Dict[str, Tuple[int, int]],
        batches: List[ColumnBatch],
    ) -> Callable[[PosTuple], SQLValue]:
        """Per-tuple evaluator over a minimal referenced-column context.

        Semantics (including error messages and evaluation order) come
        from ``Expression.evaluate`` itself; only context construction
        is narrowed. Unresolvable references fall back to classic,
        which reproduces the resolve-or-raise behaviour exactly.
        """
        if isinstance(expression, ColumnRef):
            entry = key_map.get(expression.name.lower())
            if entry is None:
                raise NotVectorizable(
                    f"unresolvable column {expression.name!r}"
                )
            source, column = entry
            values = batches[source].columns[column]

            def fast(t: PosTuple) -> SQLValue:
                position = t[source]
                return values[position] if position >= 0 else None

            return fast

        referenced: Dict[str, Tuple[int, int]] = {}
        for name in expression.columns():
            key = name.lower()
            if key in referenced:
                continue
            entry = key_map.get(key)
            if entry is None:
                raise NotVectorizable(f"unresolvable column {name!r}")
            referenced[key] = entry

        def run(t: PosTuple) -> SQLValue:
            context = {
                key: (
                    batches[source].columns[column][t[source]]
                    if t[source] >= 0
                    else None
                )
                for key, (source, column) in referenced.items()
            }
            return expression.evaluate(context)

        return run

    def _context_of(
        self, sources, batches: List[ColumnBatch], shared, t: PosTuple
    ) -> Dict[str, SQLValue]:
        """The full merged context dict of one tuple — byte-for-byte the
        classic executor's fragment union (for HAVING and grouped
        non-aggregate items, which may reference any column)."""
        context: Dict[str, SQLValue] = {}
        for source_index, ((_table, label), batch) in enumerate(
            zip(sources, batches)
        ):
            position = t[source_index]
            for column_index, name in enumerate(batch.column_names):
                value = (
                    batch.columns[column_index][position]
                    if position >= 0
                    else None
                )
                context[f"{label}.{name}"] = value
                if name not in shared:
                    context[name] = value
        return context

    def _sort_tuples(
        self,
        statement: SelectStatement,
        tuples: List[PosTuple],
        key_map,
        batches,
    ) -> List[PosTuple]:
        """ORDER BY via the classic reversed-stable-sort recipe."""
        evaluators = [
            self._evaluator(item.expression, key_map, batches)
            for item in statement.order_by
        ]
        result = list(tuples)
        for item, evaluate in reversed(
            list(zip(statement.order_by, evaluators))
        ):
            result.sort(
                key=lambda t: sort_key(evaluate(t)),
                reverse=item.descending,
            )
        return result

    # -- plain SELECT -----------------------------------------------------------

    def _vector_plain(
        self, statement, sources, batches, key_map, tuples
    ) -> ResultSet:
        if statement.order_by:
            tuples = self._sort_tuples(statement, tuples, key_map, batches)

        columns = self._output_columns(statement, sources)
        projectors: List[Tuple[str, object]] = []
        for item in statement.items:
            if item.star:
                gathers = []
                for source_index, ((_table, _label), batch) in enumerate(
                    zip(sources, batches)
                ):
                    for column_index in range(len(batch.column_names)):
                        gathers.append(
                            (source_index, batch.columns[column_index])
                        )
                projectors.append(("star", gathers))
            else:
                projectors.append(
                    (
                        "expr",
                        self._evaluator(item.expression, key_map, batches),
                    )
                )

        projected: List[Tuple[PosTuple, Tuple[SQLValue, ...]]] = []
        for t in tuples:
            values: List[SQLValue] = []
            for kind, payload in projectors:
                if kind == "star":
                    for source_index, column_values in payload:
                        position = t[source_index]
                        values.append(
                            column_values[position] if position >= 0 else None
                        )
                else:
                    values.append(payload(t))
            projected.append((t, tuple(values)))

        if statement.distinct:
            seen = set()
            unique = []
            for t, row in projected:
                key = tuple(sort_key(value) for value in row)
                if key not in seen:
                    seen.add(key)
                    unique.append((t, row))
            projected = unique

        offset = statement.offset or 0
        if offset:
            projected = projected[offset:]
        if statement.limit is not None:
            projected = projected[: statement.limit]

        driving = sources[0][0]
        return ResultSet(
            columns=columns,
            rows=[row for _, row in projected],
            rowids=[
                batches[0].rowids[t[0]] for t, _ in projected
            ],
            touched=[
                pair
                for t, _ in projected
                for pair in self._touched_of(batches, t)
            ],
            table=driving.name,
            rowcount=len(projected),
            statement_kind="select",
        )

    # -- aggregates -------------------------------------------------------------

    def _aggregate_item_value(
        self, item, member_tuples: List[PosTuple], key_map, batches
    ) -> SQLValue:
        if item.aggregate == "COUNT" and item.expression is None:
            return len(member_tuples)
        evaluate = self._evaluator(item.expression, key_map, batches)
        observed = [evaluate(t) for t in member_tuples]
        return self._aggregate_of_values(
            item.aggregate, item.distinct, observed
        )

    def _vector_aggregate(
        self, statement, sources, batches, key_map, tuples
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
            values.append(
                self._aggregate_item_value(item, tuples, key_map, batches)
            )
        rows = [tuple(values)]
        rowids = [batches[0].rowids[t[0]] for t in tuples]
        touched = [
            pair for t in tuples for pair in self._touched_of(batches, t)
        ]
        # Mirror the classic path's LIMIT/OFFSET handling (including
        # the consistent-trim bugfix there).
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

    def _vector_grouped(
        self, statement, sources, batches, key_map, shared, tuples
    ) -> ResultSet:
        for item in statement.items:
            if item.star:
                raise ExecutionError("SELECT * is not valid with GROUP BY")
        group_evaluators = [
            self._evaluator(expression, key_map, batches)
            for expression in statement.group_by
        ]
        groups: Dict[Tuple, List[PosTuple]] = {}
        order: List[Tuple] = []
        for t in tuples:
            key = tuple(
                sort_key(evaluate(t)) for evaluate in group_evaluators
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(t)

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
            first_context: Optional[Dict[str, SQLValue]] = None
            values: List[SQLValue] = []
            for item in statement.items:
                if item.aggregate:
                    values.append(
                        self._aggregate_item_value(
                            item, members, key_map, batches
                        )
                    )
                else:
                    if first_context is None:
                        first_context = self._context_of(
                            sources, batches, shared, members[0]
                        )
                    values.append(item.expression.evaluate(first_context))
            if statement.having is not None:
                if first_context is None:
                    first_context = self._context_of(
                        sources, batches, shared, members[0]
                    )
                having_context = self._having_context(
                    statement, columns, values, first_context
                )
                if not predicate_holds(statement.having, having_context):
                    continue
            rows.append(tuple(values))
            row_touched.append(
                [
                    pair
                    for t in members
                    for pair in self._touched_of(batches, t)
                ]
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
                for _name, rowid in touched[:1]
            ],
            touched=[pair for _, touched in combined for pair in touched],
            table=statement.table,
            rowcount=len(combined),
            statement_kind="select",
        )
