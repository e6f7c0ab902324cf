"""The columnar executor: the serving tier's one row source.

:class:`VectorizedExecutor` subclasses the row-at-a-time
:class:`~repro.engine.executor.Executor` and replaces only its row
sources: instead of materialising a dict context per row, it works over
*positions* into each table's :class:`~repro.engine.vectorized.
columns.ColumnBatch` view, which only a writer holding the engine's
exclusive lock patches. A working row is a tuple of per-source
positions (``-1`` marks an outer-join null extension). Predicates
compile into batch evaluators (:mod:`.compiler`); equi-joins become
positional hash joins and every other ON condition a positional nested
loop. Projection, grouping, aggregation, ordering, slicing and the
``rowids``/``touched`` lists are the inherited
:meth:`~repro.engine.executor.Executor._shape`, run over these tuples
through :class:`PositionReader`. UPDATE and DELETE pick their targets
from the same single-table row source (:meth:`VectorizedExecutor.
_target_rowids`).

Every statement runs here; nothing falls back to the row tier, which
stays only as the reference the equivalence tests compare against. The
invariant is bit-identical output: ``rows``, ``rowids``, and ``touched``
(values *and* order), and the same error for the same statement, as
the row tier's, because the delay guard prices queries, maintains
popularity counts, and keys its result cache off them. The row source
therefore keeps the row tier's scan and join order: the same planner
access path, and hash joins only where the row tier would hash-join.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as _np

from ..executor import Executor, ResultSet, Touched
from ..expr import ColumnRef, Comparison, Expression
from ..parser.ast import SelectStatement
from ..types import SQLValue
from .columns import ColumnBatch
from .compiler import SelView, SingleTableResolver, compile_filter

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
    """Resolve column names to ``(source, column)`` across all sources
    (None for a name the key map lacks)."""

    def __init__(self, key_map: Dict[str, Tuple[int, int]], batches):
        self._key_map = key_map
        self._batches = batches

    def resolve(self, name: str):
        entry = self._key_map.get(name.lower())
        if entry is None:
            return None
        source, column = entry
        return entry, self._batches[source].dtypes[column]


class PositionReader:
    """The columnar tier's reader for :meth:`Executor._shape`.

    A working row is a position tuple; ``-1`` (an outer-join null
    extension) reads as NULL and contributes no ``touched`` pair, like
    the classic tier's null fragments. Star gathers are built on first
    use, so a statement that never projects ``*`` pays nothing for them.
    """

    def __init__(self, sources, batches, key_map, shared):
        self._sources = sources
        self._batches = batches
        self._key_map = key_map
        self._shared = shared
        self._gathers: Optional[List[Tuple[int, List[SQLValue]]]] = None

    def evaluator(
        self, expression: Expression
    ) -> Callable[[PosTuple], SQLValue]:
        """Per-tuple evaluator over a minimal referenced-column context.

        Semantics (including error messages and evaluation order) come
        from ``Expression.evaluate`` itself; only context construction
        is narrowed. An unresolvable name is left out of the context,
        so it raises the row tier's error on each evaluated row.
        """
        batches = self._batches
        key_map = self._key_map
        entry = (
            key_map.get(expression.name.lower())
            if isinstance(expression, ColumnRef)
            else None
        )
        if entry is not None:
            source, column = entry
            values = batches[source].columns[column]

            def fast(t: PosTuple) -> SQLValue:
                position = t[source]
                return values[position] if position >= 0 else None

            return fast

        referenced: Dict[str, Tuple[int, int]] = {}
        for name in expression.columns():
            entry = key_map.get(name.lower())
            if entry is not None:
                referenced[name.lower()] = entry

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

    def star(self, t: PosTuple) -> Tuple[SQLValue, ...]:
        if self._gathers is None:
            self._gathers = [
                (source, values)
                for source, batch in enumerate(self._batches)
                for values in batch.columns
            ]
        return tuple(
            [
                values[t[source]] if t[source] >= 0 else None
                for source, values in self._gathers
            ]
        )

    def context(self, t: PosTuple) -> Dict[str, SQLValue]:
        """The classic executor's fragment union for one tuple."""
        context: Dict[str, SQLValue] = {}
        for (_table, label), batch, position in zip(
            self._sources, self._batches, t
        ):
            for values, name in zip(batch.columns, batch.column_names):
                value = values[position] if position >= 0 else None
                context[f"{label}.{name}"] = value
                if name not in self._shared:
                    context[name] = value
        return context

    def rowids(self, tuples: List[PosTuple]) -> List[int]:
        rowids = self._batches[0].rowids
        return [rowids[t[0]] for t in tuples]

    def touched(self, tuples: List[PosTuple]) -> List[Touched]:
        if len(self._batches) == 1:
            key, rowids = self._batches[0].table_key, self._batches[0].rowids
            return [(key, rowids[t[0]]) for t in tuples]
        sides = [(batch.table_key, batch.rowids) for batch in self._batches]
        return [
            (key, rowids[position])
            for t in tuples
            for (key, rowids), position in zip(sides, t)
            if position >= 0
        ]


class VectorizedExecutor(Executor):
    """Columnar execution of every SELECT and of every UPDATE/DELETE's
    target pick."""

    def _execute_bound_select(self, statement: SelectStatement) -> ResultSet:
        sources, reader, tuples = self._vector_select(statement)
        result = self._shape(statement, sources, reader, tuples)
        result.execution_path = "vectorized"
        return result

    # -- row sourcing ---------------------------------------------------------

    def _vector_select(self, statement: SelectStatement):
        """A SELECT's sources, its reader, and its filtered position tuples."""
        # Source resolution raises the same CatalogError /
        # ExecutionError the row tier would (shared methods).
        sources = self._select_sources(statement)
        shared = self._shared_columns(sources)
        batches = [table.column_batch() for table, _ in sources]
        # name -> (source, column): the static image of the row tier's
        # merged fragment keys (label.col always, bare col only when
        # unshared; labels are unique so keys never collide).
        key_map: Dict[str, Tuple[int, int]] = {}
        for source_index, ((_table, label), batch) in enumerate(
            zip(sources, batches)
        ):
            for column_index, name in enumerate(batch.column_names):
                key_map[f"{label}.{name}"] = (source_index, column_index)
                if name not in shared:
                    key_map[name] = (source_index, column_index)

        if statement.joins:
            tuples = self._joined_tuples(statement, batches, key_map)
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
        reader = PositionReader(sources, batches, key_map, shared)
        return sources, reader, tuples

    def _target_rowids(self, statement: SelectStatement, source) -> List[int]:
        """An UPDATE/DELETE's targets: the rowids at the positions the
        single-table row source selects, in its order."""
        batch = source[0].column_batch()
        rowids = batch.rowids
        return [
            rowids[position]
            for position, in self._single_table_tuples(statement, source, batch)
        ]

    def _single_table_tuples(
        self,
        statement: SelectStatement,
        source,
        batch: ColumnBatch,
    ) -> List[PosTuple]:
        """Filtered positions for a single-table statement.

        Uses the same planner access path as the row tier, so
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
                if position is not None:  # the row tier skips them too
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
        batches: List[ColumnBatch],
        key_map: Dict[str, Tuple[int, int]],
    ) -> List[PosTuple]:
        """Positional joins, replicating the row tier's exactly.

        The row tier's ``_apply_join`` picks its hash path from the
        merged context keys at runtime; those key sets equal our static
        ``key_map`` prefixes, so the same statements hash-join here.
        Bucket lookups use a plain dict exactly like the row tier (so
        e.g. ``1`` and ``1.0`` share a bucket there and here). Every
        other ON condition is a nested loop: compiled once per join
        against the sources joined so far, it runs per left tuple over
        all right positions, so memory stays O(right) and pairs (and the
        first error a condition raises) come in the row tier's order.
        """
        # The row tier's joins drive off table.rowids() (full scan order).
        tuples: List[PosTuple] = [(p,) for p in range(len(batches[0]))]
        for join_index, join in enumerate(statement.joins, start=1):
            batch = batches[join_index]
            visible = {
                name: entry
                for name, entry in key_map.items()
                if entry[0] <= join_index
            }
            right_keys = {
                name for name, entry in visible.items() if entry[0] == join_index
            }
            equi = self._static_equi_keys(
                join.condition, visible.keys() - right_keys, right_keys
            )
            joined: List[PosTuple] = []
            if equi is None:
                on = compile_filter(
                    join.condition, MultiResolver(visible, batches)
                )
                right = range(len(batch))
                for t in tuples:
                    pairs = [t + (p,) for p in right]
                    hits = on(MultiView(batches, pairs)).true_positions()
                    joined.extend([pairs[i] for i in hits])
                    if not hits and join.outer:
                        joined.append(t + (-1,))
            else:
                left_name, right_name = equi
                left_source, left_column = key_map[left_name]
                left_values = batches[left_source].columns[left_column]
                buckets: Dict[SQLValue, List[int]] = {}
                for position, value in enumerate(
                    batch.columns[key_map[right_name][1]]
                ):
                    if value is not None:
                        buckets.setdefault(value, []).append(position)
                for t in tuples:
                    left_position = t[left_source]
                    value = (
                        left_values[left_position]
                        if left_position >= 0
                        else None
                    )
                    matches = (
                        buckets.get(value, []) if value is not None else []
                    )
                    for right_position in matches:
                        joined.append(t + (right_position,))
                    if not matches and join.outer:
                        joined.append(t + (-1,))
            tuples = joined
        return tuples

    @staticmethod
    def _static_equi_keys(
        condition: Expression, left_keys, right_keys
    ) -> Optional[Tuple[str, str]]:
        """Static twin of the row tier's ``_equi_join_keys`` membership test.

        The row tier's check also returns None when either input is
        empty (falling to its nested loop) — but on an empty side both
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
