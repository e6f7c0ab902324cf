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
through :class:`PositionReader`, whose ``touched`` of
:data:`~repro.engine.footprint.FOOTPRINT_FROM` pairs or more is a
:class:`~repro.engine.footprint.Footprint`: the same pairs as arrays.
UPDATE and DELETE pick their targets from the same single-table row
source (:meth:`VectorizedExecutor._target_rowids`).

An *aggregated* SELECT (GROUP BY, or any aggregate item) never needs
its working rows one by one, so its row source yields a
:class:`PositionFrame` instead of tuples: one position array per
source. Filtering, integer equi-joins (:func:`_sorted_join`), grouping,
COUNT/SUM/AVG and the footprint read those arrays; every other step
reads the frame as the tuples it stands for.

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

from functools import partial, reduce
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as _np

from ..executor import (
    Executor,
    MemberGroups,
    ResultSet,
    Touched,
    groups_by_evaluation,
    member_aggregate,
)
from ..expr import ColumnRef, Comparison, Expression, Logical, conjuncts
from ..footprint import FOOTPRINT_FROM, Footprint
from ..parser.ast import SelectItem, SelectStatement
from ..types import DataType, SQLValue
from .columns import ColumnBatch
from .compiler import (
    SelView,
    SingleTableResolver,
    compile_filter,
    is_safe_bool,
)

#: A working row: one position per FROM source, -1 = outer-join null.
PosTuple = Tuple[int, ...]

#: Column types whose every non-NULL value SUM and AVG accept.
_NUMERIC = (DataType.INTEGER, DataType.FLOAT)


class MultiView:
    """Compiler view over joined position tuples (see :class:`SelView`).

    Column indices are ``(source, column)`` pairs; gathers follow the
    per-source position of each tuple, yielding NULL for ``-1``
    (outer-join null extensions), exactly like the classic executor's
    null fragments.
    """

    __slots__ = ("batches", "tuples", "_np_idx")

    def __init__(self, batches: List[ColumnBatch], tuples: "Rows"):
        self.batches = batches
        self.tuples = tuples
        self._np_idx: Dict[int, Tuple[object, object]] = {}

    @property
    def size(self) -> int:
        return len(self.tuples)

    def values(self, index) -> List[SQLValue]:
        source, column = index
        values = self.batches[source].columns[column]
        if isinstance(self.tuples, PositionFrame):
            return _gather(values, self.tuples.columns[source].tolist())
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
            if isinstance(self.tuples, PositionFrame):
                raw = self.tuples.columns[source]
            else:
                raw = _source_positions(self.tuples, source)
            missing = raw < 0
            cached = (_np.where(missing, 0, raw), missing)
            self._np_idx[source] = cached
        return cached


class PositionFrame:
    """An aggregated statement's working rows as arrays: one intp
    position array per FROM source, parallel, ``-1`` marking an
    outer-join null extension.

    Indexing with an int and iterating give the position tuples the
    frame stands for (Python ints), so every reference fallback reads
    it as it reads a tuple list; a slice is a frame of views.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[_np.ndarray]):
        self.columns = tuple(columns)

    @classmethod
    def of_tuples(cls, tuples: List[PosTuple], width: int) -> "PositionFrame":
        return cls([_source_positions(tuples, s) for s in range(width)])

    @classmethod
    def concat(cls, frames: Sequence["PositionFrame"]) -> "PositionFrame":
        if len(frames) == 1:
            return frames[0]
        columns = zip(*(frame.columns for frame in frames))
        return cls([_np.concatenate(parts) for parts in columns])

    def take(self, indices) -> "PositionFrame":
        """The rows at ``indices`` (an index array or a boolean mask)."""
        return PositionFrame([column[indices] for column in self.columns])

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PositionFrame([column[index] for column in self.columns])
        return tuple([int(column[index]) for column in self.columns])

    def __iter__(self):
        return zip(*[column.tolist() for column in self.columns])


#: What a row source yields: position tuples, or a frame.
Rows = Union[List[PosTuple], PositionFrame]


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

    def groups(
        self, keys: Sequence[Expression], frame: PositionFrame
    ) -> MemberGroups:
        """GROUP BY on the frame's arrays.

        Each key that names a column is factorised into integer codes
        for this statement only. A column holds one Python type (the
        heap validates every row), so equal values there are exactly
        equal ``sort_key``s and a value can be its own dict key. A
        statement with any other key groups the reference way.
        """
        entries = [self._entry(key) for key in keys]
        if not len(frame) or None in entries:
            return groups_by_evaluation(self.evaluator, keys, frame)
        codes = None
        for source, column in entries:
            batch = self._batches[source]
            more = _codes(batch, column, frame.columns[source])
            if codes is not None:
                # Mixed radix, renumbered at once: stays below n**2.
                more = _np.unique(
                    codes * (int(more.max()) + 1) + more, return_inverse=True
                )[1]
            codes = more
        # Number the groups by first appearance, then list each group's
        # members in row order (a stable sort by group number).
        _, first, inverse = _np.unique(
            codes, return_index=True, return_inverse=True
        )
        rank = _np.empty(len(first), dtype=_np.intp)
        rank[_np.argsort(first)] = _np.arange(len(first))
        group_of = rank[inverse]
        order = _np.argsort(group_of, kind="stable")
        ends = _np.cumsum(_np.bincount(group_of)).tolist()
        starts = [0] + ends[:-1]
        bounds = list(zip(starts, ends))
        return PositionGroups(self, frame.take(order), bounds)

    def aggregate(self, item: SelectItem):
        """A global aggregate: a frame is one group through
        :meth:`column_aggregate`; anything else the reference's."""
        reference = member_aggregate(self.evaluator, item)

        def run(members: Rows) -> SQLValue:
            if isinstance(members, PositionFrame):
                bounds = [(0, len(members))]
                whole = self.column_aggregate(item, members, bounds)
                if whole is not None:
                    return whole(0)
            return reference(members)

        return run

    def column_aggregate(
        self, item: SelectItem, frame: PositionFrame, bounds
    ) -> Optional[Callable[[int], SQLValue]]:
        """COUNT, SUM or AVG of a column over ``frame[start:end]`` for
        each ``bounds[i]``, as a function of ``i``; None for any other
        aggregate (the caller's reference path).

        One gather of the column reads every member; SUM and AVG add
        each group's non-NULL values with Python's left-to-right
        ``sum``, as the reference does.
        """
        entry = (
            None
            if item.expression is None or item.distinct
            else self._entry(item.expression)
        )
        func = item.aggregate
        if entry is None or func not in ("COUNT", "SUM", "AVG"):
            return None
        source, column = entry
        batch = self._batches[source]
        if func != "COUNT" and batch.dtypes[column] not in _NUMERIC:
            return None  # the reference raises per group, in order
        positions = frame.columns[source]
        values, nulls = batch.numpy_column(column)
        if values is None or not len(values):
            gathered = _gather(batch.columns[column], positions.tolist())
            present = _np.fromiter(
                (value is not None for value in gathered),
                dtype=bool,
                count=len(gathered),
            )
            kept = [value for value in gathered if value is not None]
        else:
            missing = positions < 0
            at = _np.where(missing, 0, positions)
            present = ~(nulls[at] | missing)
            kept = None if func == "COUNT" else values[at[present]].tolist()
        before = [0] + _np.cumsum(present).tolist()  # non-NULLs before i

        def run(index: int) -> SQLValue:
            start, end = bounds[index]
            low, high = before[start], before[end]
            if func == "COUNT":
                return high - low
            if high == low:
                return None
            total = sum(kept[low:high])
            return total if func == "SUM" else total / (high - low)

        return run

    @staticmethod
    def concat(parts: Sequence[Rows]) -> Rows:
        if parts and all(isinstance(part, PositionFrame) for part in parts):
            return PositionFrame.concat(parts)
        return [row for members in parts for row in members]

    def _entry(self, expression: Expression) -> Optional[Tuple[int, int]]:
        """``(source, column)`` of a column reference, else None."""
        if isinstance(expression, ColumnRef):
            return self._key_map.get(expression.name.lower())
        return None

    def rowids(self, rows: Rows) -> List[int]:
        if isinstance(rows, PositionFrame):
            return _rowids_at(self._batches[0], rows.columns[0]).tolist()
        rowids = self._batches[0].rowids
        return [rowids[t[0]] for t in rows]

    def touched(self, rows: Rows) -> Sequence[Touched]:
        """Every non-null position's ``(table, rowid)``, tuple by tuple
        in source order: a :class:`~repro.engine.footprint.Footprint`
        from :data:`~repro.engine.footprint.FOOTPRINT_FROM` pairs up,
        a list below it. A frame's footprint gathers each batch's rowid
        array (:meth:`ColumnBatch.numpy_rowids`)."""
        if isinstance(rows, PositionFrame):
            columns = rows.columns
            pairs = sum(int(_np.count_nonzero(c >= 0)) for c in columns)
            if pairs >= FOOTPRINT_FROM:
                return self._footprint(columns, _rowids_at)
            rows = list(rows)
        batches = self._batches
        if len(rows) < FOOTPRINT_FROM:
            if len(batches) == 1:
                key, rowids = batches[0].table_key, batches[0].rowids
                return [(key, rowids[t[0]]) for t in rows]
            sides = [(batch.table_key, batch.rowids) for batch in batches]
            pairs = [
                (key, rowids[position])
                for t in rows
                for (key, rowids), position in zip(sides, t)
                if position >= 0
            ]
            if len(pairs) < FOOTPRINT_FROM:
                return pairs
        columns = [_source_positions(rows, s) for s in range(len(batches))]
        return self._footprint(columns, _listed_rowids)

    def _footprint(self, columns: Sequence[_np.ndarray], rowids_at):
        """:meth:`touched` as arrays: one ``(tuple, source)`` grid of
        rowids (``rowids_at(batch, positions)`` per source), read
        row-major under the non-null mask."""
        batches = self._batches
        if len(batches) == 1:
            batch = batches[0]
            return Footprint((batch.table_key,), rowids_at(batch, columns[0]))
        keys = [batch.table_key for batch in batches]
        tables = tuple(dict.fromkeys(keys))
        shape = (len(columns[0]), len(keys))
        rowids = _np.zeros(shape, dtype=_np.int64)
        present = _np.empty(shape, dtype=bool)
        for source, (batch, positions) in enumerate(zip(batches, columns)):
            present[:, source] = positions >= 0
            if batch.rowids:  # position -1 reads the last rowid: masked
                rowids[:, source] = rowids_at(batch, positions)
        codes = None
        if len(tables) > 1:
            codes = _np.broadcast_to(
                _np.array([tables.index(key) for key in keys], dtype=_np.int8),
                shape,
            )[present]
        return Footprint(tables, rowids[present], codes)


class PositionGroups(MemberGroups):
    """Groups over a frame: ``members[i]`` is the slice ``bounds[i]`` of
    one frame holding every member in group order."""

    def __init__(self, reader: PositionReader, grouped: PositionFrame, bounds):
        super().__init__(
            [grouped[start:end] for start, end in bounds], reader.evaluator
        )
        self._reader = reader
        self._grouped = grouped
        self._bounds = bounds

    def aggregate(self, item: SelectItem):
        """:meth:`PositionReader.column_aggregate` over the groups, or
        the reference's aggregate."""
        run = self._reader.column_aggregate(item, self._grouped, self._bounds)
        return super().aggregate(item) if run is None else run


def _source_positions(tuples: List[PosTuple], source: int) -> _np.ndarray:
    """Each tuple's ``source`` position, as an intp array."""
    return _np.fromiter(
        map(itemgetter(source), tuples), dtype=_np.intp, count=len(tuples)
    )


def _listed_rowids(batch: ColumnBatch, positions: _np.ndarray) -> _np.ndarray:
    """``batch.rowids`` at ``positions``, read from the list."""
    return _np.fromiter(
        map(batch.rowids.__getitem__, positions.tolist()),
        dtype=_np.int64,
        count=len(positions),
    )


def _rowids_at(batch: ColumnBatch, positions: _np.ndarray) -> _np.ndarray:
    """``batch``'s rowids at ``positions``: a gather of its rowid array,
    so a fresh copy, never a view of it."""
    array = batch.numpy_rowids()
    if array is None:  # a rowid outside int64
        return _listed_rowids(batch, positions)
    return array[positions]


def _gather(values: Sequence, positions: List[int]) -> list:
    """``values`` at ``positions``, in order; position -1 reads NULL."""
    if not positions:
        return []
    if min(positions) < 0:
        return [values[p] if p >= 0 else None for p in positions]
    if len(positions) == 1:
        return [values[positions[0]]]
    return list(itemgetter(*positions)(values))


def _codes(batch: ColumnBatch, column: int, positions: _np.ndarray):
    """Integer codes, equal exactly where the column's values at
    ``positions`` are equal (-1 reads NULL).

    An INTEGER or BOOLEAN column with a numpy form is factorised in
    numpy (its values are exactly its int64 or bool elements). Otherwise
    a column no longer than the selection is factorised whole, once,
    and its codes gathered by position; a longer one is factorised at
    the gathered values.
    """
    values = batch.columns[column]
    if batch.dtypes[column] in (DataType.INTEGER, DataType.BOOLEAN):
        array, nulls = batch.numpy_column(column)
        if array is not None and len(array):
            missing = positions < 0
            at = _np.where(missing, 0, positions)
            distinct, codes = _np.unique(array[at], return_inverse=True)
            return _np.where(nulls[at] | missing, len(distinct), codes)
    if len(values) <= len(positions):
        index: Dict[SQLValue, int] = {}
        codes = [index.setdefault(value, len(index)) for value in values]
        codes.append(index.setdefault(None, len(index)))  # position -1
        return _np.asarray(codes, dtype=_np.intp)[positions]
    gathered = _gather(values, positions.tolist())
    index = {value: code for code, value in enumerate(dict.fromkeys(gathered))}
    return _np.fromiter(
        map(index.__getitem__, gathered), dtype=_np.intp, count=len(gathered)
    )


def _push_down(where, labels, batches, key_map, plans):
    """Split a joined SELECT's WHERE into position filters applied
    before the join and the rest, applied after it.

    Returns ``(kept, rest)``: ``kept`` maps a source to its positions
    (an intp array), in scan order, that pass every conjunct naming
    only that source;
    ``rest`` is the conjunction of the other conjuncts (None if none).

    Only the driving source and inner-joined sources are filtered; the
    null-extended side of a LEFT JOIN never is, since a filtered right
    row could turn a match into a null extension. And nothing moves
    unless the whole WHERE, and every ON that is not a hash join, can
    never raise: ``Logical.evaluate`` evaluates both sides of AND, so
    on the row tier an unsafe conjunct (or ON) runs on the very rows a
    pushed conjunct would remove, and its error must not be hidden.
    """
    if where is None:
        return {}, None
    if not is_safe_bool(where, MultiResolver(key_map, batches)) or any(
        equi is None and not is_safe_bool(join.condition, visible)
        for join, visible, equi in plans
    ):
        return {}, where
    filtered = {0} | {
        index
        for index, (join, _visible, _equi) in enumerate(plans, start=1)
        if not join.outer
    }
    pushed: Dict[int, List[Expression]] = {}
    rest: List[Expression] = []
    for conjunct in conjuncts(where):
        named = {key_map[name.lower()][0] for name in conjunct.columns()}
        if len(named) == 1 and named <= filtered:
            pushed.setdefault(named.pop(), []).append(conjunct)
        else:
            rest.append(conjunct)
    kept = {}
    for source, parts in pushed.items():
        # A pushed conjunct names label.col or an unshared bare col (a
        # shared bare name does not resolve, so the WHERE would not be
        # safe): the source's single-table resolver reads both.
        resolver = SingleTableResolver(batches[source], labels[source])
        mask = compile_filter(_all_of(parts), resolver)(SelView(batches[source]))
        kept[source] = _np.flatnonzero(mask.t)
    return kept, _all_of(rest)


def _all_of(parts: List[Expression]) -> Optional[Expression]:
    """The left-deep AND of ``parts`` (None for none)."""
    return reduce(partial(Logical, "AND"), parts) if parts else None


def _join_tuples(
    tuples: List[PosTuple],
    batches: List[ColumnBatch],
    key_map: Dict[str, Tuple[int, int]],
    plan,
    right: Sequence[int],
) -> List[PosTuple]:
    """One join of :meth:`VectorizedExecutor._joined_tuples` over
    position tuples: ``plan`` is ``(join, visible, equi)`` and
    ``right`` the joined source's positions, in scan order."""
    join, visible, equi = plan
    joined: List[PosTuple] = []
    if equi is None:
        on = compile_filter(join.condition, visible)
        for t in tuples:
            pairs = [t + (p,) for p in right]
            hits = on(MultiView(batches, pairs)).true_positions()
            joined.extend([pairs[i] for i in hits])
            if not hits and join.outer:
                joined.append(t + (-1,))
        return joined
    left_name, right_name = equi
    left_source, left_column = key_map[left_name]
    left_values = batches[left_source].columns[left_column]
    right_source, right_column = key_map[right_name]
    right_values = batches[right_source].columns[right_column]
    buckets: Dict[SQLValue, List[int]] = {}
    for position in right:
        value = right_values[position]
        if value is not None:
            buckets.setdefault(value, []).append(position)
    # No bucket is keyed None, so a NULL key matches nothing.
    probe = buckets.get
    for t in tuples:
        left_position = t[left_source]
        matches = (
            probe(left_values[left_position], ())
            if left_position >= 0
            else ()
        )
        for right_position in matches:
            joined.append(t + (right_position,))
        if not matches and join.outer:
            joined.append(t + (-1,))
    return joined


def _join_frame(
    frame: PositionFrame,
    batches: List[ColumnBatch],
    key_map: Dict[str, Tuple[int, int]],
    plan,
    right: _np.ndarray,
) -> PositionFrame:
    """One join over a frame: :func:`_sorted_join` when both keys are
    exact int64 columns, :func:`_join_tuples` (and back to a frame) for
    every other ON, FLOAT, TEXT or mixed keys included, where the row
    tier's dict equates ``1``, ``1.0`` and ``True``."""
    join, _visible, equi = plan
    if equi is not None:
        left_source, left_column = key_map[equi[0]]
        right_source, right_column = key_map[equi[1]]
        left = _int64_keys(batches[left_source], left_column)
        right_keys = _int64_keys(batches[right_source], right_column)
        if left is not None and right_keys is not None:
            return _sorted_join(
                frame, frame.columns[left_source], left, right, right_keys,
                join.outer,
            )
    tuples = _join_tuples(list(frame), batches, key_map, plan, right.tolist())
    return PositionFrame.of_tuples(tuples, len(frame.columns) + 1)


def _int64_keys(batch: ColumnBatch, column: int):
    """``(values, nulls)`` of an INTEGER column with an exact int64
    form, else None."""
    if batch.dtypes[column] is not DataType.INTEGER:
        return None
    values, nulls = batch.numpy_column(column)
    return None if values is None else (values, nulls)


def _sorted_join(frame, probes, left, right, right_keys, outer):
    """The row tier's hash join on int64 keys, as arrays.

    The right positions are stably argsorted by key, so each key's
    matches stay in scan order (the row tier's bucket order); each left
    row finds its run with two ``searchsorted``s and is repeated once
    per match, or once with ``-1`` when an outer join finds none. A
    NULL key, or a left position of ``-1``, matches nothing.
    """
    values, nulls = right_keys
    right = right[~nulls[right]]
    keys = values[right]
    order = _np.argsort(keys, kind="stable")
    keys, right = keys[order], right[order]
    missing = probes < 0
    left_values, left_nulls = left
    if len(left_values):
        at = _np.where(missing, 0, probes)
        wanted, unmatched = left_values[at], left_nulls[at] | missing
    else:  # every probe is -1
        wanted, unmatched = _np.zeros(len(probes), _np.int64), missing
    low = _np.searchsorted(keys, wanted, "left")
    counts = _np.searchsorted(keys, wanted, "right") - low
    counts[unmatched] = 0
    width = _np.maximum(counts, 1) if outer else counts
    columns = [_np.repeat(column, width) for column in frame.columns]
    starts = _np.cumsum(width) - width
    offset = _np.arange(len(columns[0])) - _np.repeat(starts, width)
    matched = _np.repeat(counts > 0, width)
    joined = _np.full(len(columns[0]), -1, dtype=_np.intp)
    joined[matched] = right[(_np.repeat(low, width) + offset)[matched]]
    return PositionFrame(columns + [joined])


class VectorizedExecutor(Executor):
    """Columnar execution of every SELECT and of every UPDATE/DELETE's
    target pick."""

    def _execute_bound_select(self, statement: SelectStatement) -> ResultSet:
        sources, reader, rows = self._vector_select(statement)
        result = self._shape(statement, sources, reader, rows)
        result.execution_path = "vectorized"
        return result

    # -- row sourcing ---------------------------------------------------------

    def _vector_select(self, statement: SelectStatement):
        """A SELECT's sources, its reader, and its filtered rows: a
        :class:`PositionFrame` for an aggregated statement, position
        tuples for any other."""
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

        frame = bool(statement.group_by) or any(
            item.aggregate for item in statement.items
        )
        if statement.joins:
            rows, where = self._joined_tuples(
                statement,
                [label for _, label in sources],
                batches,
                key_map,
                frame,
            )
            if where is not None:
                batch_filter = compile_filter(
                    where, MultiResolver(key_map, batches)
                )
                mask = batch_filter(MultiView(batches, rows))
                if frame:
                    rows = rows.take(mask.t)
                else:
                    rows = [rows[i] for i in mask.true_positions()]
        else:
            rows = self._single_table_tuples(
                statement, sources[0], batches[0], frame
            )
        reader = PositionReader(sources, batches, key_map, shared)
        return sources, reader, rows

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
        frame: bool = False,
    ) -> Rows:
        """Filtered positions for a single-table statement, as 1-tuples
        or, when ``frame``, a one-source :class:`PositionFrame`.

        Uses the same planner access path as the row tier, so
        candidate order (and therefore output order) is identical. An
        index probe of :data:`FOOTPRINT_FROM` candidates or more maps
        them to positions with one :meth:`ColumnBatch.positions_of`.
        """
        from ..planner import candidate_rowids, choose_access_path

        table, label = source
        path = choose_access_path(self.catalog, table, statement.where)
        if path.kind == "full_scan":
            # rowids() and the batch share scan order exactly.
            positions = None
        else:
            candidates = candidate_rowids(self.catalog, table, path)
            if len(candidates) >= FOOTPRINT_FROM:
                positions = batch.positions_of(candidates)
            else:
                positions = []
                for rowid in candidates:
                    position = batch.position_of(rowid)
                    if position is not None:  # the row tier skips them too
                        positions.append(position)

        mask = None
        if statement.where is not None:
            batch_filter = compile_filter(
                statement.where, SingleTableResolver(batch, label)
            )
            mask = batch_filter(SelView(batch, positions))
        if frame or isinstance(positions, _np.ndarray):
            if positions is None:
                selected = _np.arange(len(batch))
            else:
                selected = _np.asarray(positions, dtype=_np.intp)
            if mask is not None:
                selected = selected[mask.t]
            if frame:
                return PositionFrame((selected,))
            return [(p,) for p in selected.tolist()]

        if mask is None:
            selected = (
                list(range(len(batch))) if positions is None else positions
            )
            return [(p,) for p in selected]
        hits = mask.true_positions()
        if positions is not None:
            hits = [positions[i] for i in hits]
        return [(p,) for p in hits]

    def _joined_tuples(
        self,
        statement: SelectStatement,
        labels: List[str],
        batches: List[ColumnBatch],
        key_map: Dict[str, Tuple[int, int]],
        frame: bool = False,
    ) -> Tuple[Rows, Optional[Expression]]:
        """Positional joins, replicating the row tier's exactly, and the
        part of the WHERE still to apply to their output: position
        tuples or, when ``frame``, a :class:`PositionFrame`.

        The row tier's ``_apply_join`` picks its hash path from the
        merged context keys at runtime; those key sets equal our static
        ``key_map`` prefixes, so the same statements hash-join here.
        Bucket lookups use a plain dict exactly like the row tier (so
        e.g. ``1`` and ``1.0`` share a bucket there and here); a frame
        joins two exact int64 keys by sorting instead
        (:func:`_sorted_join`), which pairs the same rows in the same
        order. Every other ON condition is a nested loop: compiled once
        per join against the sources joined so far, it runs per left
        tuple over all right positions, so memory stays O(right) and
        pairs (and the first error a condition raises) come in the row
        tier's order.

        Conjuncts of the WHERE that name one source are applied to that
        source's positions before it joins (:func:`_push_down`), which
        keeps positions in scan order, and so bucket order and the
        order tuples are driven in.
        """
        plans = []
        for join_index, join in enumerate(statement.joins, start=1):
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
            plans.append((join, MultiResolver(visible, batches), equi))
        kept, where = _push_down(
            statement.where, labels, batches, key_map, plans
        )
        # The row tier's joins drive off table.rowids() (full scan order).
        positions = [
            kept[index] if index in kept else _np.arange(len(batch))
            for index, batch in enumerate(batches)
        ]
        if frame:
            rows = PositionFrame(positions[:1])
            for join_index, plan in enumerate(plans, start=1):
                rows = _join_frame(
                    rows, batches, key_map, plan, positions[join_index]
                )
            return rows, where
        tuples: List[PosTuple] = [(p,) for p in positions[0].tolist()]
        for join_index, plan in enumerate(plans, start=1):
            tuples = _join_tuples(
                tuples, batches, key_map, plan, positions[join_index].tolist()
            )
        return tuples, where

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
