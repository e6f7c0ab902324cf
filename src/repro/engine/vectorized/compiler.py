"""Compile ``expr`` AST nodes into batch evaluators over column arrays.

The compiler turns a WHERE (or join ON) expression into a closure
evaluating the predicate for a whole selection of rows at once,
returning a three-valued mask (:class:`Tri`). Two tiers:

* **numpy tier** — comparisons on INTEGER/FLOAT columns where
  exactness is *provable*: int64-vs-int64 comparisons are exact, and
  int-column-vs-float-literal comparisons are canonicalised into pure
  integer comparisons (``col < 3.5`` becomes ``col <= 3``) instead of
  casting the column to float64, which would silently collapse values
  beyond 2**53 — the precision bug class this module exists to avoid.
  Float columns compare as float64 (exact), and integer literals only
  ride the float path when ``float(lit) == lit`` holds exactly.
* **object tier** — everything else falls back to per-row evaluation
  of the *original* scalar semantics (``Expression.evaluate`` against
  a minimal context of just the referenced columns), so LIKE, string
  comparisons, arithmetic, and every error message behave exactly as
  the row tier's, just without per-row full-fragment dicts.

A column the statement cannot resolve (unknown, or a name shared by two
joined tables) is no compile-time error: it sends its tree to the object
tier, whose minimal context lacks the key, so ``Expression.evaluate``
raises the row tier's error on the first evaluated row — and an empty
selection raises nothing, as on the row tier. An unbound subquery (one
in a join's ON clause) takes the same road and raises its own error.
Value-dependent behaviour (type errors, division by zero) is the object
tier's too.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as _np

from ..expr import (
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    InSet,
    IsNull,
    Like,
    Literal,
    Logical,
    Not,
    _as_bool,
    _like_to_regex,
)
from ..types import DataType, SQLValue
from .columns import ColumnBatch, _INT64_MAX, _INT64_MIN


# -- selections -------------------------------------------------------------


class SelView:
    """A batch restricted to a position selection (``None`` = all rows)."""

    __slots__ = ("batch", "positions", "_np_idx")

    def __init__(
        self, batch: ColumnBatch, positions: Optional[List[int]] = None
    ):
        self.batch = batch
        self.positions = positions
        self._np_idx = None

    @property
    def size(self) -> int:
        if self.positions is None:
            return len(self.batch)
        return len(self.positions)

    def values(self, index: int) -> List[SQLValue]:
        """The selected values of one column, as a Python list."""
        column = self.batch.columns[index]
        if self.positions is None:
            return column
        positions = self.positions
        if isinstance(positions, _np.ndarray):
            positions = positions.tolist()
        return [column[position] for position in positions]

    def np_col(self, index: int):
        """``(values, nulls)`` numpy arrays over the selection, or
        ``(None, None)`` when the column has no exact numpy form."""
        values, nulls = self.batch.numpy_column(index)
        if values is None:
            return (None, None)
        if self.positions is None:
            return (values, nulls)
        if self._np_idx is None:
            self._np_idx = _np.asarray(self.positions, dtype=_np.intp)
        return (values[self._np_idx], nulls[self._np_idx])


# -- three-valued masks -----------------------------------------------------


class Tri:
    """A vector of SQL three-valued truth: per row TRUE, FALSE, or NULL.

    Internally two parallel numpy boolean vectors: ``t`` (exactly TRUE)
    and ``n`` (exactly NULL); FALSE is neither.
    """

    __slots__ = ("t", "n")

    def __init__(self, t, n):
        self.t = t
        self.n = n

    @classmethod
    def const(cls, size: int, value: Optional[bool]) -> "Tri":
        t = _np.full(size, value is True, dtype=bool)
        n = _np.full(size, value is None, dtype=bool)
        return cls(t, n)

    @classmethod
    def from_rows(cls, truths: List[Optional[bool]]) -> "Tri":
        t = _np.fromiter(
            (value is True for value in truths),
            dtype=bool,
            count=len(truths),
        )
        n = _np.fromiter(
            (value is None for value in truths),
            dtype=bool,
            count=len(truths),
        )
        return cls(t, n)

    def true_positions(self) -> List[int]:
        """Indices (within the selection) where the value is TRUE."""
        return _np.flatnonzero(self.t).tolist()


def tri_and(a: Tri, b: Tri) -> Tri:
    t = a.t & b.t
    false_a = ~a.t & ~a.n
    false_b = ~b.t & ~b.n
    n = (a.n | b.n) & ~false_a & ~false_b
    return Tri(t, n)


def tri_or(a: Tri, b: Tri) -> Tri:
    t = a.t | b.t
    n = (a.n | b.n) & ~t
    return Tri(t, n)


def tri_not(a: Tri) -> Tri:
    return Tri(~a.t & ~a.n, a.n)


# -- name resolution --------------------------------------------------------


class SingleTableResolver:
    """Resolve column references for a single-table statement.

    Accepts ``label.column`` and bare ``column`` spellings, mirroring
    the row tier's context keys for a FROM clause with one table (where
    no name is ever shared). ``resolve`` answers None for any other
    name.
    """

    def __init__(self, batch: ColumnBatch, label: str):
        self._by_name = {}
        for index, name in enumerate(batch.column_names):
            self._by_name[name] = index
            self._by_name[f"{label}.{name}"] = index
        self._dtypes = batch.dtypes

    def resolve(self, name: str) -> Optional[Tuple[int, DataType]]:
        index = self._by_name.get(name.lower())
        if index is None:
            return None
        return index, self._dtypes[index]


# -- leaf compilers ---------------------------------------------------------

BatchFilter = Callable[[SelView], Tri]

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!=", "<>": "<>"}


def _object_tier(expr: Expression, resolver) -> BatchFilter:
    """Per-row evaluation of the original scalar semantics.

    Builds a minimal row context holding only the columns the
    expression references, so the per-row cost is proportional to the
    expression, not the schema width. Exactness and error behaviour
    are inherited from ``Expression.evaluate`` itself; an unresolvable
    name is left out of the context, so it raises per evaluated row.
    """
    referenced = {}
    for name in expr.columns():
        resolved = resolver.resolve(name)
        if resolved is not None:
            referenced[name.lower()] = resolved[0]

    def run(view: SelView) -> Tri:
        columns = {
            key: view.values(index) for key, index in referenced.items()
        }
        truths: List[Optional[bool]] = []
        if columns:
            keys = list(columns.keys())
            value_lists = [columns[key] for key in keys]
            for row_values in zip(*value_lists):
                context = dict(zip(keys, row_values))
                truths.append(_as_bool(expr.evaluate(context)))
        else:
            context = {}
            for _ in range(view.size):
                truths.append(_as_bool(expr.evaluate(context)))
        return Tri.from_rows(truths)

    return run


def _np_compare(op: str, values, literal):
    if op == "=":
        return values == literal
    if op in ("!=", "<>"):
        return values != literal
    if op == "<":
        return values < literal
    if op == "<=":
        return values <= literal
    if op == ">":
        return values > literal
    return values >= literal


def _int_op_for_float(op: str, literal: float):
    """Rewrite ``int_col OP float_literal`` as an exact integer test.

    Returns ``("const", truth)`` when the comparison is row-independent
    for every non-NULL integer, or ``("cmp", op2, int_literal)`` for an
    equivalent pure-int comparison. Exact for *all* integers — no
    float64 round trip ever touches the column.
    """
    if math.isnan(literal):
        return ("const", op in ("!=", "<>"))
    if math.isinf(literal):
        positive = literal > 0
        if op in ("!=", "<>"):
            return ("const", True)
        if op == "=":
            return ("const", False)
        if op in ("<", "<="):
            return ("const", positive)
        return ("const", not positive)
    floor = math.floor(literal)
    if literal == floor:  # integral float: compare as the exact int
        return ("cmp", op, floor)
    if op == "=":
        return ("const", False)
    if op in ("!=", "<>"):
        return ("const", True)
    if op in ("<", "<="):  # col < 3.5  <=>  col <= 3
        return ("cmp", "<=", floor)
    return ("cmp", ">=", floor + 1)  # col > 3.5  <=>  col >= 4


def _int_literal_cmp(op: str, literal: int):
    """``int64 column OP unbounded-int literal`` as numpy or constant."""
    if literal > _INT64_MAX:
        if op in ("<", "<=", "!=", "<>"):
            return ("const", True)
        return ("const", False)
    if literal < _INT64_MIN:
        if op in (">", ">=", "!=", "<>"):
            return ("const", True)
        return ("const", False)
    return ("cmp", op, literal)


def _compile_col_lit(
    op: str, index: int, dtype: DataType, literal: SQLValue
) -> Optional[BatchFilter]:
    """Numpy-tier column-vs-literal comparison, or None if not exact."""
    if literal is None:

        def all_null(view: SelView) -> Tri:
            return Tri.const(view.size, None)

        return all_null
    if isinstance(literal, bool) or not isinstance(literal, (int, float)):
        return None
    if dtype is DataType.INTEGER:
        if isinstance(literal, float):
            plan = _int_op_for_float(op, literal)
        else:
            plan = _int_literal_cmp(op, literal)
    elif dtype is DataType.FLOAT:
        if isinstance(literal, int):
            try:
                as_float = float(literal)
            except OverflowError:
                return None
            if as_float != literal:
                return None
            literal = as_float
        plan = ("cmp", op, literal)
    else:
        return None

    def run(view: SelView) -> Tri:
        values, nulls = view.np_col(index)
        if values is None:
            return None  # signals caller to fall back per call
        if plan[0] == "const":
            t = _np.full(view.size, plan[1], dtype=bool) & ~nulls
        else:
            t = _np_compare(plan[1], values, plan[2]) & ~nulls
        return Tri(t, nulls)

    return run


def _compile_col_col(
    op: str,
    left: Tuple[int, DataType],
    right: Tuple[int, DataType],
) -> Optional[BatchFilter]:
    left_index, left_dtype = left
    right_index, right_dtype = right
    numeric = (DataType.INTEGER, DataType.FLOAT)
    if left_dtype not in numeric or right_dtype not in numeric:
        return None
    if left_dtype is not right_dtype:
        # int-vs-float column comparison would cast the int column to
        # float64 (lossy beyond 2**53): object tier keeps it exact.
        return None

    def run(view: SelView) -> Tri:
        left_values, left_nulls = view.np_col(left_index)
        right_values, right_nulls = view.np_col(right_index)
        if left_values is None or right_values is None:
            return None
        nulls = left_nulls | right_nulls
        t = _np_compare(op, left_values, right_values) & ~nulls
        return Tri(t, nulls)

    return run


def _with_fallback(
    fast: Optional[BatchFilter], expr: Expression, resolver
) -> BatchFilter:
    """Wrap a numpy-tier closure with a per-call object-tier fallback.

    The numpy tier can decline *at run time* (a column turned out to
    hold an integer outside int64, so no exact array exists); the
    object tier then evaluates that selection exactly.
    """
    slow = None
    if fast is None:
        return _object_tier(expr, resolver)

    def run(view: SelView) -> Tri:
        nonlocal slow
        result = fast(view)
        if result is not None:
            return result
        if slow is None:
            slow = _object_tier(expr, resolver)
        return slow(view)

    return run


def _compile_comparison(node: Comparison, resolver) -> BatchFilter:
    left, right = node.left, node.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        index, dtype = resolver.resolve(left.name)
        fast = _compile_col_lit(node.op, index, dtype, right.value)
        return _with_fallback(fast, node, resolver)
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        index, dtype = resolver.resolve(right.name)
        fast = _compile_col_lit(
            _FLIP[node.op], index, dtype, left.value
        ) if node.op in _FLIP else None
        return _with_fallback(fast, node, resolver)
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        left_resolved = resolver.resolve(left.name)
        right_resolved = resolver.resolve(right.name)
        fast = (
            _compile_col_col(node.op, left_resolved, right_resolved)
            if node.op in _FLIP
            else None
        )
        return _with_fallback(fast, node, resolver)
    return _object_tier(node, resolver)


def _compile_is_null(node: IsNull, resolver) -> BatchFilter:
    if not isinstance(node.operand, ColumnRef):
        return _object_tier(node, resolver)
    index, _dtype = resolver.resolve(node.operand.name)
    negated = node.negated

    def run(view: SelView) -> Tri:
        _values, nulls = view.np_col(index)
        if nulls is None:
            nulls = _np.fromiter(
                (value is None for value in view.values(index)),
                dtype=bool,
                count=view.size,
            )
        t = ~nulls if negated else nulls
        return Tri(t, _np.zeros(view.size, dtype=bool))

    return run


_SET_COMPATIBLE = {
    DataType.INTEGER: (int,),
    DataType.FLOAT: (int, float),
    DataType.TEXT: (str,),
    DataType.BOOLEAN: (bool,),
}


def _compile_in(node, resolver, values, negated, contains_null) -> BatchFilter:
    """Set-membership tier for IN over literal members.

    Python set membership hashes ints and floats consistently, so
    ``value in {candidates}`` reproduces ``_compare("=", ...)`` for
    type-compatible members; incompatible members (which would *raise*
    per classic row) stay on the object tier via the caller.
    """
    if not isinstance(node.operand, ColumnRef):
        return _object_tier(node, resolver)
    index, dtype = resolver.resolve(node.operand.name)
    compatible = _SET_COMPATIBLE[dtype]
    for candidate in values:
        if candidate is None:
            continue
        if isinstance(candidate, bool) and dtype is not DataType.BOOLEAN:
            return _object_tier(node, resolver)
        if not isinstance(candidate, compatible):
            return _object_tier(node, resolver)
    members = {
        candidate for candidate in values if candidate is not None
    }
    saw_null = contains_null or any(
        candidate is None for candidate in values
    )

    def run(view: SelView) -> Tri:
        truths: List[Optional[bool]] = []
        for value in view.values(index):
            if value is None:
                truths.append(None)
            elif value in members:
                truths.append(not negated)
            elif saw_null:
                truths.append(None)
            else:
                truths.append(negated)
        return Tri.from_rows(truths)

    return run


def _compile_like(node: Like, resolver) -> BatchFilter:
    if not (
        isinstance(node.operand, ColumnRef)
        and isinstance(node.pattern, Literal)
    ):
        return _object_tier(node, resolver)
    index, dtype = resolver.resolve(node.operand.name)
    pattern = node.pattern.value
    if pattern is None:

        def all_null(view: SelView) -> Tri:
            return Tri.const(view.size, None)

        return all_null
    if dtype is not DataType.TEXT or not isinstance(pattern, str):
        return _object_tier(node, resolver)
    regex = _like_to_regex(pattern)
    negated = node.negated

    def run(view: SelView) -> Tri:
        truths: List[Optional[bool]] = []
        for value in view.values(index):
            if value is None:
                truths.append(None)
            else:
                matched = regex.fullmatch(value) is not None
                truths.append(matched != negated)
        return Tri.from_rows(truths)

    return run


def _compile_between(node: Between, resolver) -> BatchFilter:
    operand, low, high = node.operand, node.low, node.high
    fast_ge = fast_le = None
    if (
        isinstance(operand, ColumnRef)
        and isinstance(low, Literal)
        and isinstance(high, Literal)
        and low.value is not None
        and high.value is not None
    ):
        index, dtype = resolver.resolve(operand.name)
        fast_ge = _compile_col_lit(">=", index, dtype, low.value)
        fast_le = _compile_col_lit("<=", index, dtype, high.value)
    if fast_ge is None or fast_le is None:
        return _object_tier(node, resolver)
    negated = node.negated
    slow = None

    def run(view: SelView) -> Tri:
        nonlocal slow
        ge = fast_ge(view)
        le = fast_le(view)
        if ge is None or le is None:
            if slow is None:
                slow = _object_tier(node, resolver)
            return slow(view)
        # Mirror Between.evaluate's three-valued logic exactly: a NULL
        # bound-side result stays NULL *unless* the other side already
        # decided FALSE (then NOT BETWEEN is TRUE, BETWEEN is FALSE).
        any_null = ge.n | le.n
        any_false = (~ge.t & ~ge.n) | (~le.t & ~le.n)
        both = ge.t & le.t
        if negated:
            t = (~any_null & ~both) | (any_null & any_false)
        else:
            t = ~any_null & both
        n = any_null & ~any_false
        return Tri(t, n)

    return run


def _value_category(value: SQLValue) -> Optional[str]:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "numeric"
    if isinstance(value, str):
        return "text"
    return None


def _leaf_category(expression: Expression, resolver) -> Optional[str]:
    """Type category of a ColumnRef/Literal leaf, or None otherwise
    (an unresolvable column included)."""
    if isinstance(expression, Literal):
        return _value_category(expression.value)
    if isinstance(expression, ColumnRef):
        resolved = resolver.resolve(expression.name)
        if resolved is None:
            return None
        return {
            DataType.INTEGER: "numeric",
            DataType.FLOAT: "numeric",
            DataType.TEXT: "text",
            DataType.BOOLEAN: "bool",
        }[resolved[1]]
    return None


def _comparable(a: Optional[str], b: Optional[str]) -> bool:
    if a is None or b is None:
        return False
    if a == "null" or b == "null":
        return True
    return a == b


def is_safe_bool(expression: Expression, resolver) -> bool:
    """Whether evaluating ``expression`` as a predicate can never raise.

    Load-bearing for error parity: the classic executor evaluates the
    whole WHERE row by row, so the *first* error it raises comes from
    the first offending row. Decomposed batch evaluation runs each
    subtree over all rows, which could surface a different subtree's
    error first. Trees proven raise-free here may be decomposed; any
    other tree is evaluated whole, per row, in classic order.
    """
    if isinstance(expression, Logical):
        return is_safe_bool(expression.left, resolver) and is_safe_bool(
            expression.right, resolver
        )
    if isinstance(expression, Not):
        return is_safe_bool(expression.operand, resolver)
    if isinstance(expression, Comparison):
        return _comparable(
            _leaf_category(expression.left, resolver),
            _leaf_category(expression.right, resolver),
        )
    if isinstance(expression, IsNull):
        return _leaf_category(expression.operand, resolver) is not None
    if isinstance(expression, Between):
        operand = _leaf_category(expression.operand, resolver)
        return _comparable(
            operand, _leaf_category(expression.low, resolver)
        ) and _comparable(operand, _leaf_category(expression.high, resolver))
    if isinstance(expression, Like):
        return _leaf_category(expression.operand, resolver) in (
            "text",
            "null",
        ) and _leaf_category(expression.pattern, resolver) in ("text", "null")
    if isinstance(expression, InList):
        operand = _leaf_category(expression.operand, resolver)
        if operand is None:
            return False
        return all(
            isinstance(item, Literal)
            and _comparable(operand, _value_category(item.value))
            for item in expression.items
        )
    if isinstance(expression, InSet):
        operand = _leaf_category(expression.operand, resolver)
        if operand is None:
            return False
        return all(
            _comparable(operand, _value_category(value))
            for value in expression.values
        )
    if isinstance(expression, Literal):
        return expression.value is None or isinstance(expression.value, bool)
    if isinstance(expression, ColumnRef):
        resolved = resolver.resolve(expression.name)
        return resolved is not None and resolved[1] is DataType.BOOLEAN
    # Arithmetic, Negate, subqueries, unknown nodes: may raise (type
    # errors, division by zero, non-boolean predicate results, unbound
    # subqueries).
    return False


def compile_filter(
    expression: Optional[Expression], resolver
) -> Optional[BatchFilter]:
    """Compile a predicate into a batch evaluator.

    Returns None for an absent predicate (every row passes).
    """
    if expression is None:
        return None
    if not is_safe_bool(expression, resolver):
        # The tree can raise: evaluate it whole, row by row, so the
        # first error comes from the first offending row exactly as on
        # the row tier (batching subtrees would reorder errors).
        return _object_tier(expression, resolver)
    return _compile(expression, resolver)


def _compile(expression: Expression, resolver) -> BatchFilter:
    if isinstance(expression, Logical):
        left = _compile(expression.left, resolver)
        right = _compile(expression.right, resolver)
        combine = tri_and if expression.op == "AND" else tri_or

        def run(view: SelView) -> Tri:
            return combine(left(view), right(view))

        return run
    if isinstance(expression, Not):
        inner = _compile(expression.operand, resolver)

        def run_not(view: SelView) -> Tri:
            return tri_not(inner(view))

        return run_not
    if isinstance(expression, Comparison):
        return _compile_comparison(expression, resolver)
    if isinstance(expression, IsNull):
        return _compile_is_null(expression, resolver)
    if isinstance(expression, Like):
        return _compile_like(expression, resolver)
    if isinstance(expression, Between):
        return _compile_between(expression, resolver)
    if isinstance(expression, InSet):
        return _compile_in(
            expression,
            resolver,
            list(expression.values),
            expression.negated,
            expression.contains_null,
        )
    if isinstance(expression, InList):
        if all(isinstance(item, Literal) for item in expression.items):
            return _compile_in(
                expression,
                resolver,
                [item.value for item in expression.items],
                expression.negated,
                False,
            )
        return _object_tier(expression, resolver)
    if isinstance(expression, Literal):
        value = expression.value
        if value is None or isinstance(value, bool):

            def run_const(view: SelView) -> Tri:
                return Tri.const(view.size, value)

            return run_const
        return _object_tier(expression, resolver)
    # ColumnRef (a bare boolean column), Arithmetic, Negate, and any
    # future node: exact per-row evaluation.
    return _object_tier(expression, resolver)
