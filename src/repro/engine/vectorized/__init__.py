"""Vectorized columnar execution.

The classic executor evaluates statements row-at-a-time over per-row
dict contexts. This package provides a columnar path: tables expose
cached column arrays (:mod:`.columns`), predicates compile from the
``expr`` AST into batch evaluators over those arrays (:mod:`.compiler`),
and a :class:`~repro.engine.vectorized.executor.VectorizedExecutor`
sources SELECT rows over positions instead of dicts — filters and hash
joins — and shapes them with the classic executor's own shaper,
falling back to the classic executor for any statement shape it does
not cover.

The invariant that makes the fallback (and the whole path) safe is
**bit-identical output**: ``ResultSet.rows``, ``rowids``, and
``touched`` must equal the classic executor's exactly, including
ordering, because the delay guard prices queries, maintains popularity
counts, and keys its result cache off them. The differential harness
in ``tests/engine/test_vectorized_equivalence.py`` enforces this over
a statement corpus plus seeded fuzzing.
"""

from .columns import ColumnBatch
from .compiler import NotVectorizable, compile_filter
from .executor import VectorizedExecutor

__all__ = [
    "ColumnBatch",
    "NotVectorizable",
    "compile_filter",
    "VectorizedExecutor",
]
