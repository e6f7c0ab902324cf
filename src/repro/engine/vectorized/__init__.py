"""Vectorized columnar execution: the engine's serving tier.

Tables expose cached column arrays (:mod:`.columns`), predicates compile
from the ``expr`` AST into batch evaluators over those arrays
(:mod:`.compiler`), and a
:class:`~repro.engine.vectorized.executor.VectorizedExecutor` sources
rows over positions instead of dicts — filters, hash joins and nested
loops — for every SELECT and for every UPDATE/DELETE's target pick, and
shapes SELECT results with the row tier's own shaper. No statement
shape falls back to the row tier.

The invariant that makes the path safe is **bit-identical output**:
``ResultSet.rows``, ``rowids``, and ``touched`` must equal the row-at-a-
time reference executor's exactly, including ordering, and an erroring
statement must raise its error, because the delay guard prices queries,
maintains popularity counts, and keys its result cache off them. The
differential harness in ``tests/engine/test_vectorized_equivalence.py``
enforces this over a statement corpus, a DML corpus and seeded fuzzing.
"""

from .columns import ColumnBatch
from .compiler import compile_filter
from .executor import VectorizedExecutor

__all__ = [
    "ColumnBatch",
    "compile_filter",
    "VectorizedExecutor",
]
