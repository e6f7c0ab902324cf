"""A pure-Python relational database engine.

This subpackage is the *substrate* for the delay-defense reproduction:
the paper deployed its scheme on a commercial RDBMS, so we provide our
own — typed schemas, heap tables with stable rowids, hash/ordered
secondary indexes, an SQL subset, a rule-based planner, and a statement
executor. The delay layer (:mod:`repro.core`) wraps :class:`Database`
without modifying it.
"""

from .catalog import Catalog
from .database import Database, EngineStats
from .durability import (
    RecoveryReport,
    ReplayedEntry,
    replay_entry,
    replay_journal,
)
from .errors import (
    CatalogError,
    ConstraintError,
    EngineError,
    ExecutionError,
    JournalError,
    ParseError,
    TypeMismatchError,
)
from .executor import Executor, ResultSet
from .footprint import FOOTPRINT_FROM, Footprint
from .index import HashIndex, Index, OrderedIndex, create_index
from .journal import (
    JournalRecord,
    JournalScan,
    WriteAheadJournal,
    scan_journal,
)
from .persistence import (
    PersistenceError,
    atomic_write_json,
    dump_database,
    export_csv,
    import_csv,
    load_database,
    open_database,
    save_database,
)
from .planner import AccessPath, candidate_rowids, choose_access_path
from .rwlock import LockError, ReadWriteLock
from .schema import Column, TableSchema, schema
from .table import HeapTable
from .transactions import TransactionError, UndoLog
from .types import DataType, SQLValue
from .vectorized import VectorizedExecutor

__all__ = [
    "AccessPath",
    "Catalog",
    "CatalogError",
    "Column",
    "ConstraintError",
    "DataType",
    "Database",
    "EngineError",
    "EngineStats",
    "ExecutionError",
    "Executor",
    "FOOTPRINT_FROM",
    "Footprint",
    "HashIndex",
    "HeapTable",
    "Index",
    "JournalError",
    "JournalRecord",
    "JournalScan",
    "OrderedIndex",
    "ParseError",
    "PersistenceError",
    "RecoveryReport",
    "ReplayedEntry",
    "ResultSet",
    "SQLValue",
    "TableSchema",
    "TransactionError",
    "TypeMismatchError",
    "UndoLog",
    "VectorizedExecutor",
    "WriteAheadJournal",
    "atomic_write_json",
    "candidate_rowids",
    "choose_access_path",
    "create_index",
    "dump_database",
    "export_csv",
    "import_csv",
    "load_database",
    "open_database",
    "replay_entry",
    "replay_journal",
    "save_database",
    "scan_journal",
    "schema",
]
