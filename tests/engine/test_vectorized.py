"""Unit tests for the vectorized executor.

The equivalence harness (``test_vectorized_equivalence``) proves
*what* the vectorized path returns; these tests pin down *how* it is
selected — dispatch, per-statement fallback, the configuration knob —
and the two hot-path bugs the refactor fixed (integer precision above
2**53, aggregate LIMIT/OFFSET).
"""

import pytest

from repro.core.config import GuardConfig
from repro.engine import Database, Executor, VectorizedExecutor

BIG = 2**53


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER, "
        "s FLOAT)"
    )
    database.insert_rows(
        "t",
        [(i, i % 3, BIG + i, float(i)) for i in range(1, 41)],
    )
    return database


class TestDispatch:
    def test_vectorized_is_the_default_executor(self, db):
        assert isinstance(db.executor, VectorizedExecutor)

    def test_vectorizable_select_marked_and_counted(self, db):
        result = db.execute("SELECT id FROM t WHERE grp = 1")
        assert result.execution_path == "vectorized"
        assert db.execution_path_counts()["vectorized"] == 1
        assert db.execution_path_counts()["classic"] == 0

    def test_unvectorizable_statement_falls_back_per_statement(self, db):
        # A non-equi join has no batch form; the statement (and only
        # the statement) drops to the classic row-at-a-time path.
        result = db.execute(
            "SELECT a.id FROM t a JOIN t b ON a.id < b.id WHERE b.id = 2"
        )
        assert result.execution_path == "classic"
        counts = db.execution_path_counts()
        assert counts["classic"] == 1
        db.execute("SELECT id FROM t WHERE grp = 2")
        assert db.execution_path_counts()["vectorized"] == 1

    def test_configure_execution_pins_classic(self, db):
        db.configure_execution(vectorized=False)
        assert type(db.executor) is Executor
        result = db.execute("SELECT id FROM t WHERE grp = 1")
        assert result.execution_path == "classic"

    def test_dml_unaffected_by_executor_choice(self, db):
        db.execute("UPDATE t SET grp = 9 WHERE id = 1")
        assert db.query("SELECT grp FROM t WHERE id = 1") == [(9,)]
        db.execute("DELETE FROM t WHERE id = 2")
        assert db.query("SELECT id FROM t WHERE id = 2") == []


class TestPrecisionRegressions:
    """The pricing-precision bugs the columnar work exposed."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_big_int_comparisons_never_collapse_to_float(self, vectorized):
        database = Database()
        database.configure_execution(vectorized=vectorized)
        database.execute("CREATE TABLE b (k INTEGER PRIMARY KEY, v INTEGER)")
        database.insert_rows("b", [(1, BIG), (2, BIG + 1), (3, BIG + 2)])
        # float64 cannot tell BIG from BIG + 1; exact ints must.
        assert database.query(
            f"SELECT k FROM b WHERE v = {BIG + 1}"
        ) == [(2,)]
        assert database.query(
            f"SELECT k FROM b WHERE v > {BIG}"
        ) == [(2,), (3,)]
        assert database.query(
            f"SELECT k FROM b WHERE v BETWEEN {BIG + 1} AND {BIG + 1}"
        ) == [(2,)]

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_integer_division_stays_exact_above_2_53(self, vectorized):
        database = Database()
        database.configure_execution(vectorized=vectorized)
        database.execute("CREATE TABLE b (k INTEGER PRIMARY KEY, v INTEGER)")
        big_even = 2 * (BIG + 1)
        database.insert_rows("b", [(1, big_even)])
        # Evenly-divisible int/int stays an exact int: float division
        # would return 2.0 * (BIG + 1) rounded to a multiple of 2.
        rows = database.query("SELECT v / 2 FROM b")
        assert rows == [(BIG + 1,)]
        assert isinstance(rows[0][0], int)

    def test_non_divisible_division_still_true_division(self):
        database = Database()
        database.execute("CREATE TABLE b (k INTEGER PRIMARY KEY)")
        database.insert_rows("b", [(1,)])
        assert database.query("SELECT 7 / 2 FROM b") == [(3.5,)]


class TestConfigKnobs:
    def test_defaults_validate(self):
        GuardConfig().validate()


class TestGuardWiring:
    def test_guard_applies_knobs_to_database(self):
        from repro.core.guard import DelayGuard

        database = Database()
        database.execute("CREATE TABLE g (id INTEGER PRIMARY KEY)")
        DelayGuard(database, config=GuardConfig(vectorized_execution=False))
        assert type(database.executor) is Executor

    def test_guard_counts_execution_paths_when_observable(self):
        from repro.core.guard import DelayGuard
        from repro.obs import Observability

        database = Database()
        database.execute("CREATE TABLE g (id INTEGER PRIMARY KEY)")
        database.insert_rows("g", [(1,), (2,)])
        obs = Observability()
        guard = DelayGuard(
            database,
            config=GuardConfig(result_cache_size=8),
            obs=obs,
        )
        guard.execute("SELECT * FROM g WHERE id = 1", sleep=False)
        guard.execute("SELECT * FROM g WHERE id = 1", sleep=False)
        assert guard._m_execution_path.value(path="vectorized") == 1
        assert guard._m_execution_path.value(path="cached") == 1
