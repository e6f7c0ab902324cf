"""Property tests: a patched ColumnBatch equals a rebuilt one.

``HeapTable._notify`` keeps the table's columnar view current by
patching it (``ColumnBatch.apply``) instead of dropping it. Pricing
reads ``touched`` off that view, so the only admissible patch is one
that leaves the view *indistinguishable* from
``ColumnBatch.from_table(table)``: same rowids, same value lists, same
numpy arrays and null masks (or the same refusal to have any), same
``position_of``. These tests drive random DML — including pk changes,
NULLs, values outside int64 and back, failed multi-row INSERTs and
explicit ROLLBACKs — with reads interleaved so numpy pairs exist when
the patches run, and compare after every step.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.errors import EngineError
from repro.engine.vectorized import ColumnBatch
from repro.engine.vectorized import columns as columns_module

INT64_MAX = 2**63 - 1


def fresh_db(rows=12):
    db = Database()
    db.execute(
        "CREATE TABLE p (id INTEGER PRIMARY KEY, n INTEGER, x FLOAT, "
        "s TEXT, b BOOLEAN)"
    )
    db.execute("CREATE INDEX p_n ON p (n)")
    db.insert_rows(
        "p",
        [(i, i % 5, i / 2, f"s{i}", i % 2 == 0) for i in range(1, rows + 1)],
    )
    return db


def assert_numpy_equal(live, fresh, index):
    live_values, live_nulls = live.numpy_column(index)
    fresh_values, fresh_nulls = fresh.numpy_column(index)
    if fresh_values is None:
        assert live_values is None and live_nulls is None
        return
    assert live_values is not None, f"column {index} lost its arrays"
    assert live_values.dtype == fresh_values.dtype
    assert np.array_equal(live_values, fresh_values)
    assert live_nulls.dtype == fresh_nulls.dtype
    assert np.array_equal(live_nulls, fresh_nulls)


def assert_live_equals_rebuild(table, every_column=False):
    """The table's live view against a from-scratch build of the heap.

    Numpy pairs are compared for the columns the live view has already
    built (those are the ones patches touched); ``every_column`` also
    forces and compares the rest.
    """
    live = table.column_batch()
    fresh = ColumnBatch.from_table(table)
    assert live.version == fresh.version == table.version
    assert live.rowids == fresh.rowids
    # repr: 1 / 1.0 / True must not pass for one another
    assert repr(live.columns) == repr(fresh.columns)
    built = range(len(live.columns)) if every_column else list(live._np_cache)
    for index in built:
        assert_numpy_equal(live, fresh, index)
    for position, rowid in enumerate(fresh.rowids):
        assert live.position_of(rowid) == position
        assert fresh.position_of(rowid) == position
    dead = max(fresh.rowids, default=0) + 1
    assert live.position_of(dead) is None
    assert live.position_of(0) is None


# -- the random driver --------------------------------------------------------

ids = st.integers(min_value=1, max_value=24)
n_values = st.sampled_from(
    [None, 0, 3, -7, INT64_MAX, -INT64_MAX - 1, INT64_MAX + 1, -(2**70)]
)
x_values = st.sampled_from([None, 0.0, -1.5, 2.25, 1e18])
s_values = st.sampled_from([None, "", "ant", "bee"])
b_values = st.sampled_from([None, True, False])
payload = st.tuples(n_values, x_values, s_values, b_values)

READS = [
    # full scans on the numpy tier: build the (values, nulls) pairs
    "SELECT id FROM p WHERE n >= 0 AND x < 100.0",
    "SELECT COUNT(*) FROM p WHERE b = TRUE OR x IS NULL",
    # pk and index paths: position_of
    "SELECT * FROM p WHERE id = 7",
    "SELECT id FROM p WHERE n = 3",
    "SELECT s FROM p WHERE s LIKE 'a%'",
]

single_ops = st.one_of(
    st.tuples(st.just("insert"), ids, payload),
    st.tuples(st.just("update"), ids, payload),
    st.tuples(st.just("move"), ids, ids),
    st.tuples(st.just("delete"), ids),
    st.tuples(st.just("bad_insert"), ids, ids, payload),
    st.tuples(st.just("read"), st.sampled_from(READS)),
)
operations = st.lists(
    st.one_of(
        single_ops,
        st.tuples(st.just("rolled_back"), st.lists(single_ops, max_size=6)),
    ),
    max_size=25,
)


def literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def run_operation(db, table, operation):
    kind = operation[0]
    if kind == "rolled_back":
        db.execute("BEGIN")
        for inner in operation[1]:
            run_operation(db, table, inner)
        db.execute("ROLLBACK")
        assert_live_equals_rebuild(table)
        return
    if kind == "read":
        sql = operation[1]
    elif kind == "insert":
        _, key, (n, x, s, b) = operation
        sql = (
            f"INSERT INTO p VALUES ({key}, {literal(n)}, {literal(x)}, "
            f"{literal(s)}, {literal(b)})"
        )
    elif kind == "update":
        _, key, (n, x, s, b) = operation
        sql = (
            f"UPDATE p SET n = {literal(n)}, x = {literal(x)}, "
            f"s = {literal(s)}, b = {literal(b)} WHERE id = {key}"
        )
    elif kind == "move":
        _, key, target = operation
        sql = f"UPDATE p SET id = {target} WHERE id = {key}"
    elif kind == "delete":
        sql = f"DELETE FROM p WHERE id = {operation[1]}"
    else:  # bad_insert: the third row repeats the first one's pk
        _, first, second, (n, x, s, b) = operation
        row = f"{literal(n)}, {literal(x)}, {literal(s)}, {literal(b)}"
        sql = (
            f"INSERT INTO p VALUES ({first + 100}, {row}), "
            f"({second + 200}, {row}), ({first + 100}, {row})"
        )
    try:
        db.execute(sql)
    except EngineError:
        pass  # duplicate pk and friends: the statement rolled itself back
    assert_live_equals_rebuild(table)


class TestPatchedEqualsRebuilt:
    @given(operations)
    @settings(max_examples=120, deadline=None)
    def test_random_dml_keeps_the_live_view_exact(self, ops):
        db = fresh_db()
        table = db.catalog.table("p")
        assert_live_equals_rebuild(table)
        for operation in ops:
            run_operation(db, table, operation)
        assert_live_equals_rebuild(table, every_column=True)
        # Every comparison above was against a view that was patched,
        # never one the table had quietly rebuilt.
        assert table.batch_builds == 1
        assert table.batch_drops == 0

    def test_int64_overflow_and_back(self):
        """A value beyond int64 sends the column to the object tier;
        overwriting or deleting it brings the arrays back."""
        db = fresh_db()
        table = db.catalog.table("p")
        db.execute("SELECT id FROM p WHERE n >= 0")
        assert table.column_batch().numpy_column(1)[0] is not None
        db.execute(f"UPDATE p SET n = {INT64_MAX + 1} WHERE id = 3")
        assert table.column_batch().numpy_column(1) == (None, None)
        assert_live_equals_rebuild(table, every_column=True)
        db.execute(f"INSERT INTO p VALUES (50, {-(2**70)}, 1.0, 'z', TRUE)")
        assert_live_equals_rebuild(table, every_column=True)
        db.execute(f"UPDATE p SET n = {INT64_MAX} WHERE id = 3")
        assert table.column_batch().numpy_column(1) == (None, None)
        db.execute("DELETE FROM p WHERE id = 50")
        assert table.column_batch().numpy_column(1)[0] is not None
        assert_live_equals_rebuild(table, every_column=True)
        rows = db.execute(f"SELECT id FROM p WHERE n = {INT64_MAX}").rows
        assert rows == [(3,)]
        assert table.batch_builds == 1

    def test_rolled_back_delete_leaves_rowids_out_of_order(self):
        """restore() re-inserts at the end of scan order: the view takes
        it as an append and position_of stops bisecting."""
        db = fresh_db()
        table = db.catalog.table("p")
        db.execute("SELECT id FROM p WHERE n >= 0")
        db.execute("BEGIN")
        db.execute("DELETE FROM p WHERE id = 4")
        db.execute("ROLLBACK")
        live = table.column_batch()
        assert live.rowids[-1] == 4
        assert live.rowids != sorted(live.rowids)
        assert_live_equals_rebuild(table, every_column=True)
        db.execute("DELETE FROM p WHERE id = 2")
        db.execute("UPDATE p SET n = 77 WHERE id = 4")
        db.execute("INSERT INTO p VALUES (60, 1, 1.0, 'n', FALSE)")
        assert_live_equals_rebuild(table, every_column=True)
        assert db.execute("SELECT n FROM p WHERE id = 4").rows == [(77,)]
        assert table.batch_builds == 1


class TestDropInsteadOfPatch:
    def test_failing_patch_costs_a_rebuild_never_a_stale_view(
        self, monkeypatch
    ):
        db = fresh_db()
        table = db.catalog.table("p")
        stale = table.column_batch()

        def boom(self, *args):
            self.rowids.append(-1)  # a half-done patch
            raise RuntimeError("patch failed")

        monkeypatch.setattr(ColumnBatch, "apply", boom)
        db.execute("UPDATE p SET n = 9 WHERE id = 1")
        monkeypatch.undo()
        live = table.column_batch()
        assert live is not stale
        assert (table.batch_builds, table.batch_drops) == (2, 1)
        assert_live_equals_rebuild(table, every_column=True)
        assert db.execute("SELECT n FROM p WHERE id = 1").rows == [(9,)]

    def test_unknown_event_drops_the_view(self):
        db = fresh_db()
        table = db.catalog.table("p")
        stale = table.column_batch()
        row = table.get(1)
        assert not stale.apply("truncate", 1, row, None, table.version + 1)
        table._notify("truncate", 1, row)
        assert table.batch_drops == 1
        assert table.column_batch() is not stale
        assert_live_equals_rebuild(table, every_column=True)

    def test_bulk_statements_drop_after_a_bounded_number_of_copies(self):
        """Each DELETE (and each INSERT once numpy pairs exist) copies
        O(n); a bulk statement gets a constant number of them, not one
        per row, so deleting half the table stays linear."""
        rows = 20_000
        bound = columns_module.MAX_UNREAD_COPIES
        db = fresh_db(rows=rows)
        table = db.catalog.table("p")
        db.execute("SELECT id FROM p WHERE n >= 0 AND x < 100.0")
        assert table.batch_builds == 1

        db.execute(f"DELETE FROM p WHERE id <= {rows // 2}")
        assert len(table) == rows // 2
        assert (table.batch_patches, table.batch_drops) == (bound, 1)
        assert_live_equals_rebuild(table, every_column=True)
        assert table.batch_builds == 2

        db.execute("SELECT id FROM p WHERE n >= 0 AND x < 100.0")
        fresh = [(rows + i, 1, 1.0, "new", True) for i in range(1, 5001)]
        db.insert_rows("p", fresh)
        assert (table.batch_patches, table.batch_drops) == (2 * bound, 2)
        assert_live_equals_rebuild(table, every_column=True)

    def test_bulk_load_before_any_read_builds_nothing(self):
        db = fresh_db(rows=500)
        table = db.catalog.table("p")
        assert table._column_batch is None
        assert (table.batch_builds, table.batch_patches) == (0, 0)

    def test_appends_without_numpy_pairs_are_not_rationed(self):
        db = fresh_db()
        table = db.catalog.table("p")
        table.column_batch()
        count = 4 * columns_module.MAX_UNREAD_COPIES
        db.insert_rows(
            "p", [(100 + i, i, 0.5, "a", None) for i in range(count)]
        )
        assert (table.batch_patches, table.batch_drops) == (count, 0)
        assert_live_equals_rebuild(table, every_column=True)


def test_cold_numpy_build_forms():
    """One-pass fromiter builds: dtypes, NULL fill, overflow verdict."""
    db = fresh_db(rows=4)
    db.execute("INSERT INTO p VALUES (9, NULL, NULL, NULL, NULL)")
    batch = db.catalog.table("p").column_batch()
    n_values, n_nulls = batch.numpy_column(1)
    assert n_values.dtype == np.int64 and n_values.tolist() == [1, 2, 3, 4, 0]
    assert n_nulls.tolist() == [False, False, False, False, True]
    x_values, _ = batch.numpy_column(2)
    assert x_values.dtype == np.float64 and x_values[-1] == 0.0
    assert batch.numpy_column(3) == (None, None)
    b_values, b_nulls = batch.numpy_column(4)
    assert b_values.dtype == np.bool_ and b_nulls[-1]
    db.execute(f"INSERT INTO p VALUES (10, {INT64_MAX + 1}, 0.0, 'x', TRUE)")
    rebuilt = ColumnBatch.from_table(db.catalog.table("p"))
    assert rebuilt.numpy_column(1) == (None, None)


class TestRowidArray:
    """The int64 rowid array (``numpy_rowids``) rides the same patches
    as the numpy columns, never leaves the batch, and is built only by
    a statement that asks for it."""

    AGGREGATE = "SELECT COUNT(*), SUM(n) FROM p WHERE x >= 0"

    def assert_array_matches(self, table):
        batch = table.column_batch()
        array = batch.numpy_rowids()
        assert array.dtype == np.int64 and not array.flags.writeable
        assert np.array_equal(array, np.asarray(batch.rowids))
        assert np.array_equal(
            batch.positions_of(batch.rowids[::-1] + [10**6]),
            np.arange(len(batch))[::-1],
        )

    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_random_dml_keeps_the_array_exact(self, ops):
        db = fresh_db()
        table = db.catalog.table("p")
        db.execute(self.AGGREGATE)
        assert table.column_batch()._np_rowids is not None
        for operation in ops:
            run_operation(db, table, operation)
            self.assert_array_matches(table)
        assert table.batch_drops == 0

    def test_insert_update_delete_restore_and_rollback(self):
        db = fresh_db()
        table = db.catalog.table("p")
        db.execute(self.AGGREGATE)
        statements = [
            "INSERT INTO p VALUES (40, 1, 1.0, 'a', TRUE)",
            "UPDATE p SET n = 9, id = 41 WHERE id = 40",
            "DELETE FROM p WHERE id = 3",
        ]
        for sql in statements:
            db.execute(sql)
            self.assert_array_matches(table)
        db.execute("BEGIN")
        db.execute("DELETE FROM p WHERE id = 5")
        db.execute("INSERT INTO p VALUES (50, 1, 1.0, 'b', FALSE)")
        db.execute("ROLLBACK")  # restore(5) lands at the end of the scan
        self.assert_array_matches(table)
        assert table.column_batch().rowids[-1] == 5
        assert table.batch_builds == 1 and table.batch_drops == 0

    def test_the_copy_budget_still_drops_the_batch(self):
        bound = columns_module.MAX_UNREAD_COPIES
        db = fresh_db(rows=4 * bound)
        table = db.catalog.table("p")
        db.execute("SELECT COUNT(*) FROM p")  # rowid array, no column
        assert table.column_batch()._np_cache == {}
        db.insert_rows(
            "p", [(1000 + i, 1, 1.0, "z", None) for i in range(2 * bound)]
        )
        assert (table.batch_patches, table.batch_drops) == (bound, 1)
        assert_live_equals_rebuild(table, every_column=True)

    def test_a_footprint_never_aliases_the_array(self):
        db = fresh_db(rows=200)
        table = db.catalog.table("p")
        result = db.execute("SELECT COUNT(*) FROM p WHERE n >= 0")
        array = table.column_batch().numpy_rowids()
        assert len(result.touched) >= 48
        assert not np.shares_memory(result.touched.rowids, array)
        before = result.touched.rowids.copy()
        db.execute("DELETE FROM p WHERE id = 5")
        assert np.array_equal(result.touched.rowids, before)

    def test_rowids_past_int64_keep_the_scalar_path(self):
        db = fresh_db()
        table = db.catalog.table("p")
        batch = table.column_batch()
        batch.rowids.append(INT64_MAX + 1)  # as if the heap allocated it
        batch._ascending = batch.rowids == sorted(batch.rowids)
        assert batch.numpy_rowids() is None
        assert batch.positions_of([INT64_MAX + 1, 2, 99]).tolist() == [12, 1]

    def test_mixed_rw_statement_shapes_never_build_the_array(self):
        db = fresh_db(rows=300)
        table = db.catalog.table("p")
        for key in range(1, 60):
            db.execute(f"SELECT * FROM p WHERE id = {key}")
            db.execute(f"SELECT * FROM p WHERE id >= {key} AND id < {key + 10}")
            db.execute(f"UPDATE p SET x = {key / 4} WHERE id = {key}")
            db.execute(f"INSERT INTO p VALUES ({1000 + key}, 1, 2.0, 'n', TRUE)")
            db.execute(f"DELETE FROM p WHERE id = {1000 + key}")
        assert table.column_batch()._np_rowids is None

    def test_a_large_index_probe_builds_it_and_a_small_one_does_not(self):
        db = fresh_db(rows=300)
        table = db.catalog.table("p")
        db.execute("SELECT id FROM p WHERE n = 3 AND id < 20")  # 60 hits
        assert table.column_batch()._np_rowids is not None
        db = fresh_db(rows=100)
        db.execute("SELECT id FROM p WHERE n = 3")  # 20 candidates
        assert db.catalog.table("p").column_batch()._np_rowids is None
