"""Differential harness: vectorized executor == classic executor.

The vectorized path is only admissible because it is *bit-identical*
to the row-at-a-time executor: the guard prices delay off
``ResultSet.touched``, records popularity off the same, and keys the
result cache off the emitted rows — any divergence silently corrupts
the defense. This harness runs every statement through both executors
over the same catalog and asserts equality of columns, rows (by
``repr``, so ``1`` vs ``1.0`` and ``True`` vs ``1`` cannot slip
through), rowids, touched, and rowcount — or that both raise the same
error.

Coverage is a fixed corpus (every statement shape the engine parses)
plus a seeded random fuzzer over NULL-heavy tables with >2**53
integers and mixed int/float columns.
"""

import random

import pytest

from repro.core.clock import VirtualClock
from repro.core.config import GuardConfig
from repro.core.guard import DelayGuard
from repro.engine import Database, Executor
from repro.engine.errors import EngineError, ExecutionError
from repro.engine.parser import parse
from repro.engine.vectorized import VectorizedExecutor

BIG = 2**53  # above float64's exact-integer range

# -- shared fixture data ------------------------------------------------------


def populate(db: Database) -> Database:
    """Deterministic schema + data exercising every dtype and NULLs."""
    db.execute(
        "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, "
        "age INTEGER, score FLOAT, active BOOLEAN)"
    )
    db.execute(
        "INSERT INTO users VALUES "
        "(1, 'alice', 30, 9.5, TRUE), "
        "(2, 'bob', 25, 7.0, FALSE), "
        "(3, 'carol', NULL, NULL, TRUE), "
        "(4, 'dave', 25, 8.0, NULL), "
        "(5, NULL, 40, 6.25, FALSE), "
        "(6, 'erin', 35, 9.5, TRUE)"
    )
    db.execute(
        "CREATE TABLE orders (oid INTEGER PRIMARY KEY, uid INTEGER, "
        "amount FLOAT, item TEXT)"
    )
    db.execute(
        "INSERT INTO orders VALUES "
        "(10, 1, 99.5, 'book'), (11, 2, 5.0, 'pen'), "
        "(12, 1, 42.0, 'lamp'), (13, 7, 1.25, 'gum'), "
        "(14, NULL, 8.5, 'mug'), (15, 4, NULL, 'bag')"
    )
    db.execute("CREATE TABLE big (k INTEGER PRIMARY KEY, v INTEGER)")
    db.execute(
        f"INSERT INTO big VALUES (1, {BIG + 1}), (2, {BIG + 2}), "
        f"(3, {BIG}), (4, {-BIG - 1}), (5, NULL)"
    )
    return db


@pytest.fixture(scope="module")
def db():
    return populate(Database())


def run_both(db, sql):
    """Execute through both executors; assert identical outcome."""
    statement = parse(sql)
    classic = Executor(db.catalog)
    vectorized = VectorizedExecutor(db.catalog)
    try:
        expected = classic.execute(statement)
        expected_error = None
    except ExecutionError as error:
        expected, expected_error = None, error
    try:
        actual = vectorized.execute(parse(sql))
        actual_error = None
    except ExecutionError as error:
        actual, actual_error = None, error
    if expected_error is not None or actual_error is not None:
        assert repr(actual_error) == repr(expected_error), sql
        return None
    assert actual.columns == expected.columns, sql
    # repr equality: values AND concrete types AND order must agree,
    # because pricing/popularity/cache keys derive from all three.
    assert repr(actual.rows) == repr(expected.rows), sql
    assert actual.rowids == expected.rowids, sql
    assert actual.touched == expected.touched, sql
    assert actual.rowcount == expected.rowcount, sql
    return actual


CORPUS = [
    # plain scans / predicates, every comparison operator
    "SELECT * FROM users",
    "SELECT id, name FROM users WHERE age = 25",
    "SELECT id FROM users WHERE age != 25",
    "SELECT id FROM users WHERE age < 30",
    "SELECT id FROM users WHERE age <= 30",
    "SELECT id FROM users WHERE age > 25",
    "SELECT id FROM users WHERE age >= 35",
    "SELECT id FROM users WHERE score = 9.5",
    "SELECT id FROM users WHERE name = 'alice'",
    "SELECT id FROM users WHERE active = TRUE",
    "SELECT id FROM users WHERE active = FALSE",
    # int column vs float literal (canonicalised comparisons)
    "SELECT id FROM users WHERE age < 27.5",
    "SELECT id FROM users WHERE age <= 24.9",
    "SELECT id FROM users WHERE age > 29.5",
    "SELECT id FROM users WHERE age >= 25.0",
    "SELECT id FROM users WHERE age = 25.0",
    "SELECT id FROM users WHERE age = 25.5",
    "SELECT id FROM users WHERE age != 25.5",
    # float column vs int literal
    "SELECT id FROM users WHERE score > 7",
    "SELECT id FROM users WHERE score = 7",
    # NULL semantics
    "SELECT id FROM users WHERE score = NULL",
    "SELECT id FROM users WHERE score IS NULL",
    "SELECT id FROM users WHERE score IS NOT NULL",
    "SELECT id FROM users WHERE NOT (age = 25)",
    "SELECT id FROM users WHERE age = 25 AND score > 7.5",
    "SELECT id FROM users WHERE age = 25 OR score IS NULL",
    "SELECT id FROM users WHERE NOT (age = 25 OR active)",
    "SELECT id FROM users WHERE active",
    "SELECT id FROM users WHERE active AND score > 7",
    # IN / BETWEEN / LIKE
    "SELECT id FROM users WHERE age IN (25, 35)",
    "SELECT id FROM users WHERE age IN (25, NULL)",
    "SELECT id FROM users WHERE age NOT IN (25, 35)",
    "SELECT id FROM users WHERE age NOT IN (25, NULL)",
    "SELECT id FROM users WHERE age IN (25.0, 35.5)",
    "SELECT id FROM users WHERE age BETWEEN 25 AND 30",
    "SELECT id FROM users WHERE age BETWEEN 26.5 AND 35.5",
    "SELECT id FROM users WHERE age NOT BETWEEN 25 AND 30",
    "SELECT id FROM users WHERE name LIKE 'a%'",
    "SELECT id FROM users WHERE name LIKE '%o%'",
    "SELECT id FROM users WHERE name LIKE '_ob'",
    "SELECT id FROM users WHERE name NOT LIKE '%a%'",
    # arithmetic (object tier: may raise, must match error-for-error)
    "SELECT id FROM users WHERE age * 2 > 50",
    "SELECT id FROM users WHERE age + score > 33",
    "SELECT id, age * 2 AS doubled FROM users WHERE id <= 3",
    "SELECT id, age / 2 FROM users WHERE id = 1",
    "SELECT id FROM users WHERE name > 5",
    "SELECT id FROM users WHERE age > 'x'",
    # big integers beyond float64 exactness
    "SELECT k FROM big WHERE v = " + str(BIG + 1),
    "SELECT k FROM big WHERE v > " + str(BIG),
    "SELECT k FROM big WHERE v < " + str(-BIG),
    "SELECT k, v FROM big WHERE v != " + str(BIG + 2),
    "SELECT k FROM big WHERE v IN (" + str(BIG + 1) + ", " + str(BIG) + ")",
    "SELECT k FROM big WHERE v BETWEEN " + str(BIG) + " AND " + str(BIG + 2),
    # ordering / slicing / distinct
    "SELECT id FROM users ORDER BY age DESC, name ASC",
    "SELECT id FROM users ORDER BY score",
    "SELECT id FROM users ORDER BY id LIMIT 2 OFFSET 1",
    "SELECT id FROM users ORDER BY id DESC LIMIT 3",
    "SELECT id FROM users LIMIT 0",
    "SELECT DISTINCT age FROM users ORDER BY age",
    "SELECT DISTINCT age, active FROM users",
    # aggregates (with and without LIMIT/OFFSET — the classic bugfix)
    "SELECT COUNT(*) FROM users",
    "SELECT COUNT(score) FROM users",
    "SELECT COUNT(DISTINCT age) FROM users",
    "SELECT SUM(age), AVG(score) FROM users",
    "SELECT MIN(score), MAX(score) FROM users",
    "SELECT SUM(v) FROM big",
    "SELECT AVG(v) FROM big",
    "SELECT COUNT(*) FROM users LIMIT 0",
    "SELECT COUNT(*) FROM users LIMIT 1 OFFSET 1",
    "SELECT SUM(amount) FROM orders WHERE uid = 1",
    # grouping
    "SELECT age, COUNT(*) FROM users GROUP BY age",
    "SELECT age, COUNT(*) FROM users GROUP BY age ORDER BY age",
    "SELECT age, SUM(score) AS s, COUNT(*) AS n FROM users "
    "GROUP BY age HAVING n > 1",
    "SELECT age, active, COUNT(*) FROM users GROUP BY age, active",
    "SELECT age, COUNT(*) FROM users GROUP BY age ORDER BY age LIMIT 2",
    "SELECT age, COUNT(*) FROM users GROUP BY age "
    "ORDER BY age LIMIT 2 OFFSET 1",
    # joins
    "SELECT users.name, orders.item FROM users "
    "JOIN orders ON users.id = orders.uid",
    "SELECT users.name, orders.item FROM users "
    "JOIN orders ON users.id = orders.uid ORDER BY orders.oid",
    "SELECT users.name, orders.item FROM users "
    "LEFT JOIN orders ON users.id = orders.uid ORDER BY users.id",
    "SELECT users.name, orders.amount FROM users "
    "JOIN orders ON users.id = orders.uid WHERE orders.amount > 40",
    "SELECT u.name, o.item FROM users u JOIN orders o ON u.id = o.uid",
    "SELECT u.name, o.item FROM users u JOIN orders o ON u.id < o.uid "
    "WHERE o.oid = 10",
    "SELECT COUNT(*) FROM users JOIN orders ON users.id = orders.uid",
    "SELECT users.age, COUNT(*) FROM users "
    "JOIN orders ON users.id = orders.uid GROUP BY users.age",
    # subqueries (bound before the vectorized path sees them)
    "SELECT id FROM users WHERE id IN (SELECT uid FROM orders)",
    "SELECT id FROM users WHERE age > (SELECT MIN(age) FROM users)",
]


@pytest.mark.parametrize("sql", CORPUS)
def test_corpus_statement(db, sql):
    run_both(db, sql)


def test_corpus_actually_exercises_vectorized_path(db):
    """Guard against the harness silently comparing classic-vs-classic."""
    vectorized = VectorizedExecutor(db.catalog)
    for sql in CORPUS:
        try:
            vectorized.execute(parse(sql))
        except ExecutionError:
            pass
    assert vectorized.path_counts["vectorized"] > len(CORPUS) // 2


# -- seeded fuzz --------------------------------------------------------------

_COLUMNS = {
    "a": "INTEGER",
    "b": "INTEGER",
    "c": "FLOAT",
    "d": "TEXT",
    "e": "BOOLEAN",
}
_WORDS = ["ant", "bee", "cat", "dog", "eel", "fox", ""]


def _random_value(rng, dtype, null_probability=0.3):
    if rng.random() < null_probability:
        return "NULL"
    if dtype == "INTEGER":
        return str(
            rng.choice(
                [
                    rng.randint(-5, 5),
                    rng.randint(-100, 100),
                    BIG + rng.randint(-2, 2),
                    -BIG + rng.randint(-2, 2),
                ]
            )
        )
    if dtype == "FLOAT":
        return repr(
            rng.choice(
                [
                    float(rng.randint(-5, 5)),
                    rng.random() * 10,
                    rng.random() * 1e9,
                ]
            )
        )
    if dtype == "TEXT":
        return "'" + rng.choice(_WORDS) + "'"
    return rng.choice(["TRUE", "FALSE"])


def _random_literal(rng, column):
    # Deliberately mismatched literal types sometimes: float literals
    # against INTEGER columns (canonicalisation tier) and vice versa.
    dtype = _COLUMNS[column]
    if dtype in ("INTEGER", "FLOAT") and rng.random() < 0.4:
        dtype = "FLOAT" if dtype == "INTEGER" else "INTEGER"
    return _random_value(rng, dtype, null_probability=0.05)


def _random_predicate(rng, depth=0):
    if depth < 2 and rng.random() < 0.4:
        op = rng.choice(["AND", "OR"])
        left = _random_predicate(rng, depth + 1)
        right = _random_predicate(rng, depth + 1)
        clause = f"({left}) {op} ({right})"
        return f"NOT ({clause})" if rng.random() < 0.2 else clause
    column = rng.choice(list(_COLUMNS))
    kind = rng.random()
    if kind < 0.5:
        cmp = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"{column} {cmp} {_random_literal(rng, column)}"
    if kind < 0.65:
        return f"{column} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    if kind < 0.8:
        items = ", ".join(
            _random_literal(rng, column) for _ in range(rng.randint(1, 4))
        )
        return f"{column} IN ({items})"
    if kind < 0.9 and _COLUMNS[column] in ("INTEGER", "FLOAT"):
        low = _random_literal(rng, column)
        high = _random_literal(rng, column)
        return f"{column} BETWEEN {low} AND {high}"
    if _COLUMNS[column] == "TEXT":
        pattern = rng.choice(["a%", "%e%", "_at", "%", "fox"])
        return f"{column} LIKE '{pattern}'"
    return f"{column} {rng.choice(['=', '<'])} {_random_literal(rng, column)}"


def _random_statement(rng):
    where = f" WHERE {_random_predicate(rng)}" if rng.random() < 0.85 else ""
    tail = ""
    if rng.random() < 0.4:
        keys = rng.sample(["a", "c", "d", "pk"], rng.randint(1, 2))
        tail += " ORDER BY " + ", ".join(
            f"{key} {rng.choice(['ASC', 'DESC'])}" for key in keys
        )
    if rng.random() < 0.4:
        tail += f" LIMIT {rng.randint(0, 8)}"
        if rng.random() < 0.5:
            tail += f" OFFSET {rng.randint(0, 4)}"
    roll = rng.random()
    if roll < 0.15:
        return f"SELECT COUNT(*), SUM(a), MIN(c), MAX(d) FROM f{where}"
    if roll < 0.3:
        having = " HAVING n > 1" if rng.random() < 0.5 else ""
        order = " ORDER BY a" if "ORDER" not in tail else ""
        limit = tail[tail.index(" LIMIT"):] if " LIMIT" in tail else ""
        return (
            f"SELECT a, COUNT(*) AS n, SUM(c) AS s FROM f{where} "
            f"GROUP BY a{having}{order}{limit}"
        )
    distinct = "DISTINCT " if rng.random() < 0.2 else ""
    items = rng.choice(["*", "pk, a, c", "a, d", "pk, a + 1, c * 2"])
    if distinct and items == "*":
        items = "a, e"
    return f"SELECT {distinct}{items} FROM f{where}{tail}"


def _random_row(rng, pk):
    return "({}, {}, {}, {}, {}, {})".format(
        pk,
        _random_value(rng, "INTEGER"),
        _random_value(rng, "INTEGER"),
        _random_value(rng, "FLOAT"),
        _random_value(rng, "TEXT"),
        _random_value(rng, "BOOLEAN"),
    )


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_equivalence(seed):
    rng = random.Random(1000 + seed)
    database = Database()
    database.execute(
        "CREATE TABLE f (pk INTEGER PRIMARY KEY, a INTEGER, b INTEGER, "
        "c FLOAT, d TEXT, e BOOLEAN)"
    )
    rows = ", ".join(_random_row(rng, pk) for pk in range(1, 151))
    database.execute(f"INSERT INTO f VALUES {rows}")
    for _ in range(40):
        run_both(database, _random_statement(rng))


def _random_single_row_dml(rng, next_pk):
    """One INSERT / UPDATE (sometimes of the pk) / DELETE of one row;
    some hit no row or a duplicate key, which must fail alike."""
    roll = rng.random()
    target = rng.randint(1, next_pk)
    if roll < 0.3:
        pk = next_pk if rng.random() < 0.8 else target
        return f"INSERT INTO f VALUES {_random_row(rng, pk)}"
    if roll < 0.45:
        return f"DELETE FROM f WHERE pk = {target}"
    if roll < 0.55:
        moved = rng.randint(1, next_pk + 5)
        return f"UPDATE f SET pk = {moved} WHERE pk = {target}"
    column = rng.choice(["a", "b", "c", "d", "e"])
    value = _random_value(rng, _COLUMNS[column])
    return f"UPDATE f SET {column} = {value} WHERE pk = {target}"


def _outcome(database, sql):
    try:
        result = database.execute(sql)
    except EngineError as error:
        return repr(error)
    return (
        result.columns,
        repr(result.rows),
        result.rowids,
        result.touched,
        result.rowcount,
    )


@pytest.mark.parametrize("seed", range(6))
def test_fuzz_equivalence_under_writes(seed):
    """The same interleaving of single-row DML and SELECTs on a
    vectorized database (whose column batch is patched by every write)
    and on one pinned to the classic executor: bit-identical rows,
    rowids and touched, statement by statement."""
    rng = random.Random(2000 + seed)
    vectorized, classic = Database(), Database()
    classic.configure_execution(vectorized=False)
    load = "INSERT INTO f VALUES " + ", ".join(
        _random_row(rng, pk) for pk in range(1, 81)
    )
    for database in (vectorized, classic):
        database.execute(
            "CREATE TABLE f (pk INTEGER PRIMARY KEY, a INTEGER, "
            "b INTEGER, c FLOAT, d TEXT, e BOOLEAN)"
        )
        database.execute("CREATE INDEX f_a ON f (a)")
        database.execute(load)
    next_pk = 81
    for _ in range(40):
        for _ in range(rng.randint(1, 3)):
            dml = _random_single_row_dml(rng, next_pk)
            next_pk += 1
            assert _outcome(vectorized, dml) == _outcome(classic, dml), dml
        select = _random_statement(rng)
        assert _outcome(vectorized, select) == _outcome(classic, select), (
            select
        )
    table = vectorized.catalog.table("f")
    assert table.batch_patches > 0 and table.batch_builds == 1
    assert vectorized.execution_path_counts()["vectorized"] > 0
    assert classic.catalog.table("f").batch_builds == 0


# -- end-to-end pricing equality ---------------------------------------------


def _make_guard(vectorized):
    database = populate(Database())
    if not vectorized:
        database.configure_execution(vectorized=False)
    guard = DelayGuard(
        database,
        config=GuardConfig(policy="popularity", cap=None, unit=1.0),
        clock=VirtualClock(),
    )
    return guard


def test_guard_priced_delay_identical_across_executors():
    """Same workload, same config: delays must agree to the last bit.

    Delay is a function of touched tuples and popularity history; if
    the vectorized path produced even one different rowid the charged
    delays would diverge somewhere in this sequence.
    """
    workload = [
        "SELECT * FROM users WHERE age = 25",
        "SELECT * FROM users WHERE age = 25",
        "SELECT users.name, orders.item FROM users "
        "JOIN orders ON users.id = orders.uid",
        "SELECT COUNT(*) FROM users",
        "SELECT age, COUNT(*) AS n FROM users GROUP BY age HAVING n > 1",
        "SELECT id FROM users ORDER BY id LIMIT 2 OFFSET 1",
        "SELECT k FROM big WHERE v > " + str(BIG),
        "SELECT * FROM users WHERE score IS NULL",
    ]
    classic_guard = _make_guard(vectorized=False)
    vectorized_guard = _make_guard(vectorized=True)
    for sql in workload:
        classic = classic_guard.execute(sql, sleep=False)
        vectorized = vectorized_guard.execute(sql, sleep=False)
        assert repr(vectorized.result.rows) == repr(classic.result.rows)
        assert vectorized.result.rowids == classic.result.rowids
        assert vectorized.result.touched == classic.result.touched
        assert vectorized.delay == classic.delay, sql
    counts = vectorized_guard.database.execution_path_counts()
    assert counts.get("vectorized", 0) > 0
