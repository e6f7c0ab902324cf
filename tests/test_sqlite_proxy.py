"""Tests for the SQLite delay proxy adapter."""

import sqlite3

import pytest

from repro.adapters import SQLiteDelayProxy
from repro.core import (
    AccessDenied,
    AccountManager,
    AccountPolicy,
    DelayGuard,
    GuardConfig,
    VirtualClock,
)
from repro.core.errors import ConfigError
from repro.engine import Database
from repro.engine.errors import ParseError


@pytest.fixture
def conn():
    connection = sqlite3.connect(":memory:")
    connection.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, n REAL)"
    )
    connection.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        [(i, f"v{i}", float(i)) for i in range(1, 51)],
    )
    connection.commit()
    yield connection
    connection.close()


def make_proxy(conn, **config_kwargs):
    clock = VirtualClock()
    config = GuardConfig(**{"cap": 5.0, **config_kwargs})
    return SQLiteDelayProxy(conn, config=config, clock=clock), clock


class TestSelect:
    def test_cold_select_charges_cap(self, conn):
        proxy, clock = make_proxy(conn)
        result = proxy.execute("SELECT * FROM t WHERE id = 1")
        assert result.rows == [(1, "v1", 1.0)]
        assert result.columns == ["id", "v", "n"]
        assert result.delay == 5.0
        assert clock.total_slept == 5.0

    def test_popularity_lowers_delay(self, conn):
        proxy, _ = make_proxy(conn)
        for _ in range(200):
            proxy.execute("SELECT * FROM t WHERE id = 1")
        assert proxy.execute("SELECT * FROM t WHERE id = 1").delay < 0.5

    def test_multi_row_select_charges_each(self, conn):
        proxy, _ = make_proxy(conn)
        result = proxy.execute("SELECT * FROM t WHERE id <= 4")
        assert result.delay == pytest.approx(20.0)
        assert len(result.rowids) == 4

    def test_limit_respected_in_accounting(self, conn):
        proxy, _ = make_proxy(conn)
        result = proxy.execute("SELECT * FROM t ORDER BY id LIMIT 3")
        assert len(result.rowids) == 3
        assert result.delay == pytest.approx(15.0)

    def test_aggregate_charges_matching_rows(self, conn):
        proxy, _ = make_proxy(conn)
        result = proxy.execute("SELECT COUNT(*) FROM t WHERE id <= 10")
        assert result.rows == [(10,)]
        assert result.delay == pytest.approx(50.0)

    def test_empty_result_free(self, conn):
        proxy, _ = make_proxy(conn)
        assert proxy.execute("SELECT * FROM t WHERE id = 999").delay == 0.0

    def test_joins_rejected(self, conn):
        proxy, _ = make_proxy(conn)
        with pytest.raises(ConfigError, match="joins"):
            proxy.execute("SELECT * FROM t a JOIN t b ON a.id = b.id")

    def test_group_by_rejected(self, conn):
        proxy, _ = make_proxy(conn)
        with pytest.raises(ConfigError, match="GROUP BY"):
            proxy.execute("SELECT v, COUNT(*) FROM t GROUP BY v")

    def test_result_limit_enforced(self, conn):
        """§1.1's strawman limit holds through the proxy too (it used
        to serve a result of any size)."""
        proxy, clock = make_proxy(conn, max_result_rows=5)
        with pytest.raises(AccessDenied) as refused:
            proxy.execute("SELECT * FROM t WHERE id <= 6")
        assert refused.value.reason == "result_limit"
        assert proxy.stats.denied == 1
        assert proxy.popularity.total_requests == 0
        assert clock.total_slept == 0.0
        assert len(proxy.execute("SELECT * FROM t WHERE id <= 5").rows) == 5


class TestDml:
    def test_update_tracked(self, conn):
        proxy, clock = make_proxy(conn)
        clock.advance(3.0)
        result = proxy.execute("UPDATE t SET v = 'x' WHERE id <= 2")
        assert result.rowcount == 2
        assert proxy.update_rates.total_updates == 2
        assert proxy.last_update_times[("t", 1)] == pytest.approx(3.0)
        # Persisted in sqlite itself.
        assert conn.execute(
            "SELECT v FROM t WHERE id = 1"
        ).fetchone() == ("x",)

    def test_delete_tracked(self, conn):
        proxy, _ = make_proxy(conn)
        result = proxy.execute("DELETE FROM t WHERE id > 45")
        assert result.rowcount == 5
        assert conn.execute("SELECT COUNT(*) FROM t").fetchone() == (45,)

    def test_insert_tracked(self, conn):
        proxy, _ = make_proxy(conn)
        result = proxy.execute("INSERT INTO t VALUES (100, 'new', 0.0)")
        assert result.statement_kind == "insert"
        assert proxy.update_rates.total_updates == 1

    def test_population_reflects_sqlite(self, conn):
        proxy, _ = make_proxy(conn)
        assert proxy.population() == 50
        proxy.execute("DELETE FROM t WHERE id > 25")
        assert proxy.population() == 25


class TestUpdatePolicy:
    def test_update_rate_policy_over_sqlite(self, conn):
        proxy, clock = make_proxy(conn, policy="update", update_c=1.0)
        # Update row 1 frequently: its retrieval becomes cheap.
        for _ in range(100):
            proxy.execute("UPDATE t SET n = n + 1 WHERE id = 1")
            clock.advance(1.0)
        hot = proxy.execute("SELECT * FROM t WHERE id = 1").delay
        cold = proxy.execute("SELECT * FROM t WHERE id = 2").delay
        assert hot < cold

    @pytest.mark.parametrize("policy", GuardConfig._POLICIES)
    def test_policy_is_the_native_guards(self, conn, policy):
        """One policy builder: "both" is max(popularity, update-rate)
        here as in ``DelayGuard`` (it used to mean popularity only)."""
        config = dict(policy=policy, fixed_delay=0.5, update_c=2.0)
        proxy, _ = make_proxy(conn, **config)
        guard = DelayGuard(Database(), config=GuardConfig(cap=5.0, **config))
        assert proxy.policy.describe() == guard.policy.describe()

    def test_both_prices_the_dearer_signal(self, conn):
        proxy, _ = make_proxy(conn, policy="both", update_c=1.0, cap=50.0)
        for _ in range(100):
            proxy.execute("SELECT * FROM t WHERE id = 1")
        # Hot by popularity, never updated: the update-rate term (cap)
        # must win, where popularity alone would charge almost nothing.
        assert proxy.execute("SELECT * FROM t WHERE id = 1").delay == 50.0

    def test_extraction_cost(self, conn):
        proxy, _ = make_proxy(conn)
        assert proxy.extraction_cost("t") == pytest.approx(250.0)
        for _ in range(100):
            proxy.execute("SELECT * FROM t WHERE id = 1")
        assert proxy.extraction_cost("t") < 250.0


class TestAccounts:
    def test_quota_through_proxy(self, conn):
        clock = VirtualClock()
        accounts = AccountManager(
            policy=AccountPolicy(daily_query_quota=2), clock=clock
        )
        proxy = SQLiteDelayProxy(
            conn, config=GuardConfig(cap=1.0), clock=clock,
            accounts=accounts,
        )
        accounts.register("u")
        proxy.execute("SELECT * FROM t WHERE id = 1", identity="u")
        proxy.execute("SELECT * FROM t WHERE id = 2", identity="u")
        with pytest.raises(AccessDenied):
            proxy.execute("SELECT * FROM t WHERE id = 3", identity="u")
        assert proxy.stats.denied == 1

    def test_unparseable_statement_spends_no_quota(self, conn):
        """Parse precedes authorize, as in the native guard."""
        clock = VirtualClock()
        accounts = AccountManager(clock=clock)
        proxy = SQLiteDelayProxy(conn, clock=clock, accounts=accounts)
        accounts.register("u")
        with pytest.raises(ParseError):
            proxy.execute("SELEKT nonsense", identity="u")
        assert accounts.account("u").queries_issued == 0


class TestPersistence:
    def test_guard_over_file_database(self, tmp_path):
        path = tmp_path / "data.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        connection.execute("INSERT INTO t VALUES (1, 'persisted')")
        connection.commit()
        proxy, _ = make_proxy(connection)
        result = proxy.execute("SELECT * FROM t WHERE id = 1")
        assert result.rows == [(1, "persisted")]
        connection.close()

        reopened = sqlite3.connect(path)
        proxy2, _ = make_proxy(reopened)
        assert proxy2.execute("SELECT * FROM t WHERE id = 1").rows == [
            (1, "persisted")
        ]
        reopened.close()
