"""One lifecycle, three front doors.

``DelayGuard``, the cluster router (one shard; two shards on the
single-shard path and on the scatter path) and the SQLite proxy all
run :class:`~repro.core.pipeline.QueryPipeline` with their own execute
stage. Every case here is the paper's lifecycle stated once and checked
through each door on the same seeded table: what a door is *allowed* to
differ in is how a statement becomes rows and ``touched`` tuples,
nothing else.
"""

import sqlite3
import time

import pytest

from repro.adapters import SQLiteDelayProxy
from repro.adapters.sqlite_proxy import SQLiteExecuteStage
from repro.cluster import ClusterService
from repro.cluster.router import RouteStage
from repro.core import (
    AccessDenied,
    AccountManager,
    AccountPolicy,
    DelayGuard,
    GuardConfig,
    VirtualClock,
)
from repro.core.errors import ConfigError
from repro.core.pipeline import ExecuteStage
from repro.engine import Database

ROWS = 12
CAP = 5.0
SCHEMA = "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
SEED = [f"INSERT INTO t VALUES ({i}, 'v{i}')" for i in range(1, ROWS + 1)]


class Door:
    """A front door with the few things the cases need, uniformly."""

    #: the statement under test; every door's touches >= 2 tuples.
    statement = "SELECT * FROM t WHERE id <= 3 ORDER BY id"
    takes_deadline = True

    def __init__(self, host, accounts, clock, trackers):
        self.host, self.accounts, self.clock = host, accounts, clock
        self._trackers = trackers
        accounts.register("alice")

    def execute(self, sql=None, identity="alice", **options):
        """(rows, delay, tuples charged) for one statement."""
        answer = self.host.execute(
            sql or self.statement, identity=identity, **options
        )
        if hasattr(answer, "per_tuple_delays"):
            return answer.rows, answer.delay, len(answer.per_tuple_delays)
        return answer.rows, answer.delay, len(answer.rowids)

    @property
    def stats(self):
        return self.host.stats

    def recorded(self):
        """Every popularity count any tracker behind this door holds."""
        return sorted(
            item
            for tracker in self._trackers()
            for item in tracker.store.items()
        )

    def usage(self):
        account = self.accounts.account("alice")
        return account.queries_issued, account.tuples_retrieved


def config(**overrides):
    return GuardConfig(**{"cap": CAP, "unit": 1.0, **overrides})


def guard_door(**overrides):
    clock = VirtualClock()
    database = Database()
    for sql in [SCHEMA] + SEED:
        database.execute(sql)
    accounts = AccountManager(policy=AccountPolicy(), clock=clock)
    guard = DelayGuard(
        database, config=config(**overrides), clock=clock, accounts=accounts
    )
    return Door(guard, accounts, clock, lambda: [guard.popularity])


def cluster_door(shard_count, single_shard, **overrides):
    cluster = ClusterService(
        shard_count=shard_count,
        guard_config=config(**overrides),
        account_policy=AccountPolicy(),
    )
    cluster.register("loader")
    for sql in [SCHEMA] + SEED:
        cluster.query("loader", sql)
    door = Door(
        cluster.router,
        cluster.accounts,
        cluster.clock,
        lambda: [guard.popularity for guard in cluster.guards],
    )
    if single_shard:
        # Two keys one shard owns: a multi-tuple read on the pk path.
        owned = [
            i
            for i in range(1, ROWS + 1)
            if cluster.shard_map.shard_for("t", i) == 0
        ]
        door.statement = (
            f"SELECT * FROM t WHERE id IN ({owned[0]}, {owned[1]}) "
            "ORDER BY id"
        )
    return door


def sqlite_door(**overrides):
    clock = VirtualClock()
    connection = sqlite3.connect(":memory:")
    for sql in [SCHEMA] + SEED:
        connection.execute(sql)
    connection.commit()
    accounts = AccountManager(policy=AccountPolicy(), clock=clock)
    proxy = SQLiteDelayProxy(
        connection, config=config(**overrides), clock=clock, accounts=accounts
    )
    door = Door(proxy, accounts, clock, lambda: [proxy.popularity])
    door.takes_deadline = False  # SQLiteDelayProxy.execute has no budget
    return door


DOORS = {
    "guard": guard_door,
    "cluster-1": lambda **kw: cluster_door(1, single_shard=False, **kw),
    "cluster-2-point": lambda **kw: cluster_door(2, single_shard=True, **kw),
    "cluster-2-scatter": lambda **kw: cluster_door(2, single_shard=False, **kw),
    "sqlite": sqlite_door,
}


@pytest.fixture(params=sorted(DOORS))
def build(request):
    return DOORS[request.param]


@pytest.fixture
def door(build):
    return build()


@pytest.fixture
def budgeted(door):
    if not door.takes_deadline:
        pytest.skip("this door's execute takes no deadline")
    return door


class TestRouting:
    def test_point_and_scatter_doors_take_their_paths(self):
        point = DOORS["cluster-2-point"]()
        point.execute()
        assert point.host.single_shard_queries == 1
        assert point.host.scatter_queries == 0
        scatter = DOORS["cluster-2-scatter"]()
        scatter.execute()
        assert scatter.host.scatter_queries == 1


class TestQuota:
    def test_charged_exactly_once_with_touched_count(self, door):
        before = door.usage()
        _rows, _delay, tuples = door.execute()
        assert tuples >= 2
        assert door.usage() == (before[0] + 1, before[1] + tuples)

    def test_admit_failure_charges_nothing(self, door):
        before = door.usage(), door.stats.queries, door.recorded()
        with pytest.raises(ConfigError, match="identity"):
            door.execute(identity=None)
        assert (door.usage(), door.stats.queries, door.recorded()) == before

    def test_exhausted_quota_is_denied_and_counted(self, build):
        door = build()
        door.accounts.policy.daily_query_quota = door.usage()[0] + 1
        door.execute()
        recorded = door.recorded()
        with pytest.raises(AccessDenied) as refused:
            door.execute()
        assert refused.value.reason == "query_quota"
        assert door.stats.denied == 1
        assert door.recorded() == recorded


class TestPrice:
    def test_statement_pays_the_sum(self, door):
        _rows, delay, tuples = door.execute()
        # Cold table: each tuple is priced at the cap *before* this
        # statement's own accesses are recorded.
        assert delay == pytest.approx(CAP * tuples)

    def test_own_record_lowers_only_the_next_price(self, door):
        _rows, first, _tuples = door.execute()
        _rows, second, _tuples = door.execute()
        assert second < first

    def test_record_false_leaves_trackers_untouched(self, door):
        before = door.recorded()
        _rows, delay, tuples = door.execute(record=False)
        assert delay > 0 and door.recorded() == before
        # ... but it is still a charged, counted query
        assert door.usage()[1] == tuples
        assert door.stats.selects == 1


class TestSleep:
    def test_sleep_false_leaves_the_clock_untouched(self, door):
        started = door.clock.now()
        _rows, delay, _tuples = door.execute(sleep=False)
        assert delay > 0 and door.clock.now() == started

    def test_the_delay_is_slept_once(self, door):
        started = door.clock.now()
        _rows, delay, _tuples = door.execute()
        assert door.clock.now() - started == pytest.approx(delay)


class TestDeadline:
    def test_expired_deadline_is_refused_before_engine_work(
        self, budgeted, monkeypatch
    ):
        door = budgeted
        engine_calls = []
        real = Database.execute

        def counted(self, *args, **kwargs):
            engine_calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Database, "execute", counted)
        before = door.usage(), door.recorded()
        with pytest.raises(AccessDenied) as refused:
            door.execute(deadline_at=time.monotonic() - 1.0)
        assert refused.value.reason == "deadline_exceeded"
        assert engine_calls == []
        assert door.stats.deadline_aborts == 1
        assert door.stats.denied == 1
        assert (door.usage(), door.recorded()) == before

    def test_delay_beyond_the_budget_reports_the_price(self, budgeted):
        door = budgeted
        _rows, price, _tuples = door.execute(record=False, sleep=False)
        recorded, started = door.recorded(), door.clock.now()
        with pytest.raises(AccessDenied) as refused:
            door.execute(deadline_at=time.monotonic() + price / 2)
        assert refused.value.reason == "deadline_exceeded"
        assert refused.value.retry_after == pytest.approx(price)
        assert door.stats.deadline_aborts == 1
        assert door.recorded() == recorded
        assert door.clock.now() == started


def test_the_doors_differ_only_in_the_execute_stage():
    pipelines = {name: DOORS[name]().host.pipeline for name in DOORS}
    names = {tuple(p.stage_names()) for p in pipelines.values()}
    assert len(names) == 1  # one stage list, one set of span/histogram names
    classes = {
        name: [type(stage) for stage in pipeline.stages]
        for name, pipeline in pipelines.items()
    }
    slot = classes["guard"].index(ExecuteStage)
    assert classes["cluster-1"][slot] is RouteStage
    assert classes["cluster-2-scatter"][slot] is RouteStage
    assert classes["sqlite"][slot] is SQLiteExecuteStage
    for name, stages in classes.items():
        rest = stages[:slot] + stages[slot + 1 :]
        assert rest == classes["guard"][:slot] + classes["guard"][slot + 1 :], name
