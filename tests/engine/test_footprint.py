"""A large SELECT's ``touched`` as a :class:`Footprint`.

From :data:`FOOTPRINT_FROM` pairs up the columnar tier returns
``touched`` as rowid arrays; below it, a list. Either way it must be
the row tier's list element for element (``int`` rowids, same order),
because the guard prices, records and caches off it. Each statement
shape below runs on both sides of the threshold. Then the consumers:
a cache hit prices what its miss did, the cache never shares a
caller's list, and forensics sees the same keys.
"""

import numpy as np
import pytest

from repro.core.clock import VirtualClock
from repro.core.config import GuardConfig
from repro.core.guard import DelayGuard
from repro.core.result_cache import CachedResult
from repro.engine import FOOTPRINT_FROM, Database, Executor, Footprint
from repro.engine.parser import parse
from repro.engine.vectorized import VectorizedExecutor
from repro.obs import ForensicsMonitor

ITEMS = 200
#: categories 0..9 on items, 0..7 in the dimension: 8 and 9 null-extend.
CATEGORIES = 8


def make_db():
    db = Database()
    db.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, category INTEGER, "
        "price FLOAT)"
    )
    db.insert_rows(
        "items",
        [(i, i % 10, float((i * 37) % 101)) for i in range(1, ITEMS + 1)],
    )
    db.execute(
        "CREATE TABLE categories (category INTEGER PRIMARY KEY, region TEXT)"
    )
    db.insert_rows(
        "categories",
        [(c, "north" if c % 2 else "south") for c in range(CATEGORIES)],
    )
    return db


@pytest.fixture(scope="module")
def db():
    return make_db()


#: statement shape -> the parameters that put it on each side of 48.
CASES = {
    "single table": ("SELECT id FROM items WHERE id <= {n}", [1, 47, 48, 200]),
    "inner join": (
        "SELECT i.id, c.region FROM items i JOIN categories c "
        "ON i.category = c.category WHERE i.id <= {n}",
        [10, 23, 30, 200],
    ),
    "left join, null-extended rows": (
        "SELECT i.id, c.region FROM items i LEFT JOIN categories c "
        "ON i.category = c.category WHERE i.id <= {n}",
        [10, 26, 27, 200],
    ),
    "self-join (repeated keys)": (
        "SELECT a.id, b.id FROM items a JOIN items b "
        "ON a.category = b.category WHERE a.id <= {n} AND b.id <= 30",
        [3, 10, 60],
    ),
    "grouped order": (
        "SELECT category, COUNT(*) FROM items WHERE id <= {n} "
        "GROUP BY category",
        [20, 47, 48, 200],
    ),
    "joined groups": (
        "SELECT c.region, COUNT(*) FROM items i JOIN categories c "
        "ON i.category = c.category WHERE i.id <= {n} GROUP BY c.region",
        [10, 150],
    ),
    "order by with limit and offset": (
        "SELECT id FROM items ORDER BY price DESC LIMIT {n} OFFSET 5",
        [0, 47, 48, 150],
    ),
}


def both(db, sql):
    classic = Executor(db.catalog).execute(parse(sql))
    vectorized = VectorizedExecutor(db.catalog).execute(parse(sql))
    return classic, vectorized


def assert_same_touched(expected, actual):
    assert list(actual) == expected
    assert actual == expected and expected == actual
    for table, rowid in actual:
        assert type(table) is str and type(rowid) is int


@pytest.mark.parametrize("name", sorted(CASES))
def test_touched_is_the_row_tiers_list_on_both_sides(db, name):
    template, params = CASES[name]
    kinds = set()
    for n in params:
        classic, vectorized = both(db, template.format(n=n))
        assert_same_touched(classic.touched, vectorized.touched)
        large = len(classic.touched) >= FOOTPRINT_FROM
        assert isinstance(vectorized.touched, Footprint) == large, n
        kinds.add(large)
    assert kinds == {False, True}


def test_subquery_touched_is_prepended_to_a_footprint(db):
    for n in (5, 150):
        classic, vectorized = both(
            db,
            "SELECT id FROM items WHERE category IN "
            "(SELECT category FROM categories WHERE region = 'north') "
            f"AND id <= {n}",
        )
        # list + footprint is the list the row tier builds.
        assert type(vectorized.touched) is list
        assert_same_touched(classic.touched, vectorized.touched)


def test_empty_result(db):
    classic, vectorized = both(db, "SELECT id FROM items WHERE id < 0")
    assert classic.touched == vectorized.touched == []


class TestSequence:
    def footprint(self):
        return Footprint(("t", "u"), *self.arrays())

    def test_reads_as_its_list(self):
        footprint = self.footprint()
        pairs = [("t", 3), ("u", 1), ("t", 3), ("u", 7)]
        assert len(footprint) == 4 and footprint
        assert footprint[1] == ("u", 1) and footprint[-1] == ("u", 7)
        assert footprint[1:3] == pairs[1:3]
        assert ("u", 7) in footprint and ("t", 1) not in footprint
        assert footprint.count(("t", 3)) == 2
        assert [("x", 0)] + footprint == [("x", 0)] + pairs
        assert footprint + [("x", 0)] == pairs + [("x", 0)]
        assert footprint == Footprint(("t", "u"), *self.arrays())
        assert footprint != pairs[:3] and footprint != tuple(pairs)

    def arrays(self):
        return (
            np.array([3, 1, 3, 7], dtype=np.int64),
            np.array([0, 1, 0, 1], dtype=np.int8),
        )

    def test_is_immutable(self):
        footprint = self.footprint()
        with pytest.raises(ValueError):
            footprint.rowids[0] = 9
        with pytest.raises(ValueError):
            footprint.codes[0] = 1
        with pytest.raises(TypeError):
            hash(footprint)


# -- consumers ----------------------------------------------------------------

LARGE = (
    "SELECT i.id, c.region FROM items i JOIN categories c "
    "ON i.category = c.category WHERE i.id <= 150"
)


def make_guard(**config):
    return DelayGuard(
        make_db(),
        config=GuardConfig(policy="popularity", cap=5.0, **config),
        clock=VirtualClock(),
    )


def test_a_cache_hit_prices_what_its_miss_did():
    cached, uncached = make_guard(result_cache_size=8), make_guard()
    for _ in range(3):
        hit = cached.execute(LARGE, sleep=False)
        miss = uncached.execute(LARGE, sleep=False)
        assert hit.delay == miss.delay
        assert isinstance(hit.result.touched, Footprint)
    assert hit.cached and not miss.cached
    assert list(cached.popularity.store.items()) == list(
        uncached.popularity.store.items()
    )
    assert cached.stats.tuples_charged == uncached.stats.tuples_charged


def test_a_thawed_footprint_cannot_reach_the_cache(db):
    result = VectorizedExecutor(db.catalog).execute(parse(LARGE))
    list(result.touched)  # a consumer materialised the pairs
    frozen = CachedResult.freeze(result)
    assert frozen.touched._pairs is None
    thawed = frozen.thaw()
    assert thawed.touched is not frozen.touched
    assert thawed.touched == result.touched
    assert frozen.touched._pairs is None  # the comparison stayed out
    with pytest.raises(ValueError):
        thawed.touched.rowids[0] = 0
    thawed.touched = []
    assert frozen.thaw().touched == result.touched


def test_forensics_sees_a_footprint_as_its_list(db):
    touched = VectorizedExecutor(db.catalog).execute(parse(LARGE)).touched
    assert isinstance(touched, Footprint)
    fed_footprint = ForensicsMonitor(population=ITEMS + CATEGORIES)
    fed_list = ForensicsMonitor(population=ITEMS + CATEGORIES)
    fed_footprint.observe("u", touched, delay=1.0)
    fed_list.observe("u", list(touched), delay=1.0)
    one, other = fed_footprint.profiles["u"], fed_list.profiles["u"]
    assert one.retrieved == other.retrieved
    assert one.coverage(ITEMS) == other.coverage(ITEMS)
    assert one.novelty_rate() == other.novelty_rate()
