"""The four spine workloads: dataset, statement mixes, seeded streams.

Everything a run sends is derived here from ``--seed``. The dataset is
a fixed function of the row id, so the server child, the oracle and
the correctness checks all agree on it without exchanging data; the
seed drives only the statement streams, and the server child receives
nothing but SQL.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: The 64 registered identities; each statement picks one uniformly.
IDENTITIES = tuple(f"u{index:02d}" for index in range(64))
CATEGORIES = 50
RANGE_ROWS = 20
#: Client lanes: each load client inserts ids from its own residue
#: class, so concurrent clients never collide on a primary key.
LANES = 2
#: The measured window of ``BENCHMARK.json``, in seconds.
RUN_SECONDS = 20

SCHEMA = (
    "CREATE TABLE items (id INTEGER PRIMARY KEY, category INTEGER, "
    "price FLOAT, name TEXT)",
    "CREATE INDEX idx_items_category ON items (category)",
    "CREATE TABLE categories (category INTEGER PRIMARY KEY, label TEXT, "
    "region TEXT)",
)

READ_KINDS = ("point", "range", "topk", "agg", "group", "join", "scatter")
WRITE_KINDS = ("update", "insert", "delete")
KINDS = READ_KINDS + WRITE_KINDS


def item_row(item_id: int) -> Tuple[int, int, float, str]:
    """Row ``item_id`` of ``items`` as loaded (before any UPDATE)."""
    return (
        item_id,
        item_id % CATEGORIES,
        ((item_id * 7919) % 100000) / 100.0,
        f"item-{item_id}",
    )


def category_row(category: int) -> Tuple[int, str, str]:
    return (category, f"cat-{category}", f"region-{category % 5}")


def load_tables(database, rows: int) -> None:
    """Create the schema and bulk-load both tables into one engine."""
    for statement in SCHEMA:
        database.execute(statement)
    database.insert_rows("items", [item_row(i) for i in range(1, rows + 1)])
    database.insert_rows(
        "categories", [category_row(c) for c in range(CATEGORIES)]
    )


def insert_sql(table: str, rows: Sequence[Sequence]) -> str:
    """One multi-row INSERT with literal values."""
    rendered = ", ".join(
        "(" + ", ".join(_literal(value) for value in row) + ")"
        for row in rows
    )
    return f"INSERT INTO {table} VALUES {rendered}"


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def user_bytes(rows: Sequence[Sequence]) -> int:
    """Size of ``rows`` as comma-separated text: the "user byte" base
    the stored-bytes ratios are taken against."""
    return sum(len(",".join(str(value) for value in row)) + 1 for row in rows)


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the deployment it runs against.

    ``mix`` is (statement kind, count) pairs making up one block of
    the stream: every block holds exactly these counts in a seeded
    order, so the shares do not wander from seed to seed the way
    independent draws over a few hundred statements would.
    ``traced_statements`` is the traced run's fixed statement count at
    the nominal window (:data:`RUN_SECONDS`; scaled with ``--seconds``),
    so that count-type layer metrics repeat exactly for one seed.
    ``setups`` is how many times an end-to-end run sets the deployment
    up; ``setup_s`` is their median.
    """

    name: str
    why: str
    rows: int
    mix: Tuple[Tuple[str, int], ...]
    traced_statements: int
    setups: int = 3
    durable: bool = False
    cluster: bool = False
    checkpoint: bool = False

    @property
    def has_writes(self) -> bool:
        return any(kind in WRITE_KINDS for kind, _count in self.mix)


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload(
            name="point_zipf",
            why=(
                "The paper's legitimate user: Zipf point and short range "
                "reads. Wire, dispatch, pipeline and result cache (hit "
                "ratio ~0.6) do the work; the engine does little."
            ),
            rows=50_000,
            mix=(("point", 16), ("range", 3), ("topk", 1)),
            traced_statements=600,
        ),
        Workload(
            name="scan_agg",
            why=(
                "Uniform scans, grouped and join aggregates with ~0 cache "
                "hits: executor tiers and per-tuple price/record do the "
                "work, wire and cache are bypassed."
            ),
            rows=50_000,
            mix=(("agg", 5), ("group", 3), ("join", 2)),
            traced_statements=100,
        ),
        Workload(
            name="mixed_rw_durable",
            why=(
                "Writes beside reads with journal, snapshot, audit and "
                "forensics on: every commit invalidates caches and column "
                "batches and fsyncs, so read/write trade-offs show here."
            ),
            rows=50_000,
            mix=(
                ("point", 59),
                ("range", 11),
                ("update", 20),
                ("insert", 7),
                ("delete", 3),
            ),
            traced_statements=300,
            durable=True,
            checkpoint=True,
        ),
        Workload(
            name="cluster_m4_rf2",
            why=(
                "M=4 x RF=2 cluster behind the same server: router "
                "plan/scatter/merge, journal shipping and gossip, absent "
                "from the single-node workloads."
            ),
            rows=20_000,
            mix=(
                ("point", 12),
                ("scatter", 4),
                ("update", 3),
                ("insert", 1),
            ),
            traced_statements=300,
            # A cluster set-up takes ~7 s (forty router-split INSERTs).
            setups=2,
            durable=True,
            cluster=True,
        ),
    )
}


class Op(NamedTuple):
    """One statement of a stream.

    ``key`` is the primary key a point/update/insert/delete names or a
    range starts at; ``value`` is the row an INSERT stores or the price
    an UPDATE sets (what the durability gate later expects to read).
    """

    sql: str
    kind: str
    identity: str
    key: Optional[int] = None
    value: object = None

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS


class _Zipf:
    """Zipf(alpha=1) over a seeded permutation of ids 1..rows, sampled
    by bisecting the cumulative weights."""

    def __init__(self, rows: int, seed: int):
        self.ids = list(range(1, rows + 1))
        random.Random(f"{seed}/permutation").shuffle(self.ids)
        self.cumulative = list(
            itertools.accumulate(1.0 / rank for rank in range(1, rows + 1))
        )

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self.cumulative[-1]
        return self.ids[bisect.bisect_left(self.cumulative, point)]


class _Spread:
    """Seeded draws in [0, 1) that cover it evenly: the additive
    recurrence on the golden ratio from a seeded start.

    The price thresholds come from here. A threshold decides how many
    tuples a scan touches, so it decides what the statement costs; with
    independent draws the few dozen heaviest statements of a window,
    which are the whole of its p95, differ from seed to seed.
    """

    STEP = (5 ** 0.5 - 1) / 2

    def __init__(self, rng: random.Random):
        self.point = rng.random()

    def draw(self, cells: int) -> int:
        """The next draw as a whole number in ``range(cells)``."""
        self.point = (self.point + self.STEP) % 1.0
        return int(self.point * cells)


def ops(
    spec: Workload, seed: int, client: int, rows: Optional[int] = None
) -> Iterator[Op]:
    """The endless statement stream of one client.

    Deterministic in (workload, seed, client, rows). DELETE always
    names an id this same stream inserted earlier and has not deleted
    (falling back to an INSERT when none is outstanding), so on a
    closed-loop connection no statement can fail.
    """
    rows = spec.rows if rows is None else rows
    rng = random.Random(f"{seed}/{spec.name}/{client}")
    zipf = _Zipf(rows, seed)
    thresholds = {kind: _Spread(rng) for kind in ("agg", "group", "join")}
    inserted = 0
    outstanding: deque = deque()
    block: List[str] = []
    while True:
        if not block:
            block = [kind for kind, count in spec.mix for _ in range(count)]
            rng.shuffle(block)
        kind = block.pop()
        identity = IDENTITIES[rng.randrange(len(IDENTITIES))]
        if kind == "delete" and not outstanding:
            kind = "insert"
        if kind == "point":
            key = zipf.draw(rng)
            yield Op(f"SELECT * FROM items WHERE id = {key}", kind, identity, key)
        elif kind == "range":
            key = min(zipf.draw(rng), rows - RANGE_ROWS + 1)
            yield Op(
                f"SELECT * FROM items WHERE id >= {key} "
                f"AND id < {key + RANGE_ROWS}",
                kind,
                identity,
                key,
            )
        elif kind == "topk":
            category = rng.randrange(CATEGORIES)
            yield Op(
                f"SELECT id, price FROM items WHERE category = {category} "
                "ORDER BY price DESC LIMIT 10",
                kind,
                identity,
            )
        elif kind in ("agg", "scatter"):
            category = rng.randrange(CATEGORIES)
            threshold = thresholds["agg"].draw(10_000) / 10.0
            yield Op(
                "SELECT COUNT(*), AVG(price) FROM items "
                f"WHERE category = {category} AND price > {threshold}",
                kind,
                identity,
            )
        elif kind == "group":
            # Thresholds in the top fifth keep a grouped scan at
            # 0..10^4 touched tuples, the range the issue names.
            threshold = 800.0 + thresholds["group"].draw(2_000) / 10.0
            yield Op(
                "SELECT category, COUNT(*), AVG(price) FROM items "
                f"WHERE price > {threshold} GROUP BY category",
                kind,
                identity,
            )
        elif kind == "join":
            threshold = 800.0 + thresholds["join"].draw(2_000) / 10.0
            yield Op(
                "SELECT c.region, COUNT(*), AVG(i.price) FROM items i "
                "JOIN categories c ON i.category = c.category "
                f"WHERE i.price > {threshold} GROUP BY c.region",
                kind,
                identity,
            )
        elif kind == "update":
            key = zipf.draw(rng)
            price = rng.randrange(100_000) / 100.0
            yield Op(
                f"UPDATE items SET price = {price} WHERE id = {key}",
                kind,
                identity,
                key,
                price,
            )
        elif kind == "insert":
            key = rows + 1 + client + LANES * inserted
            inserted += 1
            outstanding.append(key)
            row = (
                key,
                rng.randrange(CATEGORIES),
                rng.randrange(100_000) / 100.0,
                f"item-{key}",
            )
            yield Op(insert_sql("items", [row]), kind, identity, key, row)
        else:
            key = outstanding.popleft()
            yield Op(f"DELETE FROM items WHERE id = {key}", kind, identity, key)


def take(
    spec: Workload, seed: int, client: int, count: int, rows: Optional[int] = None
) -> List[Op]:
    return list(itertools.islice(ops(spec, seed, client, rows), count))


#: Statements per client lane that :func:`stream_digest` covers.
DIGEST_STATEMENTS = 1000


def stream_digest(spec: Workload, seed: int, rows: Optional[int] = None) -> str:
    """SHA-256 over the head of every client lane's stream, so two runs
    can prove they were sent the same inputs."""
    digest = hashlib.sha256()
    for client in range(LANES):
        for op in take(spec, seed, client, DIGEST_STATEMENTS, rows):
            digest.update(f"{op.identity}\t{op.sql}\n".encode("utf-8"))
    return digest.hexdigest()
