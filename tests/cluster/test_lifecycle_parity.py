"""The router's pipeline serves what the hand-written router served.

Two references for one seeded mixed stream (point, range, scan,
GROUP BY, join, INSERT/UPDATE/DELETE; manual gossip rounds, quiescent
at the end; ``decay_rate=1``):

- a one-shard cluster against a plain :class:`DataProviderService` —
  rows, ``touched``, per-tuple delays and final tracker state equal;
- a four-shard cluster against ``parent_m4_stream.json``, the delays,
  per-owner tracker contents, account usage and routing counters the
  *previous* router produced for the same stream (captured by running
  :func:`run_stream` with the parent commit's ``src/`` on the path —
  see the ``__main__`` block — not by the code under test).
"""

import hashlib
import json
import random
from pathlib import Path

from repro.cluster import ClusterService
from repro.core import AccountPolicy, GuardConfig
from repro.service import DataProviderService

CAPTURED = Path(__file__).with_name("parent_m4_stream.json")
CONFIG = dict(policy="popularity", cap=30.0, unit=600.0, decay_rate=1.0)
IDENTITIES = ("alice", "bob")
ITEMS, CATEGORIES = 60, 5


def setup_statements():
    yield (
        "CREATE TABLE items "
        "(id INTEGER PRIMARY KEY, name TEXT, cat INTEGER, price REAL)"
    )
    yield "CREATE TABLE cats (id INTEGER PRIMARY KEY, label TEXT)"
    for first in range(1, ITEMS + 1, 20):
        rows = ", ".join(
            f"({i}, 'item-{i}', {i % CATEGORIES}, {i * 1.5})"
            for i in range(first, first + 20)
        )
        yield f"INSERT INTO items VALUES {rows}"
    for c in range(CATEGORIES):
        yield f"INSERT INTO cats VALUES ({c}, 'cat-{c}')"


def mixed_stream(seed=7, length=160):
    rng = random.Random(seed)
    next_id = ITEMS + 1
    for _ in range(length):
        shape = rng.choice(
            ["point"] * 6
            + ["range", "in_list", "scan", "group", "join"]
            + ["insert", "update_pk", "update_scan", "delete"]
        )
        hot = min(int(rng.paretovariate(1.2)), ITEMS)
        if shape == "point":
            yield f"SELECT * FROM items WHERE id = {hot}"
        elif shape == "range":
            low = rng.randrange(1, ITEMS - 8)
            yield (
                f"SELECT id, name FROM items WHERE id >= {low} "
                f"AND id <= {low + rng.randrange(1, 8)} ORDER BY id"
            )
        elif shape == "in_list":
            picks = sorted(rng.sample(range(1, ITEMS + 1), 3))
            yield (
                f"SELECT * FROM items WHERE id IN "
                f"({picks[0]}, {picks[1]}, {picks[2]}) ORDER BY id"
            )
        elif shape == "scan":
            yield (
                f"SELECT name FROM items WHERE cat = "
                f"{rng.randrange(CATEGORIES)} ORDER BY id"
            )
        elif shape == "group":
            yield "SELECT cat, COUNT(*) FROM items GROUP BY cat ORDER BY cat"
        elif shape == "join":
            yield (
                "SELECT c.label, COUNT(*) FROM items i "
                "JOIN cats c ON i.cat = c.id "
                "GROUP BY c.label ORDER BY c.label"
            )
        elif shape == "insert":
            yield (
                f"INSERT INTO items VALUES ({next_id}, 'new-{next_id}', "
                f"{next_id % CATEGORIES}, 1.0)"
            )
            next_id += 1
        elif shape == "update_pk":
            yield f"UPDATE items SET price = price + 1 WHERE id = {hot}"
        elif shape == "update_scan":
            yield (
                f"UPDATE items SET name = 'bulk' WHERE cat = "
                f"{rng.randrange(CATEGORIES)}"
            )
        else:
            yield f"DELETE FROM items WHERE id = {rng.randrange(1, ITEMS + 1)}"


def tracker_state(guard):
    return {
        "counts": sorted(
            [table, rowid, count]
            for (table, rowid), count in guard.popularity.store.items()
        ),
        "total_requests": guard.popularity.total_requests,
        "decayed_total": guard.popularity.decayed_total,
        "total_updates": guard.update_rates.total_updates,
    }


def run_stream(service, guards):
    """Feed the stream; return everything a client or operator can see."""
    for identity in IDENTITIES:
        service.register(identity)
    for sql in setup_statements():
        service.query(IDENTITIES[0], sql)
    served = []
    for position, sql in enumerate(mixed_stream()):
        answer = service.query(IDENTITIES[position % 2], sql)
        served.append(
            {
                "sql": sql,
                "rows": [list(row) for row in answer.result.rows],
                # what a SELECT is priced on; a broadcast write's merged
                # result has never carried it
                "touched": sorted(
                    list(key)
                    for key in answer.result.touched
                    if answer.result.statement_kind == "select"
                ),
                "delay": answer.delay,
                "per_tuple": answer.per_tuple_delays,
            }
        )
        if position % 10 == 9 and hasattr(service, "gossip"):
            service.gossip.run_round()
    if hasattr(service, "gossip"):
        service.gossip.run_round()
        service.gossip.run_round()
    return {
        "served": served,
        "trackers": [tracker_state(guard) for guard in guards(service)],
        "accounts": {
            identity: [
                service.accounts.account(identity).queries_issued,
                service.accounts.account(identity).tuples_retrieved,
            ]
            for identity in IDENTITIES
        },
        "slept": service.clock.now(),
        "stats": [
            service.guard.stats.queries,
            service.guard.stats.selects,
            service.guard.stats.tuples_charged,
            service.guard.stats.total_delay,
        ],
    }


def compact(outcome):
    """``outcome`` with each answer's bulk replaced by an exact digest."""
    served = [
        {
            "sql": answer["sql"],
            "delay": answer["delay"],
            "digest": hashlib.sha256(
                json.dumps(
                    [answer["rows"], answer["touched"], answer["per_tuple"]]
                ).encode()
            ).hexdigest(),
        }
        for answer in outcome["served"]
    ]
    return json.loads(json.dumps({**outcome, "served": served}))


def run_cluster(shard_count):
    cluster = ClusterService(
        shard_count=shard_count,
        guard_config=GuardConfig(**CONFIG),
        account_policy=AccountPolicy(),
    )
    outcome = run_stream(cluster, lambda service: service.guards)
    outcome["routing"] = cluster.router.routing_stats()
    return outcome


def test_one_shard_cluster_is_the_single_node():
    single = DataProviderService(
        guard_config=GuardConfig(**CONFIG), account_policy=AccountPolicy()
    )
    reference = run_stream(single, lambda service: [service.guard])
    ours = run_cluster(1)
    del ours["routing"]
    for theirs, mine in zip(reference["served"], ours["served"]):
        assert mine == theirs, theirs["sql"]
    assert ours == reference


def test_four_shards_match_the_parent_commit():
    captured = json.loads(CAPTURED.read_text())
    ours = compact(run_cluster(4))
    # The parent had no live merged view, so it reported no counters
    # for it: both tables exist before the first scatter, so the view
    # is seeded once and every later write is a patch.
    assert ours["routing"].pop("merged_view_seeds") == 1
    assert ours["routing"].pop("merged_view_patches") > 0
    for theirs, mine in zip(captured["served"], ours["served"]):
        assert mine == theirs, theirs["sql"]
    assert ours == captured


if __name__ == "__main__":
    # PYTHONPATH=<parent checkout>/src:. python tests/cluster/test_lifecycle_parity.py
    CAPTURED.write_text(json.dumps(compact(run_cluster(4)), indent=1) + "\n")
