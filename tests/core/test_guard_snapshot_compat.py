"""Snapshots written before the update tracker moved onto the shared
decayed-count core still load, and price every tuple as before.

``guard_v3_both_tau30.json`` is a ``repro-guard-v3`` dump captured by
running this module (the ``__main__`` block) with the *previous*
implementation's ``src/`` on the path, not the code under test: a guard
with ``policy="both"`` and τ = 30 s, which has gossiped with a peer, so
its update tracker carries a mirror as well as its own counts (in that
tracker's per-key ``[key, count, last_seen, version]`` form). The file
also holds the prices that implementation charged for every tuple at
the dump and 45 s later, when every count has aged.
"""

import json
import math
from pathlib import Path

import pytest

from repro.core.clock import VirtualClock
from repro.core.config import GuardConfig
from repro.core.errors import ConfigError
from repro.core.guard import DelayGuard
from repro.engine.database import Database

CAPTURED = Path(__file__).with_name("guard_v3_both_tau30.json")
CONFIG = dict(policy="both", cap=10.0, unit=0.5, update_time_constant=30.0)
ROWS = 60
LATER = 45.0


def build(node_id, clock, **overrides):
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, 0)" for i in range(1, ROWS + 1))
    )
    config = GuardConfig(**{**CONFIG, "node_id": node_id, **overrides})
    return DelayGuard(database, config=config, clock=clock)


KEYS = [("t", rowid) for rowid in range(1, ROWS + 1)]


def capture():
    """Drive two gossiping guards; return A's dump and its prices."""
    clock = VirtualClock(100.0)
    a, b = build("shard-0", clock), build("shard-1", clock)
    for step in range(40):
        clock.advance(1.5)
        guard = a if step % 2 else b
        hot = 1 + (step * 7) % 13
        for sql in (
            f"UPDATE t SET v = v + 1 WHERE id = {hot}",
            f"SELECT * FROM t WHERE id <= {5 + step % 9}",
        ):
            guard.execute(sql, sleep=False)
        if step % 10 == 9:
            a.gossip_merge(b.gossip_digest(a.gossip_versions()))
            b.gossip_merge(a.gossip_digest(b.gossip_versions()))
    now = clock.now()
    prices_now = a.policy.delays_for(KEYS)
    clock.advance(LATER)
    prices_later = a.policy.delays_for(KEYS)
    return {
        "clock": now,
        "guard": a.dump_state(),
        "prices_now": prices_now,
        "prices_later": prices_later,
    }


@pytest.fixture(scope="module")
def captured():
    return json.loads(CAPTURED.read_text())


def restored(captured, payload):
    clock = VirtualClock(captured["clock"])
    guard = build("restored", clock)
    guard.load_state(payload)
    return guard, clock


def assert_prices(got, want):
    assert len(got) == len(want) == ROWS
    for price, expected in zip(got, want):
        assert math.isclose(price, expected, rel_tol=1e-12)


def test_the_fixture_has_both_halves_and_a_mirror(captured):
    rates = captured["guard"]["update_rates"]
    assert "format" not in rates and rates["time_constant"] == 30.0
    assert rates["entries"] and rates["remote"]["shard-1"]["entries"]
    # Some tuples are priced below the cap, by one signal or the other.
    assert min(captured["prices_now"]) < CONFIG["cap"]


def test_v3_loads_with_equal_prices_now_and_later(captured):
    guard, clock = restored(captured, captured["guard"])
    assert guard.update_rates.origin == "shard-0"
    assert_prices(guard.policy.delays_for(KEYS), captured["prices_now"])
    clock.advance(LATER)
    assert_prices(guard.policy.delays_for(KEYS), captured["prices_later"])
    # One key at a time prices exactly what the batch prices.
    assert guard.policy.delays_for(KEYS) == [
        guard.policy.delay_for(key) for key in KEYS
    ]


def test_a_reloaded_v3_snapshot_round_trips(captured):
    guard, clock = restored(captured, captured["guard"])
    again, _clock = restored(
        captured, json.loads(json.dumps(guard.dump_state()))
    )
    assert_prices(again.policy.delays_for(KEYS), captured["prices_now"])


def test_v2_relabelled_loads_and_v1_leaves_updates_empty(captured):
    v2 = {**captured["guard"], "format": "repro-guard-v2"}
    guard, _clock = restored(captured, v2)
    assert_prices(guard.policy.delays_for(KEYS), captured["prices_now"])
    v1 = {**v2, "format": "repro-guard-v1"}
    v1.pop("update_rates")
    guard, _clock = restored(captured, v1)
    assert guard.update_rates.tracked_keys() == 0


def test_a_snapshot_decayed_under_another_time_constant_is_refused(
    captured,
):
    clock = VirtualClock(captured["clock"])
    guard = build("restored", clock, update_time_constant=None)
    with pytest.raises(ConfigError, match="time_constant"):
        guard.load_state(captured["guard"])
    # Refused before anything moved.
    assert guard.update_rates.time_constant is None
    assert guard.popularity.total_requests == 0
    assert guard.update_rates.tracked_keys() == 0


if __name__ == "__main__":
    CAPTURED.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {CAPTURED}")
