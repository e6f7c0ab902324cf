"""Update-rate pricing (§3) through the router equals a single node's.

A cluster prices a tuple from the trackers of the shard that owns it,
merged by gossip, so after a quiescent round every price must be the
single node's — whatever the replication factor, and after a follower
is promoted. The same goes for the operator's staleness report, which
``health`` and ``repro top`` show.
"""

import math

import pytest

from repro.cluster import ClusterService
from repro.core import GuardConfig
from repro.core.clock import VirtualClock
from repro.service import DataProviderService

ROWS, HOT = 10, 3


def config(policy):
    return GuardConfig(policy=policy, cap=1000.0)


def single(policy):
    clock = VirtualClock()
    return DataProviderService(guard_config=config(policy), clock=clock), clock


def cluster(policy, tmp_path, shards=2, rf=1):
    clock = VirtualClock()
    service = ClusterService(
        shard_count=shards,
        guard_config=config(policy),
        clock=clock,
        data_dir=tmp_path,
        replication_factor=rf,
    )
    return service, clock


def settle(service):
    """Ship every replica group's backlog, then one gossip round."""
    if getattr(service, "monitor", None) is not None:
        service.monitor.ship_all()
    if getattr(service, "gossip", None) is not None:
        service.gossip.run_round()


def drive(service, clock):
    """100 updates of one row 10 s apart, plus reads that make the
    popularity half of ``policy="both"`` price below the cap."""
    service.query(None, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    service.query(
        None,
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, 0)" for i in range(1, ROWS + 1)),
    )
    for step in range(100):
        clock.advance(10.0)
        service.query(None, f"UPDATE t SET v = v + 1 WHERE id = {HOT}")
        service.query(None, f"SELECT v FROM t WHERE id = {step % ROWS + 1}")
    settle(service)


READS = [f"SELECT * FROM t WHERE id = {i}" for i in range(1, ROWS + 1)] + [
    "SELECT * FROM t WHERE v >= 0",
    f"SELECT id FROM t WHERE id <= {ROWS // 2}",
]


def prices(service):
    """Each read's delay and sorted per-tuple delays (rowids differ
    between a node and a cluster); nothing recorded, since a recorded
    read moves popularity before the next is priced."""
    seen = []
    for sql in READS:
        answer = service.query(None, sql, record=False)
        seen.append((answer.delay, sorted(answer.per_tuple_delays)))
    return seen


def assert_same_prices(got, want):
    assert len(got) == len(want)
    for (delay, per_tuple), (ref_delay, ref_per_tuple) in zip(got, want):
        assert math.isclose(delay, ref_delay, rel_tol=1e-9)
        assert len(per_tuple) == len(ref_per_tuple)
        for price, ref_price in zip(per_tuple, ref_per_tuple):
            assert math.isclose(price, ref_price, rel_tol=1e-9)


@pytest.mark.parametrize("policy", ["update", "both"])
@pytest.mark.parametrize("rf", [1, 2, 3])
def test_replica_groups_price_updates_as_one_node(policy, rf, tmp_path):
    reference, ref_clock = single(policy)
    drive(reference, ref_clock)
    subject, clock = cluster(policy, tmp_path, rf=rf)
    drive(subject, clock)

    want = prices(reference)
    assert_same_prices(prices(subject), want)
    # The hot row is priced by its update rate, below every other row.
    points = [delay for delay, _per_tuple in want[:ROWS]]
    assert points[HOT - 1] == min(points) < 0.1 * max(points)
    total = reference.guard.update_rates.total_updates
    for guard in subject.all_member_guards():
        assert guard.update_rates.total_updates == total
    subject.close()


def test_a_promoted_follower_prices_updates_as_the_primary(tmp_path):
    data_dir = tmp_path / "cluster"
    data_dir.mkdir()
    subject, clock = cluster("update", data_dir, shards=1, rf=2)
    drive(subject, clock)
    subject.checkpoint()
    subject.close()
    recovered = ClusterService.recover(
        shard_count=1,
        data_dir=data_dir,
        guard_config=config("update"),
        clock=clock,
        replication_factor=2,
    )
    group = recovered.groups[0]
    primary, follower = (member.service.guard for member in group.members)
    read = f"SELECT * FROM t WHERE id = {HOT}"
    (key,) = recovered.query(None, read, record=False).result.touched

    def price(guard):
        return guard.policy.delay_for(key)

    assert math.isclose(price(follower), price(primary), rel_tol=1e-9)
    assert group.promote() is not None
    expected = price(primary)  # before the read's (virtual) sleep
    assert math.isclose(
        recovered.query(None, read, record=False).delay,
        expected,
        rel_tol=1e-9,
    )
    clock.advance(100.0)
    assert math.isclose(price(follower), price(primary), rel_tol=1e-9)
    recovered.close()


@pytest.mark.parametrize("deleted", [0, 10])
def test_cluster_staleness_report_is_the_single_node_report(
    deleted, tmp_path
):
    # A deleted row leaves the report on a node and on a cluster alike,
    # its update rate with it, though the tracker still counts it.
    def stale(service, clock):
        service.query(
            None, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"
        )
        service.query(
            None,
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, 0)" for i in range(1, 41)),
        )
        for step in range(8):
            clock.advance(5.0)
            service.query(
                None, f"UPDATE t SET v = v + 1 WHERE id = {5 * step + 1}"
            )
        if deleted:
            service.query(None, f"DELETE FROM t WHERE id <= {deleted}")
        settle(service)
        return service.guard.staleness_report()["t"]

    want = stale(*single("update"))
    subject, clock = cluster("update", tmp_path, shards=4)
    got = stale(subject, clock)
    assert got.keys() == want.keys()
    for field, value in want.items():
        assert math.isclose(got[field], value, rel_tol=1e-9), field
    assert want["updated_keys"] == 40 - deleted
    assert 0.0 < got["smax_fraction"] <= 1.0
    subject.close()
