"""Algebraic properties of the tracker merge (the gossip substrate).

Anti-entropy only converges if the merge is a join: commutative,
associative, idempotent. These tests check those laws over seeded
random workloads, random decay rates and random interleavings, and (for
the store-level join, where the inputs are plain floats) with
Hypothesis.

Also here: dump_state/load_state round trips for the popularity and
update-rate trackers, since recovery composes with gossip through
exactly these paths.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counts import InMemoryCountStore
from repro.core.popularity import PopularityTracker
from repro.core.clock import VirtualClock
from repro.core.update_tracker import UpdateRateTracker

KEYS = [("items", rowid) for rowid in range(1, 9)]


def build_tracker(origin, decay_rate=1.0):
    return PopularityTracker(decay_rate=decay_rate, origin=origin)


def random_workload(tracker, rng, records=30):
    for _ in range(records):
        tracker.record(rng.choice(KEYS), weight=rng.choice([1.0, 2.0, 0.5]))


def sync(receiver, sender):
    """One directed gossip exchange; returns entries adopted."""
    return receiver.merge(sender.delta_since(receiver.versions()))


def full_mesh(trackers):
    """Gossip rounds until quiescent (bounded; the join must converge)."""
    for _ in range(10):
        adopted = 0
        for sender in trackers:
            for receiver in trackers:
                if receiver is not sender:
                    adopted += sync(receiver, sender)
        if adopted == 0:
            return
    raise AssertionError("gossip failed to quiesce in 10 rounds")


def effective_view(tracker):
    return {
        "counts": {key: tracker.present_count(key) for key in KEYS},
        "total": tracker.total_requests,
        "decayed": tracker.decayed_total,
    }


def assert_views_equal(left, right, rel=1e-9):
    assert left["total"] == pytest.approx(right["total"], rel=rel)
    assert left["decayed"] == pytest.approx(right["decayed"], rel=rel)
    for key in KEYS:
        assert left["counts"][key] == pytest.approx(
            right["counts"][key], rel=rel, abs=1e-12
        ), key


class TestMergeLaws:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("decay_rate", [1.0, 1.05, 1.5])
    def test_commutative(self, seed, decay_rate):
        """A ⊔ B and B ⊔ A read back the same effective view."""
        rng = random.Random(seed)
        a = build_tracker("a", decay_rate)
        b = build_tracker("b", decay_rate)
        random_workload(a, rng)
        random_workload(b, rng)
        sync(a, b)
        sync(b, a)
        assert_views_equal(effective_view(a), effective_view(b))

    @pytest.mark.parametrize("seed", range(5))
    def test_associative_across_round_orders(self, seed):
        """Three trackers converge identically whatever the pair order."""

        def build_world():
            world = [build_tracker(name) for name in ("a", "b", "c")]
            rng = random.Random(seed)
            for tracker in world:
                random_workload(tracker, rng)
            return world

        orders = [
            [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)],
            [(2, 0), (1, 2), (0, 1), (2, 0), (1, 2), (0, 1)],
        ]
        results = []
        for order in orders:
            world = build_world()
            for receiver, sender in order:
                sync(world[receiver], world[sender])
            full_mesh(world)
            results.append([effective_view(t) for t in world])
        for left, right in zip(*results):
            assert_views_equal(left, right)

    @pytest.mark.parametrize("decay_rate", [1.0, 1.2])
    def test_idempotent(self, decay_rate):
        a = build_tracker("a", decay_rate)
        b = build_tracker("b", decay_rate)
        random_workload(a, random.Random(7))
        delta = a.delta_since(b.versions())
        assert b.merge(delta) > 0
        before = effective_view(b)
        assert b.merge(delta) == 0  # re-merge adopts nothing
        assert_views_equal(before, effective_view(b))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_converge(self, seed):
        """Any mix of records and partial syncs quiesces to one view."""
        rng = random.Random(100 + seed)
        world = [build_tracker(f"t{i}") for i in range(3)]
        recorded = 0
        for _ in range(60):
            if rng.random() < 0.7:
                tracker = rng.choice(world)
                tracker.record(rng.choice(KEYS))
                recorded += 1
            else:
                receiver, sender = rng.sample(world, 2)
                sync(receiver, sender)
        full_mesh(world)
        reference = effective_view(world[0])
        for tracker in world[1:]:
            assert_views_equal(reference, effective_view(tracker))
        assert reference["total"] == pytest.approx(float(recorded))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("decay_rate", [1.1, 2.0])
    def test_decayed_interleavings_never_understate(self, seed, decay_rate):
        """With decay, mirrors are stale but *conservative*.

        A mirrored mass is the origin's present-scale count as of its
        last shipped delta; subsequent decay can only shrink the true
        value, so every view bounds the global mass from above — the
        adversary cannot mint an undercount by gossip timing. Raw
        request totals (undecayed, monotone) still converge exactly.
        """
        rng = random.Random(500 + seed)
        world = [build_tracker(f"t{i}", decay_rate) for i in range(3)]
        recorded = 0
        for _ in range(60):
            if rng.random() < 0.7:
                tracker = rng.choice(world)
                tracker.record(rng.choice(KEYS))
                recorded += 1
            else:
                receiver, sender = rng.sample(world, 2)
                sync(receiver, sender)
        full_mesh(world)
        for tracker in world:
            assert tracker.total_requests == pytest.approx(float(recorded))
        for key in KEYS:
            true_mass = sum(
                t.store.get(key) / t._increment for t in world
            )
            for viewer in world:
                assert (
                    viewer.present_count(key) >= true_mass - 1e-9
                ), (viewer.origin, key)

    def test_period_decay_reships_masses(self):
        """apply_decay changes every present mass; peers must re-adopt."""
        a = build_tracker("a")
        b = build_tracker("b")
        a.record(("items", 1), weight=8.0)
        sync(b, a)
        a.apply_decay(2.0)
        assert b.present_count(("items", 1)) == pytest.approx(8.0)
        sync(b, a)
        assert b.present_count(("items", 1)) == pytest.approx(4.0)
        assert_views_equal(effective_view(a), effective_view(b))


finite = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)


class TestStoreMergeIsExact:
    """A mirrored count is a function of its version — to the last bit.

    ``merge`` used to adopt a value as ``add(key, w - get(key))``, and
    ``g + (w - g) != w`` for about one float pair in six, so a replica
    drifted an ulp from its origin and "same version, same value" (the
    premise of the idempotence argument) was only approximately true.
    """

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), finite, finite),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_merged_value_is_the_shipped_value(self, triples):
        store = InMemoryCountStore()
        shipped, entries = {}, []
        for key, local, _weight in triples:
            store.add(key, local)
        for key, _local, weight in triples:
            # Each entry outranks whatever the store holds for its key.
            shipped[key] = weight
            entries.append([key, weight, store.version + 1 + len(entries)])
        delta = {"version": store.version + len(entries), "entries": entries}

        assert store.merge(delta) == len(entries)
        for key, weight in shipped.items():
            assert store.get(key) == weight
        state = store.delta_since(0)

        assert store.merge(delta) == 0  # idempotent: adopts nothing ...
        assert store.delta_since(0) == state  # ... and changes nothing


class TestUpdateTrackerMerge:
    def build(self, origin, clock):
        return UpdateRateTracker(
            clock=clock, time_constant=50.0, origin=origin
        )

    def test_commutative_and_convergent(self):
        clock = VirtualClock()
        a = self.build("a", clock)
        b = self.build("b", clock)
        rng = random.Random(3)
        for _ in range(20):
            clock.advance(rng.random())
            rng.choice([a, b]).record_update(rng.choice(KEYS))
        sync(a, b)
        sync(b, a)
        for key in KEYS:
            assert a.rate(key) == pytest.approx(b.rate(key))

    def test_idempotent(self):
        clock = VirtualClock()
        a = self.build("a", clock)
        b = self.build("b", clock)
        a.record_update(("items", 1))
        delta = a.delta_since(b.versions())
        assert b.merge(delta) > 0
        rate = b.rate(("items", 1))
        assert b.merge(delta) == 0
        assert b.rate(("items", 1)) == pytest.approx(rate)


class TestStateRoundTrips:
    @pytest.mark.parametrize("decay_rate", [1.0, 1.3])
    def test_popularity_tracker_round_trip(self, decay_rate):
        source = build_tracker("shard-0", decay_rate)
        random_workload(source, random.Random(11))
        peer = build_tracker("shard-1", decay_rate)
        random_workload(peer, random.Random(12))
        sync(source, peer)  # the dump must carry the mirror too

        restored = build_tracker("ignored", decay_rate)
        restored.load_state(source.dump_state())
        assert restored.origin == "shard-0"
        assert_views_equal(effective_view(source), effective_view(restored))

        # Post-recovery records outrank anything peers mirror back.
        restored.record(("items", 1), weight=3.0)
        before = restored.present_count(("items", 1))
        sync(restored, peer)
        assert restored.present_count(("items", 1)) >= before - 1e-12

    def test_popularity_load_rejects_other_decay(self):
        source = build_tracker("a", 1.5)
        with pytest.raises(Exception, match="decay_rate"):
            build_tracker("b", 1.0).load_state(source.dump_state())

    def test_update_tracker_round_trip(self):
        clock = VirtualClock()
        source = UpdateRateTracker(
            clock=clock, time_constant=30.0, origin="shard-0"
        )
        rng = random.Random(31)
        for _ in range(15):
            clock.advance(rng.random() * 2)
            source.record_update(rng.choice(KEYS))
        restored = UpdateRateTracker(
            clock=clock, time_constant=30.0, origin="other"
        )
        restored.load_state(source.dump_state())
        assert restored.origin == "shard-0"
        for key in KEYS:
            assert restored.rate(key) == pytest.approx(source.rate(key))
