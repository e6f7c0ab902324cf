"""Model-based test of the update-rate tracker's decay clock (Hypothesis).

The subject is an :class:`UpdateRateTracker`: an update at ``t`` adds
``e^{(t - t0)/τ}`` to the shared count store, and the store rescales
when that increment nears overflow. The model keeps what the paper
defines instead: every update as a ``(weight, time)`` event, and a
count as ``Σ w · e^{-(now - t)/τ}`` (``Σ w`` when τ is None, read as a
rate over the time since the tracker started). Random interleavings of
batches, out-of-order and future stamps, clock jumps past the rescale
point, priming, resets, gossip with a peer, reflection back from a
witness after a crash, and snapshots drive both; after every step every
rate must equal the model's to 1e-12 relative, and bit for bit when τ
is None.

Which entries a merge adopts is decided by per-(origin, key) versions.
The popularity model (``test_count_store_model.py``) checks that shared
bookkeeping bit for bit, so this model reads the versions from the
public deltas and checks only the values: what each adopted entry is
worth, as it ages, across every rescale.

The budget is one eighth of the active Hypothesis profile's
``max_examples`` per time constant, as in the popularity model.
"""

import copy
import json
import math
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.clock import VirtualClock
from repro.core.delay_policy import (
    ARRAY_PRICING_FROM,
    CompositeDelayPolicy,
    FixedDelayPolicy,
    UpdateRateDelayPolicy,
)
from repro.core.popularity import SMALL_BATCH
from repro.core.update_tracker import UpdateRateTracker

UNIVERSE = [("items", rowid) for rowid in range(64)]
#: below this a count is rounding noise of subnormal terms on both sides
TINY = 1e-280


def entries_by_origin(delta):
    """origin -> {key: version} for every entry of a delta."""
    return {
        payload["origin"]: {
            tuple(key): version for key, _count, version in payload["entries"]
        }
        for payload in delta["payloads"]
    }


class Node:
    """One tracker's state as the model sees it: per-origin events."""

    def __init__(self, started):
        self.events = {}  # origin -> key -> [(weight, time)]
        self.meta = {}  # origin -> (version, raw_total), mirrors only
        self.raw = 0
        self.started = started

    def own(self, origin):
        return self.events.setdefault(origin, {})


class Model:
    def __init__(self, tau, now):
        self.tau = tau
        self.subject = Node(now)
        self.peer = Node(now)
        self.witness = Node(now)

    def present(self, events, now):
        total = 0.0
        for weight, time in events:
            if self.tau is None:
                total += weight
            else:
                total += weight * math.exp(-(now - time) / self.tau)
        return total

    def count(self, node, key, now):
        total = 0.0
        for entries in node.events.values():
            total += self.present(entries.get(key, ()), now)
        return total

    def rate(self, node, key, now):
        count = self.count(node, key, now)
        if count <= 0:
            return 0.0
        if self.tau is not None:
            return count / self.tau
        elapsed = now - node.started
        return count / elapsed if elapsed > 0 else count

    def merge(self, source, target, delta, held, target_origin):
        """Fold ``delta`` from ``source`` into ``target``: adopt each
        entry newer than ``held`` (the target's versions before)."""
        stamps = entries_by_origin(held)
        for payload in delta["payloads"]:
            origin = payload["origin"]
            target.started = min(target.started, payload["started"])
            mine = stamps.get(origin, {})
            for key, _count, version in payload["entries"]:
                key = tuple(key)
                if version > mine.get(key, 0):
                    events = source.events.get(origin, {}).get(key, [])
                    target.own(origin)[key] = copy.deepcopy(events)
            if origin == target_origin:
                target.raw = max(target.raw, payload["raw_total"])
            elif payload["version"] > target.meta.get(origin, (0, 0))[0]:
                target.meta[origin] = (
                    payload["version"],
                    payload["raw_total"],
                )

    def total_updates(self, node):
        return int(node.raw + sum(raw for _v, raw in node.meta.values()))


def batch(length, seed):
    rng = random.Random(seed)
    return [rng.choice(UNIVERSE[:12] if seed % 2 else UNIVERSE)
            for _ in range(length)]


class UpdateRateMachine(RuleBasedStateMachine):
    tau = None

    @initialize(start=st.sampled_from([0.0, 1000.0]))
    def build(self, start):
        self.clock = VirtualClock(start)
        self.subject = UpdateRateTracker(self.clock, self.tau, "subject")
        self.peer = UpdateRateTracker(self.clock, self.tau, "peer")
        self.witness = UpdateRateTracker(self.clock, self.tau, "witness")
        self.model = Model(self.tau, start)
        self.saved = None
        cap = 10.0
        by_rate = UpdateRateDelayPolicy(self.subject, 1000, c=5.0, cap=cap)
        self.policies = [
            by_rate,
            UpdateRateDelayPolicy(self.subject, 10, c=1.0, cap=None),
            CompositeDelayPolicy([by_rate, FixedDelayPolicy(0.5)], "min"),
            CompositeDelayPolicy([by_rate, FixedDelayPolicy(0.5)], "sum"),
        ]

    def now(self):
        return self.clock.now()

    def record_into(self, tracker, node, origin, keys, offset):
        """``keys`` recorded in one batch at ``now + offset`` (None: the
        clock), in tracker and model alike."""
        at = None if offset is None else self.now() + offset
        tracker.record_many(keys, at=at)
        time = self.now() if at is None else min(at, self.now())
        for key in keys:
            node.own(origin).setdefault(key, []).append((1.0, time))
        node.raw += len(keys)

    offsets = st.one_of(
        st.none(),
        st.sampled_from([0.0, -0.5, -3.0, -40.0, 2.0, 1e6, 1e300]),
    )

    @rule(key=st.sampled_from(UNIVERSE), offset=offsets)
    def record(self, key, offset):
        if offset is None and key[1] % 2:
            self.subject.record_update(key)
            self.model.subject.own("subject").setdefault(key, []).append(
                (1.0, self.now())
            )
            self.model.subject.raw += 1
            return
        self.record_into(
            self.subject, self.model.subject, "subject", [key], offset
        )

    @rule(
        length=st.sampled_from(
            [0, 2, SMALL_BATCH - 1, SMALL_BATCH, SMALL_BATCH + 9, 200]
        ),
        seed=st.integers(0, 2**16),
        offset=offsets,
    )
    def record_batch(self, length, seed, offset):
        self.record_into(
            self.subject,
            self.model.subject,
            "subject",
            batch(length, seed),
            offset,
        )

    @rule(seconds=st.sampled_from([0.25, 1.0, 7.5, 60.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule(time_constants=st.sampled_from([231.0, 240.5, 700.0]))
    def advance_past_rescale(self, time_constants):
        """Further than the increment may grow: the store rescales."""
        self.clock.advance(time_constants * (self.tau or 1.0))

    @rule(
        rates=st.dictionaries(
            st.sampled_from(UNIVERSE),
            st.sampled_from([0.0, 0.01, 0.5, 3.0]),
            max_size=6,
        ),
        window=st.sampled_from([10.0, 1e3]),
    )
    def prime(self, rates, window):
        self.subject.prime(rates, window=window)
        node = self.model.subject
        span = self.tau if self.tau is not None else window
        for key, rate in rates.items():
            if rate:
                node.own("subject")[key] = [(rate * span, self.now())]
        if self.tau is None:
            node.started = min(node.started, self.now() - window)

    @rule()
    def reset(self):
        self.subject.reset()
        self.model.subject = Node(self.now())

    def merge_into(self, target, node, origin, delta, source):
        delta = json.loads(json.dumps(delta))  # as it crosses the wire
        held = target.delta_since({})
        adopted = target.merge(delta)
        self.model.merge(source, node, delta, held, origin)
        # Idempotent: the same delta again adopts nothing.
        before = target.dump_state()
        assert target.merge(delta) == 0
        assert target.dump_state() == before
        return adopted

    @rule(length=st.integers(1, 60), seed=st.integers(0, 2**16),
          offset=offsets)
    def gossip_from_peer(self, length, seed, offset):
        self.record_into(
            self.peer, self.model.peer, "peer", batch(length, seed), offset
        )
        self.merge_into(
            self.subject,
            self.model.subject,
            "subject",
            self.peer.delta_since(self.subject.versions()),
            self.model.peer,
        )

    @rule()
    def witness_mirrors_subject(self):
        self.merge_into(
            self.witness,
            self.model.witness,
            "witness",
            self.subject.delta_since(self.witness.versions()),
            self.model.subject,
        )

    @rule()
    def witness_reflects(self):
        self.merge_into(
            self.subject,
            self.model.subject,
            "subject",
            self.witness.delta_since(self.subject.versions()),
            self.model.witness,
        )

    @rule()
    def checkpoint(self):
        self.saved = (
            json.dumps(self.subject.dump_state()),
            copy.deepcopy(self.model.subject),
        )

    @rule()
    def crash_and_recover(self):
        """Back to the last checkpoint; the witness then reflects what
        it mirrored since."""
        if self.saved is not None:
            self.subject.load_state(json.loads(self.saved[0]))
            self.model.subject = copy.deepcopy(self.saved[1])
            self.witness_reflects()

    @rule()
    def round_trip(self):
        restored = UpdateRateTracker(self.clock, self.tau, "elsewhere")
        restored.load_state(json.loads(json.dumps(self.subject.dump_state())))
        assert restored.origin == "subject"
        for key in UNIVERSE:
            self.assert_close(restored.rate(key), self.subject.rate(key))

    def assert_close(self, got, want):
        if self.tau is None:
            assert got == want
        elif want < TINY:
            assert got < TINY
        else:
            assert math.isclose(got, want, rel_tol=1e-12), (got, want)

    @invariant()
    def rates_match_the_model(self):
        subject, model, now = self.subject, self.model, self.now()
        node = model.subject
        expected = [model.rate(node, key, now) for key in UNIVERSE]
        rates = [subject.rate(key) for key in UNIVERSE]
        for got, want in zip(rates, expected):
            self.assert_close(got, want)
        for key in UNIVERSE:
            self.assert_close(subject.count(key), model.count(node, key, now))
        # One gather prices exactly what the per-key loop prices.
        assert subject.rate_array(UNIVERSE).tolist() == rates
        assert subject.rate_many(UNIVERSE[:5]) == rates[:5]
        assert subject.total_updates == model.total_updates(node)
        known = set()
        for entries in node.events.values():
            known.update(entries)
        assert subject.tracked_keys() == len(known)
        snapshot = dict(subject.snapshot())
        assert set(snapshot) == known
        for key in known & set(UNIVERSE):
            assert snapshot[key] == subject.rate(key)
        for policy in self.policies:
            # Both sides of the array-pricing switch.
            for size in (1, ARRAY_PRICING_FROM - 1, ARRAY_PRICING_FROM):
                assert policy.delays_for(UNIVERSE[:size]) == [
                    policy.delay_for(key) for key in UNIVERSE[:size]
                ]
            assert policy.delays_for(UNIVERSE) == [
                policy.delay_for(key) for key in UNIVERSE
            ]
            for delay in policy.delays_for(UNIVERSE):
                assert not math.isnan(delay)


def machine_for(tau):
    name = f"UpdateRateMachine[{tau}]"
    case = type(name, (UpdateRateMachine,), {"tau": tau}).TestCase
    case.settings = settings(
        max_examples=max(1, settings.default.max_examples // 8),
        stateful_step_count=40,
        deadline=None,
    )
    return case


TestStationary = machine_for(None)
TestShortTimeConstant = machine_for(0.5)
TestLongTimeConstant = machine_for(30.0)
