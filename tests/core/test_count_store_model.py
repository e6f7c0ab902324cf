"""Model-based differential test of the dense count store (Hypothesis).

The subject is a :class:`PopularityTracker` on the array-backed
:class:`InMemoryCountStore`, with batches priced and recorded as array
operations. The model below is the tracker as it was before that store:
a dict of counts, a dict of change stamps and a loop. Random
interleavings of every mutation drive both, and after every step every
observable must agree *bit for bit* — the vectorised arithmetic is only
allowed to be faster, never different.

The budget is one eighth of the active Hypothesis profile's
``max_examples`` (each example is a whole interleaving): 12 examples per
decay rate under tier-1's default profile, 100 under ``ci``
(``tests/conftest.py``).
"""

import json
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import numpy as np

from repro.core.counts import InMemoryCountStore
from repro.core.delay_policy import PopularityDelayPolicy
from repro.core.popularity import SMALL_BATCH, PopularityTracker
from repro.engine import Footprint

ITEMS = [("items", rowid) for rowid in range(120)]
CATEGORIES = [("categories", rowid) for rowid in range(8)]
UNIVERSE = ITEMS + CATEGORIES
#: per decay rate, a threshold low enough that rescales happen inside a
#: run yet high enough that some 48+ key batches fit below it.
THRESHOLDS = {1.0: 50.0, 1.0001: 5.0, 1.5: 1e30}
JUMP = PopularityTracker.RECOVERY_VERSION_JUMP


def thaw(key):
    return list(key) if isinstance(key, tuple) else key


def footprint_of(pairs):
    """``pairs`` (``(str, int)`` keys) as the engine's footprint."""
    tables = tuple(dict.fromkeys(table for table, _ in pairs)) or ("items",)
    codes = np.array([tables.index(table) for table, _ in pairs], np.int8)
    return Footprint(
        tables,
        np.array([rowid for _, rowid in pairs], dtype=np.int64),
        codes if len(tables) > 1 else None,
    )


class Model:
    """The tracker over dict counts, dict stamps and per-key loops.

    One deliberate difference from the code this was lifted from: a
    merged entry is *assigned* (that code added ``w - get`` and drifted
    by an ulp).
    """

    def __init__(self, gamma, threshold, rank_refresh, origin):
        self.gamma, self.threshold = gamma, threshold
        self.rank_refresh, self.origin = rank_refresh, origin
        self.version = self.rescales = 0
        self.reset(clear=False)

    def reset(self, clear=True):
        self.counts, self.changed = {}, {}
        self.version += clear
        self.inc, self.raw, self.dec = 1.0, 0.0, 0.0
        self.remote, self.meta, self.floor = {}, {}, None
        self.ranks, self.since_rank = None, 0

    def record(self, key, weight=1.0):
        amount = self.inc * weight
        self.counts[key] = self.counts.get(key, 0.0) + amount
        self.version += 1
        self.changed[key] = self.version
        self.dec += amount
        self.raw += weight
        self.inc *= self.gamma
        self.since_rank += 1
        if self.since_rank >= self.rank_refresh:
            self.ranks = None
        if self.inc > self.threshold:
            self.rescale()

    def restamp(self):
        self.version += 1
        self.changed.update(dict.fromkeys(self.counts, self.version))

    def rescale(self):
        factor = 1.0 / self.inc
        for key in self.counts:
            self.counts[key] *= factor
        self.restamp()
        self.dec *= factor
        self.inc = 1.0
        self.rescales += 1

    def apply_decay(self, factor):
        self.inc *= factor
        self.restamp()
        if self.inc > self.threshold:
            self.rescale()

    def remote_count(self, key):
        total = 0.0
        for entries in self.remote.values():
            if key in entries:
                total += entries[key][0]
        return total

    def present_count(self, key):
        count = self.counts.get(key, 0.0) / self.inc
        return count + self.remote_count(key) if self.remote else count

    def total(self, mode):
        own = self.raw if mode == "raw" else self.dec / self.inc
        field = "raw_total" if mode == "raw" else "decayed_total"
        if self.meta:
            own += sum(meta[field] for meta in self.meta.values())
        return own

    def popularity(self, key, mode):
        count, total = self.present_count(key), self.total(mode)
        return count / total if count > 0 and total > 0 else 0.0

    def rank(self, key):
        if self.ranks is None:
            merged = dict(self.counts)
            if self.remote:
                merged = {k: c / self.inc for k, c in merged.items()}
                for entries in self.remote.values():
                    for k, (mass, _version) in entries.items():
                        merged[k] = merged.get(k, 0.0) + mass
            ordered = sorted(
                merged.items(), key=lambda item: item[1], reverse=True
            )
            self.ranks = {k: i + 1 for i, (k, _c) in enumerate(ordered)}
            self.since_rank = 0
        return self.ranks.get(key, len(self.ranks) + 1)

    def versions(self):
        own = self.version if self.floor is None else self.floor
        return {
            self.origin: own,
            **{o: int(meta["version"]) for o, meta in self.meta.items()},
        }

    def own_entries(self, since=0):
        return [
            [thaw(key), self.counts[key] / self.inc, changed]
            for key, changed in self.changed.items()
            if changed > since
        ]

    def mirror_payload(self, origin, since=0):
        meta = self.meta[origin]
        return {
            "version": int(meta["version"]),
            "raw_total": meta["raw_total"],
            "decayed_total": meta["decayed_total"],
            "entries": [
                [thaw(key), mass, version]
                for key, (mass, version) in self.remote[origin].items()
                if version > since
            ],
        }

    def delta_since(self, versions):
        payloads = [
            {
                "origin": self.origin,
                "version": self.version,
                "raw_total": self.raw,
                "decayed_total": self.dec / self.inc,
                "entries": self.own_entries(versions.get(self.origin, 0)),
            }
        ]
        for origin in self.remote:
            since = versions.get(origin, 0)
            payload = self.mirror_payload(origin, since)
            if payload["entries"] or payload["version"] > since:
                payloads.append({"origin": origin, **payload})
        return {"payloads": payloads}

    def merge_store(self, version, entries):
        adopted = 0
        for key, weight, changed in entries:
            if changed > self.changed.get(key, 0):
                self.counts[key] = weight
                self.changed[key] = changed
                adopted += 1
        self.version = max(self.version + adopted, version)
        return adopted

    def merge(self, delta):
        adopted = 0
        for payload in delta["payloads"]:
            version = int(payload["version"])
            if payload["origin"] == self.origin:
                got = self.merge_store(
                    version,
                    [
                        (tuple(key), float(mass) * self.inc, int(changed))
                        for key, mass, changed in payload["entries"]
                    ],
                )
                if got:
                    self.dec = sum(self.counts.values())
                self.raw = max(self.raw, float(payload["raw_total"]))
                if self.floor is not None:
                    self.floor = max(self.floor, version)
                adopted += got
                continue
            mirror = self.remote.setdefault(payload["origin"], {})
            meta = self.meta.setdefault(
                payload["origin"],
                {"version": 0, "raw_total": 0.0, "decayed_total": 0.0},
            )
            for key, mass, changed in payload["entries"]:
                key = tuple(key)
                if key not in mirror or mirror[key][1] < changed:
                    mirror[key] = (float(mass), int(changed))
                    adopted += 1
            if version > meta["version"]:
                meta.update(
                    version=version,
                    raw_total=float(payload["raw_total"]),
                    decayed_total=float(payload["decayed_total"]),
                )
        if adopted:
            self.ranks = None
        return adopted

    def dump_state(self):
        return {
            "format": "repro-popularity-v1",
            "origin": self.origin,
            "decay_rate": self.gamma,
            "raw_total": self.raw,
            "decayed_total": self.dec / self.inc,
            "version": self.version,
            "counts": self.own_entries(),
            "remote": {o: self.mirror_payload(o) for o in self.meta},
        }

    def load_state(self, payload):
        self.reset()
        self.merge_store(
            payload["version"],
            [(tuple(k), float(m), int(v)) for k, m, v in payload["counts"]],
        )
        self.version = max(self.version, payload["version"] + JUMP)
        self.floor = payload["version"]
        self.raw = float(payload["raw_total"])
        self.dec = sum(self.counts.values())
        for origin, mirror in payload["remote"].items():
            self.remote[origin] = {
                tuple(k): (float(m), int(v)) for k, m, v in mirror["entries"]
            }
            self.meta[origin] = {
                field: mirror[field]
                for field in ("version", "raw_total", "decayed_total")
            }


def batch(style, length, seed):
    """A ``record_many`` argument: ``length`` keys in a seeded order."""
    rng = random.Random(seed)
    if style == "join":  # fact row, its dimension row, fact row, ...
        pairs = (
            (rng.choice(ITEMS), rng.choice(CATEGORIES)) for _ in range(length)
        )
        return [key for pair in pairs for key in pair][:length]
    if style == "hot":  # a few keys, so nearly every position repeats
        return rng.choices(UNIVERSE[:5], k=length)
    if style == "scan":  # distinct keys in table order, wrapping
        start = rng.randrange(len(ITEMS))
        return [ITEMS[(start + i) % len(ITEMS)] for i in range(length)]
    return rng.choices(UNIVERSE, k=length)


LENGTHS = st.one_of(
    st.sampled_from(
        [0, 1, SMALL_BATCH - 1, SMALL_BATCH, SMALL_BATCH + 1, 130]
    ),
    st.integers(0, 400),
    st.integers(0, 5000),
)


class DenseStoreMachine(RuleBasedStateMachine):
    gamma = 1.0

    @initialize(rank_refresh=st.sampled_from([1, 7, 1000]))
    def build(self, rank_refresh):
        options = dict(
            decay_rate=self.gamma,
            rescale_threshold=THRESHOLDS[self.gamma],
            rank_refresh=rank_refresh,
        )
        self.subject = PopularityTracker(origin="subject", **options)
        self.model = Model(
            self.gamma, THRESHOLDS[self.gamma], rank_refresh, "subject"
        )
        # A gossip partner with traffic of its own, and a witness that
        # only mirrors the subject and reflects it back after a restore.
        self.peer = PopularityTracker(origin="peer", **options)
        self.witness = PopularityTracker(origin="witness", **options)
        self.saved = None
        self.policies = [
            PopularityDelayPolicy(
                self.subject, 1000, cap=cap, beta=beta, mode=mode
            )
            for cap, beta, mode in (
                (10.0, 0.0, "raw"),
                (None, 0.0, "decayed"),
                (10.0, 1.0, "raw"),
            )
        ]

    @rule(
        key=st.sampled_from(UNIVERSE),
        weight=st.sampled_from([1.0, 0.5, 3.0]),
    )
    def record(self, key, weight):
        self.subject.record(key, weight)
        self.model.record(key, weight)

    @rule(
        style=st.sampled_from(["join", "hot", "scan", "uniform"]),
        length=LENGTHS,
        seed=st.integers(0, 2**16),
    )
    def record_many(self, style, length, seed):
        keys = batch(style, length, seed)
        self.subject.record_many(keys)
        for key in keys:
            self.model.record(key)

    @rule(
        style=st.sampled_from(["join", "hot", "scan", "uniform"]),
        length=LENGTHS,
        seed=st.integers(0, 2**16),
    )
    def record_footprint(self, style, length, seed):
        keys = batch(style, length, seed)
        self.subject.record_many(footprint_of(keys))
        for key in keys:
            self.model.record(key)

    @rule(factor=st.sampled_from([1.0, 1.5, 7.0, 1e3]))
    def apply_decay(self, factor):
        self.subject.apply_decay(factor)
        self.model.apply_decay(factor)

    @rule(seed=st.integers(0, 2**16), length=st.integers(1, 60))
    def gossip_from_peer(self, seed, length):
        self.peer.record_many(batch("uniform", length, seed))
        self.merge(self.peer.delta_since(self.subject.versions()))

    @rule()
    def witness_mirrors_subject(self):
        self.witness.merge(self.subject.delta_since(self.witness.versions()))

    @rule()
    def witness_reflects(self):
        self.merge(self.witness.delta_since(self.subject.versions()))

    def merge(self, delta):
        delta = json.loads(json.dumps(delta))  # as it crosses the wire
        assert self.subject.merge(delta) == self.model.merge(delta)
        # Idempotent: the same delta again adopts nothing.
        before = self.subject.dump_state()
        assert self.subject.merge(delta) == 0
        assert self.subject.dump_state() == before
        self.model.merge(delta)

    @rule()
    def checkpoint(self):
        self.saved = json.dumps(self.subject.dump_state())

    @rule()
    def crash_and_recover(self):
        """Back to the last checkpoint; the witness then reflects what
        it mirrored since, over the restored (non-zero) counts."""
        if self.saved is not None:
            self.subject.load_state(json.loads(self.saved))
            self.model.load_state(json.loads(self.saved))
            self.witness_reflects()

    @rule()
    def reset(self):
        self.subject.reset()
        self.model.reset()

    @rule(
        fraction=st.floats(0.0, 1.0),
        origin=st.sampled_from(["subject", "peer"]),
    )
    def delta_since_a_random_version(self, fraction, origin):
        since = {origin: int(self.model.versions().get(origin, 0) * fraction)}
        assert self.subject.delta_since(since) == self.model.delta_since(since)

    @invariant()
    def agree_bit_for_bit(self):
        subject, model = self.subject, self.model
        assert subject.total_requests == model.total("raw")
        assert subject.decayed_total == model.total("decayed")
        assert subject.rescales == model.rescales
        assert subject.versions() == model.versions()
        assert subject.dump_state() == model.dump_state()
        for key in UNIVERSE:
            assert subject.present_count(key) == model.present_count(key)
            assert subject.rank(key) == model.rank(key)
        for mode in ("raw", "decayed"):
            expected = [model.popularity(key, mode) for key in UNIVERSE]
            assert subject.popularity_many(UNIVERSE, mode) == expected
            assert expected == [
                subject.popularity(key, mode) for key in UNIVERSE
            ]
            assert subject.max_popularity(mode) == max(expected)
        footprint = footprint_of(UNIVERSE)
        for policy in self.policies:
            expected = [policy.delay_for(key) for key in UNIVERSE]
            assert policy.delays_for(UNIVERSE) == expected
            assert policy.delays_for(footprint) == expected


def machine_for(gamma):
    name = f"DenseStoreMachine[{gamma}]"
    case = type(name, (DenseStoreMachine,), {"gamma": gamma}).TestCase
    case.settings = settings(
        max_examples=max(1, settings.default.max_examples // 8),
        stateful_step_count=40,
        deadline=None,
    )
    return case


TestNoDecay = machine_for(1.0)
TestSlowDecay = machine_for(1.0001)
TestFastDecay = machine_for(1.5)


# -- the footprint lookup against its list-only twin --------------------------

#: keys a footprint can carry: plain (str, int) pairs, a rowid far past
#: any table's size, and rowids the exotic keys below collide with.
PLAIN = (
    [("t", rowid) for rowid in range(70)]
    + [("u", rowid) for rowid in range(20)]
    + [("t", 10**12)]
)
#: keys only lists carry: ('t', True) and ('t', np.int64(3)) hash and
#: compare like ('t', 1) and ('t', 3), and keys that are no pair at all.
EXOTIC = [("t", True), ("t", np.int64(3)), ("t", 2.0), 7, "x", ("t",)]
ANY = PLAIN + EXOTIC
JUMPED = 1 << 32


class FootprintStoreMachine(RuleBasedStateMachine):
    """One store fed footprints, a twin fed the same keys as lists:
    every slot, weight, stamp and version must agree bit for bit, and
    the rowid index must stay O(tracked keys)."""

    def __init__(self):
        super().__init__()
        self.subject, self.twin = InMemoryCountStore(), InMemoryCountStore()
        self.donor = InMemoryCountStore()
        self.saved = None

    def both(self, call):
        call(self.subject)
        call(self.twin)

    @rule(key=st.sampled_from(ANY), amount=st.sampled_from([1.0, 0.3, 2.5]))
    def add(self, key, amount):
        self.both(lambda store: store.add(key, amount))

    @rule(keys=st.lists(st.sampled_from(ANY), max_size=120))
    def add_many_list(self, keys):
        amounts = np.linspace(0.1, 3.0, len(keys))
        self.both(lambda store: store.add_many(keys, amounts))

    @rule(keys=st.lists(st.sampled_from(PLAIN), min_size=1, max_size=160))
    def add_many_footprint(self, keys):
        amounts = np.linspace(0.7, 1.9, len(keys))
        self.subject.add_many(footprint_of(keys), amounts)
        self.twin.add_many(keys, amounts)

    @rule(keys=st.lists(st.sampled_from(PLAIN), min_size=1, max_size=160))
    def get_many(self, keys):
        got = self.subject.get_many(footprint_of(keys))
        assert got.tobytes() == self.twin.get_many(keys).tobytes()
        assert got.tobytes() == self.subject.get_many(keys).tobytes()

    @rule()
    def clear(self):
        self.both(InMemoryCountStore.clear)

    @rule(keys=st.lists(st.sampled_from(PLAIN + [("v", 5)]), max_size=40))
    def merge(self, keys):
        for key in keys:
            self.donor.add(key, 1.5)
        delta = json.loads(json.dumps(self.donor.delta_since(0)))
        assert self.subject.merge(delta) == self.twin.merge(delta)

    @rule()
    def checkpoint(self):
        self.saved = self.subject.delta_since(0)

    @rule()
    def load_state(self):
        """What DecayedCounts.load_state does to its store."""
        if self.saved is None:
            return
        saved = json.loads(json.dumps(self.saved, default=int))

        def restore(store):
            store.clear()
            store.merge(saved)
            store.advance_version(saved["version"] + JUMPED)

        self.both(restore)

    @invariant()
    def agree_bit_for_bit(self):
        subject, twin = self.subject, self.twin
        assert repr(list(subject._slots.items())) == repr(
            list(twin._slots.items())
        )
        assert subject.version == twin.version
        for since in (0, subject.version // 2, subject.version):
            assert repr(subject.delta_since(since)) == repr(
                twin.delta_since(since)
            )
        used = len(subject._slots)
        assert subject._weights[:used].tobytes() == twin._weights[:used].tobytes()
        assert subject._stamps[:used].tobytes() == twin._stamps[:used].tobytes()

    @invariant()
    def index_stays_o_of_tracked_keys(self):
        index = self.subject._slot_index
        if index is None:
            return
        for array in index._arrays.values():
            assert len(array) <= 4 * len(index.source) + 1024


def test_a_footprint_finds_the_slot_of_a_key_of_another_type():
    # The dict matches ('t', 1) to ('t', True), ('t', 3) to
    # ('t', np.int64(3)) and ('t', 2) to ('t', 2.0); a footprint must
    # too, after its table's array is built and with the key inside it.
    for exotic in EXOTIC[:3]:
        subject, twin = InMemoryCountStore(), InMemoryCountStore()
        plain = [("t", rowid) for rowid in range(10, 70)]
        for store in (subject, twin):
            store.add(exotic, 2.0)
        subject.add_many(footprint_of(plain), np.ones(len(plain)))
        twin.add_many(plain, np.ones(len(plain)))
        probe = [("t", rowid) for rowid in range(60)]
        assert subject.get_many(footprint_of(probe)).tobytes() == (
            twin.get_many(probe).tobytes()
        )
        subject.add_many(footprint_of(probe), np.full(len(probe), 0.5))
        twin.add_many(probe, np.full(len(probe), 0.5))
        assert repr(subject.delta_since(0)) == repr(twin.delta_since(0))


TestFootprintStore = FootprintStoreMachine.TestCase
TestFootprintStore.settings = settings(
    max_examples=max(1, settings.default.max_examples // 4),
    stateful_step_count=40,
    deadline=None,
)
