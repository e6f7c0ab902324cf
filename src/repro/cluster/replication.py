"""Replica groups: journal-shipped followers with priced-safe failover.

Each shard becomes a *replica group* — one primary plus N followers.
The primary's write-ahead journal is the commit record, so replication
is journal shipping: a :class:`~repro.engine.journal.JournalFollower`
tails the primary's journal file and the group forwards every newly
committed frame to each follower over a length-prefixed, crc-framed
stream (the same framing the journal itself uses). Followers replay
each entry through :func:`repro.engine.durability.replay_entry`, note
its tracked rows' update times, persist the frame *verbatim* into
their own replica journal (preserving the primary's ``seq``, so the
follower journal is byte-identical to the replicated prefix), and
acknowledge a replicated high-water mark.

**Why promotion is price-safe.** Every shipment piggybacks a tracker
digest (the same versioned delta-state CRDT gossip exchanges), and the
follower's ack carries its version vector back, so a follower's
popularity and update-rate views equal the primary's *as of its last
acknowledged shipment* — the committed prefix of the defense state,
exactly parallel to the committed prefix of the data. The digest is
the only way a shipped write's update count reaches a follower: the
apply path counts nothing under the follower's own origin, which
gossip would otherwise add to the primary's count of the same write.
The CRDT merge is stale-HIGH: mirrored mass is pinned at adoption while
live origins decay, and raw request totals are monotone max-merged, so
a promoted follower can only *overstate* the recorded mass, never
understate the totals that scale every delay (``tests/cluster/
test_promotion_properties.py`` asserts both directions; see also
``tests/core/test_merge_properties.py``).

**Fencing.** Promotion bumps the group ``term``. A deposed primary
that comes back and tries to ship under its old term gets a ``nack``
from every follower and is fenced — its unreplicated suffix is
discarded rather than spliced into the promoted timeline.

Fault points: ``replication.ship`` fires before each follower
shipment, ``replication.ack`` before each ack is processed, and
``group.primary`` inside the monitor's primary liveness probe — the
chaos suite drops frames, stalls the stream, and kills primaries
through these.
"""

from __future__ import annotations

import json
import struct
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..core.errors import DelayDefenseError, ShardUnavailable
from ..engine.durability import replay_entry
from ..engine.journal import JournalFollower, WriteAheadJournal
from ..testing.faults import fire

PRIMARY = "primary"
FOLLOWER = "follower"
FENCED = "fenced"

#: Wire frame header: payload byte length, then crc32 of the payload —
#: deliberately the same shape as a journal frame.
_WIRE_HEADER = struct.Struct(">II")

#: Upper bound on a single wire message (a ship batch of WAL frames
#: plus a tracker digest; far above any real batch).
MAX_MESSAGE_BYTES = 128 * 1024 * 1024


class ReplicationError(DelayDefenseError):
    """Raised for malformed replication traffic or misuse."""


class StaleTermError(ReplicationError):
    """A deposed primary tried to ship under an out-of-date term."""

    def __init__(self, member_id: str, term: int, current: int):
        super().__init__(
            f"{member_id} shipped under fenced term {term} "
            f"(group is at term {current})"
        )
        self.term = term
        self.current = current


# -- the length-prefixed stream ----------------------------------------------


def encode_message(message: Dict) -> bytes:
    """Frame one JSON message for the replication stream."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _WIRE_HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


class WireDecoder:
    """Incremental decoder for the replication stream.

    Feed it byte chunks as they arrive (TCP reads split frames
    arbitrarily); it buffers partial frames and yields each complete
    message exactly once. Corruption is an error, not a truncation —
    unlike a journal tail, a live stream has no honest torn state.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict]:
        """Absorb ``data``; return every newly completed message."""
        self._buffer.extend(data)
        messages: List[Dict] = []
        while len(self._buffer) >= _WIRE_HEADER.size:
            length, checksum = _WIRE_HEADER.unpack_from(self._buffer, 0)
            if length > MAX_MESSAGE_BYTES:
                raise ReplicationError(
                    f"replication frame of {length} bytes exceeds the "
                    f"{MAX_MESSAGE_BYTES}-byte bound (corrupt stream?)"
                )
            end = _WIRE_HEADER.size + length
            if len(self._buffer) < end:
                break
            body = bytes(self._buffer[_WIRE_HEADER.size : end])
            del self._buffer[:end]
            if zlib.crc32(body) & 0xFFFFFFFF != checksum:
                raise ReplicationError(
                    "replication frame checksum mismatch (corrupt stream)"
                )
            messages.append(json.loads(body.decode("utf-8")))
        return messages

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# -- group members ------------------------------------------------------------


class ReplicaMember:
    """One member of a replica group.

    Two flavours share this class:

    * **servable** members wrap an in-process
      :class:`~repro.service.DataProviderService` (``service`` set) —
      the primary journals locally; followers own a replica
      :class:`~repro.engine.journal.WriteAheadJournal` the apply path
      writes shipped frames into.
    * **process-backed** members (``service=None``) stand in for a
      primary served by another OS process; only liveness (via
      ``probe``) and fencing state are tracked here — the SIGKILL
      failover harness uses one.

    Args:
        member_id: stable identity, e.g. ``"shard-2-r1"``.
        service: the in-process service, when this member is local.
        journal: a follower's replica journal (``None`` for a primary
            whose service journals on its own, and for process-backed
            members).
        role: starting role.
        probe: optional liveness callable; ``None`` means the in-
            process ``alive`` flag is authoritative.
    """

    def __init__(
        self,
        member_id: str,
        service=None,
        journal: Optional[WriteAheadJournal] = None,
        role: str = FOLLOWER,
        probe: Optional[Callable[[], bool]] = None,
    ):
        self.member_id = member_id
        self.service = service
        self.journal = journal
        self.role = role
        self.probe = probe
        self.alive = True
        #: the term under which this member last held (or holds) the
        #: primary role; ships carry it, followers fence against it.
        self.term = 0
        #: highest seq this member has applied (follower side).
        self.applied_seq = 0
        #: highest seq this member has acknowledged (primary's view).
        self.acked_seq = 0
        #: highest term this member has witnessed (fencing floor).
        self.term_seen = 0
        #: the peer's tracker versions from its last ack, so the next
        #: shipment's digest carries exactly what it is missing.
        self.peer_versions: Optional[Dict] = None
        self._decoder = WireDecoder()
        self._lock = threading.Lock()

    # -- liveness ------------------------------------------------------------

    @property
    def servable(self) -> bool:
        """True when this member can serve queries in this process."""
        return self.service is not None

    def check_alive(self) -> bool:
        """Run the liveness probe (or read the in-process flag)."""
        if self.probe is not None:
            try:
                self.alive = bool(self.probe())
            except Exception:
                self.alive = False
        return self.alive

    def kill(self) -> None:
        """Mark this member dead (test/ops hook simulating a crash)."""
        self.alive = False

    @property
    def guard(self):
        if self.service is None:
            raise ReplicationError(
                f"{self.member_id} is process-backed; no local guard"
            )
        return self.service.guard

    # -- the follower apply path ---------------------------------------------

    def feed(self, data: bytes) -> bytes:
        """Absorb replication stream bytes; return framed replies.

        The transport glue on both sides is this one call: the group
        ships by feeding a follower the encoded batch and processing
        the returned ack bytes; a socket harness pumps recv/send
        through it unchanged.
        """
        replies = b""
        for message in self._decoder.feed(data):
            replies += encode_message(self.apply_ship(message))
        return replies

    def apply_ship(self, message: Dict) -> Dict:
        """Apply one ship message; return the ack (or fencing nack)."""
        if message.get("t") != "ship":
            raise ReplicationError(
                f"unexpected replication message {message.get('t')!r}"
            )
        if self.service is None:
            raise ReplicationError(
                f"{self.member_id} is process-backed and cannot apply"
            )
        term = int(message.get("term", 0))
        with self._lock:
            if term < self.term_seen:
                return {
                    "t": "nack",
                    "reason": "stale_term",
                    "term": self.term_seen,
                    "seq": self.applied_seq,
                }
            self.term_seen = term
            for payload in message.get("entries", ()):
                seq = int(payload["seq"])
                if seq <= self.applied_seq:
                    continue  # idempotent re-delivery
                entry = replay_entry(self.service.database, payload)
                if entry.tracked and entry.table and entry.rowids:
                    self.service.guard.note_replicated_updates(
                        entry.table, entry.rowids, entry.ts
                    )
                if self.journal is not None:
                    self.journal.append_replica(payload)
                self.applied_seq = seq
            digest = message.get("digest")
            if digest:
                self.service.guard.gossip_merge(digest)
            return {
                "t": "ack",
                "term": term,
                "seq": self.applied_seq,
                "versions": self.service.guard.gossip_versions(),
            }

    def health(self, committed_seq: int) -> Dict:
        """One row of the group's replication health table."""
        return {
            "member": self.member_id,
            "role": self.role,
            "alive": self.alive,
            "servable": self.servable,
            "term": self.term,
            "applied_seq": self.applied_seq,
            "acked_seq": self.acked_seq,
            "lag": max(committed_seq - self.acked_seq, 0)
            if self.role == FOLLOWER and self.alive
            else 0,
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaMember({self.member_id!r}, role={self.role}, "
            f"alive={self.alive}, applied={self.applied_seq})"
        )


# -- the group ----------------------------------------------------------------


class ReplicaGroup:
    """A shard served by a primary plus followers, with failover.

    Quacks like the shard service the router and cluster glue expect:
    ``guard``/``database``/``journal``/``checkpoint``/
    ``durability_health`` delegate to the *current* primary, so a
    promotion transparently redirects every caller; ``close`` closes
    every member. When no live
    servable member remains, the delegating properties raise
    :class:`~repro.core.errors.ShardUnavailable` with a ``retry_after``
    of one probe interval — the router turns that into the structured
    degraded-mode denial.

    Args:
        index: the shard index this group serves.
        members: the members; ``members[0]`` starts as primary.
        retry_after: the ``retry_after`` hint attached to denials
            while the group is down (set this to the monitor's probe
            interval).
        audit: optional audit log for failover/fencing events.
    """

    def __init__(
        self,
        index: int,
        members: Sequence[ReplicaMember],
        retry_after: float = 1.0,
        audit=None,
    ):
        if not members:
            raise ReplicationError("a replica group needs >= 1 member")
        self.index = index
        self.members = list(members)
        self.retry_after = retry_after
        self.audit = audit
        self.term = 1
        self.failovers = 0
        self.fencings = 0
        self.ship_failures = 0
        self.shipments_total = 0
        self.entries_shipped_total = 0
        self._lock = threading.Lock()
        self._primary = self.members[0]
        self._primary.role = PRIMARY
        self._primary.term = self.term
        self._primary.term_seen = self.term
        self._pending: List = []  # JournalRecords polled, not yet pruned
        self._tail: Optional[JournalFollower] = None
        if self._primary.servable and self._primary.service.journal is not None:
            self._tail = JournalFollower(
                self._primary.service.journal.path
            )

    # -- the service surface (delegates to the current primary) --------------

    @property
    def primary(self) -> ReplicaMember:
        return self._primary

    @property
    def followers(self) -> List[ReplicaMember]:
        return [m for m in self.members if m is not self._primary]

    @property
    def available(self) -> bool:
        """True when the current primary can serve queries here."""
        primary = self._primary
        return primary.servable and primary.alive and primary.role == PRIMARY

    def _require_available(self) -> ReplicaMember:
        primary = self._primary
        if not self.available:
            raise ShardUnavailable(
                [self.index], retry_after=self.retry_after
            )
        return primary

    @property
    def guard(self):
        return self._require_available().service.guard

    @property
    def database(self):
        return self._require_available().service.database

    @property
    def journal(self):
        if not self.available:
            return None
        return self._primary.service.journal

    def checkpoint(self) -> int:
        # Ship first: checkpointing truncates the primary journal, and
        # frames must reach every follower before they are cut away.
        self.ship()
        return self._require_available().service.checkpoint()

    def close(self) -> None:
        """Close every local member's service and replica journal
        (idempotent; a promoted member's replica journal is its live
        one, closed twice harmlessly)."""
        for member in self.members:
            if member.service is not None:
                member.service.close()
            if member.journal is not None:
                member.journal.close()

    def durability_health(self) -> Dict:
        if not self.available:
            return {"journal_attached": False, "available": False}
        return self._primary.service.durability_health()

    @property
    def member_guards(self) -> List:
        """Every local member's guard (for the gossip mesh)."""
        return [m.service.guard for m in self.members if m.servable]

    # -- shipping ------------------------------------------------------------

    @property
    def committed_seq(self) -> int:
        """The primary's committed high-water mark, best known."""
        primary = self._primary
        if primary.servable and primary.service.journal is not None:
            return primary.service.journal.last_seq
        if self._tail is not None:
            return self._tail.last_seq
        return max((m.acked_seq for m in self.members), default=0)

    def ship(self) -> int:
        """Ship newly committed frames (plus a tracker digest) to
        followers; process their acks. Returns entries delivered."""
        return self._ship_from(self._primary)

    def _ship_from(self, shipper: ReplicaMember) -> int:
        """Ship as ``shipper`` — the monitor ships as the current
        primary; the fencing tests ship as a deposed one."""
        with self._lock:
            if shipper is self._primary and self._tail is not None:
                # Only synced frames: one whose fsync fails is cut back.
                journal = shipper.service.journal
                self._pending.extend(
                    self._tail.poll(
                        None if journal is None else journal.size_bytes
                    )
                )
            if not (shipper.servable and shipper.alive):
                return 0
            delivered = 0
            # Target every member the shipper believes follows it. For
            # the real primary that is exactly `followers`; for a
            # deposed zombie it includes the promoted primary — whose
            # nack is what fences the zombie.
            for member in self.members:
                if member is shipper:
                    continue
                if not (member.servable and member.alive):
                    continue
                if member.role == FENCED:
                    continue
                entries = [
                    record.payload
                    for record in self._pending
                    if record.seq > member.acked_seq
                ]
                digest = shipper.service.guard.gossip_digest(
                    member.peer_versions
                )
                if not entries and not any(digest.values()):
                    continue
                message = {
                    "t": "ship",
                    "group": self.index,
                    "term": shipper.term,
                    "entries": entries,
                    "digest": digest,
                }
                blob = encode_message(message)
                try:
                    fire("replication.ship")
                    replies = member.feed(blob)
                    fire("replication.ack")
                except Exception:
                    self.ship_failures += 1
                    continue
                acks = WireDecoder().feed(replies)
                if not acks:
                    self.ship_failures += 1
                    continue
                ack = acks[-1]
                if ack.get("t") == "nack":
                    self._fence(shipper, int(ack.get("term", 0)))
                    raise StaleTermError(
                        shipper.member_id, shipper.term, self.term
                    )
                member.acked_seq = int(ack.get("seq", member.acked_seq))
                member.peer_versions = ack.get("versions")
                delivered += len(entries)
                self.shipments_total += 1
            self.entries_shipped_total += delivered
            self._prune_pending()
            return delivered

    def _prune_pending(self) -> None:
        live_acks = [
            m.acked_seq
            for m in self.followers
            if m.servable and m.alive and m.role != FENCED
        ]
        if not live_acks:
            return
        floor = min(live_acks)
        self._pending = [r for r in self._pending if r.seq > floor]

    def _fence(self, member: ReplicaMember, term_seen: int) -> None:
        member.role = FENCED
        self.fencings += 1
        self._emit(
            "replication_fenced",
            group=self.index,
            member=member.member_id,
            stale_term=member.term,
            current_term=max(self.term, term_seen),
        )

    # -- failover ------------------------------------------------------------

    def promote(self, reason: str = "primary_dead") -> Optional[ReplicaMember]:
        """Promote the most-caught-up live follower; fence the old
        primary's term. Returns the new primary, or None when no
        follower can serve."""
        with self._lock:
            old = self._primary
            candidates = [
                m
                for m in self.followers
                if m.servable and m.alive and m.role == FOLLOWER
            ]
            if not candidates:
                return None
            best = max(candidates, key=lambda m: m.applied_seq)
            old.alive = False
            # Fence the deposed primary immediately: if it comes back
            # it must not ship (its unreplicated suffix diverged) and
            # must not receive ships (its journal can conflict with the
            # promoted timeline) until an operator re-seeds it.
            old.role = FENCED
            self.term += 1
            best.term = self.term
            best.term_seen = self.term
            best.role = PRIMARY
            for member in self.members:
                if member.servable and member is not old:
                    # The promotion is authoritative for every local
                    # member: raising their fencing floor now means a
                    # deposed primary's stale-term ship is nacked even
                    # before the new primary's first shipment.
                    member.term_seen = max(member.term_seen, self.term)
            if (
                best.journal is not None
                and best.service.database.journal is None
            ):
                # The replica journal becomes the live one: new commits
                # continue the replicated sequence numbering.
                best.service.database.attach_journal(best.journal)
            self._primary = best
            # Future ships read the promoted journal; rewind far enough
            # to refill frames any surviving follower still lacks.
            floor = min(
                [
                    m.applied_seq
                    for m in self.members
                    if m is not best and m.servable and m.alive
                ]
                + [best.applied_seq]
            )
            if best.service.journal is not None:
                self._tail = JournalFollower(
                    best.service.journal.path, after_seq=floor
                )
            else:
                self._tail = None
            self._pending = []
            for member in self.followers:
                if member.servable:
                    member.acked_seq = min(
                        member.acked_seq, member.applied_seq
                    )
            self.failovers += 1
            self._emit(
                "replication_failover",
                group=self.index,
                reason=reason,
                old_primary=old.member_id,
                new_primary=best.member_id,
                term=self.term,
                promoted_at_seq=best.applied_seq,
            )
            return best

    # -- observability -------------------------------------------------------

    def replication_health(self) -> Dict:
        committed = self.committed_seq
        members = [m.health(committed) for m in self.members]
        lags = [
            row["lag"]
            for row in members
            if row["role"] == FOLLOWER and row["alive"]
        ]
        return {
            "group": self.index,
            "term": self.term,
            "available": self.available,
            "primary": self._primary.member_id,
            "committed_seq": committed,
            "replication_lag": max(lags, default=0),
            "failovers": self.failovers,
            "fencings": self.fencings,
            "ship_failures": self.ship_failures,
            "entries_shipped_total": self.entries_shipped_total,
            "members": members,
        }

    def _emit(self, event: str, **fields) -> None:
        if self.audit is not None:
            self.audit.emit(event, **fields)

    def __repr__(self) -> str:
        return (
            f"ReplicaGroup({self.index}, term={self.term}, "
            f"primary={self._primary.member_id!r}, "
            f"members={len(self.members)})"
        )


# -- the monitor --------------------------------------------------------------


class GroupMonitor:
    """Health-probes replica groups; ships and fails over.

    One probe pass per group: check the current primary's liveness
    (fault point ``group.primary`` fires here), promote the most
    caught-up follower when the primary is gone, and ship newly
    committed frames. Run manually (:meth:`probe` — virtual-clock
    tests do) or on a daemon thread every ``interval`` seconds, like
    the gossip coordinator.
    """

    def __init__(
        self,
        groups: Sequence[ReplicaGroup],
        interval: Optional[float] = None,
    ):
        if interval is not None and interval <= 0:
            raise ValueError(
                f"probe interval must be positive, got {interval}"
            )
        self.groups = list(groups)
        self.interval = interval
        self.probes_total = 0
        self.probe_failures_total = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if interval is not None:
            for group in self.groups:
                group.retry_after = interval

    # -- one pass ------------------------------------------------------------

    def probe(self) -> List[Dict]:
        """Probe every group once; returns per-group reports."""
        reports = []
        for group in self.groups:
            report: Dict = {"group": group.index}
            primary = group.primary
            primary_ok = False
            try:
                fire("group.primary")
                primary_ok = primary.check_alive() and (
                    primary.role == PRIMARY
                )
            except Exception:
                primary_ok = False
            if not primary_ok:
                self.probe_failures_total += 1
                primary.alive = False
                promoted = group.promote(reason="probe_failed")
                report["promoted"] = (
                    promoted.member_id if promoted is not None else None
                )
            try:
                report["shipped"] = group.ship()
            except StaleTermError as error:
                report["fenced"] = str(error)
            except Exception as error:
                report["ship_error"] = repr(error)
            report["available"] = group.available
            reports.append(report)
        self.probes_total += 1
        return reports

    def ship_all(self) -> int:
        """Ship every group's backlog (pre-checkpoint barrier)."""
        return sum(group.ship() for group in self.groups)

    # -- background loop -----------------------------------------------------

    def start(self) -> None:
        if self.interval is None:
            raise ValueError("no interval configured; call probe()")
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-group-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.probe()
            except Exception:
                # The monitor must survive any single probe blowing up
                # (an injected fault, a racing teardown): skipping one
                # pass costs staleness, dying costs failover entirely.
                self.probe_failures_total += 1
