"""SIGKILL a 2-shard cluster; each shard recovers itself, gossip heals.

The acceptance criterion under test: a shard restarts from *its own*
journal + snapshot, and popularity the crash destroyed on one shard is
re-converged from a peer's gossip mirror by the next anti-entropy
round.  The driver (``cluster_crash_driver.py``) arranges the epochs so
shard 0's snapshot is one gossip round *older* than shard 1's — the
phase-B read mass shard 0 recorded is absent from its own snapshot and
present only as a mirrored origin inside shard 1's.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cluster import ClusterService

from . import cluster_crash_driver

DRIVER = Path(cluster_crash_driver.__file__).resolve()
TABLE = cluster_crash_driver.TABLE


def run_driver_and_kill(workdir) -> dict:
    """Run the driver to its ready marker, SIGKILL it, return expected."""
    process = subprocess.Popen(
        [sys.executable, str(DRIVER), str(workdir)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    ready = os.path.join(workdir, "ready")
    deadline = time.monotonic() + 60.0
    try:
        while not os.path.exists(ready):
            if process.poll() is not None:
                raise AssertionError(
                    "driver exited before ready:\n"
                    + process.stderr.read().decode()
                )
            if time.monotonic() > deadline:
                raise AssertionError("driver never became ready")
            time.sleep(0.02)
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait()
        process.stderr.close()
    with open(os.path.join(workdir, "expected.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def crashed(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cluster-crash")
    expected = run_driver_and_kill(workdir)
    return workdir, expected


def counts_on(guard, rowids):
    return {
        rowid: guard.popularity.present_count((TABLE, int(rowid)))
        for rowid in rowids
    }


class TestKillOneEpochRecovery:
    def test_recovery_heals_shard0_via_anti_entropy(self, crashed):
        workdir, expected = crashed
        recovered = ClusterService.recover(
            shard_count=2,
            data_dir=workdir,
            guard_config=cluster_crash_driver.make_config(),
        )
        try:
            # Rows: every acked write survived via per-shard journals
            # (shard 0 replays its phase-B inserts past its snapshot).
            rows = recovered.query(
                None, f"SELECT id, v FROM {TABLE}", record=False
            ).result.rows
            assert sorted(map(list, rows)) == expected["rows"]

            # Restored rowids sit on each shard's residue class.
            for index, shard in enumerate(recovered.shards):
                for rowid in shard.database.table(TABLE).rowids():
                    assert (rowid - 1) % 2 == index

            # Before gossip: shard 0 is back on its phase-A snapshot —
            # the phase-B mass is genuinely gone from its own state...
            b_counts = expected["phase_b_counts"]
            a_counts = expected["phase_a_counts"]
            pre = counts_on(recovered.guards[0], b_counts)
            assert any(
                pre[rowid] < b_counts[rowid] for rowid in b_counts
            ), "shard 0 lost nothing; the crash scenario is vacuous"
            for rowid, count in counts_on(
                recovered.guards[0], a_counts
            ).items():
                assert count == pytest.approx(a_counts[rowid])

            # ...while shard 1 (checkpointed after the last gossip
            # round) still mirrors it.
            assert recovered.guards[
                1
            ].popularity.total_requests == pytest.approx(
                expected["total_requests"]
            )

            # One anti-entropy round: shard 0 re-adopts its own origin's
            # mass from shard 1's mirror and the cluster re-converges on
            # the end-of-phase-B counts (phase C is honestly lost).
            recovered.gossip.run_round()
            for guard in recovered.guards:
                for rowid, count in counts_on(guard, b_counts).items():
                    assert count == pytest.approx(b_counts[rowid]), (
                        f"rowid {rowid} diverged after anti-entropy"
                    )
                assert guard.popularity.total_requests == pytest.approx(
                    expected["total_requests"]
                )

            # The healed cluster keeps serving: new traffic lands on top
            # of the recovered mass, not on a reset tracker.
            hot = next(iter(b_counts))
            before = recovered.guards[0].popularity.present_count(
                (TABLE, int(hot))
            )
            owner = (int(hot) - 1) % 2
            result = recovered.query(
                None, f"SELECT * FROM {TABLE}", record=True
            )
            assert result.result.rowcount or result.result.rows
            after = recovered.guards[owner].popularity.present_count(
                (TABLE, int(hot))
            )
            assert after > before - 1e-9
            assert after >= b_counts[hot]
        finally:
            recovered.close()

    def test_recovered_cluster_accepts_new_writes_on_stride(self, crashed):
        workdir, expected = crashed
        recovered = ClusterService.recover(
            shard_count=2,
            data_dir=workdir,
            guard_config=cluster_crash_driver.make_config(),
        )
        try:
            recovered.query(
                None, f"INSERT INTO {TABLE} VALUES (90, 'post-crash')"
            )
            owner = recovered.shard_map.shard_for(TABLE, 90)
            found = recovered.shards[owner].database.query(
                f"SELECT id FROM {TABLE} WHERE id = 90"
            )
            assert found == [(90,)]
            for index, shard in enumerate(recovered.shards):
                for rowid in shard.database.table(TABLE).rowids():
                    assert (rowid - 1) % 2 == index
        finally:
            recovered.close()
