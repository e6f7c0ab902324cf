"""Fault injection: SIGKILL mid-workload, then recover and compare.

The durability contract under test:

1. **Prefix property** — whatever survives a crash is an exact prefix
   of the committed statement sequence: never a partial statement,
   never a reordering, never an invented row.
2. **Ack durability** — every statement the service acknowledged before
   the kill is in that prefix (the journal fsyncs before returning).
3. **Tracker fidelity** — recovering the prefix rebuilds the delay
   guard's update-rate state identical to a reference service that ran
   the same prefix synchronously and never crashed: same rates, same
   last-update times, same eq. 1 delays.
4. **Torn tails** — truncating or corrupting the journal's tail at any
   byte yields a valid shorter prefix, not a crash.

Kill-loop iterations default to a quick smoke (3); set
``CRASH_ITERATIONS`` higher in CI for a broader sweep.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import DataProviderService

from . import crash_driver

DRIVER = Path(crash_driver.__file__).resolve()
N_STATEMENTS = 36
ITERATIONS = int(os.environ.get("CRASH_ITERATIONS", "3"))


def recover(workdir) -> DataProviderService:
    recovered = DataProviderService.recover(
        snapshot_path=os.path.join(workdir, "snapshot.json"),
        journal_path=os.path.join(workdir, "journal.bin"),
        guard_config=crash_driver.make_config(),
    )
    assert_epoch_restored(recovered)
    return recovered


def assert_epoch_restored(recovered):
    """The result-cache epoch resumes at the journal high-water mark.

    A rewound epoch would let results cached against pre-crash epochs
    be keyed current after recovery; the epoch must land exactly on the
    replayed journal's last sequence number, and strictly past the
    snapshot's when the journal tail replayed anything.
    """
    report = recovered.last_recovery
    assert recovered.database.mutation_epoch == report.last_seq
    if report.replayed_statements > 0:
        assert recovered.database.mutation_epoch > report.snapshot_seq


def reference_fingerprints(statements):
    """Fingerprint after every prefix of ``statements`` (index = length)."""
    reference = crash_driver.build_service(None, journal=False)
    prints = [crash_driver.fingerprint(reference)]
    for sql in statements:
        crash_driver.apply_prefix(reference, [sql])
        prints.append(crash_driver.fingerprint(reference))
    return prints


def assert_matches_reference(recovered, prefix_length, statements):
    """Recovered tracker state equals a never-crashed reference's."""
    reference = crash_driver.build_service(None, journal=False)
    crash_driver.apply_prefix(reference, statements[:prefix_length])
    assert recovered.clock.now() == pytest.approx(reference.clock.now())
    assert dict(recovered.guard.last_update_times) == dict(
        reference.guard.last_update_times
    )
    reference_rates = {
        key: reference.guard.update_rates.rate(key)
        for key in dict(reference.guard.last_update_times)
    }
    for key, rate in reference_rates.items():
        assert recovered.guard.update_rates.rate(key) == pytest.approx(rate)
        table, rowid = key
        assert recovered.guard.delay_for(table, rowid) == pytest.approx(
            reference.guard.delay_for(table, rowid)
        )


def run_and_kill(workdir, delay_seconds):
    """Start the driver, SIGKILL it after ``delay_seconds``."""
    env = dict(os.environ)
    process = subprocess.Popen(
        [sys.executable, str(DRIVER), str(workdir), str(N_STATEMENTS)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    time.sleep(delay_seconds)
    if process.poll() is None:
        process.send_signal(signal.SIGKILL)
    process.wait()
    ack_path = os.path.join(workdir, "acks")
    acked = -1
    if os.path.exists(ack_path):
        lines = Path(ack_path).read_text().split()
        if lines:
            acked = int(lines[-1])
    return acked


class TestKillRecovery:
    @pytest.mark.parametrize("iteration", range(ITERATIONS))
    def test_sigkill_mid_workload_recovers_exact_prefix(
        self, tmp_path, iteration
    ):
        # Spread the kill across the run: early, middle, late. The
        # driver paces itself (~4ms/statement + journal fsyncs), so
        # these delays land at genuinely different workload positions.
        delay = 0.05 + 0.12 * iteration
        acked = run_and_kill(tmp_path, delay)
        recovered = recover(tmp_path)
        statements = crash_driver.all_statements(N_STATEMENTS)
        prints = reference_fingerprints(statements)
        observed = crash_driver.fingerprint(recovered)
        assert observed in prints, (
            "recovered state is not any committed prefix"
        )
        prefix_length = prints.index(observed)
        # Durability floor: every acknowledged statement survived.
        assert prefix_length >= acked + 1, (
            f"service acked statement {acked} but recovery only "
            f"restored {prefix_length} statements"
        )
        assert_matches_reference(recovered, prefix_length, statements)
        recovered.close()

    def test_clean_run_recovers_everything(self, tmp_path):
        env = dict(os.environ)
        subprocess.run(
            [sys.executable, str(DRIVER), str(tmp_path), str(N_STATEMENTS)],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        assert (tmp_path / "done").exists()
        recovered = recover(tmp_path)
        statements = crash_driver.all_statements(N_STATEMENTS)
        reference = crash_driver.build_service(None, journal=False)
        crash_driver.apply_prefix(reference, statements)
        assert crash_driver.fingerprint(recovered) == (
            crash_driver.fingerprint(reference)
        )
        assert_matches_reference(
            recovered, len(statements), statements
        )
        recovered.close()


class TestDeterministicCorruption:
    """Byte-level sweeps over the journal file, no subprocess needed."""

    def _journalled_run(self, workdir, count=16):
        service = crash_driver.build_service(str(workdir))
        crash_driver.apply_prefix(
            service, crash_driver.all_statements(count)
        )
        service.close()
        return workdir / "journal.bin"

    def test_truncation_sweep_yields_valid_prefixes(self, tmp_path):
        journal_path = self._journalled_run(tmp_path)
        data = journal_path.read_bytes()
        statements = crash_driver.all_statements(16)
        prints = reference_fingerprints(statements)
        lengths = set()
        # Sample cut points densely enough to cross record boundaries.
        for cut in range(6, len(data), 7):
            journal_path.write_bytes(data[:cut])
            recovered = DataProviderService.recover(
                journal_path=journal_path,
                guard_config=crash_driver.make_config(),
            )
            recovered.close()
            observed = crash_driver.fingerprint(recovered)
            assert observed in prints
            lengths.add(prints.index(observed))
        # The sweep actually explored multiple prefixes, not one.
        assert len(lengths) > 3

    def test_corruption_sweep_detected_and_truncated(self, tmp_path):
        journal_path = self._journalled_run(tmp_path)
        data = journal_path.read_bytes()
        statements = crash_driver.all_statements(16)
        prints = reference_fingerprints(statements)
        for position in range(10, len(data), max(1, len(data) // 24)):
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            journal_path.write_bytes(bytes(corrupted))
            recovered = DataProviderService.recover(
                journal_path=journal_path,
                guard_config=crash_driver.make_config(),
            )
            recovered.close()
            # A flipped byte anywhere invalidates its record's checksum;
            # recovery keeps the prefix before it and never crashes.
            assert crash_driver.fingerprint(recovered) in prints

    def test_corrupted_tail_truncated_on_reopen(self, tmp_path):
        journal_path = self._journalled_run(tmp_path)
        data = journal_path.read_bytes()
        journal_path.write_bytes(data[: len(data) - 5])
        recovered = DataProviderService.recover(
            journal_path=journal_path,
            guard_config=crash_driver.make_config(),
        )
        recovered.close()
        assert recovered.last_recovery.torn_bytes_truncated > 0
        # Reopening truncated the tail durably: scanning the file now
        # finds no torn bytes.
        from repro.engine import scan_journal

        assert not scan_journal(journal_path).torn
