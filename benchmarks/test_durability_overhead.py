"""Durability-cost microbenchmarks: journal appends and recovery time.

The write-ahead journal fsyncs every commit, which is the textbook
durability tax. These benchmarks record (a) write throughput with no
journal, with a sync journal, and with fsync disabled — so the fsync
cost is visible separately from the framing/serialisation cost — and
(b) recovery time from a journal of realistic length, which bounds how
long a crashed provider stays offline (reported in EXPERIMENTS.md).

Run with::

    pytest benchmarks/test_durability_overhead.py --benchmark-only
"""

import pytest

from repro.engine import Database, WriteAheadJournal
from repro.service import DataProviderService

WRITES = 200
RECOVERY_STATEMENTS = 1000


def build_database(journal_path=None, sync=True):
    database = Database()
    if journal_path is not None:
        database.attach_journal(WriteAheadJournal(journal_path, sync=sync))
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    return database


def write_workload(database, count=WRITES):
    for i in range(count):
        database.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")


def test_writes_no_journal(benchmark):
    """Baseline: the engine alone, durability off."""

    def run():
        write_workload(build_database())

    benchmark(run)


def test_writes_sync_journal(benchmark, tmp_path):
    """Full durability: one fsync per autocommit statement."""
    counter = iter(range(10**9))

    def run():
        path = tmp_path / f"sync-{next(counter)}.bin"
        database = build_database(path, sync=True)
        write_workload(database)
        database.journal.close()

    benchmark(run)


def test_writes_nosync_journal(benchmark, tmp_path):
    """Journal framing without fsync: isolates the serialisation cost."""
    counter = iter(range(10**9))

    def run():
        path = tmp_path / f"nosync-{next(counter)}.bin"
        database = build_database(path, sync=False)
        write_workload(database)
        database.journal.close()

    benchmark(run)


def test_batched_transaction_amortises_fsync(benchmark, tmp_path):
    """One txn around the workload: a single fsync for all writes."""
    counter = iter(range(10**9))

    def run():
        path = tmp_path / f"batch-{next(counter)}.bin"
        database = build_database(path, sync=True)
        database.execute("BEGIN")
        write_workload(database)
        database.execute("COMMIT")
        database.journal.close()

    benchmark(run)


@pytest.fixture(scope="module")
def long_journal(tmp_path_factory):
    """A journal holding RECOVERY_STATEMENTS committed statements."""
    path = tmp_path_factory.mktemp("recovery") / "journal.bin"
    database = build_database(path, sync=False)
    for i in range(RECOVERY_STATEMENTS):
        database.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
    database.journal.close()
    return path


def test_recovery_time(benchmark, long_journal):
    """Replay cost per journalled statement — the crash-restart budget."""

    def run():
        recovered = DataProviderService.recover(journal_path=long_journal)
        recovered.close()
        report = recovered.last_recovery
        assert report.replayed_statements == RECOVERY_STATEMENTS + 1
        return recovered

    recovered = benchmark(run)
    assert recovered.database.row_count("t") == RECOVERY_STATEMENTS
