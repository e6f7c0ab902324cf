"""Audit + forensics overhead on the multi-client scan workload.

The audit log and the forensics stage both sit on the serving path
(the guard emits events per query; the pipeline feeds the coverage
monitor per SELECT), so their cost budget is explicit: enabling both
must cost at most 5% of the throughput of the same workload on the
same server without them. The audit writer being a bounded background
queue — never a synchronous disk write — is what makes this hold.

Run with::

    pytest benchmarks/test_audit_overhead.py --benchmark-only
"""

import threading
import time

from repro.core import AccountPolicy, GuardConfig, RealClock
from repro.server import DelayClient, DelayServer
from repro.service import DataProviderService

#: Small enough that each client's 12 distinct reads cover more than
#: half the table, so every instrumented client trips the forensics
#: coverage flag at the monitor's default threshold (0.5) and the run
#: pays for flag audit events too, not only served/priced ones.
ROWS = 20
CLIENTS = 8
QUERIES_PER_CLIENT = 12
FIXED_DELAY = 0.02
#: Acceptance bound: audit + forensics may cost at most this fraction
#: of baseline throughput.
MAX_OVERHEAD = 0.05


def build_server(tmp_path=None, observability=False):
    """The throughput-benchmark server, optionally fully instrumented."""
    config = dict(policy="fixed", fixed_delay=FIXED_DELAY)
    audit_path = None
    if observability:
        config.update(forensics=True)
        audit_path = str(tmp_path / "audit.jsonl")
    service = DataProviderService(
        guard_config=GuardConfig(**config),
        account_policy=AccountPolicy(),
        clock=RealClock(),
        audit_path=audit_path,
    )
    service.database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"
    )
    service.database.insert_rows(
        "t", [(i, f"v{i}") for i in range(1, ROWS + 1)]
    )
    server = DelayServer(service)
    server.start()
    return server


def run_client(server, identity, count):
    with DelayClient(*server.address) as client:
        client.register(identity)
        for i in range(count):
            client.query(
                f"SELECT * FROM t WHERE id = {1 + i % ROWS}",
                identity=identity,
            )


def run_fleet(server, tag):
    threads = [
        threading.Thread(
            target=run_client,
            args=(server, f"{tag}-{i}", QUERIES_PER_CLIENT),
        )
        for i in range(CLIENTS)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    return CLIENTS * QUERIES_PER_CLIENT / elapsed


def test_audit_and_forensics_overhead(benchmark, tmp_path):
    """Full observability costs <= 5% of baseline scan throughput."""
    baseline = build_server()
    instrumented = build_server(tmp_path, observability=True)
    try:
        # Warm-up both servers (parse cache, first connections).
        run_client(baseline, "warmup", 2)
        run_client(instrumented, "warmup", 2)

        baseline_rate = run_fleet(baseline, "base")

        def instrumented_fleet():
            return run_fleet(instrumented, "obs")

        instrumented_rate = benchmark.pedantic(
            instrumented_fleet, rounds=1, iterations=1
        )

        overhead = 1.0 - instrumented_rate / baseline_rate
        audit = instrumented.service.obs.audit
        audit.flush()
        stats = audit.stats()
        benchmark.extra_info["baseline_rate_qps"] = round(
            baseline_rate, 2
        )
        benchmark.extra_info["instrumented_rate_qps"] = round(
            instrumented_rate, 2
        )
        benchmark.extra_info["overhead_fraction"] = round(overhead, 4)
        benchmark.extra_info["audit_events_written"] = stats["written"]
        benchmark.extra_info["audit_events_dropped"] = stats["dropped"]

        # Every served query must have produced its audit events
        # (served + priced), none dropped at this throughput.
        assert stats["written"] > 0
        assert stats["dropped"] == 0
        forensics = instrumented.service.guard.forensics
        assert forensics.summary()["tracked_identities"] > 0
        assert forensics.summary()["flags_raised_total"] >= 1
        assert stats["by_kind"].get("forensic_flag", 0) >= 1
        assert overhead <= MAX_OVERHEAD, (
            f"audit + forensics cost {overhead:.1%} of throughput "
            f"({instrumented_rate:.1f} vs {baseline_rate:.1f} q/s); "
            f"budget is {MAX_OVERHEAD:.0%}"
        )
        assert not baseline.handler_errors
        assert not instrumented.handler_errors
    finally:
        baseline.stop()
        instrumented.stop()
