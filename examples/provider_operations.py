#!/usr/bin/env python
"""Operating a protected data provider day to day.

Shows the :class:`repro.service.DataProviderService` facade — the full
composition a provider deploys: engine + delay guard + account
defenses. The walkthrough covers a provider's operational lifecycle:

1. stand the service up with §2 delays and §2.4 account limits,
2. serve a day of customer traffic,
3. read the operator report (protection posture, hot tuples),
4. save everything — data *and* learned popularity — and restart
   without losing the delay schedule,
5. watch the account limits refuse an over-eager client.

Run: ``python examples/provider_operations.py``
"""

import tempfile
from pathlib import Path

from repro.core import AccessDenied, AccountPolicy, GuardConfig
from repro.service import DataProviderService
from repro.workloads import make_zipf_query_trace


def main() -> None:
    # 1. Stand up the service: 10s cap, registration throttled to one
    #    account per minute, 500 queries per account per day.
    service = DataProviderService(
        guard_config=GuardConfig(cap=10.0),
        account_policy=AccountPolicy(
            registration_interval=60.0,
            daily_query_quota=500,
        ),
    )
    db = service.database
    db.execute(
        "CREATE TABLE reports (id INTEGER PRIMARY KEY, sector TEXT, "
        "score FLOAT)"
    )
    db.insert_rows(
        "reports",
        [(i, f"sector-{i % 12}", i * 0.1) for i in range(1, 2001)],
    )

    # 2. Customers arrive (the registration gate admits one per minute;
    #    advance the virtual clock between signups).
    for name in ("acme", "globex", "initech"):
        service.register(name, subnet=f"net-{name}")
        service.clock.advance(61)

    trace = make_zipf_query_trace(2000, 2000, alpha=1.3, seed=7)
    customers = ("acme", "globex", "initech")
    for position, event in enumerate(trace):
        who = customers[position % 3]
        try:
            service.query(
                who, f"SELECT * FROM reports WHERE id = {event.item}"
            )
        except AccessDenied:
            break

    # 3. Operator's view.
    print("=== operator report, end of day 1 ===")
    print(service.report().render())

    # 4. Nightly save; morning restart. The learned popularity comes
    #    back, so the delay schedule is identical after the restart.
    with tempfile.TemporaryDirectory() as scratch:
        save_path = Path(scratch) / "provider.json"
        service.save(save_path)
        (hot_table, hot_rowid), _count = service.guard.popularity.snapshot()[0]
        hot_before = service.guard.delay_for(hot_table, hot_rowid)

        restored = DataProviderService.recover(
            snapshot_path=save_path,
            guard_config=GuardConfig(cap=10.0),
            account_policy=AccountPolicy(daily_query_quota=500),
        )
        hot_after = restored.guard.delay_for(hot_table, hot_rowid)
        print("\n=== restart ===")
        print(f"hottest tuple delay before save  : {hot_before * 1000:.3f} ms")
        print(f"hottest tuple delay after restore: {hot_after * 1000:.3f} ms")

        # 5. An over-eager client hits the daily quota.
        restored.register("scraper-llc")
        served = denied = 0
        for item in range(1, 1000):
            try:
                restored.query(
                    "scraper-llc",
                    f"SELECT * FROM reports WHERE id = {item}",
                )
                served += 1
            except AccessDenied as refusal:
                denied += 1
                print(
                    f"\nscraper-llc stopped after {served} queries "
                    f"({refusal.reason}; retry in "
                    f"{refusal.retry_after / 3600:.1f} h)"
                )
                break


if __name__ == "__main__":
    main()
