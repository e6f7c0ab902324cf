"""Paired-workload forensics test: the robot trips, the browser never.

The acceptance property of the forensics layer is behavioural, not
unit-level: a scripted extraction robot walking the key space must be
flagged (coverage climbing toward 1, high novelty), while a legitimate
Zipf-skewed browser issuing the *same number of queries* must never be
flagged at any point during its session.
"""

import pytest

from repro.core import AccountPolicy, GuardConfig
from repro.service import DataProviderService
from repro.workloads import ZipfSampler

ROWS = 200
QUERIES = 200


def build_service():
    service = DataProviderService(
        guard_config=GuardConfig(
            policy="fixed",
            fixed_delay=0.05,
            forensics=True,
        ),
        account_policy=AccountPolicy(),
    )
    service.register("loader")
    service.guard.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
        identity="loader",
    )
    service.database.insert_rows(
        "t", [(i, f"v{i}") for i in range(1, ROWS + 1)]
    )
    return service


def test_extraction_robot_is_flagged():
    service = build_service()
    service.register("robot")
    forensics = service.guard.forensics
    for i in range(1, QUERIES + 1):
        service.guard.execute(
            f"SELECT * FROM t WHERE id = {i}", identity="robot"
        )
    assert "robot" in forensics.flagged()
    (entry,) = forensics.top(1)
    assert entry["identity"] == "robot"
    assert entry["coverage"] == pytest.approx(1.0)
    assert entry["novelty"] >= 0.9
    assert "coverage" in entry["reasons"]
    # §2.2 online: the full walk paid delay, nothing remains.
    assert entry["delay_paid_seconds"] > 0
    assert entry["eta_seconds"] == 0.0


def test_zipf_browser_with_equal_volume_is_never_flagged():
    service = build_service()
    service.register("browser")
    forensics = service.guard.forensics
    sampler = ZipfSampler(ROWS, alpha=1.2, seed=42)
    for rank in sampler.sample_many(QUERIES):
        service.guard.execute(
            f"SELECT * FROM t WHERE id = {int(rank)}",
            identity="browser",
        )
        # Never flagged at ANY point in the session, not just the end.
        assert forensics.flagged() == {}, (
            "legitimate Zipf browser was flagged as an extraction "
            f"suspect: {forensics.flagged()}"
        )
    (entry,) = forensics.top(1)
    assert entry["coverage"] < 0.5
    assert entry["risk"] < 1.0


def test_robot_flagged_while_browser_browses():
    """Interleaved traffic: only the robot trips the monitor."""
    service = build_service()
    service.register("robot")
    service.register("browser")
    forensics = service.guard.forensics
    sampler = ZipfSampler(ROWS, alpha=1.2, seed=7)
    ranks = sampler.sample_many(QUERIES)
    for i in range(QUERIES):
        service.guard.execute(
            f"SELECT * FROM t WHERE id = {i + 1}", identity="robot"
        )
        service.guard.execute(
            f"SELECT * FROM t WHERE id = {int(ranks[i])}",
            identity="browser",
        )
    flagged = forensics.flagged()
    assert "robot" in flagged
    assert "browser" not in flagged
    ranked = forensics.top(2)
    assert ranked[0]["identity"] == "robot"
    assert ranked[0]["risk"] > ranked[1]["risk"]
