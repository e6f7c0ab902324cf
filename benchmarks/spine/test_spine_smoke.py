"""Smoke test of the spine benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/spine/test_spine_smoke.py -q

Runs every workload in ``--smoke`` mode (2k rows, 2 s windows) in well
under 30 s and checks that the benchmark keeps its own contract.
"""

import json
import math
from pathlib import Path

import pytest

from benchmarks.spine import harness
from benchmarks.spine.__main__ import main
from benchmarks.spine.metrics import END_TO_END, PER_LAYER, applies, manifest
from benchmarks.spine.workloads import WORKLOADS, stream_digest


def _serving(pid: int) -> bool:
    """True while ``pid`` is still one of our server children."""
    try:
        command = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return b"serve.py" in command


def test_stream_digest_depends_only_on_the_seed():
    spec = WORKLOADS["mixed_rw_durable"]
    assert stream_digest(spec, 7, 2000) == stream_digest(spec, 7, 2000)
    assert stream_digest(spec, 7, 2000) != stream_digest(spec, 8, 2000)


def test_benchmark_json_matches_the_metric_table():
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert declared == manifest()


def test_smoke_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    assert main(["run", "--smoke", "--seed", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, entry in report["workloads"].items():
        spec = WORKLOADS[name]
        assert entry["correct"], entry["problems"]
        assert entry["stream_digest"] == stream_digest(spec, 3, entry["rows"])
        for metric in END_TO_END:
            if applies(metric, spec):
                value = entry["end_to_end"][metric.name]["median"]
                assert math.isfinite(value), (name, metric.name)
        assert entry["end_to_end"]["failed_share"]["median"] == 0
        for metric in PER_LAYER:
            value = entry["per_layer"][metric.name]["value"]
            assert math.isfinite(value), (name, metric.name)
        assert entry["per_layer"]["trace.unattributed_share"]["value"] <= 0.10
    assert report["session"]["children"]
    assert not any(_serving(pid) for pid in report["session"]["children"])
    assert not any(Path(path).exists() for path in report["session"]["work_dirs"])


def test_nothing_survives_a_harness_failure(monkeypatch):
    def broken_gate(client, acked):
        raise RuntimeError("injected")

    # Fails after the load child was killed and while the recovered
    # child is up: both a process and a data directory are in flight.
    monkeypatch.setattr(harness, "durability_gate", broken_gate)
    session = harness.Session()
    with pytest.raises(RuntimeError, match="injected"):
        harness.run_end_to_end(
            session, WORKLOADS["mixed_rw_durable"], 1, 0.5, 500, setup_repeats=1
        )
    assert len(session.pids) == 2
    assert not any(_serving(pid) for pid in session.pids)
    assert not any(path.exists() for path in session.dirs)
