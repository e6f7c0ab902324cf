"""The driver's entry point: one workload, one kind of run, one result.

    python3 benchmarks/spine/bench.py --workload point_zipf --seed 7 \\
        --seconds 10 --trace 0

``--trace 0`` is the untraced end-to-end run and prints the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` is the
traced run and prints the ``per_layer`` metrics. The last line of
standard output is the result object. Exits 1 (after printing it) when
an output was wrong. Run from anywhere: the repository root and
``src/`` are put on ``sys.path`` from this file's location, which is
also why it fails fast, printing nothing, where ``src/`` is absent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.spine import harness  # noqa: E402
from benchmarks.spine.metrics import DRIVER_END_TO_END, PER_LAYER  # noqa: E402
from benchmarks.spine.workloads import WORKLOADS, stream_digest  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    session = harness.Session()
    if args.trace:
        outcome = harness.run_traced(
            session, spec, args.seed, args.seconds, spec.rows
        )
        declared = PER_LAYER
    else:
        outcome = harness.run_end_to_end(
            session, spec, args.seed, args.seconds, spec.rows
        )
        declared = DRIVER_END_TO_END
    for problem in outcome["problems"]:
        print(f"WRONG {problem}", file=sys.stderr)
    print(f"stream digest {stream_digest(spec, args.seed, spec.rows)}")
    correct = not outcome["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    metric.name: {
                        "value": outcome["metrics"][metric.name],
                        "unit": metric.unit,
                    }
                    for metric in declared
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
