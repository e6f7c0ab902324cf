"""``python -m benchmarks.spine run|compare|manifest`` (with ``src`` on
``PYTHONPATH``).

* ``run --seed S --out FILE`` drives all four workloads, untraced then
  traced, prints every metric by name with its unit, checks the outputs
  and writes everything to ``FILE``.
* ``compare A.json B.json`` prints one row per (workload, metric) and
  exits non-zero on a regression.
* ``manifest`` prints the ``BENCHMARK.json`` that matches the metric
  table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional

from . import harness
from .metrics import END_TO_END, PER_LAYER, PREDICTIONS, applies, manifest
from .workloads import RUN_SECONDS, WORKLOADS, stream_digest

SCHEMA = "spine-1"


def run(args) -> int:
    if args.smoke:
        seconds, setup_repeats = harness.SMOKE_SECONDS, 1
    else:
        seconds, setup_repeats = args.seconds, None
    report = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "predictions": list(PREDICTIONS),
        "workloads": {},
    }
    session = harness.Session()
    wrong = False
    for spec in WORKLOADS.values():
        rows = harness.SMOKE_ROWS if args.smoke else spec.rows
        runs = [
            harness.run_end_to_end(
                session, spec, args.seed, seconds, rows, setup_repeats
            )
            for _ in range(args.repeat)
        ]
        traced = harness.run_traced(session, spec, args.seed, seconds, rows)
        problems = [p for outcome in runs for p in outcome["problems"]]
        problems += traced["problems"]
        wrong = wrong or bool(problems)
        entry = {
            "why": spec.why,
            "rows": rows,
            "stream_digest": stream_digest(spec, args.seed, rows),
            "correct": not problems,
            "problems": problems,
            "samples": runs[0]["samples"],
            "end_to_end": {},
            "per_layer": {},
        }
        for metric in END_TO_END:
            if not applies(metric, spec):
                continue
            values = [outcome["metrics"][metric.name] for outcome in runs]
            entry["end_to_end"][metric.name] = {
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
                "values": values,
                "median": statistics.median(values),
            }
        for metric in PER_LAYER:
            entry["per_layer"][metric.name] = {
                "unit": metric.unit,
                "value": traced["metrics"][metric.name],
            }
        report["workloads"][spec.name] = entry
        _print_workload(spec.name, entry)
    report["session"] = {
        "children": session.pids,
        "work_dirs": [str(path) for path in session.dirs],
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 1 if wrong else 0


def _print_workload(name: str, entry: Dict) -> None:
    print(f"== {name}  rows={entry['rows']}  digest={entry['stream_digest'][:16]}")
    print(f"   why: {entry['why']}")
    for metric, cell in entry["end_to_end"].items():
        print(f"   {metric:<44} {cell['median']:>14.4f} {cell['unit']}")
    print(f"   samples: {entry['samples']}")
    for metric, cell in entry["per_layer"].items():
        print(f"   {metric:<44} {cell['value']:>14.4f} {cell['unit']}")
    verdict = "correct" if entry["correct"] else "WRONG"
    print(f"   outputs: {verdict}")
    for problem in entry["problems"]:
        print(f"     {problem}")


def _spread(values: List[float]) -> Optional[float]:
    """Interquartile range over the median; None below two values."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def compare(args) -> int:
    with open(args.baseline, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.candidate, encoding="utf-8") as handle:
        cand = json.load(handle)
    failures = 0
    header = (
        f"{'workload':<18} {'metric':<44} {'A':>12} {'B':>12} "
        f"{'B/A':>8} {'bound':>6}  verdict"
    )
    print(header)
    for name, a_entry in base["workloads"].items():
        b_entry = cand["workloads"].get(name)
        if b_entry is None:
            continue
        if a_entry["stream_digest"] != b_entry["stream_digest"]:
            print(f"{name:<18} stream digests differ: the inputs were not the same")
            failures += 1
        for metric, a_cell in a_entry["end_to_end"].items():
            b_cell = b_entry["end_to_end"].get(metric)
            if b_cell is None:
                continue
            a, b, bound = a_cell["median"], b_cell["median"], a_cell["bound"]
            ratio = f"{b / a:.3f}" if a else "-"
            if a:
                worse = (b - a) / a if a_cell["better"] == "lower" else (a - b) / a
            else:
                worse = float(b > a)  # failed_share: any increase at all
            spreads = [
                s for s in (_spread(a_cell["values"]), _spread(b_cell["values"]))
                if s is not None
            ]
            if spreads and max(spreads) > bound:
                verdict = f"unresolved (spread {max(spreads):.1%})"
            elif worse > bound:
                verdict = "REGRESSION"
                failures += 1
            else:
                verdict = "ok"
            print(
                f"{name:<18} {metric:<44} {a:>12.4f} {b:>12.4f} "
                f"{ratio:>8} {bound:>6.0%}  {verdict} (base A)"
            )
        for metric, a_cell in a_entry["per_layer"].items():
            b_cell = b_entry["per_layer"].get(metric)
            if b_cell is None:
                continue
            a, b = a_cell["value"], b_cell["value"]
            ratio = f"{b / a:.3f}" if a else "-"
            print(
                f"{name:<18} {metric:<44} {a:>12.4f} {b:>12.4f} "
                f"{ratio:>8} {'-':>6}  {'same' if a == b else ''}"
            )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.spine")
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help=run.__doc__)
    run_parser.add_argument("--seed", type=int, required=True)
    run_parser.add_argument("--out", required=True)
    run_parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run_parser.add_argument(
        "--repeat", type=int, default=1,
        help="end-to-end runs per workload; compare needs >= 2 for a spread",
    )
    run_parser.add_argument(
        "--smoke", action="store_true",
        help=f"{harness.SMOKE_ROWS} rows, {harness.SMOKE_SECONDS} s windows",
    )
    compare_parser = commands.add_parser("compare")
    compare_parser.add_argument("baseline")
    compare_parser.add_argument("candidate")
    commands.add_parser("manifest")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    if args.command == "compare":
        return compare(args)
    print(json.dumps(manifest(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
