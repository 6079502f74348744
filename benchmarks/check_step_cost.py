#!/usr/bin/env python
"""CI gate for the §5.3 constant-step-cost claim (slot-scorer hot path).

Reads a pytest-benchmark JSON produced by::

    pytest benchmarks/bench_step_cost.py --benchmark-json=BENCH_step_cost.json

and fails (exit 1) when either

* the mean per-step time of the *slots* walk at the largest
  database size exceeds ``--max-ratio`` times the smallest size's —
  i.e. walk-step cost has started scaling with the data; or
* the in-bench slot-scorer-vs-reference comparison
  (``test_step_cost_slots_vs_reference``) reports a speedup below
  ``--min-speedup`` — i.e. the fast path has regressed to the point
  of not earning its complexity.  This gate is machine-relative (both
  paths run on the same hardware in the same process), unlike the
  absolute us/step reference point recorded in the JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Single source of truth for the gates; bench_step_cost.py imports
# these for its in-test assertions and CI uses the script's defaults,
# so one edit moves every enforcement point.  The ratio was 3.0 while
# the per-factor dict loop was the hot path; the steady-state slot
# walk measures ~1x (2k -> 40k tokens), so 2.0 holds comfortable
# slack without ever re-admitting size-proportional scoring.
MAX_STEP_COST_RATIO = 2.0
# Speedup over the set_caching(False) reference (measured ~6x).  3.4x
# is 1.5x the 40k-token speedup the removed per-factor dict loop had
# over the reference (42.27 / 18.48 ms = 2.29x), so the gate is no
# weaker than the former 1.5x floor measured against that loop.
MIN_REFERENCE_SPEEDUP = 3.4


def per_step_means(report: dict) -> dict[int, float]:
    """tokens -> mean seconds per walk-step, slots series only."""
    out: dict[int, float] = {}
    for bench in report.get("benchmarks", []):
        info = bench.get("extra_info", {})
        if bench.get("group") != "step-cost" or info.get("mode") != "slots":
            continue
        out[int(info["tokens"])] = bench["stats"]["mean"] / int(info["steps"])
    return out


def reference_speedup(report: dict) -> float | None:
    """The in-bench slot-scorer-vs-reference speedup, if recorded."""
    for bench in report.get("benchmarks", []):
        if bench.get("group") != "step-cost-slots":
            continue
        speedup = bench.get("extra_info", {}).get("speedup_vs_reference")
        if speedup is not None:
            return float(speedup)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=Path, help="pytest-benchmark JSON file")
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=MAX_STEP_COST_RATIO,
        help=(
            "largest allowed large/small per-step time ratio "
            f"(default {MAX_STEP_COST_RATIO})"
        ),
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=MIN_REFERENCE_SPEEDUP,
        help=(
            "smallest allowed slot-scorer-vs-reference speedup "
            f"(default {MIN_REFERENCE_SPEEDUP})"
        ),
    )
    args = parser.parse_args(argv)

    report = json.loads(args.report.read_text(encoding="utf-8"))
    means = per_step_means(report)
    if len(means) < 2:
        print(
            f"error: need slots step-cost series at >=2 sizes, "
            f"found {sorted(means)}",
            file=sys.stderr,
        )
        return 2

    failed = False
    small, large = min(means), max(means)
    ratio = means[large] / means[small]
    print(
        f"per-step mean: {means[small] * 1e6:.1f}us @ {small} tokens, "
        f"{means[large] * 1e6:.1f}us @ {large} tokens -> ratio {ratio:.2f}x "
        f"(limit {args.max_ratio:.1f}x)"
    )
    if ratio > args.max_ratio:
        print(
            "FAIL: walk-step cost scales with database size "
            "(the §5.3 constant-step-cost claim is broken)",
            file=sys.stderr,
        )
        failed = True

    speedup = reference_speedup(report)
    if speedup is None:
        print(
            "error: no slot-scorer-vs-reference speedup recorded "
            "(test_step_cost_slots_vs_reference missing from the report)",
            file=sys.stderr,
        )
        return 2
    print(
        f"slot-scorer-vs-reference speedup: {speedup:.2f}x "
        f"(floor {args.min_speedup:.1f}x)"
    )
    if speedup < args.min_speedup:
        print(
            "FAIL: the slot scorer no longer beats the reference path",
            file=sys.stderr,
        )
        failed = True

    if failed:
        return 1
    print("OK: walk-step cost is near-constant and the slot scorer holds its edge")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
