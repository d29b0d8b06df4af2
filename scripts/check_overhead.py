#!/usr/bin/env python3
"""Telemetry overhead gate: compiled-in-but-idle tracing must be free.

Compares two CORDON_BENCH_JSON trajectories of bench_engine_batch — one
from a -DCORDON_INSTRUMENT=off build (baseline: telemetry, audit and
fault hooks all compiled out) and one from the default build with
tracing compiled in but disabled — and fails if any series' best
(minimum) wall time regressed by more than the tolerance.

Minima over CORDON_BENCH_REPS repetitions are compared, not single
shots, and a small absolute slack is added on top of the relative
tolerance: CI machines are noisy, and for millisecond-scale runs a
pure percentage gate flakes on scheduler jitter alone.  A real
always-on-counter regression shows up as a consistent shift that
survives the min().

Usage:
  check_overhead.py baseline.json candidate.json [--rel-tol 0.02]
                    [--abs-slack-s 0.010]
"""

import argparse
import json
import sys
from collections import defaultdict


def best_by_series(path: str) -> dict:
    best = defaultdict(lambda: float("inf"))
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("bench") != "bench_engine_batch":
                continue
            series, wall = rec.get("series"), rec.get("wall_s")
            if series is None or not isinstance(wall, (int, float)):
                continue
            best[series] = min(best[series], wall)
    return dict(best)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="trajectory from the -DCORDON_INSTRUMENT=off build")
    ap.add_argument("candidate", help="trajectory from the default build")
    ap.add_argument("--rel-tol", type=float, default=0.02)
    ap.add_argument("--abs-slack-s", type=float, default=0.010)
    args = ap.parse_args()

    base = best_by_series(args.baseline)
    cand = best_by_series(args.candidate)
    if not base:
        print(f"check_overhead: FAIL: no records in {args.baseline}",
              file=sys.stderr)
        sys.exit(1)

    failed = False
    for series, base_wall in sorted(base.items()):
        cand_wall = cand.get(series)
        if cand_wall is None:
            print(f"check_overhead: FAIL: series '{series}' missing from "
                  f"{args.candidate}", file=sys.stderr)
            failed = True
            continue
        limit = base_wall * (1.0 + args.rel_tol) + args.abs_slack_s
        ratio = cand_wall / base_wall if base_wall > 0 else float("inf")
        verdict = "ok" if cand_wall <= limit else "REGRESSED"
        print(f"check_overhead: {series:16s} baseline={base_wall * 1e3:9.3f}ms"
              f" candidate={cand_wall * 1e3:9.3f}ms ({ratio:6.3f}x) {verdict}")
        if cand_wall > limit:
            failed = True

    if failed:
        print("check_overhead: FAIL: idle telemetry exceeds the overhead "
              "budget", file=sys.stderr)
        sys.exit(1)
    print("check_overhead: OK")


if __name__ == "__main__":
    main()
