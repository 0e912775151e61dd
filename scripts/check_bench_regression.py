#!/usr/bin/env python3
"""Compare a bench --json report against a checked-in baseline.

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json
      [--threshold 0.15] [--warn-only] [--update]

Each report is the JSON written by bench_util.h's JsonReport:

  {"bench": "...", "mode": "quick"|"full", "rows": [
    {"name": "...", "value": 1.23,
     "better": "higher"|"lower"|"exact"}, ...]}

The two reports must come from the same mode — quick and full runs
share row names while measuring differently sized workloads, so a
cross-mode comparison is refused outright. Rows are matched by name. A row regresses when it is worse than the
baseline by more than the threshold fraction (direction taken from the
row's "better" field: throughputs shrink, wall times grow); an
"exact" row (a deterministic count) fails on any change at all. Rows
missing from the current report fail too — a renamed row must be
renamed in the baseline, not silently dropped. New rows are reported
but never fail: they have no baseline yet.

With --update the comparison is skipped: CURRENT is validated (same
schema checks as a comparison run) and then copied verbatim over
BASELINE, creating it if absent. This is how new rows get their first
baseline and how an intentional perf change is blessed — rerun the
bench, eyeball the numbers, then --update.

Exit status: 0 when clean (or --warn-only, or --update), 1 on
regression, 2 on malformed input. --warn-only is for shared CI runners
whose timing jitter makes a hard gate flaky; local runs
(./ci.sh --bench) hard-gate.
"""

import argparse
import json
import shutil
import sys


def load_rows(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        rows = {}
        for row in doc["rows"]:
            if row["better"] not in ("higher", "lower", "exact"):
                raise ValueError(
                    f"row {row['name']!r}: bad 'better' value")
            rows[row["name"]] = (float(row["value"]), row["better"])
        return doc.get("bench", path), doc["mode"], rows
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: cannot read bench report {path}: {e}",
              file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max tolerated fractional slowdown "
                         "(default 0.15)")
    ap.add_argument("--min-seconds", type=float, default=0.25,
                    help="wall-time rows where baseline and current "
                         "are both below this are reported but not "
                         "gated — sub-quarter-second timings jitter "
                         "far beyond any useful threshold "
                         "(default 0.25)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 "
                         "(shared/noisy runners)")
    ap.add_argument("--update", action="store_true",
                    help="validate CURRENT and copy it over BASELINE "
                         "instead of comparing (blesses new rows and "
                         "intentional perf changes)")
    args = ap.parse_args()

    if args.update:
        bench, cur_mode, cur = load_rows(args.current)
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.baseline} <- {args.current} "
              f"({bench}, {cur_mode}, {len(cur)} rows)")
        return 0

    bench, base_mode, base = load_rows(args.baseline)
    _, cur_mode, cur = load_rows(args.current)
    if base_mode != cur_mode:
        # quick and full runs share row names but measure differently
        # sized workloads; comparing across modes would either flag
        # everything or mask everything.
        print(f"error: mode mismatch: baseline is a {base_mode!r} "
              f"run, current is a {cur_mode!r} run — regenerate the "
              f"baseline in the same mode", file=sys.stderr)
        sys.exit(2)

    failures = []
    print(f"== {bench} ({cur_mode}): current vs baseline "
          f"(threshold {args.threshold:.0%}) ==")
    for name, (bval, better) in base.items():
        if name not in cur:
            failures.append(f"{name}: missing from current report")
            print(f"  MISSING {name}")
            continue
        cval, cbetter = cur[name]
        if cbetter != better:
            failures.append(f"{name}: direction changed "
                            f"({better} -> {cbetter})")
            continue
        if better == "exact":
            # Deterministic counts (table entries, footprint bytes):
            # any change is a behaviour change, not timing noise.
            verdict = "ok" if cval == bval else "CHANGED"
            print(f"  {verdict:9} {name}: {bval:g} -> {cval:g} (exact)")
            if cval != bval:
                failures.append(f"{name}: {bval:g} -> {cval:g} "
                                f"(exact row changed)")
            continue
        if bval == 0:
            change = 0.0
        elif better == "higher":
            change = (bval - cval) / bval  # fraction of throughput lost
        else:
            change = (cval - bval) / bval  # fraction of time gained
        if (better == "lower" and bval < args.min_seconds
                and cval < args.min_seconds):
            print(f"  tiny      {name}: {bval:g} -> {cval:g} "
                  f"(below {args.min_seconds:g}s floor; not gated)")
            continue
        regressed = change > args.threshold
        verdict = "REGRESSED" if regressed else "ok"
        print(f"  {verdict:9} {name}: {bval:g} -> {cval:g} "
              f"({change:+.1%} worse)")
        if regressed:
            failures.append(
                f"{name}: {bval:g} -> {cval:g} ({change:+.1%} worse)")
    for name in sorted(set(cur) - set(base)):
        print(f"  NEW       {name}: {cur[name][0]:g} "
              f"(no baseline; add it to the baseline file)")

    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.threshold:.0%}:")
        for f in failures:
            print(f"  - {f}")
        if args.warn_only:
            print("warn-only mode: not failing the build")
            return 0
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
