#!/usr/bin/env python3
"""Compares freshly generated BENCH_*.json reports against the committed
baselines at the repo root and prints a per-metric trend table.

Benches drop their reports next to the binary (build/bench/BENCH_*.json);
the repo root holds the committed reference copies. This walks every
numeric leaf shared by a fresh/baseline pair, prints the delta, and flags
probable regressions using a direction heuristic on the metric name
(latencies/overheads should not grow, rates/speedups should not shrink).
A leaf that is a number on one side and text on the other (an overhead
that reads "below resolution" in one report) is listed as a change of
kind, since no delta can be taken.

  bench_trend.py [--fresh-dir build/bench] [--baseline-dir .]
                 [--threshold-pct 25] [--strict]

Exit code is 0 unless --strict is given AND a regression beyond the
threshold was found. The default is non-strict so the CTest wiring is a
visibility tool, not a tier-1 gate: committed artifacts age (different
hosts, different thread counts) and a stale baseline must not break the
build. Stdlib only.
"""

import argparse
import glob
import json
import os
import sys

# Metrics where growth is bad. Checked before _HIGHER_IS_BETTER.
_LOWER_IS_BETTER = (
    "_ms", "_us", "_ns", "latency", "overhead", "gas", "aborted",
    "dropped", "divergences", "slashed_honest", "miss",
)
# Metrics where shrinkage is bad.
_HIGHER_IS_BETTER = (
    "speedup", "per_sec", "rate", "precision", "recall", "accuracy",
    "hits", "dedup_ratio", "infected_fraction", "spans",
)

# Context/config leaves: changes are reported but never regressions.
_NEUTRAL = (
    "trials", "threads", "seed", "nodes", "accounts", "cells", "pairs",
    "hardware_concurrency", "samples_per_lifecycle", "rules_per_sample",
    "fault_cells", "alerts_expected", "alerts_fired", "txs_per_block",
    "blocks", "events", "features",
)


# Boolean invariants (flattened to 0/1): any flip to 0 is a regression.
# Checked first so e.g. "threads_identical" is not swallowed by the
# neutral "threads" marker.
_INVARIANTS = ("identical", "conserved", "deterministic", "floors_ok")


def direction(path):
    """-1 lower-is-better, +1 higher-is-better, 0 neutral/unknown."""
    lowered = path.lower()
    for marker in _INVARIANTS:
        if marker in lowered:
            return +1
    for marker in _NEUTRAL:
        if marker in lowered:
            return 0
    for marker in _LOWER_IS_BETTER:
        if marker in lowered:
            return -1
    for marker in _HIGHER_IS_BETTER:
        if marker in lowered:
            return +1
    return 0


def leaves(node, prefix=""):
    """Flattens a report into {dotted.path: number or str}. Bools count as
    0/1 so a flipped invariant (threads_identical, supply_conserved) shows
    up."""
    out = {}
    if isinstance(node, dict):
        for key, value in sorted(node.items()):
            out.update(leaves(value, prefix + key + "."))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(leaves(value, prefix + "%d." % i))
    elif isinstance(node, bool):
        out[prefix[:-1]] = 1.0 if node else 0.0
    elif isinstance(node, (int, float)):
        out[prefix[:-1]] = float(node)
    elif isinstance(node, str):
        out[prefix[:-1]] = node
    return out


def numeric_leaves(node):
    """The numeric leaves of leaves()."""
    return {path: value for path, value in leaves(node).items()
            if isinstance(value, float)}


def kind_changes(fresh, baseline):
    """[(path, old, new)] for leaves that are a number on one side and text
    on the other."""
    fresh_leaves, base_leaves = leaves(fresh), leaves(baseline)
    return [(path, base_leaves[path], fresh_leaves[path])
            for path in sorted(set(fresh_leaves) & set(base_leaves))
            if isinstance(fresh_leaves[path], str)
            != isinstance(base_leaves[path], str)]


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        return doc if isinstance(doc, dict) else None
    except (OSError, json.JSONDecodeError):
        return None


def compare(name, fresh, baseline, threshold_pct):
    regressions = []
    fresh_leaves = numeric_leaves(fresh)
    base_leaves = numeric_leaves(baseline)
    shared = sorted(set(fresh_leaves) & set(base_leaves))
    for path, old, new in kind_changes(fresh, baseline):
        print("  %-58s %12s -> %-12s (changed kind)"
              % (path, json.dumps(old), json.dumps(new)))
    if not shared:
        print("  (no shared numeric metrics)")
        return regressions
    for path in shared:
        new, old = fresh_leaves[path], base_leaves[path]
        if old == new:
            continue  # stable metrics stay out of the table
        delta_pct = float("inf") if old == 0 else (new - old) / abs(old) * 100
        sign = direction(path)
        worse = sign != 0 and sign * (new - old) < 0
        flag = ""
        if worse and abs(delta_pct) > threshold_pct:
            flag = "  <-- REGRESSION"
            regressions.append("%s %s: %.4g -> %.4g (%+.1f%%)"
                               % (name, path, old, new, delta_pct))
        elif worse:
            flag = "  (worse, within threshold)"
        print("  %-58s %12.4g -> %-12.4g %+8.1f%%%s"
              % (path, old, new, delta_pct, flag))
    only_fresh = sorted(set(fresh_leaves) - set(leaves(baseline)))
    if only_fresh:
        print("  new metrics (no baseline): %s" % ", ".join(only_fresh))
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh-dir", default="build/bench",
                        help="directory with freshly generated BENCH_*.json")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory with committed baseline BENCH_*.json")
    parser.add_argument("--threshold-pct", type=float, default=25.0,
                        help="flag regressions beyond this percent delta")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when a flagged regression exists")
    args = parser.parse_args()

    pattern = os.path.join(args.fresh_dir, "BENCH_*.json")
    fresh_paths = sorted(glob.glob(pattern))
    if not fresh_paths:
        print("bench trend: no fresh reports under %s -- run the benches "
              "first; nothing to compare" % args.fresh_dir)
        return 0

    regressions = []
    compared = 0
    for fresh_path in fresh_paths:
        name = os.path.basename(fresh_path)
        baseline_path = os.path.join(args.baseline_dir, name)
        fresh = load(fresh_path)
        baseline = load(baseline_path)
        if fresh is None:
            print("== %s: fresh report unparseable, skipped" % name)
            continue
        if baseline is None:
            print("== %s: no committed baseline, skipped" % name)
            continue
        print("== %s (fresh vs committed, changed metrics only)" % name)
        regressions += compare(name, fresh, baseline, args.threshold_pct)
        compared += 1

    print("bench trend: %d report(s) compared, %d flagged regression(s)"
          % (compared, len(regressions)))
    for msg in regressions:
        print("REGRESSION: %s" % msg, file=sys.stderr)
    return 1 if (args.strict and regressions) else 0


if __name__ == "__main__":
    sys.exit(main())
