#!/usr/bin/env python3
"""Validates a committed BENCH_*.json report against its documented schema.

Every report is the flat-object format written by
bench::WriteReportSection ({"section": {...}, ...}) and is recognized by
its section keys (see CHECKERS). BENCH_parallel.json, the fallback, holds
the sections the parallel-execution work commits to (EXPERIMENTS.md E15
and the E6b consensus sweep): required keys, cell shapes, and the
recorded acceptance floors — 4-thread apply >= 2.0x over the sequential
baseline at 0% conflict and >= 1.0x at 100%. Each report is wired into
CTest as a *_bench_schema_check against the checked-in artifact; also
usable by hand:

  check_bench_schema.py BENCH_parallel.json

Exits 0 when every check passes, 1 otherwise. Stdlib only.
"""

import argparse
import json
import sys

_errors = []


def fail(msg):
    _errors.append(msg)


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def require(obj, where, key, pred, what):
    if key not in obj:
        fail("%s: missing required key %r" % (where, key))
        return None
    if not pred(obj[key]):
        fail("%s: key %r must be %s" % (where, key, what))
        return None
    return obj[key]


def check_consensus(section):
    where = "consensus"
    require(section, where, "txs_per_block", is_num, "a number")
    require(section, where, "per_entry_verify_ms", is_num, "a number")
    require(section, where, "cached_apply_extra_verifies",
            lambda v: is_num(v) and v == 0,
            "0 (the warm cache must re-verify nothing)")
    sweep = require(section, where, "sweep",
                    lambda v: isinstance(v, list) and v, "a non-empty list")
    if sweep is None:
        return
    for i, entry in enumerate(sweep):
        w = "consensus sweep[%d]" % i
        if not isinstance(entry, dict):
            fail("%s: not an object" % w)
            continue
        require(entry, w, "threads", is_num, "a number")
        require(entry, w, "apply_ms", is_num, "a number")
        require(entry, w, "speedup", is_num, "a number")


CELL_KEYS = [
    "per_entry_verify_ms", "serial_exec_ms", "sequential_baseline_ms",
    "apply_ms_1t", "apply_ms_2t", "apply_ms_4t",
    "speedup_vs_sequential_4t", "lanes_per_block",
    "parallel_blocks", "serial_blocks", "aborted_speculations",
]


def check_parallel_exec(section):
    where = "parallel_exec"
    require(section, where, "accounts", is_num, "a number")
    require(section, where, "txs_per_block", is_num, "a number")
    require(section, where, "hardware_threads", is_num, "a number")
    cells = require(section, where, "cells",
                    lambda v: isinstance(v, list) and v, "a non-empty list")
    if cells is None:
        return
    by_conflict = {}
    for i, cell in enumerate(cells):
        w = "parallel_exec cells[%d]" % i
        if not isinstance(cell, dict):
            fail("%s: not an object" % w)
            continue
        conflict = require(cell, w, "conflict_pct", is_num, "a number")
        for key in CELL_KEYS:
            require(cell, w, key, is_num, "a number")
        if conflict is not None:
            by_conflict[conflict] = cell

    missing = sorted(set([0, 25, 50, 100]) - set(by_conflict))
    if missing:
        fail("parallel_exec: conflict sweep missing cells for %s%%" % missing)
        return

    # The recorded acceptance floors for the optimistic lane executor.
    free = by_conflict[0].get("speedup_vs_sequential_4t", 0)
    if free < 2.0:
        fail("parallel_exec: 0%%-conflict 4-thread speedup %.2f < 2.0" % free)
    contended = by_conflict[100].get("speedup_vs_sequential_4t", 0)
    if contended < 1.0:
        fail("parallel_exec: 100%%-conflict 4-thread speedup %.2f < 1.0"
             % contended)
    # At full contention every transfer shares the hot account: one lane,
    # so the executor must have fallen back to the serial path.
    if by_conflict[100].get("parallel_blocks", -1) != 0:
        fail("parallel_exec: 100%%-conflict cell took the lane path")
    if by_conflict[0].get("parallel_blocks", 0) < 1:
        fail("parallel_exec: 0%%-conflict cell never took the lane path")
    if by_conflict[0].get("lanes_per_block", 0) <= 1:
        fail("parallel_exec: 0%%-conflict cell has <= 1 lane per block")


def check_shapley(section):
    where = "shapley"
    require(section, where, "all_identical", lambda v: v is True,
            "true (bit-identical results at every pool size)")
    sweep = require(section, where, "sweep",
                    lambda v: isinstance(v, list) and v, "a non-empty list")
    if sweep is None:
        return
    for i, entry in enumerate(sweep):
        w = "shapley sweep[%d]" % i
        if not isinstance(entry, dict):
            fail("%s: not an object" % w)
            continue
        require(entry, w, "threads", is_num, "a number")
        require(entry, w, "utility_calls", is_num, "a number")
        require(entry, w, "identical", lambda v: v is True,
                "true (same values and utility calls as the first row)")


def check_byzantine(doc):
    """BENCH_byzantine.json: the E16 accountability safety floors.

    These are pinned, not advisory: 0 honest-fork divergences, a 100%
    slash rate for every provable behaviour, no slash for withholding
    (it is not provable), exact supply conservation, and bit-identical
    honest heads across executor pool sizes.
    """
    where = "byzantine summary"
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        fail("report: missing required section 'summary'")
    else:
        require(summary, where, "honest_divergences",
                lambda v: is_num(v) and v == 0,
                "0 (honest replicas must never fork)")
        require(summary, where, "provable_slash_rate",
                lambda v: is_num(v) and v == 1.0,
                "1.0 (every provable offender loses its stake)")
        require(summary, where, "withhold_slashed",
                lambda v: is_num(v) and v == 0,
                "0 (withholding is not provable, never slashed)")
        require(summary, where, "supply_conserved", lambda v: v is True,
                "true (balances + stakes + burned is invariant)")
        require(summary, where, "threads_identical", lambda v: v is True,
                "true (slashing is consensus-critical and deterministic)")
        require(summary, where, "executor_floors_ok", lambda v: v is True,
                "true (every executor fraud completed, slashed, conserved)")

    section = doc.get("validator_accountability")
    if not isinstance(section, dict):
        fail("report: missing required section 'validator_accountability'")
    else:
        cells = require(section, "validator_accountability", "cells",
                        lambda v: isinstance(v, list) and v,
                        "a non-empty list")
        behaviors = set()
        for i, cell in enumerate(cells or []):
            w = "validator_accountability cells[%d]" % i
            if not isinstance(cell, dict):
                fail("%s: not an object" % w)
                continue
            behaviors.add(cell.get("behavior"))
            require(cell, w, "honest_divergences",
                    lambda v: is_num(v) and v == 0, "0")
            require(cell, w, "supply_conserved", lambda v: v is True, "true")
            expected = 1.0 if cell.get("provable") else 0.0
            require(cell, w, "slash_rate",
                    lambda v, e=expected: is_num(v) and v == e,
                    "%.1f for provable=%s" % (expected,
                                              cell.get("provable")))
        missing = {"equivocate", "invalid_root", "gas_cheat",
                   "withhold"} - behaviors
        if missing:
            fail("validator_accountability: missing behaviours %s"
                 % sorted(missing))

    section = doc.get("executor_accountability")
    if not isinstance(section, dict):
        fail("report: missing required section 'executor_accountability'")
    else:
        cells = require(section, "executor_accountability", "cells",
                        lambda v: isinstance(v, list) and v,
                        "a non-empty list")
        faults = set()
        for i, cell in enumerate(cells or []):
            w = "executor_accountability cells[%d]" % i
            if not isinstance(cell, dict):
                fail("%s: not an object" % w)
                continue
            faults.add(cell.get("fault"))
            require(cell, w, "completion_rate",
                    lambda v: is_num(v) and v == 1.0,
                    "1.0 (a cheating minority cannot stall the lifecycle)")
            require(cell, w, "slash_rate", lambda v: is_num(v) and v == 1.0,
                    "1.0 (every cheating executor forfeits its bond)")
            require(cell, w, "supply_conserved", lambda v: v is True, "true")
            require(cell, w, "avg_tokens_burned",
                    lambda v: is_num(v) and v > 0,
                    "> 0 (half of each forfeited bond is destroyed)")
        missing = {"wrong_vote", "tampered_update",
                   "false_attestation"} - faults
        if missing:
            fail("executor_accountability: missing faults %s"
                 % sorted(missing))


def check_discovery(doc):
    """BENCH_discovery.json: the E17 store/memoization/discovery floors.

    Pinned acceptance criteria: every pair's second run hit the cache, a
    cache hit is at least 5x faster than training from scratch, every
    substituted artifact verified against its chain anchor (rate exactly
    1.0), the chunked store actually deduplicated overlapping revisions
    (ratio > 1.0), and the gossip index converged bit-identically across
    two runs of the same fault-injected seed.
    """
    where = "discovery"
    section = doc.get("discovery")
    if not isinstance(section, dict):
        fail("report: missing required section 'discovery'")
        return
    pairs = require(section, where, "pairs",
                    lambda v: is_num(v) and v > 0, "a positive number")
    require(section, where, "cache_hits",
            lambda v: is_num(v) and v == pairs,
            "== pairs (every identical rerun must hit the cache)")
    require(section, where, "hit_miss_speedup_median",
            lambda v: is_num(v) and v >= 5.0,
            ">= 5.0 (cache hit must dominate train-from-scratch)")
    require(section, where, "artifact_verify_rate",
            lambda v: is_num(v) and v == 1.0,
            "1.0 (every substituted artifact verifies against its anchor)")
    require(section, where, "dedup_ratio",
            lambda v: is_num(v) and v > 1.0,
            "> 1.0 (overlapping revisions must share chunks)")
    require(section, where, "discovery_converge_s",
            lambda v: is_num(v) and v > 0,
            "> 0 (the churned gossip index must converge)")
    require(section, where, "discovery_deterministic", lambda v: v is True,
            "true (same seed -> bit-identical digests)")


def check_scale(doc):
    """BENCH_scale.json: the E18 NetSim-at-scale floors.

    Pinned acceptance criteria: the churn + rumor-convergence sweep reaches
    at least 10^5 nodes, the simulator sustains at least 100k events/sec at
    some sweep point, the 1-vs-N-thread rerun was bit-identical, and every
    churned sweep cell actually converged (99.9% infected within the sim
    budget) while exercising churn.
    """
    where = "scale"
    section = doc.get("scale")
    if not isinstance(section, dict):
        fail("report: missing required section 'scale'")
        return
    require(section, where, "max_nodes",
            lambda v: is_num(v) and v >= 100_000,
            ">= 100000 (the sweep must reach 10^5 nodes)")
    require(section, where, "max_events_per_sec",
            lambda v: is_num(v) and v >= 100_000,
            ">= 100000 events/sec at the best sweep point")
    require(section, where, "deterministic_across_threads",
            lambda v: v is True,
            "true (1 vs N threads must be bit-identical)")
    sweep = require(section, where, "sweep",
                    lambda v: isinstance(v, list) and v, "a non-empty list")
    for i, cell in enumerate(sweep or []):
        w = "scale sweep[%d]" % i
        if not isinstance(cell, dict):
            fail("%s: not an object" % w)
            continue
        require(cell, w, "nodes", lambda v: is_num(v) and v > 0,
                "a positive number")
        require(cell, w, "events", lambda v: is_num(v) and v > 0,
                "a positive number")
        require(cell, w, "events_per_sec", lambda v: is_num(v) and v > 0,
                "a positive number")
        require(cell, w, "converge_sim_s", lambda v: is_num(v) and v > 0,
                "> 0 (the epidemic must have converged)")
        require(cell, w, "infected_fraction",
                lambda v: is_num(v) and v >= 0.999,
                ">= 0.999 (99.9% of nodes infected)")
        require(cell, w, "churn_transitions", lambda v: is_num(v) and v > 0,
                "> 0 (the sweep runs under churn)")
    # The 10^6-node smoke is optional (env-skippable on slow hosts), but a
    # recorded run must be self-consistent.
    smoke = section.get("million_smoke")
    if isinstance(smoke, dict) and smoke.get("ran") is True:
        require(smoke, "scale million_smoke", "nodes",
                lambda v: is_num(v) and v >= 1_000_000, ">= 1000000")
        require(smoke, "scale million_smoke", "events",
                lambda v: is_num(v) and v > 0, "a positive number")
        require(smoke, "scale million_smoke", "events_per_sec",
                lambda v: is_num(v) and v > 0, "a positive number")


BELOW_RESOLUTION = "below resolution"


def check_overheads(section, where):
    """Every *overhead_pct key is a non-negative number or "below
    resolution". A timed overhead also carries its resolution under the
    matching *overhead_resolution_pct key, which a "below resolution" one
    requires. A negative overhead is a measurement artefact, never a
    result."""
    for key, value in section.items():
        if not key.endswith("overhead_pct"):
            continue
        if value == BELOW_RESOLUTION:
            require(section, where, key[:-len("_pct")] + "_resolution_pct",
                    lambda v: is_num(v) and v >= 0,
                    "a non-negative number (%r is below it)" % key)
        elif not (is_num(value) and value >= 0):
            fail("%s: key %r must be a non-negative number or %r, not %r"
                 % (where, key, BELOW_RESOLUTION, value))


def check_observability(doc):
    """BENCH_observability.json: the E12/E19 observability floors.

    No overhead anywhere in the report is negative (check_overheads).
    Pinned acceptance criteria for the health plane (E19): enabling
    per-block sampling + full-rule-pack evaluation costs at most 2% of
    the lifecycle, a constructed-but-unattached plane costs ~nothing
    (both read as numbers: the measured overhead where it is resolved,
    otherwise its resolution, an upper bound),
    every injected fault class fires exactly its mapped alerts (precision
    and recall both 1.0), an alert lands within 3 samples of the first
    bad sample, and the alert stream digest is bit-identical at 1 vs N
    pool threads. bench_micro's block-validation section must be present
    with its disabled-path overhead within the 2% budget. The E12 section
    is shape-checked only — its wall-clock deltas are noisy on shared
    hosts and the E19 arms supersede them.
    """
    for name, section in doc.items():
        if isinstance(section, dict):
            check_overheads(section, name)

    e12 = doc.get("marketplace_lifecycle_overhead")
    if isinstance(e12, dict):
        where = "marketplace_lifecycle_overhead"
        require(e12, where, "trials", lambda v: is_num(v) and v > 0,
                "a positive number")
        require(e12, where, "enabled_overhead_pct",
                lambda v: v == BELOW_RESOLUTION or is_num(v),
                "a number or %r" % BELOW_RESOLUTION)
        require(e12, where, "spans_per_lifecycle",
                lambda v: is_num(v) and v > 0,
                "> 0 (tracing must have recorded spans)")

    where = "block_validation_overhead"
    section = doc.get(where)
    if not isinstance(section, dict):
        fail("report: missing required section %r" % where)
    else:
        require(section, where, "trials", lambda v: is_num(v) and v > 0,
                "a positive number")
        require(section, where, "disabled_path_overhead_pct",
                lambda v: is_num(v) and v <= 2.0,
                "<= 2.0 (compiled-in, disabled metrics cost ~nothing)")

    where = "health"
    section = doc.get("health")
    if not isinstance(section, dict):
        fail("report: missing required section 'health'")
        return
    require(section, where, "trials", lambda v: is_num(v) and v > 0,
            "a positive number")
    require(section, where, "enabled_overhead_pct",
            lambda v: is_num(v) and v <= 2.0,
            "<= 2.0 (sampling + rule evaluation within the budget)")
    require(section, where, "disabled_overhead_pct",
            lambda v: is_num(v) and v <= 1.0,
            "<= 1.0 (an unattached health plane costs ~nothing)")
    require(section, where, "samples_per_lifecycle",
            lambda v: is_num(v) and v > 0,
            "> 0 (the sampler must have run)")
    require(section, where, "rules_per_sample",
            lambda v: is_num(v) and v > 0,
            "> 0 (the default rule pack must be loaded)")
    require(section, where, "alert_precision",
            lambda v: is_num(v) and v == 1.0,
            "1.0 (no rule fires outside its mapped fault class)")
    require(section, where, "alert_recall",
            lambda v: is_num(v) and v == 1.0,
            "1.0 (every injected fault class fires its mapped rules)")
    require(section, where, "max_detection_latency_samples",
            lambda v: is_num(v) and v <= 3,
            "<= 3 samples from first bad sample to fire")
    require(section, where, "threads_identical", lambda v: v is True,
            "true (same seed -> bit-identical alert stream at 1 vs N)")


def cells_of(doc, section_name):
    """The non-empty `cells` list of a required section, or []."""
    section = doc.get(section_name)
    if not isinstance(section, dict):
        fail("report: missing required section %r" % section_name)
        return []
    cells = require(section, section_name, "cells",
                    lambda v: isinstance(v, list) and v, "a non-empty list")
    out = []
    for i, cell in enumerate(cells or []):
        if isinstance(cell, dict):
            out.append(("%s cells[%d]" % (section_name, i), cell))
        else:
            fail("%s cells[%d]: not an object" % (section_name, i))
    return out


def check_robustness(doc):
    """BENCH_robustness.json: the E11 convergence and liveness floors.

    Every chaos cell of the validator convergence sweep converged; every
    faulted lifecycle either finalized or refunded its escrow (the rates
    sum to 1); and a faulty minority of executors never stops a run. No
    timing floors.
    """
    for where, cell in cells_of(doc, "convergence_sweep"):
        require(cell, where, "converged_rate",
                lambda v: is_num(v) and v == 1.0,
                "1.0 (every chaos seed converges)")
    section = doc.get("lifecycle_completion")
    executors = None
    if isinstance(section, dict):
        executors = require(section, "lifecycle_completion", "executors",
                            lambda v: is_num(v) and v > 0,
                            "a positive number")
    for where, cell in cells_of(doc, "lifecycle_completion"):
        faulty = require(cell, where, "faulty_executors",
                         lambda v: is_num(v) and v >= 0,
                         "a non-negative number")
        completion = require(cell, where, "completion_rate", is_num,
                             "a number")
        refund = require(cell, where, "refund_rate", is_num, "a number")
        # Rates are k/seeds fractions; allow only float rounding.
        if completion is not None and refund is not None and \
                abs(completion + refund - 1.0) > 1e-9:
            fail("%s: completion_rate + refund_rate = %r, must be 1.0 "
                 "(every run finalizes or refunds)" % (where,
                                                       completion + refund))
        if None not in (executors, faulty, completion) and \
                2 * faulty < executors and completion != 1.0:
            fail("%s: completion_rate %r with a faulty minority, must be "
                 "1.0" % (where, completion))


def check_durability(doc):
    """BENCH_durability.json: the recovery sweep's consistency floors.

    Recovery never replays more blocks than were written, it uses a
    snapshot exactly when it replays fewer, and a sweep cell with
    snapshots off (interval 0) never uses one. No timing floors.
    """
    for where, cell in cells_of(doc, "recovery_sweep"):
        blocks = require(cell, where, "blocks", is_num, "a number")
        replayed = require(cell, where, "replayed_blocks",
                           lambda v: is_num(v) and v >= 0,
                           "a non-negative number")
        used = require(cell, where, "used_snapshot",
                       lambda v: isinstance(v, bool), "a boolean")
        interval = require(cell, where, "snapshot_interval",
                           lambda v: is_num(v) and v >= 0,
                           "a non-negative number")
        if None in (blocks, replayed, used, interval):
            continue
        if replayed > blocks:
            fail("%s: replayed_blocks %r > blocks %r" % (where, replayed,
                                                         blocks))
        if used != (replayed < blocks):
            fail("%s: used_snapshot must be true exactly when "
                 "replayed_blocks < blocks" % where)
        if interval == 0 and used:
            fail("%s: snapshot_interval 0 but a snapshot was used" % where)


def check_parallel(doc):
    """BENCH_parallel.json: the E15/E6b sections (see the module doc)."""
    for name in ("consensus", "parallel_exec"):
        if name not in doc or not isinstance(doc[name], dict):
            fail("report: missing required section %r" % name)
    if "consensus" in doc and isinstance(doc["consensus"], dict):
        check_consensus(doc["consensus"])
    if "parallel_exec" in doc and isinstance(doc["parallel_exec"], dict):
        check_parallel_exec(doc["parallel_exec"])
    if "shapley" in doc and isinstance(doc["shapley"], dict):
        check_shapley(doc["shapley"])


# Section key -> the checker of the report that carries it. A report is
# validated by the checker of the first key it has, in this order;
# BENCH_parallel.json carries none of them.
CHECKERS = [
    ("discovery", check_discovery),
    ("scale", check_scale),
    ("health", check_observability),
    ("marketplace_lifecycle_overhead", check_observability),
    ("block_validation_overhead", check_observability),
    ("validator_accountability", check_byzantine),
    ("summary", check_byzantine),
    ("lifecycle_completion", check_robustness),
    ("convergence_sweep", check_robustness),
    ("recovery_sweep", check_durability),
]


def check_metadata(doc):
    """The thread and build context every report carries.

    A number without its worker count, build type and compiler cannot be
    compared with another, so every report must have all five keys.
    """
    metadata = doc.get("metadata")
    if not isinstance(metadata, dict):
        fail("report: missing required section 'metadata'")
        return
    require(metadata, "metadata", "threads_effective",
            lambda v: is_num(v) and v >= 1, ">= 1")
    require(metadata, "metadata", "hardware_concurrency",
            lambda v: is_num(v) and v >= 1, ">= 1")
    require(metadata, "metadata", "pds2_threads_env",
            lambda v: isinstance(v, str), "a string")
    for key in ("build_type", "compiler"):
        require(metadata, "metadata", key,
                lambda v: isinstance(v, str) and v, "a non-empty string")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="the BENCH_*.json report to validate")
    args = parser.parse_args()

    try:
        with open(args.report, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("FAIL: cannot parse %s: %s" % (args.report, e), file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        print("FAIL: report is not a JSON object", file=sys.stderr)
        return 1

    checker = next((c for key, c in CHECKERS if key in doc), check_parallel)
    checker(doc)
    check_metadata(doc)

    if _errors:
        for msg in _errors:
            print("FAIL: %s" % msg, file=sys.stderr)
        print("%d schema violation(s)" % len(_errors), file=sys.stderr)
        return 1
    print("bench schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
