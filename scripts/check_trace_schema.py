#!/usr/bin/env python3
"""Validates PDS2 run exports against the documented schema.

Checks the JSON-lines run export (spans from obs::Tracer::WriteJsonLines,
then health records from obs::TimeSeries / obs::HealthMonitor) and the
Chrome trace_event document written by obs::WriteChromeTrace (see
docs/PROTOCOL.md, "Run export schema"). Wired into CTest under the `trace`
and `health` labels; also usable by hand:

  check_trace_schema.py --tool build/tools/pds2_obs   # run the demo + check
  check_trace_schema.py run.jsonl [--chrome run.json]  # check existing files

Exits 0 when every check passes, 1 otherwise. Stdlib only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

NUMBER = (int, float)
# Record schemas: (required keys, optional keys), each key -> type. Span
# lines carry no "type" key; health lines are keyed by theirs.
SCHEMAS = {
    "span": ({"id": int, "parent": int, "trace": int, "name": str,
              "node": str, "thread": int, "wall_start_ns": int,
              "wall_dur_ns": int},
             {"links": list, "sim_start_us": int, "sim_dur_us": int}),
    "meta": ({"type": str, "samples": int, "retained": int, "capacity": int,
              "series": int, "dropped_series": int}, {}),
    "sample": ({"type": str, "index": int, "wall_ns": int}, {"sim_us": int}),
    "series": ({"type": str, "name": str, "kind": str, "start": int,
                "values": list}, {}),
    "alert": ({"type": str, "rule": str, "severity": str, "fired": bool,
               "sample": int, "first_bad": int, "wall_ns": int,
               "observed": NUMBER, "bound": NUMBER},
              {"sim_us": int, "detail": str}),
}

_errors = []


def fail(msg):
    _errors.append(msg)


def has_type(value, kind):
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind)


def check_keys(where, obj, kind):
    required, optional = SCHEMAS[kind]
    for key, want in required.items():
        if key not in obj:
            fail("%s: missing required key %r" % (where, key))
            return False
    for key, value in obj.items():
        want = required.get(key, optional.get(key))
        if want is None:
            fail("%s: unknown key %r" % (where, key))
            return False
        if not has_type(value, want):
            fail("%s: key %r has the wrong type" % (where, key))
            return False
    return True


def check_span(where, obj):
    if obj["id"] < 1:
        fail("%s: span ids are 1-based, got %d" % (where, obj["id"]))
    if obj["parent"] < 0 or obj["trace"] < 1:
        fail("%s: bad parent/trace id" % where)
    if not obj["name"]:
        fail("%s: empty span name" % where)
    if "links" in obj:
        if not all(has_type(x, int) and x >= 1 for x in obj["links"]):
            fail("%s: links must be positive span ids" % where)
        if obj["id"] in obj["links"]:
            fail("%s: span links to itself" % where)
    if ("sim_start_us" in obj) != ("sim_dur_us" in obj):
        fail("%s: sim_start_us and sim_dur_us must appear together" % where)


def read_export(path):
    """Parses and validates the JSON-lines export; returns (spans, health)
    where health maps each record type to its list of records."""
    spans, health = [], {kind: [] for kind in SCHEMAS if kind != "span"}
    with open(path, "rb") as f:
        raw_lines = f.read().split(b"\n")
    for line_no, raw in enumerate(raw_lines, 1):
        where = "line %d" % line_no
        if any(b < 0x20 for b in raw):
            fail("%s: raw control byte in a record" % where)
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            fail("%s: not valid JSON (%s)" % (where, e))
            continue
        if not isinstance(obj, dict):
            fail("%s: not a JSON object" % where)
            continue
        kind = obj.get("type", "span")
        if kind not in SCHEMAS or (kind == "span" and "type" in obj):
            fail("%s: unknown record type %r" % (where, kind))
        elif check_keys(where, obj, kind):
            if kind == "span":
                if any(health.values()):
                    fail("%s: span after a health record" % where)
                check_span(where, obj)
                spans.append(obj)
            else:
                health[kind].append(obj)
    check_span_links(spans)
    check_health(health)
    return spans, health


def check_span_links(spans):
    by_id = {s["id"]: s for s in spans}
    if len(by_id) != len(spans):
        fail("span export: duplicate span ids")
    for s in spans:
        if s["parent"] != 0 and s["parent"] not in by_id:
            fail("span %d: parent %d not in export" % (s["id"], s["parent"]))
        for link in s.get("links", []):
            if link not in by_id:
                fail("span %d: link %d not in export" % (s["id"], link))
        # One trace id per connected parent chain: a child shares its
        # parent's.
        parent = by_id.get(s["parent"])
        if parent is not None and s["trace"] != parent["trace"]:
            fail("span %d: trace %d differs from parent's %d"
                 % (s["id"], s["trace"], parent["trace"]))


def check_health(health):
    if not any(health.values()):
        return
    if len(health["meta"]) != 1:
        fail("health export: expected one meta record, got %d"
             % len(health["meta"]))
        return
    meta = health["meta"][0]
    indices = [s["index"] for s in health["sample"]]
    first = meta["samples"] - meta["retained"]
    if indices != list(range(first, meta["samples"])):
        fail("health export: sample indices %s.. are not the %d retained "
             "samples" % (indices[:3], meta["retained"]))
    if len(health["series"]) > meta["series"]:
        fail("health export: more series records than meta.series")
    for s in health["series"]:
        where = "series %r" % s["name"]
        if s["kind"] not in ("counter", "gauge", "quantile"):
            fail("%s: unknown kind %r" % (where, s["kind"]))
        if not all(has_type(v, NUMBER) for v in s["values"]):
            fail("%s: values must be numbers" % where)
        if len(s["values"]) != meta["samples"] - s["start"] or \
                s["start"] < first:
            fail("%s: %d values from sample %d, expected one per retained "
                 "sample" % (where, len(s["values"]), s["start"]))
    for a in health["alert"]:
        where = "alert %r @%d" % (a["rule"], a["sample"])
        if a["severity"] not in ("info", "warning", "critical"):
            fail("%s: unknown severity %r" % (where, a["severity"]))
        if a["first_bad"] > a["sample"]:
            fail("%s: first_bad after the firing sample" % where)


def check_demo(spans, health, stdout):
    """The seeded demo must export one connected workload DAG spanning at
    least three node roles, and exactly one alert: the fire of
    market.executor-dropped for the one executor crashed in kTrain."""
    if "critical path (sim time)" not in stdout:
        fail("pds2_obs report lacks a sim-time critical path")
    if "== rule timelines ==" not in stdout:
        fail("pds2_obs report lacks the health rule timelines")
    roots = [s for s in spans if s["name"] == "market.run_workload"]
    if not roots:
        fail("demo export: no market.run_workload span")
        return
    adjacency = {s["id"]: set() for s in spans}
    for s in spans:
        for other in [s["parent"]] + s.get("links", []):
            if other in adjacency:
                adjacency[s["id"]].add(other)
                adjacency[other].add(s["id"])
    seen, frontier = set(), [roots[0]["id"]]
    while frontier:
        cur = frontier.pop()
        if cur not in seen:
            seen.add(cur)
            frontier.extend(adjacency[cur])
    by_id = {s["id"]: s for s in spans}
    roles = {by_id[i]["node"] for i in seen if by_id[i]["node"]}
    if len(seen) < 10:
        fail("demo export: workload component has only %d spans" % len(seen))
    if len(roles) < 3:
        fail("demo export: workload spans %d roles, need >= 3: %s"
             % (len(roles), sorted(roles)))
    alerts = [(a["rule"], a["fired"]) for a in health["alert"]]
    if alerts != [("market.executor-dropped", True)]:
        fail("demo export: alert stream %s, expected one fire of "
             "market.executor-dropped" % alerts)


def check_chrome_trace(path, spans, health):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail("chrome trace: not valid JSON (%s)" % e)
            return
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        fail("chrome trace: missing traceEvents list")
        return

    processes, threads = {}, set()
    span_ids, alert_slices, flows = set(), [], {}
    for i, ev in enumerate(events):
        where = "chrome event %d" % i
        if not isinstance(ev, dict) or "ph" not in ev:
            fail("%s: not an event object" % where)
            continue
        ph, name = ev["ph"], ev.get("args", {}).get("name")
        if ph == "M" and ev.get("name") == "process_name" and name:
            processes[ev.get("pid")] = name
        elif ph == "M" and ev.get("name") == "thread_name" and name:
            if ev.get("pid") not in processes:
                fail("%s: thread_name before its process_name" % where)
            threads.add((ev.get("pid"), ev.get("tid")))
        elif ph == "M":
            fail("%s: metadata event without a process/thread name" % where)
        elif ph == "X":
            missing = [k for k in ("pid", "tid", "ts", "dur", "name", "cat",
                                   "args") if k not in ev]
            if missing:
                fail("%s: complete event missing %s" % (where, missing))
                continue
            if ev["pid"] not in processes:
                fail("%s: pid %r has no process_name metadata"
                     % (where, ev["pid"]))
            if ev["dur"] < 0 or ev["ts"] < 0:
                fail("%s: negative timestamp" % where)
            if processes.get(ev["pid"]) == "health":
                if (ev["pid"], ev["tid"]) not in threads:
                    fail("%s: alert slice without thread_name" % where)
                if not all(k in ev["args"]
                           for k in ("sample", "observed", "bound")):
                    fail("%s: alert slice lacks args.sample/observed/bound"
                         % where)
                alert_slices.append((ev["name"], ev["args"].get("sample")))
            elif "id" not in ev["args"]:
                fail("%s: args.id (span id) missing" % where)
            else:
                span_ids.add(ev["args"]["id"])
        elif ph in ("s", "f"):
            flows.setdefault(ev.get("id"), []).append(ph)
        else:
            fail("%s: unexpected phase %r" % (where, ph))

    for flow_id, phases in sorted(flows.items()):
        if sorted(phases) != ["f", "s"]:
            fail("chrome flow %r: needs exactly one 's' and one 'f', got %s"
                 % (flow_id, phases))
    exportable = {s["id"] for s in spans if "sim_start_us" in s}
    if not exportable <= span_ids:
        fail("chrome trace: sim-time spans missing from export: %s..."
             % sorted(exportable - span_ids)[:5])
    fires = [(a["rule"], a["sample"]) for a in health["alert"] if a["fired"]]
    if sorted(fires) != sorted(alert_slices):
        fail("chrome trace: alert slices %s, expected one per fire %s"
             % (alert_slices, fires))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("jsonl", nargs="?", help="JSON-lines run export")
    parser.add_argument("--chrome", help="Chrome trace_event JSON to check")
    parser.add_argument("--tool", help="pds2_obs binary: run its --demo "
                        "and check both outputs")
    args = parser.parse_args()

    if bool(args.tool) == bool(args.jsonl):
        parser.error("pass exactly one of --tool or a jsonl file")

    if args.tool:
        with tempfile.TemporaryDirectory(prefix="pds2-obs-") as tmp:
            jsonl = os.path.join(tmp, "demo.jsonl")
            chrome = os.path.join(tmp, "demo-chrome.json")
            proc = subprocess.run(
                [args.tool, "--demo", "--demo-out", jsonl, "--chrome", chrome],
                capture_output=True, text=True)
            if proc.returncode != 0:
                fail("pds2_obs --demo failed (%d): %s"
                     % (proc.returncode, proc.stderr.strip()))
            else:
                spans, health = read_export(jsonl)
                check_demo(spans, health, proc.stdout)
                check_chrome_trace(chrome, spans, health)
    else:
        spans, health = read_export(args.jsonl)
        if args.chrome:
            check_chrome_trace(args.chrome, spans, health)

    if _errors:
        for msg in _errors:
            print("FAIL: %s" % msg, file=sys.stderr)
        print("%d schema violation(s)" % len(_errors), file=sys.stderr)
        return 1
    print("run export schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
