#!/usr/bin/env python3
"""Self-test of the repository benchmark on toy-size workloads.

    python3 perfbench/selftest.py

For each of the three workloads, at toy size, it checks that:
  - the simulated-output digest is the same across two runs and across
    one and two workers;
  - the spans of a traced run nest: each child lies within its parent,
    mirrored children have a recorded parent, and every span name's
    summed self time is >= 0;
  - every metric BENCHMARK.json names is printed with its declared unit,
    and nothing else.
Exits non-zero after printing every failed check.
"""

import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ("paper_fig4", "skew_cache_updates", "fleet_population")
SEED = 7


def invoke(workload, trace, jobs, tag):
    details = os.path.join(WORK, "%s-%s.json" % (workload, tag))
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "0.2", "--trace",
           str(trace), "--jobs", str(jobs), "--toy", "--details", details]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    with open(details) as f:
        return proc.returncode, result, json.load(f)


def span_problems(path):
    """Nesting problems of the spans in a traced run's TSV file."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        rows = [dict(zip(header, line.rstrip("\n").split("\t"))) for line in f]
    spans = {}
    for row in rows:
        spans[int(row["id"])] = (row["name"], int(row["parent"]),
                                 row["mirror"] == "1", int(row["start_ns"]),
                                 int(row["end_ns"]))
    # Self time: duration minus the part of the interval that children
    # cover (overlaps once). Mirror children lie outside the interval.
    intervals = collections.defaultdict(list)
    for _, parent, mirror, start, end in spans.values():
        if parent and not mirror:
            intervals[parent].append((start, end))

    def covered(span_id, start, end):
        ns, reach = 0, start
        for lo, hi in sorted(intervals[span_id]):
            lo, hi = max(lo, reach), min(hi, end)
            ns += max(0, hi - lo)
            reach = max(reach, hi)
        return ns

    problems = []
    self_ns = collections.Counter()
    for span_id, (name, parent, mirror, start, end) in spans.items():
        if end < start:
            problems.append("%s %d ends before it starts" % (name, span_id))
        self_ns[name] += end - start - covered(span_id, start, end)
        if not parent:
            continue
        if parent not in spans:
            problems.append("%s %d has no parent %d" % (name, span_id, parent))
            continue
        _, _, _, parent_start, parent_end = spans[parent]
        if not mirror and (start < parent_start or end > parent_end):
            problems.append("%s %d lies outside its parent" % (name, span_id))
    for name, value in self_ns.items():
        if value < 0:
            problems.append("span %s has negative self time" % name)
    if not spans:
        problems.append("no spans recorded")
    return problems


def main():
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        runs = {}
        for tag, trace, jobs in (("a", 1, 2), ("b", 1, 2), ("serial", 1, 1),
                                 ("untraced", 0, 2)):
            code, result, details = invoke(workload, trace, jobs, tag)
            runs[tag] = details
            if code != 0 or not result.get("correct"):
                failures.append("%s/%s: run failed: %s" %
                                (workload, tag, details.get("errors")))
            if trace:
                # Each traced run overwrites the spans file; check it now.
                failures.extend("%s/%s: %s" % (workload, tag, p)
                                for p in span_problems(
                                    details["spans_file"])[:10])
            printed = {name: m["unit"]
                       for name, m in result.get("metrics", {}).items()}
            if printed != declared[trace]:
                failures.append("%s/%s: printed metrics differ from "
                                "BENCHMARK.json: %s" % (
                                    workload, tag,
                                    sorted(set(printed.items()) ^
                                           set(declared[trace].items()))))
        digests = {tag: d["digest"] for tag, d in runs.items()}
        if len(set(digests.values())) != 1:
            failures.append("%s: output digests differ: %s" %
                            (workload, digests))
        print("%s: checked" % workload, flush=True)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
