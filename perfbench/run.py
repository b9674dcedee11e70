#!/usr/bin/env python3
"""Repository benchmark of the AirIndex testbed.

Builds the airbench program from source (perfbench/CMakeLists.txt, into
.bench_build/ at the checkout root), runs one workload, checks the
simulated outputs and prints one JSON result object as the last line of
standard output:

    python3 perfbench/run.py --workload paper_fig4 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The exit code is 0 only when every output check
passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "airbench")
REFERENCE_DIR = os.path.join(HERE, "reference")
# The seed whose simulated outputs are committed under reference/. Any
# other seed is checked by rerunning cheap cells with one worker.
REFERENCE_SEED = 1
WORKLOADS = ("paper_fig4", "skew_cache_updates", "fleet_population")
# A run must finish well inside the 180 s a benchmark run is allowed.
AIRBENCH_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds airbench; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "airbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def run_airbench(args, work_dir, spans_out):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.jobs:
        cmd += ["--jobs", str(args.jobs)]
    if args.toy:
        cmd.append("--toy")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=AIRBENCH_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("airbench exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, workload + ".json")


def digest(cells):
    """Digest of the cells' simulated outputs (labels included)."""
    canon = json.dumps([[c["label"], c.get("outputs")] for c in cells],
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def drifted_cells(report, args):
    """Labels of cells whose simulated outputs are wrong."""
    cells = report.get("cells", [])
    bad = {c["label"] for c in cells if not c["ok"]}
    outputs = {c["label"]: c.get("outputs") for c in cells}
    # Outputs must not depend on the worker count.
    for check in report.get("check_cells", []):
        if not check["ok"] or outputs.get(check["label"]) != check["outputs"]:
            bad.add(check["label"])
    if args.seed == REFERENCE_SEED and not args.toy and not args.write_reference:
        with open(reference_path(args.workload)) as f:
            expected = json.load(f)["cells"]
        for label in set(expected) | set(outputs):
            if expected.get(label) != outputs.get(label):
                bad.add(label)
    return bad


def end_to_end(report):
    passes = report["passes"]
    return {
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "queries_per_s": (statistics.median(
            p["queries"] / p["wall_s"] for p in passes), "queries/s"),
        "queries_per_cpu_s": (statistics.median(
            p["queries"] / p["cpu_s"] for p in passes), "queries/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="override the workload's worker count")
    parser.add_argument("--toy", action="store_true",
                        help="toy-size workload (self-test)")
    parser.add_argument("--details",
                        help="also write the full report and digests here")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed:", error)
        return 2

    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    spans_out = None
    if args.trace:
        os.makedirs(os.path.join(BUILD_ROOT, "traces"), exist_ok=True)
        spans_out = os.path.join(BUILD_ROOT, "traces",
                                 args.workload + ".spans.tsv")
    try:
        report = run_airbench(args, work_dir, spans_out)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as error:
        log("airbench failed:", error)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    errors = list(report.get("errors", []))
    cells = report.get("cells", [])
    if not cells:
        errors.append("no sweep ran")
    bad = drifted_cells(report, args)
    attempted = 0
    failed = 0
    for cell in cells:
        # A cell that errors or drifts fails every one of its queries.
        queries = max(cell["queries"], 1 if not cell["ok"] else 0)
        attempted += queries
        failed += queries if cell["label"] in bad else cell["failed_queries"]
    for label in sorted(bad):
        errors.append("outputs of %s drifted" % label)

    if args.trace:
        metrics = {name: (m["value"], m["unit"])
                   for name, m in report.get("layers", {}).items()}
        metrics["failed_ratio"] = (failed / max(attempted, 1), "ratio")
    else:
        metrics = end_to_end(report) if cells else {}
    wanted = declared_metrics(args.trace)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        errors.append("metrics not measured: " + ", ".join(missing))
    for error in errors:
        log("error:", error)
    correct = not errors and failed == 0

    if args.write_reference:
        if args.seed != REFERENCE_SEED or args.toy or not correct:
            log("a reference needs a correct full-size run at seed",
                REFERENCE_SEED)
            return 4
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(reference_path(args.workload), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "cells": {c["label"]: c["outputs"] for c in cells}},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    if args.details:
        with open(args.details, "w") as f:
            json.dump({"digest": digest(cells),
                       "check_digest": digest(report.get("check_cells", [])),
                       "spans_file": spans_out, "errors": errors,
                       "report": report}, f)

    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
