#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

Builds the perfbench driver (the libraries under src/ plus driver.cpp)
into $CARGO_TARGET_DIR (default .bench_build) and runs one workload:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

Workloads: cold, rerun, eco, daemon (README.md in this directory).  With
--trace 0 the result carries every end-to-end metric of BENCHMARK.json;
with --trace 1 it carries every per-layer metric, including the span
self-times computed here from the driver's Chrome trace.  The last line of
stdout is the result:

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

Other modes:
    --jobs N        override the flow --jobs of cold/rerun/eco
    --emit-golden   print golden.json (cold --jobs 1 reference digests)

Run from the root of a checkout; exits 2 without a result when the
repository sources are missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold", "rerun", "eco", "daemon")
DRIVER_TIMEOUT_S = 160

PASSES = ("reference_sta", "region_grouping", "ff_substitution",
          "dependency_graph", "region_timing", "control_network",
          "sdc_generation", "fe_prove")

# Per-layer metric -> trace span whose self time it reports (per op).
SPAN_METRICS = {
    "flowdb.probe_self_ms": "cache_probe",
    "flowdb.restore_self_ms": "cache_restore",
    "flowdb.store_self_ms": "cache_store",
    "eco.load_self_ms": "eco_load",
    "eco.diff_self_ms": "eco_diff",
    "eco.region_keys_self_ms": "eco_region_keys",
    "eco.store_self_ms": "eco_store",
}
for _span in PASSES + ("symfe_prove", "sta_corner", "parallel_for"):
    SPAN_METRICS["trace.%s_self_ms" % _span] = _span


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources not found (%s); run from the root of a "
            "full checkout" % os.path.join(ROOT, "src", "CMakeLists.txt"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


def run_driver(cmd):
    """Runs the driver to completion (killed on timeout); returns stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        die("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        die("driver exited with code %d" % proc.returncode)
    return out


def span_self_ms(path):
    """Self time per span name of one trace, summed over all tracks, in ms.

    A span's self time is its duration minus the part covered by spans
    nested directly inside it on the same track.
    """
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    stacks = defaultdict(list)
    total = defaultdict(float)
    for e in events:
        ph = e.get("ph")
        if ph not in ("B", "E"):
            continue
        stack = stacks[(e.get("pid"), e.get("tid"))]
        if ph == "B":
            stack.append([e["name"], float(e["ts"]), 0.0])
        elif stack:
            name, begin, covered = stack.pop()
            duration = float(e["ts"]) - begin
            total[name] += duration - covered
            if stack:
                stack[-1][2] += duration
    return {name: us / 1000.0 for name, us in total.items()}


def provenance(driver_prov):
    prov = dict(driver_prov)
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if (top.returncode == 0 and
                os.path.realpath(top.stdout.strip()) ==
                os.path.realpath(ROOT)):
            prov["git_describe"] = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        else:
            prov["git_describe"] = "unavailable (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        prov["git_describe"] = "unavailable (no git)"
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    prov["src_sha256"] = h.hexdigest()[:16]
    return prov


def check_golden(workload, result):
    """Compares the run's reference with golden.json when the input matches.

    Returns a list of failure messages.
    """
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f).get(workload)
    if golden is None or golden["input"] != result["input_digest"]:
        return []
    failures = []
    for field, layer in (("verilog", "netlist"),
                         ("sdc", "core.sdc_generation")):
        if golden[field] != result["reference"][field]:
            failures.append("workload %s, op reference, layer %s: %s digest "
                            "%s != golden %s" % (workload, layer, field,
                                                 result["reference"][field],
                                                 golden[field]))
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int)
    ap.add_argument("--emit-golden", action="store_true")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(os.path.abspath(build_dir))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    # A relative work dir keeps the daemon's socket path short.
    work_root = os.path.relpath(os.path.join(build_dir, "perfbench-work"))

    if args.emit_golden:
        # The golden digests are each workload's cold reference at --jobs 1.
        golden = {}
        for w in WORKLOADS:
            work_dir = os.path.join(work_root, "golden-%d" % os.getpid())
            out = run_driver([driver, "--workload", w, "--seed", "1",
                              "--seconds", "0.1", "--trace", "0", "--jobs",
                              "1", "--work-dir", work_dir])
            shutil.rmtree(work_dir, ignore_errors=True)
            r = json.loads(out.strip().splitlines()[-1])
            golden[w] = dict(r["reference"], input=r["input_digest"],
                             seed=1)
        print(json.dumps(golden, indent=2, sort_keys=True))
        return 0
    if args.workload is None:
        die("--workload is required")

    work_dir = os.path.join(work_root, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.jobs is not None:
        cmd += ["--jobs", str(args.jobs)]
    try:
        result = json.loads(run_driver(cmd).strip().splitlines()[-1])
        metrics = result["metrics"]
        if args.trace:
            ops = max(1, int(result["traced_ops"]))
            self_ms = defaultdict(float)
            for path in result["trace_files"]:
                for span, ms in span_self_ms(path).items():
                    self_ms[span] += ms
            for metric, span in SPAN_METRICS.items():
                metrics[metric] = {"value": self_ms[span] / ops,
                                   "unit": "ms"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = check_golden(args.workload, result)
    expected = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        failures.append("metric set differs from BENCHMARK.json: missing "
                        "%s, extra %s" % (sorted(set(expected) - set(got)),
                                          sorted(set(got) - set(expected))))
    for line in failures:
        print("perfbench: FAIL " + line, file=sys.stderr)

    print("perfbench provenance: " +
          json.dumps(provenance(result["provenance"]), sort_keys=True))
    correct = (not failures and result["check_failures"] == 0 and
               result["failed"] == 0)
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
