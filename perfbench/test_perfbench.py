#!/usr/bin/env python3
"""Self-checks of the perfbench benchmark.

    python3 perfbench/test_perfbench.py        # about three minutes

Runs every workload briefly through run.py (building the driver first if
needed) and checks what the benchmark itself promises:

  - accounting: netlist read + desynchronize + netlist write cover each
    op's wall time, and the remainder is reported (op.remainder_ms >= 0);
  - determinism: every count-type per-layer metric (units count, bytes,
    ratio) repeats exactly across two runs and across --jobs 1 and 2;
  - correctness: each run reports correct == true at the default seed,
    where golden.json's digests apply;
  - end-to-end metrics: every workload at --trace 0 reports exactly the
    end_to_end metrics of BENCHMARK.json, each greater than 0, and takes
    a host probe sample before every timed op (daemon: every slice);
  - the span self-time arithmetic of run.py on a hand-made trace.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

COUNT_UNITS = ("count", "bytes", "ratio")
SECONDS = "2"


def bench(workload, jobs=None, trace=1, seed=1, with_provenance=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise AssertionError("run.py failed: " + out.stderr[-2000:])
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not with_provenance:
        return result
    prefix = "perfbench provenance: "
    assert lines[-2].startswith(prefix), lines[-2]
    return result, json.loads(lines[-2][len(prefix):])


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS}


class SelfTimeTest(unittest.TestCase):
    def test_child_spans_are_subtracted_per_track(self):
        events = [
            {"ph": "B", "name": "pass", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "B", "name": "child", "pid": 1, "tid": 1, "ts": 100},
            {"ph": "B", "name": "grandchild", "pid": 1, "tid": 1, "ts": 150},
            {"ph": "E", "name": "grandchild", "pid": 1, "tid": 1, "ts": 170},
            {"ph": "E", "name": "child", "pid": 1, "tid": 1, "ts": 400},
            # A span on another track never covers "pass".
            {"ph": "B", "name": "child", "pid": 1, "tid": 2, "ts": 0},
            {"ph": "E", "name": "child", "pid": 1, "tid": 2, "ts": 1000},
            {"ph": "E", "name": "pass", "pid": 1, "tid": 1, "ts": 1000},
            {"ph": "C", "name": "counter", "pid": 1, "tid": 1, "ts": 5},
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump({"traceEvents": events}, f)
        try:
            self_ms = run.span_self_ms(f.name)
        finally:
            os.unlink(f.name)
        self.assertAlmostEqual(self_ms["pass"], 0.7)
        self.assertAlmostEqual(self_ms["child"], 0.28 + 1.0)
        self.assertAlmostEqual(self_ms["grandchild"], 0.02)


class WorkloadTest(unittest.TestCase):
    def check_accounting(self, result):
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreaterEqual(m["op.remainder_ms"], 0.0)
        self.assertGreaterEqual(m["core.unattributed_ms"], 0.0)
        covered = (m["share.netlist_pct"] + m["share.passes_pct"] +
                   m["share.symfe_pct"] + m["share.session_pct"])
        self.assertLessEqual(covered, 100.0 + 1e-6)

    def check_flow_workload(self, workload):
        a = bench(workload)
        b = bench(workload)
        serial = bench(workload, jobs=1)
        for r in (a, b, serial):
            self.assertTrue(r["correct"], workload)
            self.assertEqual(r["failed"], 0)
            self.check_accounting(r)
        self.assertEqual(counts(a), counts(b))
        self.assertEqual(counts(a), counts(serial))

    def test_cold(self):
        self.check_flow_workload("cold")

    def test_rerun(self):
        self.check_flow_workload("rerun")

    def test_eco(self):
        self.check_flow_workload("eco")

    def test_daemon(self):
        a = bench("daemon")
        b = bench("daemon", seed=2)
        for r in (a, b):
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
        # The design set is the same at every seed; only the order moves.
        self.assertEqual(counts(a), counts(b))

    def test_end_to_end_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                r, prov = bench(workload, trace=0, with_provenance=True)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertEqual(
                    sorted(r["metrics"]),
                    sorted(m["name"] for m in spec["end_to_end"]))
                for m in r["metrics"].values():
                    self.assertGreater(m["value"], 0.0)
                probe = prov["host_probe"]
                self.assertGreater(probe["factor"], 0.0)
                if workload == "daemon":
                    self.assertGreaterEqual(probe["samples"], 1)
                else:
                    self.assertEqual(probe["samples"], prov["timed_ops"])
                self.assertEqual(sorted(prov["unscaled"]),
                                 ["ops_per_s", "p50_ms", "p90_ms", "setup_s"])


if __name__ == "__main__":
    unittest.main()
