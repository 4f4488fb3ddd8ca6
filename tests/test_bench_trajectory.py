#!/usr/bin/env python3
"""Unit tests for tools/bench_trajectory.py host-phase attribution.

Runs under plain unittest (registered with CTest) against the module
loaded straight from tools/, so the explain logic stays covered
without a google-benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "tools", "bench_trajectory.py")

spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bt = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bt)


def record(host_phases=None, ns=100.0):
    r = {
        "sha": "abc1234",
        "date": "2026-08-08",
        "host_key": "unit",
        "build_type": "RelWithDebInfo",
        "results": {n: {"ns_per_op": ns} for n in bt.TRACKED},
    }
    if host_phases is not None:
        r["host_phases"] = host_phases
    return r


class HostPhaseDeltaTest(unittest.TestCase):
    def test_largest_growth_first(self):
        base = record({"fiber": 1.0, "event_drain": 2.0, "mem": 0.5})
        cand = record({"fiber": 1.1, "event_drain": 3.5, "mem": 0.4})
        rows = bt.host_phase_deltas(base, cand)
        self.assertEqual([r[0] for r in rows],
                         ["event_drain", "fiber", "mem"])
        self.assertAlmostEqual(rows[0][3], 1.5)
        self.assertAlmostEqual(rows[2][3], -0.1)

    def test_union_of_phase_keys(self):
        # A phase present on one side only reads as from/to zero.
        rows = bt.host_phase_deltas(record({"fiber": 1.0}),
                                    record({"net": 2.0}))
        self.assertEqual([(r[0], r[1], r[2]) for r in rows],
                         [("net", 0.0, 2.0), ("fiber", 1.0, 0.0)])

    def test_missing_on_either_side_is_empty(self):
        self.assertEqual(
            bt.host_phase_deltas(record(), record({"fiber": 1.0})), [])
        self.assertEqual(
            bt.host_phase_deltas(record({"fiber": 1.0}), record()), [])


class ExplainLinesTest(unittest.TestCase):
    def test_names_top_regressing_phase(self):
        base = record({"fiber": 1.0, "event_drain": 2.0})
        cand = record({"fiber": 1.1, "event_drain": 3.5})
        lines = bt.explain_lines(base, cand)
        self.assertIn("top regressing host phase: event_drain (+1.500 s)",
                      lines[-1])
        # One header + one row per phase + the verdict.
        self.assertEqual(len(lines), 4)

    def test_improvement_has_no_regressing_phase(self):
        base = record({"fiber": 2.0})
        cand = record({"fiber": 1.0})
        self.assertEqual(bt.explain_lines(base, cand)[-1],
                         "no host phase regressed")

    def test_missing_data_hints_at_host_prof(self):
        lines = bt.explain_lines(record(), record())
        self.assertEqual(len(lines), 1)
        self.assertIn("--host-prof", lines[0])


class ExplainVerbTest(unittest.TestCase):
    def test_cli_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            bp = os.path.join(d, "base.json")
            cp = os.path.join(d, "cand.json")
            with open(bp, "w") as f:
                json.dump(record({"fiber": 1.0, "mem": 0.25}), f)
            with open(cp, "w") as f:
                json.dump(record({"fiber": 1.5, "mem": 0.25}), f)
            out = subprocess.run(
                [sys.executable, TOOL, "explain", "--baseline", bp,
                 "--record", cp],
                capture_output=True, text=True, check=True)
            self.assertIn("top regressing host phase: fiber (+0.500 s)",
                          out.stdout)


class ReadHostprofTest(unittest.TestCase):
    def test_parses_manifest_phases(self):
        manifest = {
            "schema": "wwtcmp.hostprof/1",
            "phases": [{"name": "fiber", "sec": 1.25, "share": 0.5},
                       {"name": "untracked", "sec": 0.1, "share": 0.04}],
        }
        with tempfile.TemporaryDirectory() as d:
            mp = os.path.join(d, "hostprof.json")
            with open(mp, "w") as f:
                json.dump(manifest, f)
            self.assertEqual(bt.read_hostprof(mp),
                             {"fiber": 1.25, "untracked": 0.1})

    def test_rejects_wrong_schema(self):
        with tempfile.TemporaryDirectory() as d:
            mp = os.path.join(d, "other.json")
            with open(mp, "w") as f:
                json.dump({"schema": "wwtcmp.metrics/2"}, f)
            with self.assertRaises(SystemExit):
                bt.read_hostprof(mp)



class PreRendezvousRemovalDataTest(unittest.TestCase):
    """Records and manifests written before the parallel host was
    removed still list a `rendezvous` phase; `check` must treat it
    like any other named phase."""

    # A wwtcmp.hostprof/1 manifest in the older nine-phase layout.
    OLD_PHASES = ["event_drain", "fiber", "mem", "protocol", "net",
                  "trace", "audit", "rendezvous", "untracked"]

    def test_check_accepts_rendezvous_phase(self):
        manifest = {
            "schema": "wwtcmp.hostprof/1",
            "threads": 1,
            "phases": [{"name": n, "sec": 0.5, "ticks": 5, "share": 0.1,
                        "estimated": False} for n in self.OLD_PHASES],
        }
        with tempfile.TemporaryDirectory() as d:
            mp = os.path.join(d, "hostprof.json")
            with open(mp, "w") as f:
                json.dump(manifest, f)
            old_phases = bt.read_hostprof(mp)
            self.assertEqual(old_phases["rendezvous"], 0.5)
            traj = os.path.join(d, "traj.json")
            with open(traj, "w") as f:
                json.dump({"schema": 1,
                           "records": [record(old_phases, ns=100.0)]}, f)
            new_phases = {n: 0.5 for n in self.OLD_PHASES
                          if n != "rendezvous"}
            new_phases["fiber"] = 2.0
            cp = os.path.join(d, "cand.json")
            with open(cp, "w") as f:
                json.dump(record(new_phases, ns=200.0), f)
            out = subprocess.run(
                [sys.executable, TOOL, "check", "--trajectory", traj,
                 "--record", cp],
                capture_output=True, text=True)
            # The regression is reported with a phase breakdown, not a
            # crash on the phase only the baseline has.
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("Traceback", out.stderr)
            self.assertIn("top regressing host phase: fiber (+1.500 s)",
                          out.stdout)
            self.assertRegex(out.stdout, r"rendezvous\s+0\.500\s+0\.000")

if __name__ == "__main__":
    unittest.main()
