"""Tests of the benchmark itself: input generation, the result oracle and
per-layer parsing of real simulator outputs.

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the benchmark (as run.py does). EM3D cases
use a 4-processor, 64-node graph so the suite takes seconds, not minutes.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

SMALL_SM = {"machine": "sm", "procs": 4, "nodes": 64, "iters": 4,
            "cache_kb": 256}
SMALL_MP = {"machine": "mp", "procs": 4, "nodes": 64, "iters": 4,
            "cache_kb": 256}
TEST_DIR = run.ROOT / ".bench_build" / "perfbench-tests"


def setUpModule():
    global BINS
    BINS = run.build()
    run.fresh_dir(TEST_DIR)


def em3d(cfg, seed=3, trace=False, refs=None, perturb=False):
    res, notes = run.run_workload("em3d-" + cfg["machine"], seed, 0, trace,
                                  refs=refs or TEST_DIR / "no-refs",
                                  perturb=perturb, em3d_cfg=cfg, bins=BINS)
    return res, notes


def values(res):
    return {k: m["value"] for k, m in res["metrics"].items()}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(run.make_campaign(5), run.make_campaign(5))

    def test_seeds_permute_the_same_grid(self):
        a = run.make_campaign(1)["scenarios"]
        b = run.make_campaign(2)["scenarios"]
        self.assertNotEqual([s["id"] for s in a], [s["id"] for s in b])
        key = lambda s: s["id"]
        self.assertEqual(sorted(a, key=key), sorted(b, key=key))

    def test_grid_covers_every_app_and_machine(self):
        scen = run.campaign_scenarios()
        self.assertEqual(len({s["id"] for s in scen}), len(scen))
        self.assertEqual({(s["app"], s["machine"]) for s in scen},
                         {(a, m) for a in run.CAMPAIGN_APPS
                          for m in ("mp", "sm")})


class Em3dOracleTest(unittest.TestCase):
    def test_unmodified_run_passes(self):
        res, notes = em3d(SMALL_SM)
        self.assertTrue(res["correct"], notes)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), set(run.END_TO_END))

    def test_perturbed_value_fails(self):
        res, notes = em3d(SMALL_MP, perturb=True)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"] / res["attempted"], 0)
        self.assertTrue(any("host sweep" in n for n in notes), notes)

    def test_reference_mismatch_fails(self):
        refs = run.fresh_dir(TEST_DIR / "em3d-refs")
        res, _ = em3d(SMALL_SM)
        work = run.WORK / "em3d-sm-t0" / "sim-0"
        stats = run.load_metrics_run(work / "metrics.json")
        path = run.em3d_ref_path(refs, SMALL_SM, 3)
        path.write_text(json.dumps({"run": stats}))
        res, notes = em3d(SMALL_SM, refs=refs)
        self.assertEqual(res["failed"], 0, notes)

        stats["totals"]["counts"]["proto_msgs"] += 1
        path.write_text(json.dumps({"run": stats}))
        res, notes = em3d(SMALL_SM, refs=refs)
        self.assertGreater(res["failed"], 0)
        self.assertTrue(any(path.name in n for n in notes), notes)


class CampaignOracleTest(unittest.TestCase):
    def test_recorded_digests_pass_and_a_tampered_one_fails(self):
        res, notes = run.run_workload("campaign-sweep", 11, 0, False,
                                      bins=BINS)
        self.assertEqual(res["failed"], 0, notes)

        refs = run.fresh_dir(TEST_DIR / "campaign-refs")
        doc = json.loads((run.REFS / "campaign-sweep.json").read_text())
        victim = sorted(doc["scenarios"])[0]
        doc["scenarios"][victim]["digest"] = "0" * 64
        (refs / "campaign-sweep.json").write_text(json.dumps(doc))
        res, notes = run.run_workload("campaign-sweep", 11, 0, False,
                                      refs=refs, bins=BINS)
        self.assertEqual(res["failed"], 1)
        self.assertFalse(res["correct"])
        self.assertTrue(any(victim in n for n in notes), notes)


class LayerParsingTest(unittest.TestCase):
    def check_complete(self, res):
        self.assertEqual(set(res["metrics"]), set(run.PER_LAYER))
        for name, m in res["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]), name)
            self.assertEqual(m["unit"], run.PER_LAYER[name])

    def test_em3d_sm_layers(self):
        res, notes = em3d(SMALL_SM, trace=True)
        self.assertTrue(res["correct"], notes)
        self.check_complete(res)
        v = values(res)
        self.assertGreater(v["sim.events"], 0)
        self.assertGreater(v["sm.proto_msgs"], 0)
        self.assertGreater(v["mem.accesses"], v["mem.misses"])
        self.assertEqual(v["mp.packets_sent"], 0)
        self.assertEqual(v["exp.child_execs"], 0)
        self.assertGreater(v["prof.coverage"], 0.9)
        self.assertGreater(v["prof.explained_frac"], 0.5)

    def test_em3d_mp_layers(self):
        res, notes = em3d(SMALL_MP, trace=True)
        self.check_complete(res)
        v = values(res)
        self.assertGreater(v["mp.packets_sent"], 0)
        self.assertGreater(v["mp.fiber_ns_per_packet"], 0)
        self.assertEqual(v["sm.proto_msgs"], 0)

    def test_campaign_layers(self):
        res, notes = run.run_workload("campaign-sweep", 12, 0, True,
                                      bins=BINS)
        self.assertTrue(res["correct"], notes)
        self.check_complete(res)
        v = values(res)
        n = len(run.campaign_scenarios())
        self.assertEqual(v["exp.child_execs"], n)
        self.assertEqual(v["svc.cache_hit_ratio"], 1.0)
        self.assertEqual(v["svc.warm_child_execs"], 0)
        self.assertGreater(v["sm.proto_msgs"], 0)
        self.assertGreater(v["mp.packets_sent"], 0)

    def test_layer_metrics_from_manifests(self):
        counts = {"priv_accesses": 90, "shared_accesses": 10,
                  "priv_misses": 5, "shared_miss_remote": 5,
                  "proto_msgs": 4, "packets_sent": 2}
        sec = {"fiber": 2.0, "mem": 0.5, "protocol": 0.4, "event_drain": 1.0}
        ticks = {"fiber": 60, "event_drain": 30, "untracked": 10}
        v = run.layer_metrics(counts, 10, sec, ticks, 4.0)
        self.assertAlmostEqual(v["mem.hit_ratio"], 0.9)
        self.assertAlmostEqual(v["sim.ns_per_event"], 1e8)
        self.assertAlmostEqual(v["sm.ns_per_proto_msg"], 1e8)
        self.assertAlmostEqual(v["prof.coverage"], 0.9)
        self.assertAlmostEqual(v["sim.fiber_share"], 0.6)
        self.assertAlmostEqual(v["prof.explained_frac"], 3.9 / 4.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         list(run.WORKLOADS))
        for key, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in doc[key]}, table)


class SpawnTest(unittest.TestCase):
    def test_children_past_the_deadline_are_killed(self):
        saved = run.deadline
        try:
            run.deadline = run.time.monotonic() + 0.3
            p = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                          TEST_DIR / "sleeper")
        finally:
            run.deadline = saved
        self.assertNotEqual(p.rc, 0)
        self.assertLess(p.wall, 10)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        bare = run.fresh_dir(TEST_DIR / "bare")
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "em3d-sm", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, capture_output=True,
                           text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
