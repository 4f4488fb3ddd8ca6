#!/usr/bin/env python3
"""Repository benchmark: where does wwtcmp's own host time go?

One command runs one workload, checks every simulated result against
an oracle, and prints metrics by name and unit. The last line of
standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

    python3 perfbench/run.py --workload em3d-sm --seed 42 --seconds 30 --trace 0

Workloads (README.md in this directory says why each was chosen):

  em3d-sm         EM3D, 32 procs, on the shared-memory machine
  em3d-mp         the same graph and seed on the message-passing machine
  campaign-sweep  an 80-scenario grid through the wwtcmp_campaign CLI:
                  cold run, warm cached re-run, report, static dashboard

--trace 0 prints the end-to-end metrics; --trace 1 runs the same loop
with the host profiler on for its last simulation (or campaign cycle)
and prints the per-layer metrics instead. Spans around every call the
benchmark makes are kept in memory and written to
.bench_build/perfbench-work/<run>/spans.json when the run ends.

The first run in a checkout builds the EM3D program (em3d_bench.cc) and
the simulator's libraries with CMake into .bench_build/perfbench. A
checkout without the simulator's sources fails the build and exits 1
without a result.

--record-refs re-records the reference statistics in perfbench/refs/
(run it only on a commit whose simulated results are known good).
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
REFS = HERE / "refs"

WORKLOADS = ("em3d-sm", "em3d-mp", "campaign-sweep")
DEFAULT_SEED = 42
HELD_OUT_SEED = 7

# EM3D: the paper's graph shape (degree 10, 20% remote, span 1) on the
# paper's 32-processor machine, at half the paper's 1000 nodes/proc and
# half its 256 KB cache, so the graph outgrows the modelled cache as
# much (SM hit ratio 0.90 either way) while one simulation takes about
# 4 s (SM) and 2 s (MP) and a run holds seven or more of them.
EM3D = {
    "em3d-sm": {"machine": "sm", "procs": 32, "nodes": 500, "iters": 10,
                "cache_kb": 128},
    "em3d-mp": {"machine": "mp", "procs": 32, "nodes": 500, "iters": 10,
                "cache_kb": 128},
}
# Set-up is timed as the first machine a fresh process builds, this
# many times before every simulation so the samples spread over the
# whole run, and reported as the median.
SETUP_PROBES = 7

# Campaign grid: all five apps x both machines x procs x cache_kb x
# net_gap, at the smoke-profile sizes of bench/campaigns/paper_tables.json.
CAMPAIGN_APPS = {
    "mse": {"size": 16, "iters": 3},
    "gauss": {"size": 64},
    "em3d": {"size": 64, "iters": 4},
    "lcp": {"size": 128},
    "alcp": {"size": 128},
}
CAMPAIGN_PROCS = (4, 8)
CAMPAIGN_CACHE_KB = (64, 256)
CAMPAIGN_NET_GAP = (0, 8)
CAMPAIGN_JOBS = 2
# `wwtcmp_campaign list` probes before every campaign cycle.
LIST_PROBES = 3

# Repetitions (simulations or campaign cycles) a run makes at least.
MIN_REPS = 3
# Children still running this long after a run started are killed, and
# the run fails, so a hung child cannot hold the run past 180 s.
RUN_LIMIT_S = 160

END_TO_END = {
    "sim_mcycles_per_s": "Mcycles/s",
    "scenarios_per_s": "scenarios/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.event_drain_s": "s",
    "sim.ns_per_event": "ns",
    "sim.fiber_s": "s",
    "sim.fiber_share": "fraction",
    "mem.accesses": "count",
    "mem.misses": "count",
    "mem.tlb_misses": "count",
    "mem.hit_ratio": "fraction",
    "mem.mem_s": "s",
    "mem.ns_per_access": "ns",
    "sm.proto_msgs": "count",
    "sm.invals_sent": "count",
    "sm.write_faults": "count",
    "sm.lock_acquires": "count",
    "sm.protocol_s": "s",
    "sm.ns_per_proto_msg": "ns",
    "mp.packets_sent": "count",
    "mp.active_msgs": "count",
    "mp.channel_writes": "count",
    "mp.fiber_ns_per_packet": "ns",
    "net.bytes_data": "bytes",
    "net.bytes_ctrl": "bytes",
    "net.barriers": "count",
    "net.net_s": "s",
    "audit.report_s": "s",
    "prof.coverage": "fraction",
    "prof.overhead_frac": "fraction",
    "prof.explained_frac": "fraction",
    "exp.child_execs": "count",
    "exp.retries": "count",
    "exp.child_wall_s": "s",
    "exp.child_wall_p50_s": "s",
    "exp.child_wall_p90_s": "s",
    "exp.runner_cpu_s": "s",
    "exp.runner_overhead_s": "s",
    "exp.report_s": "s",
    "svc.warm_rerun_s": "s",
    "svc.cache_hit_ratio": "fraction",
    "svc.warm_child_execs": "count",
    "svc.ring_reclaims": "count",
    "svc.dashboard_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run (build failure, missing binary)."""


# ---------------------------------------------------------------------
# Spans and processes
# ---------------------------------------------------------------------

class Spans:
    """In-memory span list: name, start, end, parent (time.monotonic)."""

    def __init__(self):
        self.items = []

    def add(self, name, start, end, parent=None, **attrs):
        sid = len(self.items)
        self.items.append(dict(id=sid, name=name, start=start, end=end,
                               parent=parent, **attrs))
        return sid

    def open(self, name, parent=None):
        return self.add(name, time.monotonic(), None, parent)

    def close(self, sid):
        self.items[sid]["end"] = time.monotonic()

    def write(self, path):
        path.write_text(json.dumps({"schema": "perfbench.spans/1",
                                    "clock": "CLOCK_MONOTONIC seconds",
                                    "spans": self.items}, indent=1))


class Proc:
    """A finished child: exit code, wall time and wait4() rusage."""

    def __init__(self, rc, start, end, rusage, stdout, stderr):
        self.rc = rc
        self.start = start
        self.end = end
        self.wall = end - start
        # wait4() reports the child plus the descendants it reaped.
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.maxrss_kb = rusage.ru_maxrss
        self.stdout = stdout
        self.stderr = stderr


# time.monotonic() at which spawned children are killed (None: never).
deadline = None


def spawn(cmd, log_prefix):
    """Run @cmd to completion; stdout/stderr go to <log_prefix>.out/.err.

    The child leads its own process group; at the run's deadline the
    whole group, campaign children included, is killed."""
    out_path = Path(str(log_prefix) + ".out")
    err_path = Path(str(log_prefix) + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        p = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err,
                             cwd=ROOT, start_new_session=True)

        def kill():
            try:
                os.killpg(p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = None
        if deadline is not None:
            killer = threading.Timer(max(0.0, deadline - start), kill)
            killer.start()
        try:
            _, status, rusage = os.wait4(p.pid, 0)
        finally:
            if killer:
                killer.cancel()
        end = time.monotonic()
        p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, start, end, rusage,
                out_path.read_text(errors="replace"),
                err_path.read_text(errors="replace"))


def fresh_dir(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------

def build():
    """Configure (once) and build em3d_bench and wwtcmp_campaign."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            rc = subprocess.call([str(c) for c in cmd], stdout=f,
                                 stderr=subprocess.STDOUT, cwd=ROOT)
            if rc != 0:
                if cmd[1] == "-S":
                    # A failed configure must not leave a cache that
                    # makes the next run skip configuring.
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                tail = log.read_text(errors="replace")[-3000:]
                raise BenchError("build failed (%s):\n%s"
                                 % (" ".join(map(str, cmd)), tail))
    return {"em3d": BUILD / "em3d_bench",
            "campaign": BUILD / "wwtcmp" / "exp" / "wwtcmp_campaign"}


# ---------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def p90(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def load_hostprof(path):
    """wwtcmp.hostprof/1 manifest -> ({phase: sec}, {phase: ticks})."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "wwtcmp.hostprof/1":
        raise ValueError("%s: not a wwtcmp.hostprof/1 manifest" % path)
    sec = {p["name"]: p["sec"] for p in doc["phases"]}
    ticks = {p["name"]: p["ticks"] for p in doc["phases"]}
    return sec, ticks


def load_metrics_run(path):
    """The single run of a wwtcmp.metrics/2 manifest (a MachineReport)."""
    doc = json.loads(Path(path).read_text())
    if not str(doc.get("schema", "")).startswith("wwtcmp.metrics/"):
        raise ValueError("%s: not a wwtcmp.metrics manifest" % path)
    if len(doc["runs"]) != 1:
        raise ValueError("%s: expected one run" % path)
    return doc["runs"][0]


def layer_metrics(counts, events, phase_sec, phase_ticks, span_s):
    """Per-layer metrics of the simulator's modules.

    counts      summed MachineReport counts (metrics manifest keys)
    events      events executed by the engine
    phase_sec   host-profiler seconds per phase
    phase_ticks host-profiler ticks per phase (for coverage)
    span_s      benchmark-timed seconds the profile should explain
    """
    c = lambda k: counts.get(k, 0)
    s = lambda k: phase_sec.get(k, 0.0)
    accesses = c("priv_accesses") + c("shared_accesses")
    misses = c("priv_misses") + c("shared_miss_local") + c("shared_miss_remote")
    total_ticks = sum(phase_ticks.values())
    named_s = sum(v for k, v in phase_sec.items() if k != "untracked")
    return {
        "sim.events": events,
        "sim.event_drain_s": s("event_drain"),
        "sim.ns_per_event": ratio(s("event_drain") * 1e9, events),
        "sim.fiber_s": s("fiber"),
        "sim.fiber_share": ratio(phase_ticks.get("fiber", 0), total_ticks),
        "mem.accesses": accesses,
        "mem.misses": misses,
        "mem.tlb_misses": c("tlb_misses"),
        "mem.hit_ratio": ratio(accesses - misses, accesses),
        "mem.mem_s": s("mem"),
        "mem.ns_per_access": ratio(s("mem") * 1e9, accesses),
        "sm.proto_msgs": c("proto_msgs"),
        "sm.invals_sent": c("invals_sent"),
        "sm.write_faults": c("write_faults"),
        "sm.lock_acquires": c("lock_acquires"),
        "sm.protocol_s": s("protocol"),
        "sm.ns_per_proto_msg": ratio(s("protocol") * 1e9, c("proto_msgs")),
        "mp.packets_sent": c("packets_sent"),
        "mp.active_msgs": c("active_msgs"),
        "mp.channel_writes": c("channel_writes"),
        "mp.fiber_ns_per_packet": ratio(s("fiber") * 1e9, c("packets_sent")),
        "net.bytes_data": c("bytes_data"),
        "net.bytes_ctrl": c("bytes_ctrl"),
        "net.barriers": c("barriers"),
        "net.net_s": s("net"),
        "prof.coverage": ratio(total_ticks - phase_ticks.get("untracked", 0),
                               total_ticks),
        "prof.explained_frac": ratio(named_s, span_s),
    }


# Layers only the campaign workload exercises.
CAMPAIGN_LAYERS = ("exp.", "svc.")


def idle_campaign_layers():
    """exp/svc metrics of a workload that does not use those layers."""
    return {k: 0 for k in PER_LAYER if k.startswith(CAMPAIGN_LAYERS)}


def result(attempted, failed, values, names):
    metrics = {}
    for name in names:
        unit = END_TO_END.get(name) or PER_LAYER[name]
        metrics[name] = {"value": values[name], "unit": unit}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def min_reps(seconds, trace):
    """Repetitions a run makes at least; a traced run needs an untraced one."""
    return max(MIN_REPS if seconds > 0 else 1, 2 if trace else 1)


def repeat(t_start, seconds, least, trace, body):
    """Call body(k, traced) while the next call is predicted, from the last
    call's duration, to end within @seconds of @t_start; at least @least
    times. With @trace, the call after which no other would fit runs
    traced and is the last one. Returns the bodies' results."""
    out, last = [], 0.0
    for k in range(10000):
        elapsed = time.monotonic() - t_start
        room = k < least or elapsed + last <= seconds
        room_after = k + 1 < least or elapsed + 2 * last <= seconds
        traced = trace and not room_after
        if not room and not traced:
            break
        t0 = time.monotonic()
        out.append(body(k, traced))
        last = time.monotonic() - t0
        if traced:
            break
    return out


# ---------------------------------------------------------------------
# EM3D workloads
# ---------------------------------------------------------------------

def em3d_ref_path(refs, cfg, seed):
    return Path(refs) / ("em3d-%s-p%d-n%d-i%d-c%d-s%d.json" % (
        cfg["machine"], cfg["procs"], cfg["nodes"], cfg["iters"],
        cfg["cache_kb"], seed))


def em3d_cmd(bins, cfg, seed, out):
    """em3d_bench command line of one simulation of @cfg."""
    return [bins["em3d"], "--machine", cfg["machine"], "--out", out,
            "--seed", seed, "--iters", cfg["iters"], "--procs", cfg["procs"],
            "--nodes", cfg["nodes"], "--cache-kb", cfg["cache_kb"]]


def run_em3d(bins, cfg, seed, seconds, trace, work, spans, refs=REFS,
             perturb=False, notes=None):
    """One em3d-* run. Returns (attempted, failed, end_to_end, per_layer)."""
    notes = notes if notes is not None else []
    machine = cfg["machine"]
    root = spans.open("run em3d-" + machine)
    t_start = time.monotonic()

    setup = []

    def one_sim(k, traced):
        out = fresh_dir(work / ("sim-%d" % k))
        # Set-up: the first construction in a fresh process.
        for i in range(SETUP_PROBES):
            p = spawn([bins["em3d"], "--machine", machine, "--setup-only",
                       "--procs", cfg["procs"], "--cache-kb", cfg["cache_kb"]],
                      out / ("setup-%d" % i))
            if p.rc != 0:
                raise BenchError("setup probe failed: " + p.stderr[-2000:])
            probe = json.loads(p.stdout)
            spans.add("setup-probe", p.start, p.end, root, cpu=probe["cpu_s"])
            setup.append(probe["cpu_s"])
        cmd = em3d_cmd(bins, cfg, seed, out)
        if traced:
            cmd.append("--host-prof")
        if perturb:
            cmd.append("--perturb")
        p = spawn(cmd, out / "em3d_bench")
        sid = spans.add("sim", p.start, p.end, root, index=k, traced=traced)
        try:
            sim = json.loads(p.stdout)
        except ValueError:
            sim = {"ok": False, "spans": [],
                   "error": "em3d_bench exited %d: %s" % (p.rc, p.stderr[-2000:])}
        times, cpu = {}, {}
        for sp in sim["spans"]:
            spans.add(sp["name"], sp["start"], sp["end"], sid, cpu=sp["cpu"])
            times[sp["name"]] = sp["end"] - sp["start"]
            cpu[sp["name"]] = sp["cpu"]
        return {"traced": traced, "ok": p.rc == 0 and sim["ok"],
                "error": sim["error"], "dir": out, "times": times,
                "cpu": cpu, "maxrss_kb": p.maxrss_kb}

    sims = repeat(t_start, seconds, min_reps(seconds, trace), trace, one_sim)
    spans.close(root)

    # Oracle: em3d_bench's own checks (audits, host sweep), then every
    # simulation's statistics against the first one's and, when this seed
    # has them, against the recorded reference.
    ref_path = em3d_ref_path(refs, cfg, seed)
    ref = (json.loads(ref_path.read_text())["run"] if ref_path.exists()
           else None)
    first = None
    failed = 0
    for k, s in enumerate(sims):
        why = s["error"]
        if s["ok"]:
            stats = load_metrics_run(s["dir"] / "metrics.json")
            first = first or stats
            if stats != first:
                why = "statistics differ from the first simulation"
            elif ref is not None and stats != ref:
                why = "statistics differ from " + ref_path.name
        if why:
            failed += 1
            notes.append("simulation %d: %s" % (k, why))
    if first is None:
        return len(sims), failed, None, None

    # End-to-end times are the simulating process's CPU seconds: the
    # simulator is single-threaded, and CPU time leaves out the waits
    # for a core that a shared host adds to wall time.
    ok_plain = [s for s in sims if s["ok"] and not s["traced"]]
    plain = [s["times"] for s in ok_plain]
    plain_cpu = [s["cpu"] for s in ok_plain]
    cycles = first["elapsed_cycles"]
    setup += [s["cpu"]["setup"] for s in sims if "setup" in s["cpu"]]
    e2e = {
        "sim_mcycles_per_s": median([cycles / 1e6 /
                                     (t["simulate"] + t["report"])
                                     for t in plain_cpu]),
        "scenarios_per_s": median([1.0 / (t["setup"] + t["simulate"] +
                                          t["report"]) for t in plain_cpu]),
        "setup_s": median(setup),
        "peak_rss_mb": max(s["maxrss_kb"] for s in sims) / 1024.0,
    }
    notes.append("%d untraced simulation(s) of %d cycles; %d set-up samples"
                 % (len(plain), cycles, len(setup)))

    layers = None
    traced = [s for s in sims if s["traced"] and s["ok"]]
    if trace and traced and plain:
        tr = traced[0]
        sec, ticks = load_hostprof(tr["dir"] / "hostprof.json")
        layers = layer_metrics(first["totals"]["counts"],
                               first["events_executed"], sec, ticks,
                               tr["times"]["simulate"])
        layers["prof.overhead_frac"] = ratio(
            tr["times"]["simulate"],
            median([t["simulate"] for t in plain])) - 1
        layers["audit.report_s"] = median([t["report"] for t in plain])
        layers.update(idle_campaign_layers())
    elif trace:
        return len(sims), max(failed, 1), None, None
    return len(sims), failed, e2e, layers


# ---------------------------------------------------------------------
# Campaign workload
# ---------------------------------------------------------------------

def campaign_scenarios():
    """The campaign grid in canonical order (ids are config-derived)."""
    out = []
    for app, sizes in CAMPAIGN_APPS.items():
        for machine in ("mp", "sm"):
            for procs in CAMPAIGN_PROCS:
                for kb in CAMPAIGN_CACHE_KB:
                    for gap in CAMPAIGN_NET_GAP:
                        s = {"id": "%s-%s-p%d-c%d-g%d"
                                   % (app, machine, procs, kb, gap),
                             "app": app, "machine": machine, "procs": procs,
                             "cache_kb": kb, "net_gap": gap}
                        s.update(sizes)
                        out.append(s)
    return out


def make_campaign(seed):
    """Campaign document for @seed: the grid in a seed-permuted order."""
    scenarios = campaign_scenarios()
    random.Random(seed).shuffle(scenarios)
    return {
        "schema": "wwtcmp.campaign/1",
        "name": "perfbench-sweep",
        "comment": "Generated by perfbench/run.py; the seed only permutes "
                   "scenario order.",
        "defaults": {"timeout_sec": 60, "retries": 2},
        "scenarios": scenarios,
    }


SUMMARY = re.compile(r"(\d+) executed, (\d+) cached, (\d+) skipped, "
                     r"(\d+) failure\(s\); (\d+) child exec\(s\), "
                     r"(\d+) ring reclaim\(s\)")


def parse_summary(stdout):
    """Counts from the runner's summary line ('campaign X: N executed, ...')."""
    m = SUMMARY.search(stdout)
    if not m:
        raise BenchError("no campaign summary line in runner output")
    keys = ("executed", "cached", "skipped", "failures", "child_execs",
            "ring_reclaims")
    return dict(zip(keys, map(int, m.groups())))


def load_records(store):
    path = store / "results.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


SIM_FIELDS = ("scenario", "config_hash", "status", "elapsed_cycles",
              "total_cycles_per_proc", "cycles_per_proc", "counts",
              "shape_violations")


def record_digest(rec, store):
    """sha256 over a record's simulated fields and its metrics manifest."""
    h = hashlib.sha256()
    h.update(json.dumps({k: rec.get(k) for k in SIM_FIELDS},
                        sort_keys=True).encode())
    h.update((store / rec["metrics"]).read_bytes())
    return h.hexdigest()


def digest_table(records, store):
    return {r["scenario"]: {"config_hash": r["config_hash"],
                            "digest": record_digest(r, store)}
            for r in records}


def campaign_cycle(bins, campaign_path, n, work, spans, parent, ref_table,
                   traced, notes):
    """Cold run, warm cached re-run, report, dashboard. Returns a dict."""
    exe = bins["campaign"]
    cyc = spans.open("cycle", parent)
    cold, warm = work / "cold", work / "warm"

    cmd = [exe, "run", campaign_path, "--dir", cold,
           "--jobs", CAMPAIGN_JOBS]
    if traced:
        cmd.append("--host-prof")
    pc = spawn(cmd, work / "cold-run")
    spans.add("cold-run", pc.start, pc.end, cyc, traced=traced, cpu=pc.cpu)
    pw = spawn([exe, "run", campaign_path, "--dir", warm,
                "--jobs", CAMPAIGN_JOBS, "--cache", cold], work / "warm-run")
    spans.add("warm-rerun", pw.start, pw.end, cyc)
    pr = spawn([exe, "report", cold, "--format", "json"], work / "report")
    spans.add("report", pr.start, pr.end, cyc)
    ps = spawn([exe, "serve", cold, "--out", work / "dashboard"],
               work / "serve")
    spans.add("serve", ps.start, ps.end, cyc)
    spans.close(cyc)

    # Oracle, per scenario.
    bad = set()
    records = {r["scenario"]: r for r in load_records(cold)}
    if pc.rc != 0:
        notes.append("cold run exited %d: %s" % (pc.rc, pc.stderr[-1500:]))
    for sid in (s["id"] for s in campaign_scenarios()):
        rec = records.get(sid)
        if rec is None or rec["status"] != "pass":
            bad.add(sid)
            notes.append("%s: %s" % (sid, "missing" if rec is None
                                     else "status " + rec["status"]))
        elif ref_table is not None:
            want = ref_table.get(sid)
            got = {"config_hash": rec["config_hash"],
                   "digest": record_digest(rec, cold)}
            if want != got:
                bad.add(sid)
                notes.append("%s: simulated results differ from the "
                             "reference digest" % sid)
    warm_recs = {r["scenario"]: r for r in load_records(warm)}
    wsum = parse_summary(pw.stdout) if pw.rc == 0 else None
    if wsum is None or wsum["child_execs"] != 0:
        notes.append("warm re-run executed children or failed")
        bad.update(records)
    for sid, rec in records.items():
        w = warm_recs.get(sid)
        if (w is None or not w.get("cached") or
                any(w.get(k) != rec.get(k) for k in SIM_FIELDS)):
            bad.add(sid)
            notes.append("%s: not adopted verbatim by the warm re-run" % sid)
    try:
        reported = json.loads(pr.stdout)["summary"]["scenarios"]
    except (ValueError, KeyError):
        reported = None
    if pr.rc != 0 or reported != n or ps.rc != 0 or \
            not (work / "dashboard" / "index.html").exists():
        notes.append("report or dashboard failed")
        bad.update(records)

    recs = list(records.values())
    executed = [r for r in recs if not r.get("cached")]
    walls = [r["wall_sec"] for r in executed]
    child_cpu = sum(r["user_sec"] + r["sys_sec"] for r in executed)
    csum = parse_summary(pc.stdout) if pc.rc == 0 else {}
    out = {
        "n": n,
        "failed": len(bad),
        "cold_s": pc.wall,
        "cold_cpu_s": pc.cpu,
        "sim_mcycles": sum(r["elapsed_cycles"] for r in recs) / 1e6,
        "peak_rss_kb": max([pc.maxrss_kb] +
                           [r["max_rss_kb"] for r in recs]),
        "exp.child_execs": csum.get("child_execs", 0),
        "exp.retries": sum(max(0, r["attempts"] - 1) for r in executed),
        "exp.child_wall_s": sum(walls),
        "exp.child_wall_p50_s": median(walls),
        "exp.child_wall_p90_s": p90(walls),
        "exp.runner_cpu_s": pc.cpu - child_cpu,
        "exp.runner_overhead_s": pc.wall - sum(walls) / CAMPAIGN_JOBS,
        "exp.report_s": pr.wall,
        "svc.warm_rerun_s": pw.wall,
        "svc.cache_hit_ratio": ratio(sum(1 for r in warm_recs.values()
                                         if r.get("cached")), n),
        "svc.warm_child_execs": wsum["child_execs"] if wsum else -1,
        "svc.ring_reclaims": csum.get("ring_reclaims", 0),
        "svc.dashboard_s": ps.wall,
    }
    if traced:
        out["layers"] = campaign_layers(recs, cold)
    return out


def campaign_layers(records, store):
    """sim/mem/sm/mp/net layers summed over every child of a traced run."""
    counts, events = {}, 0
    phase_sec, phase_ticks = {}, {}
    for r in records:
        run = load_metrics_run(store / r["metrics"])
        events += run["events_executed"]
        for k, v in run["totals"]["counts"].items():
            counts[k] = counts.get(k, 0) + v
        sec, ticks = load_hostprof(store / "hostprof" / (r["scenario"] + ".json"))
        for k in sec:
            phase_sec[k] = phase_sec.get(k, 0.0) + sec[k]
            phase_ticks[k] = phase_ticks.get(k, 0) + ticks[k]
    child_wall = sum(r["wall_sec"] for r in records)
    layers = layer_metrics(counts, events, phase_sec, phase_ticks, child_wall)
    layers["audit.report_s"] = phase_sec.get("audit", 0.0)
    return layers


def run_campaign(bins, seed, seconds, trace, work, spans, refs=REFS,
                 notes=None):
    notes = notes if notes is not None else []
    root = spans.open("run campaign-sweep")
    t_start = time.monotonic()
    campaign_path = work / "campaign.json"
    campaign_path.write_text(json.dumps(make_campaign(seed), indent=1))
    n = len(campaign_scenarios())
    ref_path = Path(refs) / "campaign-sweep.json"
    ref_table = (json.loads(ref_path.read_text())["scenarios"]
                 if ref_path.exists() else None)

    setup = []

    def one_cycle(k, traced):
        # Keep one cycle's store on disk at a time.
        if k:
            shutil.rmtree(work / ("c%d" % (k - 1)), ignore_errors=True)
        cwork = fresh_dir(work / ("c%d" % k))
        # Set-up: runner start-up plus campaign load and grid expansion.
        for i in range(LIST_PROBES):
            p = spawn([bins["campaign"], "list", campaign_path],
                      cwork / ("list-%d" % i))
            if p.rc != 0:
                raise BenchError("wwtcmp_campaign list failed: " + p.stderr)
            spans.add("setup-list", p.start, p.end, root, cpu=p.cpu)
            setup.append(p.cpu)
        c = campaign_cycle(bins, campaign_path, n, cwork, spans, root,
                           ref_table, traced, notes)
        c["traced"] = traced
        return c

    cycles = repeat(t_start, seconds, min_reps(seconds, trace), trace,
                    one_cycle)
    spans.close(root)

    plain = [c for c in cycles if not c["traced"]]
    attempted = n * len(cycles)
    failed = sum(c["failed"] for c in cycles)
    # Per CPU second of the cold run, runner and children together:
    # what bounds throughput when the host's cores are all busy. Its
    # wall time at --jobs 2 also counts waits for a core.
    e2e = {
        "sim_mcycles_per_s": median([c["sim_mcycles"] / c["cold_cpu_s"]
                                     for c in plain]),
        "scenarios_per_s": median([n / c["cold_cpu_s"] for c in plain]),
        "setup_s": median(setup),
        "peak_rss_mb": max(c["peak_rss_kb"] for c in cycles) / 1024.0,
    }
    notes.append("%d untraced cycle(s) of %d scenarios; list probes: %d"
                 % (len(plain), n, len(setup)))
    layers = None
    if trace:
        tr = cycles[-1]
        layers = dict(tr["layers"])
        layers["prof.overhead_frac"] = ratio(
            tr["cold_s"], median([c["cold_s"] for c in plain])) - 1
        layers.update({k: median([c[k] for c in plain])
                       for k in PER_LAYER if k.startswith(CAMPAIGN_LAYERS)})
    return attempted, failed, e2e, layers


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, refs=REFS, perturb=False,
                 em3d_cfg=None, bins=None):
    """Build if needed, run one workload; returns (result dict, notes)."""
    global deadline
    bins = bins or build()
    deadline = time.monotonic() + RUN_LIMIT_S
    work = fresh_dir(WORK / ("%s-t%d" % (workload, int(trace))))
    spans, notes = Spans(), []
    try:
        if workload == "campaign-sweep":
            att, failed, e2e, layers = run_campaign(
                bins, seed, seconds, trace, work, spans, refs, notes)
        else:
            att, failed, e2e, layers = run_em3d(
                bins, em3d_cfg or EM3D[workload], seed, seconds, trace, work,
                spans, refs, perturb, notes)
    finally:
        spans.write(work / "spans.json")
    if e2e is None:
        return {"correct": False, "attempted": att, "failed": failed,
                "metrics": {}}, notes
    if trace:
        return result(att, failed, layers, PER_LAYER), notes
    return result(att, failed, e2e, END_TO_END), notes


def record_refs():
    """Record EM3D statistics and the campaign digest table."""
    bins = build()
    REFS.mkdir(exist_ok=True)
    for workload, cfg in EM3D.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            work = fresh_dir(WORK / "record" / ("%s-%d" % (workload, seed)))
            p = spawn(em3d_cmd(bins, cfg, seed, work), work / "em3d_bench")
            if p.rc != 0 or not json.loads(p.stdout)["ok"]:
                raise BenchError("oracle failed while recording " + workload)
            doc = {"workload": workload, "seed": seed, **cfg,
                   "run": load_metrics_run(work / "metrics.json")}
            em3d_ref_path(REFS, cfg, seed).write_text(
                json.dumps(doc, sort_keys=True) + "\n")
    tables = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        work = fresh_dir(WORK / "record" / ("campaign-%d" % seed))
        path = work / "campaign.json"
        path.write_text(json.dumps(make_campaign(seed)))
        p = spawn([bins["campaign"], "run", path, "--dir", work / "store",
                   "--jobs", CAMPAIGN_JOBS], work / "run")
        recs = load_records(work / "store")
        if p.rc != 0 or len(recs) != len(campaign_scenarios()) or \
                any(r["status"] != "pass" for r in recs):
            raise BenchError("campaign failed while recording")
        tables.append(digest_table(recs, work / "store"))
    if tables[0] != tables[1]:
        raise BenchError("campaign digests depend on the seed")
    (REFS / "campaign-sweep.json").write_text(json.dumps(
        {"seeds": [DEFAULT_SEED, HELD_OUT_SEED], "scenarios": tables[0]},
        indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-refs", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_refs:
            record_refs()
            print("references written to %s" % REFS)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        res, notes = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for note in notes:
        print("note: " + note)
    print("perfbench %s seed=%d trace=%d: %d attempted, %d failed "
          "(failed_frac %.4g)" % (args.workload, args.seed, args.trace,
                                  res["attempted"], res["failed"],
                                  ratio(res["failed"], res["attempted"])))
    for name, m in res["metrics"].items():
        print("  %-24s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
