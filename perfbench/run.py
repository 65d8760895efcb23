#!/usr/bin/env python3
"""Repository benchmark: build the binary, run one workload, print its metrics.

    python3 perfbench/run.py --workload aged_milc --seed 42 --seconds 30 --trace 0

Builds perfbench/ (which compiles the simulator from ../src) into
.bench_build/perfbench, runs the binary for --seconds of host time, checks
every simulation run it made, and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. Build and binary diagnostics go to standard error. The exit code
is non-zero, with no result line, when the benchmark cannot build or run.
--threads overrides the workload's fixed thread count, for the determinism
check in perfbench/steadiness.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("aged_milc", "multitenant_fresh", "tiered_gcc")
BINARY_TIMEOUT_S = 170

# Digests of the simulated results at the default seed, one per input index.
# A run on this seed must reproduce them exactly; a speed-only change leaves
# them unchanged.
DEFAULT_SEED = 42
PINNED = json.loads((HERE / "pins.json").read_text())

STAGES = ("place", "compress", "program", "heuristic", "gap_move")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {BINARY_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if not records or records[-1]["kind"] != "end":
        fail("perfbench output is incomplete")
    return records


def rep_checks(workload, rep):
    """Accounting identities every simulated run must satisfy, on any seed."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    if workload == "multitenant_fresh":
        need(rep["offered"] == rep["budget"], "engine stopped before its event budget")
        need(rep["shard_events"] == rep["offered"], "shard events != dispatched events")
        need(rep["pcm_writes"] == rep["offered"], "PCM writes != dispatched events (no tier)")
        need(rep["tenant_writes"] == rep["offered"], "tenant writes != dispatched events")
        # writes = stored + dropped + absorbed + tier-resident; no tier here.
        need(rep["tenant_accounted"] == rep["tenant_writes"],
             "tenant writes != stored + dropped + absorbed")
        need(rep["lines_dead"] == 0 and rep["tenants_failed"] == 0,
             "a line died in the fresh-memory workload")
        if rep["traced"]:
            need(rep["trace.events"] == rep["offered"], "traced events != dispatched events")
            need(rep["prof.gap_move.calls"] == rep["gap_moves"],
                 "gap-move stage calls != Start-Gap moves")
    else:
        need(rep["reached_failure"] == 1, "run ended before 50% of lines died")
        if rep["tier"]:
            t = {k[5:]: v for k, v in rep.items() if k.startswith("tier.")}
            need(t["offered"] == rep["offered"], "tier offered != offered write-backs")
            need(t["offered"] == t["hits"] + t["silent_drops"] + t["inserts"],
                 "tier offered != hits + silent_drops + inserts")
            need(t["absorbed"] == t["hits"] + t["silent_drops"], "tier absorbed != hits + drops")
            need(t["evictions"] == rep["pcm_writes"], "tier evictions != PCM writes")
        else:
            need(rep["pcm_writes"] == rep["offered"], "PCM writes != offered write-backs")
        if rep["traced"]:
            need(rep["trace.events"] >= rep["offered"], "source produced fewer events than used")
    return problems


def check(args, records):
    """Returns (attempted, failed) over every simulation perfbench ran."""
    runs = [r for r in records if r["kind"] != "end"]
    pinned = PINNED[args.workload] if args.seed == DEFAULT_SEED else None
    digests = {}
    counts = None
    failed = 0
    for run in runs:
        if run["kind"] != "rep":
            problems = [] if run["offered"] == run["cap"] else [f"{run['kind']} run miscounted"]
        else:
            problems = rep_checks(args.workload, run)
            i = run["input"]
            if digests.setdefault(i, run["digest"]) != run["digest"]:
                problems.append(f"digest of input {i} differs between runs")
            if pinned is not None and run["digest"] != pinned[i]:
                problems.append(f"digest of input {i} {run['digest']} != pinned {pinned[i]}")
            if run["traced"]:
                calls = {k: v for k, v in run.items() if k.endswith(".calls")}
                counts = counts or calls
                if calls != counts:
                    problems.append("stage call counts differ between traced runs")
        if problems:
            failed += 1
            print("perfbench: check failed: " + "; ".join(problems), file=sys.stderr)
    return len(runs), failed


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed(records):
    """Set-up samples and reps after the warm-up, which is checked but left
    out of every host-time figure."""
    return [r for r in records if r["kind"] in ("setup", "rep") and not r["warmup"]]


def writes_per_s(rep):
    """Offered write-backs per second the machine actually ran: the run's wall
    time less the share the hypervisor stole from the machine's vCPUs."""
    return rep["offered"] / (rep["run_s"] * (1 - rep["steal_frac"]))


def end_to_end(args, records):
    recs = timed(records)
    reps = [r for r in recs if r["kind"] == "rep" and not r["traced"]]
    setups = [r["setup_s"] for r in recs if r["kind"] == "setup"] + [r["setup_s"] for r in reps]
    end = records[-1]
    # Simulated metrics: the mean over the run's inputs, one rep of each.
    per_input = [next(r for r in reps if r["input"] == i) for i in sorted({r["input"] for r in reps})]
    if args.workload == "multitenant_fresh":
        latency = [r["latency_cycles"] for r in per_input]  # PCM bank controllers
    elif per_input[0]["tier"]:
        latency = [r["tier.latency_cycles"] for r in per_input]  # DRAM tier controller
    else:
        latency = [end["pcm_write_service_cycles"]]  # no controller: unloaded PCM write
    return {
        "writes_per_s": metric(median([writes_per_s(r) for r in reps]), "1/s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(end["peak_rss_mb"], "MiB"),
        # Fresh memory never reaches failure: its value is the fixed budget survived.
        "sim_lifetime_writes": metric(statistics.fmean(r["offered"] for r in per_input),
                                      "writes"),
        "sim_flips_per_write": metric(statistics.fmean(r["flips_per_write"] for r in per_input),
                                      "bits"),
        "sim_write_latency_cycles": metric(statistics.fmean(latency), "cycles"),
    }


def per_layer(args, records):
    recs = timed(records)
    traced = [r for r in recs if r["kind"] == "rep" and r["traced"]]
    plain = [r for r in recs if r["kind"] == "rep" and not r["traced"]]
    setups = [r for r in recs if r["kind"] == "setup"] + plain
    last = traced[-1]
    engine = args.workload == "multitenant_fresh"
    tier = last["tier"] == 1
    m = {}
    for stage in STAGES:
        m[f"{stage}.ticks_per_call"] = metric(median(
            [ratio(r[f"prof.{stage}.ticks"], r[f"prof.{stage}.calls"]) for r in traced]), "ticks")
        m[f"{stage}.calls"] = metric(last[f"prof.{stage}.calls"], "count")
    m["trace.ns_per_event"] = metric(median(
        [ratio(r["trace.busy_s"] * 1e9, r["trace.events"]) for r in traced]), "ns")
    m["trace.busy_s"] = metric(median([r["trace.busy_s"] for r in traced]), "s")
    m["trace.events"] = metric(last["trace.events"], "count")
    m["engine.run_s"] = metric(median([r["engine.run_s"] for r in traced]) if engine else 0, "s")
    m["engine.dispatch_busy_frac"] = metric(median(
        [ratio(r["trace.busy_s"], r["engine.run_s"]) for r in traced]) if engine else 0, "frac")
    m["engine.epochs"] = metric(last["epochs"] if engine else 0, "count")
    m["engine.shard_util_max"] = metric(last["shard_util_max"] if engine else 0, "frac")
    m["tier.ticks_per_put"] = metric(median(
        [ratio(r["prof.tier_filter.ticks"], r["prof.tier_filter.calls"]) for r in traced]),
        "ticks")
    m["tier.puts"] = metric(last["prof.tier_filter.calls"], "count")
    m["tier.offered"] = metric(last["tier.offered"] if tier else 0, "count")
    m["tier.absorbed"] = metric(last["tier.absorbed"] if tier else 0, "count")
    m["tier.absorbed_ratio"] = metric(
        ratio(last["tier.absorbed"], last["tier.offered"]) if tier else 0, "frac")
    m["tier.evictions"] = metric(last["tier.evictions"] if tier else 0, "count")
    m["setup.array_s"] = metric(median([r["array_s"] for r in setups]), "s")
    m["setup.trace_s"] = metric(median([r["trace_s"] for r in setups]), "s")
    m["setup.wall_s"] = metric(median([r["setup_wall_s"] for r in setups]), "s")
    # A single-stream rep's fault count includes its run; its set-up samples do not.
    faults = [r["faults"] for r in recs if r["kind"] == "setup"] or [r["faults"] for r in plain]
    m["setup.minor_faults"] = metric(median(faults), "count")
    m["core.compressed_fraction"] = metric(last["compressed_fraction"], "frac")
    # LifetimeResult carries no slide or gap-move counts; the stage profiler
    # counts gap moves exactly, and slides are only visible on the engine.
    m["core.window_slides"] = metric(last["window_slides"] if engine else 0, "count")
    m["wear.gap_moves"] = metric(
        last["gap_moves"] if engine else last["prof.gap_move.calls"], "count")
    m["ecc.faults_at_death"] = metric(last["faults_at_death"], "faults")
    m["ecc.deaths"] = metric(last["deaths"], "count")
    m["host.steal_frac"] = metric(median([r["steal_frac"] for r in plain]), "frac")
    m["host.writes_per_wall_s"] = metric(
        median([r["offered"] / r["run_s"] for r in plain]), "1/s")
    wps_traced = median([writes_per_s(r) for r in traced])
    wps_plain = median([writes_per_s(r) for r in plain])
    m["tracing.writes_per_s_traced"] = metric(wps_traced, "1/s")
    m["tracing.writes_per_s_untraced"] = metric(wps_plain, "1/s")
    m["tracing.overhead_frac"] = metric(1 - ratio(wps_traced, wps_plain), "frac")
    return m


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--threads", type=int, default=0)
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    records = run_binary(args)
    attempted, failed = check(args, records)
    metrics = per_layer(args, records) if args.trace else end_to_end(args, records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
