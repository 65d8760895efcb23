#!/usr/bin/env python3
"""Repeated-run evidence for the benchmark (the tables in perfbench/RESULTS.md).

    python3 perfbench/steadiness.py --runs 10 --sets 2 --seconds 30 > report.md

1. Runs every workload --runs times per set, interleaved (one run of each
   workload per round, seed = round index + 1), for --sets sets. Reports each
   end-to-end metric's median, quartiles, sample count and spread (quartile
   distance / median) per set, and whether the later sets' medians stay within
   the metric's bound of the first set's (BENCHMARK.json).
2. Runs each workload with --trace 0 and --trace 1 on a held-out seed and
   shows every check passes there too, then prints the traced run's
   per-layer metrics.
3. Runs each workload's inputs once at --threads 1, 2 and 4 on the pinned
   seed and shows the simulated metrics and digests are identical.

Every run is a separate process of perfbench/run.py, as the benchmark's own
command. Takes about (sets * runs * 3 + 9) * (seconds + 5) seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
BINARY = HERE.parent / ".bench_build" / "perfbench" / "perfbench"


def run(workload, seed, seconds, trace, threads=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if threads:
        cmd += ["--threads", str(threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    med = statistics.median(xs)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(metric, first, later):
    """Share by which `later` is worse than `first` (negative: better)."""
    if not first:
        return 0.0
    change = (later - first) / first
    return -change if BOUNDS[metric]["better"] == "higher" else change


def steadiness(args):
    sets = []
    for s in range(args.sets):
        runs = {w: [] for w in WORKLOADS}
        for r in range(args.runs):
            for w in WORKLOADS:
                res = run(w, r + 1, args.seconds, 0)
                if not res["correct"]:
                    print(f"<!-- incorrect run: set {s + 1} {w} seed {r + 1} -->")
                runs[w].append(res)
        sets.append(runs)

    print(f"## Steadiness: {args.sets} sets x {args.runs} interleaved runs per workload, "
          f"--seconds {args.seconds}, seeds 1..{args.runs}\n")
    print("| workload | metric | bound | set | n | median | q1 | q3 | spread | "
          "worse than set 1 |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    ok = True
    for w in WORKLOADS:
        for metric, spec in BOUNDS.items():
            first = None
            for i, runs in enumerate(sets):
                xs = [r["metrics"][metric]["value"] for r in runs[w]]
                med, q1, q3, sp = spread(xs)
                first = med if first is None else first
                worse = worse_by(metric, first, med)
                if (metric != "setup_s" and sp > spec["bound"]) or worse > spec["bound"]:
                    ok = False
                print(f"| {w} | {metric} | {spec['bound']} | {i + 1} | {len(xs)} | {med:.6g} | "
                      f"{q1:.6g} | {q3:.6g} | {sp:.4f} | "
                      f"{'' if i == 0 else f'{worse:+.4f}'} |")
    fails = sum(r["failed"] for runs in sets for rs in runs.values() for r in rs)
    attempted = sum(r["attempted"] for runs in sets for rs in runs.values() for r in rs)
    print(f"\nChecks: {fails} failed of {attempted} attempted. "
          f"Every spread and median shift within bounds: {'yes' if ok else 'NO'}.\n")


def binary_reps(workload, seed, threads):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", "0.001",
           "--trace", "0", "--threads", str(threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines() if '"kind": "rep"' in line]


def determinism(args):
    sim_keys = ("input", "digest", "offered", "pcm_writes", "programmed_bits",
                "flips_per_write", "compressed_fraction", "faults_at_death", "deaths")

    def sim_view(workload, threads):
        reps = binary_reps(workload, 42, threads)
        return [{k: r[k] for k in sim_keys} for r in reps if not r["warmup"]]

    print("## Determinism across thread counts (seed 42, one rep of each input)\n")
    print("| workload | threads | inputs | digest of input 0 | offered (input 0) | identical |")
    print("|---|---|---|---|---|---|")
    for w in WORKLOADS:
        own = sim_view(w, 0)
        for t in (1, 2, 4):
            view = sim_view(w, t)
            print(f"| {w} | {t} | {len(view)} | {view[0]['digest']} | {view[0]['offered']} | "
                  f"{'yes' if view == own else 'NO'} |")
    print()


def held_out(args):
    print(f"## Held-out seed {args.held_out_seed}\n")
    print("| workload | trace | correct | attempted | failed |")
    print("|---|---|---|---|---|")
    traced = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            res = run(w, args.held_out_seed, args.seconds, trace)
            print(f"| {w} | {trace} | {res['correct']} | {res['attempted']} | {res['failed']} |")
            if trace:
                traced[w] = res["metrics"]
    print(f"\n## Per-layer metrics, traced run, seed {args.held_out_seed}\n")
    names = list(next(iter(traced.values())))
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for n in names:
        unit = traced[WORKLOADS[0]][n]["unit"]
        vals = " | ".join(f"{traced[w][n]['value']:.6g}" for w in WORKLOADS)
        print(f"| {n} | {unit} | {vals} |")
    print()


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--held-out-seed", type=int, default=20261017)
    p.add_argument("--skip-steadiness", action="store_true")
    args = p.parse_args()
    if not args.skip_steadiness:
        steadiness(args)
    held_out(args)  # builds the binary through run.py before determinism() calls it
    determinism(args)


if __name__ == "__main__":
    main()
