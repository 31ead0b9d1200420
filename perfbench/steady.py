#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two sets of every workload (each run with its own --seed), alternating
which set goes first, and prints for every end-to-end metric each set's
median, quartiles and spread ((q3 - q1) / median) against the metric's
bound in BENCHMARK.json, and how far the second median moved from the
first. Also checks that both sets fail the same share of operations.

    python3 perfbench/steady.py                      # 2 sets x 10 runs
    python3 perfbench/steady.py --traced             # one traced run each

Run it from the root of the repository. --out writes every run's result
as JSON, so the README's figures can be regenerated from it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Runs per set and workload; set A takes seeds first..first+RUNS-1, set B
# the next RUNS seeds.
RUNS = 10

def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1" if trace else "0",
    ]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    result["log"] = lines[:-1]
    return result


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true",
                    help="instead: one traced and one untraced run per workload")
    ap.add_argument("--out", help="write every run's result here as JSON")
    args = ap.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    results = {}

    if args.traced:
        for w in names:
            plain = run_once(bench, w, args.first_seed, False)
            traced = run_once(bench, w, args.first_seed, True)
            results[w] = {"untraced": plain, "traced": traced}
            print(f"\n{w} (seed {args.first_seed}): correct={traced['correct']} "
                  f"attempted={traced['attempted']} failed={traced['failed']}")
            for name, m in traced["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
            untraced = plain["metrics"]["plan_s_p50"]["value"]
            traced_p50 = traced["metrics"]["trace.plan_s_p50"]["value"]
            print(f"  plan_s_p50 traced / untraced: {traced_p50 / untraced:.4f}")
    else:
        for w in names:
            sets = [[], []]
            for i in range(RUNS):
                for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                    seed = args.first_seed + s * RUNS + i
                    r = run_once(bench, w, seed, False)
                    sets[s].append(r)
                    print(f"{w} set {'AB'[s]} seed {seed}: wall {r['wall_s']:.1f}s "
                          f"correct={r['correct']} {r['attempted']}/{r['failed']}",
                          file=sys.stderr)
            results[w] = sets

    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    if not args.traced and not report(bench, names, results):
        sys.exit(1)


def report(bench, names, results):
    ok = True
    for w in names:
        sets = results[w]
        print(f"\n{w}: {len(sets[0])} runs per set")
        shares = []
        for s, runs in enumerate(sets):
            if not all(r["correct"] for r in runs):
                print(f"  set {'AB'[s]}: INCORRECT output in some run")
                ok = False
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            per_run = {r["failed"] / r["attempted"] for r in runs}
            shares.append(per_run)
            print(f"  set {'AB'[s]}: failed {fail}/{att} operations, "
                  f"per-run shares {sorted(per_run)}; wall "
                  f"{max(r['wall_s'] for r in runs):.1f}s max")
        if shares[0] != shares[1]:
            print("  FAILED-SHARE MISMATCH between sets")
            ok = False
        print(f"  {'metric':12s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'spr/bnd':>7s}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                flag = ""
                if spread > bound / 3:
                    flag = " > bound/3" if spread <= bound else " > BOUND"
                    ok = ok and spread <= bound
                print(f"  {name:12s} {'AB'[s]:3s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound:6.3f} {spread / bound:7.3f}{flag}")
            wb = worse_by(meds[0], meds[1], m["better"])
            flag = "" if wb <= bound else "  WORSE THAN BOUND"
            ok = ok and wb <= bound
            print(f"  {name:12s} B vs A median: {wb:+.4f} worse (bound {bound}){flag}")
    print("\nSTEADY" if ok else "\nNOT STEADY")
    return ok


if __name__ == "__main__":
    main()
