#!/usr/bin/env python3
"""Steadiness check and bound derivation for the checked router benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--write]

Run from the repository root. Runs two interleaved sets of every workload in
BENCHMARK.json for its run_seconds (set A with seeds 1..runs, set B with
seeds 101..100+runs; each round runs A then B for every workload), end-to-end
mode only. For each set, workload and end-to-end metric it reports the median
and the quartile spread, (q3 - q1) / median, with
statistics.quantiles(values, n=4), and the share of failed operations, which
must be identical in every run.

A metric's derived bound is three times the largest spread seen for it on any
workload in either set, and at least 1.5 times the largest median shift
between the sets, rounded up to the next hundredth, at least 0.02. setup_s is
derived the same way and then raised to the largest bound of any metric,
since a later change's set-up median is compared against it. A derived bound
above 0.25 cannot be recorded: the metric is reported as unresolved, with the
workloads that push it there.

--write stores the derived bound of every resolved metric in BENCHMARK.json
and leaves the recorded bound of an unresolved one as it is. The exit code is
1 when any run fails its output checks, a failed share differs between runs,
a bound is unresolved, or a bound BENCHMARK.json records is below the derived
one.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys

MAX_BOUND = 0.25
MIN_BOUND = 0.02


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if not lines:
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}, "exit": p.returncode}
    result = json.loads(lines[-1])
    result["exit"] = p.returncode
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


def round_up(x):
    return math.ceil(x * 100 - 1e-9) / 100


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = {"A": 1, "B": 101}
    results = {s: {w: [] for w in workloads} for s in sets}
    ok = True
    for i in range(args.runs):
        for s, base in sets.items():
            for w in workloads:
                r = run_once(bench["command"], w, base + i, seconds)
                results[s][w].append(r)
                vals = " ".join(f"{m}={r['metrics'].get(m, {}).get('value', float('nan')):.6g}"
                                for m in metrics)
                print(f"[{s}{i}] {w:14s} correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']} {vals}", flush=True)
                if not r["correct"] or r["exit"] != 0:
                    ok = False

    derived = {m: MIN_BOUND for m in metrics}
    needs = {}  # (workload, metric) -> the bound that pair alone needs
    table = []
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for s in sets for r in results[s][w]}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for m in metrics:
            med = {}
            spr = {}
            for s in sets:
                vals = [r["metrics"][m]["value"] for r in results[s][w] if m in r["metrics"]]
                med[s] = statistics.median(vals)
                spr[s] = spread(vals)
            shift = (med["B"] - med["A"]) / med["A"] if med["A"] else math.inf
            need = max(3 * max(spr.values()), 1.5 * abs(shift))  # either set may be the later one
            needs[(w, m)] = need
            derived[m] = max(derived[m], need)
            table.append((w, m, med["A"], spr["A"], med["B"], spr["B"], shift, need))

    print(f"\n{'workload':14s} {'metric':12s} {'median A':>12s} {'spread A':>9s} "
          f"{'median B':>12s} {'spread B':>9s} {'B vs A':>8s} {'needs':>6s} {'bound':>6s}")
    for w, m, ma, sa, mb, sb, shift, need in table:
        flag = "  unresolved" if need > MAX_BOUND else ""
        print(f"{w:14s} {m:12s} {ma:12.6g} {sa:9.4f} {mb:12.6g} {sb:9.4f} {shift:+8.4f} "
              f"{need:6.3f} {bounds[m]:6.2f}{flag}")

    for m in metrics:
        derived[m] = max(MIN_BOUND, round_up(derived[m]))
    derived["setup_s"] = max(derived.values())
    unresolved = [m for m in metrics if derived[m] > MAX_BOUND]
    print("\nderived bounds: " + ", ".join(f"{m}={derived[m]:.2f}" for m in metrics))
    for m in unresolved:
        pairs = [w for w in workloads if needs[(w, m)] > MAX_BOUND]
        print(f"unresolved: {m} needs {derived[m]:.2f} > {MAX_BOUND}"
              + (f" on {', '.join(pairs)}" if pairs else " (raised to the largest bound)"))
        ok = False
    for m in metrics:
        if m not in unresolved and bounds[m] < derived[m]:
            print(f"BENCHMARK.json records {m} bound {bounds[m]:.2f} below the derived "
                  f"{derived[m]:.2f}")
            if not args.write:
                ok = False

    if args.write:
        for e in bench["end_to_end"]:
            if e["name"] not in unresolved:
                e["bound"] = derived[e["name"]]
        with open("BENCHMARK.json", "w") as f:
            json.dump(bench, f, indent=2)
            f.write("\n")
        print("resolved bounds written to BENCHMARK.json")
    print("steady" if ok else "NOT steady (see above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
