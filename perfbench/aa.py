#!/usr/bin/env python3
"""A/A check of the benchmark: spread of every end-to-end metric vs. its bound.

Runs each workload `--runs` times, each with another `--seed`, and reports
per metric the median and the interquartile range as a share of the median
(quartiles from `statistics.quantiles(values, n=4)`), next to the metric's
`bound` from BENCHMARK.json. With `--sets 2` it repeats the whole thing and
also reports how far the second set's median moved from the first, in the
metric's worse direction.

Run from the repository root:

    python3 perfbench/aa.py --runs 10 --sets 2
    python3 perfbench/aa.py --workloads routed-warm --runs 5

Seeds run 1, 2, ..., --runs. The summary, with every run's values (scaled
and unscaled), is written to `.bench_out/aa-summary.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    wall = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    # The table above the JSON line also gives each time metric unscaled.
    for line in lines[:-1]:
        cols = line.split()
        if len(cols) == 6 and cols[0] in result["metrics"] and cols[5] != "-":
            result["metrics"][cols[0]]["unscaled"] = float(cols[5])
    return result, wall


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (abs(q3 - q1) / abs(med) if med else 0.0)


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    summary = {}
    ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = 1 + r
                result, wall = run_once(cmd, w, seed, seconds, 0)
                runs.append(result["metrics"])
                print(f"{w} set {s} seed {seed}: {wall:.1f}s "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics), flush=True)
            sets.append(runs)
        print(f"\n{w}: {args.runs} runs x {args.sets} set(s)")
        print(f"  {'metric':<20} {'median':>14} {'spread':>8} {'bound':>6} {'bound/3':>8} {'moved':>8}")
        summary[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = [spread([run[name]["value"] for run in runs]) for runs in sets]
            moved = (worse_by(rows[0][0], rows[1][0], m["better"]) if len(rows) > 1 else 0.0)
            worst = max(sp for _, sp in rows)
            flag = ""
            if name != "setup_s" and worst > bound:
                flag, ok = "  SPREAD > BOUND", False
            elif name != "setup_s" and worst > bound / 3:
                flag = "  spread > bound/3"
            if moved > bound:
                flag, ok = flag + "  MOVED > BOUND", False
            print(f"  {name:<20} {rows[0][0]:>14.6g} {worst:>8.4f} {bound:>6.3f} "
                  f"{bound / 3:>8.4f} {moved:>8.4f}{flag}")
            raw = [[run[name]["unscaled"] for run in runs] for runs in sets
                   if all("unscaled" in run[name] for run in runs)]
            if raw:
                print(f"  {'  unscaled':<20} {spread(raw[0])[0]:>14.6g} "
                      f"{max(spread(r)[1] for r in raw):>8.4f}")
            summary[w][name] = {"unscaled": raw, "values": [[run[name]["value"] for run in runs] for runs in sets],
                                "medians": [r[0] for r in rows],
                                "spreads": [r[1] for r in rows],
                                "bound": bound, "moved": moved}
    os.makedirs(".bench_out", exist_ok=True)
    with open(".bench_out/aa-summary.json", "w") as f:
        json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
