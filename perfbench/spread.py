#!/usr/bin/env python3
"""Run the benchmark repeatedly and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads noc-sweep,cmp-apps,serve-eval \
        --seeds 1-10 [--heldout 11] [--trace 0] [--out perfbench/baseline.json]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the
inter-quartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. A held-out seed is run once more and reported
on its own. With --out the summary, the raw values and the host facts of
the runs are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    host = next((l[len("host: "):] for l in lines if l.startswith("host: ")), "")
    result["wall_s"] = wall
    return result, host


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="noc-sweep,cmp-apps,serve-eval")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--heldout", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "heldout_seed": args.heldout, "trace": args.trace,
               "run_seconds": spec["run_seconds"], "hosts": [], "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, host = run_once(spec, wl, seed, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{wl} seed {seed}: {result['failed']} failed operations")
            runs.append(result)
            if host not in summary["hosts"]:
                summary["hosts"].append(host)
            print(f"{wl} seed {seed}: attempted={result['attempted']} wall={result['wall_s']:.1f}s",
                  file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        entry = {"metrics": metrics}
        if args.heldout is not None:
            held, _ = run_once(spec, wl, args.heldout, args.trace)
            entry["heldout"] = {n: m["value"] for n, m in held["metrics"].items()}
        summary["workloads"][wl] = entry
        print(f"== {wl}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if m["spread"] < bound / 3 else ("WITHIN BOUND" if m["spread"] < bound else "TOO WIDE")
            held = f" heldout={entry['heldout'][name]:.6g}" if "heldout" in entry else ""
            print(f"  {name:40s} median={m['median']:.6g} q1={m['q1']:.6g} q3={m['q3']:.6g} "
                  f"spread={m['spread']:.4f} bound={bound} {flag}{held}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
