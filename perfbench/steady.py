#!/usr/bin/env python3
"""Steadiness mode: repeat workloads over seeds and check the spreads.

    python3 perfbench/steady.py run --out A.json [--workloads w1,w2]
                                    [--seeds 1-10] [--repeat N]
                                    [--seconds S] [--trace 0|1]
    python3 perfbench/steady.py compare A.json B.json

`run` invokes `perfbench/run.py` `--repeat` times (default 1) per
(workload, seed), prints each metric's median, quartiles and interquartile
spread as a share of the median, and saves every value to the output file.
`--seeds 1 --repeat 10` measures run-to-run noise alone on one seed;
`--seeds 1-10` mixes it with the variation between seeds' inputs. It
exits 1 if any end-to-end spread except `setup_s` exceeds the metric's
bound in `BENCHMARK.json`, or if any run was incorrect.

`compare` reads two such files (two sets of runs of the same code) and
exits 1 if, for any workload and end-to-end metric, the two medians differ
by more than the metric's bound (as a share of the first), in either
direction.

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summary(values):
    """(median, q1, q3, spread) with Python's exclusive quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def cmd_run(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    ok = True
    for w in workloads:
        results[w] = []
        for seed in [s for s in seeds for _ in range(args.repeat)]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{w} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            results[w].append({"seed": seed, "metrics": values})
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(values.items())),
                  flush=True)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n{'workload':<16} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w, runs in results.items():
        names = sorted({k for r in runs for k in r["metrics"]})
        for name in names:
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            med, q1, q3, spread = summary(values)
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  above a third of bound"
            print(f"{w:<16} {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args, spec):
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for w in first:
            a = [r["metrics"][name] for r in first[w] if name in r["metrics"]]
            b = [r["metrics"][name] for r in second.get(w, []) if name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = worse_by(metric, ma, mb)
            agree = abs(change) <= metric["bound"]
            status = "ok" if agree else "DIFFER BY MORE THAN BOUND"
            ok = ok and agree
            print(f"{w:<16} {name:<14} first {ma:>12.6g} second {mb:>12.6g} "
                  f"worse by {change:+.4f} (bound {metric['bound']}) {status}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out")
    r.add_argument("--workloads")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--repeat", type=int, default=1)
    r.add_argument("--seconds", type=float)
    r.add_argument("--trace", default="0", choices=["0", "1"])
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    spec = load_spec()
    return cmd_run(args, spec) if args.cmd == "run" else cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
