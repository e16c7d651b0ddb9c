#!/usr/bin/env python3
"""Repeatability tool for the perfbench benchmark.

Collect a set of untraced runs (one JSON line per run, tagged with its
workload and seed), then look at one set's spread or compare two sets
metric by metric against the bounds in BENCHMARK.json:

    python3 perfbench/compare.py collect --out A.jsonl \\
        [--workloads analytics,oltp,short_text] [--seeds 1-10]
    python3 perfbench/compare.py spread A.jsonl
    python3 perfbench/compare.py diff A.jsonl B.jsonl

`spread` prints, per workload and end-to-end metric, the median and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound; a spread
above a third of the bound is flagged, and one above the bound makes
the exit code 1. `diff` treats A as the baseline and B as the
candidate. For each workload and metric it prints one of:

  ok          B's median is no worse than A's by more than the bound (or,
              where a spread is wider than the bound, every run of B
              beats every run of A)
  worse       B's median is worse than A's by more than the bound
  unresolved  the spread of A or B is wider than the bound and not every
              run of B beats every run of A, so the sets cannot tell
  missing     one set has no runs of this workload or metric

Runs that failed their output checks are listed and make the exit code 1,
as does any metric that is worse or unresolved.
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


def collect(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: run failed "
                          f"(exit {proc.returncode})", file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), file=sys.stderr)


def load_runs(path):
    """workload -> list of run results."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def bad_runs(runs):
    return [f"{w} seed {r['seed']}: correct={r['result']['correct']} "
            f"failed={r['result']['failed']}"
            for w, rs in runs.items() for r in rs
            if not r["result"]["correct"] or r["result"]["failed"]]


def values(recs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in recs
            if metric in r["result"]["metrics"]]


def spread_of(vals):
    """(median, IQR / median); the IQR needs at least two values."""
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return med, float("inf")
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / abs(med)


def spread(args, spec):
    runs = load_runs(args.runs)
    status = 0
    for workload in sorted(runs):
        recs = runs[workload]
        print(f"{workload} ({len(recs)} runs)")
        for m in spec["end_to_end"]:
            vals = values(recs, m["name"])
            if not vals:
                print(f"  {m['name']:<18} missing")
                status = 1
                continue
            med, sp = spread_of(vals)
            flag = "" if sp < m["bound"] / 3 else "  <-- above bound/3"
            if sp > m["bound"]:
                flag = "  <-- above bound"
                status = 1
            print(f"  {m['name']:<18} median {med:<14.6g} spread {sp:7.2%}"
                  f"  bound {m['bound']:.0%}{flag}")
    for line in bad_runs(runs):
        print("failed run: " + line)
        status = 1
    return status


def diff(args, spec):
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    status = 0
    for workload in sorted(set(a_runs) | set(b_runs)):
        print(workload)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = values(a_runs.get(workload, []), name)
            b = values(b_runs.get(workload, []), name)
            if not a or not b:
                print(f"  {name:<18} missing")
                status = 1
                continue
            (ma, sa), (mb, sb) = spread_of(a), spread_of(b)
            higher = m["better"] == "higher"
            worse_by = (ma - mb) / ma if higher else (mb - ma) / ma
            all_better = (min(b) > max(a)) if higher else (max(b) < min(a))
            if max(sa, sb) > bound:
                verdict = "ok" if all_better else "unresolved"
            else:
                verdict = "worse" if worse_by > bound else "ok"
            if verdict != "ok":
                status = 1
            print(f"  {name:<18} A {ma:<12.6g} B {mb:<12.6g} "
                  f"change {-worse_by:+7.2%} (bound {bound:.0%}) "
                  f"spread A {sa:6.2%} B {sb:6.2%}  {verdict}")
    for line in bad_runs(a_runs) + bad_runs(b_runs):
        print("failed run: " + line)
        status = 1
    return status


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark, append results")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread", help="spread of one set of runs")
    s.add_argument("runs")
    d = sub.add_parser("diff", help="compare set B against baseline set A")
    d.add_argument("a")
    d.add_argument("b")
    args = ap.parse_args()
    if args.cmd == "collect":
        collect(args, spec)
        return 0
    return spread(args, spec) if args.cmd == "spread" else diff(args, spec)


if __name__ == "__main__":
    sys.exit(main())
