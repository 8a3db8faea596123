#!/usr/bin/env python3
"""Compare the benchmark on two commits with paired, alternating runs.

    # run: N pairs per workload, alternating which side goes first
    python3 perfbench/compare.py run --parent DIR --change DIR \
        --out RESULTS_DIR [--pairs N]
    # report: verdict per end-to-end metric and workload
    python3 perfbench/compare.py report RESULTS_DIR

DIR is a checkout of each commit, each running its own perfbench/run.py;
a change that claims a gain leaves the benchmark untouched, so both sides
run the same benchmark code. Every workload of BENCHMARK.json runs for its
run_seconds, N >= 10 pairs each (default 10). Pair i uses seed i+1 on both
sides, so the pairs cover the default seed 1 and the held-out seed 2 as
well as others.

Verdicts, per workload and end-to-end metric (Kalibera & Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013, applied as a pairing rule):
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) exceeds the bound,
              unless every change run beats every parent run;
  unchanged   otherwise.
A failed run on either side fails the comparison (exit code 1), as does
a workload of BENCHMARK.json with fewer than 10 complete pairs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    line.update(workload=workload, seed=seed)
    return line


def cmd_run(args):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.pairs < MIN_PAIRS:
        sys.exit(f"compare: need at least {MIN_PAIRS} pairs, got {args.pairs}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    files = {s: open(out / f"{s}.jsonl", "a") for s in sides}
    for workload in (w["name"] for w in bench["workloads"]):
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                line = run_side(sides[side], workload, i + 1,
                                bench["run_seconds"])
                files[side].write(json.dumps(line) + "\n")
                files[side].flush()
                print(f"{workload} pair {i + 1} {side}: "
                      f"{'ok' if line['correct'] else 'FAILED'}")
    for f in files.values():
        f.close()
    return cmd_report(argparse.Namespace(results=args.out))


def verdict(parent, change, better, bound):
    """Classifies paired runs; returns (verdict, detail dict)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    iqr = p3 - p1
    spread = iqr / abs(pm) if pm else float("inf")
    delta = cm - pm
    detail = {"pairs": len(parent), "wins": wins, "parent_median": pm,
              "parent_q1": p1, "parent_q3": p3, "change_median": cm,
              "change_q1": c1, "change_q3": c3, "parent_spread": spread}
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if wins >= 0.9 * len(parent) and sign * delta > iqr:
        return "improved", detail
    if -sign * delta > bound * abs(pm):
        return "worse", detail
    if spread > bound and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def load(path):
    """Runs per workload, keyed by seed (a later run of a seed replaces it)."""
    runs = {}
    for text in Path(path).read_text().splitlines():
        line = json.loads(text)
        runs.setdefault(line["workload"], {})[line["seed"]] = line
    return runs


def cmd_report(args):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent = load(Path(args.results) / "parent.jsonl")
    change = load(Path(args.results) / "change.jsonl")
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        p_seeds = parent.get(workload, {})
        c_seeds = change.get(workload, {})
        failed = [s for runs in (p_seeds, c_seeds)
                  for s, r in runs.items() if not r["correct"]]
        if failed:
            ok = False
            print(f"{workload}: FAILED runs at seeds {sorted(set(failed))}")
            continue
        seeds = sorted(p_seeds.keys() & c_seeds.keys())
        if len(seeds) < MIN_PAIRS:
            ok = False
            print(f"{workload}: need {MIN_PAIRS} complete pairs, have "
                  f"{len(seeds)}")
            continue
        p_runs = [p_seeds[s] for s in seeds]
        c_runs = [c_seeds[s] for s in seeds]
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            v, d = verdict(pv, cv, m["better"], m["bound"])
            print(f"{workload:15s} {name:12s} {v:10s} parent "
                  f"{d['parent_median']:.6g} [{d['parent_q1']:.6g}, "
                  f"{d['parent_q3']:.6g}] change {d['change_median']:.6g} "
                  f"[{d['change_q1']:.6g}, {d['change_q3']:.6g}] "
                  f"{m['unit']}, wins {d['wins']}/{d['pairs']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="alternate paired runs, then report")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    rep = sub.add_parser("report", help="verdicts from a results directory")
    rep.add_argument("results")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
