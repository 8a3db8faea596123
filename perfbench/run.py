#!/usr/bin/env python3
"""Repository benchmark: build the ReNoC library and the renoc_perfbench
binary from source, run one workload, check its results, and print one
JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # the benchmark's own test
    python3 perfbench/run.py --workload NAME --seed N --record [--smoke]

Run from the root of a checkout. The build lands in .bench_build/ there.
The last stdout line is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1 (a per-layer metric the workload does not exercise
reads 0). Every simulated result is checked against the digest recorded in
perfbench/expected.json for that workload and seed, when one is recorded.
The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "renoc_perfbench"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("period_stream", "ber_curve", "thermal_refine", "noc_load")
# Environment knobs that switch the library onto non-default code paths;
# two commits are only comparable on the same paths.
FORBIDDEN_KNOBS = ("RENOC_SIMD_TIER", "RENOC_DENSE_SOLVE")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ReNoC sources at {ROOT} (expected CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed: {' '.join(cmd)} (see {log})", 1)


def run_binary(workload, seed, seconds, trace, smoke):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        spans = ROOT / ".bench_build" / "traces"
        spans.mkdir(parents=True, exist_ok=True)
        mode = "smoke" if smoke else "full"
        cmd += ["--spans", str(spans / f"{workload}-{mode}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    if proc.returncode:
        fail(f"{workload} exited with {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def within_golden_tolerance(got, want):
    """The golden-diff rule for reals: max(1e-6, 5e-4 * |golden|)."""
    return abs(got - want) <= max(1e-6, 5e-4 * abs(want))


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def check_expected(rec, mode):
    """Adds the recorded-digest checks to the record's check counts."""
    want = (load_expected().get(mode, {}).get(rec["workload"], {})
            .get(str(rec["seed"])))
    if want is None:
        print(f"digest {rec['digest']} (no recorded value for seed "
              f"{rec['seed']})")
        return
    checks = [
        (rec["digest"] == want["digest"],
         f"digest {rec['digest']} matches recorded {want['digest']}"),
        (len(rec["reals"]) == len(want["reals"]) and all(
            within_golden_tolerance(g, w)
            for g, w in zip(rec["reals"], want["reals"])),
         "simulated reals match the recorded values within golden tolerance"),
    ]
    for ok, what in checks:
        rec["attempted"] += 1
        if not ok:
            rec["failed"] += 1
            rec["failures"].append(what)
    print(f"digest {rec['digest']} recorded {want['digest']}")


def record(rec, mode):
    data = load_expected()
    data.setdefault(mode, {}).setdefault(rec["workload"], {})[
        str(rec["seed"])] = {"digest": rec["digest"], "reals": rec["reals"]}
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {mode} {rec['workload']} seed {rec['seed']}: "
          f"{rec['digest']}")


def measure(workload, seed, seconds, trace, smoke, compare=True):
    """Runs one workload and returns (binary's record, result line)."""
    rec = run_binary(workload, seed, seconds, trace, smoke)
    prov = rec["provenance"]
    if prov["build_type"] != "Release":
        fail(f"refusing to report a {prov['build_type']} build")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if compare:
        check_expected(rec, "smoke" if smoke else "full")
    bench = load_benchmark()
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = rec["metrics"].get(m["name"])
        metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                              "unit": m["unit"]}
    for f in rec["failures"]:
        print(f"FAILED: {f}")
    print(f"failed_frac {rec['failed'] / rec['attempted']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} checks)")
    line = {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}
    return rec, line


def smoke_test():
    """Every workload at tiny size in both modes: every check and recorded
    digest must hold, every workload must print every end-to-end metric,
    and the traced runs together every per-layer metric, with its unit."""
    bench = load_benchmark()
    ok = True
    per_layer_seen = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            rec, line = measure(workload, 1, 1, trace, True)
            printed = {n: m["unit"] for n, m in rec["metrics"].items()}
            if trace:
                per_layer_seen.update(printed)
            else:
                ok &= report_missing(workload, bench["end_to_end"], printed)
            ok &= line["correct"]
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if line['correct'] else 'FAILED'}")
    ok &= report_missing("traced runs", bench["per_layer"], per_layer_seen)
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def report_missing(who, wanted, printed):
    missing = [f"{m['name']} [{m['unit']}]" for m in wanted
               if printed.get(m["name"]) != m["unit"]]
    if missing:
        print(f"smoke {who}: not printed with its unit: {', '.join(missing)}")
    return not missing


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; without --workload, run the self-test")
    ap.add_argument("--record", action="store_true",
                    help="record this run's digest as the expected value")
    args = ap.parse_args()
    if args.workload is None and not args.smoke:
        ap.error("--workload is required")

    set_knobs = [k for k in FORBIDDEN_KNOBS if k in os.environ]
    if set_knobs:
        fail(f"refusing to run with {', '.join(set_knobs)} set")
    build()
    if args.workload is None:
        return smoke_test()
    rec, line = measure(args.workload, args.seed, args.seconds, args.trace,
                        args.smoke, compare=not args.record)
    if args.record:
        record(rec, "smoke" if args.smoke else "full")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
