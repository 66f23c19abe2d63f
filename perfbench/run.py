#!/usr/bin/env python3
"""End-to-end simulator benchmark: build, run one workload, check.

Builds perfbench/ (a CMake package that compiles the simulator
libraries from ../src), runs one workload, checks every cell's result
digest against perfbench/reference.json, and prints the metrics.

    python3 perfbench/run.py --workload q5_hits --seed 1 --seconds 10 --trace 0

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
The lines before it print the same metrics for people, plus fail_frac
and, for a traced run, where the Chrome trace JSON was written.

    python3 perfbench/run.py --record-reference 1-10

re-records the reference digests for seeds 1..10 after a change that
is meant to alter simulated results.
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
BINARY = BUILD / "perfbench"
REFERENCE = HERE / "reference.json"
WORKLOADS = ["q5_hits", "e3_misses", "q5_command", "campaign"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "sim" / "system.hh").is_file():
        fail("simulator sources not found under %s" % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench %s timed out" % " ".join(args))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench %s exited with %d" % (" ".join(args),
                                              done.returncode))
    return json.loads(lines[-1])


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def record_reference(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    ref = load_reference()
    for workload in WORKLOADS:
        for seed in seeds:
            out = run_binary(["--workload", workload, "--seed", str(seed),
                              "--seconds", "0"])
            if out["failed"]:
                fail("%s seed %d failed: %s" % (workload, seed,
                                                out["errors"]))
            ref.setdefault(workload, {})[str(seed)] = [
                c["digest"] for c in out["cells"]]
            print("recorded %s seed %d" % (workload, seed), file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-reference", metavar="FIRST-LAST")
    opts = ap.parse_args()

    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        fail("BENCHMARK.json not found at " + str(bench_json))
    spec = json.loads(bench_json.read_text())
    build()
    if opts.record_reference:
        record_reference(opts.record_reference)
        return
    if not opts.workload:
        fail("--workload is required")

    expected = load_reference().get(opts.workload, {}).get(str(opts.seed))
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    trace_path = None
    if opts.trace:
        trace_path = BUILD / "traces" / ("%s-seed%d.json" %
                                          (opts.workload, opts.seed))
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(trace_path)]
    out = run_binary(args)

    attempted = out["attempted"]
    failed = out["failed"]
    errors = list(out["errors"])
    if expected is not None:
        got = [c["digest"] for c in out["cells"]]
        bad = [c["label"] for c, want, have in
               zip(out["cells"], expected, got) if want != have]
        if len(got) != len(expected):
            bad.append("cell count %d, reference has %d" %
                       (len(got), len(expected)))
        if bad:
            errors.append("results differ from the reference: " +
                          ", ".join(bad))
        failed = min(attempted, failed + len(bad) * out["reps"])

    section = "per_layer" if opts.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    metrics = {n: out["metrics"][n] for n in names}

    print("workload %s seed %d: %d repetition(s), org replay checked, %s" % (
        opts.workload, opts.seed, out["reps"],
        "digests checked against the reference" if expected is not None
        else "no reference digests for this seed"))
    for c in out["cells"]:
        print("  cell %-24s %9d DRAM-cache accesses, %5.1f%% hits" % (
            c["label"], c["accesses"], 100 * c["hit_rate"]))
    for name, m in metrics.items():
        print("  %-30s %.6g %s" % (name, m["value"], m["unit"]))
    print("  %-30s %.6g ratio" % ("fail_frac", failed / attempted))
    if not opts.trace:
        print("  %-30s %.6g ratio (times above are host seconds x this)" %
              ("host_speed", out["metrics"]["host_speed"]["value"]))
    for e in errors:
        print("  error: " + e)
    if trace_path:
        print("  chrome trace: " + str(trace_path))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
