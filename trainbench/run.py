#!/usr/bin/env python3
"""Build and run the AvgPipe training benchmark.

Run from the root of the repository:

    python3 trainbench/run.py                      # every workload, with spread
    python3 trainbench/run.py --workload lstm_ckpt --seed 3 --seconds 25 --trace 0

With --workload it runs one workload once and its last stdout line is the
result JSON of the trainbench binary. Without it, it runs every workload
REPEATS times untraced (seeds seed, seed+1, ...) and once traced, and prints
each metric's median and quartiles. See trainbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "trainbench")
WORK = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD, "trainbench")
WORKLOADS = ["bert_compute", "mlp_overhead", "lstm_ckpt"]
RUN_TIMEOUT_S = 170
REPEATS = 3  # untraced runs per workload in the summary


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the Release binary; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("trainbench: repository sources (src/) not found next to trainbench/")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "-j4", "--target", "trainbench"]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("trainbench: build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """Git SHA when the tree is a git checkout, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "trainbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    return "git:%s src-sha256:%s" % (sha, digest.hexdigest()[:16])


def run_once(workload, seed, seconds, trace, echo):
    """Run the binary once; returns (exit code, result dict or None, stdout
    lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("trainbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None, []
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, lines


def summarize(seed, seconds):
    """Every workload: REPEATS untraced runs and one traced run."""
    merged = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        values = {}
        tried, lost = 0, 0
        for r in range(REPEATS):
            code, res, lines = run_once(workload, seed + r, seconds, 0, False)
            if res is None:
                log("trainbench: %s run %d produced no result" % (workload, r))
                return 1
            if r == 0:
                print("\n" + next((l for l in lines
                                   if l.startswith("fingerprint:")), ""))
            correct = correct and res["correct"] and code == 0
            tried += res["attempted"]
            lost += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        attempted += tried
        failed += lost
        print("== %s: %d untraced runs (seeds %d..%d), fail_ratio %.4g"
              % (workload, REPEATS, seed, seed + REPEATS - 1,
                 lost / max(1, tried)))
        print("%-22s %-10s %14s %14s %14s %9s" %
              ("metric", "unit", "median", "q1", "q3", "iqr/med"))
        for name, (unit, vals) in sorted(values.items()):
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med if med else 0.0
            print("%-22s %-10s %14.6g %14.6g %14.6g %9.4f" %
                  (name, unit, med, q[0], q[2], spread))
            merged[workload + "." + name] = {"value": med, "unit": unit}
        code, res, _ = run_once(workload, seed, seconds, 1, False)
        if res is None:
            log("trainbench: %s traced run produced no result" % workload)
            return 1
        correct = correct and res["correct"] and code == 0
        print("-- %s: per-layer metrics (traced run, seed %d)" % (workload, seed))
        for name, m in sorted(res["metrics"].items()):
            print("%-36s %-10s %16.6g" % (name, m["unit"], m["value"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not build():
        return 1
    if args.workload is None:
        return summarize(args.seed, args.seconds)
    code, result, _ = run_once(args.workload, args.seed, args.seconds,
                               args.trace, True)
    if result is None and code == 0:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
