#!/usr/bin/env python3
"""Build and run the avdb benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The benchmark program
(perfbench/main.ml) is built with dune into the directory named by
CARGO_TARGET_DIR (default .bench_build), then run with the same arguments.
Its last line of standard output is the JSON result. Run records and the
traced run's spans are written under .perfbench_out/.

--self-test checks the benchmark's own gate: a run under a seeded defect
(Mutation.Lossy_sync on scm-delay, Mutation.Epoch_drop_intent on
faults-oracle) must report a failed run and print no metric; the same runs
without the defect must pass; and two processes given one seed must agree
on every exact metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
RUN_TIMEOUT_S = 170
# Metrics that repeat exactly for one seed (the rest are wall-clock or
# depend on the garbage collector's heap growth).
EXACT = ["applied_ratio", "latency_mean_ms", "latency_p999_ms", "msgs_per_update",
         "bytes_per_update", "corr_per_update"]


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "--display", "quiet", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    if done.returncode != 0 or not os.path.isfile(exe):
        sys.exit("perfbench: build failed")
    return exe


def commit_id():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(exe, args):
    """Runs the benchmark program; returns (exit code, stdout lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [exe, *args, "--host-nproc", str(len(os.sched_getaffinity(0))),
           "--commit", commit_id(), "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run timed out")
    return proc.returncode, out.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def self_test(exe):
    problems = []
    base = ["--seed", "1", "--seconds", "1", "--trace", "0"]
    for workload, mutation in [("scm-delay", "lossy-sync"),
                               ("faults-oracle", "epoch-drop-intent")]:
        code, lines = run(exe, ["--workload", workload, *base, "--mutation", mutation])
        res = result_of(lines)
        failed_at = next((i for i, l in enumerate(lines) if l.startswith("FAILED")), None)
        reason = lines[failed_at + 1].strip() if failed_at is not None else ""
        if code == 0 or res is None or res["correct"] or res["metrics"]:
            problems.append(f"{workload} under {mutation} was not reported as a failed run")
        else:
            print(f"ok: {workload} under {mutation} fails: {reason}")
        code, lines = run(exe, ["--workload", workload, *base])
        res = result_of(lines)
        if code != 0 or res is None or not res["correct"]:
            problems.append(f"{workload} without a mutation did not pass")
        else:
            print(f"ok: {workload} without a mutation passes")
    first = result_of(run(exe, ["--workload", "scm-delay", "--seed", "7", "--seconds", "1",
                                "--trace", "0"])[1])
    second = result_of(run(exe, ["--workload", "scm-delay", "--seed", "7", "--seconds", "1",
                                 "--trace", "0"])[1])
    if first is None or second is None:
        problems.append("determinism runs printed no result")
    else:
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{name} differs between two processes of one seed: {a} vs {b}")
        if not any(p.startswith(tuple(EXACT)) for p in problems):
            print("ok: two processes of one seed agree on " + ", ".join(EXACT))
    for p in problems:
        print("FAIL: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    exe = build()
    if args.self_test:
        sys.exit(self_test(exe))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, lines = run(exe, ["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)])
    for line in lines:
        print(line)
    record = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.txt")
    with open(record, "w") as f:
        f.write("\n".join(lines) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
