#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --all [--seed <n>] [--seconds <s>]

Workloads: timeline, learn, serve_zipf, serve_uniform (see
e2ebench/README.md). The script builds the release `hoiho-serve` binary
and the `hoiho-e2ebench` measuring program into $CARGO_TARGET_DIR
(default `.bench_build` at the repository root), runs the workload from
the repository root, and prints the program's output; the last line is
the JSON result. It exits nonzero when the build, a run or an output
check fails. `--all` runs every workload untraced and traced and
prints each metric as a `workload metric value unit` row.

With `--trace 1 --seed 0`, the work counts of the run (the metrics with
unit `count`) are compared with those recorded in e2ebench/counts.json
and every difference is printed; `--record-counts` rewrites that
workload's entry instead.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("timeline", "learn", "serve_zipf", "serve_uniform")
COUNTS = os.path.join(HERE, "counts.json")
RUN_TIMEOUT_S = 170


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "-q"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def run_program(cmd):
    """Runs the measuring program in its own process group, so a
    timeout also stops the server it started."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, process_group=0)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: no result within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def compare_counts(workload, metrics, record):
    counts = {k: int(v["value"]) for k, v in metrics.items() if v["unit"] == "count"}
    recorded = {}
    if os.path.exists(COUNTS):
        with open(COUNTS) as f:
            recorded = json.load(f)
    if record:
        recorded[workload] = counts
        with open(COUNTS, "w") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"run.py: recorded {len(counts)} counts for {workload}", file=sys.stderr)
        return
    want = recorded.get(workload, {})
    changed = sorted(k for k in set(want) | set(counts) if want.get(k) != counts.get(k))
    for k in changed:
        print(f"run.py: count {k}: recorded {want.get(k)}, now {counts.get(k)}", file=sys.stderr)
    if not changed:
        print(f"run.py: all {len(counts)} counts match e2ebench/counts.json", file=sys.stderr)


def run_workload(target, workload, seed, seconds, trace):
    """One run of the measuring program; returns its exit code, its
    standard output and the parsed result (None without one)."""
    work = os.path.join(target, "e2ebench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        code, out = run_program([
            os.path.join(target, "release", "hoiho-e2ebench"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--serve-bin", os.path.join(target, "release", "hoiho-serve"),
            "--work-dir", work,
        ])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    last = out.rstrip("\n").split("\n")[-1]
    return code, out, json.loads(last) if last.startswith("{") else None


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--record-counts", action="store_true")
    a = p.parse_args()
    if a.all == (a.workload is not None):
        sys.exit("run.py: give either --workload or --all")
    if a.seed < 0 or a.seconds < 1:
        sys.exit("run.py: --seed must be >= 0 and --seconds >= 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo_build(["-p", "hoiho-cluster", "--bin", "hoiho-serve"], env)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    if a.all:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, _, result = run_workload(target, workload, a.seed, a.seconds, trace)
                if result is None:
                    print(f"{workload}\tno result (exit {code})")
                    ok = False
                    continue
                ok = ok and code == 0 and result["correct"]
                print(f"{workload}\tcorrect={result['correct']}\tattempted={result['attempted']}\tfailed={result['failed']}")
                for name, m in result["metrics"].items():
                    print(f"{workload}\t{name}\t{m['value']}\t{m['unit']}")
        sys.exit(0 if ok else 1)

    code, out, result = run_workload(target, a.workload, a.seed, a.seconds, a.trace)
    if code != 0 or result is None:
        sys.stdout.write(out)
        sys.exit(code or 1)
    if a.trace == "1" and a.seed == 0:
        compare_counts(a.workload, result["metrics"], a.record_counts)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
