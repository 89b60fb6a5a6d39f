#!/usr/bin/env python3
"""Builds the benchmark harness and runs it.

    python3 perfbench/run.py --workload fig5-cycle --seed 42 --seconds 36 --trace 0

prints the metrics of one run as a JSON object on the last line of stdout.
Two further modes serve the benchmark's maintainers:

    python3 perfbench/run.py --steady [--seed 42] [--seconds 36]
        runs each workload on ten seeds from --seed on and prints each
        end-to-end metric's median, quartiles and spread against the bounds
        in BENCHMARK.json, naming every metric whose spread exceeds its
        bound;
    python3 perfbench/run.py --write-reference
        rewrites perfbench/reference.txt, the artifact digests at seed 42.

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); scratch files go to a directory inside it.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig5-cycle", "farm-small", "farm-large"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# Seeds per workload in --steady mode: the ten runs the bounds were set on.
STEADY_SEEDS = 10


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def run_group(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    env_target = target_dir()
    os.environ["CARGO_TARGET_DIR"] = env_target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo reports on stderr; nothing of the build reaches stdout.
    code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        raise SystemExit(f"perfbench: build failed with exit code {code}")
    return os.path.join(env_target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """One benchmark run; returns its result object."""
    work_dir = os.path.join(target_dir(), "perfbench-work")
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", work_dir]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    text = out.decode()
    if code != 0:
        raise SystemExit(f"perfbench: run exited with code {code}")
    lines = [l for l in text.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or "metrics" not in result:
        raise SystemExit("perfbench: the run printed no result")
    if echo:
        sys.stdout.write("\n".join(lines) + "\n")
    return result


def steady(binary, args):
    """Runs each workload on STEADY_SEEDS seeds and reports spreads."""
    bounds, workloads = {}, WORKLOADS
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        workloads = [w["name"] for w in spec["workloads"]]
    seeds = [args.seed + i for i in range(STEADY_SEEDS)]
    header = {"nproc": os.cpu_count(), "workers": 1, "seeds": seeds,
              "seconds": args.seconds, "commit": git_commit()}
    print(json.dumps({"perfbench_steady": header}))
    over = []
    for w in workloads:
        runs = []
        for s in seeds:
            t0 = time.time()
            r = run_once(binary, w, s, args.seconds, 0, echo=False)
            runs.append(r)
            print(f"# {w} seed {s}: correct={r['correct']} in {time.time() - t0:.0f}s",
                  file=sys.stderr)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  EXCEEDS BOUND"
                over.append(f"{w}/{name}")
            elif bound is not None and spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"{w:11s} {name:18s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.4f} bound {bound}{flag}")
        if not all(r["correct"] for r in runs):
            over.append(f"{w}/correct")
    print("spread within bounds" if not over else "over bound: " + ", ".join(over))
    return 1 if over else 0


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()

    try:
        binary = build()
        if args.write_reference:
            code, _ = run_group([binary, "reference", "--out",
                                 os.path.join(HERE, "reference.txt")], RUN_TIMEOUT_S)
            return code
        if args.steady:
            return steady(binary, args)
        if not args.workload:
            p.error("--workload is required")
        run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {' '.join(e.cmd)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
