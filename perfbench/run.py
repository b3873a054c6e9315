#!/usr/bin/env python3
"""The repository benchmark: build perfbench from this checkout and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

NAME is one of stencil_fine, cholesky, strassen, multisort_nested. Each
workload runs in its own process, so its peak resident set is its own. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout root; traced runs also write
their spans there. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["stencil_fine", "cholesky", "strassen", "multisort_nested"]
# One run must end within 180 s; leave room for the build check and output.
RUN_DEADLINE_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure (once) and build the perfbench binary; None on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"runtime sources not found under {ROOT}/src; nothing to build")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return out / "perfbench"


def git_sha():
    """HEAD of the checkout, read from .git without running git (a benchmark
    checkout need not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(binary, workload, seed, seconds, trace, deadline, extra=()):
    """Run one workload in its own process. Returns (result, lines): the
    parsed last JSON line (None on crash or timeout) and the lines before."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), *extra]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}-seed{seed}.csv")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:  # the child is killed and reaped
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        log(f"{workload}: timed out")
        return None, (out or "").splitlines()
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        log(f"{workload}: exited with code {p.returncode}")
        return None, lines
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a result")
        return None, lines


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for a run with this --trace."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def selftest(binary, deadline):
    """Corrupt every second timed output: each corrupted iteration must be
    counted as failed, and the run must report correct = false."""
    ok = True
    for w in WORKLOADS:
        res, lines = run_workload(binary, w, 7, 1, False, deadline,
                                  ["--corrupt-every", "2"])
        loop = next((l for l in lines if l.startswith("loop ")), "")
        corrupted = int(loop.split("corrupted=")[1].split()[0]) if loop else 0
        good = (res is not None and corrupted >= 1 and not res["correct"]
                and res["failed"] == corrupted)
        print(f"selftest {w} corrupted={corrupted} "
              f"failed={res and res['failed']} {'ok' if good else 'FAILED'}")
        ok = ok and good
    print("selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    # A fresh checkout's build may take minutes; a rebuild check takes
    # seconds. The runs' deadline counts from here.
    deadline = time.monotonic() + RUN_DEADLINE_S - 10
    if args.selftest:
        return selftest(binary, deadline + RUN_DEADLINE_S)

    print(f"perfbench git={git_sha()} nproc={os.cpu_count()} seed={args.seed}"
          f" seconds={args.seconds} trace={args.trace}", flush=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in names:
        per_run = deadline if len(names) == 1 else (
            time.monotonic() + RUN_DEADLINE_S)
        res, lines = run_workload(binary, w, args.seed, args.seconds,
                                  args.trace, per_run)
        for line in lines:
            print(line)
        if res is None:
            # A crash or timeout fails the iteration that was running.
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        if set(res["metrics"]) != declared_metrics(args.trace):
            log(f"{w}: metrics differ from BENCHMARK.json: "
                f"{sorted(set(res['metrics']) ^ declared_metrics(args.trace))}")
            return 1
        results[w] = res
        if len(names) > 1:
            print(json.dumps(res), flush=True)

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
