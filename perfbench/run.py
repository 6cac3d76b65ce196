#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <inproc-fresh|serve-shared|serve-bulk> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout.  [all] runs every workload untraced and
then traced, and ends with one JSON line merging their results (metric
names prefixed with the workload).  The benchmark is built from source with
dune (build output goes to stderr), then run with the given arguments; its
last stdout line is the JSON result.  Everything the benchmark forks runs
in its own process group, which is killed and waited for before this
script exits, whatever the benchmark did.

Times are reported at a reference host speed, measured between sessions
with a fixed kernel (perfbench/hostspeed.ml): on a shared host the raw
times of the same code drift by tens of percent within minutes.
"""

import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT = 175
WORKLOADS = ("inproc-fresh", "serve-shared", "serve-bulk")


def build():
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0 and os.path.exists(EXE)


def reap_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def bench(args, stdout=None):
    proc = subprocess.Popen(
        [EXE] + args, cwd=ROOT, start_new_session=True, stdout=stdout, text=True
    )
    out = ""
    try:
        if stdout is None:
            code = proc.wait(timeout=RUN_TIMEOUT)
        else:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT)
            code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        reap_group(proc.pid)
        proc.wait()
    return code, out


def run_all(args):
    opts = dict(zip(args[::2], args[1::2]))
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = bench(
                ["--workload", workload, "--seed", opts.get("--seed", "1"),
                 "--seconds", opts.get("--seconds", "20"), "--trace", trace],
                stdout=subprocess.PIPE,
            )
            lines = out.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            worst = max(worst, code)
            try:
                result = json.loads(lines[-1])
            except ValueError:
                return code or 1
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                merged["metrics"][workload + "/" + name] = value
    print(json.dumps(merged))
    return worst


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        return run_all(args)
    return bench(args)[0]


if __name__ == "__main__":
    sys.exit(main())
