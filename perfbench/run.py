#!/usr/bin/env python3
"""Build the perfbench runner from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_serve --seed 0 --seconds 30 --trace 0

Builds the runner (and the sma_* libraries it links) into .bench_build,
or into $CARGO_TARGET_DIR when set, runs the workload, checks that the
metrics it prints are exactly the ones BENCHMARK.json declares, and
prints one JSON result as the last line of standard output. Exits
non-zero without a result when the build or the run fails. See
perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

WORKLOADS = ("fleet_serve", "online_rebuild", "rebuild_verify")
BUILD_TIMEOUT_S = 850
# Time a run may take beyond --seconds: set-up, the output checks and
# the traced run's extra passes.
RUN_SLACK_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        fail("run from the repository root (no CMakeLists.txt and src/ here)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_runner")


# personality(2) flag that turns off address-space layout randomization.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the runner's child process before exec: turns off ASLR.

    With randomized heap and stack placement, the allocation-heavy
    workloads run up to 25% faster or slower from one process to the
    next (measured on a 4-vCPU VM), which swamps the differences the
    benchmark exists to show. Where personality(2) is refused, the run
    proceeds with randomization on.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xffffffff)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def launch(cmd, timeout_s):
    """Runs the runner; returns its stdout lines. Fails on a non-zero exit."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout_s, check=False, text=True,
                              preexec_fn=fixed_layout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("runner did not finish: %s" % e)
    if done.returncode != 0:
        fail("runner exited with %d: %s" % (done.returncode, " ".join(cmd)))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("runner printed nothing")
    return lines


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    declared = declared_metrics(trace)
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(declared) & set(printed)
                       if declared[n] != printed[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    runner = build(build_dir)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    lines = launch(cmd, args.seconds + RUN_SLACK_S)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last runner line is not JSON: " + lines[-1])
    check_result(result, args.trace == 1)

    for line in lines[:-1]:
        print(line)
    print("context: git %s, nproc %d" % (git_sha(), os.cpu_count() or 0))
    print(lines[-1])


if __name__ == "__main__":
    main()
