#!/usr/bin/env python3
"""Run the simulation-kernel throughput bench and write BENCH_sim_kernel.json.

Drives build/bench/bench_sim_kernel --json, which measures
  * fleet            — raw scheduler throughput (events/sec) of the
                       calendar-queue kernel on a 4096-chain event mix;
  * online_recon_e2e — a rebuild-heavy online reconstruction with one
                       kernel event per disk op ("calendar") vs
                       event-batched rebuild drains ("batched"), both
                       walls normalized by the per-op event count so
                       the ratio is the batching speedup;
  * multi_kernel     — sim::MultiKernel over 12 independent cases at
                       1/2/4/8 threads, bit-identity enforced by the
                       bench itself. Scaling is only meaningful on
                       multi-core hosts; hardware_concurrency records
                       what this run actually had.

The bench also rewrites sma_sim_kernel.csv (deterministic digests; the
CI drift gate requires it bit-identical to the committed copy).

Usage:
  scripts/bench_sim_kernel.py [--build-dir build] [--out BENCH_sim_kernel.json]
"""

import argparse
import json
import pathlib
import subprocess
import sys


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build", type=pathlib.Path)
    ap.add_argument("--out", default="BENCH_sim_kernel.json",
                    type=pathlib.Path)
    args = ap.parse_args()

    exe = (args.build_dir / "bench" / "bench_sim_kernel").resolve()
    if not exe.exists():
        sys.exit(f"error: {exe} not found — build the project first "
                 f"(cmake -B {args.build_dir} -S . && "
                 f"cmake --build {args.build_dir})")
    # The bench writes sma_sim_kernel.csv into the invoking directory;
    # run from the repo root so it lands next to the other committed
    # drift-gated CSVs.
    out = subprocess.run([str(exe), "--json"], capture_output=True, text=True)
    if out.returncode != 0:
        # The bench enforces its determinism contract itself (digest
        # mismatch across variants/threads exits non-zero). Surface its
        # diagnostic instead of swallowing it with the capture.
        sys.stderr.write(out.stdout)
        sys.stderr.write(out.stderr)
        sys.exit(out.returncode)
    result = json.loads(out.stdout)

    args.out.write_text(json.dumps(result, indent=2) + "\n")

    fleet = result["fleet"]
    e2e = result["online_recon_e2e"]
    mk = result["multi_kernel"]
    print(f"wrote {args.out}")
    print(f"fleet: {fleet['calendar']['events_per_s']:,.0f} ev/s")
    print(f"online_recon_e2e: batched "
          f"{e2e['batched']['events_per_s']:,.0f} ev/s "
          f"({e2e['batched']['sim_hours_per_s']:.1f} sim-hours/s), "
          f"{e2e['speedup_batched_vs_calendar']:.2f}x vs per-op events")
    print(f"multi_kernel: bit_identical={mk['bit_identical']}, "
          f"hardware_concurrency={mk['hardware_concurrency']}, "
          f"4 threads {mk['threads_4']['speedup']:.2f}x")


if __name__ == "__main__":
    main()
