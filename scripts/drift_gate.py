#!/usr/bin/env python3
"""Drift gate: regenerate every committed reference CSV and diff it.

The committed sma_*.csv files at the repo root are the behaviour spec.
The set to check is `git ls-files 'sma_*.csv'`; MANIFEST below maps each
bench binary to the CSVs it writes. A committed CSV without a producer,
or a manifest entry naming a CSV that is not committed, fails the gate,
so a new reference CSV cannot land ungated.

Usage (from anywhere inside the repository):
    python3 scripts/drift_gate.py [--build-dir build] [--no-build]

The benches run from the repo root, overwriting the committed CSVs in
place; the gate then fails on any `git diff` of them.
"""
import argparse
import subprocess
import sys
from pathlib import Path

# bench binary -> the reference CSVs it writes into its working directory.
MANIFEST = {
    "bench_ablate_elemsize": ["sma_ablate_elemsize.csv"],
    "bench_ablate_pipeline": ["sma_ablate_pipeline.csv"],
    "bench_ablate_seek": ["sma_ablate_seek.csv"],
    "bench_ablate_straggler": ["sma_ablate_straggler.csv"],
    "bench_availability_timeline": ["sma_availability_timeline.csv"],
    "bench_chaos": ["sma_chaos.csv"],
    "bench_crash_resync": ["sma_crash_resync.csv"],
    "bench_degraded_reads": ["sma_degraded_reads.csv"],
    "bench_disk_timeline": ["sma_disk_timeline.csv"],
    "bench_fig10a": ["sma_fig10a.csv"],
    "bench_fig10b": ["sma_fig10b.csv"],
    "bench_fig7": ["sma_fig7.csv"],
    "bench_fig8_properties": ["sma_fig8_properties.csv"],
    "bench_fig9a": ["sma_fig9a.csv"],
    "bench_fig9b": ["sma_fig9b.csv"],
    "bench_fleet": ["sma_fleet.csv"],
    "bench_layout_registry": ["sma_layout_registry.csv"],
    "bench_online_recon": [
        "sma_online_recon.csv",
        "sma_online_recon_second_failure.csv",
        "sma_online_recon_writes.csv",
    ],
    "bench_qos_throttle": ["sma_qos_throttle.csv"],
    "bench_rebuild_faults": ["sma_rebuild_faults.csv"],
    "bench_reliability": ["sma_reliability.csv"],
    "bench_repair_orchestration": ["sma_repair_orchestration.csv"],
    "bench_scrub": ["sma_scrub.csv"],
    "bench_sim_kernel": ["sma_sim_kernel.csv"],
    "bench_stack_balance": ["sma_stack_balance.csv"],
    "bench_table1": ["sma_table1.csv", "sma_table1_avg.csv"],
    "bench_three_mirror": [
        "sma_three_mirror_double.csv",
        "sma_three_mirror_online.csv",
        "sma_three_mirror_single.csv",
    ],
    "bench_update_penalty": ["sma_update_penalty.csv"],
    "bench_write_access": ["sma_write_access.csv"],
    "bench_write_raid6": ["sma_write_raid6.csv"],
}


def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build",
                    help="CMake build tree, relative to the repo root")
    ap.add_argument("--no-build", action="store_true",
                    help="run already-built benches")
    args = ap.parse_args()

    root = Path(git(Path(__file__).resolve().parent,
                    "rev-parse", "--show-toplevel").strip())
    committed = sorted(git(root, "ls-files", "sma_*.csv").split())
    produced = {csv: bench for bench, csvs in MANIFEST.items() for csv in csvs}

    orphans = [c for c in committed if c not in produced]
    stale = sorted(c for c in produced if c not in committed)
    for c in orphans:
        print(f"drift-gate: committed {c} has no producer in MANIFEST",
              file=sys.stderr)
    for c in stale:
        print(f"drift-gate: MANIFEST names {c}, which is not committed",
              file=sys.stderr)
    if orphans or stale:
        return 1

    benches = sorted({produced[c] for c in committed})
    build = root / args.build_dir
    if not args.no_build:
        subprocess.run(["cmake", "--build", str(build), "--target", *benches],
                       check=True)
    for bench in benches:
        print(f"== {bench}", flush=True)
        subprocess.run([str(build / "bench" / bench)], cwd=root, check=True,
                       stdout=subprocess.DEVNULL)

    diff = subprocess.run(["git", "diff", "--exit-code", "--stat", "--",
                           *committed], cwd=root)
    if diff.returncode != 0:
        print("drift-gate: regenerated CSVs differ from the committed ones",
              file=sys.stderr)
        return 1
    print(f"drift-gate: all {len(committed)} committed CSVs regenerate "
          "bit-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
