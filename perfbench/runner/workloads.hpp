// The benchmark's workloads. Each sets up (builds its inputs and runs
// one reduced warm-up pass) cold kSetupReps times, runs its passes for
// opts.seconds, checks the simulator's outputs, and fills the end-to-end
// metrics (opts.trace false) or the per-layer metrics (opts.trace true).
// README.md gives each workload's inputs and the reason it was chosen.
#pragma once

#include "harness.hpp"

namespace perfbench {

RunResult run_fleet_serve(const RunOptions& opts);
RunResult run_online_rebuild(const RunOptions& opts);
RunResult run_rebuild_verify(const RunOptions& opts);

/// Runs the MTTDL Monte-Carlo and closed-form layers at `seed` once
/// untraced and once traced, checks them, and sets their per-layer
/// metrics on `res` (rebuild_verify's traced run calls it).
void add_mttdl_layers(std::uint64_t seed, RunResult& res);

/// Cold set-ups per run (see cold_setup_s); setup_s is their median.
inline constexpr int kSetupReps = 7;

}  // namespace perfbench
