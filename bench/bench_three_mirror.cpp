// Extension experiment (paper Section VIII future work): the shifted
// element arrangement applied to the three-mirror method (2 replica
// arrays, as in GFS/Ceph). Replica array r uses the affine arrangement
// a(i,j) -> (<i + c_r j>_n, i) with distinct multipliers c_r coprime to
// n, preserving the paper's three properties per array and pairwise
// one-element overlap across arrays. The R = 2 arrays run through the
// same Architecture, planner, DiskArray, executor and online engine as
// the paper's R = 1 mirror.
//
// Reported: average read accesses and rebuild read throughput over all
// single and double failures, traditional vs shifted, n = 3..7.
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "recon/analytic.hpp"
#include "recon/executor.hpp"
#include "recon/online.hpp"
#include "recon/plan.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sma;

struct Cell {
  double accesses = 0;
  double mbps = 0;
};

constexpr int kReplicas = 2;

layout::Architecture three_mirror(int n, bool shifted) {
  auto arch = layout::Architecture::mirror_named(
      n, shifted ? "shifted" : "traditional", kReplicas);
  if (!arch.is_ok()) {
    std::fprintf(stderr, "three-mirror layout: %s\n",
                 arch.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(arch).take();
}

array::ArrayConfig array_config(const layout::Architecture& arch,
                                int stripes, std::size_t content_bytes) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stripes;
  cfg.content_bytes = content_bytes;
  cfg.logical_element_bytes = 4ull * 1000 * 1000;
  cfg.seed = 3;
  return cfg;
}

Cell sweep(int n, bool shifted, int failures) {
  const layout::Architecture arch = three_mirror(n, shifted);
  const array::ArrayConfig proto =
      array_config(arch, arch.total_disks(), 128);

  // Enumerate failure sets.
  std::vector<std::vector<int>> sets;
  const int total = arch.total_disks();
  if (failures == 1) {
    for (int d = 0; d < total; ++d) sets.push_back({d});
  } else {
    for (int a = 0; a < total; ++a)
      for (int b = a + 1; b < total; ++b) sets.push_back({a, b});
  }

  std::vector<Cell> results(sets.size());
  parallel_for(sets.size(), [&](std::size_t i) {
    array::DiskArray arr(proto);
    arr.initialize();
    for (const int d : sets[i]) arr.fail_physical(d);
    auto report = recon::reconstruct(arr);
    if (!report.is_ok()) {
      std::fprintf(stderr, "three-mirror rebuild failed: %s\n",
                   report.status().to_string().c_str());
      return;
    }
    results[i].accesses = report.value().read_accesses_per_stripe;
    results[i].mbps = report.value().read_throughput_mbps();
  });

  RunningStat acc;
  RunningStat mbps;
  for (const auto& r : results) {
    acc.add(r.accesses);
    mbps.add(r.mbps);
  }
  return {acc.mean(), mbps.mean()};
}

}  // namespace

int main() {
  using namespace sma;

  for (const int failures : {1, 2}) {
    Table table(std::string("Three-mirror method, all ") +
                (failures == 1 ? "single" : "double") + "-disk failures");
    table.set_header({"n", "trad accesses", "shift accesses", "trad MB/s",
                      "shift MB/s", "improvement factor"});
    for (int n = 3; n <= 7; ++n) {
      const Cell t = sweep(n, false, failures);
      const Cell s = sweep(n, true, failures);
      table.add_row({Table::num(n), Table::num(t.accesses, 2),
                     Table::num(s.accesses, 2), Table::num(t.mbps, 1),
                     Table::num(s.mbps, 1), Table::num(s.mbps / t.mbps, 2)});
    }
    bench::emit(table, failures == 1 ? "sma_three_mirror_single.csv"
                                     : "sma_three_mirror_double.csv");
  }

  // Table-I analogue for the three-mirror extension: double failures by
  // class (n = 5).
  for (const bool shifted : {false, true}) {
    const layout::Architecture arch = three_mirror(5, shifted);
    Table cases("Double-failure classes, " + arch.name() + " (n=5)");
    cases.set_header({"class", "cases", "min", "avg", "max"});
    for (const auto& row : recon::double_failure_classes(arch))
      cases.add_row({row.label,
                     Table::num(static_cast<std::uint64_t>(row.cases)),
                     Table::num(row.min_accesses),
                     Table::num(row.avg_accesses, 2),
                     Table::num(row.max_accesses)});
    std::fputs(cases.render().c_str(), stdout);
    std::printf("\n");
  }

  // On-line rebuild with user reads, three-mirror.
  Table online("Three-mirror on-line rebuild (n=5, one failed disk)");
  online.set_header({"arrangement", "rebuild done (s)", "read mean (ms)",
                     "read p99 (ms)", "degraded reads"});
  for (const bool shifted : {false, true}) {
    array::DiskArray arr(array_config(three_mirror(5, shifted), 4 * 15, 64));
    arr.initialize();
    arr.fail_physical(0);
    recon::OnlineConfig ocfg;
    ocfg.arrival.rate_hz = 30;
    ocfg.arrival.max_requests = 500;
    ocfg.arrival.seed = 2012;
    auto report = recon::run_online_reconstruction(arr, ocfg);
    if (!report.is_ok()) {
      std::fprintf(stderr, "three-mirror online failed: %s\n",
                   report.status().to_string().c_str());
      return 1;
    }
    const auto& r = report.value();
    online.add_row({std::string(shifted ? "shifted" : "traditional"),
                    Table::num(r.rebuild_done_s, 2),
                    Table::num(r.mean_latency_s * 1e3, 1),
                    Table::num(r.p99_latency_s * 1e3, 1),
                    Table::num(static_cast<std::uint64_t>(r.degraded_reads))});
  }
  bench::emit(online, "sma_three_mirror_online.csv");
  return 0;
}
