#include "recon/reliability.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace sma::recon {

bool is_recoverable(const layout::Architecture& arch,
                    const std::vector<int>& failed) {
  if (failed.empty()) return true;
  if (!arch.is_mirror()) {
    // The RAID-5/6 comparators are MDS: recoverability is exactly the
    // erasure count.
    return static_cast<int>(failed.size()) <= arch.fault_tolerance();
  }

  auto is_failed = [&](int disk) {
    return std::find(failed.begin(), failed.end(), disk) != failed.end();
  };
  const int n = arch.n();
  const int rows = arch.rows();
  const bool parity_ok = arch.has_parity() && !is_failed(arch.parity_disk());

  // avail[i][j]: data element (i, j) is obtainable.
  std::vector<std::vector<bool>> avail(
      static_cast<std::size_t>(n),
      std::vector<bool>(static_cast<std::size_t>(rows), false));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < rows; ++j) {
      bool ok = !is_failed(arch.data_disk(i));
      for (int r = 1; r <= arch.replicas() && !ok; ++r)
        ok = !is_failed(arch.replica_of(i, j, r).disk);
      avail[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = ok;
    }
  }
  // Parity closure: a row with exactly one missing element recovers it.
  if (parity_ok) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (int j = 0; j < rows; ++j) {
        int missing = 0;
        int which = -1;
        for (int i = 0; i < n; ++i) {
          if (!avail[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
            ++missing;
            which = i;
          }
        }
        if (missing == 1) {
          avail[static_cast<std::size_t>(which)][static_cast<std::size_t>(j)] =
              true;
          changed = true;
        }
      }
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < rows; ++j)
      if (!avail[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])
        return false;
  return true;
}

FatalCounts count_fatal_sets(const layout::Architecture& arch) {
  const int total = arch.total_disks();
  FatalCounts out;

  long fatal_pairs_ordered = 0;
  for (int a = 0; a < total; ++a)
    for (int b = 0; b < total; ++b)
      if (b != a && !is_recoverable(arch, {a, b})) ++fatal_pairs_ordered;
  out.avg_fatal_second =
      static_cast<double>(fatal_pairs_ordered) / static_cast<double>(total);

  if (arch.fault_tolerance() >= 2) {
    long fatal_triples = 0;
    long surviving_pairs = 0;
    for (int a = 0; a < total; ++a) {
      for (int b = a + 1; b < total; ++b) {
        if (!is_recoverable(arch, {a, b})) continue;
        ++surviving_pairs;
        for (int c = 0; c < total; ++c) {
          if (c == a || c == b) continue;
          if (!is_recoverable(arch, {a, b, c})) ++fatal_triples;
        }
      }
    }
    if (surviving_pairs > 0)
      out.avg_fatal_third = static_cast<double>(fatal_triples) /
                            static_cast<double>(surviving_pairs);
  }
  return out;
}

MttdlReport estimate_mttdl(const layout::Architecture& arch,
                           const MttdlParams& params) {
  assert(params.disk_mttf_hours > 0);
  assert(params.mttr_hours > 0);
  MttdlReport report;
  report.fatal = count_fatal_sets(arch);

  const double mttf = params.disk_mttf_hours;
  const double mttr = params.mttr_hours;
  const double total = arch.total_disks();

  if (arch.fault_tolerance() <= 1) {
    const double k2 = report.fatal.avg_fatal_second;
    report.mttdl_hours = k2 > 0
                             ? mttf * mttf / (total * k2 * mttr)
                             : std::numeric_limits<double>::infinity();
    return report;
  }

  // Tolerance 2 (all single and double failures survivable): first
  // failure at rate N/MTTF; second at (N-1)/MTTF during the repair
  // window; from the doubly-degraded state, fatal third failures occur
  // at k3/MTTF against a 1/MTTR repair exit.
  const double k3 = report.fatal.avg_fatal_third;
  report.mttdl_hours =
      k3 > 0 ? mttf * mttf * mttf / (total * (total - 1) * k3 * mttr * mttr)
             : std::numeric_limits<double>::infinity();
  return report;
}

}  // namespace sma::recon
