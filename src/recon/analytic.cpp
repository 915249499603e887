#include "recon/analytic.hpp"

#include <algorithm>
#include <cassert>
#include <map>

#include "recon/plan.hpp"

namespace sma::recon {

CaseTable enumerate_double_failure_cases(const layout::Architecture& arch) {
  assert(arch.fault_tolerance() >= 2);
  struct Bucket {
    long cases = 0;
    long access_sum = 0;
    int first = -1;
    bool uniform = true;
  };
  std::map<FailureClass, Bucket> buckets;
  long total_cases = 0;
  long total_accesses = 0;

  for (const auto& failed : enumerate_double_failures(arch)) {
    auto plan = plan_reconstruction(arch, failed);
    assert(plan.is_ok());
    const int accesses = plan.value().read_accesses(arch);
    auto& b = buckets[classify(arch, failed)];
    ++b.cases;
    b.access_sum += accesses;
    if (b.first < 0) b.first = accesses;
    else if (b.first != accesses) b.uniform = false;
    ++total_cases;
    total_accesses += accesses;
  }

  CaseTable table;
  for (const auto& [cls, b] : buckets) {
    FailureCaseRow row;
    row.cls = cls;
    row.num_cases = b.cases;
    row.num_read_accesses =
        static_cast<int>((b.access_sum + b.cases / 2) / b.cases);
    table.rows.push_back(row);
    if (!b.uniform) table.uniform = false;
  }
  table.average_read_accesses =
      static_cast<double>(total_accesses) / static_cast<double>(total_cases);
  return table;
}

std::vector<DoubleFailureClass> double_failure_classes(
    const layout::Architecture& arch) {
  assert(arch.is_mirror() && arch.replicas() >= 2);
  std::map<std::string, DoubleFailureClass> buckets;
  for (const auto& failed : enumerate_double_failures(arch)) {
    const int ra = failed[0] / arch.n();
    const int rb = failed[1] / arch.n();
    const char* label = ra == 0 && rb == 0 ? "both data"
                        : ra == 0          ? "data + replica array"
                        : ra == rb         ? "same replica array"
                                           : "two replica arrays";
    auto plan = plan_reconstruction(arch, failed);
    assert(plan.is_ok());
    const int accesses = plan.value().read_accesses(arch);
    DoubleFailureClass& row = buckets[label];
    if (row.cases == 0) {
      row.label = label;
      row.min_accesses = row.max_accesses = accesses;
    }
    row.avg_accesses =
        (row.avg_accesses * static_cast<double>(row.cases) + accesses) /
        static_cast<double>(row.cases + 1);
    ++row.cases;
    row.min_accesses = std::min(row.min_accesses, accesses);
    row.max_accesses = std::max(row.max_accesses, accesses);
  }
  std::vector<DoubleFailureClass> out;
  out.reserve(buckets.size());
  for (auto& [label, row] : buckets) out.push_back(std::move(row));
  return out;
}

double average_single_failure_read_accesses(const layout::Architecture& arch) {
  long total = 0;
  long cases = 0;
  for (const auto& failed : enumerate_single_failures(arch)) {
    auto plan = plan_reconstruction(arch, failed);
    assert(plan.is_ok());
    total += plan.value().read_accesses(arch);
    ++cases;
  }
  return static_cast<double>(total) / static_cast<double>(cases);
}

double paper_avg_read_shifted_mirror_parity(int n) {
  return 4.0 * n / (2.0 * n + 1.0);
}

double paper_avg_read_traditional_mirror_parity(int n) {
  return static_cast<double>(n);
}

Fig7Point fig7_point(int n) {
  Fig7Point p;
  p.n = n;
  p.shifted_avg =
      enumerate_double_failure_cases(
          layout::Architecture::mirror_with_parity(n, /*shifted=*/true))
          .average_read_accesses;
  p.traditional_avg =
      enumerate_double_failure_cases(
          layout::Architecture::mirror_with_parity(n, /*shifted=*/false))
          .average_read_accesses;
  p.raid6_avg =
      enumerate_double_failure_cases(layout::Architecture::raid6(n))
          .average_read_accesses;
  p.ratio_vs_traditional_pct = 100.0 * p.shifted_avg / p.traditional_avg;
  p.ratio_vs_raid6_pct = 100.0 * p.shifted_avg / p.raid6_avg;
  return p;
}

}  // namespace sma::recon
