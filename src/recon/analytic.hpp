// Analytic (counting) evaluation of read accesses during
// reconstruction — the machinery behind Table I and Fig. 7.
//
// Following Hafner et al.'s methodology (paper Section VI), metrics are
// computed by rigorous counting and averaging over a single stripe with
// every disk equally likely to fail; the stack rotation makes this
// exactly the physical average.
#pragma once

#include <string>
#include <vector>

#include "layout/architecture.hpp"
#include "recon/failure.hpp"

namespace sma::recon {

/// One row of Table I.
struct FailureCaseRow {
  FailureClass cls = FailureClass::kNone;
  long num_cases = 0;
  int num_read_accesses = 0;  // identical across the class's cases
};

/// Enumerate all double failures of a fault-tolerance-2 architecture,
/// group them by FailureClass, and verify that every case within a
/// class needs the same number of read accesses (as Table I asserts for
/// the shifted mirror method with parity). For architectures where a
/// class is not uniform, the row reports the *average* and
/// `uniform = false`.
struct CaseTable {
  std::vector<FailureCaseRow> rows;
  bool uniform = true;
  double average_read_accesses = 0.0;
};

CaseTable enumerate_double_failure_cases(const layout::Architecture& arch);

/// Table-I analogue for an R >= 2 replica mirror: every double failure,
/// grouped by which arrays the two failed disks belong to, with the
/// plan's read accesses per class. Sorted by label.
struct DoubleFailureClass {
  std::string label;  // "both data", "data + replica array", ...
  long cases = 0;
  int min_accesses = 0;
  double avg_accesses = 0.0;
  int max_accesses = 0;
};
std::vector<DoubleFailureClass> double_failure_classes(
    const layout::Architecture& arch);

/// Average read accesses over all single-disk failures.
double average_single_failure_read_accesses(const layout::Architecture& arch);

/// Closed forms from the paper.
///   shifted mirror with parity: Avg = 4n / (2n + 1)        (Section VI-A)
double paper_avg_read_shifted_mirror_parity(int n);
///   traditional mirror with parity: every double failure needs n.
double paper_avg_read_traditional_mirror_parity(int n);

/// One point of Fig. 7: the ratios (in percent) of the shifted mirror
/// method with parity's average double-failure read accesses over the
/// traditional mirror method with parity and over shortened RAID-6.
struct Fig7Point {
  int n = 0;
  double shifted_avg = 0.0;
  double traditional_avg = 0.0;
  double raid6_avg = 0.0;
  double ratio_vs_traditional_pct = 0.0;
  double ratio_vs_raid6_pct = 0.0;
};

Fig7Point fig7_point(int n);

}  // namespace sma::recon
