// R-replica mirrors (R >= 2 replica arrays — the paper's future-work
// three-mirror method) through the one Architecture, planner, DiskArray,
// executor and online engine that serve R = 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "array/disk_array.hpp"
#include "integrity/crash_workload.hpp"
#include "integrity/resync.hpp"
#include "layout/architecture.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "recon/analytic.hpp"
#include "recon/executor.hpp"
#include "recon/online.hpp"
#include "recon/plan.hpp"
#include "recon/scrub.hpp"
#include "repair/checkpoint.hpp"
#include "workload/degraded_read.hpp"

namespace sma {
namespace {

using layout::Architecture;
using layout::Pos;

Architecture make(int n, int replicas, bool shifted) {
  auto a = Architecture::mirror_named(n, shifted ? "shifted" : "traditional",
                                      replicas);
  EXPECT_TRUE(a.is_ok()) << a.status().to_string();
  return std::move(a).take();
}

/// Global disk `local` of replica array r.
int replica_disk(const Architecture& a, int r, int local) {
  return a.mirror_disk(local, r);
}

/// Data element stored at cell (local disk, row) of replica array r.
Pos source_of(const Architecture& a, int r, int local, int row) {
  return a.replicated_by((r - 1) * a.n() + local, row);
}

Result<recon::StripePlan> plan(const Architecture& a,
                               const std::vector<int>& failed) {
  return recon::plan_reconstruction(a, failed);
}

TEST(MultiMirror, CreateValidates) {
  EXPECT_FALSE(Architecture::mirror_named(0, "shifted", 2).is_ok());
  EXPECT_FALSE(Architecture::mirror_named(3, "shifted", 0).is_ok());
  // n = 4 has units {1, 3}: at most 2 orthogonal shifted arrays.
  EXPECT_FALSE(Architecture::mirror_named(4, "shifted", 3).is_ok());
  EXPECT_TRUE(Architecture::mirror_named(4, "shifted", 2).is_ok());
  // Traditional mode has no multiplier constraint.
  EXPECT_TRUE(Architecture::mirror_named(4, "traditional", 3).is_ok());
  // Other registry layouts have no orthogonal generalization.
  EXPECT_FALSE(Architecture::mirror_named(4, "zigzag", 2).is_ok());
  EXPECT_TRUE(Architecture::mirror_named(4, "zigzag", 1).is_ok());
}

TEST(MultiMirror, ShapeAndNames) {
  const auto m = make(5, 2, true);
  EXPECT_EQ(m.replicas(), 2);
  EXPECT_EQ(m.total_disks(), 15);
  EXPECT_EQ(m.fault_tolerance(), 2);
  EXPECT_DOUBLE_EQ(m.storage_efficiency(), 1.0 / 3.0);
  EXPECT_EQ(m.name(), "mirror-shifted-x3");
  EXPECT_EQ(m.arrangement(2)->name(), "shifted*2");
  // R = 1 through the named factory is the classic architecture.
  EXPECT_EQ(make(3, 1, false).name(), "mirror-traditional");
  EXPECT_EQ(make(3, 1, true).total_disks(), 6);
}

TEST(MultiMirror, ReplicaArrayOneMatchesPaperShiftedArrangement) {
  // c_1 = 1: array 1 must reproduce the paper's shifted arrangement.
  const auto m = make(4, 2, true);
  layout::ShiftedArrangement paper(4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      const Pos mp = m.replica_of(i, j, 1);
      const Pos pp = paper.mirror_of(i, j);
      EXPECT_EQ(mp.disk - 4, pp.disk);  // array 1 global offset = n
      EXPECT_EQ(mp.row, pp.row);
    }
}

TEST(MultiMirror, SourceOfInvertsReplicaOf) {
  for (const bool shifted : {false, true}) {
    const auto m = make(5, 2, shifted);
    for (int r = 1; r <= 2; ++r)
      for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j) {
          const Pos p = m.replica_of(i, j, r);
          EXPECT_EQ(m.replicated_by(m.role_index(p.disk), p.row),
                    (Pos{i, j}));
        }
  }
}

TEST(MultiMirror, EveryReplicaArrayIsBijective) {
  const auto m = make(5, 2, true);
  for (int r = 1; r <= 2; ++r) {
    EXPECT_TRUE(m.arrangement(r)->is_bijection());
    std::set<std::pair<int, int>> cells;
    for (int i = 0; i < 5; ++i)
      for (int j = 0; j < 5; ++j) {
        const Pos p = m.replica_of(i, j, r);
        EXPECT_TRUE(cells.insert({p.disk, p.row}).second);
      }
    EXPECT_EQ(cells.size(), 25u);
  }
}

TEST(MultiMirror, AffineArraysSatisfyP1Analogue) {
  // Replicas of one data disk land on all n disks of each replica array.
  const auto m = make(7, 2, true);
  for (int r = 1; r <= 2; ++r) {
    for (int i = 0; i < 7; ++i) {
      std::set<int> disks;
      for (int j = 0; j < 7; ++j) disks.insert(m.replica_of(i, j, r).disk);
      EXPECT_EQ(disks.size(), 7u) << "array " << r << " data disk " << i;
    }
  }
}

TEST(MultiMirror, OrthogonalityOneOverlapPerDiskPair) {
  // A data disk x and a replica disk y in array r share exactly one
  // element per stripe; two replica disks in different arrays share
  // exactly one source element.
  const auto m = make(5, 2, true);
  for (int x = 0; x < 5; ++x) {
    for (int r = 1; r <= 2; ++r) {
      for (int local = 0; local < 5; ++local) {
        int overlap = 0;
        for (int j = 0; j < 5; ++j)
          if (m.replica_of(x, j, r).disk == replica_disk(m, r, local))
            ++overlap;
        EXPECT_EQ(overlap, 1);
      }
    }
  }
  // Cross-array: disks y1 (array 1) and y2 (array 2).
  for (int y1 = 0; y1 < 5; ++y1) {
    for (int y2 = 0; y2 < 5; ++y2) {
      int shared_sources = 0;
      for (int row1 = 0; row1 < 5; ++row1) {
        const Pos s1 = source_of(m, 1, y1, row1);
        for (int row2 = 0; row2 < 5; ++row2)
          if (source_of(m, 2, y2, row2) == s1) ++shared_sources;
      }
      EXPECT_EQ(shared_sources, 1) << y1 << "," << y2;
    }
  }
}

class MultiPlanN : public ::testing::TestWithParam<int> {};

TEST_P(MultiPlanN, ShiftedSingleFailureIsOneAccess) {
  const int n = GetParam();
  const auto m = make(n, 2, true);
  for (int d = 0; d < m.total_disks(); ++d) {
    auto p = plan(m, {d});
    ASSERT_TRUE(p.is_ok()) << d;
    EXPECT_EQ(p.value().read_accesses(m), 1) << "disk " << d;
  }
}

TEST_P(MultiPlanN, ShiftedDoubleFailureAtMostTwoAccesses) {
  const int n = GetParam();
  const auto m = make(n, 2, true);
  for (int a = 0; a < m.total_disks(); ++a)
    for (int b = a + 1; b < m.total_disks(); ++b) {
      auto p = plan(m, {a, b});
      ASSERT_TRUE(p.is_ok()) << a << "," << b;
      EXPECT_LE(p.value().read_accesses(m), 2) << a << "," << b;
    }
}

TEST_P(MultiPlanN, TraditionalSingleFailureNeedsCeilNOverRAccesses) {
  // The least-loaded planner splits the lost column across the R
  // identical copies, so ceil(n / R) reads land on the busiest disk —
  // still far worse than the shifted arrangement's 1.
  const int n = GetParam();
  const auto m = make(n, 2, false);
  auto p = plan(m, {0});
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value().read_accesses(m), (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(N, MultiPlanN, ::testing::Values(3, 4, 5, 7));

TEST(MultiPlan, TripleFailureBeyondToleranceRejected) {
  const auto m = make(5, 2, true);
  auto p = plan(m, {0, 1, 2});
  EXPECT_FALSE(p.is_ok());
  EXPECT_EQ(p.status().code(), ErrorCode::kUnrecoverable);
}

array::ArrayConfig array_cfg(const Architecture& arch, int stripes = 0) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = stripes > 0 ? stripes : arch.total_disks();  // one stack
  cfg.content_bytes = 64;
  cfg.logical_element_bytes = 4ull * 1000 * 1000;
  cfg.seed = 3;
  return cfg;
}

TEST(MultiPlan, SharedReadsAreDeduplicated) {
  // Traditional: failing data disk 0 and its copy in array 1 leaves the
  // copy in array 2; every lost element of both disks is fed by ONE
  // read of the surviving copy.
  const auto m = make(4, 2, false);
  auto p = plan(m, {0, replica_disk(m, 1, 0)});
  ASSERT_TRUE(p.is_ok());
  EXPECT_EQ(p.value().availability_reads.size(), 4u);
  EXPECT_EQ(p.value().read_accesses(m), 4);  // all on one disk

  auto cfg = array_cfg(m, 1);
  cfg.rotate = false;
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(replica_disk(m, 1, 0));
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().elements_read, 4u);
  EXPECT_EQ(report.value().elements_written, 8u);  // 2 disks x 4 rows
  EXPECT_TRUE(arr.verify_all().is_ok());
}

TEST(MultiPlan, MalformedInputRejected) {
  const auto m = make(3, 2, true);
  EXPECT_EQ(plan(m, {-1}).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(plan(m, {99}).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(plan(m, {1, 1}).status().code(), ErrorCode::kInvalidArgument);
}

/// Per-class rows of recon::double_failure_classes, keyed by label.
std::map<std::string, recon::DoubleFailureClass> classes_of(
    const Architecture& m) {
  std::map<std::string, recon::DoubleFailureClass> out;
  for (const auto& row : recon::double_failure_classes(m)) out[row.label] = row;
  return out;
}

TEST(MultiPlan, DoubleFailureCaseTable) {
  long total_cases = 0;
  for (const auto& [label, row] : classes_of(make(5, 2, true))) {
    total_cases += row.cases;
    EXPECT_LE(row.max_accesses, 2) << label;
    EXPECT_GE(row.min_accesses, 1) << label;
  }
  EXPECT_EQ(total_cases, 15 * 14 / 2);

  int worst = 0;
  for (const auto& [label, row] : classes_of(make(5, 2, false)))
    worst = std::max(worst, row.max_accesses);
  // Losing a data disk together with one of its copies forces the
  // whole column onto the single remaining copy: n accesses.
  EXPECT_EQ(worst, 5);
}

TEST(MultiPlan, CaseTableClassCounts) {
  const auto classes = classes_of(make(4, 2, true));  // 12 disks
  EXPECT_EQ(classes.at("both data").cases, 6);                // C(4,2)
  EXPECT_EQ(classes.at("data + replica array").cases, 32);    // 4 * 8
  EXPECT_EQ(classes.at("same replica array").cases, 12);      // 2 * C(4,2)
  EXPECT_EQ(classes.at("two replica arrays").cases, 16);      // 4 * 4
}

TEST(MultiArray, InitializeAndVerify) {
  array::DiskArray arr(array_cfg(make(4, 2, true)));
  arr.initialize();
  EXPECT_TRUE(arr.verify_all().is_ok());
  EXPECT_TRUE(arr.verify_consistency().is_ok());
}

TEST(MultiArray, VerifyCatchesCorruption) {
  array::DiskArray arr(array_cfg(make(3, 2, true)));
  arr.initialize();
  arr.content(4, 1, 1)[0] ^= 0x01;
  EXPECT_EQ(arr.verify_all().code(), ErrorCode::kCorruption);
  EXPECT_EQ(arr.verify_consistency().code(), ErrorCode::kCorruption);
}

class MultiArrayRebuild
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(MultiArrayRebuild, EveryDoubleFailureRebuildsAndVerifies) {
  const auto [n, shifted] = GetParam();
  const auto cfg = array_cfg(make(n, 2, shifted));
  const int total = (2 + 1) * n;
  for (int a = 0; a < total; ++a) {
    for (int b = a + 1; b < total; ++b) {
      array::DiskArray arr(cfg);
      arr.initialize();
      arr.fail_physical(a);
      arr.fail_physical(b);
      auto report = recon::reconstruct(arr);
      ASSERT_TRUE(report.is_ok())
          << a << "," << b << ": " << report.status().to_string();
      EXPECT_TRUE(arr.failed_physical().empty());
      EXPECT_TRUE(arr.verify_all().is_ok()) << a << "," << b;
      EXPECT_GT(report.value().read_throughput_mbps(), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiArrayRebuild,
    ::testing::Combine(::testing::Values(3, 4), ::testing::Bool()));

TEST(MultiArray, ShiftedRebuildsFasterThanTraditional) {
  double mbps[2];
  for (const bool shifted : {false, true}) {
    array::DiskArray arr(array_cfg(make(5, 2, shifted)));
    arr.initialize();
    arr.fail_physical(0);
    auto report = recon::reconstruct(arr);
    ASSERT_TRUE(report.is_ok());
    mbps[shifted ? 1 : 0] = report.value().read_throughput_mbps();
  }
  EXPECT_GT(mbps[1], 1.3 * mbps[0]);
}

workload::DegradedReadConfig reads(int count, std::uint64_t seed) {
  workload::DegradedReadConfig cfg;
  cfg.arrival = workload::ArrivalConfig::with(count, seed);
  return cfg;
}

TEST(MultiArray, DegradedReadsCompleteWithTwoFailures) {
  array::DiskArray arr(array_cfg(make(5, 2, true)));
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(7);
  auto report = workload::run_degraded_reads(arr, reads(1000, 3));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().degraded_reads, 0u);
  EXPECT_GT(report.value().throughput_mbps(), 0.0);
  EXPECT_GE(report.value().load_imbalance, 1.0);
}

TEST(MultiArray, DegradedReadsHealthyArrayNoRedirects) {
  array::DiskArray arr(array_cfg(make(4, 2, true)));
  arr.initialize();
  auto report = workload::run_degraded_reads(arr, reads(200, 9));
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().degraded_reads, 0u);
}

TEST(MultiArray, DegradedReadsRejectOverTolerance) {
  array::DiskArray arr(array_cfg(make(3, 2, true)));
  arr.initialize();
  arr.fail_physical(0);
  arr.fail_physical(1);
  arr.fail_physical(2);
  EXPECT_FALSE(workload::run_degraded_reads(arr, reads(10, 1)).is_ok());
}

TEST(MultiArray, TraditionalThreeMirrorSplitsDegradedLoadAcrossCopies) {
  // With two identical replica arrays, redirected reads can alternate
  // between them — the three-mirror layout softens the RAID-1 hotspot
  // even without the shifted arrangement.
  const auto m = make(4, 2, false);
  auto cfg = array_cfg(m);
  cfg.rotate = false;
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);  // data disk 0 in every stripe
  auto report = workload::run_degraded_reads(arr, reads(2000, 5));
  ASSERT_TRUE(report.is_ok());
  // Redirected load (~500 reads) splits over the local-0 disks of both
  // replica arrays instead of hammering one partner.
  const std::size_t degraded = report.value().degraded_reads;
  EXPECT_GT(degraded, 400u);
  const auto copy1 = arr.physical(replica_disk(m, 1, 0)).counters().reads;
  const auto copy2 = arr.physical(replica_disk(m, 2, 0)).counters().reads;
  EXPECT_EQ(copy1 + copy2, degraded);
  EXPECT_LT(copy1, 0.65 * static_cast<double>(degraded));
  EXPECT_LT(copy2, 0.65 * static_cast<double>(degraded));
}

recon::OnlineConfig online_cfg(int requests, std::uint64_t seed = 7) {
  recon::OnlineConfig cfg;
  cfg.arrival.max_requests = requests;
  cfg.arrival.seed = seed;
  return cfg;
}

TEST(MultiOnline, CompletesAndCollectsLatencies) {
  array::DiskArray arr(array_cfg(make(4, 2, true)));
  arr.initialize();
  arr.fail_physical(0);
  auto report = recon::run_online_reconstruction(arr, online_cfg(150));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().rebuild_done_s, 0.0);
  EXPECT_EQ(report.value().user_reads, 150u);
  EXPECT_GT(report.value().mean_latency_s, 0.0);
  EXPECT_GE(report.value().p99_latency_s, report.value().p50_latency_s);
}

TEST(MultiOnline, HandlesDoubleFailure) {
  array::DiskArray arr(array_cfg(make(4, 2, true)));
  arr.initialize();
  arr.fail_physical(1);
  arr.fail_physical(6);
  auto report = recon::run_online_reconstruction(arr, online_cfg(100));
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_GT(report.value().degraded_reads, 0u);
  EXPECT_EQ(report.value().final_state, repair::ArrayState::kHealthy);
}

TEST(MultiOnline, HealthyServesAndOverToleranceRejected) {
  array::DiskArray arr(array_cfg(make(3, 2, true)));
  arr.initialize();
  // No failure: the engine serves the healthy array (no rebuild work).
  auto healthy = recon::run_online_reconstruction(arr, online_cfg(50));
  ASSERT_TRUE(healthy.is_ok()) << healthy.status().to_string();
  EXPECT_EQ(healthy.value().rebuild_done_s, 0.0);
  EXPECT_EQ(healthy.value().degraded_reads, 0u);
  arr.fail_physical(0);
  arr.fail_physical(1);
  arr.fail_physical(2);
  EXPECT_FALSE(recon::run_online_reconstruction(arr).is_ok());
}

TEST(MultiOnline, SingleReplicaOnlyFeaturesReturnStatus) {
  array::DiskArray arr(array_cfg(make(4, 2, true)));
  arr.initialize();
  arr.fail_physical(0);
  auto hedged = online_cfg(10);
  hedged.hedge.enabled = true;
  EXPECT_EQ(recon::run_online_reconstruction(arr, hedged).status().code(),
            ErrorCode::kInvalidArgument);
  auto second = online_cfg(10);
  second.second_failure_at_s = 1.0;
  second.second_failure_disk = 5;
  EXPECT_EQ(recon::run_online_reconstruction(arr, second).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(MultiOnline, ShiftedRebuildCompletesSoonerThanTraditional) {
  double done[2];
  for (const bool shifted : {false, true}) {
    array::DiskArray arr(array_cfg(make(5, 2, shifted)));
    arr.initialize();
    arr.fail_physical(0);
    auto report = recon::run_online_reconstruction(arr, online_cfg(200, 77));
    ASSERT_TRUE(report.is_ok());
    done[shifted ? 1 : 0] = report.value().rebuild_done_s;
  }
  EXPECT_LT(done[1], done[0]);
}

TEST(MultiOnline, WritesLandOnEveryLiveCopy) {
  const auto m = make(4, 2, true);
  auto cfg = array_cfg(m);
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(0);
  auto ocfg = online_cfg(100);
  ocfg.mix.write_fraction = 1.0;
  auto report = recon::run_online_reconstruction(arr, ocfg);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().user_writes, 100u);
  EXPECT_EQ(report.value().requests_completed, 100u);
  std::uint64_t writes = 0;
  for (int d = 0; d < arr.total_disks(); ++d)
    writes += arr.physical(d).counters().writes;
  // Three copies per element, minus the pieces that target the failed
  // disk: more than the two an R = 1 mirror would write.
  EXPECT_GT(writes, 200u);
  EXPECT_LE(writes, 300u);
}

TEST(MultiArray, NoFailureTrivialReport) {
  array::DiskArray arr(array_cfg(make(3, 2, true)));
  arr.initialize();
  auto report = recon::reconstruct(arr);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().logical_bytes_read, 0u);
}

TEST(MultiArray, SingleReplicaOnlyFeaturesReturnStatus) {
  const auto m = make(4, 2, true);
  EXPECT_FALSE(m.has_parity());  // parity factories build R = 1 only
  array::DiskArray arr(array_cfg(m));
  arr.initialize();
  EXPECT_EQ(recon::scrub(arr).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(integrity::resync(arr, {}).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(integrity::run_crash_workload(arr, {}).status().code(),
            ErrorCode::kInvalidArgument);
}

// --- differential check across R -----------------------------------------
// For every tolerated failure set, three independently computed numbers
// must agree: the planner's read_accesses, the max per-disk reads in
// the executed DiskArray trace of recon::reconstruct, and the max
// per-disk reads the online engine issues for the rebuild.

/// Max per-disk count of read service spans in `sink`.
int max_reads_per_disk(const obs::TraceSink& sink, int disks) {
  std::vector<int> per_disk(static_cast<std::size_t>(disks), 0);
  for (const auto& ev : sink.events())
    if (ev.kind == obs::EventKind::kServiceStart && !ev.write)
      ++per_disk[static_cast<std::size_t>(ev.disk)];
  return *std::max_element(per_disk.begin(), per_disk.end());
}

enum class Path { kDefault, kFaultAware, kOrchestrated };

class ReplicaDifferential
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ReplicaDifferential, PlannerExecutorAndOnlineAgree) {
  const auto [replicas, shifted] = GetParam();
  for (int n = 3; n <= 7; ++n) {
    const auto arch = make(n, replicas, shifted);
    std::vector<std::vector<int>> sets;
    for (int a = 0; a < arch.total_disks(); ++a) {
      sets.push_back({a});
      if (replicas >= 2)
        for (int b = a + 1; b < arch.total_disks(); ++b) sets.push_back({a, b});
    }
    auto cfg = array_cfg(arch, 1);
    cfg.rotate = false;
    for (const auto& failed : sets) {
      // Appended piecewise: `"literal" + std::string&&` trips a
      // -Wrestrict false positive in GCC 12's inlined insert().
      std::string label = arch.name();
      label += " n=";
      label += std::to_string(n);
      label += " fail";
      for (const int d : failed) {
        label += ' ';
        label += std::to_string(d);
      }
      SCOPED_TRACE(label);
      auto p = plan(arch, failed);
      ASSERT_TRUE(p.is_ok());
      const int planned = p.value().read_accesses(arch);

      // Every offline path: the default one times the plan's reads; the
      // fault-aware one (any non-inert profile — a slow factor changes
      // timing only) and the orchestrated one (checkpoint set) time the
      // reads recovery consumed, which must be the plan's copies.
      for (const Path path : {Path::kDefault, Path::kFaultAware,
                              Path::kOrchestrated}) {
        SCOPED_TRACE(static_cast<int>(path));
        obs::TraceSink offline_sink;
        obs::Observer offline_ob{&offline_sink, nullptr};
        auto path_cfg = cfg;
        if (path == Path::kFaultAware) path_cfg.fault.slow_factor = 2.0;
        array::DiskArray offline(path_cfg);
        offline.initialize();
        for (const int d : failed) offline.fail_physical(d);
        repair::RebuildCheckpoint ck;
        recon::ReconOptions opts;
        opts.observer = &offline_ob;
        if (path == Path::kOrchestrated) opts.checkpoint = &ck;
        auto rebuilt = recon::reconstruct(offline, opts);
        ASSERT_TRUE(rebuilt.is_ok()) << rebuilt.status().to_string();
        ASSERT_TRUE(offline.verify_all().is_ok());
        EXPECT_EQ(rebuilt.value().read_accesses_per_stripe, planned);
        EXPECT_EQ(max_reads_per_disk(offline_sink, arch.total_disks()),
                  planned);
      }

      obs::TraceSink online_sink;
      obs::Observer online_ob{&online_sink, nullptr};
      array::DiskArray online(cfg);
      for (const int d : failed) online.fail_physical(d);
      auto ocfg = online_cfg(0);
      ocfg.observer = &online_ob;
      auto served = recon::run_online_reconstruction(online, ocfg);
      ASSERT_TRUE(served.is_ok()) << served.status().to_string();
      EXPECT_EQ(max_reads_per_disk(online_sink, arch.total_disks()), planned);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RByArrangement, ReplicaDifferential,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Bool()));

}  // namespace
}  // namespace sma
