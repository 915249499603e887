// One offline rebuild, however it is driven. recon::reconstruct must
// report the same ReconReport, field for field, whether or not a fault
// profile is armed (as long as it never fires) and whether or not a
// checkpoint is attached (a fresh checkpoint changes nothing but the
// bookkeeping). Also pins the crash semantics of an un-checkpointed
// rebuild: a power loss mid-rebuild leaves the failed disks failed.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "integrity/resync.hpp"
#include "recon/executor.hpp"
#include "recon/failure.hpp"
#include "recon/reliability.hpp"
#include "repair/checkpoint.hpp"

namespace sma::recon {
namespace {

/// Families covered: every mirror arrangement at R = 1 (with and
/// without parity where the layout allows it), R = 2, RAID-5, RAID-6.
constexpr const char* kFamilies[] = {
    "traditional", "shifted",       "traditional+parity", "shifted+parity",
    "zigzag",      "lrc:groups=2",  "pyramid:groups=2",   "iterated:3",
    "shifted*2",   "traditional*2", "raid5",              "raid6"};

layout::Architecture make_arch(const std::string& family, int n) {
  if (family == "raid5") return layout::Architecture::raid5(n);
  if (family == "raid6") return layout::Architecture::raid6(n);
  const auto plus = family.find('+');
  if (plus != std::string::npos) {
    auto arch = layout::Architecture::mirror_with_parity_named(
        n, family.substr(0, plus));
    EXPECT_TRUE(arch.is_ok()) << family << ": " << arch.status().to_string();
    return std::move(arch).take();
  }
  const auto star = family.find('*');
  const int replicas = star == std::string::npos ? 1 : family[star + 1] - '0';
  auto arch = layout::Architecture::mirror_named(n, family.substr(0, star),
                                                 replicas);
  EXPECT_TRUE(arch.is_ok()) << family << ": " << arch.status().to_string();
  return std::move(arch).take();
}

array::ArrayConfig cfg_for(const layout::Architecture& arch) {
  array::ArrayConfig cfg;
  cfg.arch = arch;
  cfg.stripes = arch.total_disks();  // one full stack
  cfg.content_bytes = 32;
  cfg.logical_element_bytes = 4'000'000;
  cfg.seed = 7;
  return cfg;
}

/// Every failure set the architecture tolerates: each single failure,
/// plus each recoverable double failure.
std::vector<std::vector<int>> tolerated_failures(
    const layout::Architecture& arch) {
  auto sets = enumerate_single_failures(arch);
  if (arch.fault_tolerance() >= 2)
    for (auto& f : enumerate_double_failures(arch))
      if (is_recoverable(arch, f)) sets.push_back(std::move(f));
  return sets;
}

struct RebuildRun {
  Status status;
  ReconReport report;
  std::vector<int> failed_after;
};

RebuildRun rebuild(const array::ArrayConfig& cfg,
                   const std::vector<int>& failed, ReconOptions opts,
                   bool with_checkpoint) {
  array::DiskArray arr(cfg);
  arr.initialize();
  for (const int d : failed) arr.fail_physical(d);
  repair::RebuildCheckpoint ck;
  if (with_checkpoint) opts.checkpoint = &ck;
  auto r = reconstruct(arr, opts);
  RebuildRun run;
  run.status = r.status();
  if (r.is_ok()) run.report = r.value();
  run.failed_after = arr.failed_physical();
  return run;
}

void expect_same(const RebuildRun& a, const RebuildRun& b,
                 const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(a.status.code(), b.status.code())
      << a.status.to_string() << " vs " << b.status.to_string();
  const ReconReport& x = a.report;
  const ReconReport& y = b.report;
  EXPECT_EQ(x.read_makespan_s, y.read_makespan_s);
  EXPECT_EQ(x.total_makespan_s, y.total_makespan_s);
  EXPECT_EQ(x.logical_bytes_read, y.logical_bytes_read);
  EXPECT_EQ(x.logical_bytes_recovered, y.logical_bytes_recovered);
  EXPECT_EQ(x.read_accesses_per_stripe, y.read_accesses_per_stripe);
  EXPECT_EQ(x.stripe_read_done_s, y.stripe_read_done_s);
  EXPECT_EQ(x.retried_ops, y.retried_ops);
  EXPECT_EQ(x.hard_errors, y.hard_errors);
  EXPECT_EQ(x.latent_sectors_hit, y.latent_sectors_hit);
  EXPECT_EQ(x.fallback_to_mirror, y.fallback_to_mirror);
  EXPECT_EQ(x.fallback_to_parity, y.fallback_to_parity);
  EXPECT_EQ(x.fallback_to_codec, y.fallback_to_codec);
  EXPECT_EQ(x.unrecoverable_elements, y.unrecoverable_elements);
  EXPECT_EQ(x.stripes_processed, y.stripes_processed);
  EXPECT_EQ(x.stripes_skipped, y.stripes_skipped);
  EXPECT_EQ(x.elements_read, y.elements_read);
  EXPECT_EQ(x.elements_written, y.elements_written);
  EXPECT_EQ(x.completed, y.completed);
  EXPECT_EQ(a.failed_after, b.failed_after);
}

std::string describe(const std::vector<int>& failed, const ReconOptions& o) {
  std::string s = "failed={";
  for (const int d : failed) s += std::to_string(d) + ",";
  s += "} pipelined=" + std::to_string(o.pipelined) +
       " parity_rebuild=" + std::to_string(o.include_parity_rebuild);
  return s;
}

class ExecutorPaths
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

// A fault profile that is armed but never fires must not move a single
// number: the rebuild times the reads recovery consumed either way.
TEST_P(ExecutorPaths, ArmedSilentProfileMatchesInert) {
  const auto [family, n] = GetParam();
  const auto arch = make_arch(family, n);
  const auto inert = cfg_for(arch);
  auto armed = inert;
  armed.fault.transient_read_error_p = 1e-9;
  armed.fault.transient_from_s = 1e12;  // far beyond any rebuild
  for (const auto& failed : tolerated_failures(arch)) {
    for (const bool pipelined : {false, true}) {
      for (const bool parity_rebuild : {false, true}) {
        ReconOptions opts;
        opts.pipelined = pipelined;
        opts.include_parity_rebuild = parity_rebuild;
        expect_same(rebuild(inert, failed, opts, false),
                    rebuild(armed, failed, opts, false),
                    describe(failed, opts));
      }
    }
  }
}

// A fresh checkpoint (nothing covered yet) rebuilds every stripe in
// full, exactly as the un-checkpointed pipelined rebuild does.
TEST_P(ExecutorPaths, FreshCheckpointMatchesPipelined) {
  const auto [family, n] = GetParam();
  const auto arch = make_arch(family, n);
  const auto cfg = cfg_for(arch);
  for (const auto& failed : tolerated_failures(arch)) {
    for (const bool parity_rebuild : {false, true}) {
      ReconOptions opts;
      opts.pipelined = true;
      opts.include_parity_rebuild = parity_rebuild;
      expect_same(rebuild(cfg, failed, opts, false),
                  rebuild(cfg, failed, opts, true), describe(failed, opts));
    }
  }
}

// Latent sectors and transient read/write errors that do fire: the
// checkpoint still changes nothing, retries included (a transient error
// on a replacement disk's restored slot is retried, not a hard error).
TEST_P(ExecutorPaths, ActiveFaultsMatchWithAndWithoutCheckpoint) {
  const auto [family, n] = GetParam();
  const auto arch = make_arch(family, n);
  auto cfg = cfg_for(arch);
  cfg.stripes = 3 * arch.total_disks();  // enough I/O for faults to fire
  cfg.fault.latent_error_rate = 0.03;
  cfg.fault.transient_read_error_p = 0.05;
  cfg.fault.transient_write_error_p = 0.02;
  cfg.fault.seed = 5;
  cfg.io_max_retries = 3;
  std::uint64_t retried = 0;
  for (const auto& failed : enumerate_single_failures(arch)) {
    ReconOptions opts;
    opts.pipelined = true;
    const RebuildRun plain = rebuild(cfg, failed, opts, false);
    expect_same(plain, rebuild(cfg, failed, opts, true),
                describe(failed, opts));
    retried += plain.report.retried_ops;
  }
  EXPECT_GT(retried, 0u) << "the profile must actually fire";
}

/// Each family at n = 3 and 5; the grouped layouts need an even n
/// (groups=2 must divide it), so they run at n = 4 and 6.
std::vector<std::tuple<const char*, int>> family_cases() {
  std::vector<std::tuple<const char*, int>> cases;
  for (const char* family : kFamilies) {
    const bool grouped = std::string(family).find("groups=2") !=
                         std::string::npos;
    for (const int n : {3, 5}) cases.emplace_back(family, grouped ? n + 1 : n);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExecutorPaths, ::testing::ValuesIn(family_cases()),
    [](const auto& info) {
      std::string name;
      for (const char c : std::string(std::get<0>(info.param)))
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
      return name + "_n" + std::to_string(std::get<1>(info.param));
    });

// A power loss inside the rebuild's write phase interrupts it: the
// report says so, the failed disk stays failed (never healed over torn
// writes), and power-cycle + resync + a second rebuild recover fully.
class ExecutorCrash : public ::testing::TestWithParam<bool> {};

TEST_P(ExecutorCrash, CrashMidRebuildLeavesDiskFailedThenRecovers) {
  const bool pipelined = GetParam();
  const auto arch = layout::Architecture::mirror_with_parity(4, true);
  auto cfg = cfg_for(arch);
  // rows * stripes replacement writes; crash a few in.
  cfg.fault.crash_after_writes = 5;
  array::DiskArray arr(cfg);
  arr.initialize();
  arr.fail_physical(1);
  ReconOptions opts;
  opts.pipelined = pipelined;
  auto first = reconstruct(arr, opts);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(first.value().completed);
  EXPECT_TRUE(arr.crashed());
  EXPECT_EQ(arr.failed_physical(), std::vector<int>{1});

  ASSERT_TRUE(arr.power_cycle().is_ok());
  auto rs = integrity::resync(arr);
  ASSERT_TRUE(rs.is_ok()) << rs.status().to_string();
  auto second = reconstruct(arr, opts);
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_TRUE(second.value().completed);
  EXPECT_TRUE(arr.failed_physical().empty());
  EXPECT_TRUE(arr.verify_all().is_ok());
}

INSTANTIATE_TEST_SUITE_P(Timing, ExecutorCrash, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "Pipelined"
                                                          : "Barrier");
                         });

}  // namespace
}  // namespace sma::recon
