// fleet_serve: a quarter of bench_fleet's shifted+declustered cell,
// timed through fleet::run_fleet, plus a traced replay of run_fleet's steps (route,
// simulate, aggregate, timeline) through the layers' public functions.
#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "array/disk_array.hpp"
#include "fleet/digest.hpp"
#include "fleet/fleet.hpp"
#include "recon/online.hpp"
#include "recon/reliability.hpp"
#include "sim/multi_kernel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sma;

/// run_fleet's digest of this cell at seed offset 0 (bench_fleet's
/// committed sma_fleet.csv / BENCH_fleet.json value).
constexpr std::uint64_t kReferenceDigest = 0xa7b55c3e9bfb189eULL;

/// Arrays in the reference cell; the digest above is this size's.
constexpr int kReferenceArrays = 256;
/// A timed pass runs kFleets fleets of kArrays arrays, each a quarter of
/// the cell at the same per-array load, so a timed unit is short enough
/// to calibrate closely. Fleet k adds kFleetSeedStride * k to both
/// seeds, so fleet 0 is the seed's own. The traced run keeps the whole
/// cell, which has enough arrays for a p95.
constexpr int kArrays = 64;
constexpr int kFleets = 4;
constexpr std::uint64_t kFleetSeedStride = 1000003;

/// bench_fleet's cell scaled to `arrays` arrays at the same per-array
/// volumes, arrival rate, requests and failure fraction.
fleet::FleetConfig make_config(std::uint64_t seed, std::size_t threads,
                               int arrays) {
  fleet::FleetConfig cfg;
  cfg.arrays = arrays;
  cfg.n = 4;
  cfg.arrangement = fleet::ArrangementMix::kShifted;
  cfg.stacks = 64;
  cfg.placement.policy = fleet::PlacementPolicy::kDeclustered;
  cfg.placement.volumes = 4 * cfg.arrays;
  cfg.placement.segments_per_volume = 8;
  cfg.placement.spread = 4;
  cfg.arrival.rate_hz = 19.5 * cfg.arrays;
  cfg.arrival.max_requests = 250000 * arrays / kReferenceArrays;
  cfg.arrival.seed = 2012 + seed;
  cfg.failed_arrays = cfg.arrays / 32;
  cfg.seed = 20120901 + seed;
  cfg.threads = threads;
  return cfg;
}

/// The replay's report (the fields run_fleet's digest covers), plus its
/// own timings.
struct Replay {
  fleet::FleetReport report;
  std::uint64_t samples = 0;  // SampleSet::add calls
  std::vector<double> case_s;  // per-array build + serve host time
  double kernel_wall_s = 0.0;
  double steps_s = 0.0;  // placement + route + simulate + aggregate + timeline
};

struct ArrayOutcome {
  recon::OnlineReport report;
  Status status = Status::ok();
};

/// run_fleet for a shifted, non-parity, enum-arranged fleet, step by
/// step. Every statistic is computed exactly as run_fleet computes it,
/// so the digest must come out identical; the SampleSet work is split
/// into its own spans, one per set, as run_fleet splits the sets.
Result<Replay> replay_fleet(const fleet::FleetConfig& cfg, Tracer* tr) {
  Replay out;
  const double t_start = now_s();
  const layout::Architecture arch = layout::Architecture::mirror(cfg.n, true);
  const std::size_t arrays = static_cast<std::size_t>(cfg.arrays);

  fleet::PlacementConfig pc = cfg.placement;
  pc.arrays = cfg.arrays;
  Result<fleet::Placement> placed = invalid_argument("unbuilt");
  {
    Span span(tr, "fleet.placement");
    placed = fleet::build_placement(pc);
  }
  if (!placed.is_ok()) return placed.status();
  const fleet::Placement placement = std::move(placed).take();

  std::uint64_t seed_state = cfg.seed;
  std::vector<std::vector<workload::TracePoint>> traces(arrays);
  std::vector<std::vector<int>> trace_volume(arrays);
  std::vector<std::uint64_t> case_seeds(arrays);
  std::vector<int> failed_disk_of(arrays, -1);
  {
    Span span(tr, "workload.route");
    auto proc_r = workload::make_arrival_process(cfg.arrival);
    if (!proc_r.is_ok()) return proc_r.status();
    const auto proc = std::move(proc_r).take();
    Rng route_rng(splitmix64(seed_state));
    Rng fail_rng(splitmix64(seed_state));
    for (auto& s : case_seeds) s = splitmix64(seed_state);
    Rng arrival_rng(cfg.arrival.seed);
    double t = proc->first_arrival_s();
    for (int i = 0; i < cfg.arrival.max_requests; ++i) {
      const int v = static_cast<int>(
          route_rng.next_below(static_cast<std::uint64_t>(pc.volumes)));
      const int s = static_cast<int>(route_rng.next_below(
          static_cast<std::uint64_t>(pc.segments_per_volume)));
      const int forced = proc->write_override();
      const bool write = forced >= 0
                             ? forced == 1
                             : route_rng.next_bool(cfg.rw_mix.write_fraction);
      const std::size_t a = static_cast<std::size_t>(placement.array_of(v, s));
      traces[a].push_back({t, write});
      trace_volume[a].push_back(v);
      ++out.report.requests_routed;
      const double d = proc->next_delay(arrival_rng);
      if (d < 0.0) break;
      t += d;
    }
    std::vector<int> order(arrays);
    std::iota(order.begin(), order.end(), 0);
    for (int i = 0; i < cfg.failed_arrays; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) +
          static_cast<std::size_t>(fail_rng.next_below(
              static_cast<std::uint64_t>(cfg.arrays - i)));
      std::swap(order[static_cast<std::size_t>(i)], order[j]);
    }
    for (int i = 0; i < cfg.failed_arrays; ++i) {
      const std::size_t a =
          static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
      failed_disk_of[a] = static_cast<int>(fail_rng.next_below(
          static_cast<std::uint64_t>(arch.total_disks())));
    }
  }

  out.case_s.assign(arrays, 0.0);
  std::vector<ArrayOutcome> outcomes;
  {
    Span span(tr, "sim.multikernel");
    const int fanout = span.id();
    const double t0 = now_s();
    sim::MultiKernel kernel(sim::MultiKernelOptions{cfg.threads});
    outcomes = kernel.map(arrays, [&](std::size_t a) -> ArrayOutcome {
      ParentScope parent(fanout);
      const double c0 = now_s();
      ArrayOutcome res;
      array::ArrayConfig acfg;
      acfg.arch = arch;
      acfg.stripes = cfg.stacks * arch.total_disks();
      acfg.content_bytes = 64;
      std::optional<array::DiskArray> arr;
      {
        Span build(tr, "array.build");
        arr.emplace(acfg);
        if (failed_disk_of[a] >= 0) arr->fail_physical(failed_disk_of[a]);
      }
      recon::OnlineConfig ocfg;
      if (traces[a].empty()) {
        ocfg.arrival.kind = workload::ArrivalKind::kPoisson;
        ocfg.arrival.max_requests = 0;
      } else {
        ocfg.arrival.kind = workload::ArrivalKind::kTrace;
        ocfg.arrival.trace = traces[a];
        ocfg.arrival.max_requests = static_cast<int>(traces[a].size());
      }
      ocfg.arrival.seed = case_seeds[a];
      ocfg.record_latencies = true;
      {
        Span serve(tr, "recon.online");
        auto r = recon::run_online_reconstruction(*arr, ocfg);
        if (r.is_ok())
          res.report = std::move(r).take();
        else
          res.status = r.status();
      }
      out.case_s[a] = now_s() - c0;
      return res;
    });
    out.kernel_wall_s = now_s() - t0;
  }
  for (const ArrayOutcome& o : outcomes)
    if (!o.status.is_ok()) return o.status;

  fleet::FleetReport& rep = out.report;
  std::uint64_t digest = fleet::kDigestSeed;
  RunningStat rebuilds;
  int degraded_volumes = 0;
  {
    Span span(tr, "fleet.aggregate");
    // Gather first, in run_fleet's insertion order, so the SampleSet
    // spans below hold nothing but SampleSet calls.
    std::vector<double> all;
    all.reserve(static_cast<std::size_t>(rep.requests_routed));
    std::vector<std::vector<double>> per_volume(
        static_cast<std::size_t>(pc.volumes));
    for (std::size_t a = 0; a < arrays; ++a) {
      const recon::OnlineReport& r = outcomes[a].report;
      if (r.latencies.size() != traces[a].size())
        return internal_error("replay: latency record does not match trace");
      for (std::size_t i = 0; i < r.latencies.size(); ++i) {
        const double lat = r.latencies[i];
        if (lat < 0.0) continue;
        all.push_back(lat);
        per_volume[static_cast<std::size_t>(trace_volume[a][i])].push_back(lat);
      }
      rep.requests_completed += r.requests_completed;
      rep.degraded_reads += r.degraded_reads;
      if (failed_disk_of[a] >= 0) rebuilds.add(r.rebuild_done_s);
      digest = fleet::mix(digest, r.rebuild_done_s);
      digest = fleet::mix(digest,
                          static_cast<std::uint64_t>(r.requests_completed));
      digest = fleet::mix(digest, static_cast<std::uint64_t>(r.degraded_reads));
      digest = fleet::mix(digest, r.mean_latency_s);
      digest = fleet::mix(digest, r.p99_latency_s);
    }
    {
      Span sample(tr, "util.sampleset");
      SampleSet set;
      set.reserve(static_cast<std::size_t>(rep.requests_routed));
      for (const double lat : all) set.add(lat);
      if (!set.empty()) {
        rep.mean_latency_s = set.mean();
        rep.p99_latency_s = set.percentile(99.0);
        rep.p999_latency_s = set.percentile(99.9);
        rep.max_latency_s = set.max();
      }
    }
    out.samples += all.size();
    rep.mean_rebuild_s = rebuilds.mean();
    rep.max_rebuild_s = rebuilds.max();
    for (int v = 0; v < pc.volumes; ++v) {
      bool degraded = false;
      for (const int a : placement.arrays_of(v))
        if (failed_disk_of[static_cast<std::size_t>(a)] >= 0) degraded = true;
      const std::vector<double>& lats = per_volume[static_cast<std::size_t>(v)];
      double p99 = 0.0;
      {
        Span sample(tr, "util.sampleset");
        SampleSet set;
        for (const double lat : lats) set.add(lat);
        if (!set.empty()) {
          (void)set.mean();
          p99 = set.percentile(99.0);
        }
      }
      out.samples += lats.size();
      if (degraded) ++degraded_volumes;
      if (!lats.empty() && p99 > rep.worst_volume_p99_s)
        rep.worst_volume_p99_s = p99;
      if (degraded && !lats.empty() && p99 > rep.worst_degraded_volume_p99_s)
        rep.worst_degraded_volume_p99_s = p99;
    }
    rep.degraded_volume_fraction = static_cast<double>(degraded_volumes) /
                                   static_cast<double>(pc.volumes);
  }

  {
    Span span(tr, "fleet.timeline");
    fleet::TimelineConfig tc = cfg.timeline;
    tc.arrays = cfg.arrays;
    tc.seed = splitmix64(seed_state);
    if (cfg.derive_repair_hours && rep.mean_rebuild_s > 0.0)
      tc.repair_hours = rep.mean_rebuild_s * cfg.repair_capacity_scale / 3600.0;
    recon::MttdlParams mp;
    mp.disk_mttf_hours = tc.disk_mttf_hours;
    mp.mttr_hours = tc.repair_hours;
    double mttdl = 0.0;
    {
      Span closed(tr, "recon.estimate_mttdl");
      mttdl = recon::estimate_mttdl(arch, mp).mttdl_hours;
    }
    const double loss_rate =
        mttdl > 0.0 ? static_cast<double>(cfg.arrays) / mttdl : 0.0;
    rep.fleet_mttdl_hours = loss_rate > 0.0 ? 1.0 / loss_rate : 0.0;
    auto tl = fleet::run_failure_timeline(arch, tc);
    if (!tl.is_ok()) return tl.status();
    rep.timeline = std::move(tl).take();
  }
  out.steps_s = now_s() - t_start;

  digest = fleet::mix(digest, static_cast<std::uint64_t>(rep.requests_routed));
  digest = fleet::mix(digest, static_cast<std::uint64_t>(rep.requests_completed));
  digest = fleet::mix(digest, static_cast<std::uint64_t>(rep.degraded_reads));
  digest = fleet::mix(digest, rep.mean_latency_s);
  digest = fleet::mix(digest, rep.p99_latency_s);
  digest = fleet::mix(digest, rep.p999_latency_s);
  digest = fleet::mix(digest, rep.worst_volume_p99_s);
  digest = fleet::mix(digest, rep.worst_degraded_volume_p99_s);
  digest = fleet::mix(digest, rep.degraded_volume_fraction);
  digest = fleet::mix(digest, rep.mean_rebuild_s);
  digest = fleet::mix(digest, rep.max_rebuild_s);
  digest = fleet::mix(digest, rep.fleet_mttdl_hours);
  digest = fleet::mix(digest, rep.timeline.digest);
  rep.digest = digest;
  return out;
}

}  // namespace

RunResult run_fleet_serve(const RunOptions& opts) {
  RunResult res;
  Checks& checks = res.checks;
  MetricSet& m = res.metrics;

  // Set-up: the config, then one warm-up run_fleet of a timed unit's
  // size (the reference seeds' quarter cell). The warm-up ignores the
  // seed, so set-up does the same work at every seed.
  fleet::FleetConfig cfg;
  m.set("setup_s", cold_setup_s(kSetupReps, [&] {
    cfg = make_config(opts.seed, opts.threads,
                      opts.trace ? kReferenceArrays : kArrays);
    checks.expect(
        fleet::run_fleet(make_config(0, opts.threads, kArrays)).is_ok(),
        "warm-up run_fleet succeeds");
  }));

  std::vector<fleet::FleetReport> reports;
  auto fleet_pass = [&](const fleet::FleetConfig& fc) {
    auto r = fleet::run_fleet(fc);
    if (checks.expect(r.is_ok(), "run_fleet succeeds: " + r.status().to_string()))
      reports.push_back(std::move(r).take());
  };

  std::vector<double> pass_s;
  LayerPasses layers;
  std::vector<double> replay_traced_s;
  std::vector<double> replay_untraced_s;
  std::vector<double> coverage;
  std::vector<double> kernel_eff;
  std::vector<double> busy_s;
  std::vector<double> array_p50;
  std::vector<double> array_p95;
  double samples = 0.0;
  double routed = 0.0;
  if (!opts.trace) {
    std::vector<fleet::FleetConfig> fleets(kFleets, cfg);
    for (int k = 0; k < kFleets; ++k) {
      const std::uint64_t shift = kFleetSeedStride * static_cast<std::uint64_t>(k);
      fleets[k].seed += shift;
      fleets[k].arrival.seed += shift;
    }
    pass_s = calibrated_passes(opts.seconds, 3, kFleets,
                               [&](int k) { fleet_pass(fleets[k]); });
  } else {
    // Each round: one untraced run_fleet call, one untraced replay and
    // one traced replay, so run_fleet, the replay and the tracing
    // overhead are all measured under the same conditions.
    timed_passes(opts.seconds, 1, [&] {
      double t0 = now_s();
      fleet_pass(cfg);
      pass_s.push_back(now_s() - t0);

      t0 = now_s();
      auto plain = replay_fleet(cfg, nullptr);
      replay_untraced_s.push_back(now_s() - t0);
      checks.expect(plain.is_ok(), "untraced replay succeeds");

      Tracer tracer;
      t0 = now_s();
      auto traced = replay_fleet(cfg, &tracer);
      replay_traced_s.push_back(now_s() - t0);
      if (!checks.expect(traced.is_ok(), "traced replay succeeds: " +
                                             traced.status().to_string()) ||
          reports.empty())
        return;
      const Replay& rp = traced.value();
      layers.add(tracer.spans());
      const fleet::FleetReport& fr = reports.back();
      checks.expect(rp.report.requests_completed == fr.requests_completed,
                    "replay reproduces requests_completed");
      checks.expect(rp.report.p99_latency_s == fr.p99_latency_s,
                    "replay reproduces p99_latency_s");
      checks.expect(rp.report.worst_degraded_volume_p99_s ==
                        fr.worst_degraded_volume_p99_s,
                    "replay reproduces worst_degraded_volume_p99_s");
      checks.expect(rp.report.digest == fr.digest,
                    "replay reproduces the digest");
      coverage.push_back(rp.steps_s / pass_s.back());
      const double busy =
          std::accumulate(rp.case_s.begin(), rp.case_s.end(), 0.0);
      busy_s.push_back(busy);
      kernel_eff.push_back(busy / (rp.kernel_wall_s *
                                   static_cast<double>(cfg.threads)));
      array_p50.push_back(percentile(rp.case_s, 50.0));
      array_p95.push_back(percentile(rp.case_s, 95.0));
      checks.expect(reportable_percentile(rp.case_s.size()) >= 95.0,
                    "enough arrays to report a p95");
      samples = static_cast<double>(rp.samples);
      routed = static_cast<double>(rp.report.requests_routed);
    });
  }
  const double rss = peak_rss_mb();

  // Output checks: every pass agrees, a serial run agrees with the
  // parallel one, and the reference seed reproduces bench_fleet.
  const fleet::FleetReport* first = reports.empty() ? nullptr : &reports[0];
  // Reports per pass: one per fleet untraced, the whole cell traced.
  const std::size_t fleets = opts.trace ? 1 : kFleets;
  for (std::size_t i = 0; i < reports.size(); ++i)
    checks.expect(reports[i].digest == reports[i % fleets].digest,
                  "every pass gives the same digests");
  fleet::FleetConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  auto serial = fleet::run_fleet(serial_cfg);
  checks.expect(serial.is_ok() && first != nullptr &&
                    serial.value().digest == first->digest,
                "threads=1 digest equals the parallel digest");
  if (opts.seed == 0) {
    std::uint64_t digest = first != nullptr ? first->digest : 0;
    if (cfg.arrays != kReferenceArrays) {
      auto ref =
          fleet::run_fleet(make_config(0, opts.threads, kReferenceArrays));
      digest = ref.is_ok() ? ref.value().digest : 0;
    }
    checks.expect(digest == kReferenceDigest,
                  format("%d-array digest equals the reference %016llx",
                         kReferenceArrays,
                         static_cast<unsigned long long>(kReferenceDigest)));
  }
  if (first == nullptr) return res;

  double completed = 0.0;  // per pass, over its fleets
  for (std::size_t i = 0; i < std::min(fleets, reports.size()); ++i)
    completed += static_cast<double>(reports[i].requests_completed);
  res.notes.push_back(format(
      "fleet_serve: %zu x %d arrays, %zu threads, %.0f requests per pass; %s",
      fleets, cfg.arrays, cfg.threads, completed,
      describe_passes(pass_s).c_str()));
  res.notes.push_back(format(
      "fleet_serve: simulated mean rebuild %.6f s, p99 %.6f s, worst degraded "
      "volume p99 %.6f s, digest %016llx",
      first->mean_rebuild_s, first->p99_latency_s,
      first->worst_degraded_volume_p99_s,
      static_cast<unsigned long long>(first->digest)));

  if (!opts.trace) {
    m.set("host_rate", completed / median(pass_s));
    m.set("peak_rss_mb", rss);
    return res;
  }
  m.set("sim_rebuild_s", first->mean_rebuild_s);
  m.set("sim_read_p99_s", first->p99_latency_s);
  m.set("sim_degraded_volume_p99_s", first->worst_degraded_volume_p99_s);
  m.set("bench.trace_overhead",
        median(replay_traced_s) / median(replay_untraced_s));
  m.set("util.sampleset_s", layers.self_s("util.sampleset"));
  m.set("util.samples", samples);
  m.set("fleet.run_s", median(pass_s));
  m.set("fleet.placement_s", layers.self_s("fleet.placement"));
  m.set("workload.route_s", layers.self_s("workload.route"));
  m.set("workload.requests_routed", routed);
  m.set("fleet.aggregate_s", layers.self_s("fleet.aggregate"));
  m.set("fleet.timeline_s", layers.self_s("fleet.timeline"));
  m.set("fleet.replay_coverage", median(coverage));
  m.set("sim.multikernel_wall_s", layers.total_s("sim.multikernel"));
  m.set("sim.multikernel_efficiency", median(kernel_eff));
  m.set("recon.online_busy_s", median(busy_s));
  m.set("recon.online_array_p50_s", median(array_p50));
  m.set("recon.online_array_p95_s", median(array_p95));
  m.set("array.build_s", layers.self_s("array.build"));
  m.set("recon.online_s", layers.self_s("recon.online"));
  m.set("recon.requests", completed);
  m.set("recon.degraded_reads", static_cast<double>(first->degraded_reads));
  m.set("recon.estimate_mttdl_s", layers.self_s("recon.estimate_mttdl"));
  return res;
}

}  // namespace perfbench
