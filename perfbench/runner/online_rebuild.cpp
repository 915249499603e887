// online_rebuild: one shifted mirror array rebuilding disk 0 online
// while serving an open-loop Poisson stream of reads and writes.
#include <algorithm>
#include <optional>
#include <vector>

#include "array/disk_array.hpp"
#include "obs/observer.hpp"
#include "recon/online.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sma;

struct Inputs {
  array::ArrayConfig array;
  recon::OnlineConfig online;
};

/// A timed pass serves kStreams arrival streams, one online rebuild
/// each; stream k is seeded arrival.seed + kStreamSeedStride * k, so
/// stream 0 is the reference stream. Averaging over streams keeps the
/// host cost of a pass from following one stream's luck. The traced run
/// serves stream 0 only.
constexpr int kStreams = 4;
constexpr std::uint64_t kStreamSeedStride = 1000003;

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.array.arch = layout::Architecture::mirror(8, true);
  in.array.stripes = 1024 * in.array.arch.total_disks();
  in.array.content_bytes = 64;  // timing-only run; contents never read
  in.online.arrival.kind = workload::ArrivalKind::kPoisson;
  in.online.arrival.rate_hz = 60.0;
  in.online.arrival.max_requests = 100000;
  in.online.arrival.seed = 7 + seed;
  in.online.mix.write_fraction = 0.3;
  return in;
}

/// Every field of the report except the optional latency record.
bool same_report(const recon::OnlineReport& a, const recon::OnlineReport& b) {
  return a.rebuild_done_s == b.rebuild_done_s && a.user_reads == b.user_reads &&
         a.user_writes == b.user_writes &&
         a.requests_issued == b.requests_issued &&
         a.requests_completed == b.requests_completed &&
         a.degraded_reads == b.degraded_reads &&
         a.mean_latency_s == b.mean_latency_s &&
         a.p50_latency_s == b.p50_latency_s &&
         a.p95_latency_s == b.p95_latency_s &&
         a.p99_latency_s == b.p99_latency_s &&
         a.p999_latency_s == b.p999_latency_s &&
         a.max_latency_s == b.max_latency_s &&
         a.mean_degraded_latency_s == b.mean_degraded_latency_s &&
         a.mean_write_latency_s == b.mean_write_latency_s &&
         a.p99_write_latency_s == b.p99_write_latency_s &&
         a.second_failure_injected == b.second_failure_injected &&
         a.slo_violations == b.slo_violations &&
         a.final_rebuild_budget == b.final_rebuild_budget &&
         a.io_retries == b.io_retries && a.io_failures == b.io_failures &&
         a.fail_stops_absorbed == b.fail_stops_absorbed &&
         a.hedged_reads == b.hedged_reads && a.final_state == b.final_state &&
         a.state_changes == b.state_changes;
}

/// One pass: build the array, fail disk 0, serve and rebuild.
Result<recon::OnlineReport> serve(const Inputs& in, Tracer* tr,
                                  const recon::OnlineConfig& online) {
  std::optional<array::DiskArray> arr;
  {
    Span span(tr, "array.build");
    arr.emplace(in.array);
    arr->fail_physical(0);
  }
  Span span(tr, "recon.online");
  return recon::run_online_reconstruction(*arr, online);
}

/// Simulated disk statistics from an observer-attached pass.
struct DiskStats {
  double util_max = 0.0;
  double util_imbalance = 0.0;
  double qdepth_max = 0.0;
};

DiskStats disk_stats(const obs::MetricsRegistry& metrics, int disks,
                     double rebuild_done_s) {
  // Probes register per disk in a fixed order: util, qdepth,
  // rebuild_mbps, user_mbps, retries (see bench_disk_timeline).
  constexpr int kPerDisk = 5;
  DiskStats out;
  std::vector<double> util_sum(static_cast<std::size_t>(disks), 0.0);
  std::size_t rows = 0;
  for (const auto& row : metrics.timeline()) {
    if (row.values.size() != static_cast<std::size_t>(disks * kPerDisk))
      continue;
    const bool in_rebuild = row.t_s <= rebuild_done_s;
    if (in_rebuild) ++rows;
    for (int d = 0; d < disks; ++d) {
      const std::size_t base = static_cast<std::size_t>(d * kPerDisk);
      if (in_rebuild) util_sum[static_cast<std::size_t>(d)] += row.values[base];
      out.qdepth_max = std::max(out.qdepth_max, row.values[base + 1]);
    }
  }
  // Surviving disks only: disk 0 is the failed one.
  double total = 0.0;
  for (int d = 1; d < disks; ++d) {
    const double mean =
        rows > 0 ? util_sum[static_cast<std::size_t>(d)] / static_cast<double>(rows)
                 : 0.0;
    out.util_max = std::max(out.util_max, mean);
    total += mean;
  }
  const double mean = total / static_cast<double>(disks - 1);
  out.util_imbalance = mean > 0.0 ? out.util_max / mean : 0.0;
  return out;
}

/// One completed request, as the online engine's SampleSets receive it.
struct Completion {
  int id = -1;  // request id, in issue order
  double arrival_s = 0.0;
  double latency = 0.0;
  bool write = false;
  bool degraded = false;
};

/// The requests of an observer-attached pass in the engine's completion
/// order, read from its trace. A request completes with its last piece;
/// a piece completes at the kServiceEnd its disk records right after the
/// piece's kQueueLeave, and pieces completing at the same simulated time
/// complete in dispatch order (the kernel's FIFO rule for equal times).
/// A read is degraded when its piece is served by a disk that is not a
/// data disk. Returns an empty vector on a trace of another shape.
std::vector<Completion> completion_order(
    const std::vector<obs::TraceEvent>& events, const array::DiskArray& arr) {
  struct Piece {
    double done_s;
    int id;
  };
  std::vector<Completion> by_id;
  std::vector<int> pieces_left;
  std::vector<Piece> pieces;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    if (e.kind == obs::EventKind::kRequestArrive) {
      if (e.request_id != static_cast<int>(by_id.size())) return {};
      by_id.push_back({e.request_id, e.t_s, 0.0, e.write, false});
      pieces_left.push_back(0);
      continue;
    }
    if (e.kind != obs::EventKind::kQueueLeave || e.request_id < 0) continue;
    if (i + 2 >= events.size() || e.request_id >= static_cast<int>(by_id.size()))
      return {};
    const obs::TraceEvent& end = events[i + 2];
    if (end.kind != obs::EventKind::kServiceEnd || end.disk != e.disk) return {};
    const auto id = static_cast<std::size_t>(e.request_id);
    pieces.push_back({end.t_s, e.request_id});
    ++pieces_left[id];
    if (!e.write && arr.config().arch.role_of(arr.logical_disk(e.disk, e.stripe)) !=
                        layout::DiskRole::kData)
      by_id[id].degraded = true;
  }
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Piece& a, const Piece& b) { return a.done_s < b.done_s; });
  std::vector<Completion> order;
  order.reserve(by_id.size());
  for (const Piece& p : pieces) {
    const auto id = static_cast<std::size_t>(p.id);
    if (--pieces_left[id] != 0) continue;
    by_id[id].latency = p.done_s - by_id[id].arrival_s;
    order.push_back(by_id[id]);
  }
  return order;
}

/// What the engine's SampleSets give for a replayed run.
struct Replayed {
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t degraded = 0;
  double read_p99 = 0.0;
  double write_p99 = 0.0;
  double degraded_mean = 0.0;
};

/// Replays completions into SampleSets the way the online engine feeds
/// them: reads, degraded reads and writes in separate sets, in
/// completion order, with the same summary statistics taken.
Replayed replay_samples(const std::vector<Completion>& order, Tracer* tr) {
  Span span(tr, "util.sampleset");
  SampleSet reads;
  SampleSet degraded;
  SampleSet writes;
  for (const Completion& c : order) {
    if (c.write) {
      writes.add(c.latency);
      continue;
    }
    reads.add(c.latency);
    if (c.degraded) degraded.add(c.latency);
  }
  Replayed out;
  out.reads = reads.count();
  out.writes = writes.count();
  out.degraded = degraded.count();
  if (!reads.empty()) {
    (void)reads.mean();
    (void)reads.percentile(50);
    (void)reads.percentile(95);
    out.read_p99 = reads.percentile(99);
    (void)reads.percentile(99.9);
    (void)reads.max();
  }
  if (!degraded.empty()) out.degraded_mean = degraded.mean();
  if (!writes.empty()) {
    (void)writes.mean();
    out.write_p99 = writes.percentile(99);
  }
  return out;
}

}  // namespace

RunResult run_online_rebuild(const RunOptions& opts) {
  RunResult res;
  Checks& checks = res.checks;
  MetricSet& m = res.metrics;

  // Set-up: the inputs, then one warm-up pass of the reference inputs
  // on a 256-stack array with a quarter of the requests. The warm-up
  // ignores the seed, so set-up does the same work at every seed.
  Inputs in;
  m.set("setup_s", cold_setup_s(kSetupReps, [&] {
    in = make_inputs(opts.seed);
    Inputs warm = make_inputs(0);
    warm.array.stripes /= 4;
    warm.online.arrival.max_requests /= 4;
    checks.expect(serve(warm, nullptr, warm.online).is_ok(),
                  "warm-up pass succeeds");
  }));

  // The traced run records per-request latencies in every pass, its
  // untraced comparison passes included, to check the SampleSet replay
  // against (bookkeeping only; the report must not change).
  recon::OnlineConfig online = in.online;
  online.record_latencies = opts.trace;

  std::vector<recon::OnlineReport> reports;
  auto pass = [&](Tracer* tr, const recon::OnlineConfig& cfg) {
    auto r = serve(in, tr, cfg);
    if (checks.expect(r.is_ok(), "online rebuild succeeds: " +
                                     r.status().to_string()))
      reports.push_back(std::move(r).take());
  };

  std::vector<double> pass_s;
  std::vector<double> traced_s;
  LayerPasses layers;
  std::vector<Completion> order;
  std::size_t replayed_samples = 0;
  // Reports per pass: one per stream untraced, stream 0 only traced.
  const std::size_t streams = opts.trace ? 1 : kStreams;
  if (!opts.trace) {
    std::vector<recon::OnlineConfig> stream_cfg(kStreams, online);
    for (int k = 0; k < kStreams; ++k)
      stream_cfg[k].arrival.seed +=
          kStreamSeedStride * static_cast<std::uint64_t>(k);
    pass_s = calibrated_passes(opts.seconds, 3, kStreams,
                               [&](int k) { pass(nullptr, stream_cfg[k]); });
  } else {
    // The engine's completion order, from one trace-sink pass.
    std::optional<recon::OnlineReport> sink_report;
    {
      obs::TraceSink sink;
      obs::Observer sink_ob;
      sink_ob.trace = &sink;
      recon::OnlineConfig sink_cfg = online;
      sink_cfg.observer = &sink_ob;
      auto r = serve(in, nullptr, sink_cfg);
      if (checks.expect(r.is_ok(), "trace-sink pass succeeds")) {
        const array::DiskArray layout_view(in.array);
        order = completion_order(sink.events(), layout_view);
        checks.expect(order.size() == r.value().requests_completed,
                      "the trace gives a completion for every completed request");
        sink_report = std::move(r).take();
      }
    }
    timed_passes(opts.seconds, 1, [&] {
      double t0 = now_s();
      pass(nullptr, online);
      pass_s.push_back(now_s() - t0);
      Tracer tracer;
      t0 = now_s();
      pass(&tracer, online);
      traced_s.push_back(now_s() - t0);
      if (reports.empty()) return;
      const recon::OnlineReport& traced = reports.back();
      // The replay must add in the engine's order to pay the engine's
      // SampleSet cost. Each request's latency as the traced pass
      // recorded it must be the one the trace gives, and its completion
      // time (arrival + recorded latency, equal up to rounding) must
      // never go back along the replay order.
      bool same_latencies = order.size() == traced.latencies.size();
      std::size_t inversions = 0;
      double latest_s = 0.0;
      for (const Completion& c : order) {
        if (!same_latencies) break;
        const double latency = traced.latencies[static_cast<std::size_t>(c.id)];
        same_latencies = latency == c.latency;
        const double done_s = c.arrival_s + latency;
        if (done_s < latest_s - 1e-9) ++inversions;
        latest_s = std::max(latest_s, done_s);
      }
      checks.expect(same_latencies,
                    "the trace reproduces every recorded latency");
      checks.expect(inversions == 0,
                    format("the replay adds in completion order (%zu inversions)",
                           inversions));
      const Replayed rp = replay_samples(order, &tracer);
      replayed_samples = rp.reads + rp.writes + rp.degraded;
      checks.expect(rp.reads == traced.user_reads &&
                        rp.writes == traced.user_writes &&
                        rp.degraded == traced.degraded_reads,
                    "SampleSet replay adds every read, write and degraded read");
      checks.expect(rp.read_p99 == traced.p99_latency_s &&
                        rp.write_p99 == traced.p99_write_latency_s &&
                        rp.degraded_mean == traced.mean_degraded_latency_s,
                    "SampleSet replay reproduces the read and write p99 and "
                    "the degraded-read mean");
      layers.add(tracer.spans());
    });
    if (sink_report && !reports.empty())
      checks.expect(same_report(*sink_report, reports.front()),
                    "trace-sink pass report equals the unobserved one");
  }
  const double rss = peak_rss_mb();

  // Observed pass: per-disk timelines sampled on simulated time. The
  // observer turns batched drains off, so this also checks that the
  // per-element path gives the same answer.
  obs::MetricsRegistry metrics;
  metrics.set_sample_interval(1.0);
  obs::Observer ob;
  ob.metrics = &metrics;
  recon::OnlineConfig observed = online;
  observed.observer = &ob;
  const double t0 = now_s();
  auto observed_r = serve(in, nullptr, observed);
  const double observed_s = now_s() - t0;

  if (reports.empty()) return res;
  const recon::OnlineReport& first = reports.front();
  for (std::size_t i = 0; i < reports.size(); ++i)
    checks.expect(same_report(reports[i], reports[i % streams]),
                  "every pass gives the same reports");
  checks.expect(observed_r.is_ok() && same_report(observed_r.value(), first),
                "observed pass report equals the unobserved one");
  double completed = 0.0;  // per pass, over its streams
  for (std::size_t i = 0; i < std::min(streams, reports.size()); ++i) {
    checks.expect(reports[i].requests_completed == reports[i].requests_issued,
                  "every issued request completes");
    completed += static_cast<double>(reports[i].requests_completed);
  }
  if (opts.seed == 0) {
    checks.expect(format("%.1f", first.rebuild_done_s) == "1941.5",
                  "reference rebuild time 1941.5 s");
    checks.expect(format("%.4f", first.p99_latency_s) == "0.2745",
                  "reference read p99 0.2745 s");
    checks.expect(format("%.4f", first.p99_write_latency_s) == "0.2563",
                  "reference write p99 0.2563 s");
  }

  res.notes.push_back(format(
      "online_rebuild: %zu streams, %.0f requests per pass; %s", streams,
      completed, describe_passes(pass_s).c_str()));
  res.notes.push_back(format(
      "online_rebuild: simulated rebuild %.6f s, read p99 %.6f s, write p99 "
      "%.6f s, %zu degraded reads",
      first.rebuild_done_s, first.p99_latency_s, first.p99_write_latency_s,
      first.degraded_reads));

  if (!opts.trace) {
    m.set("host_rate", completed / median(pass_s));
    m.set("peak_rss_mb", rss);
    return res;
  }
  const DiskStats ds = disk_stats(metrics, in.array.arch.total_disks(),
                                  first.rebuild_done_s);
  m.set("sim_rebuild_s", first.rebuild_done_s);
  m.set("sim_read_p99_s", first.p99_latency_s);
  m.set("sim_write_p99_s", first.p99_write_latency_s);
  m.set("bench.trace_overhead", median(traced_s) / median(pass_s));
  m.set("util.sampleset_s", layers.self_s("util.sampleset"));
  m.set("util.samples", static_cast<double>(replayed_samples));
  m.set("array.build_s", layers.self_s("array.build"));
  m.set("recon.online_s", layers.self_s("recon.online"));
  m.set("recon.online_self_s", std::max(0.0, layers.self_s("recon.online") -
                                                 layers.self_s("util.sampleset")));
  m.set("recon.requests", completed);
  m.set("recon.degraded_reads", static_cast<double>(first.degraded_reads));
  m.set("disk.util_max", ds.util_max);
  m.set("disk.util_imbalance", ds.util_imbalance);
  m.set("disk.qdepth_max", ds.qdepth_max);
  m.set("obs.observed_slowdown", observed_s / median(pass_s));
  return res;
}

}  // namespace perfbench
