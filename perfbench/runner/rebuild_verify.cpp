// rebuild_verify: byte-verified offline repair of every single and
// double failure of the mirror+parity arrays and every double failure
// of RAID-6, each on a freshly initialized one-stack array.
#include <optional>
#include <vector>

#include "array/disk_array.hpp"
#include "gf/region.hpp"
#include "recon/analytic.hpp"
#include "recon/executor.hpp"
#include "recon/plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sma;

constexpr int kN = 8;
constexpr std::size_t kElementBytes = 4096;

struct Case {
  std::size_t arch = 0;  // index into Inputs::archs
  std::vector<int> failed;
  /// A double failure of the shifted mirror+parity array: one of the
  /// cases Table I averages.
  bool table1 = false;
};

struct Inputs {
  /// Seeds the stored data pattern; the failure cases are the same at
  /// every seed.
  std::uint64_t content_seed = 1;
  std::vector<layout::Architecture> archs;
  std::vector<Case> cases;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.content_seed = 1 + seed;
  in.archs = {layout::Architecture::mirror_with_parity(kN, true),
              layout::Architecture::mirror_with_parity(kN, false),
              layout::Architecture::raid6(kN)};
  for (std::size_t a = 0; a < in.archs.size(); ++a) {
    const int disks = in.archs[a].total_disks();
    const bool mirror = in.archs[a].is_mirror();
    for (int i = 0; i < disks; ++i) {
      if (mirror) in.cases.push_back({a, {i}, false});
      for (int j = i + 1; j < disks; ++j)
        in.cases.push_back({a, {i, j}, mirror && in.archs[a].is_shifted()});
    }
  }
  return in;
}

/// A pass is kSlices slices, slice s holding every kSlices-th case from
/// case s on, so each slice mixes the architectures as the pass does.
constexpr int kSlices = 16;

struct PassOutput {
  std::uint64_t stripes = 0;
  std::uint64_t elements_read = 0;
  std::uint64_t elements_written = 0;
  long table1_sum = 0;  // planned read accesses over the Table I cases
  long table1_cases = 0;
  std::vector<double> case_s;

  double table1_accesses() const {
    return table1_cases > 0 ? static_cast<double>(table1_sum) /
                                  static_cast<double>(table1_cases)
                            : 0.0;
  }
  void add(const PassOutput& o) {
    stripes += o.stripes;
    elements_read += o.elements_read;
    elements_written += o.elements_written;
    table1_sum += o.table1_sum;
    table1_cases += o.table1_cases;
    case_s.insert(case_s.end(), o.case_s.begin(), o.case_s.end());
  }
};

/// Cases first, first + step, ... of the inputs. Each case plans,
/// builds, initializes, fails, reconstructs and verifies its own array.
PassOutput run_cases(const Inputs& in, Tracer* tr, Checks& checks,
                     std::size_t first = 0, std::size_t step = 1) {
  PassOutput out;
  for (std::size_t i = first; i < in.cases.size(); i += step) {
    const Case& c = in.cases[i];
    const double t0 = now_s();
    const layout::Architecture& arch = in.archs[c.arch];
    int plan_accesses = -1;
    {
      Span span(tr, "recon.plan");
      auto plan = recon::plan_reconstruction(arch, c.failed);
      if (plan.is_ok()) plan_accesses = plan.value().read_accesses(arch);
    }
    array::ArrayConfig cfg;
    cfg.arch = arch;
    cfg.stripes = arch.total_disks();  // one stack
    cfg.content_bytes = kElementBytes;
    cfg.seed = in.content_seed;
    std::optional<array::DiskArray> arr;
    {
      Span span(tr, "array.build");
      arr.emplace(cfg);
    }
    {
      Span span(tr, "array.initialize");
      arr->initialize();
    }
    for (const int d : c.failed) arr->fail_physical(d);
    Result<recon::ReconReport> rep = invalid_argument("not run");
    {
      Span span(tr, "recon.reconstruct");
      rep = recon::reconstruct(*arr);
    }
    Status verified = Status::ok();
    {
      Span span(tr, "array.verify");
      verified = arr->verify_all();
    }
    out.case_s.push_back(now_s() - t0);
    auto label = [&](const char* what) {
      std::string failed;
      for (const int d : c.failed) {
        if (!failed.empty()) failed += ',';
        failed += std::to_string(d);
      }
      return arch.name() + " failed {" + failed + "}: " + what;
    };
    const bool planned = plan_accesses >= 0;
    checks.expect(planned, planned ? "" : label("plan succeeds"));
    if (!checks.expect(rep.is_ok(), rep.is_ok() ? "" : label("reconstruct")))
      continue;
    const bool repaired = verified.is_ok() &&
                          rep.value().unrecoverable_elements == 0 &&
                          rep.value().completed;
    checks.expect(repaired, repaired ? "" : label("verify_all not OK"));
    out.stripes += static_cast<std::uint64_t>(arr->stripes());
    out.elements_read += rep.value().elements_read;
    out.elements_written += rep.value().elements_written;
    if (c.table1) {
      out.table1_sum += plan_accesses;
      ++out.table1_cases;
    }
  }
  return out;
}

/// Region-kernel throughput at the workload's element size, GB/s.
double region_gbps(bool mul) {
  std::vector<std::uint8_t> src(kElementBytes);
  std::vector<std::uint8_t> dst(kElementBytes);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i * 131 + 7);
  constexpr int kReps = 50000;
  const double t0 = now_s();
  for (int r = 0; r < kReps; ++r) {
    if (mul)
      gf::region_mul(static_cast<std::uint8_t>(r | 2), src, dst);
    else
      gf::region_xor(src, dst);
  }
  return static_cast<double>(kReps) * static_cast<double>(kElementBytes) /
         (now_s() - t0) / 1e9;
}

}  // namespace

RunResult run_rebuild_verify(const RunOptions& opts) {
  RunResult res;
  Checks& checks = res.checks;
  MetricSet& m = res.metrics;

  // Set-up: the case list, then a warm-up over the first slice of the
  // reference inputs. The warm-up ignores the seed, so set-up does the
  // same work at every seed.
  Inputs in;
  m.set("setup_s", cold_setup_s(kSetupReps, [&] {
    in = make_inputs(opts.seed);
    (void)run_cases(make_inputs(0), nullptr, checks, 0, kSlices);
  }));
  checks.expect(in.cases.size() == 351, "351 repair cases");

  std::vector<PassOutput> outputs;
  std::vector<double> pass_s;
  std::vector<double> traced_s;
  LayerPasses layers;
  std::vector<double> case_p50;
  std::vector<double> case_p95;
  if (!opts.trace) {
    pass_s = calibrated_passes(opts.seconds, 3, kSlices, [&](int slice) {
      if (slice == 0) outputs.emplace_back();
      outputs.back().add(run_cases(in, nullptr, checks,
                                   static_cast<std::size_t>(slice), kSlices));
    });
  } else {
    timed_passes(opts.seconds, 1, [&] {
      double t0 = now_s();
      outputs.push_back(run_cases(in, nullptr, checks));
      pass_s.push_back(now_s() - t0);
      Tracer tracer;
      t0 = now_s();
      outputs.push_back(run_cases(in, &tracer, checks));
      traced_s.push_back(now_s() - t0);
      layers.add(tracer.spans());
      const std::vector<double>& case_s = outputs.back().case_s;
      case_p50.push_back(percentile(case_s, 50.0));
      case_p95.push_back(percentile(case_s, 95.0));
      checks.expect(reportable_percentile(case_s.size()) >= 95.0,
                    "enough cases to report a p95");
    });
  }
  const double rss = peak_rss_mb();

  const PassOutput& first = outputs.front();
  for (const PassOutput& o : outputs)
    checks.expect(o.stripes == first.stripes &&
                      o.elements_read == first.elements_read &&
                      o.elements_written == first.elements_written &&
                      o.table1_accesses() == first.table1_accesses(),
                  "every pass rebuilds the same elements");
  // Table I: the shifted mirror with parity averages 4n/(2n+1) read
  // accesses over its double failures. The failure cases do not depend
  // on the seed, so this holds at every seed.
  checks.expect(first.table1_accesses() ==
                    recon::paper_avg_read_shifted_mirror_parity(kN),
                format("Table I mean read accesses %.6f equals 4n/(2n+1)",
                       first.table1_accesses()));

  const double stripes = static_cast<double>(first.stripes);
  res.notes.push_back(format(
      "rebuild_verify: %zu cases, %.0f stripes per pass (GF tier %s); %s",
      in.cases.size(), stripes,
      std::string(gf::to_string(gf::active_tier())).c_str(),
      describe_passes(pass_s).c_str()));
  res.notes.push_back(format(
      "rebuild_verify: Table I mean read accesses %.6f; %llu elements read, "
      "%llu written per pass",
      first.table1_accesses(),
      static_cast<unsigned long long>(first.elements_read),
      static_cast<unsigned long long>(first.elements_written)));

  if (!opts.trace) {
    m.set("host_rate", stripes / median(pass_s));
    m.set("peak_rss_mb", rss);
    return res;
  }
  m.set("gf.xor_gbps", region_gbps(false));
  m.set("gf.mul_gbps", region_gbps(true));
  m.set("sim_read_accesses", first.table1_accesses());
  m.set("bench.trace_overhead", median(traced_s) / median(pass_s));
  m.set("array.build_s", layers.self_s("array.build"));
  m.set("array.initialize_s", layers.self_s("array.initialize"));
  m.set("recon.plan_s", layers.self_s("recon.plan"));
  m.set("recon.reconstruct_s", layers.self_s("recon.reconstruct"));
  m.set("array.verify_s", layers.self_s("array.verify"));
  m.set("recon.case_p50_s", median(case_p50));
  m.set("recon.case_p95_s", median(case_p95));
  m.set("recon.elements_read", static_cast<double>(first.elements_read));
  m.set("recon.elements_written", static_cast<double>(first.elements_written));
  m.set("gf.bytes_recovered",
        static_cast<double>(first.elements_written * kElementBytes));
  add_mttdl_layers(opts.seed, res);
  return res;
}

}  // namespace perfbench
