// The repair-lifecycle layers, measured in rebuild_verify's traced run:
// Monte-Carlo MTTDL of the traditional and shifted 4-disk mirrors
// (bench_repair_orchestration's parameters), which drives
// repair::Lifecycle -> classify -> recon::is_recoverable once per
// lifecycle transition, plus the closed-form estimate_mttdl.
//
// These layers have no end-to-end workload of their own: a host-time
// rate of simulate_mttdl spread by up to 0.18 (IQR / median) over runs
// of one binary on the reference VM, more than a third of the widest
// bound the benchmark may set, and calibration did not track it. Their
// per-layer times and the MTTDL checks do not need that rate.
#include <vector>

#include "recon/reliability.hpp"
#include "repair/lifecycle.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace sma;

struct Inputs {
  layout::Architecture traditional = layout::Architecture::mirror(4, false);
  layout::Architecture shifted = layout::Architecture::mirror(4, true);
  recon::MonteCarloParams params;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.params.disk_mttf_hours = 400.0;
  in.params.mttr_hours = 1.0;
  in.params.trials = 1500;
  in.params.seed = 2012 + seed;
  return in;
}

struct PassOutput {
  double traditional_h = 0.0;
  double shifted_h = 0.0;
  std::uint64_t transitions = 0;
  int trials = 0;
};

/// One simulate_mttdl call; adds its transitions and trials to `out`
/// and returns its MTTDL estimate (0 when it fails).
double simulate(const layout::Architecture& arch,
                const recon::MonteCarloParams& params, Tracer* tr,
                Checks& checks, PassOutput& out) {
  Result<recon::MonteCarloReport> r = invalid_argument("not run");
  {
    Span span(tr, "recon.simulate_mttdl");
    r = recon::simulate_mttdl(arch, params);
  }
  if (!checks.expect(r.is_ok(), "simulate_mttdl succeeds")) return 0.0;
  out.transitions += r.value().transitions;
  out.trials += r.value().trials;
  return r.value().mttdl_hours;
}

PassOutput run_pass(const Inputs& in, Tracer* tr, Checks& checks) {
  PassOutput out;
  out.traditional_h = simulate(in.traditional, in.params, tr, checks, out);
  out.shifted_h = simulate(in.shifted, in.params, tr, checks, out);
  return out;
}

/// Every failed-disk set a lifetime of `arch` can classify: no
/// failure, each single failure, each double failure.
std::vector<std::vector<int>> failure_sets(const layout::Architecture& arch) {
  std::vector<std::vector<int>> sets = {{}};
  for (int i = 0; i < arch.total_disks(); ++i) {
    sets.push_back({i});
    for (int j = i + 1; j < arch.total_disks(); ++j) sets.push_back({i, j});
  }
  return sets;
}

/// Calls classify and is_recoverable, each under its own span, on
/// every failure set a lifetime visits (both architectures, kReps
/// times); returns the number of calls of each. The states classify
/// reports are checked against the arrangements' closed form: of the
/// double failures of an n-disk mirror, n are fatal under the
/// traditional arrangement (each data disk with its one mirror) and n^2
/// under the shifted one (each data disk with every mirror disk); every
/// other non-empty set of at most two failures is one failure from
/// loss, so critical.
int time_oracle_calls(const Inputs& in, Tracer* tr, Checks& checks) {
  constexpr int kReps = 2000;
  int calls = 0;
  for (const layout::Architecture* arch : {&in.traditional, &in.shifted}) {
    const auto sets = failure_sets(*arch);
    int losses = 0;
    int critical = 0;
    int oracle_losses = 0;
    {
      Span span(tr, "repair.classify");
      for (int r = 0; r < kReps; ++r)
        for (const auto& s : sets) {
          const repair::ArrayState state =
              repair::classify(*arch, s, !s.empty(), false);
          losses += state == repair::ArrayState::kDataLoss;
          critical += state == repair::ArrayState::kCritical;
        }
    }
    {
      Span span(tr, "recon.is_recoverable");
      for (int r = 0; r < kReps; ++r)
        for (const auto& s : sets) oracle_losses += !recon::is_recoverable(*arch, s);
    }
    const int n = arch->n();
    const int fatal = arch->is_shifted() ? n * n : n;
    const int nonempty = static_cast<int>(sets.size()) - 1;
    checks.expect(losses == kReps * fatal && oracle_losses == kReps * fatal,
                  format("%s: %d fatal double failures per classify and "
                         "is_recoverable sweep, closed form %d",
                         arch->name().c_str(), losses / kReps, fatal));
    checks.expect(critical == kReps * (nonempty - fatal),
                  format("%s: %d critical failure sets per sweep, expected %d",
                         arch->name().c_str(), critical / kReps,
                         nonempty - fatal));
    calls += kReps * static_cast<int>(sets.size());
  }
  return calls;
}

}  // namespace

void add_mttdl_layers(std::uint64_t seed, RunResult& res) {
  Checks& checks = res.checks;
  MetricSet& m = res.metrics;
  const Inputs in = make_inputs(seed);

  const PassOutput plain = run_pass(in, nullptr, checks);
  Tracer tracer;
  const PassOutput traced = run_pass(in, &tracer, checks);
  LayerPasses layers;
  layers.add(tracer.spans());
  checks.expect(traced.traditional_h == plain.traditional_h &&
                    traced.shifted_h == plain.shifted_h &&
                    traced.transitions == plain.transitions,
                "traced and untraced passes give the same MTTDL estimates");
  if (seed == 0) {
    // sma_repair_orchestration.csv's mc_mttdl rows.
    checks.expect(format("%.1f", plain.traditional_h) == "20248.9",
                  format("traditional MTTDL %.1f h equals 20248.9 h",
                         plain.traditional_h));
    checks.expect(format("%.1f", plain.shifted_h) == "5462.0",
                  format("shifted MTTDL %.1f h equals 5462.0 h",
                         plain.shifted_h));
  }
  res.notes.push_back(format(
      "mttdl layers: %llu transitions, simulated MTTDL traditional %.4f h, "
      "shifted %.4f h",
      static_cast<unsigned long long>(plain.transitions), plain.traditional_h,
      plain.shifted_h));

  Tracer extra;
  const double calls = time_oracle_calls(in, &extra, checks);
  {
    Span span(&extra, "recon.estimate_mttdl");
    recon::MttdlParams mp;
    mp.disk_mttf_hours = in.params.disk_mttf_hours;
    mp.mttr_hours = in.params.mttr_hours;
    checks.expect(recon::estimate_mttdl(in.traditional, mp).mttdl_hours >
                      recon::estimate_mttdl(in.shifted, mp).mttdl_hours,
                  "closed-form MTTDL ranks traditional above shifted");
  }
  auto oracle = summarize(extra.spans());
  m.set("sim_mttdl_traditional_h", plain.traditional_h);
  m.set("sim_mttdl_shifted_h", plain.shifted_h);
  m.set("recon.simulate_mttdl_s", layers.self_s("recon.simulate_mttdl"));
  m.set("repair.transitions", static_cast<double>(plain.transitions));
  m.set("repair.trials", static_cast<double>(plain.trials));
  m.set("repair.classify_ns", oracle["repair.classify"].total_s * 1e9 / calls);
  m.set("recon.is_recoverable_ns",
        oracle["recon.is_recoverable"].total_s * 1e9 / calls);
  m.set("recon.estimate_mttdl_s", oracle["recon.estimate_mttdl"].total_s);
}

}  // namespace perfbench
