#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

thread_local int t_current_span = -1;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  return format("%.17g", v);
}

}  // namespace

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int len = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(len > 0 ? len : 0), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

double reportable_percentile(std::size_t samples) {
  // At least ten samples must lie above the reported rank, or its value
  // is decided by a handful of outliers.
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
      return p;
  }
  return 0.0;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

const std::vector<MetricSpec>& metric_catalog() {
  static const std::vector<MetricSpec> catalog = {
      // End to end: what a user of the simulator waits for.
      {"setup_s", "s", Tier::kEndToEnd},
      {"host_rate", "1/s", Tier::kEndToEnd},
      {"peak_rss_mb", "MB", Tier::kEndToEnd},
      // Simulated outputs (deterministic per seed).
      {"sim_rebuild_s", "s", Tier::kPerLayer},
      {"sim_read_p99_s", "s", Tier::kPerLayer},
      {"sim_write_p99_s", "s", Tier::kPerLayer},
      {"sim_degraded_volume_p99_s", "s", Tier::kPerLayer},
      {"sim_read_accesses", "count", Tier::kPerLayer},
      {"sim_mttdl_traditional_h", "h", Tier::kPerLayer},
      {"sim_mttdl_shifted_h", "h", Tier::kPerLayer},
      // Host-time layers.
      {"bench.trace_overhead", "ratio", Tier::kPerLayer},
      {"util.sampleset_s", "s", Tier::kPerLayer},
      {"util.samples", "count", Tier::kPerLayer},
      {"fleet.run_s", "s", Tier::kPerLayer},
      {"fleet.placement_s", "s", Tier::kPerLayer},
      {"workload.route_s", "s", Tier::kPerLayer},
      {"workload.requests_routed", "count", Tier::kPerLayer},
      {"fleet.aggregate_s", "s", Tier::kPerLayer},
      {"fleet.timeline_s", "s", Tier::kPerLayer},
      {"fleet.replay_coverage", "ratio", Tier::kPerLayer},
      {"sim.multikernel_wall_s", "s", Tier::kPerLayer},
      {"sim.multikernel_efficiency", "ratio", Tier::kPerLayer},
      {"recon.online_busy_s", "s", Tier::kPerLayer},
      {"recon.online_array_p50_s", "s", Tier::kPerLayer},
      {"recon.online_array_p95_s", "s", Tier::kPerLayer},
      {"array.build_s", "s", Tier::kPerLayer},
      {"recon.online_s", "s", Tier::kPerLayer},
      {"recon.online_self_s", "s", Tier::kPerLayer},
      {"recon.requests", "count", Tier::kPerLayer},
      {"recon.degraded_reads", "count", Tier::kPerLayer},
      {"disk.util_max", "ratio", Tier::kPerLayer},
      {"disk.util_imbalance", "ratio", Tier::kPerLayer},
      {"disk.qdepth_max", "count", Tier::kPerLayer},
      {"obs.observed_slowdown", "ratio", Tier::kPerLayer},
      {"array.initialize_s", "s", Tier::kPerLayer},
      {"recon.plan_s", "s", Tier::kPerLayer},
      {"recon.reconstruct_s", "s", Tier::kPerLayer},
      {"array.verify_s", "s", Tier::kPerLayer},
      {"recon.case_p50_s", "s", Tier::kPerLayer},
      {"recon.case_p95_s", "s", Tier::kPerLayer},
      {"recon.elements_read", "count", Tier::kPerLayer},
      {"recon.elements_written", "count", Tier::kPerLayer},
      {"gf.bytes_recovered", "B", Tier::kPerLayer},
      {"gf.xor_gbps", "GB/s", Tier::kPerLayer},
      {"gf.mul_gbps", "GB/s", Tier::kPerLayer},
      {"recon.simulate_mttdl_s", "s", Tier::kPerLayer},
      {"repair.transitions", "count", Tier::kPerLayer},
      {"repair.trials", "count", Tier::kPerLayer},
      {"repair.classify_ns", "ns", Tier::kPerLayer},
      {"recon.is_recoverable_ns", "ns", Tier::kPerLayer},
      {"recon.estimate_mttdl_s", "s", Tier::kPerLayer},
  };
  return catalog;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const MetricSpec& spec : metric_catalog())
    if (name == spec.name) return &spec;
  return nullptr;
}

}  // namespace

void MetricSet::set(const std::string& name, double value) {
  if (find_spec(name) == nullptr)
    throw std::invalid_argument("metric not in the catalog: " + name);
  if (!values_.emplace(name, value).second)
    throw std::invalid_argument("metric set twice: " + name);
}

std::string MetricSet::to_json(Tier tier) const {
  std::string out = "{";
  for (const MetricSpec& spec : metric_catalog()) {
    if (spec.tier != tier) continue;
    const auto it = values_.find(spec.name);
    if (it == values_.end() && tier == Tier::kEndToEnd)
      throw std::logic_error(std::string("end-to-end metric never set: ") +
                             spec.name);
    const double value = it == values_.end() ? 0.0 : it->second;
    if (out.size() > 1) out += ", ";
    out += format("\"%s\": {\"value\": %s, \"unit\": \"%s\"}", spec.name,
                  json_number(value).c_str(), spec.unit);
  }
  return out + "}";
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> summarize(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    t.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

void LayerPasses::add(const std::vector<SpanRecord>& pass_spans) {
  passes_.push_back(summarize(pass_spans));
}

double LayerPasses::median_of(const std::string& name,
                              double (*field)(const SpanTotals&)) const {
  std::vector<double> values;
  for (const auto& pass : passes_) {
    const auto it = pass.find(name);
    values.push_back(it == pass.end() ? 0.0 : field(it->second));
  }
  return median(std::move(values));
}

double LayerPasses::self_s(const std::string& name) const {
  return median_of(name, [](const SpanTotals& t) { return t.self_s; });
}

double LayerPasses::total_s(const std::string& name) const {
  return median_of(name, [](const SpanTotals& t) { return t.total_s; });
}

int Tracer::open(const char* name) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, t_current_span, t, 0});
  t_current_span = id;
  return id;
}

void Tracer::close(int id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = t;
  t_current_span = s.parent;
}

ParentScope::ParentScope(int parent) : saved_(t_current_span) {
  t_current_span = parent;
}

ParentScope::~ParentScope() { t_current_span = saved_; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// A random cycle through `slots` slots (Sattolo's shuffle of the
/// identity), so following it visits every slot in an order no
/// prefetcher can guess.
std::vector<std::uint32_t> random_cycle(std::uint32_t slots) {
  std::vector<std::uint32_t> next(slots);
  for (std::uint32_t i = 0; i < slots; ++i) next[i] = i;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = slots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  return next;
}

std::uint64_t chase(const std::vector<std::uint32_t>& next, int steps) {
  std::uint32_t at = 0;
  std::uint64_t hash = 0;
  for (int i = 0; i < steps; ++i) {
    at = next[at];
    hash = (hash ^ at) * 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t mix(int steps) {
  std::uint64_t x = 3;
  std::uint64_t hash = 0;
  for (int i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (x & 1)
      hash += x;
    else
      hash ^= x >> 3;
  }
  return hash;
}

std::uint64_t sorted_inserts(int count) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(count));
  std::uint64_t x = 11;
  for (int i = 0; i < count; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double d = static_cast<double>(x >> 11);
    v.insert(std::upper_bound(v.begin(), v.end(), d), d);
  }
  return static_cast<std::uint64_t>(v[v.size() / 2]);
}

double timed(const std::function<std::uint64_t()>& loop) {
  static volatile std::uint64_t sink = 0;
  const double t0 = now_s();
  sink = sink + loop();
  return now_s() - t0;
}

constexpr std::uint32_t kFarSlots = 1u << 21;  // 8 MiB
constexpr std::uint32_t kNearSlots = 1u << 16;  // 256 KiB
bool calibration_tables_built = false;

}  // namespace

double calibration_s() {
  static const std::vector<std::uint32_t> far = random_cycle(kFarSlots);
  static const std::vector<std::uint32_t> near = random_cycle(kNearSlots);
  calibration_tables_built = true;
  const double log_sum =
      std::log(timed([] { return chase(far, 1 << 14); })) +
      std::log(timed([] { return chase(near, 1 << 18); })) +
      std::log(timed([] { return mix(1 << 20); })) +
      std::log(timed([] { return sorted_inserts(6000); }));
  return std::exp(log_sum / 4.0);
}

double reference_s(double host_s, double before, double after) {
  return host_s * kCalibrationRefS / ((before + after) / 2.0);
}

double cold_setup_s(int reps, const std::function<void()>& setup) {
  // The calibration's own first run pays for its tables; that one-time
  // cost is kept out of every sample.
  auto calibrated_setup = [&] {
    (void)calibration_s();
    const double before = calibration_s();
    const double t0 = now_s();
    setup();
    const double t = now_s() - t0;
    return reference_s(t, before, calibration_s());
  };
  std::vector<double> times;
  std::fflush(nullptr);  // a child must not flush this process's buffers
  for (int i = 1; i < reps; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork() failed");
    if (pid == 0) {
      close(fds[0]);
      double t = -1.0;
      try {
        t = calibrated_setup();
      } catch (...) {
        _exit(1);
      }
      _exit(write(fds[1], &t, sizeof t) == sizeof t ? 0 : 1);
    }
    close(fds[1]);
    double t = -1.0;
    ssize_t got = -1;
    do {
      got = read(fds[0], &t, sizeof t);
    } while (got < 0 && errno == EINTR);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != static_cast<ssize_t>(sizeof t) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error("a set-up child process failed");
    times.push_back(t);
  }
  times.push_back(calibrated_setup());
  return median(std::move(times));
}

std::vector<double> timed_passes(double seconds, int min_passes,
                                 const std::function<void()>& pass) {
  std::vector<double> times;
  const double start = now_s();
  while (true) {
    const double t0 = now_s();
    pass();
    times.push_back(now_s() - t0);
    // Stop once another pass of typical length would overrun the time.
    if (static_cast<int>(times.size()) >= min_passes &&
        now_s() - start + median(times) > seconds)
      break;
  }
  return times;
}

std::vector<double> calibrated_passes(double seconds, int min_passes,
                                      int units,
                                      const std::function<void(int)>& unit) {
  std::vector<double> times;
  double before = calibration_s();
  timed_passes(seconds, min_passes, [&] {
    double pass = 0.0;
    for (int u = 0; u < units; ++u) {
      const double t0 = now_s();
      unit(u);
      const double t = now_s() - t0;
      const double after = calibration_s();
      pass += reference_s(t, before, after);
      before = after;
    }
    times.push_back(pass);
  });
  return times;
}

std::string describe_passes(const std::vector<double>& pass_s) {
  std::vector<double> sorted = pass_s;
  std::sort(sorted.begin(), sorted.end());
  return format("median %.4f s (q1 %.4f, q3 %.4f; %zu passes)",
                percentile_sorted(sorted, 50.0),
                percentile_sorted(sorted, 25.0),
                percentile_sorted(sorted, 75.0), sorted.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double tables_mb =
      calibration_tables_built
          ? static_cast<double>(kFarSlots + kNearSlots) *
                sizeof(std::uint32_t) / (1024.0 * 1024.0)
          : 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -  // KiB on Linux
         tables_mb;
}

}  // namespace perfbench
