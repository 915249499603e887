// Benchmark harness: timing loops, output checks, the metric catalog,
// host-time spans with self-time attribution, and the result line.
//
// Everything here belongs to the benchmark, not to the simulator: the
// spans wrap calls *into* the sma_* layers from the outside, so the
// libraries under measurement carry no instrumentation of their own.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- names, units, percentile ranks --------------------------------------

/// A metric name: starts with a letter or digit, at most 64 of
/// [A-Za-z0-9_.-].
bool valid_metric_name(std::string_view name);
/// A unit: 1 to 16 of [A-Za-z0-9_/%.-].
bool valid_unit(std::string_view unit);

/// The highest percentile worth reporting for `samples` values: the
/// largest of 99.9, 99, 95, 90 and 50 that leaves at least ten samples
/// above it. 0 when even the median has fewer than ten above it.
double reportable_percentile(std::size_t samples);

/// Linear-interpolated percentile of an ascending vector (p in [0,100]).
double percentile_sorted(const std::vector<double>& sorted, double p);
/// Percentile of an unsorted vector (copied and sorted).
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// --- metric catalog --------------------------------------------------------

enum class Tier { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  Tier tier;
};

/// Every metric the benchmark can print, in output order. BENCHMARK.json
/// lists the same names and units; run.py refuses a mismatch.
const std::vector<MetricSpec>& metric_catalog();

/// The metrics of one run. set() refuses names outside the catalog and
/// names set twice, so a typo cannot silently add a metric.
class MetricSet {
 public:
  void set(const std::string& name, double value);
  /// JSON object of every catalog metric of `tier`, in catalog order. A
  /// per-layer metric the workload never set is a layer it does not
  /// enter and reads 0; a missing end-to-end metric is a benchmark bug
  /// and throws.
  std::string to_json(Tier tier) const;

 private:
  std::map<std::string, double> values_;
};

// --- output checks ---------------------------------------------------------

/// Output checks feeding the result's attempted/failed counts. A failed
/// check prints its description to stderr.
class Checks {
 public:
  bool expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- host-time spans -----------------------------------------------------

/// One closed span. Times are steady_clock nanoseconds.
struct SpanRecord {
  const char* name = "";  // a string literal
  int parent = -1;  // index into the same vector, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Children may overlap each other (spans on
/// worker threads under a fan-out span); the covered part is the union
/// of their intervals clipped to the parent's.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> summarize(
    const std::vector<SpanRecord>& spans);

/// Span summaries of several traced passes. A per-layer metric is the
/// median over passes of that pass's per-name sum.
class LayerPasses {
 public:
  void add(const std::vector<SpanRecord>& pass_spans);
  double self_s(const std::string& name) const;
  double total_s(const std::string& name) const;

 private:
  double median_of(const std::string& name,
                   double (*field)(const SpanTotals&)) const;
  std::vector<std::map<std::string, SpanTotals>> passes_;
};

/// Collects spans in memory from any thread. A span's parent is the
/// innermost open span of the opening thread; worker threads adopt a
/// parent explicitly through ParentScope.
class Tracer {
 public:
  int open(const char* name);
  void close(int id);
  /// The recorded spans; call only once every span is closed.
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::mutex mu_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span; a null tracer makes it a no-op, which is how the untraced
/// passes run.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Makes `parent` the calling thread's innermost span for its lifetime
/// (used inside MultiKernel case bodies running on worker threads).
class ParentScope {
 public:
  explicit ParentScope(int parent);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  int saved_;
};

// --- timing ----------------------------------------------------------------

double now_s();

// The host is a share of a machine that other tenants load too, so its
// speed drifts: the same pass ran up to 1.6x slower from one minute to
// the next. The end-to-end times are therefore kept in reference
// seconds. Each timed span is scaled by how much faster or slower than
// on the reference host a fixed calibration kernel ran right before and
// right after it. A change to the simulator moves reference time as it
// moves host time. A drift of the host's speed moves the kernel as well
// and cancels out.

/// calibration_s() on the reference host, seconds: the median sample
/// of a 4-vCPU KVM Xeon VM (2.0 GHz, GCC 12.2, Release) under its usual
/// load.
inline constexpr double kCalibrationRefS = 0.00265;

/// One sample of the host's speed, seconds: the geometric mean of the
/// times of four fixed loops that use no sma_* library. Dependent loads
/// along a random cycle through 8 MiB (the last-level cache and memory)
/// and through 256 KiB (the core's own cache), branchy integer mixing,
/// and sorted inserts into a vector (memmove).
double calibration_s();

/// `host_s` in reference seconds, given the calibration samples taken
/// right before and right after it.
double reference_s(double host_s, double before, double after);

/// Time of a cold set-up, in reference seconds: the median over `reps`
/// runs of `setup`, each the first set-up of its process and each
/// calibrated in its own process. reps - 1 of them run in child
/// processes forked before this process sets up, the last one here.
/// Every run pays what only a first set-up pays (lazy initialization,
/// first touch of the heap), which repeating `setup` inside one process
/// would hide. What a child's run changes is lost with the child.
/// Throws when a child fails.
double cold_setup_s(int reps, const std::function<void()>& setup);

/// Run `pass` back to back, at least `min_passes` times, while another
/// pass of median length still fits in `seconds`; returns every pass's
/// host time.
std::vector<double> timed_passes(double seconds, int min_passes,
                                 const std::function<void()>& pass);

/// Like timed_passes, for a pass made of `units` calls of `unit` (with
/// 0 .. units - 1 in order). The host is calibrated before the first
/// unit and after every unit. Returns every pass's time in reference
/// seconds: the sum of its units' times, each scaled by the samples
/// right before and right after it. Short units keep the scale close to
/// the speed the unit actually ran at.
std::vector<double> calibrated_passes(double seconds, int min_passes,
                                      int units,
                                      const std::function<void(int)>& unit);

/// "median 1.234 s (q1 .., q3 .., 12 passes)" for the human report.
std::string describe_passes(const std::vector<double>& pass_s);

// --- host ------------------------------------------------------------------

/// Peak resident set of this process so far, MiB, less the calibration
/// tables (8.25 MiB, resident from the first calibration on).
double peak_rss_mb();

// --- one workload's run ---------------------------------------------------

struct RunOptions {
  std::uint64_t seed = 0;  // 0 = the reference inputs; see README.md
  double seconds = 10.0;
  bool trace = false;
  /// MultiKernel threads for the multithreaded workload.
  std::size_t threads = 4;
};

struct RunResult {
  Checks checks;
  MetricSet metrics;
  /// Human-readable report lines (printed before the result line).
  std::vector<std::string> notes;
};

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
