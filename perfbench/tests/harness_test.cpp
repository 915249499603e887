// Tests of the benchmark harness: metric names and units, the rule that
// picks the reported percentile, self time from nested spans, cold
// set-up timing, and calibrated timing in reference seconds.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>
#include <string>
#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

TEST(MetricName, AcceptsCatalogStyleNames) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("util.sampleset_s"));
  EXPECT_TRUE(valid_metric_name("recon.online_array_p95_s"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

TEST(MetricName, RejectsMalformedNames) {
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/inside"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricName, UnitsFollowTheirOwnAlphabet) {
  for (const char* unit : {"s", "ms", "1/s", "count", "GB/s", "%", "MB"})
    EXPECT_TRUE(valid_unit(unit)) << unit;
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("per second"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(MetricName, CatalogIsValidAndUnique) {
  std::set<std::string> seen;
  bool has_setup = false;
  for (const MetricSpec& spec : metric_catalog()) {
    EXPECT_TRUE(valid_metric_name(spec.name)) << spec.name;
    EXPECT_TRUE(valid_unit(spec.unit)) << spec.name << " " << spec.unit;
    EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
    if (std::string(spec.name) == "setup_s") {
      has_setup = true;
      EXPECT_EQ(spec.tier, Tier::kEndToEnd);
      EXPECT_STREQ(spec.unit, "s");
    }
  }
  EXPECT_TRUE(has_setup);
}

TEST(MetricSet, RefusesUnknownAndRepeatedNames) {
  MetricSet m;
  m.set("setup_s", 1.0);
  EXPECT_THROW(m.set("setup_s", 2.0), std::invalid_argument);
  EXPECT_THROW(m.set("no_such_metric", 1.0), std::invalid_argument);
}

TEST(MetricSet, EndToEndNeedsEveryMetricPerLayerDefaultsToZero) {
  MetricSet m;
  m.set("setup_s", 0.5);
  EXPECT_THROW((void)m.to_json(Tier::kEndToEnd), std::logic_error);
  m.set("host_rate", 12.25);
  m.set("peak_rss_mb", 3.0);
  const std::string e2e = m.to_json(Tier::kEndToEnd);
  EXPECT_NE(e2e.find("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
            std::string::npos);
  EXPECT_EQ(e2e.find("util.samples"), std::string::npos);
  const std::string layers = m.to_json(Tier::kPerLayer);
  EXPECT_NE(layers.find("\"util.samples\": {\"value\": 0, \"unit\": \"count\"}"),
            std::string::npos);
  EXPECT_EQ(layers.find("setup_s"), std::string::npos);
}

TEST(Percentile, ReportsTheHighestRankWithTenSamplesAbove) {
  EXPECT_EQ(reportable_percentile(0), 0.0);
  EXPECT_EQ(reportable_percentile(19), 0.0);
  EXPECT_EQ(reportable_percentile(20), 50.0);
  EXPECT_EQ(reportable_percentile(99), 50.0);
  EXPECT_EQ(reportable_percentile(100), 90.0);
  EXPECT_EQ(reportable_percentile(199), 90.0);
  EXPECT_EQ(reportable_percentile(200), 95.0);
  // The two distributions the benchmark reports at p95.
  EXPECT_EQ(reportable_percentile(256), 95.0);
  EXPECT_EQ(reportable_percentile(351), 95.0);
  EXPECT_EQ(reportable_percentile(999), 95.0);
  EXPECT_EQ(reportable_percentile(1000), 99.0);
  EXPECT_EQ(reportable_percentile(10000), 99.9);
}

TEST(Percentile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(SelfTime, SubtractsNestedChildren) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,60).
  const std::vector<SpanRecord> spans = {
      {"root", -1, 0, 100}, {"a", 0, 10, 40}, {"a1", 1, 15, 25},
      {"b", 0, 50, 60}};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // A fan-out span whose children ran concurrently on worker threads:
  // they cover [10,70) together, so 40 ns of the parent remain.
  const std::vector<SpanRecord> spans = {{"fanout", -1, 0, 100},
                                         {"case", 0, 10, 50},
                                         {"case", 0, 20, 70},
                                         {"case", 0, 30, 40}};
  EXPECT_EQ(self_times_ns(spans)[0], 40);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  const std::vector<SpanRecord> spans = {{"p", -1, 100, 200},
                                         {"c", 0, 50, 150},
                                         {"c", 0, 190, 250}};
  EXPECT_EQ(self_times_ns(spans)[0], 100 - 50 - 10);
}

TEST(SelfTime, SummarizeSumsPerName) {
  const std::vector<SpanRecord> spans = {{"step", -1, 0, 1000000000},
                                         {"leaf", 0, 0, 250000000},
                                         {"leaf", 0, 500000000, 750000000}};
  const auto totals = summarize(spans);
  EXPECT_EQ(totals.at("leaf").count, 2u);
  EXPECT_DOUBLE_EQ(totals.at("leaf").total_s, 0.5);
  EXPECT_DOUBLE_EQ(totals.at("step").self_s, 0.5);
  EXPECT_DOUBLE_EQ(totals.at("step").total_s, 1.0);
}

TEST(Tracer, ParentsFollowNestingAndParentScope) {
  Tracer tracer;
  {
    Span outer(&tracer, "outer");
    { Span inner(&tracer, "inner"); }
    const int fanout = outer.id();
    std::thread worker([&] {
      ParentScope scope(fanout);
      Span job(&tracer, "job");
    });
    worker.join();
  }
  { Span null_span(nullptr, "ignored"); }
  { Span after(&tracer, "after"); }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_STREQ(spans[2].name, "job");
  EXPECT_EQ(spans[2].parent, 0);
  // Closing every span restores "no parent" on this thread.
  EXPECT_EQ(spans[3].parent, -1);
  for (const auto& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
}

TEST(LayerPasses, MedianOverPassesWithAbsentNamesAsZero) {
  LayerPasses layers;
  layers.add({{"x", -1, 0, 1000000000}});
  layers.add({{"x", -1, 0, 3000000000}});
  layers.add({{"y", -1, 0, 1000000000}});
  EXPECT_DOUBLE_EQ(layers.self_s("x"), 1.0);
  EXPECT_DOUBLE_EQ(layers.total_s("y"), 0.0);
}

TEST(ColdSetup, RunsOnceHereAndKeepsChildrenApart) {
  int runs = 0;
  const double s = cold_setup_s(3, [&] { ++runs; });
  // Two of the three runs were in child processes; their increments
  // went with them.
  EXPECT_EQ(runs, 1);
  EXPECT_GE(s, 0.0);
}

TEST(ColdSetup, AFailingChildThrows) {
  int runs = 0;
  EXPECT_THROW(cold_setup_s(2,
                            [&] {
                              ++runs;
                              throw std::runtime_error("set-up failed");
                            }),
               std::runtime_error);
  EXPECT_EQ(runs, 0);
}

TEST(Calibration, ScalesByTheMeanOfTheSamplesAround) {
  EXPECT_DOUBLE_EQ(reference_s(2.0, kCalibrationRefS, kCalibrationRefS), 2.0);
  // A host twice as slow as the reference counts half the seconds.
  EXPECT_DOUBLE_EQ(
      reference_s(1.0, 2.0 * kCalibrationRefS, 2.0 * kCalibrationRefS), 0.5);
  EXPECT_DOUBLE_EQ(reference_s(3.0, kCalibrationRefS, 2.0 * kCalibrationRefS),
                   2.0);
}

TEST(Calibration, SamplesArePositiveAndFinite) {
  for (int i = 0; i < 3; ++i) {
    const double c = calibration_s();
    EXPECT_GT(c, 0.0);
    EXPECT_LT(c, 10.0);
  }
}

TEST(CalibratedPasses, RunsEveryUnitInOrderOncePerPass) {
  std::vector<int> calls;
  const std::vector<double> passes =
      calibrated_passes(0.0, 2, 3, [&](int u) { calls.push_back(u); });
  ASSERT_EQ(passes.size(), 2u);
  EXPECT_EQ(calls, (std::vector<int>{0, 1, 2, 0, 1, 2}));
  for (const double p : passes) EXPECT_GT(p, 0.0);
}

TEST(CalibratedPasses, AUnitsTimeIsItsHostTimeScaled) {
  // One unit that sleeps 50 ms: in reference seconds it lies within a
  // wide factor of that, however loaded the host is.
  const std::vector<double> passes = calibrated_passes(0.0, 1, 1, [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  ASSERT_EQ(passes.size(), 1u);
  EXPECT_GT(passes[0], 0.05 / 20.0);
  EXPECT_LT(passes[0], 0.05 * 20.0);
}

}  // namespace
}  // namespace perfbench
