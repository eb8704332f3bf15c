// Tests of the benchmark's own parts: the arrival schedule, the tail
// percentile rule, span arithmetic, failure accounting, and the metric
// lists and result line.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "checks.hpp"
#include "report.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "support/json.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Schedule, SameSeedSameScheduleOtherSeedOtherSchedule) {
  const auto a = arrival_schedule(7, 2000, 110.0);
  const auto b = arrival_schedule(7, 2000, 110.0);
  const auto c = arrival_schedule(8, 2000, 110.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_EQ(a.front(), 0.0);
  for (usize i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  // 1999 gaps of mean 1/110 s: the span is within 10% of 1999/110 s.
  EXPECT_NEAR(a.back(), 1999.0 / 110.0, 0.1 * 1999.0 / 110.0);
}

TEST(Stats, P99NeedsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  EXPECT_FALSE(tail_quantile(v, 0.99).has_value());
  v.push_back(1000);
  const auto p99 = tail_quantile(v, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);  // 10 samples (991..1000) lie beyond it
  EXPECT_FALSE(tail_quantile({}, 0.5).has_value());
  EXPECT_EQ(*tail_quantile({3, 1, 2}, 0.5, 1), 2.0);
}

TEST(Stats, Median) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({5, 1, 3}), 3.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, SumOfMediansDropsAOnePassBurst) {
  // Item 0 was slow on pass 2, item 1 on pass 0: each median leaves the
  // burst out, so the sum is the typical pass, 1 + 2.
  EXPECT_EQ(sum_of_medians({{1, 1, 9}, {8, 2, 2}}), 3.0);
  EXPECT_EQ(sum_of_medians({}), 0.0);
}

TEST(Trace, UnionMergesOverlapsAndSkipsEmpty) {
  EXPECT_EQ(union_ns({{0, 10}, {5, 15}, {20, 30}, {40, 40}}), 25u);
  EXPECT_EQ(union_ns({}), 0u);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfClippedChildren) {
  std::vector<Span> spans = {
      {kNoParent, Layer::kGraph, "parent", 0, 100, 1},
      {0, Layer::kGen, "a", 10, 30, 1},
      {0, Layer::kGen, "b", 20, 50, 1},    // overlaps a: union 10..50
      {0, Layer::kGen, "c", 90, 120, 1},   // clipped to 90..100
      {1, Layer::kSim, "grandchild", 12, 18, 1},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 20u - 6u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 6u);
  const auto layers = layer_self_seconds(spans);
  EXPECT_DOUBLE_EQ(layers[static_cast<usize>(Layer::kGraph)], 50e-9);
  EXPECT_DOUBLE_EQ(layers[static_cast<usize>(Layer::kGen)], 74e-9);
  EXPECT_DOUBLE_EQ(layers[static_cast<usize>(Layer::kSim)], 6e-9);
  // The spans cover 0..120 of the window 0..200.
  EXPECT_DOUBLE_EQ(coverage(spans, 0, 200), 0.6);
  EXPECT_DOUBLE_EQ(total_seconds(spans, "a"), 20e-9);
}

TEST(Trace, NestingFollowsTheCallingThread) {
  Tracer tr(true);
  {
    Tracer::Scope outer(tr, Layer::kAlgos, "outer");
    Tracer::Scope inner(tr, Layer::kSim, "inner");
    std::thread other([&] {
      Tracer::Scope s(tr, Layer::kGen, "other thread");
      EXPECT_EQ(tr.current(), s.id());
    });
    other.join();
    EXPECT_EQ(tr.current(), inner.id());
  }
  Tracer off(false);
  { Tracer::Scope s(off, Layer::kGen, "disabled"); }
  EXPECT_TRUE(off.spans().empty());
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, kNoParent);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, kNoParent);  // other threads do not inherit
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
  tr.set_enabled(false);
  { Tracer::Scope s(tr, Layer::kGen, "not recorded"); }
  EXPECT_EQ(tr.spans().size(), 3u);
}

/// A small stand-in for the manifest's lists.
MetricLists test_metrics() {
  return {{{"setup_s", "s"}, {"wall_s", "s"}},
          {{"sim.launches", "count"}, {"bench.failed_frac", "ratio"}}};
}

TEST(Checks, AFailedCheckRaisesFailedFracAndExitCode) {
  Checks healthy;
  healthy.op(true, "a");
  healthy.op(true, "b");
  EXPECT_EQ(healthy.failed_frac(), 0.0);
  EXPECT_EQ(healthy.exit_code(), 0);

  Checks failing;
  failing.op(true, "a");
  failing.op(false, "b");
  EXPECT_EQ(failing.attempted(), 2u);
  EXPECT_EQ(failing.failed(), 1u);
  EXPECT_EQ(failing.failed_frac(), 0.5);
  EXPECT_NE(failing.exit_code(), 0);

  const Report report(test_metrics());
  const auto line =
      eclp::json::Value::parse(report.result_line(failing, false));
  EXPECT_FALSE(line.at("correct").as_bool());
  EXPECT_EQ(line.at("failed").as_u64(), 1u);
  EXPECT_EQ(line.at("attempted").as_u64(), 2u);
}

TEST(Report, ResultLineCarriesEveryMetricOfItsMode) {
  Checks checks;
  checks.op(true, "x");
  const MetricLists lists = test_metrics();
  Report report(lists);
  report.set("wall_s", 1.25);
  report.set("sim.launches", 7);
  for (const bool traced : {false, true}) {
    const auto line =
        eclp::json::Value::parse(report.result_line(checks, traced));
    EXPECT_TRUE(line.at("correct").as_bool());
    const auto& metrics = line.at("metrics");
    const auto& defs = traced ? lists.per_layer : lists.end_to_end;
    EXPECT_EQ(metrics.members().size(), defs.size());
    for (const MetricDef& d : defs) {
      EXPECT_EQ(metrics.at(d.name).at("unit").as_string(), d.unit);
    }
  }
  EXPECT_EQ(report.get("setup_s"), 0.0);  // declared but not measured
  EXPECT_THROW(report.set("not.a.metric", 1.0), eclp::CheckFailure);
  EXPECT_EQ(format_number(0.1), "0.1");
}

TEST(Report, LoadsTheMetricListsOfAManifest) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("perfbench_manifest_" + std::to_string(::getpid()) + ".json"))
          .string();
  {
    std::ofstream os(path);
    os << R"({"end_to_end": [{"name": "setup_s", "unit": "s",
                              "better": "lower", "bound": 0.25}],
              "per_layer": [{"name": "a.b", "unit": "count",
                             "better": "higher"},
                            {"name": "c", "unit": "ms",
                             "better": "lower"}]})";
  }
  const MetricLists lists = load_metric_lists(path);
  std::filesystem::remove(path);
  ASSERT_EQ(lists.end_to_end.size(), 1u);
  EXPECT_EQ(lists.end_to_end[0].name, "setup_s");
  ASSERT_EQ(lists.per_layer.size(), 2u);
  EXPECT_EQ(lists.per_layer[1].name, "c");
  EXPECT_EQ(lists.per_layer[1].unit, "ms");
  EXPECT_THROW(load_metric_lists(path), eclp::CheckFailure);
}

}  // namespace
}  // namespace perfbench
