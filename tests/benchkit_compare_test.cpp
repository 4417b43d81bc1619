#include "benchkit/compare.h"

#include <algorithm>
#include <string>

#include "benchkit/result.h"
#include "gtest/gtest.h"

namespace joza::benchkit {
namespace {

SuiteResult MakeFresh(double qps, double p99, double counter) {
  SuiteResult r("smoke", SuiteOptions{});
  r.AddCompared("engine.qps", qps, "qps", Direction::kHigherBetter, 0.10);
  r.AddCompared("engine.p99_ms", p99, "ms", Direction::kLowerBetter, 0.10,
                /*abs_slack=*/0.5);
  r.AddExact("engine.queries", counter);
  r.AddInfo("engine.wall_s", 12.0, "s");
  return r;
}

Json BaselineFor(const SuiteResult& r) { return r.ToJson(); }

const MetricDiff* FindDiff(const Comparison& cmp, const std::string& name) {
  for (const MetricDiff& d : cmp.diffs) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

TEST(Compare, IdenticalRunPasses) {
  const SuiteResult base = MakeFresh(1000, 5.0, 42);
  const Comparison cmp = CompareToBaseline(BaselineFor(base), base);
  EXPECT_EQ(cmp.status, ComparisonStatus::kOk);
  EXPECT_EQ(cmp.regressions(), 0u);
}

TEST(Compare, WithinBandPasses) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  // 5% QPS drop sits inside the 10% band; p99 within band + slack.
  const Comparison cmp =
      CompareToBaseline(baseline, MakeFresh(950, 5.9, 42));
  EXPECT_EQ(cmp.status, ComparisonStatus::kOk);
}

TEST(Compare, HigherBetterDropOutsideBandRegresses) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  const Comparison cmp =
      CompareToBaseline(baseline, MakeFresh(850, 5.0, 42));
  EXPECT_EQ(cmp.status, ComparisonStatus::kRegressed);
  const MetricDiff* d = FindDiff(cmp, "engine.qps");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, DiffKind::kRegressed);
  // The failure message names the metric and the violated band.
  EXPECT_NE(d->message.find("engine.qps"), std::string::npos);
  EXPECT_NE(d->message.find("850"), std::string::npos);
}

TEST(Compare, LowerBetterUsesSlackThenRegresses) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  // Band: 5.0 * 1.10 + 0.5 = 6.0. 6.0 passes, 6.1 regresses.
  EXPECT_EQ(CompareToBaseline(baseline, MakeFresh(1000, 6.0, 42)).status,
            ComparisonStatus::kOk);
  EXPECT_EQ(CompareToBaseline(baseline, MakeFresh(1000, 6.1, 42)).status,
            ComparisonStatus::kRegressed);
}

TEST(Compare, ExactMetricRegressesOnAnyChange) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  const Comparison cmp =
      CompareToBaseline(baseline, MakeFresh(1000, 5.0, 43));
  EXPECT_EQ(cmp.status, ComparisonStatus::kRegressed);
  const MetricDiff* d = FindDiff(cmp, "engine.queries");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, DiffKind::kRegressed);
}

TEST(Compare, ImprovementIsNotedNotFailed) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  const Comparison cmp =
      CompareToBaseline(baseline, MakeFresh(1500, 5.0, 42));
  EXPECT_EQ(cmp.status, ComparisonStatus::kOk);
  const MetricDiff* d = FindDiff(cmp, "engine.qps");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, DiffKind::kImproved);
}

TEST(Compare, InfoMetricsAreNeverCompared) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  // Same run but wall time differs wildly — must not matter.
  SuiteResult fresh("smoke", SuiteOptions{});
  fresh.AddCompared("engine.qps", 1000, "qps", Direction::kHigherBetter,
                    0.10);
  fresh.AddCompared("engine.p99_ms", 5.0, "ms", Direction::kLowerBetter,
                    0.10, 0.5);
  fresh.AddExact("engine.queries", 42);
  fresh.AddInfo("engine.wall_s", 9000.0, "s");
  const Comparison cmp = CompareToBaseline(baseline, fresh);
  EXPECT_EQ(cmp.status, ComparisonStatus::kOk);
  const MetricDiff* d = FindDiff(cmp, "engine.wall_s");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, DiffKind::kNotCompared);
}

TEST(Compare, MetricMissingFromFreshRunRegresses) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  SuiteResult fresh("smoke", SuiteOptions{});
  fresh.AddCompared("engine.qps", 1000, "qps", Direction::kHigherBetter,
                    0.10);
  // engine.p99_ms and engine.queries vanished — coverage loss.
  const Comparison cmp = CompareToBaseline(baseline, fresh);
  EXPECT_EQ(cmp.status, ComparisonStatus::kRegressed);
  EXPECT_EQ(cmp.regressions(), 2u);
  const MetricDiff* d = FindDiff(cmp, "engine.queries");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, DiffKind::kMissingFresh);
}

TEST(Compare, NewMetricInFreshRunIsNotedAndPasses) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  SuiteResult fresh = MakeFresh(1000, 5.0, 42);
  fresh.AddExact("engine.new_counter", 7);
  const Comparison cmp = CompareToBaseline(baseline, fresh);
  EXPECT_EQ(cmp.status, ComparisonStatus::kOk);
  const MetricDiff* d = FindDiff(cmp, "engine.new_counter");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->kind, DiffKind::kNewMetric);
}

TEST(Compare, SchemaVersionMismatchRefusesToCompare) {
  Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  baseline.Set("schema_version", Json(kSchemaVersion + 1));
  const Comparison cmp =
      CompareToBaseline(baseline, MakeFresh(1000, 5.0, 42));
  EXPECT_EQ(cmp.status, ComparisonStatus::kBadBaseline);
  EXPECT_NE(cmp.error.find("schema_version"), std::string::npos);
}

TEST(Compare, SuiteMismatchRefusesToCompare) {
  const Json baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  SuiteResult other("churn", SuiteOptions{});
  const Comparison cmp = CompareToBaseline(baseline, other);
  EXPECT_EQ(cmp.status, ComparisonStatus::kBadBaseline);
  EXPECT_NE(cmp.error.find("suite"), std::string::npos);
}

TEST(Compare, QuickModeMismatchRefusesToCompare) {
  // A quick run's shrunken counters against a full-mode baseline (or the
  // other way round) would report spurious regressions.
  const Json full_baseline = BaselineFor(MakeFresh(1000, 5.0, 42));
  SuiteOptions quick_options;
  quick_options.quick = true;
  SuiteResult quick("smoke", quick_options);
  quick.AddExact("engine.queries", 42);
  Comparison cmp = CompareToBaseline(full_baseline, quick);
  EXPECT_EQ(cmp.status, ComparisonStatus::kBadBaseline);
  EXPECT_NE(cmp.error.find("mode"), std::string::npos);
  EXPECT_TRUE(cmp.diffs.empty());

  cmp = CompareToBaseline(BaselineFor(quick), MakeFresh(1000, 5.0, 42));
  EXPECT_EQ(cmp.status, ComparisonStatus::kBadBaseline);
  EXPECT_EQ(CompareToBaseline(BaselineFor(quick), quick).status,
            ComparisonStatus::kOk);
}

TEST(Compare, MissingBaselineFileIsDistinctFromBadBaseline) {
  const Comparison cmp = CompareToBaselineFile(
      ::testing::TempDir() + "/definitely_missing_baseline.json",
      MakeFresh(1000, 5.0, 42));
  EXPECT_EQ(cmp.status, ComparisonStatus::kNoBaseline);
  EXPECT_FALSE(cmp.error.empty());
}

TEST(Compare, RoundTripThroughDumpAndParse) {
  // The committed-file path: serialize, reparse, then compare.
  const SuiteResult base = MakeFresh(1000, 5.0, 42);
  StatusOr<Json> parsed = Json::Parse(base.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Comparison cmp = CompareToBaseline(parsed.value(), base);
  EXPECT_EQ(cmp.status, ComparisonStatus::kOk);
}

TEST(Gates, FailureNamesMetricAndThreshold) {
  SuiteResult r("smoke", SuiteOptions{});
  r.AddExact("parity.diffs", 3);
  r.RequireEq("verdict parity", "parity.diffs", 0);
  r.RequireGe("missing metric fails closed", "no.such.metric", 1);
  EXPECT_FALSE(r.AllGatesPassed());
  ASSERT_EQ(r.gates().size(), 2u);
  EXPECT_FALSE(r.gates()[0].passed);
  EXPECT_EQ(r.gates()[0].metric, "parity.diffs");
  EXPECT_EQ(r.gates()[0].threshold, 0.0);
  EXPECT_EQ(r.gates()[0].value, 3.0);
  EXPECT_FALSE(r.gates()[1].passed);
}

TEST(Gates, PassingGatesReportTrue) {
  SuiteResult r("smoke", SuiteOptions{});
  r.AddExact("parity.diffs", 0);
  r.AddCompared("speedup", 3.5, "x", Direction::kHigherBetter, 0.25);
  r.RequireEq("verdict parity", "parity.diffs", 0);
  r.RequireGe("staged speedup", "speedup", 2.0);
  r.RequireLe("parity bounded", "parity.diffs", 5);
  EXPECT_TRUE(r.AllGatesPassed());
  EXPECT_TRUE(r.ReportGates());
}

}  // namespace
}  // namespace joza::benchkit
