// The paper suite's matched A/B (RunPaperAb) on small comment rows: both
// twins see the same traffic, the first twin alternates per rep, and the
// protected engine checks every query of the warm-up and of every rep.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "attack/catalog.h"
#include "attack/workload.h"
#include "benchkit/serve.h"
#include "benchkit/suites.h"

namespace joza::benchkit {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kRequests = 20;

PaperRow CommentRow(int reps) {
  PaperRow row;
  row.key = "test.comment";
  row.workload = [](std::uint64_t seed) {
    return attack::MakeCommentWorkload(kRequests, seed);
  };
  row.reps = reps;
  return row;
}

std::size_t FreshCommentRows() {
  auto app = attack::MakeTestbed();
  return app->database().FindTable("wp_comments")->rows.size();
}

TEST(PaperAb, TwinsEndWithEqualCommentRows) {
  const PaperAb ab = RunPaperAb(CommentRow(2), kSeed);
  // Every request of the warm-up and of both reps inserted one comment on
  // each twin.
  EXPECT_EQ(ab.plain_comment_rows, FreshCommentRows() + 3 * kRequests);
  EXPECT_EQ(ab.protected_comment_rows, ab.plain_comment_rows);
  EXPECT_EQ(ab.total.attacks_detected, 0u);
}

TEST(PaperAb, FirstTwinAlternatesPerRep) {
  const PaperAb ab = RunPaperAb(CommentRow(3), kSeed);
  ASSERT_EQ(ab.reps.size(), 3u);
  for (std::size_t r = 1; r < ab.reps.size(); ++r) {
    EXPECT_NE(ab.reps[r].protected_first, ab.reps[r - 1].protected_first)
        << "rep " << r;
  }
  for (const PaperRep& rep : ab.reps) {
    EXPECT_GT(rep.plain_s, 0);
    EXPECT_GT(rep.protected_s, 0);
  }
}

TEST(PaperAb, EngineChecksWarmupAndEveryRep) {
  const PaperRow row = CommentRow(2);
  // The queries the warm-up and the reps issue, counted through an
  // allow-all gate on a third testbed.
  auto app = attack::MakeTestbed();
  std::uint64_t queries = 0;
  app->SetQueryGate([&](std::string_view, const http::Request&) {
    ++queries;
    return webapp::GateDecision{};
  });
  std::uint64_t warmup_queries = 0;
  for (std::uint64_t seed = kSeed; seed <= kSeed + 2; ++seed) {
    for (const http::Request& request : ServedRequests(row.workload(seed))) {
      app->Handle(request);
    }
    if (seed == kSeed) warmup_queries = queries;
  }
  ASSERT_GT(warmup_queries, 0u);

  const PaperAb ab = RunPaperAb(row, kSeed);
  EXPECT_EQ(ab.warm.queries_checked, warmup_queries);
  EXPECT_EQ(ab.total.queries_checked, queries);
}

TEST(PaperAb, DaemonRowAnalyzesInTheDaemon) {
  PaperRow row = CommentRow(2);
  row.daemon = true;
  row.config.enable_nti = false;
  row.config.query_cache = false;
  row.config.structure_cache = false;
  const PaperAb ab = RunPaperAb(row, kSeed);
  // With no cache every check is a full PTI run, and every one came back
  // from the daemon: a failed round trip would be a degraded check.
  EXPECT_GT(ab.total.queries_checked, 0u);
  EXPECT_EQ(ab.total.pti_full_runs, ab.total.queries_checked);
  EXPECT_EQ(ab.total.pti_failures, 0u);
  EXPECT_EQ(ab.total.degraded_checks, 0u);
  EXPECT_EQ(ab.total.attacks_detected, 0u);
  EXPECT_EQ(ab.protected_comment_rows, ab.plain_comment_rows);
}

}  // namespace
}  // namespace joza::benchkit
