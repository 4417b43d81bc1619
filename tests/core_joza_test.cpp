#include "core/joza.h"

#include <gtest/gtest.h>

#include "sqlparse/lexer.h"

namespace joza::core {
namespace {

using http::Input;
using http::InputKind;

Input Get(std::string name, std::string value) {
  return Input{InputKind::kGet, std::move(name), std::move(value)};
}

php::FragmentSet RichFragments() {
  php::FragmentSet set;
  set.AddRaw("SELECT * FROM records WHERE ID=");
  set.AddRaw(" LIMIT 5");
  set.AddRaw("OR");
  set.AddRaw("=");
  set.AddRaw(" AND ");
  return set;
}

// --- Figure 4: the complementary nature of NTI and PTI ----------------------

TEST(Hybrid, Figure4A_ShortPayloadEvadesPtiCaughtByNti) {
  // "1 OR 1 = 1": every critical token (OR, =) exists in the application's
  // fragments, so PTI misses it; NTI sees the verbatim input and flags it.
  Joza joza(RichFragments());
  auto v = joza.Check("SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5",
                      {Get("id", "1 OR 1 = 1")});
  EXPECT_TRUE(v.attack);
  EXPECT_EQ(v.detected_by, DetectedBy::kNti);
  EXPECT_FALSE(v.pti.attack_detected);
  EXPECT_TRUE(v.nti.attack_detected);
}

// Builds the paper's NTI-evasion payload: a base injection plus a comment
// block of `quotes` quote characters that the application's magic quotes
// will escape. Ratio = quotes / (len(base) + 2*quotes); quotes > 10 beats
// a 20% threshold for this base.
std::pair<std::string, std::string> EvasivePayload(int quotes) {
  std::string input = "-1 UNION SELECT username()/*";
  std::string in_query = input;
  for (int i = 0; i < quotes; ++i) {
    input += "'";
    in_query += "\\'";
  }
  input += "*/";
  in_query += "*/";
  return {input, in_query};
}

TEST(Hybrid, Figure4B_TransformedPayloadEvadesNtiCaughtByPti) {
  // Magic-quoted comment block pushes NTI's ratio over threshold; PTI sees
  // the UNION/SELECT tokens and the assembled comment as untrusted.
  Joza joza(RichFragments());
  auto [input, in_query] = EvasivePayload(15);
  std::string query =
      "SELECT * FROM records WHERE ID=" + in_query + " LIMIT 5";
  auto v = joza.Check(query, {Get("id", input)});
  EXPECT_TRUE(v.attack);
  EXPECT_EQ(v.detected_by, DetectedBy::kPti);
  EXPECT_TRUE(v.pti.attack_detected);
  EXPECT_FALSE(v.nti.attack_detected);
}

TEST(Hybrid, BothDetectPlainAttack) {
  Joza joza(RichFragments());
  auto v = joza.Check(
      "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5",
      {Get("id", "-1 UNION SELECT username()")});
  EXPECT_TRUE(v.attack);
  EXPECT_EQ(v.detected_by, DetectedBy::kBoth);
}

TEST(Hybrid, BenignSafe) {
  Joza joza(RichFragments());
  auto v = joza.Check("SELECT * FROM records WHERE ID=17 LIMIT 5",
                      {Get("id", "17")});
  EXPECT_FALSE(v.attack);
  EXPECT_EQ(v.detected_by, DetectedBy::kNone);
}

// --- Caches ------------------------------------------------------------------

TEST(Caches, QueryCacheSkipsPtiOnRepeat) {
  Joza joza(RichFragments());
  const std::string q = "SELECT * FROM records WHERE ID=17 LIMIT 5";
  auto v1 = joza.Check(q, {Get("id", "17")});
  EXPECT_FALSE(v1.attack);
  EXPECT_FALSE(v1.query_cache_hit);
  auto v2 = joza.Check(q, {Get("id", "17")});
  EXPECT_FALSE(v2.attack);
  EXPECT_TRUE(v2.query_cache_hit);
  EXPECT_EQ(joza.stats().pti_full_runs, 1u);
  EXPECT_EQ(joza.stats().nti_runs, 2u) << "NTI must run on every request";
}

TEST(Caches, StructureCacheCoversDataVariants) {
  Joza joza(RichFragments());
  auto v1 = joza.Check("SELECT * FROM records WHERE ID=17 LIMIT 5",
                       {Get("id", "17")});
  EXPECT_FALSE(v1.attack);
  // Different literal, same shape: structure hit, no PTI re-run.
  auto v2 = joza.Check("SELECT * FROM records WHERE ID=99 LIMIT 5",
                       {Get("id", "99")});
  EXPECT_FALSE(v2.attack);
  EXPECT_FALSE(v2.query_cache_hit);
  EXPECT_TRUE(v2.structure_cache_hit);
  EXPECT_EQ(joza.stats().pti_full_runs, 1u);
}

TEST(Caches, StructureHitPromotesToQueryCache) {
  Joza joza(RichFragments());
  joza.Check("SELECT * FROM records WHERE ID=17 LIMIT 5", {Get("id", "17")});
  const std::string q = "SELECT * FROM records WHERE ID=99 LIMIT 5";
  auto v1 = joza.Check(q, {Get("id", "99")});
  EXPECT_TRUE(v1.structure_cache_hit);
  const std::size_t pti_runs = joza.stats().pti_full_runs;
  // The text the structure hit proved safe now hits the query cache.
  auto v2 = joza.Check(q, {Get("id", "99")});
  EXPECT_FALSE(v2.attack);
  EXPECT_TRUE(v2.query_cache_hit);
  EXPECT_FALSE(v2.structure_cache_hit);
  EXPECT_EQ(joza.stats().pti_full_runs, pti_runs);
  EXPECT_EQ(joza.stats().query_cache_hits, 1u);
  EXPECT_EQ(joza.stats().structure_cache_hits, 1u);

  // With the query cache off nothing is promoted.
  JozaConfig cfg;
  cfg.query_cache = false;
  Joza no_qc(RichFragments(), cfg);
  no_qc.Check("SELECT * FROM records WHERE ID=17 LIMIT 5", {});
  no_qc.Check(q, {});
  EXPECT_TRUE(no_qc.Check(q, {}).structure_cache_hit);
  EXPECT_EQ(no_qc.stats().query_cache_hits, 0u);
}

TEST(Caches, InjectedQueryNeverHitsCaches) {
  Joza joza(RichFragments());
  auto v1 = joza.Check("SELECT * FROM records WHERE ID=17 LIMIT 5",
                       {Get("id", "17")});
  EXPECT_FALSE(v1.attack);
  // Injection changes the shape: full PTI runs and still detects.
  auto v2 = joza.Check(
      "SELECT * FROM records WHERE ID=17 UNION SELECT username() LIMIT 5",
      {Get("id", "17 UNION SELECT username()")});
  EXPECT_TRUE(v2.attack);
  EXPECT_FALSE(v2.query_cache_hit);
  EXPECT_FALSE(v2.structure_cache_hit);
}

TEST(Caches, UnsafeQueriesNotCached) {
  Joza joza(RichFragments());
  const std::string q =
      "SELECT * FROM records WHERE ID=1 UNION SELECT username() LIMIT 5";
  auto v1 = joza.Check(q, {});
  EXPECT_TRUE(v1.attack);
  auto v2 = joza.Check(q, {});
  EXPECT_TRUE(v2.attack);
  EXPECT_FALSE(v2.query_cache_hit);
  EXPECT_EQ(joza.stats().pti_full_runs, 2u);
}

TEST(Caches, DisabledCachesAlwaysRunPti) {
  JozaConfig cfg;
  cfg.query_cache = false;
  cfg.structure_cache = false;
  Joza joza(RichFragments(), cfg);
  const std::string q = "SELECT * FROM records WHERE ID=17 LIMIT 5";
  joza.Check(q, {});
  joza.Check(q, {});
  EXPECT_EQ(joza.stats().pti_full_runs, 2u);
}

TEST(Caches, UnparseableQueryBypassesStructureCache) {
  JozaConfig cfg;
  cfg.query_cache = false;  // isolate the structure cache
  Joza joza(RichFragments(), cfg);
  // A query that does not lex cleanly (an unterminated string) has no
  // shape: PTI runs on every copy, although it finds this one safe.
  const std::string q = "SELECT * FROM records WHERE ID='17 LIMIT 5";
  EXPECT_FALSE(joza.Check(q, {}).attack);
  EXPECT_FALSE(joza.Check(q, {}).attack);
  EXPECT_EQ(joza.stats().pti_full_runs, 2u);
  EXPECT_EQ(joza.stats().structure_cache_hits, 0u);
}

TEST(Caches, SourceUpdateInvalidates) {
  Joza joza(RichFragments());
  const std::string q = "SELECT * FROM records WHERE ID=17 LIMIT 5";
  joza.Check(q, {});
  joza.OnSourcesChanged({{"new_plugin.php", "$q = 'SELECT 1';"}});
  auto v = joza.Check(q, {});
  EXPECT_FALSE(v.query_cache_hit);
  EXPECT_FALSE(v.structure_cache_hit);
  EXPECT_EQ(joza.stats().pti_full_runs, 2u);
}

TEST(Caches, CommentIsPartOfTheShape) {
  // A comment is a token of the shape, so the commented query below misses
  // the cached query's shape; PTI must still see its uncovered comment.
  Joza joza(RichFragments());
  EXPECT_FALSE(joza.Check("SELECT * FROM records WHERE ID=17 LIMIT 5", {})
                   .attack);
  auto v = joza.Check("SELECT * FROM records WHERE ID=17 LIMIT 5 -- x", {});
  EXPECT_FALSE(v.structure_cache_hit);
  EXPECT_TRUE(v.attack);
  EXPECT_EQ(v.detected_by, DetectedBy::kPti);
  // Nor does a commented query that PTI proves safe lend its shape to the
  // same query without the comment.
  php::FragmentSet set = RichFragments();
  set.AddRaw(" /* ok */");
  Joza tolerant(std::move(set));
  EXPECT_FALSE(
      tolerant.Check("SELECT * FROM records WHERE ID=17 LIMIT 5 /* ok */", {})
          .attack);
  v = tolerant.Check("SELECT * FROM records WHERE ID=18 LIMIT 5", {});
  EXPECT_FALSE(v.structure_cache_hit);
  EXPECT_EQ(tolerant.stats().pti_full_runs, 2u);
}

// --- Request scopes ----------------------------------------------------------

TEST(RequestScope, AnswersLikeOneCheckScopes) {
  Joza scoped(RichFragments());
  Joza single(RichFragments());
  http::Request request = http::Request::Get(
      "/page", {{"id", "1 OR 1 = 1"}, {"q", "records"}});
  request.WithCookie("session", "abcdef123").WithHeader("host", "localhost");
  RequestScope scope = scoped.BeginRequest(request);
  for (const char* q : {"SELECT * FROM records WHERE ID=17 LIMIT 5",
                        "SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5",
                        "SELECT * FROM records WHERE ID=1 OR 1 = 2 LIMIT 5",
                        "SELECT * FROM records WHERE ID=17 LIMIT 5"}) {
    const Verdict a = scope.Check(q);
    const Verdict b = single.CheckRequest(q, request);
    EXPECT_EQ(a.attack, b.attack) << q;
    EXPECT_EQ(a.detected_by, b.detected_by) << q;
    EXPECT_EQ(a.query_cache_hit, b.query_cache_hit) << q;
    EXPECT_EQ(a.nti.markings.size(), b.nti.markings.size()) << q;
    EXPECT_EQ(a.nti.exact_hits, b.nti.exact_hits) << q;
    EXPECT_EQ(a.nti.seed_rejects, b.nti.seed_rejects) << q;
    EXPECT_EQ(a.nti.dp_runs, b.nti.dp_runs) << q;
  }
  EXPECT_EQ(scoped.stats().attacks_detected, 2u);
  EXPECT_EQ(scoped.stats().queries_checked, 4u);
}

TEST(RequestScope, PinsItsSnapshotAcrossSourceUpdate) {
  // The update makes `q` PTI-safe. The request under way keeps the
  // vocabulary it began with; the next request sees the new one.
  Joza joza(RichFragments());
  const std::string q =
      "SELECT * FROM records WHERE ID=1 UNION SELECT 9 LIMIT 5";
  const http::Request request = http::Request::Get("/page", {{"id", "9"}});
  RequestScope scope = joza.BeginRequest(request);
  EXPECT_TRUE(scope.Check(q).attack);
  joza.OnSourcesChanged({{"union.php", "$q = '" + q + "';"}});
  const Verdict rest = scope.Check(q);
  EXPECT_EQ(rest.ruleset_version, 0u);
  EXPECT_EQ(scope.ruleset_version(), 0u);
  EXPECT_TRUE(rest.attack);
  const Verdict next = joza.BeginRequest(request).Check(q);
  EXPECT_EQ(next.ruleset_version, 1u);
  EXPECT_FALSE(next.attack);
}

TEST(RequestScope, GateAnswersForItsRequest) {
  // An application serving one request through the scope's gate: the
  // query cache still warms across requests, and a tainted query is
  // blocked with the configured recovery policy.
  Joza joza(RichFragments());
  const http::Request benign = http::Request::Get("/page", {{"id", "17"}});
  const http::Request attack =
      http::Request::Get("/page", {{"id", "1 OR 1 = 1"}});
  RequestScope first = joza.BeginRequest(benign);
  webapp::QueryGate gate = first.MakeGate();
  EXPECT_EQ(gate("SELECT * FROM records WHERE ID=17 LIMIT 5", benign).action,
            webapp::GateDecision::Action::kAllow);
  RequestScope second = joza.BeginRequest(attack);
  gate = second.MakeGate();
  EXPECT_EQ(gate("SELECT * FROM records WHERE ID=17 LIMIT 5", attack).action,
            webapp::GateDecision::Action::kAllow);
  EXPECT_EQ(joza.stats().query_cache_hits, 1u);
  const webapp::GateDecision d =
      gate("SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5", attack);
  EXPECT_EQ(d.action, webapp::GateDecision::Action::kBlockTerminate);
  EXPECT_EQ(d.reason, "SQL injection detected by NTI");
}

// --- Snapshot versioning -----------------------------------------------------

TEST(Snapshot, VersionBumpsAndIsStampedEverywhere) {
  Joza joza(RichFragments());
  EXPECT_EQ(joza.ruleset_version(), 0u);
  const std::string q = "SELECT * FROM records WHERE ID=5 LIMIT 5";
  auto v = joza.Check(q, {});
  EXPECT_EQ(v.ruleset_version, 0u);
  EXPECT_EQ(joza.stats().ruleset_version, 0u);
  EXPECT_EQ(joza.stats().ruleset_swaps, 0u);

  joza.OnSourcesChanged({{"new_plugin.php", "$q = 'SELECT 1';"}});
  EXPECT_EQ(joza.ruleset_version(), 1u);
  v = joza.Check(q, {});
  EXPECT_EQ(v.ruleset_version, 1u);
  const JozaStats stats = joza.stats();
  EXPECT_EQ(stats.ruleset_version, 1u);
  EXPECT_EQ(stats.ruleset_swaps, 1u);
}

TEST(Snapshot, LexOnlyWhenTokensAreNeeded) {
  // The single-pass pipeline lexes at most once per Check, and only when a
  // cache miss (structure hash, PTI units) or an NTI marking (whole-token
  // rule) reads tokens. A query-cache hit with unmarked inputs never lexes.
  Joza joza(RichFragments());
  const std::string q = "SELECT * FROM records WHERE ID=17 LIMIT 5";
  auto lexes_of = [&joza](const std::string& query,
                          const std::vector<Input>& inputs, Verdict* out) {
    const std::uint64_t before = sql::LexCallsForTest();
    *out = joza.Check(query, inputs);
    return sql::LexCallsForTest() - before;
  };
  Verdict v;

  EXPECT_EQ(lexes_of(q, {}, &v), 1u);  // cold: full PTI run
  EXPECT_FALSE(v.query_cache_hit);
  EXPECT_FALSE(v.structure_cache_hit);

  EXPECT_EQ(lexes_of("SELECT * FROM records WHERE ID=99 LIMIT 5", {}, &v),
            1u);
  EXPECT_TRUE(v.structure_cache_hit);

  EXPECT_EQ(lexes_of("SELECT * FROM records WHERE ID=1 UNION SELECT 9 LIMIT 5",
                     {}, &v),
            1u);
  EXPECT_TRUE(v.attack);

  EXPECT_EQ(lexes_of("SELECT * FROM records WHERE ID= LIMIT", {}, &v), 1u);

  // Query-cache hit; one input too short to mark, one long enough to be
  // matched but absent from the query.
  EXPECT_EQ(lexes_of(q, {Get("id", "17"), Get("session", "abcdef123")}, &v),
            0u);
  EXPECT_TRUE(v.query_cache_hit);
  EXPECT_FALSE(v.attack);
  EXPECT_TRUE(v.nti.markings.empty());

  // Figure 4A's text is PTI-safe, so it is cached; checked again with the
  // payload as an input, NTI marks it and the whole-token rule lexes once.
  const std::string fig4a = "SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5";
  EXPECT_EQ(lexes_of(fig4a, {}, &v), 1u);
  EXPECT_FALSE(v.attack);
  EXPECT_EQ(lexes_of(fig4a, {Get("id", "1 OR 1 = 1")}, &v), 1u);
  EXPECT_TRUE(v.query_cache_hit);
  EXPECT_TRUE(v.attack);
  EXPECT_EQ(v.detected_by, DetectedBy::kNti);
  std::vector<std::string_view> tainted;
  for (const sql::Token& t : v.nti.tainted_critical_tokens) {
    tainted.push_back(t.text);
  }
  EXPECT_EQ(tainted, (std::vector<std::string_view>{"OR", "="}));
}

TEST(Snapshot, NoInputCopiesPerCheckRequest) {
  // The request-facing entry analyzes stored inputs as borrowed views;
  // materializing per-Check copies (the old AllInputs() path) is a
  // regression. Same counter idiom as LexOnlyWhenTokensAreNeeded.
  Joza joza(RichFragments());
  http::Request request = http::Request::Get(
      "/page", {{"id", "17"}, {"q", "search term"}});
  request.WithCookie("session", "abcdef123").WithHeader("user-agent", "Bot");

  std::uint64_t before = http::InputCopiesForTest();
  auto v = joza.CheckRequest("SELECT * FROM records WHERE ID=17 LIMIT 5",
                             request);
  EXPECT_FALSE(v.attack);
  v = joza.CheckRequest(
      "SELECT * FROM records WHERE ID=-1 UNION SELECT 9 LIMIT 5", request);
  EXPECT_TRUE(v.attack);
  EXPECT_EQ(http::InputCopiesForTest() - before, 0u);

  // The compatibility path still copies — the counter itself works.
  before = http::InputCopiesForTest();
  const auto all = request.AllInputs();
  EXPECT_EQ(http::InputCopiesForTest() - before, all.size());
}

// --- Component toggles -------------------------------------------------------

TEST(Toggles, NtiOnlyMissesFigure4B) {
  JozaConfig cfg;
  cfg.enable_pti = false;
  Joza joza(RichFragments(), cfg);
  auto [input, in_query] = EvasivePayload(15);
  std::string query =
      "SELECT * FROM records WHERE ID=" + in_query + " LIMIT 5";
  auto v = joza.Check(query, {Get("id", input)});
  EXPECT_FALSE(v.attack) << "NTI alone must miss the transformed payload";
}

TEST(Toggles, PtiOnlyMissesFigure4A) {
  JozaConfig cfg;
  cfg.enable_nti = false;
  Joza joza(RichFragments(), cfg);
  auto v = joza.Check("SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5",
                      {Get("id", "1 OR 1 = 1")});
  EXPECT_FALSE(v.attack) << "PTI alone must miss the in-vocabulary payload";
}

// --- Gate integration --------------------------------------------------------

TEST(Gate, ProtectsWordpressApp) {
  auto app = webapp::MakeWordpressLikeApp(7);
  app->AddEndpoint(
      webapp::Endpoint{"/vuln", "id", {},
                       "SELECT title FROM wp_posts WHERE id = ", "", false,
                       webapp::ResponseMode::kData},
      "wp-content/plugins/vuln.php");
  auto joza = std::make_unique<Joza>(Joza::Install(*app));
  app->SetQueryGate(joza->MakeGate());

  // Benign request passes untouched.
  auto ok = app->Handle(http::Request::Get("/vuln", {{"id", "3"}}));
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("Post 3"), std::string::npos);

  // Exploit blocked with a blank page (termination policy).
  auto blocked = app->Handle(http::Request::Get(
      "/vuln", {{"id", "-1 UNION SELECT pass FROM wp_users"}}));
  EXPECT_EQ(blocked.status, 500);
  EXPECT_TRUE(blocked.body.empty());
  EXPECT_EQ(blocked.body.find("s3cr3t_hash"), std::string::npos);
}

TEST(Gate, ErrorVirtualizationKeepsAppAlive) {
  auto app = webapp::MakeWordpressLikeApp(7);
  app->AddEndpoint(
      webapp::Endpoint{"/vuln", "id", {},
                       "SELECT title FROM wp_posts WHERE id = ", "", false,
                       webapp::ResponseMode::kBlind},
      "wp-content/plugins/vuln.php");
  JozaConfig cfg;
  cfg.recovery = RecoveryPolicy::kErrorVirtualization;
  auto joza = std::make_unique<Joza>(Joza::Install(*app, cfg));
  app->SetQueryGate(joza->MakeGate());
  auto blocked = app->Handle(http::Request::Get(
      "/vuln", {{"id", "-1 UNION SELECT pass FROM wp_users"}}));
  // The app's own blind error page renders — not a blank termination.
  EXPECT_EQ(blocked.status, 500);
  EXPECT_NE(blocked.body.find("Error"), std::string::npos);
}

TEST(Gate, NoFalsePositivesOnCoreRoutes) {
  auto app = webapp::MakeWordpressLikeApp(7);
  auto joza = std::make_unique<Joza>(Joza::Install(*app));
  app->SetQueryGate(joza->MakeGate());
  const http::Request benign[] = {
      http::Request::Get("/", {}),
      http::Request::Get("/post", {{"id", "5"}}),
      http::Request::Get("/search", {{"s", "Post"}}),
      http::Request::Get("/search", {{"s", "it's a test"}}),
      http::Request::Post("/comment", {{"body", "I love this post!"}}),
      http::Request::Post("/comment", {{"body", "quote ' and \" chars"}}),
  };
  for (const auto& req : benign) {
    auto resp = app->Handle(req);
    EXPECT_NE(resp.status, 500) << req.path;
    EXPECT_EQ(app->last_stats().queries_blocked, 0u) << req.path;
  }
}

TEST(Gate, PluggablePtiBackend) {
  Joza joza(RichFragments());
  bool called = false;
  joza.SetPtiBackend([&called](std::string_view,
                               const std::vector<sql::Token>&,
                               util::Deadline) -> StatusOr<pti::PtiResult> {
    called = true;
    pti::PtiResult r;
    r.attack_detected = false;
    return r;
  });
  joza.Check("SELECT * FROM records WHERE ID=1 LIMIT 5", {});
  EXPECT_TRUE(called);
}

}  // namespace
}  // namespace joza::core
