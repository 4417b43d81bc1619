// Soundness properties of the structure cache: data-only variation never
// changes the hash (so benign dynamic queries hit), while grafting SQL
// onto a cached-safe template always changes it (so a hit is never granted
// to an injected query). The differentials at the end hold the default
// engine to simpler ones over the same served and attack traffic.
#include <gtest/gtest.h>

#include "attack/catalog.h"
#include "attack/evasion.h"
#include "attack/exploit.h"
#include "attack/payload_gen.h"
#include "attack/workload.h"
#include "core/joza.h"
#include "db/value.h"
#include "gateway/client.h"
#include "pti/pti.h"
#include "sqlparse/structure.h"
#include "util/rng.h"

namespace joza::core {
namespace {

class StructureCacheProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StructureCacheProperty, DataVariantsShareOneHash) {
  Rng rng(GetParam());
  struct Template {
    const char* prefix;
    bool quoted;
    const char* suffix;
  };
  const Template templates[] = {
      {"SELECT id, title FROM wp_posts WHERE id = ", false, ""},
      {"SELECT id FROM wp_posts WHERE title = ", true, " LIMIT 10"},
      {"INSERT INTO wp_comments (id, post_id, author, body) "
       "VALUES (1, 2, 'anon', ",
       true, ")"},
      {"UPDATE wp_posts SET views = views + 1 WHERE id = ", false, ""},
  };
  for (const Template& t : templates) {
    std::optional<std::uint64_t> expected;
    for (int i = 0; i < 25; ++i) {
      // Non-negative numbers only: "-42" lexes as unary minus + literal,
      // which is a (correctly) different structure from "42".
      std::string value = t.quoted
                              ? "'" + rng.NextToken(1 + rng.NextBelow(20)) + "'"
                              : std::to_string(rng.NextInRange(0, 9999));
      auto h = sql::StructureHashOf(std::string(t.prefix) + value + t.suffix);
      ASSERT_TRUE(h.ok());
      if (!expected) {
        expected = h.value();
      } else {
        EXPECT_EQ(h.value(), *expected) << t.prefix;
      }
    }
  }
}

TEST_P(StructureCacheProperty, InjectionAlwaysChangesHash) {
  Rng rng(GetParam() * 13 + 7);
  const char* injections[] = {
      " OR 1=1",
      " UNION SELECT pass FROM wp_users",
      " AND SLEEP(2)",
      " OR (SELECT COUNT(*) FROM wp_users) > 0",
  };
  for (int i = 0; i < 25; ++i) {
    std::string benign = "SELECT id, title FROM wp_posts WHERE id = " +
                         std::to_string(rng.NextInRange(1, 9999));
    auto h_benign = sql::StructureHashOf(benign);
    ASSERT_TRUE(h_benign.ok());
    for (const char* inj : injections) {
      auto h_attack = sql::StructureHashOf(benign + inj);
      ASSERT_TRUE(h_attack.ok());
      EXPECT_NE(h_attack.value(), h_benign.value()) << inj;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructureCacheProperty,
                         ::testing::Values(1, 2, 3, 4));

// End-to-end: after the structure cache is warmed with benign traffic on
// every catalogued endpoint, injected variants still get caught.
TEST(StructureCacheEndToEnd, WarmCacheGrantsNoAmnesty) {
  auto app = attack::MakeTestbed();
  Joza joza = Joza::Install(*app);
  app->SetQueryGate(joza.MakeGate());
  // Warm: benign request to every endpoint.
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    app->Handle(http::Request::Get(p.route, {{p.param, "1"}}));
  }
  EXPECT_EQ(joza.stats().attacks_detected, 0u);
  // Attack: the original exploits, now against warm caches.
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    attack::Exploit e = attack::OriginalExploit(p);
    EXPECT_FALSE(attack::ExploitSucceeds(*app, p, e)) << p.name;
  }
  app->SetQueryGate(nullptr);
}

// The structure-cache fail-open a comment opened: the parser skips
// comments, so AdRotate's `admin' LIMIT 10#` truncates onto the shape one
// benign request cached, and base64 transport hides the payload from NTI.
// PTI counts the comment as a critical token no fragment covers.
TEST(StructureCacheEndToEnd, CommentTruncatedAdRotateIsBlocked) {
  auto app = attack::MakeTestbed();
  Joza joza = Joza::Install(*app);
  app->SetQueryGate(joza.MakeGate());
  const attack::PluginSpec* adrotate = nullptr;
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    if (p.name == "AdRotate") adrotate = &p;
  }
  ASSERT_NE(adrotate, nullptr);
  EXPECT_EQ(attack::SendPayload(*app, *adrotate, "admin").status, 200);
  EXPECT_EQ(joza.stats().attacks_detected, 0u);
  EXPECT_EQ(attack::SendPayload(*app, *adrotate, "admin' LIMIT 10#").status,
            500);
  EXPECT_EQ(joza.stats().attacks_detected, 1u);
  app->SetQueryGate(nullptr);
}

// The restricting-clause pair: /published shows a post only while it is
// published, /post-any shows any post. Both shapes are cached by one benign
// request each; then `<draft id> -- ` comments /published's status filter
// away, truncating its query onto /post-any's cached shape. The draft must
// stay hidden, also from an attacker NTI cannot see.
void ExpectTruncatedStatusFilterHidesDraft(JozaConfig config) {
  auto app = attack::MakeTestbed();
  constexpr std::int64_t kDraftId = 9001;
  const std::string kDraftTitle = "Unreleased draft 9001";
  ASSERT_TRUE(app->database()
                  .InsertRow("wp_posts",
                             {db::Value(kDraftId), db::Value(kDraftTitle),
                              db::Value(std::string("draft body")),
                              db::Value(std::string("draft")),
                              db::Value(std::int64_t{0})})
                  .ok());
  webapp::Endpoint published{"/published", "id", {},
                             "SELECT id, title FROM wp_posts WHERE id = ",
                             " AND post_status = 'publish'"};
  webapp::Endpoint any{"/post-any", "id", {},
                       "SELECT id, title FROM wp_posts WHERE id = ", ""};
  app->AddEndpoint(published, "wp-content/plugins/pair/published.php");
  app->AddEndpoint(any, "wp-content/plugins/pair/any.php");
  Joza joza = Joza::Install(*app, config);
  app->SetQueryGate(joza.MakeGate());

  for (const char* path : {"/published", "/post-any"}) {
    const http::Response benign =
        app->Handle(http::Request::Get(path, {{"id", "7"}}));
    EXPECT_EQ(benign.status, 200) << path;
    EXPECT_NE(benign.body.find("<li>7 | "), std::string::npos) << path;
  }
  EXPECT_EQ(joza.stats().attacks_detected, 0u);

  const http::Response attack = app->Handle(http::Request::Get(
      "/published", {{"id", std::to_string(kDraftId) + " -- "}}));
  EXPECT_EQ(attack.status, 500);
  EXPECT_EQ(attack.body.find(kDraftTitle), std::string::npos) << attack.body;
  EXPECT_EQ(joza.stats().attacks_detected, 1u);
  app->SetQueryGate(nullptr);
}

TEST(StructureCacheEndToEnd, TruncatedStatusFilterHidesDraftWithoutNti) {
  JozaConfig config;
  config.enable_nti = false;
  ExpectTruncatedStatusFilterHidesDraft(config);
}

TEST(StructureCacheEndToEnd, TruncatedStatusFilterHidesDraftWithDefaults) {
  ExpectTruncatedStatusFilterHidesDraft(JozaConfig{});
}

// One gated query with the inputs of the request that issued it.
struct Check {
  std::string query;
  std::vector<http::Input> inputs;
};

// Corpus builder shared by the differentials below. Every (query, inputs)
// pair the testbed's gate sees while serving `requests`, in order.
std::vector<Check> GatedChecks(const std::vector<http::Request>& requests) {
  std::vector<Check> corpus;
  auto app = attack::MakeTestbed();
  app->SetQueryGate([&corpus](std::string_view sql,
                              const http::Request& request) {
    corpus.push_back({std::string(sql), request.AllInputs()});
    return webapp::GateDecision{};  // allow
  });
  for (const http::Request& request : requests) app->Handle(request);
  app->SetQueryGate(nullptr);
  return corpus;
}

std::vector<http::Request> RequestsOf(
    const std::vector<attack::WorkloadRequest>& workload) {
  std::vector<http::Request> requests;
  for (const attack::WorkloadRequest& wr : workload) {
    requests.push_back(wr.request);
  }
  return requests;
}

// Appends the query `plugin` issues for each probe of each exploit.
void AddProbeChecks(const attack::PluginSpec& plugin,
                    const std::vector<attack::Exploit>& exploits,
                    std::vector<Check>& corpus) {
  for (const attack::Exploit& e : exploits) {
    for (const std::string* payload : {&e.payload, &e.false_payload}) {
      if (payload->empty()) continue;
      corpus.push_back({attack::QueryFor(plugin, *payload),
                        attack::InputsFor(plugin, *payload)});
    }
  }
}

// A structure hit promotes its text into the query cache, so the query
// cache must grant nothing the structure cache alone would not: over benign,
// exploit and SQLMap-style traffic, the default engine and one without a
// query cache agree on every check's verdict and on whether it ran PTI.
TEST(QueryCacheDifferential, GrantsNothingBeyondStructureCache) {
  std::vector<Check> corpus =
      GatedChecks(RequestsOf(attack::MakeMixedWorkload(300, 0.1, 7)));
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    std::vector<attack::Exploit> exploits =
        attack::GenerateSqlmapPayloads(p, 6, 99);
    exploits.push_back(attack::OriginalExploit(p));
    AddProbeChecks(p, exploits, corpus);
  }

  auto app = attack::MakeTestbed();
  Joza with_qc = Joza::Install(*app);
  JozaConfig no_qc_config;
  no_qc_config.query_cache = false;
  Joza without_qc = Joza::Install(*app, no_qc_config);
  // Two passes, so every text is also checked against warm caches.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Check& c : corpus) {
      const std::size_t runs_with = with_qc.stats().pti_full_runs;
      const std::size_t runs_without = without_qc.stats().pti_full_runs;
      const Verdict a = with_qc.Check(c.query, c.inputs);
      const Verdict b = without_qc.Check(c.query, c.inputs);
      ASSERT_EQ(a.attack, b.attack) << c.query;
      ASSERT_EQ(a.detected_by, b.detected_by) << c.query;
      ASSERT_EQ(with_qc.stats().pti_full_runs - runs_with,
                without_qc.stats().pti_full_runs - runs_without)
          << c.query;
    }
  }
  EXPECT_GT(with_qc.stats().query_cache_hits, 0u);
  EXPECT_GT(with_qc.stats().attacks_detected, 0u);
}

// The paper's two rules computed the slow, obvious way: the reference
// Sellers tier, the per-fragment PTI scan, no caches, PTI in-process.
JozaConfig PaperLiteralConfig() {
  JozaConfig config;
  config.nti.tier = nti::MatchTier::kReference;
  config.pti.use_aho_corasick = false;
  config.query_cache = false;
  config.structure_cache = false;
  return config;
}

// Each request round-tripped through the wire format, so the gate sees the
// inputs a gateway hands it (cookie, Host, Connection and, on a POST,
// Content-Type).
std::vector<http::Request> Served(std::vector<http::Request> requests) {
  for (http::Request& r : requests) {
    auto served = http::ParseRawRequest(gateway::SerializeRequest(r, true));
    EXPECT_TRUE(served.ok()) << r.path;
    if (served.ok()) r = std::move(served).value();
  }
  return requests;
}

// The evidence a verdict names: PTI's untrusted and NTI's tainted critical
// tokens, in order, each with its span in the query.
std::vector<std::string> Evidence(const Verdict& verdict) {
  std::vector<std::string> out;
  auto add = [&out](const char* analyzer, const sql::Token& t) {
    out.push_back(std::string(analyzer) + " [" +
                  std::to_string(t.span.begin) + "," +
                  std::to_string(t.span.end) + ") " + std::string(t.text));
  };
  for (const sql::Token& t : verdict.pti.untrusted_critical_tokens) {
    add("pti", t);
  }
  for (const sql::Token& t : verdict.nti.tainted_critical_tokens) {
    add("nti", t);
  }
  return out;
}

// The shape keeps each keyword's case and every parenthesis, as PTI's
// byte-for-byte fragment match does: once `... ORDER BY id ASC LIMIT 5` is
// cached, a query that only changes case or adds parentheses gets the
// paper-literal engine's verdict, not a structure hit.
TEST(StructureCacheEndToEnd, CaseAndParenthesesGetPaperLiteralVerdicts) {
  php::FragmentSet fragments;
  for (const char* f :
       {"SELECT * FROM records ORDER BY id ", "ASC", "DESC", " LIMIT 5"}) {
    fragments.AddRaw(f);
  }
  Joza cached(fragments);
  Joza literal(fragments, PaperLiteralConfig());
  ASSERT_FALSE(
      cached.Check("SELECT * FROM records ORDER BY id ASC LIMIT 5", {}).attack);
  for (const char* probe :
       {"SELECT * FROM records ORDER BY id asc LIMIT 5",
        "SELECT * FROM records ORDER BY id Asc LIMIT 5",
        "select * from records order by id asc limit 5",
        "SELECT * FROM records ORDER BY (id) ASC LIMIT 5"}) {
    const Verdict a = cached.Check(probe, {});
    const Verdict b = literal.Check(probe, {});
    EXPECT_TRUE(b.attack) << probe;
    EXPECT_EQ(a.attack, b.attack) << probe;
    EXPECT_EQ(a.detected_by, b.detected_by) << probe;
    EXPECT_EQ(Evidence(a), Evidence(b)) << probe;
  }
}

// The default engine (staged NTI, automaton PTI, both caches) against the
// paper-literal one. Over served traffic, every attack variant the testbed
// knows and comment-truncation probes, both must name the same verdict,
// the same analyzer and the same evidence on every check — including the
// second pass, which the default engine answers from warm caches. A diff
// from the structure cache is a finding, not an allowance.
TEST(ReferenceDifferential, DefaultEngineMatchesPaperLiteralRules) {
  std::vector<http::Request> requests =
      RequestsOf(attack::MakeMixedWorkload(400, 0.1, 11));
  for (http::Request& r : RequestsOf(attack::MakeSearchWorkload(100, 13))) {
    requests.push_back(std::move(r));
  }
  std::vector<Check> corpus = GatedChecks(Served(std::move(requests)));

  auto app = attack::MakeTestbed();
  const pti::PtiAnalyzer pti(php::FragmentSet::FromSources(app->sources()));
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    std::vector<attack::Exploit> exploits =
        attack::GenerateSqlmapPayloads(p, 6, 99);
    const attack::Exploit original = attack::OriginalExploit(p);
    exploits.push_back(original);
    const attack::NtiMutation mutant =
        attack::MutateForNtiEvasion(p, original, nti::NtiConfig{});
    if (mutant.possible) exploits.push_back(mutant.exploit);
    const attack::TaintlessResult taintless =
        attack::RunTaintless(p, pti, *app);
    if (taintless.success) exploits.push_back(taintless.exploit);
    AddProbeChecks(p, exploits, corpus);
  }
  // Comment-truncation probes on every endpoint, each after the endpoint's
  // benign query has cached its shape: once with the inputs that carried
  // them, once with none (an attacker whose payload NTI cannot see).
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    corpus.push_back({attack::QueryFor(p, "1"), attack::InputsFor(p, "1")});
    for (const char* probe : {"1-- ", "1#", "1/*", "x' LIMIT 1-- "}) {
      corpus.push_back(
          {attack::QueryFor(p, probe), attack::InputsFor(p, probe)});
      corpus.push_back({attack::QueryFor(p, probe), {}});
    }
  }

  Joza fast = Joza::Install(*app);
  Joza slow = Joza::Install(*app, PaperLiteralConfig());
  for (int pass = 0; pass < 2; ++pass) {
    for (const Check& c : corpus) {
      const Verdict a = fast.Check(c.query, c.inputs);
      const Verdict b = slow.Check(c.query, c.inputs);
      ASSERT_EQ(a.attack, b.attack) << c.query;
      ASSERT_EQ(a.detected_by, b.detected_by) << c.query;
      ASSERT_EQ(Evidence(a), Evidence(b)) << c.query;
    }
  }
  EXPECT_GT(fast.stats().query_cache_hits, 0u);
  EXPECT_GT(fast.stats().structure_cache_hits, 0u);
  EXPECT_GT(slow.stats().attacks_detected, 0u);
}

// The NTI pipeline counters a check reports, in a comparable form.
std::vector<std::size_t> NtiCounters(const nti::NtiResult& r) {
  return {r.inputs_considered, r.inputs_skipped,  r.exact_hits,
          r.seed_rejects,      r.seed_candidates, r.kernel_rejects,
          r.dp_runs,           r.tier_reference,  r.tier_bounded,
          r.tier_staged};
}

std::vector<std::string> MarkingsOf(const nti::NtiResult& r) {
  std::vector<std::string> out;
  for (const nti::TaintMarking& m : r.markings) {
    out.push_back(m.input_name + " [" + std::to_string(m.span.begin) + "," +
                  std::to_string(m.span.end) + ") d=" +
                  std::to_string(m.distance));
  }
  return out;
}

// One request scope per served request against a one-check scope per
// query (CheckRequest) and the paper-literal engine. Crawl and mixed
// traffic plus one request per catalog attack, each round-tripped through
// the wire format: the scope is prepared once and reused by every query
// the request issues, and must answer every one of them exactly as the
// per-query path does — same verdict, analyzer, evidence, markings and
// NTI pipeline counters — and as the paper's rules do.
TEST(ServedShapeDifferential, RequestScopeMatchesPerCheckAndPaperLiteral) {
  std::vector<http::Request> requests =
      RequestsOf(attack::MakeCrawlWorkload(200, 21));
  for (http::Request& r :
       RequestsOf(attack::MakeMixedWorkload(200, 0.1, 23))) {
    requests.push_back(std::move(r));
  }
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    const std::string payload = attack::OriginalExploit(p).payload;
    requests.push_back(http::Request::Get(
        p.route, {{p.param, attack::InputsFor(p, payload)[0].value}}));
  }
  requests = Served(std::move(requests));

  // The queries each request issues, captured through an allow-all gate.
  std::vector<std::vector<std::string>> queries(requests.size());
  {
    auto capture = attack::MakeTestbed();
    std::vector<std::string>* current = nullptr;
    capture->SetQueryGate([&current](std::string_view sql,
                                     const http::Request&) {
      current->push_back(std::string(sql));
      return webapp::GateDecision{};
    });
    for (std::size_t i = 0; i < requests.size(); ++i) {
      current = &queries[i];
      capture->Handle(requests[i]);
    }
    capture->SetQueryGate(nullptr);
  }

  auto app = attack::MakeTestbed();
  Joza scoped = Joza::Install(*app);
  Joza per_check = Joza::Install(*app);
  Joza literal = Joza::Install(*app, PaperLiteralConfig());
  std::size_t checks = 0;
  std::size_t attacks = 0;
  std::size_t filtered = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    RequestScope scope = scoped.BeginRequest(requests[i]);
    for (const std::string& q : queries[i]) {
      const Verdict a = scope.Check(q);
      const Verdict b = per_check.CheckRequest(q, requests[i]);
      const Verdict c = literal.CheckRequest(q, requests[i]);
      ASSERT_EQ(a.attack, b.attack) << q;
      ASSERT_EQ(a.attack, c.attack) << q;
      ASSERT_EQ(a.detected_by, b.detected_by) << q;
      ASSERT_EQ(a.detected_by, c.detected_by) << q;
      ASSERT_EQ(Evidence(a), Evidence(b)) << q;
      ASSERT_EQ(Evidence(a), Evidence(c)) << q;
      ASSERT_EQ(MarkingsOf(a.nti), MarkingsOf(b.nti)) << q;
      ASSERT_EQ(NtiCounters(a.nti), NtiCounters(b.nti)) << q;
      ++checks;
      if (a.attack) ++attacks;
      filtered += a.nti.seed_rejects + a.nti.seed_candidates;
    }
  }
  EXPECT_GT(checks, 5000u);
  EXPECT_GE(attacks, attack::PluginCatalog().size());
  EXPECT_GT(filtered, checks);  // the served inputs reach the filter
}

// Benign-per-endpoint PTI coverage: with the full testbed vocabulary,
// every endpoint's benign query must be PTI-trusted (per-plugin FP check).
TEST(PerEndpointCoverage, BenignQueriesFullyTrusted) {
  auto app = attack::MakeTestbed();
  pti::PtiAnalyzer pti(php::FragmentSet::FromSources(app->sources()));
  for (const attack::PluginSpec& p : attack::PluginCatalog()) {
    for (const char* value : {"1", "42", "0"}) {
      const std::string q = attack::QueryFor(p, value);
      auto r = pti.Analyze(q);
      EXPECT_FALSE(r.attack_detected) << p.name << " query: " << q;
    }
  }
}

}  // namespace
}  // namespace joza::core
