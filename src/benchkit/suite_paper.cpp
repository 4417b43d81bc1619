// paper: the paper's timing claims, one matched A/B per row.
//
// Rows:
//   table5.{read,write}.{none,query,both}  Table V: PTI alone (NTI off)
//       through the daemon, per cache tier, on crawl reads and comment
//       writes.
//   table6.w{50,10,5,1}   Table VI: full Joza, PTI in the daemon, per write
//       share.
//   fig8.{crawl,comment,search}  Fig. 8: full Joza, PTI in-process.
//   ext.{inproc,daemon}   Section VI-C: 50% writes with the structure cache
//       off, so writes reach PTI; PTI in-process (the "extension") vs the
//       daemon.
//   crawl   Section VI-A: the 1001 unique URLs of a 1000-post site.
//   wpcom   Table VII's WordPress.com write share.
//   ablation.{none,query,structure,both}  the cache configurations on a
//       30%-write mix.
//
// The overhead is the median over reps with its min-max band, recorded as
// info: it depends on the machine. Engine counters and each twin's
// wp_comments rows are deterministic per seed and exact.
//
// Gates: no row flags an attack (all traffic is benign); both twins end
// every row with equal wp_comments rows; full PTI runs fall from no cache
// to the query cache to both caches on Table V reads, Table V writes and
// in the ablation; the warm paper-scale crawl runs no full PTI analysis;
// and on Table V reads the no-cache tier's overhead band lies above both
// cached tiers' bands, the one timing ordering whose bands were disjoint
// in every local run (EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "attack/catalog.h"
#include "attack/workload.h"
#include "benchkit/metrics.h"
#include "benchkit/serve.h"
#include "benchkit/suites.h"
#include "core/joza.h"
#include "ipc/daemon_pool.h"
#include "util/stopwatch.h"

namespace joza::benchkit {

namespace {

std::size_t CommentRows(const webapp::Application& app) {
  const db::Table* table = app.database().FindTable("wp_comments");
  return table == nullptr ? 0 : table->rows.size();
}

core::JozaConfig Caches(bool nti, bool query_cache, bool structure_cache) {
  core::JozaConfig config;
  config.enable_nti = nti;
  config.query_cache = query_cache;
  config.structure_cache = structure_cache;
  return config;
}

constexpr std::size_t kCrawlPosts = 1000;

// Section VI-A's crawl: "/" and every post page, the same for every seed.
std::vector<attack::WorkloadRequest> SiteCrawl(std::uint64_t /*seed*/) {
  std::vector<attack::WorkloadRequest> crawl;
  crawl.push_back({http::Request::Get("/", {}), false});
  for (std::size_t i = 1; i <= kCrawlPosts; ++i) {
    const std::string id = std::to_string(i);
    crawl.push_back({http::Request::Get("/post", {{"id", id}}), false});
  }
  return crawl;
}

}  // namespace

PaperAb RunPaperAb(const PaperRow& row, std::uint64_t seed) {
  const auto make_app = [&row] {
    return row.make_app ? row.make_app() : attack::MakeTestbed();
  };
  auto plain = make_app();
  auto prot = make_app();
  core::Joza joza = core::Joza::Install(*prot, row.config);
  // Declared after the engine so it is torn down first; the engine's PTI
  // backend points into it.
  std::optional<ipc::DaemonPool> pool;
  if (row.daemon) {
    ipc::DaemonPool::Options options;
    options.max_size = 1;
    pool.emplace(joza.ruleset()->pti->fragments(), options);
    if (Status st = pool->Ping(); !st.ok()) {
      std::fprintf(stderr, "%s: daemon did not start: %s\n", row.key.c_str(),
                   st.ToString().c_str());
    }
    joza.SetPtiBackend(pool->AsPtiBackend());
  }
  const auto serve_plain = [&](const std::vector<http::Request>& requests) {
    Stopwatch watch;
    for (const http::Request& request : requests) plain->Handle(request);
    return watch.ElapsedSeconds();
  };
  const auto serve_protected = [&](const std::vector<http::Request>& requests) {
    Stopwatch watch;
    for (const http::Request& request : requests) {
      ServeScoped(*prot, joza, request);
    }
    return watch.ElapsedSeconds();
  };

  PaperAb ab;
  const auto warmup = ServedRequests(row.workload(seed));
  serve_plain(warmup);
  serve_protected(warmup);
  ab.warm = joza.stats();
  for (int r = 0; r < row.reps; ++r) {
    const auto requests = ServedRequests(row.workload(seed + 1 + r));
    PaperRep rep;
    rep.protected_first = r % 2 == 1;
    if (rep.protected_first) rep.protected_s = serve_protected(requests);
    rep.plain_s = serve_plain(requests);
    if (!rep.protected_first) rep.protected_s = serve_protected(requests);
    ab.reps.push_back(rep);
  }
  ab.total = joza.stats();
  ab.plain_comment_rows = CommentRows(*plain);
  ab.protected_comment_rows = CommentRows(*prot);
  return ab;
}

SuiteResult RunPaperSuite(const SuiteOptions& options) {
  SuiteResult result("paper", options);
  const std::size_t count = options.quick ? 100 : 300;
  const std::size_t mix_count = options.quick ? 200 : 600;
  const int reps = options.quick ? 3 : 8;

  struct Row {
    PaperRow ab;
    const char* paper;  // the paper's figure, "-" where it prints none
  };
  std::vector<Row> rows;
  const auto add = [&](std::string key, const char* paper, auto workload,
                       core::JozaConfig config, bool daemon) {
    PaperRow row;
    row.key = std::move(key);
    row.workload = workload;
    row.reps = reps;
    row.config = config;
    row.daemon = daemon;
    rows.push_back({std::move(row), paper});
  };
  const auto single = [count](auto make) {
    return [count, make](std::uint64_t seed) { return make(count, seed); };
  };
  const auto mix = [mix_count](double write_fraction) {
    return [mix_count, write_fraction](std::uint64_t seed) {
      return attack::MakeMixedWorkload(mix_count, write_fraction, seed);
    };
  };
  const core::JozaConfig hybrid{};  // NTI, PTI and both caches

  struct Tier {
    const char* key;
    bool query_cache, structure_cache;
    const char* paper_read;
    const char* paper_write;
  };
  const Tier tiers[] = {{"none", false, false, "(high)", "(high)"},
                        {"query", true, false, "<4%", "34%"},
                        {"both", true, true, "<4%", "12%"}};
  for (const Tier& t : tiers) {
    add(std::string("table5.read.") + t.key, t.paper_read,
        single(attack::MakeCrawlWorkload),
        Caches(false, t.query_cache, t.structure_cache), true);
  }
  for (const Tier& t : tiers) {
    add(std::string("table5.write.") + t.key, t.paper_write,
        single(attack::MakeCommentWorkload),
        Caches(false, t.query_cache, t.structure_cache), true);
  }
  add("table6.w50", "8.96%", mix(0.50), hybrid, true);
  add("table6.w10", "5.16%", mix(0.10), hybrid, true);
  add("table6.w5", "4.53%", mix(0.05), hybrid, true);
  add("table6.w1", "4.03%", mix(0.01), hybrid, true);
  add("fig8.crawl", "-", single(attack::MakeCrawlWorkload), hybrid, false);
  add("fig8.comment", "-", single(attack::MakeCommentWorkload), hybrid, false);
  add("fig8.search", "-", single(attack::MakeSearchWorkload), hybrid, false);
  add("ext.inproc", "1.7%", mix(0.50), Caches(true, true, false), false);
  add("ext.daemon", "8.96%", mix(0.50), Caches(true, true, false), true);
  add("crawl", "<4%", SiteCrawl, hybrid, false);
  rows.back().ab.reps = options.quick ? 2 : 5;
  rows.back().ab.make_app = [] {
    auto app = webapp::MakeWordpressLikeApp(/*seed=*/2015, kCrawlPosts);
    attack::InstallCatalog(*app);
    return app;
  };
  add("wpcom", "<4%", mix(attack::WpComWriteFraction()), hybrid, false);
  add("ablation.none", "-", mix(0.30), Caches(true, false, false), false);
  add("ablation.query", "-", mix(0.30), Caches(true, true, false), false);
  add("ablation.structure", "-", mix(0.30), Caches(true, false, true), false);
  add("ablation.both", "-", mix(0.30), hybrid, false);

  Table table({"Row", "Plain (s)", "Protected (s)", "Overhead", "Min-max",
               "Paper", "Queries", "Full PTI"});
  for (const Row& row : rows) {
    const PaperAb ab = RunPaperAb(row.ab, options.seed);
    std::vector<double> overheads, plain_s, protected_s;
    for (const PaperRep& rep : ab.reps) {
      overheads.push_back(rep.protected_s / rep.plain_s - 1);
      plain_s.push_back(rep.plain_s);
      protected_s.push_back(rep.protected_s);
    }
    const auto [lo, hi] = std::ranges::minmax(overheads);
    const double overhead = Percentile(overheads, 0.5);
    const double plain = Percentile(plain_s, 0.5);
    const double prot = Percentile(protected_s, 0.5);
    const std::string& key = row.ab.key;
    result.AddInfo(key + ".overhead_frac", overhead, "frac");
    result.AddInfo(key + ".overhead_min_frac", lo, "frac");
    result.AddInfo(key + ".overhead_max_frac", hi, "frac");
    result.AddInfo(key + ".plain_s", plain, "s");
    result.AddInfo(key + ".protected_s", prot, "s");
    for (const auto& [name, value] : ab.total.Counters()) {
      result.AddExact(key + ".engine." + name, static_cast<double>(value));
    }
    result.AddExact(key + ".warmup.queries_checked",
                    static_cast<double>(ab.warm.queries_checked));
    result.AddExact(key + ".warmup.pti_full_runs",
                    static_cast<double>(ab.warm.pti_full_runs));
    result.AddExact(key + ".plain.comment_rows",
                    static_cast<double>(ab.plain_comment_rows));
    result.AddExact(key + ".protected.comment_rows",
                    static_cast<double>(ab.protected_comment_rows));
    result.RequireEq(key + ": no attack flagged on benign traffic",
                     key + ".engine.attacks_detected", 0);
    result.RequireEq(key + ": twins end with equal wp_comments rows",
                     key + ".plain.comment_rows",
                     static_cast<double>(ab.protected_comment_rows));
    table.AddRow({key, Num(plain), Num(prot), Pct(overhead, 1),
                  Pct(lo, 1) + " .. " + Pct(hi, 1), row.paper,
                  std::to_string(ab.total.queries_checked),
                  std::to_string(ab.total.pti_full_runs)});
  }
  table.Print("Paper rows: protected vs plain, median of matched reps");

  const auto value = [&](const std::string& metric) {
    return result.FindMetric(metric)->value;
  };
  for (const std::string set : {"table5.read", "table5.write", "ablation"}) {
    result.RequireGe(set + ": full PTI runs, no cache > query cache",
                     set + ".none.engine.pti_full_runs",
                     value(set + ".query.engine.pti_full_runs") + 1);
    result.RequireGe(set + ": full PTI runs, query cache > both caches",
                     set + ".query.engine.pti_full_runs",
                     value(set + ".both.engine.pti_full_runs") + 1);
  }
  result.RequireEq("crawl: no full PTI run once warm",
                   "crawl.engine.pti_full_runs",
                   value("crawl.warmup.pti_full_runs"));
  result.RequireGe(
      "table5.read: no-cache overhead band above both cached tiers'",
      "table5.read.none.overhead_min_frac",
      std::max(value("table5.read.query.overhead_max_frac"),
               value("table5.read.both.overhead_max_frac")));
  return result;
}

}  // namespace joza::benchkit
