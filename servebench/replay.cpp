#include "replay.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string_view>
#include <utility>

#include "attack/catalog.h"
#include "engine.h"
#include "http/request_parser.h"
#include "nti/nti.h"
#include "pti/ruleset.h"
#include "sqlparse/critical.h"
#include "sqlparse/lexer.h"
#include "sqlparse/structure.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;
using joza::http::Request;
using joza::webapp::Application;
using joza::webapp::GateDecision;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

enum class SpanName : std::uint8_t { kHandle, kCheck, kRoundtrip };
enum class TwinId : std::uint8_t { kPlain, kProtected };

const char* NameOf(SpanName name) {
  switch (name) {
    case SpanName::kHandle: return "webapp.handle";
    case SpanName::kCheck: return "core.check";
    case SpanName::kRoundtrip: return "ipc.roundtrip";
  }
  return "?";
}

struct Span {
  SpanName name;
  TwinId twin;
  bool measured;
  std::int32_t parent;  // index of the enclosing span, -1 at the root
  std::uint32_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// Single-threaded span recorder: the replay calls Handle, the gate and the
// PTI backend all on one thread, so an open-span stack gives the parent.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 17); }

  void SetRequest(std::uint32_t request, TwinId twin, bool measured) {
    request_ = request;
    twin_ = twin;
    measured_ = measured;
  }
  std::size_t Open(SpanName name) {
    const std::int32_t parent =
        stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    const std::int64_t start = Now();
    spans_.push_back(Span{name, twin_, measured_, parent, request_, start,
                          start});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(std::size_t index) {
    spans_[index].end_ns = Now();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::uint32_t request_ = 0;
  TwinId twin_ = TwinId::kPlain;
  bool measured_ = false;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer->Open(name)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

// One (query, request) pair the protected gate saw, with how the engine
// resolved it (read from its counters around the call).
struct Captured {
  std::string query;
  const Request* request = nullptr;
  bool allowed = true;
  bool query_cache_hit = false;
  bool structure_cache_hit = false;
};

enum class Mode { kUntraced, kTraced, kCapture };

struct ReplayRun {
  double measured_wall_s = 0.0;
  Counters engine;  // measured-part deltas
};

// Engine counters the layer metrics are derived from, by name.
constexpr const char* kEngineCounters[] = {
    "queries_checked", "query_cache_hits", "structure_cache_hits",
    "pti_full_runs",   "attacks_detected", "nti_dp_runs",
    "nti_seed_candidates",
};

bool Replay(const Workload& w, Mode mode, Tracer* tracer,
            std::vector<Captured>* capture, ReplayRun* out,
            std::string* error) {
  ProtectedEngine engine;
  if (!BuildProtectedEngine(&engine, error)) return false;
  joza::core::Joza& joza = *engine.joza;
  auto plain = joza::attack::MakeTestbed();
  auto prot = joza::attack::MakeTestbed();
  const joza::webapp::QueryGate gate = joza.MakeGate();

  if (mode == Mode::kTraced) {
    joza.SetPtiBackend(
        [tracer, backend = engine.pool->AsPtiBackend()](
            std::string_view query, const std::vector<joza::sql::Token>& tokens,
            joza::util::Deadline deadline) {
          ScopedSpan span(tracer, SpanName::kRoundtrip);
          return backend(query, tokens, deadline);
        });
    prot->SetQueryGate([tracer, gate](std::string_view sql, const Request& r) {
      ScopedSpan span(tracer, SpanName::kCheck);
      return gate(sql, r);
    });
  } else if (mode == Mode::kCapture) {
    prot->SetQueryGate([&joza, gate, capture](std::string_view sql,
                                              const Request& r) {
      const Counters before = joza.stats().Counters();
      GateDecision decision = gate(sql, r);
      const Counters after = joza.stats().Counters();
      capture->push_back(Captured{
          std::string(sql), &r,
          decision.action == GateDecision::Action::kAllow,
          CounterDelta(before, after, "query_cache_hits") > 0,
          CounterDelta(before, after, "structure_cache_hits") > 0});
      return decision;
    });
  } else {
    prot->SetQueryGate(gate);
  }

  auto serve = [&](Application& app, TwinId twin, std::uint32_t id,
                   bool measured, const BenchRequest& request) {
    if (tracer == nullptr) {
      app.Handle(request.request);
      return;
    }
    tracer->SetRequest(id, twin, measured);
    ScopedSpan span(tracer, SpanName::kHandle);
    app.Handle(request.request);
  };
  auto serve_range = [&](Application& app, TwinId twin, std::uint32_t first_id,
                         bool measured, const BenchRequest* requests,
                         std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      serve(app, twin, first_id + static_cast<std::uint32_t>(i), measured,
            requests[i]);
    }
  };

  // Same shape as a served round: the protected warm-up, the plain one,
  // then measured blocks with the first twin flipping every block.
  serve_range(*prot, TwinId::kProtected, 0, false, w.warmup.data(),
              w.warmup.size());
  serve_range(*plain, TwinId::kPlain, 0, false, w.warmup.data(),
              w.warmup.size());
  const Counters engine0 = joza.stats().Counters();
  const auto base = static_cast<std::uint32_t>(w.warmup.size());
  for (std::size_t at = 0, b = 0; at < w.measured.size();
       at += w.sizes.block, ++b) {
    const std::size_t n = std::min(w.sizes.block, w.measured.size() - at);
    const BenchRequest* block = w.measured.data() + at;
    const auto id = base + static_cast<std::uint32_t>(at);
    const auto t0 = Clock::now();
    if (b % 2 == 0) {
      serve_range(*prot, TwinId::kProtected, id, true, block, n);
      serve_range(*plain, TwinId::kPlain, id, true, block, n);
    } else {
      serve_range(*plain, TwinId::kPlain, id, true, block, n);
      serve_range(*prot, TwinId::kProtected, id, true, block, n);
    }
    out->measured_wall_s += Seconds(Clock::now() - t0);
  }
  const Counters engine1 = joza.stats().Counters();
  for (const char* name : kEngineCounters) {
    out->engine.emplace_back(name, CounterDelta(engine0, engine1, name));
  }
  return true;
}

// Checks nesting and derives self times (duration minus child coverage).
bool SelfTimes(const std::vector<Span>& spans, std::vector<double>* self_us,
               std::string* error) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) {
      *error = "trace: span ends before it starts";
      return false;
    }
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns ||
        s.request != p.request) {
      *error = std::string("trace: ") + NameOf(s.name) +
               " does not nest inside its parent " + NameOf(p.name);
      return false;
    }
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  self_us->resize(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t self =
        spans[i].end_ns - spans[i].start_ns - child_ns[i];
    if (self < 0) {
      *error = std::string("trace: negative self time in ") +
               NameOf(spans[i].name);
      return false;
    }
    (*self_us)[i] = static_cast<double>(self) / 1e3;
  }
  return true;
}

void WriteTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"request\": %u, \"parent\": %d, \"measured\": %s}}\n",
                 i == 0 ? "" : ",", NameOf(s.name),
                 s.twin == TwinId::kPlain ? "plain" : "protected",
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request,
                 s.parent, s.measured ? "true" : "false");
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

// Defeats dead-code elimination of probe results.
volatile std::uint64_t g_sink = 0;

// Mean microseconds per call of `body` over `passes` passes (median pass).
template <typename Fn>
double ProbeUs(std::size_t passes, std::size_t calls, Fn&& body) {
  if (calls == 0) return 0.0;
  std::vector<double> per_call;
  for (std::size_t p = 0; p < passes; ++p) {
    const auto t0 = Clock::now();
    g_sink = g_sink + body();
    per_call.push_back(Seconds(Clock::now() - t0) * 1e6 /
                       static_cast<double>(calls));
  }
  return Median(per_call);
}

// Times each layer's public functions in isolation on the captured corpus.
void RunProbes(const Workload& w, const std::vector<Captured>& corpus,
               std::size_t passes, std::vector<Metric>* metrics) {
  const auto proto = joza::attack::MakeTestbed();
  joza::core::JozaConfig config;
  config.cache_capacity = kCliCacheCapacity;
  const joza::core::Joza engine = joza::core::Joza::Install(*proto, config);
  const auto snapshot = engine.ruleset();
  const bool pti_strict = snapshot->pti->config().strict_tokens;
  const bool nti_strict = snapshot->nti.strict_tokens;

  std::vector<std::vector<joza::sql::Token>> tokens;
  std::vector<std::vector<joza::sql::Token>> critical;
  std::vector<std::vector<joza::sql::CriticalUnit>> units;
  std::vector<std::vector<joza::http::InputView>> inputs;
  std::size_t qc_misses = 0, both_misses = 0, allowed = 0;
  for (const Captured& c : corpus) {
    tokens.push_back(joza::sql::Lex(c.query));
    critical.push_back(joza::sql::CriticalTokens(tokens.back(), nti_strict));
    units.push_back(joza::sql::BuildCriticalUnits(tokens.back(), pti_strict));
    inputs.push_back(c.request->InputViews());
    qc_misses += c.query_cache_hit ? 0 : 1;
    both_misses += c.query_cache_hit || c.structure_cache_hit ? 0 : 1;
    allowed += c.allowed ? 1 : 0;
  }

  const double lex = ProbeUs(passes, corpus.size(), [&] {
    std::uint64_t n = 0;
    for (const Captured& c : corpus) n += joza::sql::Lex(c.query).size();
    return n;
  });
  const double shash = ProbeUs(passes, qc_misses, [&] {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (corpus[i].query_cache_hit) continue;
      auto hash = joza::sql::StructureHashOf(corpus[i].query, tokens[i]);
      h ^= hash.ok() ? hash.value() : 1;
    }
    return h;
  });
  const double crit = ProbeUs(passes, corpus.size(), [&] {
    std::uint64_t n = 0;
    for (const auto& t : tokens) {
      n += joza::sql::BuildCriticalUnits(t, pti_strict).size();
      n += joza::sql::CriticalTokens(t, nti_strict).size();
    }
    return n;
  });
  const joza::nti::NtiAnalyzer nti(snapshot->nti);
  const double nti_us = ProbeUs(passes, corpus.size(), [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      n += nti.AnalyzeCritical(corpus[i].query, critical[i], inputs[i])
               .attack_detected;
    }
    return n;
  });
  const double pti_us = ProbeUs(passes, both_misses, [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (corpus[i].query_cache_hit || corpus[i].structure_cache_hit) continue;
      n += joza::pti::AnalyzeUnits(*snapshot->pti, corpus[i].query, units[i])
               .attack_detected;
    }
    return n;
  });
  // The database probe replays what the protected twin executed (blocked
  // queries never reach it), in capture order, on a fresh testbed per pass
  // so comment inserts grow the tables exactly as they did in the replay.
  std::vector<double> db_passes;
  for (std::size_t p = 0; p < passes && allowed > 0; ++p) {
    auto app = joza::attack::MakeTestbed();
    joza::db::Database& db = app->database();
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    for (const Captured& c : corpus) {
      if (c.allowed) n += db.Execute(c.query).ok();
    }
    db_passes.push_back(Seconds(Clock::now() - t0) * 1e6 /
                        static_cast<double>(allowed));
    g_sink = g_sink + n;
  }
  const std::size_t requests = w.warmup.size() + w.measured.size();
  const double parse = ProbeUs(passes, requests, [&] {
    joza::http::RequestParser parser;
    std::string raw;
    std::uint64_t n = 0;
    for (const auto* part : {&w.warmup, &w.measured}) {
      for (const BenchRequest& r : *part) {
        parser.Feed(r.raw);
        n += parser.Next(&raw);
      }
    }
    return n;
  });

  metrics->push_back({"sqlparse.lex_us", lex, "us"});
  metrics->push_back({"sqlparse.structure_hash_us", shash, "us"});
  metrics->push_back({"sqlparse.critical_us", crit, "us"});
  metrics->push_back({"nti.analyze_us", nti_us, "us"});
  metrics->push_back({"pti.analyze_us", pti_us, "us"});
  metrics->push_back({"db.execute_us", Median(db_passes), "us"});
  metrics->push_back({"http.parse_us", parse, "us"});
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

bool AnalyzeLayers(const Workload& w, const ReplayConfig& config,
                   LayerReport* out, std::string* error) {
  *out = LayerReport{};
  // Untraced and traced replays alternate which goes first, so drift on
  // the machine does not land on one side of trace.overhead_frac.
  std::vector<double> untraced_s, traced_s;
  std::unique_ptr<Tracer> kept;
  for (std::size_t p = 0; p < config.passes; ++p) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (p % 2 == 1);
      auto tracer = traced ? std::make_unique<Tracer>() : nullptr;
      ReplayRun run;
      if (!Replay(w, traced ? Mode::kTraced : Mode::kUntraced, tracer.get(),
                  nullptr, &run, error)) {
        return false;
      }
      (traced ? traced_s : untraced_s).push_back(run.measured_wall_s);
      if (out->engine.empty()) out->engine = run.engine;
      if (run.engine != out->engine) {
        *error = "traced-run engine counters did not repeat for a fixed seed";
        return false;
      }
      if (traced && !kept) kept = std::move(tracer);
    }
  }

  const std::vector<Span>& spans = kept->spans();
  std::vector<double> self_us;
  if (!SelfTimes(spans, &self_us, error)) return false;
  std::vector<double> check, handle_plain, handle_prot, handle_self, ipc;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    // Round trips are taken from the whole replay: after warm-up a read
    // workload sends next to nothing to the daemon.
    if (s.name == SpanName::kRoundtrip) ipc.push_back(us);
    if (!s.measured) continue;
    if (s.name == SpanName::kCheck) check.push_back(us);
    if (s.name == SpanName::kHandle && s.twin == TwinId::kPlain) {
      handle_plain.push_back(us);
    }
    if (s.name == SpanName::kHandle && s.twin == TwinId::kProtected) {
      handle_prot.push_back(us);
      handle_self.push_back(self_us[i]);
    }
  }
  out->spans = spans.size();
  out->handle_plain_median_us = Median(handle_plain);
  if (!config.trace_out.empty()) WriteTrace(spans, config.trace_out);

  const Counters& e = out->engine;
  const std::uint64_t checks = Counter(e, "queries_checked");
  std::vector<Metric>& m = out->metrics;
  m.push_back({"core.check_us", Mean(check), "us"});
  m.push_back({"core.query_cache_hit_frac",
               Ratio(Counter(e, "query_cache_hits"), checks), "fraction"});
  m.push_back({"core.structure_cache_hit_frac",
               Ratio(Counter(e, "structure_cache_hits"), checks), "fraction"});
  m.push_back({"core.pti_full_run_frac",
               Ratio(Counter(e, "pti_full_runs"), checks), "fraction"});
  m.push_back({"nti.dp_runs_per_check",
               Ratio(Counter(e, "nti_dp_runs"), checks), "count"});
  m.push_back({"nti.seed_candidates_per_check",
               Ratio(Counter(e, "nti_seed_candidates"), checks), "count"});
  m.push_back({"ipc.roundtrip_p50_us", Quantile(ipc, 0.50), "us"});
  m.push_back({"ipc.roundtrip_p99_us", Quantile(ipc, 0.99), "us"});
  m.push_back({"webapp.handle_plain_us", Mean(handle_plain), "us"});
  m.push_back({"webapp.handle_protected_us", Mean(handle_prot), "us"});
  m.push_back({"webapp.self_us", Mean(handle_self), "us"});
  m.push_back({"trace.overhead_frac",
               Median(traced_s) / Median(untraced_s) - 1.0, "fraction"});

  std::vector<Captured> corpus;
  ReplayRun capture_run;
  if (!Replay(w, Mode::kCapture, nullptr, &corpus, &capture_run, error)) {
    return false;
  }
  if (capture_run.engine != out->engine) {
    *error = "capture-pass engine counters differ from the traced replay";
    return false;
  }
  RunProbes(w, corpus, config.passes, &m);
  return true;
}

}  // namespace servebench
