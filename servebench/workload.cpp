#include "workload.h"

#include <algorithm>
#include <map>
#include <utility>

#include "attack/catalog.h"
#include "attack/exploit.h"
#include "attack/payload_gen.h"
#include "attack/workload.h"
#include "gateway/client.h"
#include "util/codec.h"
#include "util/rng.h"

namespace servebench {

namespace {

using joza::attack::WorkloadRequest;

// Warm-up traffic is drawn from a different stream than the measured part,
// so the measured requests are not all replays of warm-up requests.
constexpr std::uint64_t kWarmupSalt = 0x5741524d55505f31ULL;

// Table VI's middle write share.
constexpr double kWriteShare = 0.10;

BenchRequest Wrap(joza::http::Request request, bool attack) {
  BenchRequest out;
  out.raw = joza::gateway::SerializeRequest(request, /*keep_alive=*/true);
  out.request = std::move(request);
  out.attack = attack;
  return out;
}

std::vector<BenchRequest> WrapAll(std::vector<WorkloadRequest> in) {
  std::vector<BenchRequest> out;
  out.reserve(in.size());
  for (WorkloadRequest& wr : in) out.push_back(Wrap(std::move(wr.request), false));
  return out;
}

std::vector<BenchRequest> ReadCrawl(std::size_t count, std::uint64_t seed) {
  return WrapAll(joza::attack::MakeCrawlWorkload(count, seed));
}

// Table VI's 10%-write mix in which as many crawl reads as there are
// comment writes become searches, spread evenly over the reads. The paper
// gives no search share (Fig. 8 times searches on their own), so searches
// and writes, the two request kinds Fig. 8 sets beside the crawl, come in
// equal numbers.
std::vector<BenchRequest> WriteMix(std::size_t count, std::uint64_t seed) {
  auto mixed = joza::attack::MakeMixedWorkload(count, kWriteShare, seed);
  std::vector<std::size_t> reads;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    if (!mixed[i].is_write) reads.push_back(i);
  }
  auto searches = joza::attack::MakeSearchWorkload(
      std::min(mixed.size() - reads.size(), reads.size()), seed);
  for (std::size_t k = 0; k < searches.size(); ++k) {
    mixed[reads[k * reads.size() / searches.size()]] = std::move(searches[k]);
  }
  return WrapAll(std::move(mixed));
}

// The attacker delivers each payload the way the plugin expects it on the
// wire (AdRotate-style endpoints base64-decode their parameter).
std::string TransportEncode(const joza::attack::PluginSpec& plugin,
                            const std::string& payload) {
  const bool base64 =
      std::find(plugin.transforms.begin(), plugin.transforms.end(),
                joza::webapp::Transform::kBase64Decode) !=
      plugin.transforms.end();
  return base64 ? joza::Base64Encode(payload) : payload;
}

// One sqlmap-style sweep of the testbed: one generated variant against each
// of the 50 plugins, in seeded order.
std::vector<BenchRequest> SqlmapSweep(std::uint64_t seed) {
  std::vector<BenchRequest> sweep;
  for (const joza::attack::PluginSpec* plugin :
       joza::attack::TestbedPlugins()) {
    for (const joza::attack::Exploit& e :
         joza::attack::GenerateSqlmapPayloads(*plugin, 1, seed)) {
      sweep.push_back(Wrap(joza::http::Request::Get(
                               plugin->route,
                               {{plugin->param,
                                 TransportEncode(*plugin, e.payload)}}),
                           true));
    }
  }
  joza::Rng rng(seed ^ 0xa77ac4ULL);
  for (std::size_t i = sweep.size(); i > 1; --i) {
    std::swap(sweep[i - 1], sweep[rng.NextBelow(i)]);
  }
  return sweep;
}

// read_crawl traffic carrying one sweep, spread evenly. The paper gives no
// attack share, so the sweep sets it: every vulnerable endpoint is attacked
// once per part, 50 of the measured part's 2000 requests.
std::vector<BenchRequest> AttackMix(std::size_t count, std::uint64_t seed) {
  auto out = ReadCrawl(count, seed);
  auto sweep = SqlmapSweep(seed);
  const std::size_t attacks = std::min(sweep.size(), count);
  for (std::size_t k = 0; k < attacks; ++k) {
    out[k * count / attacks] = std::move(sweep[k]);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"read_crawl", "write_mix",
                                                 "attack_mix"};
  return names;
}

std::string CheckShares(std::string_view name,
                        const std::vector<BenchRequest>& part) {
  if (name == "write_mix") {
    std::size_t writes = 0, searches = 0;
    for (const BenchRequest& r : part) {
      writes += r.request.method == "POST";
      searches += r.request.path == "/search";
    }
    if (writes != searches) {
      return "write_mix sends " + std::to_string(writes) + " writes but " +
             std::to_string(searches) + " searches";
    }
  }
  if (name == "attack_mix") {
    std::map<std::string, std::size_t> attacks;
    for (const BenchRequest& r : part) {
      if (r.attack) ++attacks[r.request.path];
    }
    for (const joza::attack::PluginSpec* plugin :
         joza::attack::TestbedPlugins()) {
      if (attacks[plugin->route] != 1) {
        return "attack_mix attacks " + plugin->route + " " +
               std::to_string(attacks[plugin->route]) + " times";
      }
    }
  }
  return "";
}

std::optional<Workload> MakeWorkload(std::string_view name,
                                     std::uint64_t seed, Sizes sizes) {
  std::vector<BenchRequest> (*make)(std::size_t, std::uint64_t) = nullptr;
  if (name == "read_crawl") make = ReadCrawl;
  if (name == "write_mix") make = WriteMix;
  if (name == "attack_mix") make = AttackMix;
  if (make == nullptr) return std::nullopt;
  Workload w;
  w.sizes = sizes;
  w.warmup = make(sizes.warmup, seed ^ kWarmupSalt);
  w.measured = make(sizes.measured, seed);
  return w;
}

}  // namespace servebench
