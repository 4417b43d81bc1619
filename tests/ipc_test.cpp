#include <gtest/gtest.h>

#include <thread>

#include "attack/catalog.h"
#include "attack/exploit.h"
#include "core/joza.h"
#include "ipc/daemon.h"
#include "ipc/daemon_pool.h"
#include "ipc/framing.h"

namespace joza::ipc {
namespace {

php::FragmentSet PaperFragments() {
  php::FragmentSet set;
  set.AddRaw("SELECT * FROM records WHERE ID=");
  set.AddRaw(" LIMIT 5");
  return set;
}

// --- Framing -----------------------------------------------------------------

TEST(Framing, FrameRoundTrip) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  Frame out{MessageType::kAnalyzeRequest, "SELECT 1"};
  ASSERT_TRUE(WriteFrame(pipe->second.get(), out).ok());
  auto in = ReadFrame(pipe->first.get());
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  EXPECT_EQ(in->type, MessageType::kAnalyzeRequest);
  EXPECT_EQ(in->payload, "SELECT 1");
}

TEST(Framing, EmptyPayload) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  ASSERT_TRUE(WriteFrame(pipe->second.get(), {MessageType::kPing, ""}).ok());
  auto in = ReadFrame(pipe->first.get());
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in->type, MessageType::kPing);
  EXPECT_TRUE(in->payload.empty());
}

TEST(Framing, CleanEofIsNotFound) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  pipe->second.Close();
  auto in = ReadFrame(pipe->first.get());
  ASSERT_FALSE(in.ok());
  EXPECT_EQ(in.status().code(), StatusCode::kNotFound);
}

TEST(Framing, OversizedFrameRejected) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  ASSERT_TRUE(
      WriteFrame(pipe->second.get(), {MessageType::kPing, "0123456789"}).ok());
  auto in = ReadFrame(pipe->first.get(), /*max_payload=*/4);
  ASSERT_FALSE(in.ok());
  EXPECT_EQ(in.status().code(), StatusCode::kInvalidArgument);
}

TEST(Framing, MultipleFramesInOrder) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(WriteFrame(pipe->second.get(),
                           {MessageType::kAck, std::to_string(i)})
                    .ok());
  }
  for (int i = 0; i < 10; ++i) {
    auto in = ReadFrame(pipe->first.get());
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(in->payload, std::to_string(i));
  }
}

TEST(Framing, VerdictWireRoundTrip) {
  PtiVerdictWire v;
  v.attack_detected = true;
  v.untrusted_critical_tokens = 3;
  v.hits = 17;
  v.fragments_scanned = 99;
  v.ruleset_version = (std::uint64_t{7} << 32) | 42u;  // exercises both words
  v.untrusted_texts = {"UNION", "SELECT", "-- x"};
  auto decoded = DecodeVerdict(EncodeVerdict(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->attack_detected);
  EXPECT_EQ(decoded->untrusted_critical_tokens, 3u);
  EXPECT_EQ(decoded->hits, 17u);
  EXPECT_EQ(decoded->fragments_scanned, 99u);
  EXPECT_EQ(decoded->ruleset_version, v.ruleset_version);
  EXPECT_EQ(decoded->untrusted_texts, v.untrusted_texts);
}

TEST(Framing, VerdictDecodeRejectsTruncated) {
  PtiVerdictWire v;
  v.untrusted_texts = {"abc"};
  std::string enc = EncodeVerdict(v);
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_FALSE(DecodeVerdict(enc.substr(0, cut)).ok()) << cut;
  }
}

TEST(Framing, StringListRoundTrip) {
  std::vector<std::string> list = {"OR", " LIMIT 5", "", "a'b\"c"};
  auto decoded = DecodeStringList(EncodeStringList(list));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), list);
}

TEST(Framing, FragmentUpdateRoundTrip) {
  FragmentUpdate update;
  update.version = (std::uint64_t{1} << 40) + 3;
  update.fragments = {" ORDER BY id", "", "a'b"};
  auto decoded = DecodeFragmentUpdate(EncodeFragmentUpdate(update));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, update.version);
  EXPECT_EQ(decoded->fragments, update.fragments);
}

TEST(Framing, FragmentUpdateRejectsTruncated) {
  FragmentUpdate update;
  update.version = 9;
  update.fragments = {"abc"};
  std::string enc = EncodeFragmentUpdate(update);
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_FALSE(DecodeFragmentUpdate(enc.substr(0, cut)).ok()) << cut;
  }
}

TEST(Framing, U64RoundTripAndTrailingBytesRejected) {
  const std::uint64_t v = (std::uint64_t{0xdead} << 32) | 0xbeef;
  auto decoded = DecodeU64(EncodeU64(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), v);
  EXPECT_FALSE(DecodeU64(EncodeU64(v) + "x").ok());
  EXPECT_FALSE(DecodeU64("short").ok());
}

// --- In-process daemon loop (threads, no fork) --------------------------------

TEST(DaemonServe, AnalyzeOverPipes) {
  auto req = MakePipe();
  auto resp = MakePipe();
  ASSERT_TRUE(req.ok() && resp.ok());
  std::thread server([rfd = req->first.get(), wfd = resp->second.get()] {
    ServePtiDaemon(rfd, wfd, PaperFragments());
  });

  // Benign query.
  ASSERT_TRUE(WriteFrame(req->second.get(),
                         {MessageType::kAnalyzeRequest,
                          "SELECT * FROM records WHERE ID=5 LIMIT 5"})
                  .ok());
  auto r1 = ReadFrame(resp->first.get());
  ASSERT_TRUE(r1.ok());
  auto v1 = DecodeVerdict(r1->payload);
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(v1->attack_detected);

  // Injected query.
  ASSERT_TRUE(
      WriteFrame(req->second.get(),
                 {MessageType::kAnalyzeRequest,
                  "SELECT * FROM records WHERE ID=1 UNION SELECT 2 LIMIT 5"})
          .ok());
  auto r2 = ReadFrame(resp->first.get());
  ASSERT_TRUE(r2.ok());
  auto v2 = DecodeVerdict(r2->payload);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(v2->attack_detected);
  EXPECT_GT(v2->untrusted_critical_tokens, 0u);

  // Shutdown handshake.
  ASSERT_TRUE(
      WriteFrame(req->second.get(), {MessageType::kShutdown, ""}).ok());
  auto ack = ReadFrame(resp->first.get());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, MessageType::kAck);
  server.join();
}

TEST(DaemonServe, AddFragmentsTakesEffect) {
  auto req = MakePipe();
  auto resp = MakePipe();
  ASSERT_TRUE(req.ok() && resp.ok());
  std::thread server([rfd = req->first.get(), wfd = resp->second.get()] {
    ServePtiDaemon(rfd, wfd, PaperFragments());
  });
  const std::string query =
      "SELECT * FROM records WHERE ID=5 ORDER BY id LIMIT 5";
  ASSERT_TRUE(
      WriteFrame(req->second.get(), {MessageType::kAnalyzeRequest, query})
          .ok());
  auto before = DecodeVerdict(ReadFrame(resp->first.get())->payload);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->attack_detected);  // ORDER BY untrusted

  FragmentUpdate update;
  update.version = 1;
  update.fragments = {" ORDER BY id LIMIT 5"};
  ASSERT_TRUE(WriteFrame(req->second.get(),
                         {MessageType::kAddFragments,
                          EncodeFragmentUpdate(update)})
                  .ok());
  auto ack = ReadFrame(resp->first.get());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, MessageType::kAck);
  auto acked_version = DecodeU64(ack->payload);
  ASSERT_TRUE(acked_version.ok());
  EXPECT_EQ(acked_version.value(), 1u);  // daemon landed on the named version

  ASSERT_TRUE(
      WriteFrame(req->second.get(), {MessageType::kAnalyzeRequest, query})
          .ok());
  auto after = DecodeVerdict(ReadFrame(resp->first.get())->payload);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->attack_detected);

  req->second.Close();  // EOF terminates the daemon loop
  server.join();
}

TEST(DaemonServe, PongEchoesSeededVersion) {
  auto req = MakePipe();
  auto resp = MakePipe();
  ASSERT_TRUE(req.ok() && resp.ok());
  std::thread server([rfd = req->first.get(), wfd = resp->second.get()] {
    ServePtiDaemon(rfd, wfd, PaperFragments(), {}, /*initial_version=*/7);
  });
  ASSERT_TRUE(WriteFrame(req->second.get(), {MessageType::kPing, ""}).ok());
  auto pong = ReadFrame(resp->first.get());
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->type, MessageType::kPong);
  auto version = DecodeU64(pong->payload);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), 7u);

  // Analyze verdicts are stamped with the same version.
  ASSERT_TRUE(WriteFrame(req->second.get(),
                         {MessageType::kAnalyzeRequest,
                          "SELECT * FROM records WHERE ID=5 LIMIT 5"})
                  .ok());
  auto verdict = DecodeVerdict(ReadFrame(resp->first.get())->payload);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->ruleset_version, 7u);

  req->second.Close();
  server.join();
}

// --- Forked daemon client ------------------------------------------------------

TEST(DaemonClient, PersistentLifecycle) {
  DaemonClient client(DaemonClient::Mode::kPersistent, PaperFragments());
  ASSERT_TRUE(client.Ping().ok());
  auto safe = client.Analyze("SELECT * FROM records WHERE ID=5 LIMIT 5");
  ASSERT_TRUE(safe.ok()) << safe.status().ToString();
  EXPECT_FALSE(safe->attack_detected);
  auto bad = client.Analyze(
      "SELECT * FROM records WHERE ID=1 OR 1=1 LIMIT 5");
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->attack_detected);
  client.Shutdown();
}

TEST(DaemonClient, SpawnPerRequest) {
  DaemonClient client(DaemonClient::Mode::kSpawnPerRequest, PaperFragments());
  for (int i = 0; i < 3; ++i) {
    auto v = client.Analyze("SELECT * FROM records WHERE ID=5 LIMIT 5");
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_FALSE(v->attack_detected);
  }
}

TEST(DaemonClient, AddFragmentsPersistent) {
  DaemonClient client(DaemonClient::Mode::kPersistent, PaperFragments());
  auto v = client.Analyze("SELECT * FROM records WHERE ID=5 ORDER BY id");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->attack_detected);
  ASSERT_TRUE(client.AddFragments({" ORDER BY id"}).ok());
  v = client.Analyze("SELECT * FROM records WHERE ID=5 ORDER BY id");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->attack_detected);
}

TEST(DaemonClient, VersionAdvancesThroughHandshakeAndUpdates) {
  DaemonClient client(DaemonClient::Mode::kPersistent, PaperFragments(),
                      pti::PtiConfig{}, /*initial_version=*/3);
  EXPECT_EQ(client.ruleset_version(), 3u);
  auto reported = client.Handshake();
  ASSERT_TRUE(reported.ok()) << reported.status().ToString();
  EXPECT_EQ(reported.value(), 3u);  // forked daemon echoes the seed version

  // One fragment text advances the update log by one.
  ASSERT_TRUE(client.AddFragments({" ORDER BY id"}).ok());
  EXPECT_EQ(client.ruleset_version(), 4u);
  reported = client.Handshake();
  ASSERT_TRUE(reported.ok());
  EXPECT_EQ(reported.value(), 4u);

  // Verdicts now carry the converged version.
  auto v = client.Analyze("SELECT * FROM records WHERE ID=5 ORDER BY id");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ruleset_version, 4u);
  client.Shutdown();
}

TEST(DaemonClient, AddFragmentsAtNamesExactTarget) {
  DaemonClient client(DaemonClient::Mode::kPersistent, PaperFragments());
  auto acked =
      client.AddFragmentsAt({" ORDER BY id", " LIMIT 9"}, /*target_version=*/2);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_EQ(acked.value(), 2u);
  EXPECT_EQ(client.ruleset_version(), 2u);
  client.Shutdown();
}

TEST(DaemonClient, JozaBackendIntegration) {
  // Full stack: Joza running its PTI analysis through one forked daemon,
  // protecting the testbed end-to-end.
  auto app = attack::MakeTestbed();
  core::JozaConfig cfg;
  cfg.query_cache = false;
  cfg.structure_cache = false;
  core::Joza joza = core::Joza::Install(*app, cfg);
  DaemonPool::Options options;
  options.max_size = 1;
  DaemonPool pool(php::FragmentSet::FromSources(app->sources()), options);
  joza.SetPtiBackend(pool.AsPtiBackend());
  app->SetQueryGate(joza.MakeGate());

  const attack::PluginSpec& plugin = *attack::TestbedPlugins()[5];
  attack::Exploit e = attack::OriginalExploit(plugin);
  EXPECT_FALSE(attack::ExploitSucceeds(*app, plugin, e));

  auto ok = app->Handle(http::Request::Get(plugin.route, {{plugin.param, "1"}}));
  EXPECT_NE(ok.status, 500);
  app->SetQueryGate(nullptr);
}

}  // namespace
}  // namespace joza::ipc
