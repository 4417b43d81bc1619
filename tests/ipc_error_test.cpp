// IPC failure-path behaviour: protocol errors are answered, broken pipes
// surface as status errors, and the Joza adapter fails closed.
#include <gtest/gtest.h>

#include <thread>
#include <unistd.h>

#include "core/joza.h"
#include "ipc/daemon.h"
#include "ipc/daemon_pool.h"
#include "ipc/framing.h"

namespace joza::ipc {
namespace {

php::FragmentSet OneFragment() {
  php::FragmentSet set;
  set.AddRaw("SELECT 1");
  return set;
}

TEST(DaemonErrors, UnknownMessageTypeAnswered) {
  auto req = MakePipe();
  auto resp = MakePipe();
  ASSERT_TRUE(req.ok() && resp.ok());
  std::thread server([rfd = req->first.get(), wfd = resp->second.get()] {
    ServePtiDaemon(rfd, wfd, OneFragment());
  });
  // kPong is not a valid request type.
  ASSERT_TRUE(WriteFrame(req->second.get(), {MessageType::kPong, ""}).ok());
  auto r = ReadFrame(resp->first.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type, MessageType::kError);
  // The daemon keeps serving after a protocol error.
  ASSERT_TRUE(
      WriteFrame(req->second.get(), {MessageType::kAnalyzeRequest, "SELECT 1"})
          .ok());
  auto ok = ReadFrame(resp->first.get());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->type, MessageType::kAnalyzeResponse);
  req->second.Close();
  server.join();
}

TEST(DaemonErrors, MalformedAddFragmentsAnswered) {
  auto req = MakePipe();
  auto resp = MakePipe();
  ASSERT_TRUE(req.ok() && resp.ok());
  std::thread server([rfd = req->first.get(), wfd = resp->second.get()] {
    ServePtiDaemon(rfd, wfd, OneFragment());
  });
  ASSERT_TRUE(
      WriteFrame(req->second.get(), {MessageType::kAddFragments, "\x01"})
          .ok());
  auto r = ReadFrame(resp->first.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->type, MessageType::kError);
  req->second.Close();
  server.join();
}

TEST(DaemonErrors, ServerCountsServedQueries) {
  auto req = MakePipe();
  auto resp = MakePipe();
  ASSERT_TRUE(req.ok() && resp.ok());
  std::size_t served = 0;
  std::thread server([&served, rfd = req->first.get(),
                      wfd = resp->second.get()] {
    served = ServePtiDaemon(rfd, wfd, OneFragment());
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(WriteFrame(req->second.get(),
                           {MessageType::kAnalyzeRequest, "SELECT 1"})
                    .ok());
    ASSERT_TRUE(ReadFrame(resp->first.get()).ok());
  }
  req->second.Close();
  server.join();
  EXPECT_EQ(served, 5u);
}

TEST(DaemonErrors, JozaAdapterFailsClosedOnDeadDaemon) {
  // A backend over a one-daemon pool.
  DaemonPool::Options options;
  options.max_size = 1;
  DaemonPool pool(OneFragment(), options);
  ASSERT_TRUE(pool.Ping().ok());

  core::JozaConfig cfg;
  cfg.query_cache = false;
  cfg.structure_cache = false;
  cfg.enable_nti = false;
  core::Joza joza(OneFragment(), cfg);
  joza.SetPtiBackend(pool.AsPtiBackend());

  // Healthy: the trivially-covered query is safe.
  EXPECT_FALSE(joza.Check("SELECT 1", {}).attack);

  // Destroying the pool would leave a dangling backend, so test the
  // engine's contract directly: a backend that cannot produce a verdict
  // returns an error Status, and the engine's default degraded mode
  // (fail-closed) must block the query.
  joza.SetPtiBackend([](std::string_view, const std::vector<sql::Token>&,
                        util::Deadline) -> StatusOr<pti::PtiResult> {
    return Status::Unavailable("daemon unreachable");
  });
  core::Verdict v = joza.Check("SELECT 1", {});
  EXPECT_TRUE(v.attack);
  EXPECT_TRUE(v.degraded);
  EXPECT_TRUE(v.pti_unavailable);
  // A degraded block is not a detection: nothing to attribute, nothing in
  // the attack counter, but the degraded counters light up.
  EXPECT_EQ(v.detected_by, core::DetectedBy::kNone);
  const core::JozaStats stats = joza.stats();
  EXPECT_EQ(stats.attacks_detected, 0u);
  EXPECT_EQ(stats.pti_failures, 1u);
  EXPECT_EQ(stats.degraded_checks, 1u);
  EXPECT_EQ(stats.degraded_blocks, 1u);
}

// --- Malformed-frame hardening ----------------------------------------------
// Fuzz-style fixed cases: hostile or corrupt bytes on the pipe must come
// back as clean Status errors, never unbounded allocation or a hang.

TEST(FrameHardening, OversizedDeclaredLengthRejectedWithoutAllocation) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  // Header declares a ~2 GiB payload; nothing but the header is sent.
  const char header[5] = {'\xff', '\xff', '\xff', '\x7f',
                          static_cast<char>(MessageType::kAnalyzeRequest)};
  ASSERT_EQ(::write(pipe->second.get(), header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  auto frame = ReadFrame(pipe->first.get(), /*max_payload=*/64u << 20);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameHardening, TruncatedPayloadIsCleanError) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  // Declares 100 payload bytes but delivers 3, then EOF.
  const char header[5] = {100, 0, 0, 0,
                          static_cast<char>(MessageType::kAnalyzeRequest)};
  ASSERT_EQ(::write(pipe->second.get(), header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  ASSERT_EQ(::write(pipe->second.get(), "abc", 3), 3);
  pipe->second.Close();
  auto frame = ReadFrame(pipe->first.get());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameHardening, TruncatedHeaderIsCleanError) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  ASSERT_EQ(::write(pipe->second.get(), "\x01\x00", 2), 2);
  pipe->second.Close();
  auto frame = ReadFrame(pipe->first.get());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameHardening, DecodeVerdictGarbageRejected) {
  EXPECT_FALSE(DecodeVerdict("").ok());
  EXPECT_FALSE(DecodeVerdict("\x01").ok());          // flag, then truncated
  EXPECT_FALSE(DecodeVerdict("\x01\x02\x03").ok());  // mid-u32 truncation
  // Valid counters but a string-table count with no string bytes behind it.
  std::string payload;
  payload.push_back(1);
  for (int i = 0; i < 3; ++i) payload += std::string(4, '\0');
  payload += std::string("\xff\xff\xff\xff", 4);  // 4 billion strings
  EXPECT_FALSE(DecodeVerdict(payload).ok());
}

TEST(FrameHardening, DecodeStringListAbsurdCountRejected) {
  // Count = 0xffffffff with an empty remainder: must fail before reserving.
  EXPECT_FALSE(DecodeStringList(std::string("\xff\xff\xff\xff", 4)).ok());
  // Count that the remaining bytes cannot possibly hold.
  std::string payload("\x10\x00\x00\x00", 4);
  payload += "junk";
  auto r = DecodeStringList(payload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(FrameHardening, DaemonSurvivesOversizedFrameFromClient) {
  // The serving loop rejects the frame and exits cleanly (stream is
  // desynchronized past repair), rather than allocating or crashing.
  auto req = MakePipe();
  auto resp = MakePipe();
  ASSERT_TRUE(req.ok() && resp.ok());
  std::size_t served = 0;
  std::thread server([&served, rfd = req->first.get(),
                      wfd = resp->second.get()] {
    served = ServePtiDaemon(rfd, wfd, OneFragment());
  });
  const char header[5] = {'\xff', '\xff', '\xff', '\x7f',
                          static_cast<char>(MessageType::kAnalyzeRequest)};
  ASSERT_EQ(::write(req->second.get(), header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  req->second.Close();
  server.join();
  EXPECT_EQ(served, 0u);
}

TEST(DaemonErrors, ShutdownThenReuseRespawns) {
  DaemonClient client(DaemonClient::Mode::kPersistent, OneFragment());
  ASSERT_TRUE(client.Ping().ok());
  client.Shutdown();
  // The client lazily re-forks a fresh daemon on next use.
  ASSERT_TRUE(client.Ping().ok());
  auto v = client.Analyze("SELECT 1");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->attack_detected);
}

}  // namespace
}  // namespace joza::ipc
