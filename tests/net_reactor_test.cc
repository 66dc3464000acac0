// Reactor-specific service-layer tests: hostile and slow clients against
// the epoll loop (byte-at-a-time writers, half-open closes, idle-socket
// reaping), pipelining with out-of-order completion, refusal of other wire
// versions, options validation, and the multiplexed client stub
// overlapping concurrent callers on one connection.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/binary_io.h"
#include "core/client.h"
#include "net/channel.h"
#include "net/remote_engine.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/serializer.h"

namespace xcrypt {
namespace net {
namespace {

class ReactorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new bench::Corpus(bench::MakeNasa(1));
    auto client = Client::Host(corpus_->doc, corpus_->constraints,
                               SchemeKind::kOptimal, "reactor-secret");
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = new Client(std::move(*client));
  }

  static void TearDownTestSuite() {
    delete client_;
    client_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  /// A fresh server over this suite's bundle (each test picks its own
  /// reactor options).
  static std::unique_ptr<NetServer> Serve(
      NetServerOptions options = NetServerOptions()) {
    auto bundle = DeserializeBundle(
        SerializeBundle(client_->database(), client_->metadata()));
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    if (!bundle.ok()) return nullptr;
    auto server = NetServer::Serve(
        ServerConfig::ForBundle(std::move(*bundle), "127.0.0.1", 0, options));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    if (!server.ok()) return nullptr;
    return std::move(*server);
  }

  static TranslatedQuery SampleTranslated() {
    auto queries = BuildWorkload(corpus_->doc, WorkloadKind::kQm, 1, 23);
    auto translated = client_->Translate(queries.at(0).expr);
    EXPECT_TRUE(translated.ok());
    return *translated;
  }

  /// Polls the daemon's stats until `pred` holds or ~10s elapse.
  static bool WaitForStats(const NetServer& server,
                           const std::function<bool(const NetStats&)>& pred) {
    for (int i = 0; i < 1000; ++i) {
      if (pred(server.stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  /// Polls the daemon's active-connection gauge until it reaches `want`
  /// or ~10s elapse.
  static bool WaitForActiveConns(const NetServer& server, uint64_t want) {
    return WaitForStats(server, [want](const NetStats& s) {
      return s.connections_active == want;
    });
  }

  static bench::Corpus* corpus_;
  static Client* client_;
};

bench::Corpus* ReactorTest::corpus_ = nullptr;
Client* ReactorTest::client_ = nullptr;

// --- options validation ------------------------------------------------

TEST_F(ReactorTest, ServerOptionsValidateRejectsNonsense) {
  EXPECT_TRUE(NetServerOptions().Validate().ok());

  auto invalid = [](void (*mutate)(NetServerOptions*)) {
    NetServerOptions options;
    mutate(&options);
    return options.Validate().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->num_threads = 0; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->io_threads = 0; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->backlog = 0; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->io_timeout_sec = 0.0; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->io_timeout_sec = -1.0; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->idle_timeout_sec = -1.0; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->max_frame_bytes = 0; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->max_inflight_queries = -1; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->max_queued_queries = -1; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->shed_backoff_ms = -1.0; }));
  EXPECT_TRUE(
      invalid([](NetServerOptions* o) { o->max_invalidation_log = -1; }));
  EXPECT_TRUE(invalid([](NetServerOptions* o) { o->max_pipeline_depth = 0; }));
}

TEST_F(ReactorTest, ServeRefusesInvalidOptionsAndMalformedConfig) {
  NetServerOptions bad;
  bad.io_threads = -3;
  auto bundle = DeserializeBundle(
      SerializeBundle(client_->database(), client_->metadata()));
  ASSERT_TRUE(bundle.ok());
  auto server = NetServer::Serve(
      ServerConfig::ForBundle(std::move(*bundle), "127.0.0.1", 0, bad));
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);

  // Neither bundle nor catalog: nothing to host.
  auto empty = NetServer::Serve(ServerConfig());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ReactorTest, RemoteOptionsValidateRejectsNonsense) {
  EXPECT_TRUE(RemoteOptions().Validate().ok());

  auto invalid = [](void (*mutate)(RemoteOptions*)) {
    RemoteOptions options;
    mutate(&options);
    return options.Validate().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(invalid([](RemoteOptions* o) { o->connect_timeout_sec = 0.0; }));
  EXPECT_TRUE(invalid([](RemoteOptions* o) { o->request_timeout_sec = -2.0; }));
  EXPECT_TRUE(invalid([](RemoteOptions* o) { o->retry.max_attempts = 0; }));
  EXPECT_TRUE(
      invalid([](RemoteOptions* o) { o->retry.initial_backoff_ms = -1.0; }));
  EXPECT_TRUE(
      invalid([](RemoteOptions* o) { o->retry.max_backoff_ms = -1.0; }));
  EXPECT_TRUE(invalid([](RemoteOptions* o) { o->max_frame_bytes = 0; }));

  // Connect() validates before dialing: the error is InvalidArgument,
  // not a connection failure, even with nothing listening.
  RemoteOptions bad;
  bad.retry.max_attempts = 0;
  auto remote = RemoteServerEngine::Connect("127.0.0.1", 1, bad);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kInvalidArgument);
}

// --- hostile and slow clients ------------------------------------------

TEST_F(ReactorTest, ByteAtATimeWriterIsServed) {
  auto server = Serve();
  ASSERT_NE(server, nullptr);
  auto sock = Socket::Dial("127.0.0.1", server->port(), 5.0, 5.0);
  ASSERT_TRUE(sock.ok());

  // Dribble a ping frame one byte per send. The reactor must
  // accumulate the partial frame across readiness events instead of
  // expecting whole frames per read.
  const Bytes image = EncodeFrame(MessageType::kPingRequest, {}, 77);
  for (const uint8_t byte : image) {
    ASSERT_TRUE(sock->SendAll(&byte, 1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 30.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MessageType::kPingResponse);
  EXPECT_EQ(reply->frame_id, 77u);
  server->Shutdown();
}

TEST_F(ReactorTest, IdleConnectionsAreReapedAfterTimeout) {
  NetServerOptions options;
  options.idle_timeout_sec = 0.3;
  auto server = Serve(options);
  ASSERT_NE(server, nullptr);

  std::vector<Socket> idlers;
  for (int i = 0; i < 3; ++i) {
    auto sock = Socket::Dial("127.0.0.1", server->port(), 5.0, 5.0);
    ASSERT_TRUE(sock.ok());
    idlers.push_back(std::move(*sock));
  }
  // Wait until the reactor has adopted all three, then never send a
  // byte: the sweep must reap them.
  EXPECT_TRUE(WaitForActiveConns(*server, 3));
  EXPECT_TRUE(WaitForActiveConns(*server, 0));
  EXPECT_EQ(server->stats().connections_total, 3u);

  // The daemon keeps serving new connections after reaping old ones.
  auto sock = Socket::Dial("127.0.0.1", server->port(), 5.0, 5.0);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(WriteFrame(*sock, MessageType::kPingRequest, {}).ok());
  auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 30.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MessageType::kPingResponse);
  server->Shutdown();
}

TEST_F(ReactorTest, HalfOpenCloseMidFrameIsReaped) {
  auto server = Serve();
  ASSERT_NE(server, nullptr);
  {
    auto sock = Socket::Dial("127.0.0.1", server->port(), 5.0, 5.0);
    ASSERT_TRUE(sock.ok());
    // Half a frame header, then close our write side and linger: the
    // frame can never complete, so the reactor must drop the session
    // instead of waiting for the rest.
    const Bytes image = EncodeFrame(MessageType::kPingRequest, {});
    ASSERT_TRUE(sock->SendAll(image.data(), 4).ok());
    ASSERT_EQ(::shutdown(sock->fd(), SHUT_WR), 0);
    EXPECT_TRUE(WaitForStats(*server, [](const NetStats& s) {
      return s.connections_total >= 1 && s.connections_active == 0;
    }));
  }
  // A clean full close is also reaped promptly.
  {
    auto sock = Socket::Dial("127.0.0.1", server->port(), 5.0, 5.0);
    ASSERT_TRUE(sock.ok());
    sock->Close();
    EXPECT_TRUE(WaitForStats(*server, [](const NetStats& s) {
      return s.connections_total >= 2 && s.connections_active == 0;
    }));
  }
  server->Shutdown();
}

// --- pipelining ---------------------------------------------------------

TEST_F(ReactorTest, PipelinedFrameIdsCorrelateOutOfOrderReplies) {
  auto server = Serve();
  ASSERT_NE(server, nullptr);
  auto sock = Socket::Dial("127.0.0.1", server->port(), 5.0, 5.0);
  ASSERT_TRUE(sock.ok());

  // A slow query burst interleaved with pings, all written before any
  // reply is read. Replies must echo each request's id whatever order
  // they complete in.
  const TranslatedQuery query = SampleTranslated();
  const Bytes query_payload = EncodeQueryRequest(query);
  std::map<uint64_t, MessageType> expected;
  for (uint64_t id = 1; id <= 12; ++id) {
    if (id % 3 == 0) {
      ASSERT_TRUE(
          WriteFrame(*sock, MessageType::kQueryRequest, query_payload, id)
              .ok());
      expected[id] = MessageType::kQueryResponse;
    } else {
      ASSERT_TRUE(WriteFrame(*sock, MessageType::kPingRequest, {}, id).ok());
      expected[id] = MessageType::kPingResponse;
    }
  }

  std::map<uint64_t, MessageType> got;
  for (size_t i = 0; i < expected.size(); ++i) {
    auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 60.0);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(got.count(reply->frame_id), 0u) << reply->frame_id;
    got[reply->frame_id] = reply->type;
  }
  EXPECT_EQ(got, expected);
  server->Shutdown();
}

TEST_F(ReactorTest, PipelineDepthBackpressureStillServesEveryRequest) {
  NetServerOptions options;
  options.max_pipeline_depth = 2;
  auto server = Serve(options);
  ASSERT_NE(server, nullptr);
  auto sock = Socket::Dial("127.0.0.1", server->port(), 5.0, 5.0);
  ASSERT_TRUE(sock.ok());

  // 32 requests against a depth-2 window: the reactor pauses reading
  // instead of shedding or disconnecting, and every request is answered.
  std::set<uint64_t> pending;
  for (uint64_t id = 1; id <= 32; ++id) {
    ASSERT_TRUE(WriteFrame(*sock, MessageType::kPingRequest, {}, id).ok());
    pending.insert(id);
  }
  while (!pending.empty()) {
    auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 60.0);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, MessageType::kPingResponse);
    EXPECT_EQ(pending.erase(reply->frame_id), 1u) << reply->frame_id;
  }
  server->Shutdown();
}

/// A frame as a peer of an older wire version laid it out: the same
/// fixed fields, with the frame id only from version 6 on.
Bytes OldVersionFrame(uint8_t version, MessageType type, const Bytes& payload) {
  Bytes out;
  BinaryWriter w(&out);
  w.U32(kWireMagic);
  w.U8(version);
  w.U8(static_cast<uint8_t>(type));
  w.U32(static_cast<uint32_t>(payload.size()));
  if (version >= 6) w.U64(1);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST_F(ReactorTest, OtherWireVersionsAreRefusedWhileCurrentSessionsServe) {
  auto server = Serve();
  ASSERT_NE(server, nullptr);
  const TranslatedQuery query = SampleTranslated();
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(remote.ok());
  auto reference = (*remote)->Execute(query);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const Bytes reference_image = EncodeQueryResponse(reference->response, 0.0);

  // A current session keeps querying throughout.
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> wrong{0};
  std::thread current([&] {
    while (!stop.load()) {
      auto result = (*remote)->Execute(query);
      if (result.ok() &&
          EncodeQueryResponse(result->response, 0.0) == reference_image) {
        served.fetch_add(1);
      } else {
        wrong.fetch_add(1);
      }
    }
  });
  auto served_at_least = [&](int n) {
    for (int i = 0; i < 1000 && served.load() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return served.load() >= n;
  };
  EXPECT_TRUE(served_at_least(1));

  // Each older peer gets exactly one Unsupported error frame, then the
  // daemon closes its connection — also for a v3/v5 ping, whose frame is
  // shorter than a current header.
  for (const uint8_t version : {uint8_t{3}, uint8_t{5}, uint8_t{6}}) {
    // No ASSERT while `current` runs: an early return would skip its join.
    auto sock = Socket::Dial("127.0.0.1", server->port(), 5.0, 5.0);
    EXPECT_TRUE(sock.ok());
    if (!sock.ok()) continue;
    const Bytes frame = OldVersionFrame(version, MessageType::kPingRequest, {});
    EXPECT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
    auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 30.0);
    EXPECT_TRUE(reply.ok()) << int(version) << " " << reply.status().ToString();
    if (reply.ok()) {
      EXPECT_EQ(reply->type, MessageType::kError) << int(version);
      EXPECT_EQ(reply->frame_id, 0u) << int(version);
      EXPECT_EQ(DecodeError(reply->payload).code(), StatusCode::kUnsupported)
          << int(version);
    }
    auto after = ReadFrame(*sock, kDefaultMaxFrameBytes, 30.0);
    EXPECT_EQ(after.status().code(), StatusCode::kUnavailable)
        << int(version) << " " << after.status().ToString();
  }

  const int before = served.load();
  EXPECT_TRUE(served_at_least(before + 3));
  stop.store(true);
  current.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(server->stats().errors, 3u);
  server->Shutdown();
}

// --- multiplexed client stub -------------------------------------------

TEST_F(ReactorTest, SharedStubOverlapsCallersOnOneConnection) {
  auto server = Serve();
  ASSERT_NE(server, nullptr);

  // Serial ground truth through its own stub.
  const TranslatedQuery query = SampleTranslated();
  Bytes serial_image;
  {
    auto remote = RemoteServerEngine::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(remote.ok());
    auto result = (*remote)->Execute(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    serial_image = EncodeQueryResponse(result->response, 0.0);
  }

  const uint64_t conns_before = server->stats().connections_total;
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(remote.ok());

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto result = (*remote)->Execute(query);
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (EncodeQueryResponse(result->response, 0.0) != serial_image) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // All 32 calls shared the stub's single multiplexed connection, and at
  // least two of them were in flight at once.
  EXPECT_EQ(server->stats().connections_total, conns_before + 1);
  EXPECT_GT((*remote)->max_inflight_observed(), 1);
  server->Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace xcrypt
