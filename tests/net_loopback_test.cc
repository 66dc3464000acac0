// End-to-end service-layer tests over a real loopback TCP connection:
// the xcrypt_serve engine (NetServer) on one side, RemoteServerEngine /
// DasSystem on the other. Answers must be byte-identical to in-process
// evaluation, concurrent clients must not deadlock, and malformed frames
// must be survivable.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/binary_io.h"
#include "core/client.h"
#include "das/das_system.h"
#include "net/channel.h"
#include "net/remote_engine.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/serializer.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace net {
namespace {

/// The fig9/E5 corpus and query set (bench_fig9_query_performance.cc):
/// NASA-like documents, 10 queries per class Qs/Qm/Ql, seed 23.
class LoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new bench::Corpus(bench::MakeNasa(1));
    auto client = Client::Host(corpus_->doc, corpus_->constraints,
                               SchemeKind::kOptimal, "loopback-secret");
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = new Client(std::move(*client));

    auto bundle = DeserializeBundle(
        SerializeBundle(client_->database(), client_->metadata()));
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    NetServerOptions options;
    options.num_threads = 8;
    auto server = NetServer::Serve(
        ServerConfig::ForBundle(std::move(*bundle), "127.0.0.1", 0, options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server->release();
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete client_;
    client_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }

  static std::vector<WorkloadQuery> Fig9Queries() {
    std::vector<WorkloadQuery> all;
    for (WorkloadKind wk :
         {WorkloadKind::kQs, WorkloadKind::kQm, WorkloadKind::kQl}) {
      auto queries = BuildWorkload(corpus_->doc, wk, 10, 23);
      all.insert(all.end(), queries.begin(), queries.end());
    }
    return all;
  }

  static void ExpectByteIdentical(const ServerResponse& local,
                                  const ServerResponse& remote,
                                  const std::string& label) {
    EXPECT_EQ(local.skeleton_xml, remote.skeleton_xml) << label;
    EXPECT_EQ(local.requires_full_requery, remote.requires_full_requery)
        << label;
    ASSERT_EQ(local.blocks.size(), remote.blocks.size()) << label;
    for (size_t i = 0; i < local.blocks.size(); ++i) {
      EXPECT_EQ(local.blocks[i].id, remote.blocks[i].id) << label;
      EXPECT_EQ(local.blocks[i].ciphertext, remote.blocks[i].ciphertext)
          << label;
    }
  }

  static bench::Corpus* corpus_;
  static Client* client_;
  static NetServer* server_;
};

bench::Corpus* LoopbackTest::corpus_ = nullptr;
Client* LoopbackTest::client_ = nullptr;
NetServer* LoopbackTest::server_ = nullptr;

TEST_F(LoopbackTest, Fig9QuerySetByteIdenticalToInProcess) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const ServerEngine local(&client_->database(), &client_->metadata());

  int compared = 0;
  for (const WorkloadQuery& wq : Fig9Queries()) {
    auto translated = client_->Translate(wq.expr);
    ASSERT_TRUE(translated.ok()) << wq.text;
    auto local_response = local.Execute(*translated);
    obs::Trace trace;
    obs::QueryContext ctx;
    ctx.trace = &trace;
    ExecOptions exec;
    exec.ctx = &ctx;
    auto remote_response = (*remote)->Execute(*translated, exec);
    ASSERT_EQ(local_response.ok(), remote_response.ok()) << wq.text;
    if (!local_response.ok()) continue;
    ExpectByteIdentical(local_response->response, remote_response->response,
                        wq.text);
    EXPECT_EQ(remote_response->stats.transport,
              EngineCallStats::Transport::kRemote)
        << wq.text;
    EXPECT_GT(trace.TotalUs("transmit"), 0.0) << wq.text;

    // And the client's final answers agree with plaintext ground truth.
    auto answer = client_->PostProcess(wq.expr, remote_response->response);
    ASSERT_TRUE(answer.ok()) << wq.text;
    EXPECT_EQ(answer->SerializedSorted(),
              GroundTruth(corpus_->doc, wq.expr).SerializedSorted())
        << wq.text;
    ++compared;
  }
  EXPECT_GT(compared, 20);  // the bulk of the 30 queries executes
}

TEST_F(LoopbackTest, NaiveByteIdenticalToInProcess) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());
  const ServerEngine local(&client_->database(), &client_->metadata());
  auto local_response = local.ExecuteNaive();
  auto remote_response = (*remote)->ExecuteNaive();
  ASSERT_TRUE(local_response.ok());
  ASSERT_TRUE(remote_response.ok()) << remote_response.status().ToString();
  ExpectByteIdentical(local_response->response, remote_response->response,
                      "naive");
}

TEST_F(LoopbackTest, DasSystemOverLoopbackMatchesInProcess) {
  auto das = DasSystem::Host(corpus_->doc, corpus_->constraints,
                             SchemeKind::kOptimal, "loopback-secret");
  ASSERT_TRUE(das.ok());

  // Serve this system's own bundle and flip it to remote evaluation.
  auto bundle = DeserializeBundle(SerializeBundle(
      das->client().database(), das->client().metadata()));
  ASSERT_TRUE(bundle.ok());
  auto server =
      NetServer::Serve(ServerConfig::ForBundle(std::move(*bundle)));
  ASSERT_TRUE(server.ok());

  ASSERT_FALSE(das->Remote().attached());
  ASSERT_TRUE(das->Remote().Connect("127.0.0.1", (*server)->port()).ok());
  ASSERT_TRUE(das->Remote().attached());

  for (const WorkloadQuery& wq : Fig9Queries()) {
    auto remote_run = das->Execute(wq.expr);
    if (!remote_run.ok()) continue;
    EXPECT_EQ(remote_run->engine_stats.transport,
              EngineCallStats::Transport::kRemote)
        << wq.text;
    EXPECT_GT(remote_run->costs.transmission_us, 0.0) << wq.text;
    EXPECT_EQ(remote_run->answer.SerializedSorted(),
              GroundTruth(corpus_->doc, wq.expr).SerializedSorted())
        << wq.text;
  }

  // Aggregates travel the wire too.
  auto q = ParseXPath("//author/age#");
  ASSERT_TRUE(q.ok());
  for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax,
                             AggregateKind::kCount, AggregateKind::kSum}) {
    auto remote_agg = das->ExecuteAggregate(*q, kind);
    das->Remote().Disconnect();
    auto local_agg = das->ExecuteAggregate(*q, kind);
    ASSERT_TRUE(das->Remote().Connect("127.0.0.1", (*server)->port()).ok());
    ASSERT_EQ(remote_agg.ok(), local_agg.ok())
        << AggregateKindName(kind) << ": "
        << (remote_agg.ok() ? local_agg.status().ToString()
                            : remote_agg.status().ToString());
    if (!remote_agg.ok()) continue;
    EXPECT_EQ(remote_agg->answer.value, local_agg->answer.value)
        << AggregateKindName(kind);
    EXPECT_EQ(remote_agg->answer.count, local_agg->answer.count);
  }

  // Updates now ship as delta bundles. An edit matching nothing pushes
  // nothing and succeeds even against a daemon that refuses updates...
  auto noop = das->UpdateValues("//dataset/title", "x");
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();
  EXPECT_EQ(*noop, 0);
  // ...while a real edit is refused by a daemon started without
  // --allow-updates (the storm suite covers the accepting path).
  EXPECT_EQ(das->UpdateValues("//dataset/altname", "x").status().code(),
            StatusCode::kUnsupported);
  das->Remote().Disconnect();
  EXPECT_FALSE(das->Remote().attached());
}

TEST_F(LoopbackTest, EightConcurrentClientsNoDeadlockNoMismatch) {
  constexpr int kClients = 8;
  const auto queries = Fig9Queries();
  const ServerEngine local(&client_->database(), &client_->metadata());

  // Precompute expected responses serially.
  std::vector<std::string> expected_skeletons;
  std::vector<bool> runnable;
  for (const WorkloadQuery& wq : queries) {
    auto translated = client_->Translate(wq.expr);
    ASSERT_TRUE(translated.ok());
    auto response = local.Execute(*translated);
    runnable.push_back(response.ok());
    expected_skeletons.push_back(response.ok() ? response->response.skeleton_xml
                                               : "");
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
      if (!remote.ok()) {
        failures.fetch_add(1);
        return;
      }
      // Stagger starting points so clients hit different queries at once.
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t idx = (i + c * 4) % queries.size();
        auto translated = client_->Translate(queries[idx].expr);
        if (!translated.ok()) continue;
        auto response = (*remote)->Execute(*translated);
        if (response.ok() != runnable[idx]) {
          failures.fetch_add(1);
          continue;
        }
        if (response.ok() &&
            response->response.skeleton_xml != expected_skeletons[idx]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);

  const NetStats stats = server_->stats();
  EXPECT_GE(stats.connections_total, static_cast<uint64_t>(kClients));
}

TEST_F(LoopbackTest, MalformedFramesGetErrorsAndServerSurvives) {
  // 1. Pure garbage: the header is not even a frame.
  {
    auto sock = Socket::Dial("127.0.0.1", server_->port(), 5.0, 5.0);
    ASSERT_TRUE(sock.ok());
    Bytes garbage(64, 0xa5);
    ASSERT_TRUE(sock->SendAll(garbage.data(), garbage.size()).ok());
    auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 5.0);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, MessageType::kError);
  }

  // 2. Valid frame, undecodable payload.
  {
    auto sock = Socket::Dial("127.0.0.1", server_->port(), 5.0, 5.0);
    ASSERT_TRUE(sock.ok());
    Bytes bogus = {0xff, 0xff, 0xff, 0xff, 0x01};
    ASSERT_TRUE(WriteFrame(*sock, MessageType::kQueryRequest, bogus).ok());
    auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 5.0);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MessageType::kError);
    EXPECT_EQ(DecodeError(reply->payload).code(), StatusCode::kCorruption);

    // The session stays frame-aligned: a good request still works.
    auto translated = client_->Translate(*ParseXPath("//dataset"));
    ASSERT_TRUE(translated.ok());
    ASSERT_TRUE(WriteFrame(*sock, MessageType::kQueryRequest,
                           EncodeQueryRequest(*translated))
                    .ok());
    auto good = ReadFrame(*sock, kDefaultMaxFrameBytes, 30.0);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good->type, MessageType::kQueryResponse);
  }

  // 3. A header announcing an over-limit frame is refused outright.
  {
    auto sock = Socket::Dial("127.0.0.1", server_->port(), 5.0, 5.0);
    ASSERT_TRUE(sock.ok());
    Bytes header;
    BinaryWriter w(&header);
    w.U32(kWireMagic);
    w.U8(kWireVersion);
    w.U8(static_cast<uint8_t>(MessageType::kQueryRequest));
    w.U32(0xffffffff);  // 4 GiB payload, never sent
    ASSERT_TRUE(sock->SendAll(header.data(), header.size()).ok());
    auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 5.0);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MessageType::kError);
  }

  // 4. A response type sent to the server is answered with an error on a
  //    still-usable session.
  {
    auto sock = Socket::Dial("127.0.0.1", server_->port(), 5.0, 5.0);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(WriteFrame(*sock, MessageType::kStatsResponse, {}).ok());
    auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 5.0);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MessageType::kError);
    ASSERT_TRUE(WriteFrame(*sock, MessageType::kPingRequest, {}).ok());
    auto pong = ReadFrame(*sock, kDefaultMaxFrameBytes, 5.0);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->type, MessageType::kPingResponse);
  }

  // After all the abuse the server still serves normal clients.
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_TRUE((*remote)->Ping().ok());
}

TEST_F(LoopbackTest, StatsFlowOverTheWire) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());
  auto stats = (*remote)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_blocks, client_->database().blocks.size());
  EXPECT_EQ(stats->ciphertext_bytes,
            static_cast<uint64_t>(
                client_->database().TotalCiphertextBytes()));
  EXPECT_GE(stats->connections_total, 1u);
}

TEST_F(LoopbackTest, LatencyHistogramsFlowOverTheWire) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());
  // Serve at least one query so query_us has an observation.
  auto translated = client_->Translate(*ParseXPath("//dataset"));
  ASSERT_TRUE(translated.ok());
  ASSERT_TRUE((*remote)->Execute(*translated).ok());

  auto stats = (*remote)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_FALSE(stats->latency.empty());
  bool found_query_us = false;
  for (const auto& [name, hist] : stats->latency) {
    if (name != "query_us") continue;
    found_query_us = true;
    EXPECT_GE(hist.count, 1u);
    uint64_t bucketed = 0;
    for (uint64_t b : hist.buckets) bucketed += b;
    EXPECT_EQ(bucketed, hist.count);
  }
  EXPECT_TRUE(found_query_us);
}

TEST_F(LoopbackTest, TwoClientsShareOneRemoteEngineConcurrently) {
  // One RemoteServerEngine, two threads calling it at once: per-call
  // stats come back by value, so nothing races (run under TSan this is
  // the proof that retiring the last-call side channel worked).
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  RemoteServerEngine* engine = remote->get();

  const auto queries = Fig9Queries();
  const ServerEngine local(&client_->database(), &client_->metadata());
  std::vector<std::string> expected_skeletons;
  std::vector<bool> runnable;
  for (const WorkloadQuery& wq : queries) {
    auto translated = client_->Translate(wq.expr);
    ASSERT_TRUE(translated.ok());
    auto response = local.Execute(*translated);
    runnable.push_back(response.ok());
    expected_skeletons.push_back(
        response.ok() ? response->response.skeleton_xml : "");
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < 2; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t idx = (i + c * 7) % queries.size();
        auto translated = client_->Translate(queries[idx].expr);
        if (!translated.ok()) continue;
        obs::Trace trace;
        obs::QueryContext ctx;
        ctx.trace = &trace;
        ExecOptions exec;
        exec.ctx = &ctx;
        auto response = engine->Execute(*translated, exec);
        if (response.ok() != runnable[idx]) {
          failures.fetch_add(1);
          continue;
        }
        if (!response.ok()) continue;
        if (response->response.skeleton_xml != expected_skeletons[idx]) {
          mismatches.fetch_add(1);
        }
        // Each caller's measurements are its own.
        if (response->stats.transport !=
                EngineCallStats::Transport::kRemote ||
            trace.TotalUs("transmit") <= 0.0 ||
            response->stats.bytes_sent <= 0) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(LoopbackTest, RemoteTraceDecomposesServerTime) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());
  auto translated =
      client_->Translate(*ParseXPath("//dataset[altname='NASA']//title"));
  ASSERT_TRUE(translated.ok());

  obs::Trace trace;
  obs::QueryContext ctx;
  ctx.trace = &trace;
  ExecOptions exec;
  exec.ctx = &ctx;
  auto response = (*remote)->Execute(*translated, exec);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // The daemon's phase decomposition crossed the wire: at least three
  // named phases under the server span, inside its time, plus a
  // transmit estimate.
  int server_id = -1;
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    if (trace.spans()[i].name == "server") server_id = static_cast<int>(i);
  }
  ASSERT_GE(server_id, 0);
  const std::vector<obs::PhaseTiming> phases =
      trace.ChildPhaseTotals(server_id);
  EXPECT_GE(phases.size(), 3u);
  double phase_total = 0.0;
  for (const obs::PhaseTiming& phase : phases) phase_total += phase.elapsed_us;
  EXPECT_LE(phase_total, trace.spans()[server_id].elapsed_us);
  EXPECT_GT(trace.TotalUs("transmit"), 0.0);
}

TEST_F(LoopbackTest, RemoteDeadlineExpiredFailsWithoutNetworkCall) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());
  auto translated = client_->Translate(*ParseXPath("//dataset"));
  ASSERT_TRUE(translated.ok());
  obs::QueryContext ctx = obs::QueryContext::WithTimeout(-1.0);
  ExecOptions exec;
  exec.ctx = &ctx;
  auto response = (*remote)->Execute(*translated, exec);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
}

TEST(RemoteEngineTest, ConnectToDeadPortFailsUnavailableAfterRetries) {
  // Reserve a port and close it so nothing listens there.
  uint16_t dead_port = 0;
  {
    auto listener = Socket::Listen("127.0.0.1", 0, 1);
    ASSERT_TRUE(listener.ok());
    dead_port = *listener->LocalPort();
  }
  RemoteOptions options;
  options.connect_timeout_sec = 0.5;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 5.0;
  auto remote = RemoteServerEngine::Connect("127.0.0.1", dead_port, options);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kUnavailable);
}

TEST(RemoteEngineTest, RequestAfterServerShutdownFailsCleanly) {
  auto client = Client::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(client.ok());
  auto bundle = DeserializeBundle(
      SerializeBundle(client->database(), client->metadata()));
  ASSERT_TRUE(bundle.ok());
  auto server =
      NetServer::Serve(ServerConfig::ForBundle(std::move(*bundle)));
  ASSERT_TRUE(server.ok());

  RemoteOptions options;
  options.connect_timeout_sec = 0.5;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 5.0;
  auto remote =
      RemoteServerEngine::Connect("127.0.0.1", (*server)->port(), options);
  ASSERT_TRUE(remote.ok());
  EXPECT_TRUE((*remote)->Ping().ok());

  (*server)->Shutdown();
  EXPECT_EQ((*remote)->Ping().code(), StatusCode::kUnavailable);
}

TEST(NetServerTest, GracefulShutdownWithIdleSessions) {
  auto client = Client::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(client.ok());
  auto bundle = DeserializeBundle(
      SerializeBundle(client->database(), client->metadata()));
  ASSERT_TRUE(bundle.ok());
  auto server =
      NetServer::Serve(ServerConfig::ForBundle(std::move(*bundle)));
  ASSERT_TRUE(server.ok());

  // Park several idle sessions on the server, then drain: Shutdown must
  // not hang waiting for them to speak.
  std::vector<std::unique_ptr<RemoteServerEngine>> idle;
  for (int i = 0; i < 4; ++i) {
    auto remote = RemoteServerEngine::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(remote.ok());
    idle.push_back(std::move(*remote));
  }
  (*server)->Shutdown();  // must return; the test would time out otherwise
}

}  // namespace
}  // namespace net
}  // namespace xcrypt
