// Perf-smoke gate for the reactor (ctest label: perfsmoke): a crowd of
// idle connections parked in epoll must not degrade a modest active load
// — 1k idle + 64 active pipelined connections, every request answered,
// zero admission sheds, zero transport errors. This is the quick-mode
// bench_net_load scenario run as a hard gate.
//
// Skipped under sanitizers (a thousand instrumented sockets is a timing
// exercise, not a functional one there).

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/client.h"
#include "net/channel.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/serializer.h"

namespace xcrypt {
namespace net {
namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
#define __SANITIZE_ADDRESS__ 1
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

/// Raises RLIMIT_NOFILE toward 65536; returns the granted soft limit.
size_t RaiseNofileLimit() {
  struct rlimit rl;
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  rlim_t want = 65536;
  if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max) want = rl.rlim_max;
  if (rl.rlim_cur < want) {
    rl.rlim_cur = want;
    ::setrlimit(RLIMIT_NOFILE, &rl);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  return static_cast<size_t>(rl.rlim_cur);
}

TEST(PerfNetLoadTest, ThousandIdleConnectionsDoNotDegradeActiveLoad) {
#if defined(XCRYPT_PERF_SMOKE_SKIP) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "perf smoke runs only on uninstrumented builds";
#else
  const size_t fd_limit = RaiseNofileLimit();

  bench::Corpus corpus = bench::MakeNasa(1);
  auto client = Client::Host(corpus.doc, corpus.constraints,
                             SchemeKind::kOptimal, "perf-load-secret");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto bundle = DeserializeBundle(
      SerializeBundle(client->database(), client->metadata()));
  ASSERT_TRUE(bundle.ok());

  NetServerOptions options;
  options.num_threads = 8;
  options.io_threads = 4;
  options.backlog = 1024;
  options.max_pipeline_depth = 64;
  auto server = NetServer::Serve(
      ServerConfig::ForBundle(std::move(*bundle), "127.0.0.1", 0, options));
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Each parked connection costs two fds (both ends live in this
  // process); size the crowd to the limit the box grants.
  constexpr int kActive = 64;
  const long budget =
      (static_cast<long>(fd_limit) - 1024) / 2 - kActive - 64;
  const int idle_count =
      static_cast<int>(std::max(0L, std::min(1000L, budget)));
  ASSERT_GT(idle_count, 100) << "fd limit too low for the smoke";

  std::vector<Socket> idlers;
  idlers.reserve(idle_count);
  for (int i = 0; i < idle_count; ++i) {
    auto sock = Socket::Dial("127.0.0.1", (*server)->port(), 10.0, 30.0);
    ASSERT_TRUE(sock.ok()) << "idle dial " << i << ": "
                           << sock.status().ToString();
    idlers.push_back(std::move(*sock));
  }

  // 64 active connections, each running pipelined ping windows.
  constexpr int kDepth = 4;
  constexpr int kWindows = 20;
  constexpr int kThreads = 8;
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> replies{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t]() {
      std::vector<Socket> socks;
      for (int c = 0; c < kActive / kThreads; ++c) {
        auto sock = Socket::Dial("127.0.0.1", (*server)->port(), 10.0, 30.0);
        if (!sock.ok()) {
          errors.fetch_add(1);
          return;
        }
        socks.push_back(std::move(*sock));
      }
      for (int w = 0; w < kWindows; ++w) {
        for (Socket& sock : socks) {
          for (int d = 0; d < kDepth; ++d) {
            const uint64_t id = static_cast<uint64_t>(w) * kDepth + d + 1;
            if (!WriteFrame(sock, MessageType::kPingRequest, {}, id).ok()) {
              errors.fetch_add(1);
              return;
            }
          }
          for (int d = 0; d < kDepth; ++d) {
            auto reply = ReadFrame(sock, kDefaultMaxFrameBytes, 60.0);
            if (!reply.ok() || reply->type != MessageType::kPingResponse) {
              errors.fetch_add(1);
              return;
            }
            replies.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : drivers) thread.join();

  const NetStats stats = (*server)->stats();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(replies.load(),
            static_cast<uint64_t>(kActive) * kDepth * kWindows);
  EXPECT_EQ(stats.queries_shed, 0u);
  EXPECT_GE(stats.connections_total,
            static_cast<uint64_t>(idle_count) + kActive);
  (*server)->Shutdown();
#endif
}

}  // namespace
}  // namespace net
}  // namespace xcrypt
