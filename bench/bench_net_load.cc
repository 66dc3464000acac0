// Closed-loop load generator for the reactor daemon: N concurrent
// connections (plus a crowd of idle ones parked in epoll), M databases,
// and a per-connection in-flight window (wire-v6 pipelining). Each
// driver connection keeps `depth` requests outstanding and records the
// per-request service time; the sweep reports p50/p99/p999 per
// configuration into BENCH_load.json.
//
// The headline row pair is the reactor's reason to exist: p99 at 10k
// idle + 1k active connections should sit within 2x of the 64-connection
// baseline — idle sockets cost an epoll registration, not a thread.
//
// `--quick` runs a small smoke (1k idle + 64 active, zero sheds
// required) and exits nonzero on any shed or transport error — the
// perfsmoke-adjacent mode scripts/check.sh describes.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/client.h"
#include "net/channel.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/serializer.h"

namespace {

using namespace xcrypt;
using namespace xcrypt::bench;
using namespace xcrypt::net;

/// Raises the RLIMIT_NOFILE soft limit all the way to the hard limit and
/// returns the resulting soft limit (the sweep sizes itself to what the
/// box actually grants; an unprivileged process may raise its soft limit
/// up to — but not past — the hard one). RLIM_INFINITY hard limits are
/// clamped to a million fds so connection math stays in sane integers.
size_t RaiseNofileLimit() {
  struct rlimit rl;
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  rlim_t want =
      rl.rlim_max == RLIM_INFINITY ? rlim_t{1} << 20 : rl.rlim_max;
  if (rl.rlim_cur < want) {
    rl.rlim_cur = want;
    ::setrlimit(RLIMIT_NOFILE, &rl);
    ::getrlimit(RLIMIT_NOFILE, &rl);
  }
  return static_cast<size_t>(rl.rlim_cur);
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(q * (sorted.size() - 1));
  return sorted[idx];
}

struct LoadConfig {
  std::string name;
  int active = 64;   ///< driver connections issuing requests
  int idle = 0;      ///< parked connections (never send a byte)
  int depth = 1;     ///< in-flight requests per driver connection
  int windows = 50;  ///< request windows per driver connection
  /// Databases to spread query traffic over; empty = ping-only load.
  std::vector<std::string> dbs;
  const TranslatedQuery* query = nullptr;  ///< required when dbs set
};

struct LoadResult {
  std::vector<double> samples_us;  ///< per-request latency, sorted
  uint64_t ops = 0;
  uint64_t transport_errors = 0;
  uint64_t sheds = 0;  ///< daemon-side queries_shed delta
};

/// One driver thread's share: closed-loop windows over its connections.
/// Every connection keeps `depth` requests in flight per window and the
/// window's wall time is attributed evenly across its requests.
void DriveConns(const LoadConfig& config, uint16_t port, int conns,
                int thread_index, std::vector<double>* samples,
                uint64_t* errors) {
  std::vector<Socket> socks;
  socks.reserve(conns);
  for (int i = 0; i < conns; ++i) {
    auto sock = Socket::Dial("127.0.0.1", port, 10.0, 30.0);
    if (!sock.ok()) {
      ++*errors;
      continue;
    }
    socks.push_back(std::move(*sock));
  }

  Bytes query_payload;
  for (int w = 0; w < config.windows; ++w) {
    for (size_t c = 0; c < socks.size(); ++c) {
      const bool query_load = config.query != nullptr && !config.dbs.empty();
      MessageType req_type = MessageType::kPingRequest;
      const Bytes* payload = &query_payload;
      Bytes encoded;
      if (query_load) {
        const std::string& db =
            config.dbs[(thread_index + static_cast<int>(c)) %
                       config.dbs.size()];
        encoded = EncodeQueryRequest(*config.query, {}, db);
        req_type = MessageType::kQueryRequest;
        payload = &encoded;
      }
      Stopwatch window;
      bool dead = false;
      for (int d = 0; d < config.depth && !dead; ++d) {
        const uint64_t id = static_cast<uint64_t>(w) * config.depth + d + 1;
        if (!WriteFrame(socks[c], req_type, *payload, id).ok()) {
          ++*errors;
          dead = true;
        }
      }
      for (int d = 0; d < config.depth && !dead; ++d) {
        auto reply = ReadFrame(socks[c], kDefaultMaxFrameBytes, 60.0);
        if (!reply.ok() || reply->type == MessageType::kError) {
          ++*errors;
          dead = true;
        }
      }
      if (dead) continue;
      const double per_request_us = window.ElapsedMicros() / config.depth;
      for (int d = 0; d < config.depth; ++d) {
        samples->push_back(per_request_us);
      }
    }
  }
}

LoadResult RunLoad(net::NetServer& server, const LoadConfig& config) {
  LoadResult result;
  const uint64_t sheds_before = server.stats().queries_shed;

  // Park the idle crowd first: each socket is dialed, registered with
  // the reactor, and then never touched again.
  const int kDialThreads = 16;
  std::vector<Socket> idlers;
  std::mutex idlers_mu;
  uint64_t idle_errors = 0;
  {
    std::vector<std::thread> dialers;
    for (int t = 0; t < kDialThreads; ++t) {
      dialers.emplace_back([&, t]() {
        const int share = config.idle / kDialThreads +
                          (t < config.idle % kDialThreads ? 1 : 0);
        std::vector<Socket> mine;
        mine.reserve(share);
        uint64_t my_errors = 0;
        for (int i = 0; i < share; ++i) {
          auto sock = Socket::Dial("127.0.0.1", server.port(), 10.0, 30.0);
          if (sock.ok()) {
            mine.push_back(std::move(*sock));
          } else {
            ++my_errors;
          }
        }
        std::lock_guard<std::mutex> lock(idlers_mu);
        for (Socket& s : mine) idlers.push_back(std::move(s));
        idle_errors += my_errors;
      });
    }
    for (std::thread& t : dialers) t.join();
  }
  result.transport_errors += idle_errors;

  // Closed-loop drivers.
  const int threads =
      std::min(config.active,
               std::max(4, static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<std::vector<double>> per_thread_samples(threads);
  std::vector<uint64_t> per_thread_errors(threads, 0);
  std::vector<std::thread> drivers;
  for (int t = 0; t < threads; ++t) {
    const int share =
        config.active / threads + (t < config.active % threads ? 1 : 0);
    drivers.emplace_back([&, t, share]() {
      DriveConns(config, server.port(), share, t, &per_thread_samples[t],
                 &per_thread_errors[t]);
    });
  }
  for (std::thread& t : drivers) t.join();

  for (int t = 0; t < threads; ++t) {
    result.samples_us.insert(result.samples_us.end(),
                             per_thread_samples[t].begin(),
                             per_thread_samples[t].end());
    result.transport_errors += per_thread_errors[t];
  }
  std::sort(result.samples_us.begin(), result.samples_us.end());
  result.ops = result.samples_us.size();
  result.sheds = server.stats().queries_shed - sheds_before;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const size_t fd_limit = RaiseNofileLimit();
  PrintHeader("Reactor load sweep: connections x databases x in-flight depth");
  std::printf("fd limit: %zu\n", fd_limit);

  // Two small databases behind one daemon (the routing dimension).
  Corpus corpus = MakeNasa(1);
  auto client = Client::Host(corpus.doc, corpus.constraints,
                             SchemeKind::kOptimal, "load-bench-secret");
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  auto catalog = std::make_unique<net::BundleCatalog>();
  for (const char* name : {"alpha", "beta"}) {
    auto bundle =
        DeserializeBundle(SerializeBundle(client->database(), client->metadata()));
    if (!bundle.ok() || !catalog->AddBundle(name, std::move(*bundle)).ok()) {
      std::fprintf(stderr, "catalog setup failed\n");
      return 1;
    }
  }

  net::NetServerOptions options;
  options.num_threads = 8;
  options.io_threads = 4;
  options.backlog = 1024;
  options.max_pipeline_depth = 64;
  options.default_db = "alpha";
  auto server = net::NetServer::Serve(net::ServerConfig::ForCatalog(
      std::move(catalog), "127.0.0.1", 0, options));
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  auto queries = BuildWorkload(corpus.doc, WorkloadKind::kQs, 1, 23);
  auto translated = client->Translate(queries.at(0).expr);
  if (!translated.ok()) {
    std::fprintf(stderr, "%s\n", translated.status().ToString().c_str());
    return 1;
  }

  // Size the idle crowd to what the fd limit actually allows: the bench
  // holds the client end AND (same process) the daemon holds the
  // accepted end, so each parked connection costs two fds.
  auto clamp_idle = [&](int want, int active) {
    const long budget =
        (static_cast<long>(fd_limit) - 1024) / 2 - active - 64;
    return static_cast<int>(std::max(0L, std::min<long>(want, budget)));
  };

  std::vector<LoadConfig> sweep;
  if (quick) {
    LoadConfig smoke;
    smoke.name = "quick-smoke";
    smoke.active = 64;
    smoke.idle = clamp_idle(1000, 64);
    smoke.depth = 4;
    smoke.windows = 20;
    sweep.push_back(smoke);
  } else {
    LoadConfig base;
    base.name = "baseline-64conn";
    base.active = 64;
    base.windows = 50;
    sweep.push_back(base);

    for (int depth : {4, 16}) {
      LoadConfig cfg;
      cfg.name = "depth-" + std::to_string(depth);
      cfg.active = 64;
      cfg.depth = depth;
      cfg.windows = 50;
      sweep.push_back(cfg);
    }

    LoadConfig crowd;
    crowd.name = "crowd-10kidle-1kactive";
    crowd.active = 1000;
    crowd.idle = clamp_idle(10000, 1000);
    crowd.windows = 20;
    sweep.push_back(crowd);

    LoadConfig routed;
    routed.name = "query-2db";
    routed.active = 16;
    routed.windows = 8;
    routed.dbs = {"alpha", "beta"};
    routed.query = &*translated;
    sweep.push_back(routed);
  }

  std::printf("\n%-24s %7s %7s %6s | %9s %9s %9s | %6s %6s\n", "config",
              "active", "idle", "depth", "p50/us", "p99/us", "p999/us", "errs",
              "sheds");
  PrintRule();

  std::vector<std::string> rows;
  double baseline_p99 = 0.0, crowd_p99 = 0.0;
  uint64_t total_errors = 0, total_sheds = 0;
  for (const LoadConfig& config : sweep) {
    const LoadResult result = RunLoad(**server, config);
    const double p50 = Percentile(result.samples_us, 0.50);
    const double p99 = Percentile(result.samples_us, 0.99);
    const double p999 = Percentile(result.samples_us, 0.999);
    if (config.name == "baseline-64conn") baseline_p99 = p99;
    if (config.name == "crowd-10kidle-1kactive") crowd_p99 = p99;
    total_errors += result.transport_errors;
    total_sheds += result.sheds;
    std::printf("%-24s %7d %7d %6d | %9.1f %9.1f %9.1f | %6llu %6llu\n",
                config.name.c_str(), config.active, config.idle, config.depth,
                p50, p99, p999,
                static_cast<unsigned long long>(result.transport_errors),
                static_cast<unsigned long long>(result.sheds));
    rows.push_back(JsonObj()
                       .Add("config", config.name)
                       .Add("fd_limit", static_cast<long long>(fd_limit))
                       .Add("active_conns", config.active)
                       .Add("idle_conns", config.idle)
                       .Add("depth", config.depth)
                       .Add("databases", static_cast<int>(config.dbs.empty()
                                                              ? 1
                                                              : config.dbs.size()))
                       .Add("ops", static_cast<long long>(result.ops))
                       .Add("p50_us", p50)
                       .Add("p99_us", p99)
                       .Add("p999_us", p999)
                       .Add("transport_errors",
                            static_cast<long long>(result.transport_errors))
                       .Add("sheds", static_cast<long long>(result.sheds))
                       .Str());
  }
  PrintRule();

  if (!quick && baseline_p99 > 0.0) {
    const double ratio = crowd_p99 / baseline_p99;
    std::printf("flat-p99 check: crowd p99 = %.2fx of 64-conn baseline %s\n",
                ratio, ratio <= 2.0 ? "(within 2x: PASS)" : "(over 2x: FAIL)");
    rows.push_back(JsonObj()
                       .Add("config", "flat-p99-check")
                       .Add("crowd_over_baseline", ratio)
                       .Add("pass", ratio <= 2.0 ? 1 : 0)
                       .Str());
  }

  const net::NetStats stats = (*server)->stats();
  std::printf("daemon totals: %llu conns, %llu B up, %llu B down\n",
              static_cast<unsigned long long>(stats.connections_total),
              static_cast<unsigned long long>(stats.bytes_received),
              static_cast<unsigned long long>(stats.bytes_sent));

  WriteJsonFile("BENCH_load.json", JsonArray(rows));
  (*server)->Shutdown();

  if (quick && (total_errors != 0 || total_sheds != 0)) {
    std::fprintf(stderr, "quick smoke failed: %llu errors, %llu sheds\n",
                 static_cast<unsigned long long>(total_errors),
                 static_cast<unsigned long long>(total_sheds));
    return 1;
  }
  return 0;
}
