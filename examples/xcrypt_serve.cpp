// xcrypt_serve — the untrusted service provider of Figure 1 as a real
// daemon. Loads a hosted bundle (encrypted database + metadata, produced
// by SaveBundle — never keys or plaintext) and serves translated queries
// over the binary wire protocol until SIGTERM/SIGINT, then drains
// gracefully: in-flight requests finish and flush before the process
// exits.
//
// Usage:
//   xcrypt_serve --bundle db.xcr [--host 127.0.0.1] [--port 7077]
//                [--threads 8] [--io-threads 2] [--io-timeout 30]
//                [--idle-timeout 0] [--pipeline-depth 64]
//                [--max-inflight N] [--max-queue N] [--allow-updates]
//                [--metrics-json FILE [--metrics-interval SECONDS]]
//   xcrypt_serve --catalog DIR [--default-db NAME] ...
//   xcrypt_serve --demo [--port 7077] ...
//
// --catalog serves every *.xcr bundle in DIR as its own database, routed
// by filename stem (each request carries a db name; requests naming none
// get --default-db). Bundles load lazily on first use and hot-reload when
// the file changes on disk — in-flight queries finish on the old image.
//
// --memory-budget BYTES (suffixes K/M/G accepted) bounds what the
// catalog keeps materialized across all databases: past the budget the
// least-recently-used resident is evicted and faults back in on its next
// query. Format-v4 bundles are served straight from a demand-paged file
// mapping (their ciphertext never counts against the budget — it is
// clean page cache the kernel reclaims on its own), so a GB-scale corpus
// serves within a small fixed budget. --no-mmap disables the mapped path
// and loads v4 images eagerly like v3 — the A/B switch for
// bench_storage's comparison, not a mode a deployment should want.
//
// --demo hosts a built-in XMark auction corpus instead of a bundle file,
// so the daemon can be tried end-to-end without preparing data first
// (pair it with examples/remote_session).
//
// --max-inflight bounds concurrently evaluating queries across all
// connections (0 = unbounded); excess requests wait in a --max-queue
// deep queue and past that are shed with a retryable Unavailable
// carrying a backoff hint.
//
// --io-threads sizes the reactor: each I/O thread runs an epoll loop
// over a share of the connections (reads, frame parsing, scatter-gather
// writes); query evaluation happens on the --threads worker pool. Two
// I/O threads comfortably drive tens of thousands of idle connections.
//
// --idle-timeout reaps connections with no request in flight and nothing
// buffered for that many seconds (0 = never, the default). --pipeline-
// depth bounds how many requests one connection may have in
// flight at once before the reactor stops reading it.
//
// --allow-updates accepts owner-pushed delta bundles: each delta
// advances the named database in place and connected clients get
// invalidation pushes for the blocks it touched. Off by default —
// an update mutates hosted state, so the operator must opt in.
//
// --metrics-json dumps the daemon's metrics registry (request counters +
// per-message latency histograms) as JSON to FILE: periodically every
// --metrics-interval seconds (default 60) and once more on exit. Each
// dump atomically replaces the file (write temp + rename), so scrapers
// never read a torn JSON document.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/client.h"
#include "crypto/aes_kernel.h"
#include "data/xmark_generator.h"
#include "net/server.h"
#include "storage/serializer.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --bundle FILE | --catalog DIR | --demo "
               "[--default-db NAME] [--memory-budget BYTES] [--no-mmap] "
               "[--host ADDR] [--port N] "
               "[--threads N] [--io-threads N] [--io-timeout SECONDS] "
               "[--idle-timeout SECONDS] [--pipeline-depth N] "
               "[--max-inflight N] [--max-queue N] [--allow-updates] "
               "[--metrics-json FILE [--metrics-interval SECONDS]]\n",
               argv0);
  return 2;
}

/// Atomically replaces `path` with `json` (temp file + rename), so a
/// concurrent reader sees either the previous dump or this one, whole.
bool DumpMetricsJson(const std::string& path, const std::string& json) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
      std::fputc('\n', f) != EOF;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Parses a byte count with an optional K/M/G suffix ("256M"); returns
/// -1 on anything malformed so the caller can reject the flag.
int64_t ParseBytes(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || value < 0) return -1;
  int64_t scale = 1;
  if (*end == 'K' || *end == 'k') scale = 1024, ++end;
  else if (*end == 'M' || *end == 'm') scale = 1024 * 1024, ++end;
  else if (*end == 'G' || *end == 'g') scale = 1024 * 1024 * 1024, ++end;
  if (*end != '\0') return -1;
  return static_cast<int64_t>(value * static_cast<double>(scale));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xcrypt;

  std::string bundle_path;
  std::string catalog_dir;
  bool demo = false;
  std::string host = "127.0.0.1";
  int port = 7077;
  std::string metrics_path;
  double metrics_interval_sec = 60.0;
  net::NetServerOptions options;
  net::CatalogOptions catalog_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--bundle") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      bundle_path = v;
    } else if (arg == "--catalog") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      catalog_dir = v;
    } else if (arg == "--default-db") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.default_db = v;
    } else if (arg == "--memory-budget") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      catalog_options.memory_budget_bytes = ParseBytes(v);
      if (catalog_options.memory_budget_bytes < 0) return Usage(argv[0]);
    } else if (arg == "--no-mmap") {
      catalog_options.map_v4 = false;
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_inflight_queries = std::atoi(v);
    } else if (arg == "--max-queue") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_queued_queries = std::atoi(v);
    } else if (arg == "--allow-updates") {
      options.accept_updates = true;
    } else if (arg == "--demo") {
      demo = true;
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      port = std::atoi(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.num_threads = std::atoi(v);
      // Pin the in-process worker pool to the same size, so one flag
      // controls both the connection handlers and the parallel
      // decrypt/join work (must run before the pool's first use or it
      // silently keeps its earlier size).
      ThreadPool::SetSharedThreads(options.num_threads);
    } else if (arg == "--io-threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.io_threads = std::atoi(v);
    } else if (arg == "--io-timeout") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.io_timeout_sec = std::atof(v);
    } else if (arg == "--idle-timeout") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.idle_timeout_sec = std::atof(v);
    } else if (arg == "--pipeline-depth") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_pipeline_depth = std::atoi(v);
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      metrics_path = v;
    } else if (arg == "--metrics-interval") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      metrics_interval_sec = std::atof(v);
      if (metrics_interval_sec <= 0.0) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }
  // Exactly one data source: --demo, --bundle, or --catalog.
  const int sources = (demo ? 1 : 0) + (bundle_path.empty() ? 0 : 1) +
                      (catalog_dir.empty() ? 0 : 1);
  if (sources != 1 || port < 0 || port > 65535) {
    return Usage(argv[0]);
  }

  Result<std::unique_ptr<net::NetServer>> server =
      Status::Internal("unreachable");
  if (!catalog_dir.empty()) {
    auto catalog = net::BundleCatalog::Open(catalog_dir, catalog_options);
    if (!catalog.ok()) {
      std::fprintf(stderr, "cannot open catalog %s: %s\n", catalog_dir.c_str(),
                   catalog.status().ToString().c_str());
      return 1;
    }
    std::string listing;
    for (const std::string& name : (*catalog)->List()) {
      if (!listing.empty()) listing += ", ";
      listing += name;
    }
    std::printf("xcrypt_serve: catalog %s hosts [%s]%s%s\n",
                catalog_dir.c_str(), listing.c_str(),
                options.default_db.empty() ? "" : ", default ",
                options.default_db.c_str());
    if (catalog_options.memory_budget_bytes > 0) {
      std::printf("xcrypt_serve: memory budget %lld B%s\n",
                  static_cast<long long>(catalog_options.memory_budget_bytes),
                  catalog_options.map_v4 ? " (v4 bundles demand-paged)"
                                         : " (mmap disabled, eager loads)");
    }
    server = net::NetServer::Serve(net::ServerConfig::ForCatalog(
        std::move(*catalog), host, static_cast<uint16_t>(port), options));
  } else {
    HostedBundle bundle;
    if (demo) {
      XMarkConfig config;
      config.people = 150;
      config.items = 60;
      config.seed = 2006;
      auto client = Client::Host(GenerateXMark(config), XMarkConstraints(),
                                 SchemeKind::kOptimal,
                                 "xcrypt-serve-demo-key");
      if (!client.ok()) {
        std::fprintf(stderr, "demo hosting failed: %s\n",
                     client.status().ToString().c_str());
        return 1;
      }
      // Round-trip through the storage image: the daemon holds exactly
      // what a provider would receive, nothing more.
      auto loaded = DeserializeBundle(
          SerializeBundle(client->database(), client->metadata()));
      if (!loaded.ok()) {
        std::fprintf(stderr, "demo bundle failed: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      bundle = std::move(*loaded);
    } else {
      auto loaded = LoadBundle(bundle_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "cannot load %s: %s\n", bundle_path.c_str(),
                     loaded.status().ToString().c_str());
        return 1;
      }
      bundle = std::move(*loaded);
    }

    const size_t num_blocks = bundle.database.blocks.size();
    const long long cipher_bytes =
        static_cast<long long>(bundle.database.TotalCiphertextBytes());
    std::printf("xcrypt_serve: %zu blocks (%lld B ciphertext)\n", num_blocks,
                cipher_bytes);
    server = net::NetServer::Serve(net::ServerConfig::ForBundle(
        std::move(bundle), host, static_cast<uint16_t>(port), options));
  }
  if (!server.ok()) {
    std::fprintf(stderr, "cannot serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::printf("xcrypt_serve: listening on %s:%u, %d workers%s%s\n",
              host.c_str(), (*server)->port(), options.num_threads,
              options.max_inflight_queries > 0 ? " (admission control on)"
                                               : "",
              options.accept_updates ? " (updates on)" : "");
  std::printf("xcrypt_serve: cpu [%s], crypto kernel %s, shared pool %d "
              "threads\n",
              xcrypt::DescribeCpuFeatures().c_str(), AesKernel().name,
              ThreadPool::Shared().num_threads());
  std::fflush(stdout);

  double since_dump_sec = 0.0;
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (metrics_path.empty()) continue;
    since_dump_sec += 0.2;
    if (since_dump_sec >= metrics_interval_sec) {
      since_dump_sec = 0.0;
      if (!DumpMetricsJson(metrics_path, (*server)->MetricsJson())) {
        std::fprintf(stderr, "xcrypt_serve: cannot write metrics to %s\n",
                     metrics_path.c_str());
      }
    }
  }

  if (!metrics_path.empty() &&
      !DumpMetricsJson(metrics_path, (*server)->MetricsJson())) {
    std::fprintf(stderr, "xcrypt_serve: cannot write metrics to %s\n",
                 metrics_path.c_str());
  }

  const net::NetStats stats = (*server)->stats();
  std::printf("xcrypt_serve: signal %d, draining (%llu queries, %llu "
              "aggregates, %llu naive, %llu updates, %llu errors, %llu shed "
              "over %llu connections)\n",
              static_cast<int>(g_signal),
              static_cast<unsigned long long>(stats.queries_served),
              static_cast<unsigned long long>(stats.aggregates_served),
              static_cast<unsigned long long>(stats.naive_served),
              static_cast<unsigned long long>(stats.updates_applied),
              static_cast<unsigned long long>(stats.errors),
              static_cast<unsigned long long>(stats.queries_shed),
              static_cast<unsigned long long>(stats.connections_total));
  (*server)->Shutdown();
  return 0;
}
