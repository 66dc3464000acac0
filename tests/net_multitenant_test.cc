// Multi-tenant daemon tests over real loopback TCP: one --catalog
// NetServer serving several databases concurrently (answers byte-
// identical to in-process evaluation per tenant), per-request db routing
// with unnamed requests served by the default database, admission-control
// sheds that are retryable and never silent, and hot reload with zero
// failed in-flight queries.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "das/das_system.h"
#include "data/xmark_generator.h"
#include "net/remote_engine.h"
#include "net/server.h"
#include "storage/serializer.h"
#include "tests/test_dir.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace net {
namespace {

/// One tenant: its own document, keys, and client. Different people
/// counts make the ciphertext sizes distinct, so a routing mix-up is
/// detectable from the stats alone.
struct Tenant {
  std::string name;
  std::unique_ptr<Client> client;
};

Tenant MakeTenant(const std::string& name, int people, int seed) {
  XMarkConfig config;
  config.people = people;
  config.items = people / 2;
  config.seed = seed;
  auto client = Client::Host(GenerateXMark(config), XMarkConstraints(),
                             SchemeKind::kOptimal, "tenant-key-" + name);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  Tenant tenant;
  tenant.name = name;
  tenant.client = std::make_unique<Client>(std::move(*client));
  return tenant;
}

const char* const kQueries[] = {
    "//person/name",
    "//item[location='Canada']/itemname",
    "//open_auction/initial",
};

/// Scratch catalog directory holding one bundle file per tenant.
class MultiTenantTest : public ::testing::Test {
 protected:
  void SaveTenant(const Tenant& tenant, uint64_t generation = 0,
                  const std::string& stored_name = std::string()) {
    Status saved = SaveBundle(
        tenant.client->database(), tenant.client->metadata(),
        dir_.File(tenant.name + ".xcr"),
        stored_name.empty() ? tenant.name : stored_name, generation);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }

  Result<std::unique_ptr<NetServer>> ServeDir(NetServerOptions options) {
    auto catalog = BundleCatalog::Open(dir_.path().string());
    if (!catalog.ok()) return catalog.status();
    return NetServer::Serve(ServerConfig::ForCatalog(std::move(*catalog),
                                                     "127.0.0.1", 0, options));
  }

  static void ExpectByteIdentical(const ServerResponse& local,
                                  const ServerResponse& remote,
                                  const std::string& label) {
    EXPECT_EQ(local.skeleton_xml, remote.skeleton_xml) << label;
    ASSERT_EQ(local.blocks.size(), remote.blocks.size()) << label;
    for (size_t i = 0; i < local.blocks.size(); ++i) {
      EXPECT_EQ(local.blocks[i].id, remote.blocks[i].id) << label;
      EXPECT_EQ(local.blocks[i].ciphertext, remote.blocks[i].ciphertext)
          << label;
    }
  }

  TestDir dir_;
};

TEST_F(MultiTenantTest, ThreeDatabasesConcurrentlyByteIdentical) {
  std::vector<Tenant> tenants;
  tenants.push_back(MakeTenant("alpha", 12, 1));
  tenants.push_back(MakeTenant("beta", 16, 2));
  tenants.push_back(MakeTenant("gamma", 20, 3));
  for (const Tenant& t : tenants) SaveTenant(t);

  auto server = ServeDir(NetServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (const Tenant& tenant : tenants) {
    threads.emplace_back([&, tenant = &tenant] {
      RemoteOptions options;
      options.database = tenant->name;
      auto remote =
          RemoteServerEngine::Connect("127.0.0.1", (*server)->port(), options);
      if (!remote.ok()) {
        failures.fetch_add(1);
        return;
      }
      const ServerEngine local(&tenant->client->database(),
                               &tenant->client->metadata());
      for (int round = 0; round < 3; ++round) {
        for (const char* text : kQueries) {
          auto query = ParseXPath(text);
          if (!query.ok()) continue;
          auto translated = tenant->client->Translate(*query);
          if (!translated.ok()) continue;
          auto local_response = local.Execute(*translated);
          auto remote_response = (*remote)->Execute(*translated);
          if (local_response.ok() != remote_response.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (!local_response.ok()) continue;
          ExpectByteIdentical(local_response->response,
                              remote_response->response,
                              tenant->name + ": " + text);
        }
      }

      // The daemon's per-db stats prove requests landed on this tenant's
      // database, not a lookalike.
      auto stats = (*remote)->Stats();
      if (!stats.ok() || stats->database != tenant->name ||
          stats->ciphertext_bytes !=
              static_cast<uint64_t>(
                  tenant->client->database().TotalCiphertextBytes())) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Per-database query counters ticked for each tenant.
  const obs::MetricsSnapshot snapshot = (*server)->SnapshotMetrics();
  for (const Tenant& tenant : tenants) {
    bool found = false;
    for (const auto& [name, value] : snapshot.counters) {
      if (name == "db." + tenant.name + ".queries") {
        found = true;
        EXPECT_GT(value, 0u) << tenant.name;
      }
    }
    EXPECT_TRUE(found) << tenant.name;
  }
}

TEST_F(MultiTenantTest, UnknownDatabaseFailsFastWithNotFound) {
  Tenant alpha = MakeTenant("alpha", 12, 4);
  SaveTenant(alpha);
  auto server = ServeDir(NetServerOptions());
  ASSERT_TRUE(server.ok());

  RemoteOptions options;
  options.database = "ghost";
  // Connect pings (no db resolution), so the session opens fine…
  auto remote =
      RemoteServerEngine::Connect("127.0.0.1", (*server)->port(), options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // …but queries against the unknown name fail deterministically, with
  // no retry loop (NotFound is not transient).
  auto query = ParseXPath("//person/name");
  ASSERT_TRUE(query.ok());
  auto translated = alpha.client->Translate(*query);
  ASSERT_TRUE(translated.ok());
  auto response = (*remote)->Execute(*translated);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);

  // A hostile name is indistinguishable from an absent one.
  ExecOptions exec;
  exec.db = "../alpha";
  auto hostile = (*remote)->Execute(*translated, exec);
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kNotFound);
}

TEST_F(MultiTenantTest, DefaultDatabaseServesUnnamedRequests) {
  Tenant alpha = MakeTenant("alpha", 12, 5);
  Tenant beta = MakeTenant("beta", 16, 6);
  SaveTenant(alpha);
  SaveTenant(beta);
  NetServerOptions options;
  options.default_db = "alpha";
  auto server = ServeDir(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const ServerEngine local(&alpha.client->database(),
                           &alpha.client->metadata());
  auto query = ParseXPath("//person/name");
  ASSERT_TRUE(query.ok());
  auto translated = alpha.client->Translate(*query);
  ASSERT_TRUE(translated.ok());
  auto expected = local.Execute(*translated);
  ASSERT_TRUE(expected.ok());

  // A session naming no database gets the default.
  auto remote = RemoteServerEngine::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(remote.ok());
  auto unnamed = (*remote)->Execute(*translated);
  ASSERT_TRUE(unnamed.ok()) << unnamed.status().ToString();
  ExpectByteIdentical(expected->response, unnamed->response, "default-db");
}

TEST_F(MultiTenantTest, NoDefaultAndNoNameIsInvalidArgument) {
  Tenant alpha = MakeTenant("alpha", 12, 7);
  SaveTenant(alpha);
  auto server = ServeDir(NetServerOptions());  // no default_db
  ASSERT_TRUE(server.ok());

  auto remote = RemoteServerEngine::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(remote.ok());
  auto query = ParseXPath("//person/name");
  auto translated = alpha.client->Translate(*query);
  ASSERT_TRUE(translated.ok());
  auto response = (*remote)->Execute(*translated);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MultiTenantTest, OverloadShedsAreRetryableUnavailableNeverSilent) {
  Tenant alpha = MakeTenant("alpha", 30, 8);
  SaveTenant(alpha);
  NetServerOptions options;
  options.default_db = "alpha";
  options.max_inflight_queries = 1;
  options.max_queued_queries = 0;
  options.shed_backoff_ms = 5.0;
  options.num_threads = 8;
  auto server = ServeDir(options);
  ASSERT_TRUE(server.ok());

  // A storm of one-shot clients (no retries): every request must resolve
  // to either a correct answer or an Unavailable shed — never a hang,
  // never a wrong answer, never a dropped request.
  constexpr int kClients = 8;
  constexpr int kPerClient = 3;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> wrong{0};
  std::atomic<bool> go{false};

  const ServerEngine local(&alpha.client->database(),
                           &alpha.client->metadata());
  auto expected = local.ExecuteNaive();
  ASSERT_TRUE(expected.ok());
  const size_t expected_blocks = expected->response.blocks.size();

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      RemoteOptions ropts;
      ropts.retry.max_attempts = 1;  // observe raw sheds
      auto remote =
          RemoteServerEngine::Connect("127.0.0.1", (*server)->port(), ropts);
      if (!remote.ok()) {
        wrong.fetch_add(1);
        return;
      }
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerClient; ++i) {
        auto response = (*remote)->ExecuteNaive();
        if (response.ok()) {
          if (response->response.blocks.size() != expected_blocks) {
            wrong.fetch_add(1);
          } else {
            ok_count.fetch_add(1);
          }
        } else if (response.status().code() == StatusCode::kUnavailable) {
          shed_count.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok_count.load() + shed_count.load(), kClients * kPerClient);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_EQ((*server)->stats().queries_shed,
            static_cast<uint64_t>(shed_count.load()));

  // With the retry loop on (honoring the daemon's backoff hint), the
  // same contention resolves: every client eventually gets its answer.
  std::atomic<int> retry_failures{0};
  std::vector<std::thread> retriers;
  for (int c = 0; c < 4; ++c) {
    retriers.emplace_back([&] {
      RemoteOptions ropts;
      ropts.retry.max_attempts = 10;
      ropts.retry.initial_backoff_ms = 2.0;
      auto remote =
          RemoteServerEngine::Connect("127.0.0.1", (*server)->port(), ropts);
      if (!remote.ok()) {
        retry_failures.fetch_add(1);
        return;
      }
      auto response = (*remote)->ExecuteNaive();
      if (!response.ok() ||
          response->response.blocks.size() != expected_blocks) {
        retry_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : retriers) t.join();
  EXPECT_EQ(retry_failures.load(), 0);
}

TEST_F(MultiTenantTest, HotReloadDropsNoInFlightQueries) {
  Tenant alpha = MakeTenant("alpha", 20, 9);
  SaveTenant(alpha, /*generation=*/1);
  NetServerOptions options;
  options.default_db = "alpha";
  auto server = ServeDir(options);
  ASSERT_TRUE(server.ok());

  auto query = ParseXPath("//person/name");
  ASSERT_TRUE(query.ok());
  auto translated = alpha.client->Translate(*query);
  ASSERT_TRUE(translated.ok());
  const ServerEngine local(&alpha.client->database(),
                           &alpha.client->metadata());
  auto expected = local.Execute(*translated);
  ASSERT_TRUE(expected.ok());
  const std::string expected_skeleton = expected->response.skeleton_xml;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  std::vector<std::thread> queriers;
  for (int c = 0; c < 4; ++c) {
    queriers.emplace_back([&] {
      auto remote =
          RemoteServerEngine::Connect("127.0.0.1", (*server)->port());
      if (!remote.ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load()) {
        auto response = (*remote)->Execute(*translated);
        if (!response.ok() ||
            response->response.skeleton_xml != expected_skeleton) {
          failures.fetch_add(1);
        } else {
          served.fetch_add(1);
        }
      }
    });
  }

  // Re-upload the bundle several times mid-traffic. Content is
  // identical (same client, same keys) but the header generation moves,
  // so each rewrite triggers a real reload under live queries. (The old
  // trick of varying the stored name would now be rejected as a
  // mis-filed image — catalog_test covers that.)
  for (uint64_t gen = 2; gen <= 4; ++gen) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    SaveTenant(alpha, gen);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  stop.store(true);
  for (std::thread& t : queriers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0);

  // The daemon really did swap images: the resident generation moved.
  auto db = (*server)->catalog().Get("alpha");
  ASSERT_TRUE(db.ok());
  EXPECT_GT((*db)->generation(), 1u);
  EXPECT_EQ((*db)->bundle().generation, 4u);
}

TEST_F(MultiTenantTest, DasSystemRoutesToNamedDatabase) {
  // The full client stack against a catalog daemon: DasSystem connects
  // to its own database by name and answers match plaintext truth.
  XMarkConfig config;
  config.people = 12;
  config.items = 6;
  config.seed = 10;
  const Document doc = GenerateXMark(config);
  auto das = DasSystem::Host(doc, XMarkConstraints(), SchemeKind::kOptimal,
                             "tenant-key-mine");
  ASSERT_TRUE(das.ok());

  Tenant other = MakeTenant("other", 16, 11);
  SaveTenant(other);
  Status saved = SaveBundle(das->client().database(), das->client().metadata(),
                            dir_.File("mine.xcr"), "mine", 1);
  ASSERT_TRUE(saved.ok());

  auto server = ServeDir(NetServerOptions());
  ASSERT_TRUE(server.ok());

  ASSERT_TRUE(
      das->Remote().Connect("127.0.0.1", (*server)->port(), "mine").ok());
  EXPECT_EQ(das->Remote().database(), "mine");

  auto run = das->Execute("//person/name");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto query = ParseXPath("//person/name");
  EXPECT_EQ(run->answer.SerializedSorted(),
            GroundTruth(doc, *query).SerializedSorted());

  auto stats = das->Remote().Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->database, "mine");
  das->Remote().Disconnect();
  EXPECT_FALSE(das->Remote().attached());
}

}  // namespace
}  // namespace net
}  // namespace xcrypt
