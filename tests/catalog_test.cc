// BundleCatalog unit tests: directory scan, lazy loading, LRU bounds,
// generation tracking, hot reload, pinned in-memory entries, and the
// name-lookup hardening (a hostile db name must never touch the
// filesystem).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "data/healthcare.h"
#include "data/xmark_generator.h"
#include "net/catalog.h"
#include "obs/metrics.h"
#include "storage/serializer.h"
#include "storage/update/delta.h"
#include "storage/update/delta_builder.h"
#include "tests/test_dir.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace net {
namespace {

/// A small but real hosted bundle; different seeds give different
/// documents, so the databases in a multi-entry catalog are
/// distinguishable by content.
HostedBundle MakeBundle(int seed) {
  XMarkConfig config;
  config.people = 12;
  config.items = 6;
  config.seed = seed;
  auto client = Client::Host(GenerateXMark(config), XMarkConstraints(),
                             SchemeKind::kOptimal,
                             "catalog-secret-" + std::to_string(seed));
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  auto bundle = DeserializeBundle(
      SerializeBundle(client->database(), client->metadata()));
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  return std::move(*bundle);
}

/// Fresh per-test scratch directory under the gtest temp root.
class CatalogTest : public ::testing::Test {
 protected:
  std::string PathFor(const std::string& name) const {
    return dir_.File(name + ".xcr");
  }

  void SaveAs(const std::string& name, const HostedBundle& bundle,
              uint64_t generation = 0) {
    Status saved = SaveBundle(bundle.database, bundle.metadata, PathFor(name),
                              name, generation);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }

  TestDir dir_;
};

TEST_F(CatalogTest, OpenScansDirectoryLazily) {
  const HostedBundle bundle = MakeBundle(1);
  SaveAs("alpha", bundle);
  SaveAs("beta", bundle);
  SaveAs("gamma", bundle);
  // Non-bundle files are ignored by the scan.
  std::FILE* f = std::fopen(dir_.File("notes.txt").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  auto catalog = BundleCatalog::Open(dir_.path().string());
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ((*catalog)->List(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  // Nothing is loaded until the first Get.
  EXPECT_EQ((*catalog)->ResidentCount(), 0);

  auto db = (*catalog)->Get("beta");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->name(), "beta");
  EXPECT_EQ((*db)->generation(), 1u);
  EXPECT_EQ((*db)->bundle().database.blocks.size(),
            bundle.database.blocks.size());
  EXPECT_EQ((*catalog)->ResidentCount(), 1);

  // A second Get reuses the resident engine (same object, same gen).
  auto again = (*catalog)->Get("beta");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(db->get(), again->get());
}

TEST_F(CatalogTest, OpenFailsOnMissingOrEmptyDirectory) {
  auto missing = BundleCatalog::Open(dir_.File("nope"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  auto empty = BundleCatalog::Open(dir_.path().string());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CatalogTest, HostileNamesNeverTouchTheFilesystem) {
  SaveAs("alpha", MakeBundle(2));
  auto catalog = BundleCatalog::Open(dir_.path().string());
  ASSERT_TRUE(catalog.ok());

  for (const char* name :
       {"nope", "", "../alpha", "alpha.xcr", "/etc/passwd", "a/../alpha",
        "..\\alpha", "./alpha"}) {
    auto db = (*catalog)->Get(name);
    ASSERT_FALSE(db.ok()) << name;
    EXPECT_EQ(db.status().code(), StatusCode::kNotFound) << name;
  }
}

TEST_F(CatalogTest, LruEvictionKeepsHandlesAlive) {
  const HostedBundle bundle = MakeBundle(3);
  SaveAs("a", bundle);
  SaveAs("b", bundle);
  SaveAs("c", bundle);
  CatalogOptions options;
  options.max_resident = 2;
  auto catalog = BundleCatalog::Open(dir_.path().string(), options);
  ASSERT_TRUE(catalog.ok());

  auto a = (*catalog)->Get("a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE((*catalog)->Get("b").ok());
  ASSERT_TRUE((*catalog)->Get("c").ok());  // evicts "a" (LRU)
  EXPECT_EQ((*catalog)->ResidentCount(), 2);

  // The evicted database's handle (engine included) stays usable.
  auto naive = (*a)->engine().ExecuteNaive();
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive->response.blocks.size(), bundle.database.blocks.size());

  // Re-getting "a" is a fresh load with a bumped generation.
  auto a2 = (*catalog)->Get("a");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ((*a2)->generation(), 2u);
}

TEST_F(CatalogTest, HotReloadPicksUpRewrittenFile) {
  const HostedBundle bundle = MakeBundle(4);
  SaveAs("live", bundle, /*generation=*/1);
  auto catalog = BundleCatalog::Open(dir_.path().string());
  ASSERT_TRUE(catalog.ok());

  auto before = (*catalog)->Get("live");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->generation(), 1u);
  EXPECT_EQ((*before)->bundle().generation, 1u);

  // The owner re-uploads the same database under the same name: every
  // byte but the generation stamp is identical, so neither size nor
  // (granularity permitting) mtime can be relied on. The v3 fingerprint
  // is the generation itself — that alone must trigger the reload.
  SaveAs("live", bundle, /*generation=*/2);

  auto after = (*catalog)->Get("live");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->generation(), 2u);         // catalog load counter
  EXPECT_EQ((*after)->bundle().generation, 2u);  // owner's own stamp
  EXPECT_NE(before->get(), after->get());

  // The superseded handle still answers.
  EXPECT_TRUE((*before)->engine().ExecuteNaive().ok());
}

TEST_F(CatalogTest, NameMismatchedBundleRejected) {
  // A bundle self-declared as "other" sitting at live.xcr must not be
  // served as "live": the catalog's filename-stem routing would otherwise
  // silently alias one owner's database under another's name.
  const HostedBundle bundle = MakeBundle(13);
  Status saved = SaveBundle(bundle.database, bundle.metadata, PathFor("live"),
                            "other", /*generation=*/1);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto catalog = BundleCatalog::Open(dir_.path().string());
  ASSERT_TRUE(catalog.ok());

  auto db = (*catalog)->Get("live");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

/// Rewrites a v3 image (saved with empty name and generation 0) into its
/// v2 form: patch the version word and drop the 12 bytes of name-length +
/// generation that v3 inserted after the header.
void WriteAsV2(const std::string& path, const HostedBundle& bundle) {
  Bytes image = SerializeBundle(bundle.database, bundle.metadata);
  ASSERT_GE(image.size(), 20u);
  image[4] = 2;  // version word (little-endian) follows the 4-byte magic
  image.erase(image.begin() + 8, image.begin() + 20);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST_F(CatalogTest, V2ImagesRefusedAsUnsupported) {
  WriteAsV2(PathFor("legacy"), MakeBundle(14));
  SaveAs("alpha", MakeBundle(5));
  auto catalog = BundleCatalog::Open(dir_.path().string());
  ASSERT_TRUE(catalog.ok());

  // A v2 image carries no header generation, so the catalog cannot
  // version-track it: it is refused, and its neighbours still serve.
  auto legacy = (*catalog)->Get("legacy");
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kUnsupported);
  auto header = ReadBundleHeader(PathFor("legacy"));
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kUnsupported);
  EXPECT_TRUE((*catalog)->Get("alpha").ok());
}

TEST_F(CatalogTest, ReloadForcesFreshLoadWithoutFileChange) {
  SaveAs("alpha", MakeBundle(5));
  auto catalog = BundleCatalog::Open(dir_.path().string());
  ASSERT_TRUE(catalog.ok());
  ASSERT_TRUE((*catalog)->Get("alpha").ok());

  ASSERT_TRUE((*catalog)->Reload("alpha").ok());
  EXPECT_EQ((*catalog)->ResidentCount(), 0);
  auto db = (*catalog)->Get("alpha");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->generation(), 2u);

  EXPECT_EQ((*catalog)->Reload("ghost").code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, UnloadRemovesDatabase) {
  SaveAs("alpha", MakeBundle(6));
  SaveAs("beta", MakeBundle(7));
  auto catalog = BundleCatalog::Open(dir_.path().string());
  ASSERT_TRUE(catalog.ok());
  auto held = (*catalog)->Get("alpha");
  ASSERT_TRUE(held.ok());

  ASSERT_TRUE((*catalog)->Unload("alpha").ok());
  EXPECT_EQ((*catalog)->List(), (std::vector<std::string>{"beta"}));
  EXPECT_EQ((*catalog)->Get("alpha").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*catalog)->Unload("alpha").code(), StatusCode::kNotFound);

  // The in-flight handle survives the unload.
  EXPECT_TRUE((*held)->engine().ExecuteNaive().ok());
}

TEST_F(CatalogTest, AddBundlePinsInMemoryEntries) {
  BundleCatalog catalog;  // no directory at all
  ASSERT_TRUE(catalog.AddBundle("mem", MakeBundle(8)).ok());
  EXPECT_EQ(catalog.List(), (std::vector<std::string>{"mem"}));

  auto db = catalog.Get("mem");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->generation(), 1u);
  // Pinned entries are outside the LRU accounting.
  EXPECT_EQ(catalog.ResidentCount(), 0);

  // Replacing the bundle bumps the generation; the old handle lives on.
  ASSERT_TRUE(catalog.AddBundle("mem", MakeBundle(9)).ok());
  auto replaced = catalog.Get("mem");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ((*replaced)->generation(), 2u);
  EXPECT_TRUE((*db)->engine().ExecuteNaive().ok());

  // Reload is a harmless no-op for pinned entries.
  EXPECT_TRUE(catalog.Reload("mem").ok());
  EXPECT_TRUE(catalog.Get("mem").ok());
}

TEST_F(CatalogTest, PinnedEntriesSurviveLruPressure) {
  const HostedBundle bundle = MakeBundle(10);
  SaveAs("f1", bundle);
  SaveAs("f2", bundle);
  CatalogOptions options;
  options.max_resident = 1;
  auto catalog = BundleCatalog::Open(dir_.path().string(), options);
  ASSERT_TRUE(catalog.ok());
  ASSERT_TRUE((*catalog)->AddBundle("pinned", MakeBundle(11)).ok());

  ASSERT_TRUE((*catalog)->Get("f1").ok());
  ASSERT_TRUE((*catalog)->Get("f2").ok());  // evicts f1
  EXPECT_EQ((*catalog)->ResidentCount(), 1);
  auto pinned = (*catalog)->Get("pinned");
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ((*pinned)->generation(), 1u);  // never evicted, never reloaded
}

TEST_F(CatalogTest, ConcurrentColdGetsLoadOnce) {
  SaveAs("shared", MakeBundle(12));
  auto catalog = BundleCatalog::Open(dir_.path().string());
  ASSERT_TRUE(catalog.ok());

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ResidentDb>> handles(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto db = (*catalog)->Get("shared");
      if (db.ok()) handles[i] = *db;
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(handles[i], nullptr) << i;
    // One load: everyone shares generation 1 (no thundering-herd reload).
    EXPECT_EQ(handles[i]->generation(), 1u);
    EXPECT_EQ(handles[i].get(), handles[0].get());
  }
}

// --- Plan-cache lifecycle across catalog transitions ----------------------

/// Owner-side client whose translated queries run against catalog engines
/// built from its own exported bundles (tokens match by construction).
class CatalogPlanCacheTest : public ::testing::Test {
 protected:
  CatalogPlanCacheTest() {
    auto client = Client::Host(BuildHealthcareSample(), HealthcareConstraints(),
                               SchemeKind::kOptimal, "catalog-owner");
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    owner_ = std::make_unique<Client>(std::move(*client));
  }

  HostedBundle Export(uint64_t generation) {
    auto bundle = DeserializeBundle(SerializeBundle(
        owner_->database(), owner_->metadata(), "hospital", generation));
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    return std::move(*bundle);
  }

  TranslatedQuery Translate(const std::string& xpath) {
    auto query = ParseXPath(xpath);
    EXPECT_TRUE(query.ok()) << xpath;
    auto translated = owner_->Translate(*query);
    EXPECT_TRUE(translated.ok()) << translated.status().ToString();
    return std::move(*translated);
  }

  /// Runs `q` twice against `db`'s engine; the second pass must hit.
  void WarmUp(const ResidentDb& db, const TranslatedQuery& q) {
    ASSERT_TRUE(db.engine().Execute(q).ok());
    ASSERT_TRUE(db.engine().Execute(q).ok());
    EXPECT_GE(db.engine().plan_cache_stats().hits, 1u);
  }

  std::unique_ptr<Client> owner_;
};

TEST_F(CatalogPlanCacheTest, ApplyDeltaInvalidatesPlans) {
  BundleCatalog catalog;
  ASSERT_TRUE(catalog.AddBundle("hospital", Export(1)).ok());
  auto before = catalog.Get("hospital");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->engine().data_generation(), 1u);
  const TranslatedQuery q = Translate("//patient//SSN");
  WarmUp(**before, q);

  DeltaBuilder builder(owner_.get());
  ASSERT_TRUE(builder.UpdateValues(*ParseXPath("//doctor"), "House").ok());
  auto generation = catalog.ApplyDelta("hospital", builder.Build("hospital", 1));
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();

  // The post-delta resident is a fresh engine: new generation stamp,
  // nothing cached — a plan computed against generation-1 data can never
  // answer a generation-2 query.
  auto after = catalog.Get("hospital");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->engine().data_generation(), 2u);
  EXPECT_EQ((*after)->engine().plan_cache_stats().entries, 0u);

  // Same shape on the new engine: correct answer, then warm again.
  auto cold = (*after)->engine().Execute(q);
  ASSERT_TRUE(cold.ok());
  auto warm = (*after)->engine().Execute(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_GE((*after)->engine().plan_cache_stats().hits, 1u);
  EXPECT_EQ(warm->response.skeleton_xml, cold->response.skeleton_xml);

  // In-flight readers of the superseded resident keep their warm cache.
  EXPECT_GE((*before)->engine().plan_cache_stats().entries, 1u);
}

TEST_F(CatalogPlanCacheTest, EvictAndReloadDropStalePlans) {
  const TestDir dir;
  const std::string path = dir.File("hospital.xcr");
  ASSERT_TRUE(SaveBundle(owner_->database(), owner_->metadata(), path,
                         "hospital", /*generation=*/3)
                  .ok());

  auto catalog = BundleCatalog::Open(dir.path().string());
  ASSERT_TRUE(catalog.ok());
  auto before = (*catalog)->Get("hospital");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->engine().data_generation(), 3u);
  const TranslatedQuery q = Translate("//patient//disease");
  WarmUp(**before, q);

  // Evict (Reload drops the resident) and reload from disk: the new
  // engine must start with an empty plan cache, not inherit stale plans.
  ASSERT_TRUE((*catalog)->Reload("hospital").ok());
  auto after = (*catalog)->Get("hospital");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  EXPECT_EQ((*after)->engine().plan_cache_stats().entries, 0u);
  EXPECT_EQ((*after)->engine().plan_cache_stats().hits, 0u);
  EXPECT_EQ((*after)->engine().data_generation(), 3u);
}

TEST_F(CatalogPlanCacheTest, MetricsRegistryReachesCatalogEngines) {
  obs::MetricsRegistry registry;
  BundleCatalog catalog;
  catalog.SetMetricsRegistry(&registry);
  ASSERT_TRUE(catalog.AddBundle("hospital", Export(1)).ok());
  auto db = catalog.Get("hospital");
  ASSERT_TRUE(db.ok());
  const TranslatedQuery q = Translate("//patient//SSN");
  ASSERT_TRUE((*db)->engine().Execute(q).ok());
  ASSERT_TRUE((*db)->engine().Execute(q).ok());
  EXPECT_GE(registry.GetCounter("plan_cache.miss")->Value(), 1);
  EXPECT_GE(registry.GetCounter("plan_cache.hit")->Value(), 1);
}

}  // namespace
}  // namespace net
}  // namespace xcrypt
