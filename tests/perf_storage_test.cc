// Perf-smoke gate (ctest label: perfsmoke) for the out-of-core storage
// path: on a payload-heavy corpus ~10x the NASA baseline image, a
// format-v4 mapped cold attach (open + first query answered) must beat
// the v3 eager load by a wide margin, and the mapped attach must stay
// within a small fixed heap footprint while the eager one swallows the
// whole image.
//
// The CI gate is deliberately looser than the bench's headline number
// (bench_storage measures >= 5x on quiet hardware; the test asserts
// >= 3x so a loaded CI box doesn't flake) — it exists to catch the
// regression class where someone makes the mapped open eager again,
// which shows up as a 1x ratio, not as noise.
//
// Skipped under sanitizers (instrumentation skews both timing and
// malloc accounting) and in unoptimized builds.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/client.h"
#include "core/server.h"
#include "data/dblp_generator.h"
#include "storage/mmap_bundle.h"
#include "storage/serializer.h"
#include "tests/test_dir.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace {

namespace fs = std::filesystem;

#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
#define __SANITIZE_ADDRESS__ 1
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

TEST(PerfStorageTest, MappedColdAttachBeatsEagerLoadOnTenXCorpus) {
#if defined(XCRYPT_PERF_SMOKE_SKIP) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "perf smoke runs only on uninstrumented builds";
#elif !defined(NDEBUG)
  GTEST_SKIP() << "perf smoke requires an optimized build";
#else
  // The bench_storage DBLP corpus at scale 10: encrypted abstracts make
  // ciphertext payload ~97% of the image, which is what the mapped path
  // avoids touching.
  DblpConfig config;
  config.persons = 120;
  config.publications_per_person = 5;
  config.abstract_sentences = 1000;
  config.seed = 20060923;
  const Document doc = GenerateDblp(config);
  auto client = Client::Host(doc, DblpConstraints(), SchemeKind::kOptimal,
                             "perf-storage");
  ASSERT_TRUE(client.ok());

  const TestDir dir;
  const std::string v4_path = dir.File("dblp_v4.xcr");
  const std::string v3_path = dir.File("dblp_v3.xcr");
  ASSERT_TRUE(SaveBundle(client->database(), client->metadata(), v4_path,
                         "dblp", 1, BundleFormat::kV4)
                  .ok());
  ASSERT_TRUE(SaveBundle(client->database(), client->metadata(), v3_path,
                         "dblp", 1, BundleFormat::kV3)
                  .ok());
  const double image_mb =
      static_cast<double>(fs::file_size(v4_path)) / (1024.0 * 1024.0);

  // Selective first query: one small FullName block per person ships,
  // none of the fat abstract blocks.
  auto query = client->Translate(*ParseXPath("//person//FullName"));
  ASSERT_TRUE(query.ok());

  // Best-of-3 per side: the gate bounds what the machine CAN do, so the
  // minimum is the right statistic (same discipline as perf_smoke_test).
  double v4_best_ms = 1e30, v3_best_ms = 1e30;
  size_t shipped = 0;
  int64_t mapped_resident = 0;
  for (int run = 0; run < 3; ++run) {
    {
      const auto start = std::chrono::steady_clock::now();
      auto mapped = MmapBundleReader::Open(v4_path, "dblp");
      ASSERT_TRUE(mapped.ok());
      const ServerEngine engine(mapped->get());
      auto result = engine.Execute(*query);
      const auto stop = std::chrono::steady_clock::now();
      ASSERT_TRUE(result.ok());
      shipped = result->response.blocks.size();
      mapped_resident = (*mapped)->ResidentBytes();
      v4_best_ms = std::min(
          v4_best_ms,
          std::chrono::duration<double, std::milli>(stop - start).count());
    }
    {
      const auto start = std::chrono::steady_clock::now();
      auto bundle = LoadBundle(v3_path, "dblp");
      ASSERT_TRUE(bundle.ok());
      const ServerEngine engine(&bundle->database, &bundle->metadata);
      auto result = engine.Execute(*query);
      const auto stop = std::chrono::steady_clock::now();
      ASSERT_TRUE(result.ok());
      v3_best_ms = std::min(
          v3_best_ms,
          std::chrono::duration<double, std::milli>(stop - start).count());
    }
  }

  ASSERT_GT(shipped, 0u);
  const double ratio = v3_best_ms / v4_best_ms;
  std::printf("cold attach on %.1f MiB image: v4 mapped %.2f ms, v3 eager "
              "%.2f ms (%.1fx), mapped resident %lld B\n",
              image_mb, v4_best_ms, v3_best_ms, ratio,
              static_cast<long long>(mapped_resident));
  EXPECT_GE(ratio, 3.0)
      << "v4 mapped cold attach only " << ratio
      << "x faster than v3 eager on a ~10x corpus — the demand-paged open "
         "regressed toward an eager load";

  // The mapped attach materializes index sections only: what the reader
  // charges the catalog budget must stay far below the image (the fat
  // payload stays in the file). 20% is ~4x the measured share.
  EXPECT_LT(static_cast<double>(mapped_resident),
            0.20 * image_mb * 1024.0 * 1024.0)
      << "mapped residency no longer excludes the payload section";
#endif
}

}  // namespace
}  // namespace xcrypt
