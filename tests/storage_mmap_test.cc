// Differential and adversarial coverage for the format-v4 mapped storage
// path (storage/mmap_bundle.h):
//
//  - A ServerEngine over a demand-paged MmapBundleReader must answer
//    byte-identically to one over an eagerly deserialized copy of the
//    same image — per scheme, cold (fresh engine per query) and warm
//    (reused engine), with cache advertisements, for naive execution,
//    and for aggregates.
//  - v3 and v4 images of the same bundle must load to identical
//    databases, in both conversion directions.
//  - Corrupted v4 images — truncations, overlapping section tables, bit
//    flips anywhere — must be rejected with an error status (Corruption
//    for structural damage) and never crash; the sanitizer configurations
//    of scripts/check.sh run this suite to enforce "never" memory-safely.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "data/healthcare.h"
#include "storage/mmap_bundle.h"
#include "storage/serializer.h"
#include "tests/test_dir.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace {

const char* const kQueries[] = {
    "//patient[pname='Betty']//disease",
    "//patient[.//insurance/@coverage>='500000']//SSN",
    "//treat[doctor='Smith']/disease",
    "//insurance/policy#",
    "//patient//SSN",
};

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

void ExpectSameResponse(const ServerResponse& want, const ServerResponse& got,
                        const std::string& label) {
  EXPECT_EQ(want.requires_full_requery, got.requires_full_requery) << label;
  EXPECT_EQ(want.skeleton_xml, got.skeleton_xml) << label;
  EXPECT_EQ(want.cached_ids, got.cached_ids) << label;
  ASSERT_EQ(want.blocks.size(), got.blocks.size()) << label;
  for (size_t i = 0; i < want.blocks.size(); ++i) {
    EXPECT_EQ(want.blocks[i].id, got.blocks[i].id) << label;
    EXPECT_EQ(want.blocks[i].generation, got.blocks[i].generation) << label;
    EXPECT_EQ(want.blocks[i].ciphertext, got.blocks[i].ciphertext) << label;
  }
}

class StorageMmapTest : public ::testing::TestWithParam<SchemeKind> {
 protected:
  StorageMmapTest() : doc_(BuildHospital(25, 111)) {
    auto client = Client::Host(doc_, HealthcareConstraints(), GetParam(),
                               "mmap-secret");
    EXPECT_TRUE(client.ok());
    client_ = std::make_unique<Client>(std::move(*client));
    path_ = dir_.File("hosp.xcr");
    EXPECT_TRUE(SaveBundle(client_->database(), client_->metadata(), path_,
                           "hosp", /*generation=*/7, BundleFormat::kV4)
                    .ok());
  }

  TestDir dir_;
  Document doc_;
  std::unique_ptr<Client> client_;
  std::string path_;
};

TEST_P(StorageMmapTest, MappedAnswersMatchEagerColdAndWarm) {
  auto mapped = MmapBundleReader::Open(path_, "hosp");
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto eager = LoadBundle(path_, "hosp");
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  const ServerEngine eager_engine(&eager->database, &eager->metadata);
  const ServerEngine warm_engine(mapped->get());
  for (const char* text : kQueries) {
    auto query = ParseXPath(text);
    ASSERT_TRUE(query.ok()) << text;
    auto translated = client_->Translate(*query);
    ASSERT_TRUE(translated.ok()) << text;
    auto want = eager_engine.Execute(*translated);
    ASSERT_TRUE(want.ok()) << text;

    // Cold: a fresh engine whose first call faults the index sections in.
    const ServerEngine cold_engine(mapped->get());
    auto cold = cold_engine.Execute(*translated);
    ASSERT_TRUE(cold.ok()) << text << ": " << cold.status().ToString();
    ExpectSameResponse(want->response, cold->response,
                       std::string("cold ") + text);

    // Warm: the shared engine, twice, so the second pass hits every
    // lazily built structure (forests, OPESS trees, range-probe cache).
    for (int pass = 0; pass < 2; ++pass) {
      auto warm = warm_engine.Execute(*translated);
      ASSERT_TRUE(warm.ok()) << text;
      ExpectSameResponse(want->response, warm->response,
                         std::string("warm ") + text);
    }
  }
}

TEST_P(StorageMmapTest, MappedHonorsCacheAdvertsLikeEager) {
  auto mapped = MmapBundleReader::Open(path_, "hosp");
  ASSERT_TRUE(mapped.ok());
  auto eager = LoadBundle(path_, "hosp");
  ASSERT_TRUE(eager.ok());
  const ServerEngine eager_engine(&eager->database, &eager->metadata);
  const ServerEngine mapped_engine(mapped->get());

  // Which nodes end up inside encryption blocks depends on the scheme
  // (the vertex cover may satisfy a constraint from either side), so
  // find the query that ships the most blocks under this scheme instead
  // of hard-coding one.
  TranslatedQuery heaviest;
  size_t heaviest_blocks = 0;
  for (const char* text : kQueries) {
    auto query = ParseXPath(text);
    ASSERT_TRUE(query.ok()) << text;
    auto translated = client_->Translate(*query);
    ASSERT_TRUE(translated.ok()) << text;
    auto run = eager_engine.Execute(*translated);
    ASSERT_TRUE(run.ok()) << text;
    if (run->response.blocks.size() > heaviest_blocks) {
      heaviest_blocks = run->response.blocks.size();
      heaviest = std::move(*translated);
    }
  }
  ASSERT_GT(heaviest_blocks, 0u)
      << "no query ships a block under this scheme — fixture too small";

  // Advertise every shipped block back — one with a stale generation when
  // there is more than one (under the top scheme the whole document is a
  // single block, so there the lone advert stays fresh) — and both
  // engines must stub/ship identically: fresh adverts stub, a stale one
  // ships its payload again.
  auto first = eager_engine.Execute(heaviest);
  ASSERT_TRUE(first.ok());
  std::vector<BlockAdvert> adverts;
  for (const EncryptedBlock& b : first->response.blocks) {
    adverts.push_back({b.id, b.generation});
  }
  if (adverts.size() > 1) {
    adverts.front().generation += 1;  // stale: payload must ship again
  }

  ExecOptions opts;
  opts.cached_blocks = adverts;
  auto want = eager_engine.Execute(heaviest, opts);
  auto got = mapped_engine.Execute(heaviest, opts);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_FALSE(want->response.cached_ids.empty());
  EXPECT_EQ(want->response.blocks.empty(), adverts.size() == 1);
  ExpectSameResponse(want->response, got->response, "adverts");
}

TEST_P(StorageMmapTest, MappedNaiveMatchesEager) {
  auto mapped = MmapBundleReader::Open(path_, "hosp");
  ASSERT_TRUE(mapped.ok());
  auto eager = LoadBundle(path_, "hosp");
  ASSERT_TRUE(eager.ok());
  const ServerEngine eager_engine(&eager->database, &eager->metadata);
  const ServerEngine mapped_engine(mapped->get());

  auto want = eager_engine.ExecuteNaive();
  auto got = mapped_engine.ExecuteNaive();
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSameResponse(want->response, got->response, "naive");
}

TEST_P(StorageMmapTest, MappedAggregatesMatchEager) {
  auto mapped = MmapBundleReader::Open(path_, "hosp");
  ASSERT_TRUE(mapped.ok());
  auto eager = LoadBundle(path_, "hosp");
  ASSERT_TRUE(eager.ok());
  const ServerEngine eager_engine(&eager->database, &eager->metadata);
  const ServerEngine mapped_engine(mapped->get());

  for (const char* text : {"//disease", "//insurance/policy#", "//SSN"}) {
    for (AggregateKind kind :
         {AggregateKind::kMin, AggregateKind::kMax, AggregateKind::kCount}) {
      auto path = ParseXPath(text);
      ASSERT_TRUE(path.ok());
      auto translated = client_->Translate(*path);
      ASSERT_TRUE(translated.ok()) << text;
      auto token = client_->AggregateIndexToken(*path);
      ASSERT_TRUE(token.ok()) << text;
      auto want = eager_engine.ExecuteAggregate(*translated, kind, *token);
      auto got = mapped_engine.ExecuteAggregate(*translated, kind, *token);
      ASSERT_TRUE(want.ok() && got.ok()) << text;
      EXPECT_EQ(want->response.computed_on_server,
                got->response.computed_on_server) << text;
      EXPECT_EQ(want->response.server_value, got->response.server_value)
          << text;
      ExpectSameResponse(want->response.payload, got->response.payload,
                         std::string("aggregate ") + text);
    }
  }
}

TEST_P(StorageMmapTest, V3AndV4ImagesLoadIdentically) {
  const std::string v3_path = dir_.File("hosp_v3.xcr");
  ASSERT_TRUE(SaveBundle(client_->database(), client_->metadata(), v3_path,
                         "hosp", /*generation=*/7, BundleFormat::kV3)
                  .ok());
  auto from_v4 = LoadBundle(path_, "hosp");
  auto from_v3 = LoadBundle(v3_path, "hosp");
  ASSERT_TRUE(from_v4.ok() && from_v3.ok());
  EXPECT_EQ(from_v4->name, from_v3->name);
  EXPECT_EQ(from_v4->generation, from_v3->generation);
  EXPECT_TRUE(
      from_v4->database.skeleton.EqualTree(from_v3->database.skeleton));
  ASSERT_EQ(from_v4->database.blocks.size(), from_v3->database.blocks.size());
  for (size_t i = 0; i < from_v4->database.blocks.size(); ++i) {
    EXPECT_EQ(from_v4->database.blocks[i].id,
              from_v3->database.blocks[i].id);
    EXPECT_EQ(from_v4->database.blocks[i].generation,
              from_v3->database.blocks[i].generation);
    EXPECT_EQ(from_v4->database.blocks[i].ciphertext,
              from_v3->database.blocks[i].ciphertext);
  }
  EXPECT_EQ(from_v4->database.marker_of_block,
            from_v3->database.marker_of_block);
  EXPECT_EQ(from_v4->metadata.dsi_table.entries(),
            from_v3->metadata.dsi_table.entries());
  EXPECT_EQ(from_v4->metadata.block_table.entries(),
            from_v3->metadata.block_table.entries());
  EXPECT_EQ(from_v4->metadata.public_interval_to_node,
            from_v3->metadata.public_interval_to_node);

  // The reverse conversion (v4 image -> v3 image) reproduces the direct
  // v3 serialization byte for byte.
  auto reconverted_path = dir_.File("hosp_back.xcr");
  ASSERT_TRUE(SaveBundle(from_v4->database, from_v4->metadata,
                         reconverted_path, from_v4->name,
                         from_v4->generation, BundleFormat::kV3)
                  .ok());
  EXPECT_EQ(ReadFileBytes(reconverted_path), ReadFileBytes(v3_path));
}

// ---- Adversarial images ---------------------------------------------------
//
// One scheme is enough: the v4 container under attack is scheme-blind.
// Every mutated image goes through the full open -> fault-in -> query
// pipeline; structural damage must surface as a Status (not a crash),
// and damage the container cannot see (ciphertext bits) must still
// produce a well-formed response.

class StorageMmapFuzzTest : public ::testing::Test {
 protected:
  StorageMmapFuzzTest() : doc_(BuildHospital(12, 113)) {
    auto client = Client::Host(doc_, HealthcareConstraints(),
                               SchemeKind::kOptimal, "fuzz-secret");
    EXPECT_TRUE(client.ok());
    client_ = std::make_unique<Client>(std::move(*client));
    const std::string pristine = dir_.File("db.xcr");
    EXPECT_TRUE(SaveBundle(client_->database(), client_->metadata(), pristine,
                           "db", /*generation=*/1, BundleFormat::kV4)
                    .ok());
    image_ = ReadFileBytes(pristine);
    EXPECT_GT(image_.size(), 256u);
    auto query = ParseXPath("//patient[pname='Betty']//disease");
    EXPECT_TRUE(query.ok());
    auto translated = client_->Translate(*query);
    EXPECT_TRUE(translated.ok());
    query_ = std::make_unique<TranslatedQuery>(std::move(*translated));
  }

  /// Full pipeline over a candidate image: open, fault the sections in,
  /// run one query (which probes value indexes through its predicate).
  /// Returns the first non-OK status, or OK if everything parsed. The
  /// point is what it never does: crash, hang, or trip a sanitizer.
  Status Drive(const std::vector<uint8_t>& image) {
    const std::string path = dir_.File("mutant.xcr");
    WriteFileBytes(path, image);
    auto mapped = MmapBundleReader::Open(path);
    if (!mapped.ok()) return mapped.status();
    const ServerEngine engine(mapped->get());
    auto run = engine.Execute(*query_);
    if (!run.ok()) return run.status();
    return Status::Ok();
  }

  TestDir dir_;
  Document doc_;
  std::unique_ptr<Client> client_;
  std::unique_ptr<TranslatedQuery> query_;
  std::vector<uint8_t> image_;
};

TEST_F(StorageMmapFuzzTest, TruncationsAreRejectedNotCrashed) {
  // Every proper prefix is an invalid image: the payload section is
  // written last, so any truncation leaves some section out of bounds
  // (or the prologue unreadable) and the open must fail cleanly.
  std::vector<size_t> lengths = {1, 2, 3, 7, 11, 12, 13, 24, 25, 31};
  for (size_t len = 64; len < image_.size(); len += image_.size() / 53) {
    lengths.push_back(len);
  }
  lengths.push_back(image_.size() - 1);
  for (size_t len : lengths) {
    std::vector<uint8_t> prefix(image_.begin(), image_.begin() + len);
    const Status status = Drive(prefix);
    EXPECT_FALSE(status.ok()) << "truncation to " << len
                              << " bytes was accepted";
  }
}

TEST_F(StorageMmapFuzzTest, OverlappingSectionTablesAreRejected) {
  // The section table sits right after magic/version/name/generation:
  // count u32, then 24-byte rows of {id u32, reserved u32, offset u64,
  // length u64}. Point each section in turn at another's offset — the
  // disjointness check must reject every such table.
  const size_t name_len = 2;  // "db"
  const size_t table = 4 + 4 + (4 + name_len) + 8;
  const uint32_t count = static_cast<uint32_t>(image_[table]) |
                         (static_cast<uint32_t>(image_[table + 1]) << 8) |
                         (static_cast<uint32_t>(image_[table + 2]) << 16) |
                         (static_cast<uint32_t>(image_[table + 3]) << 24);
  ASSERT_GE(count, 8u);
  ASSERT_LT(count, 64u);  // sanity: the prologue really is where we think
  const size_t rows = table + 4;
  for (uint32_t i = 0; i < count; ++i) {
    std::vector<uint8_t> mutant = image_;
    const size_t src = rows + ((i + 1) % count) * 24 + 8;
    const size_t dst = rows + i * 24 + 8;
    for (int b = 0; b < 8; ++b) mutant[dst + b] = mutant[src + b];
    const Status status = Drive(mutant);
    EXPECT_FALSE(status.ok())
        << "section " << i << " aliased onto its neighbour was accepted";
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << status.ToString();
  }
}

TEST_F(StorageMmapFuzzTest, BitFlipsNeverCrash) {
  // Dense sweep over the prologue + section table + the first section's
  // head, sparse sweep over the rest of the file (block index, value
  // indexes, payload bytes). A flip in ciphertext is invisible to the
  // container — success is a legal outcome — but structural flips must
  // come back as statuses. Under ASan/UBSan this is the "never crash"
  // gate of the storage fuzz suite.
  size_t drove = 0;
  for (size_t pos = 0; pos < image_.size();
       pos = pos < 512 ? pos + 7 : pos + 997) {
    std::vector<uint8_t> mutant = image_;
    mutant[pos] ^= static_cast<uint8_t>(1u << (pos % 8));
    (void)Drive(mutant);
    ++drove;
  }
  EXPECT_GT(drove, 90u);

  // Flipping a payload byte must leave the container fully readable:
  // ciphertext is opaque bytes to the storage layer.
  std::vector<uint8_t> tail_flip = image_;
  tail_flip[image_.size() - 16] ^= 0x40;
  EXPECT_TRUE(Drive(tail_flip).ok());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, StorageMmapTest,
                         ::testing::Values(SchemeKind::kTop, SchemeKind::kSub,
                                           SchemeKind::kApproximate,
                                           SchemeKind::kOptimal));

}  // namespace
}  // namespace xcrypt
