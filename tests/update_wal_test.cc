// BundleStore (owner-side WAL) tests: create/apply/reopen replay, torn
// tails truncated at every byte offset, checksummed-but-undecodable
// records surfacing as Corruption, checkpointing, and the crash-point
// between the image rename and the log swap.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/client.h"
#include "data/healthcare.h"
#include "storage/serializer.h"
#include "storage/update/delta.h"
#include "storage/update/delta_builder.h"
#include "storage/update/wal.h"
#include "tests/test_dir.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace {

namespace fs = std::filesystem;

Client MakeClient() {
  auto client = Client::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "wal-secret");
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(*client);
}

HostedBundle ExportAs(const Client& client, const std::string& name,
                      uint64_t generation) {
  auto bundle = DeserializeBundle(
      SerializeBundle(client.database(), client.metadata(), name, generation));
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  return std::move(*bundle);
}

Bytes ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  Bytes data;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return data;
}

void WriteFileBytes(const std::string& path, const Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // An empty vector's data() may be null, which fwrite must not see.
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = dir_.File("db.xcr");
    options_.fsync = false;  // tests exercise logic, not the disk
  }

  /// One recorded edit batch against `client`, materialized as the delta
  /// advancing `base` (distinct values per call keep batches non-empty).
  DeltaBundle OneDelta(Client* client, uint64_t base, int salt) {
    DeltaBuilder builder(client);
    auto updated = builder.UpdateValues(
        *ParseXPath("//doctor"), "Doc" + std::to_string(salt));
    EXPECT_TRUE(updated.ok()) << updated.status().ToString();
    return builder.Build("db", base);
  }

  TestDir dir_;
  std::string path_;
  BundleStore::Options options_;
};

TEST_F(WalTest, CreateApplyReopenReplays) {
  Client client = MakeClient();
  Bytes live;
  {
    auto store =
        BundleStore::Create(path_, ExportAs(client, "db", 1), options_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store->generation(), 1u);
    EXPECT_EQ(store->replayed(), 0);
    EXPECT_EQ(store->wal_bytes(), 0);

    ASSERT_TRUE(store->Apply(OneDelta(&client, 1, 0)).ok());
    ASSERT_TRUE(store->Apply(OneDelta(&client, 2, 1)).ok());
    EXPECT_EQ(store->generation(), 3u);
    EXPECT_GT(store->wal_bytes(), 0);
    live = SerializeBundle(store->bundle().database, store->bundle().metadata,
                           "db", 3);
  }
  // "Crash": the store was dropped without checkpointing. The image on
  // disk is still generation 1; the log carries both updates.
  auto reopened = BundleStore::Open(path_, options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->generation(), 3u);
  EXPECT_EQ(reopened->replayed(), 2);
  EXPECT_EQ(SerializeBundle(reopened->bundle().database,
                            reopened->bundle().metadata, "db", 3),
            live);
  // The recovered state matches the owner's, byte for byte.
  EXPECT_EQ(live,
            SerializeBundle(client.database(), client.metadata(), "db", 3));
}

TEST_F(WalTest, TornTailTruncatedAtEveryByteOffset) {
  Client client = MakeClient();
  Bytes wal_image;
  size_t rec1_bytes = 0;
  {
    auto store =
        BundleStore::Create(path_, ExportAs(client, "db", 1), options_);
    ASSERT_TRUE(store.ok());
    const DeltaBundle d1 = OneDelta(&client, 1, 0);
    rec1_bytes = 16 + SerializeDelta(d1).size();
    ASSERT_TRUE(store->Apply(d1).ok());
    ASSERT_TRUE(store->Apply(OneDelta(&client, 2, 1)).ok());
    wal_image = ReadFileBytes(WalPathFor(path_));
  }
  ASSERT_GT(wal_image.size(), rec1_bytes);

  for (size_t len = 0; len <= wal_image.size(); ++len) {
    WriteFileBytes(WalPathFor(path_),
                   Bytes(wal_image.begin(), wal_image.begin() + len));
    auto store = BundleStore::Open(path_, options_);
    ASSERT_TRUE(store.ok()) << "cut at " << len << ": "
                            << store.status().ToString();
    // Whole records replay; a torn tail is dropped, never half-applied.
    size_t whole = 0;
    if (len >= wal_image.size()) whole = 2;
    else if (len >= rec1_bytes) whole = 1;
    EXPECT_EQ(store->generation(), 1u + whole) << "cut at " << len;
    EXPECT_EQ(store->replayed(), static_cast<int>(whole)) << "cut at " << len;
    // The tail was physically truncated to a record boundary, so the
    // next append cannot splice onto garbage.
    const size_t boundary = whole == 2   ? wal_image.size()
                            : whole == 1 ? rec1_bytes
                                         : 0;
    EXPECT_EQ(fs::file_size(WalPathFor(path_)), boundary) << "cut at " << len;
  }
}

TEST_F(WalTest, ChecksummedGarbageIsCorruptionNotATornTail) {
  Client client = MakeClient();
  {
    auto store =
        BundleStore::Create(path_, ExportAs(client, "db", 1), options_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Apply(OneDelta(&client, 1, 0)).ok());
  }
  // Flip one payload byte and re-stamp the FNV-1a checksum: the record
  // now passes the torn-write test but cannot decode. Silently dropping
  // it would lose an acknowledged update — Open must refuse.
  Bytes wal = ReadFileBytes(WalPathFor(path_));
  ASSERT_GT(wal.size(), 17u);
  wal[16] ^= 0xff;  // first payload byte (breaks the delta magic)
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 16; i < wal.size(); ++i) {
    hash ^= wal[i];
    hash *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    wal[8 + i] = static_cast<uint8_t>(hash >> (8 * i));
  }
  WriteFileBytes(WalPathFor(path_), wal);

  auto store = BundleStore::Open(path_, options_);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, CheckpointResetsLogAndSurvivesReopen) {
  Client client = MakeClient();
  auto store = BundleStore::Create(path_, ExportAs(client, "db", 1), options_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Apply(OneDelta(&client, 1, 0)).ok());
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->wal_bytes(), 0);

  // The image itself now carries generation 2.
  auto header = ReadBundleHeader(path_);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->generation, 2u);

  auto reopened = BundleStore::Open(path_, options_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->generation(), 2u);
  EXPECT_EQ(reopened->replayed(), 0);  // nothing left to replay
}

TEST_F(WalTest, AutoCheckpointsPastConfiguredLogSize) {
  Client client = MakeClient();
  options_.checkpoint_wal_bytes = 1;  // every apply trips the threshold
  auto store = BundleStore::Create(path_, ExportAs(client, "db", 1), options_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Apply(OneDelta(&client, 1, 0)).ok());
  EXPECT_EQ(store->wal_bytes(), 0);  // checkpoint swapped in an empty log
  auto header = ReadBundleHeader(path_);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->generation, 2u);
}

TEST_F(WalTest, CrashBetweenImageRenameAndLogSwapIsReconciled) {
  Client client = MakeClient();
  {
    auto store =
        BundleStore::Create(path_, ExportAs(client, "db", 1), options_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->Apply(OneDelta(&client, 1, 0)).ok());
  }
  // Simulate a checkpoint that crashed after renaming the new image but
  // before swapping in the empty log: image at generation 2, stale log
  // still holding the generation-2 record.
  ASSERT_TRUE(SaveBundle(client.database(), client.metadata(), path_, "db",
                         2)
                  .ok());
  auto store = BundleStore::Open(path_, options_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->generation(), 2u);
  EXPECT_EQ(store->replayed(), 0);  // already absorbed by the image
}

TEST_F(WalTest, RejectedDeltaLeavesStoreAndLogUntouched) {
  Client client = MakeClient();
  auto store = BundleStore::Create(path_, ExportAs(client, "db", 1), options_);
  ASSERT_TRUE(store.ok());

  DeltaBundle stale = OneDelta(&client, 7, 0);  // base 7 ≠ store's 1
  EXPECT_EQ(store->Apply(stale).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store->generation(), 1u);
  EXPECT_EQ(store->wal_bytes(), 0);

  // Replay of an absorbed delta: Ok, but nothing is re-logged.
  stale.base_generation = 0;
  stale.new_generation = 1;
  EXPECT_TRUE(store->Apply(stale).ok());
  EXPECT_EQ(store->wal_bytes(), 0);
}

}  // namespace
}  // namespace xcrypt
