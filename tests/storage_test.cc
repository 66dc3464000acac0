#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/random.h"
#include "core/client.h"
#include "core/server.h"
#include "data/healthcare.h"
#include "storage/serializer.h"
#include "tests/test_dir.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace {

class StorageTest : public ::testing::TestWithParam<SchemeKind> {
 protected:
  StorageTest() : doc_(BuildHospital(25, 111)) {
    auto client = Client::Host(doc_, HealthcareConstraints(), GetParam(),
                               "storage-secret");
    EXPECT_TRUE(client.ok());
    client_ = std::make_unique<Client>(std::move(*client));
  }

  Document doc_;
  std::unique_ptr<Client> client_;
};

TEST_P(StorageTest, RoundTripPreservesEverything) {
  const Bytes image =
      SerializeBundle(client_->database(), client_->metadata());
  auto bundle = DeserializeBundle(image);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  // Skeleton identical.
  EXPECT_TRUE(bundle->database.skeleton.EqualTree(
      client_->database().skeleton));
  // Blocks identical (ids + ciphertext).
  ASSERT_EQ(bundle->database.blocks.size(),
            client_->database().blocks.size());
  for (size_t i = 0; i < bundle->database.blocks.size(); ++i) {
    EXPECT_EQ(bundle->database.blocks[i].id,
              client_->database().blocks[i].id);
    EXPECT_EQ(bundle->database.blocks[i].generation,
              client_->database().blocks[i].generation);
    EXPECT_EQ(bundle->database.blocks[i].ciphertext,
              client_->database().blocks[i].ciphertext);
  }
  EXPECT_EQ(bundle->database.marker_of_block,
            client_->database().marker_of_block);
  // Metadata identical.
  EXPECT_EQ(bundle->metadata.dsi_table.entries(),
            client_->metadata().dsi_table.entries());
  EXPECT_EQ(bundle->metadata.block_table.entries(),
            client_->metadata().block_table.entries());
  EXPECT_EQ(bundle->metadata.public_interval_to_node,
            client_->metadata().public_interval_to_node);
  ASSERT_EQ(bundle->metadata.value_indexes.size(),
            client_->metadata().value_indexes.size());
  for (const auto& [token, tree] : client_->metadata().value_indexes) {
    auto it = bundle->metadata.value_indexes.find(token);
    ASSERT_NE(it, bundle->metadata.value_indexes.end());
    EXPECT_EQ(it->second.size(), tree.size());
    EXPECT_EQ(it->second.KeyHistogram(), tree.KeyHistogram());
  }
}

TEST_P(StorageTest, ServerOverLoadedBundleAnswersIdentically) {
  const Bytes image =
      SerializeBundle(client_->database(), client_->metadata());
  auto bundle = DeserializeBundle(image);
  ASSERT_TRUE(bundle.ok());

  const ServerEngine live(&client_->database(), &client_->metadata());
  const ServerEngine restored(&bundle->database, &bundle->metadata);

  for (const char* text : {
           "//patient[pname='Betty']//disease",
           "//patient[.//insurance/@coverage>='500000']//SSN",
           "//treat[doctor='Smith']/disease",
           "//insurance/policy#",
       }) {
    auto query = ParseXPath(text);
    ASSERT_TRUE(query.ok());
    auto translated = client_->Translate(*query);
    ASSERT_TRUE(translated.ok()) << text;
    auto a = live.Execute(*translated);
    auto b = restored.Execute(*translated);
    ASSERT_TRUE(a.ok() && b.ok()) << text;
    EXPECT_EQ(a->response.skeleton_xml, b->response.skeleton_xml) << text;
    ASSERT_EQ(a->response.blocks.size(), b->response.blocks.size()) << text;
    for (size_t i = 0; i < a->response.blocks.size(); ++i) {
      EXPECT_EQ(a->response.blocks[i].ciphertext, b->response.blocks[i].ciphertext);
    }
    // The client can post-process the restored server's response.
    auto answer = client_->PostProcess(*query, b->response);
    ASSERT_TRUE(answer.ok()) << text;
    EXPECT_EQ(answer->SerializedSorted(),
              GroundTruth(doc_, *query).SerializedSorted())
        << text;
  }
}

TEST_P(StorageTest, FileRoundTrip) {
  const TestDir dir;
  const std::string path = dir.File("bundle.bin");
  ASSERT_TRUE(
      SaveBundle(client_->database(), client_->metadata(), path).ok());
  auto bundle = LoadBundle(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_TRUE(bundle->database.skeleton.EqualTree(
      client_->database().skeleton));
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, StorageTest,
    ::testing::Values(SchemeKind::kOptimal, SchemeKind::kSub,
                      SchemeKind::kTop),
    [](const ::testing::TestParamInfo<SchemeKind>& info) {
      return std::string(SchemeKindName(info.param));
    });

TEST(StorageCorruptionTest, RejectsBadInput) {
  EXPECT_FALSE(DeserializeBundle({}).ok());
  EXPECT_FALSE(DeserializeBundle({0x00, 0x01, 0x02}).ok());

  // A valid bundle, then injected faults.
  auto client = Client::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(client.ok());
  const Bytes image =
      SerializeBundle(client->database(), client->metadata());

  // Wrong magic.
  Bytes bad_magic = image;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(DeserializeBundle(bad_magic).status().code(),
            StatusCode::kCorruption);

  // Wrong version.
  Bytes bad_version = image;
  bad_version[4] = 0x7f;
  EXPECT_EQ(DeserializeBundle(bad_version).status().code(),
            StatusCode::kUnsupported);

  // Truncations at various points must fail, never crash.
  for (size_t cut : {size_t{8}, image.size() / 4, image.size() / 2,
                     image.size() - 1}) {
    Bytes truncated(image.begin(), image.begin() + cut);
    EXPECT_FALSE(DeserializeBundle(truncated).ok()) << "cut at " << cut;
  }

  // Trailing garbage detected.
  Bytes padded = image;
  padded.push_back(0x00);
  EXPECT_FALSE(DeserializeBundle(padded).ok());
}

TEST(StorageCorruptionTest, RandomMutationFuzzNeverCrashes) {
  // Byte-flip fuzzing over a valid image: every mutation must either
  // fail cleanly or produce a structurally valid bundle — never crash.
  auto client = Client::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(client.ok());
  const Bytes image =
      SerializeBundle(client->database(), client->metadata());
  Rng rng(20260706);
  int parsed_ok = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Bytes mutated = image;
    const int flips = 1 + static_cast<int>(rng.UniformU64(0, 3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformU64(0, mutated.size() - 1);
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.UniformU64(0, 254));
    }
    auto bundle = DeserializeBundle(mutated);
    if (bundle.ok()) {
      ++parsed_ok;
      // Whatever parsed must be internally consistent enough to inspect.
      (void)bundle->database.skeleton.node_count();
      (void)bundle->metadata.dsi_table.size();
    }
  }
  // Most mutations must be rejected (length prefixes, magic, ranges).
  EXPECT_LT(parsed_ok, 400);
}

TEST(StorageCorruptionTest, OversizedCountRejectedBeforeAllocating) {
  // A 14-byte image claiming two billion document nodes: the reader must
  // notice the suffix cannot possibly hold them and reject immediately,
  // instead of looping (or reserving) its way toward out-of-memory.
  Bytes image;
  BinaryWriter w(&image);
  w.U32(0x58435231);  // bundle magic "XCR1"
  w.U32(2);           // version
  w.I32(0x7fffff00);  // node count
  w.U8(0);            // a lone stray byte of "node data"
  const auto bundle = DeserializeBundle(image);
  EXPECT_EQ(bundle.status().code(), StatusCode::kCorruption);
}

TEST(StorageCorruptionTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadBundle("/nonexistent/path/bundle.bin").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace xcrypt
