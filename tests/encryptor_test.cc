#include <gtest/gtest.h>

#include <set>

#include "core/encryptor.h"
#include "core/metadata.h"
#include "data/healthcare.h"
#include "xml/parser.h"

namespace xcrypt {
namespace {

struct Hosted {
  Document doc;
  EncryptionScheme scheme;
  EncryptionResult enc;
  KeyChain keys{"encryptor-test"};
};

Hosted HostHealthcare(SchemeKind kind) {
  Hosted h;
  h.doc = BuildHealthcareSample();
  auto scheme = BuildEncryptionScheme(h.doc, HealthcareConstraints(), kind);
  EXPECT_TRUE(scheme.ok());
  h.scheme = std::move(*scheme);
  auto enc = EncryptDocument(h.doc, h.scheme, h.keys);
  EXPECT_TRUE(enc.ok()) << enc.status().ToString();
  h.enc = std::move(*enc);
  return h;
}

TEST(EncryptorTest, BlockPerRoot) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  EXPECT_EQ(h.enc.database.blocks.size(), h.scheme.block_roots.size());
  EXPECT_EQ(h.enc.database.marker_of_block.size(),
            h.scheme.block_roots.size());
  for (const EncryptedBlock& b : h.enc.database.blocks) {
    EXPECT_GT(b.ciphertext.size(), 0u);
    EXPECT_GT(b.plaintext_bytes, 0);
  }
}

TEST(EncryptorTest, BlocksDecryptToOriginalSubtrees) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  for (size_t i = 0; i < h.enc.database.blocks.size(); ++i) {
    auto payload = DecryptBlock(h.enc.database.blocks[i], h.keys);
    ASSERT_TRUE(payload.ok());
    Document clean = *payload;
    RemoveDecoys(clean);
    // The decrypted, decoy-stripped payload equals the original subtree.
    Document original;
    original.GraftSubtree(h.doc, h.scheme.block_roots[i], kNullNode);
    EXPECT_TRUE(clean.EqualTree(original)) << "block " << i;
  }
}

TEST(EncryptorTest, LeafBlocksCarryDecoys) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  int leaf_blocks = 0;
  for (size_t i = 0; i < h.enc.database.blocks.size(); ++i) {
    if (!h.doc.IsLeaf(h.scheme.block_roots[i])) continue;
    ++leaf_blocks;
    auto payload = DecryptBlock(h.enc.database.blocks[i], h.keys);
    ASSERT_TRUE(payload.ok());
    bool has_decoy = false;
    payload->Visit(payload->root(), [&](NodeId id) {
      has_decoy |= payload->node(id).tag == kDecoyTag;
    });
    EXPECT_TRUE(has_decoy) << "leaf block " << i << " lacks a decoy";
  }
  EXPECT_GT(leaf_blocks, 0);  // opt encrypts pname/disease leaves
}

TEST(EncryptorTest, IdenticalLeavesGetDistinctCiphertexts) {
  // The two 'diarrhea' disease leaves must encrypt differently (decoy +
  // per-block IV), defeating the frequency attack of §4.1.
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  std::vector<Bytes> disease_cts;
  for (size_t i = 0; i < h.enc.database.blocks.size(); ++i) {
    const NodeId root = h.scheme.block_roots[i];
    if (h.doc.node(root).tag == "disease" &&
        h.doc.node(root).value == "diarrhea") {
      disease_cts.push_back(h.enc.database.blocks[i].ciphertext);
    }
  }
  ASSERT_EQ(disease_cts.size(), 2u);
  EXPECT_NE(disease_cts[0], disease_cts[1]);
}

TEST(EncryptorTest, SkeletonHidesEncryptedContent) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  const std::string xml = SerializeXml(h.enc.database.skeleton,
                                       h.enc.database.skeleton.root(), 0);
  // Sensitive values and tags never appear in the public skeleton.
  for (const char* secret : {"Betty", "Matt", "diarrhea", "leukemia",
                             "pname", "insurance", "policy#", "1000000"}) {
    EXPECT_EQ(xml.find(secret), std::string::npos) << secret;
  }
  // Public data remains visible.
  EXPECT_NE(xml.find("SSN"), std::string::npos);
  EXPECT_NE(xml.find("763895"), std::string::npos);
  EXPECT_NE(xml.find(kBlockMarkerTag), std::string::npos);
}

TEST(EncryptorTest, MarkersMapToBlocks) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  const Document& skel = h.enc.database.skeleton;
  for (size_t block = 0; block < h.enc.database.marker_of_block.size();
       ++block) {
    const NodeId marker = h.enc.database.marker_of_block[block];
    ASSERT_NE(marker, kNullNode);
    EXPECT_EQ(skel.node(marker).tag, kBlockMarkerTag);
    // The id attribute round-trips.
    bool found = false;
    for (NodeId c : skel.node(marker).children) {
      if (skel.node(c).is_attribute && skel.node(c).tag == "id") {
        EXPECT_EQ(skel.node(c).value, std::to_string(block));
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(EncryptorTest, BlockOfNodeConsistent) {
  const Hosted h = HostHealthcare(SchemeKind::kSub);
  for (NodeId id : h.doc.PreOrder()) {
    const int block = h.enc.block_of_node[id];
    bool in_some_root = false;
    for (size_t i = 0; i < h.scheme.block_roots.size(); ++i) {
      if (h.scheme.block_roots[i] == id ||
          h.doc.IsAncestor(h.scheme.block_roots[i], id)) {
        in_some_root = true;
        EXPECT_EQ(block, static_cast<int>(i));
      }
    }
    if (!in_some_root) {
      EXPECT_EQ(block, -1);
    }
  }
}

TEST(EncryptorTest, TopSchemeSingleBlock) {
  const Hosted h = HostHealthcare(SchemeKind::kTop);
  EXPECT_EQ(h.enc.database.blocks.size(), 1u);
  // Skeleton is just the marker.
  EXPECT_EQ(h.enc.database.skeleton.node(0).tag, kBlockMarkerTag);
  auto payload = DecryptBlock(h.enc.database.blocks[0], h.keys);
  ASSERT_TRUE(payload.ok());
  Document clean = *payload;
  RemoveDecoys(clean);
  EXPECT_TRUE(clean.EqualTree(h.doc));
}

TEST(EncryptorTest, WrongKeyFailsOrGarbles) {
  const Hosted h = HostHealthcare(SchemeKind::kTop);
  const KeyChain wrong("some-other-secret");
  auto payload = DecryptBlock(h.enc.database.blocks[0], wrong);
  if (payload.ok()) {
    EXPECT_FALSE(payload->EqualTree(h.doc));
  }
}

TEST(EncryptorTest, RemoveDecoysIdempotent) {
  Document doc;
  const NodeId root = doc.AddRoot("a");
  doc.AddLeaf(root, kDecoyTag, "junk");
  doc.AddLeaf(root, "b", "keep");
  RemoveDecoys(doc);
  EXPECT_EQ(doc.node(root).children.size(), 1u);
  RemoveDecoys(doc);
  EXPECT_EQ(doc.node(root).children.size(), 1u);
}

TEST(MetadataTest, DsiTableGroupsAdjacentSameTagInBlock) {
  // Paper §5.1.1: the two adjacent policy# leaves inside one insurance
  // block are represented by a single merged interval.
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  auto meta = BuildMetadata(h.doc, h.enc, h.keys);
  ASSERT_TRUE(meta.ok());
  const std::string policy_token = meta->client.tag_tokens.at("policy#");
  // 4 policy# leaves, two adjacent in one block -> 3 intervals.
  EXPECT_EQ(meta->server.dsi_table.Lookup(policy_token).size(), 3u);
}

TEST(MetadataTest, EncryptedTagsTokenized) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  auto meta = BuildMetadata(h.doc, h.enc, h.keys);
  ASSERT_TRUE(meta.ok());
  // insurance occurs only encrypted: no plaintext entry.
  EXPECT_TRUE(meta->server.dsi_table.Lookup("insurance").empty());
  EXPECT_FALSE(meta->server.dsi_table
                   .Lookup(meta->client.tag_tokens.at("insurance"))
                   .empty());
  // SSN is public under opt: plaintext entry, no token.
  EXPECT_FALSE(meta->server.dsi_table.Lookup("SSN").empty());
  EXPECT_EQ(meta->client.tag_tokens.count("SSN"), 0u);
  EXPECT_EQ(meta->client.public_tags.count("SSN"), 1u);
  EXPECT_EQ(meta->client.public_tags.count("pname"), 0u);
}

TEST(MetadataTest, BlockTableHasOneRepPerBlock) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  auto meta = BuildMetadata(h.doc, h.enc, h.keys);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->server.block_table.size(),
            static_cast<int>(h.enc.database.blocks.size()));
  Rng rng(h.keys.RngSeed("dsi"));
  const DsiIndex dsi = DsiIndex::Build(h.doc, rng);
  for (size_t i = 0; i < h.scheme.block_roots.size(); ++i) {
    const Interval* rep = meta->server.block_table.RepresentativeOf(i);
    ASSERT_NE(rep, nullptr);
    EXPECT_TRUE(*rep == dsi.interval(h.scheme.block_roots[i]));
  }
}

TEST(MetadataTest, ValueIndexesBuiltForEncryptedLeafTags) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  auto meta = BuildMetadata(h.doc, h.enc, h.keys);
  ASSERT_TRUE(meta.ok());
  // Encrypted leaf tags with values: pname, disease, policy#, @coverage.
  EXPECT_EQ(meta->server.value_indexes.size(), 4u);
  EXPECT_EQ(meta->client.opess.size(), 4u);
  EXPECT_TRUE(meta->client.opess.count("pname") == 1);
  EXPECT_TRUE(meta->client.opess.count("@coverage") == 1);
  for (const auto& [token, tree] : meta->server.value_indexes) {
    EXPECT_GT(tree.size(), 0);
    EXPECT_TRUE(tree.CheckInvariants());
  }
}

TEST(MetadataTest, PublicIntervalMapCoversPublicNodesOnly) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  auto meta = BuildMetadata(h.doc, h.enc, h.keys);
  ASSERT_TRUE(meta.ok());
  int public_nodes = 0;
  for (NodeId id : h.doc.PreOrder()) {
    if (h.enc.block_of_node[id] < 0) ++public_nodes;
  }
  EXPECT_EQ(static_cast<int>(meta->server.public_interval_to_node.size()),
            public_nodes);
}

TEST(MetadataTest, MetadataByteSizePositive) {
  const Hosted h = HostHealthcare(SchemeKind::kOptimal);
  auto meta = BuildMetadata(h.doc, h.enc, h.keys);
  ASSERT_TRUE(meta.ok());
  EXPECT_GT(meta->server.ByteSize(), 0);
}

}  // namespace
}  // namespace xcrypt
