#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/keychain.h"
#include "crypto/ope.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "crypto/vernam.h"

namespace xcrypt {
namespace {

std::string HashHex(const std::string& s) {
  return HexEncode(Sha256::Hash(ToBytes(s)));
}

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, LongInput) {
  // One million 'a' characters (FIPS 180 appendix vector).
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(reinterpret_cast<const uint8_t*>(chunk.data()), chunk.size());
  }
  const auto digest = h.Finish();
  EXPECT_EQ(HexEncode(Bytes(digest.begin(), digest.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.Update(reinterpret_cast<const uint8_t*>(&c), 1);
  const auto digest = h.Finish();
  EXPECT_EQ(Bytes(digest.begin(), digest.end()), Sha256::Hash(ToBytes(msg)));
}

TEST(HmacTest, Rfc4231Vectors) {
  // Test case 2.
  EXPECT_EQ(HexEncode(HmacSha256(ToBytes("Jefe"),
                                 ToBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 1: 20 bytes of 0x0b, data "Hi There".
  EXPECT_EQ(HexEncode(HmacSha256(Bytes(20, 0x0b), ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(PrfTest, DeterministicAndLabelSeparated) {
  const Prf prf(ToBytes("key"));
  EXPECT_EQ(prf.Eval("x"), prf.Eval("x"));
  EXPECT_NE(prf.Eval("x"), prf.Eval("y"));
  EXPECT_NE(prf.DeriveKey("a"), prf.DeriveKey("b"));
  EXPECT_NE(Prf(ToBytes("key2")).Eval("x"), prf.Eval("x"));
}

TEST(PrfTest, KeystreamLengthAndDeterminism) {
  const Prf prf(ToBytes("key"));
  const Bytes ks = prf.Keystream("label", 1000);
  EXPECT_EQ(ks.size(), 1000u);
  EXPECT_EQ(prf.Keystream("label", 1000), ks);
  // Prefix property: shorter request is a prefix.
  const Bytes ks2 = prf.Keystream("label", 100);
  EXPECT_TRUE(std::equal(ks2.begin(), ks2.end(), ks.begin()));
}

TEST(Aes128Test, Fips197Vector) {
  auto key = HexDecode("000102030405060708090a0b0c0d0e0f");
  ASSERT_TRUE(key.ok());
  auto aes = Aes128::Create(*key);
  ASSERT_TRUE(aes.ok());
  auto plain = HexDecode("00112233445566778899aabbccddeeff");
  ASSERT_TRUE(plain.ok());
  uint8_t block[16];
  std::copy(plain->begin(), plain->end(), block);
  aes->EncryptBlock(block);
  EXPECT_EQ(HexEncode(Bytes(block, block + 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  aes->DecryptBlock(block);
  EXPECT_EQ(Bytes(block, block + 16), *plain);
}

TEST(Aes128Test, RejectsShortKey) {
  EXPECT_FALSE(Aes128::Create(Bytes(8, 0)).ok());
}

TEST(CbcCipherTest, RoundTripVariousLengths) {
  auto cipher = CbcCipher::Create(Bytes(32, 0x5a));
  ASSERT_TRUE(cipher.ok());
  Rng rng(99);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 4096u}) {
    Bytes plain(len);
    for (auto& b : plain) b = static_cast<uint8_t>(rng.UniformU64(0, 255));
    const Bytes ct = cipher->Encrypt(plain, "nonce");
    EXPECT_EQ(ct.size(), CbcCipher::CiphertextSize(len));
    auto back = cipher->Decrypt(ct);
    ASSERT_TRUE(back.ok()) << len;
    EXPECT_EQ(*back, plain);
  }
}

TEST(CbcCipherTest, DistinctNoncesGiveDistinctCiphertexts) {
  auto cipher = CbcCipher::Create(Bytes(32, 0x5a));
  ASSERT_TRUE(cipher.ok());
  const Bytes plain = ToBytes("identical subtree payload");
  EXPECT_NE(cipher->Encrypt(plain, "block:1"), cipher->Encrypt(plain, "block:2"));
  EXPECT_EQ(cipher->Encrypt(plain, "block:1"), cipher->Encrypt(plain, "block:1"));
}

TEST(CbcCipherTest, TamperDetectedOrGarbage) {
  auto cipher = CbcCipher::Create(Bytes(32, 0x11));
  ASSERT_TRUE(cipher.ok());
  const Bytes plain = ToBytes("payload payload payload");
  Bytes ct = cipher->Encrypt(plain, "n");
  ct.back() ^= 0xff;
  auto back = cipher->Decrypt(ct);
  // Either padding fails or the plaintext differs.
  if (back.ok()) {
    EXPECT_NE(*back, plain);
  }
}

TEST(CbcCipherTest, RejectsTruncatedInput) {
  auto cipher = CbcCipher::Create(Bytes(32, 0x11));
  ASSERT_TRUE(cipher.ok());
  EXPECT_FALSE(cipher->Decrypt(Bytes(16, 0)).ok());  // IV only
  EXPECT_FALSE(cipher->Decrypt(Bytes(40, 0)).ok());  // not block-aligned
}

TEST(VernamTest, XorRoundTripAndPerfectHiding) {
  const Bytes plain = ToBytes("SSN");
  const Bytes pad = {0x12, 0x34, 0x56};
  const Bytes ct = VernamEncrypt(plain, pad);
  EXPECT_NE(ct, plain);
  EXPECT_EQ(VernamDecrypt(ct, pad), plain);
  // With the right pad, ANY plaintext of the same length is reachable:
  // the ciphertext alone carries no information (perfect secrecy).
  const Bytes other = ToBytes("AGE");
  Bytes crafted_pad = ct;
  XorInPlace(crafted_pad, other);
  EXPECT_EQ(VernamDecrypt(ct, crafted_pad), other);
}

TEST(TagCipherTest, DeterministicPrintableTokens) {
  const TagCipher cipher(ToBytes("tag-key"));
  const std::string t1 = cipher.EncryptTag("SSN");
  EXPECT_EQ(t1, cipher.EncryptTag("SSN"));
  EXPECT_NE(t1, cipher.EncryptTag("pname"));
  EXPECT_EQ(t1.size(), 8u);
  for (char c : t1) {
    EXPECT_TRUE((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) << t1;
  }
  // Different keys produce unrelated tokens.
  EXPECT_NE(TagCipher(ToBytes("other-key")).EncryptTag("SSN"), t1);
}

TEST(TagCipherTest, NoCollisionsAcrossRealisticTagSets) {
  const TagCipher cipher(ToBytes("k"));
  std::set<std::string> tokens;
  const char* tags[] = {"SSN",     "pname",   "disease", "doctor",
                        "treat",   "patient", "insurance", "policy#",
                        "@coverage", "age",   "hospital", "name",
                        "income",  "address", "creditcard", "emailaddress"};
  for (const char* tag : tags) tokens.insert(cipher.EncryptTag(tag));
  EXPECT_EQ(tokens.size(), std::size(tags));
}

TEST(OpeTest, StrictlyMonotoneOverSamples) {
  const OpeFunction ope(ToBytes("ope-key"));
  int64_t prev = ope.EncryptInt(-1000);
  for (int64_t x = -999; x <= 1000; ++x) {
    const int64_t cur = ope.EncryptInt(x);
    EXPECT_GT(cur, prev) << "at " << x;
    prev = cur;
  }
}

TEST(OpeTest, RealEncryptionOrdersDisplacedValues) {
  const OpeFunction ope(ToBytes("ope-key"));
  // Values displaced by fractions of a gap keep their order.
  EXPECT_LT(ope.EncryptReal(23.45), ope.EncryptReal(24.35));
  EXPECT_LT(ope.EncryptReal(24.98), ope.EncryptReal(32.05));
  EXPECT_LT(ope.EncryptReal(-1.5), ope.EncryptReal(-1.25));
}

TEST(OpeTest, KeyDependence) {
  const OpeFunction a(ToBytes("k1"));
  const OpeFunction b(ToBytes("k2"));
  int differs = 0;
  for (int x = 0; x < 50; ++x) {
    if (a.EncryptInt(x) != b.EncryptInt(x)) ++differs;
  }
  EXPECT_GT(differs, 40);
}

TEST(KeyChainTest, DeterministicPerSecret) {
  const KeyChain a("secret");
  const KeyChain b("secret");
  const KeyChain c("other");
  EXPECT_EQ(a.tag_cipher().EncryptTag("SSN"), b.tag_cipher().EncryptTag("SSN"));
  EXPECT_NE(a.tag_cipher().EncryptTag("SSN"), c.tag_cipher().EncryptTag("SSN"));
  EXPECT_EQ(a.RngSeed("dsi"), b.RngSeed("dsi"));
  EXPECT_NE(a.RngSeed("dsi"), a.RngSeed("opess"));
  EXPECT_EQ(a.OpeFor("age").EncryptInt(7), b.OpeFor("age").EncryptInt(7));
  EXPECT_NE(a.OpeFor("age").EncryptInt(7), a.OpeFor("income").EncryptInt(7));
}

TEST(KeyChainTest, BlockCipherRoundTrip) {
  const KeyChain keys("secret");
  const Bytes plain = ToBytes("<patient><SSN>763895</SSN></patient>");
  const Bytes ct = keys.block_cipher().Encrypt(plain, "block:0");
  auto back = keys.block_cipher().Decrypt(ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, plain);
  // A different keychain cannot decrypt to the same plaintext.
  const KeyChain other("other");
  auto wrong = other.block_cipher().Decrypt(ct);
  if (wrong.ok()) {
    EXPECT_NE(*wrong, plain);
  }
}

// Property sweep: OPE monotone for random pairs at various magnitudes.
class OpeMonotoneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OpeMonotoneTest, RandomPairsOrdered) {
  const OpeFunction ope(ToBytes("sweep-key"));
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const int64_t a = rng.UniformI64(-2000000, 2000000);
    const int64_t b = rng.UniformI64(-2000000, 2000000);
    if (a == b) continue;
    EXPECT_EQ(a < b, ope.EncryptInt(a) < ope.EncryptInt(b))
        << a << " vs " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpeMonotoneTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace xcrypt
