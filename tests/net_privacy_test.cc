// Access-pattern protection tests (DESIGN.md §17): the LWE PIR kernel,
// the query-shape log decoys are sampled from, the wire-v7 probe-batch /
// PIR codecs (including truncation and bit-flip fuzzing), and the full
// loopback path — batched probes must be answered uniformly (same bytes,
// same phase structure, same accounting per entry) and a DasSystem
// running with decoys must answer byte-identically to one without, under
// every encryption scheme.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/client.h"
#include "das/das_system.h"
#include "data/healthcare.h"
#include "net/channel.h"
#include "net/remote_engine.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "privacy/fetcher.h"
#include "privacy/padding.h"
#include "privacy/pir.h"
#include "privacy/shape.h"
#include "storage/serializer.h"
#include "tests/test_dir.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace net {
namespace {

// --- PIR kernel ---------------------------------------------------------

std::vector<uint8_t> SyntheticRecords(uint32_t n, uint32_t record_bytes) {
  std::vector<uint8_t> records(static_cast<size_t>(n) * record_bytes);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < record_bytes; ++j) {
      records[static_cast<size_t>(i) * record_bytes + j] =
          static_cast<uint8_t>(i * 31 + j * 7 + 1);
    }
  }
  return records;
}

TEST(PirKernelTest, RoundTripsEveryRecordPrivatelyAndPlainly) {
  privacy::PirParams params;
  params.num_records = 64;
  params.record_bytes = 8;
  params.seed = 0xfeedface12345678ull;
  const auto records = SyntheticRecords(params.num_records,
                                        params.record_bytes);
  auto hosted = privacy::PirHostedSection::Build(params, records);
  ASSERT_TRUE(hosted.ok()) << hosted.status().ToString();
  auto client = privacy::PirClientSection::Create(hosted->params(),
                                                  hosted->hint());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Rng rng(7);
  for (uint32_t i = 0; i < params.num_records; ++i) {
    for (bool privately : {true, false}) {
      auto query = client->MakeQuery(i, rng, privately);
      ASSERT_TRUE(query.ok()) << "index " << i;
      EXPECT_EQ(query->secret.empty(), !privately) << "index " << i;
      auto answer = hosted->Answer(query->u);
      ASSERT_TRUE(answer.ok()) << "index " << i;
      auto decoded = client->Decode(*query, *answer);
      ASSERT_TRUE(decoded.ok()) << "index " << i;
      const std::vector<uint8_t> expected(
          records.begin() + static_cast<size_t>(i) * params.record_bytes,
          records.begin() + static_cast<size_t>(i + 1) * params.record_bytes);
      EXPECT_EQ(*decoded, expected)
          << "index " << i << (privately ? " (private)" : " (plain)");
    }
  }
}

TEST(PirKernelTest, PrivateQueriesRefusedBeyondNoiseBound) {
  privacy::PirParams params;
  params.num_records = privacy::PirParams::kMaxPrivateRecords + 1;
  params.record_bytes = 8;
  params.seed = 1;
  EXPECT_FALSE(params.SupportsPrivateFetch());
  ASSERT_TRUE(params.Validate().ok());

  // The client side alone suffices: building the hosted half of a 16k+1
  // record section is not needed to check the refusal.
  std::vector<uint32_t> hint(
      static_cast<size_t>(params.record_bytes) * params.dim, 0);
  auto client = privacy::PirClientSection::Create(params, hint);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Rng rng(3);
  EXPECT_FALSE(client->MakeQuery(0, rng, /*privately=*/true).ok());
  // The plain selector has no noise and works at any size.
  auto plain = client->MakeQuery(0, rng, /*privately=*/false);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->secret.empty());
}

TEST(PirKernelTest, AnswerRejectsWrongLengthQuery) {
  privacy::PirParams params;
  params.num_records = 8;
  params.record_bytes = 4;
  params.seed = 2;
  auto hosted = privacy::PirHostedSection::Build(
      params, SyntheticRecords(params.num_records, params.record_bytes));
  ASSERT_TRUE(hosted.ok());
  const std::vector<uint32_t> short_query(params.num_records - 1, 0);
  EXPECT_FALSE(hosted->Answer(short_query).ok());
}

TEST(PirKernelTest, SectionNamesRoundTrip) {
  EXPECT_EQ(privacy::ParseOpessRootSection(privacy::OpessRootSection("T0K")),
            "T0K");
  EXPECT_EQ(privacy::ParseOpessRootSection(privacy::kBlockMetaSection), "");
  EXPECT_EQ(privacy::ParseOpessRootSection("garbage"), "");
}

// --- shape log ----------------------------------------------------------

TranslatedQuery MakeProbe(const std::string& token) {
  TranslatedStep step;
  step.axis = Axis::kChild;
  step.tokens = {token};
  TranslatedQuery q;
  q.steps = {step};
  return q;
}

TEST(ShapeLogTest, RingEvictsOldestPastCapacity) {
  privacy::ShapeLog log(4);
  for (int i = 0; i < 6; ++i) {
    log.Record(MakeProbe("t" + std::to_string(i)));
  }
  EXPECT_EQ(log.size(), 4u);
  Rng rng(11);
  std::set<std::string> seen;
  for (const TranslatedQuery& q : log.SampleMany(400, rng)) {
    seen.insert(q.ToString());
  }
  EXPECT_EQ(seen.count(MakeProbe("t0").ToString()), 0u);
  EXPECT_EQ(seen.count(MakeProbe("t1").ToString()), 0u);
  for (int i = 2; i < 6; ++i) {
    EXPECT_EQ(seen.count(MakeProbe("t" + std::to_string(i)).ToString()), 1u)
        << "t" << i;
  }
}

TEST(ShapeLogTest, EmptyLogSamplesNothing) {
  privacy::ShapeLog log;
  Rng rng(5);
  EXPECT_TRUE(log.SampleMany(5, rng).empty());
}

// Decoy indistinguishability hinges on UNIFORM sampling over the recorded
// shapes: any bias would let the server down-weight probes it sees too
// rarely. Chi-squared over 8 equally-recorded shapes, 8000 draws, df=7 —
// the p≈0.001 critical value is 24.3; a deterministic seed keeps the test
// stable well under 30.
TEST(ShapeLogTest, SampleManyIsUniformChiSquared) {
  privacy::ShapeLog log;
  constexpr int kShapes = 8;
  for (int i = 0; i < kShapes; ++i) {
    log.Record(MakeProbe("shape" + std::to_string(i)));
  }
  constexpr int kDraws = 8000;
  Rng rng(20260808);
  std::map<std::string, int> counts;
  for (const TranslatedQuery& q : log.SampleMany(kDraws, rng)) {
    ++counts[q.ToString()];
  }
  ASSERT_EQ(counts.size(), static_cast<size_t>(kShapes));
  const double expected = static_cast<double>(kDraws) / kShapes;
  double chi2 = 0.0;
  for (const auto& [shape, observed] : counts) {
    EXPECT_GT(observed, 0) << shape;
    const double d = observed - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 30.0) << "sampling bias: chi2=" << chi2;
}

TEST(ShapeLogTest, SaveLoadRoundTrip) {
  const TestDir dir;
  const std::string path = dir.File("shape_log");
  privacy::ShapeLog log;
  for (int i = 0; i < 3; ++i) {
    log.Record(MakeProbe("persisted" + std::to_string(i)));
  }
  ASSERT_TRUE(log.SaveToFile(path).ok());
  auto loaded = privacy::ShapeLog::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->Serialize(), log.Serialize());
}

TEST(ShapeLogTest, MissingFileLoadsEmptyCorruptFileErrors) {
  const TestDir dir;
  const std::string missing = dir.File("missing");
  auto empty = privacy::ShapeLog::LoadFromFile(missing);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());

  const std::string corrupt = dir.File("corrupt");
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << "this is not a shape log image";
  }
  EXPECT_FALSE(privacy::ShapeLog::LoadFromFile(corrupt).ok());
}

// --- wire v7 codecs -----------------------------------------------------

TranslatedQuery BigProbe() {
  TranslatedQuery q;
  for (int s = 0; s < 6; ++s) {
    TranslatedStep step;
    step.axis = s % 2 == 0 ? Axis::kChild : Axis::kDescendant;
    step.tokens = {"LONGTOKEN" + std::string(20, 'A' + s),
                   "ALT" + std::to_string(s)};
    TranslatedPredicate pred;
    pred.kind = TranslatedPredicate::Kind::kPlainValue;
    pred.op = CompOp::kEq;
    pred.literal = "literal-value-" + std::to_string(s);
    TranslatedStep inner;
    inner.tokens = {"P" + std::to_string(s)};
    pred.path = {inner};
    step.predicates = {pred};
    q.steps.push_back(step);
  }
  return q;
}

std::vector<std::string> ToStrings(const std::vector<TranslatedQuery>& qs) {
  std::vector<std::string> out;
  out.reserve(qs.size());
  for (const TranslatedQuery& q : qs) out.push_back(q.ToString());
  return out;
}

TEST(WireV7Test, ProbeBatchRequestRoundTrips) {
  const std::vector<TranslatedQuery> probes = {MakeProbe("small"), BigProbe()};
  const std::vector<BlockAdvert> cached = {{3, 7}, {9, 1}};
  for (bool pad : {true, false}) {
    const Bytes payload =
        EncodeProbeBatchRequest(probes, cached, "alpha", pad);
    auto decoded = DecodeProbeBatchRequest(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(ToStrings(decoded->probes), ToStrings(probes));
    ASSERT_EQ(decoded->cached.size(), cached.size());
    for (size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(decoded->cached[i].id, cached[i].id);
      EXPECT_EQ(decoded->cached[i].generation, cached[i].generation);
    }
    EXPECT_EQ(decoded->db, "alpha");
    EXPECT_EQ(decoded->pad_responses, pad);
  }
}

// The privacy property the codec carries: every probe occupies the same
// slot, so the encoding's length is invariant under probe permutation —
// an observer cannot locate the big (or small) probe by offset or size.
TEST(WireV7Test, ProbeSlotsHideIndividualEntrySizes) {
  const TranslatedQuery small = MakeProbe("s");
  const TranslatedQuery big = BigProbe();
  ASSERT_NE(EncodeTranslatedQuery(small).size(),
            EncodeTranslatedQuery(big).size());
  const std::vector<TranslatedQuery> ab = {small, big};
  const std::vector<TranslatedQuery> ba = {big, small};
  EXPECT_EQ(EncodeProbeBatchRequest(ab, {}, "db", true).size(),
            EncodeProbeBatchRequest(ba, {}, "db", true).size());
  // And the slot is quantum-rounded, never byte-exact for a non-multiple.
  const size_t entry = EncodeTranslatedQuery(big).size();
  EXPECT_EQ(privacy::PadToQuantum(entry) % privacy::kPadQuantum, 0u);
}

ServerResponse ResponseWithBlock(int id, size_t ciphertext_bytes) {
  ServerResponse resp;
  resp.skeleton_xml = "<r><_encblock id='" + std::to_string(id) + "'/></r>";
  EncryptedBlock block;
  block.id = id;
  block.ciphertext.assign(ciphertext_bytes, static_cast<uint8_t>(id));
  block.plaintext_bytes = static_cast<int64_t>(ciphertext_bytes);
  block.generation = 4;
  resp.blocks.push_back(std::move(block));
  return resp;
}

TEST(WireV7Test, ProbeBatchResponsePaddingEqualizesEntries) {
  const Bytes small = EncodeQueryResponse(ResponseWithBlock(1, 16), 10.0);
  const Bytes big = EncodeQueryResponse(ResponseWithBlock(2, 900), 20.0);
  ASSERT_NE(small.size(), big.size());

  // Padded: length invariant under answer permutation.
  EXPECT_EQ(EncodeProbeBatchResponse({small, big}, true).size(),
            EncodeProbeBatchResponse({big, small}, true).size());

  for (bool pad : {true, false}) {
    auto decoded = DecodeProbeBatchResponse(
        EncodeProbeBatchResponse({small, big}, pad));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->answers.size(), 2u);
    EXPECT_EQ(decoded->answers[0].server_process_us, 10.0);
    EXPECT_EQ(decoded->answers[1].server_process_us, 20.0);
    ASSERT_EQ(decoded->answers[1].response.blocks.size(), 1u);
    EXPECT_EQ(decoded->answers[1].response.blocks[0].ciphertext.size(), 900u);
  }
}

TEST(WireV7Test, PirCodecsRoundTrip) {
  PirSetupRequestMsg setup_req;
  setup_req.db = "tenant";
  setup_req.section = privacy::kBlockMetaSection;
  auto setup_req2 = DecodePirSetupRequest(EncodePirSetupRequest(setup_req));
  ASSERT_TRUE(setup_req2.ok());
  EXPECT_EQ(setup_req2->db, setup_req.db);
  EXPECT_EQ(setup_req2->section, setup_req.section);

  PirSetupResponseMsg setup_resp;
  setup_resp.params.num_records = 4;
  setup_resp.params.record_bytes = 8;
  setup_resp.params.seed = 0xabcdef;
  setup_resp.hint.resize(
      static_cast<size_t>(setup_resp.params.record_bytes) *
      setup_resp.params.dim);
  for (size_t i = 0; i < setup_resp.hint.size(); ++i) {
    setup_resp.hint[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  auto setup_resp2 =
      DecodePirSetupResponse(EncodePirSetupResponse(setup_resp));
  ASSERT_TRUE(setup_resp2.ok()) << setup_resp2.status().ToString();
  EXPECT_EQ(setup_resp2->params.num_records, setup_resp.params.num_records);
  EXPECT_EQ(setup_resp2->params.record_bytes, setup_resp.params.record_bytes);
  EXPECT_EQ(setup_resp2->params.seed, setup_resp.params.seed);
  EXPECT_EQ(setup_resp2->hint, setup_resp.hint);

  PirFetchRequestMsg fetch_req;
  fetch_req.db = "tenant";
  fetch_req.section = privacy::OpessRootSection("tok");
  fetch_req.query = {1u, 0x80000000u, 3u, 0xffffffffu};
  auto fetch_req2 = DecodePirFetchRequest(EncodePirFetchRequest(fetch_req));
  ASSERT_TRUE(fetch_req2.ok());
  EXPECT_EQ(fetch_req2->db, fetch_req.db);
  EXPECT_EQ(fetch_req2->section, fetch_req.section);
  EXPECT_EQ(fetch_req2->query, fetch_req.query);

  PirFetchResponseMsg fetch_resp;
  fetch_resp.answer = {9u, 8u, 7u, 6u, 5u, 4u, 3u, 2u};
  auto fetch_resp2 =
      DecodePirFetchResponse(EncodePirFetchResponse(fetch_resp));
  ASSERT_TRUE(fetch_resp2.ok());
  EXPECT_EQ(fetch_resp2->answer, fetch_resp.answer);
}

// Every strict prefix of a probe-batch payload must be rejected — the
// codec reads a fixed field sequence and demands full consumption, so a
// truncated frame can never decode into a plausible smaller batch.
TEST(WireV7Test, TruncatedProbeBatchPayloadAlwaysRejected) {
  const std::vector<TranslatedQuery> probes = {MakeProbe("x"), BigProbe()};
  const Bytes payload =
      EncodeProbeBatchRequest(probes, {{1, 2}}, "db", true);
  ASSERT_TRUE(DecodeProbeBatchRequest(payload).ok());
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes prefix(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(DecodeProbeBatchRequest(prefix).ok()) << "prefix " << len;
  }
}

TEST(WireV7Test, TruncatedProbeBatchFrameAlwaysRejected) {
  const std::vector<TranslatedQuery> probes = {MakeProbe("x")};
  const Bytes frame = EncodeFrame(MessageType::kProbeBatchRequest,
                                  EncodeProbeBatchRequest(probes));
  ASSERT_TRUE(DecodeFrame(frame, kDefaultMaxFrameBytes).ok());
  for (size_t len = 0; len < frame.size(); ++len) {
    const Bytes prefix(frame.begin(), frame.begin() + len);
    EXPECT_FALSE(DecodeFrame(prefix, kDefaultMaxFrameBytes).ok())
        << "prefix " << len;
  }
}

// Bit-flip fuzz: a hostile or corrupted byte anywhere in the frame (or
// payload) must produce a clean error or a decode that is ignorable —
// never a crash, hang, or over-allocation.
TEST(WireV7Test, BitFlippedProbeBatchNeverCrashes) {
  const std::vector<TranslatedQuery> probes = {MakeProbe("x"), MakeProbe("y")};
  const Bytes payload =
      EncodeProbeBatchRequest(probes, {{1, 2}, {3, 4}}, "db", false);
  const Bytes frame = EncodeFrame(MessageType::kProbeBatchRequest, payload);
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      Bytes mutated = frame;
      mutated[pos] ^= bit;
      auto decoded = DecodeFrame(mutated, kDefaultMaxFrameBytes);
      if (!decoded.ok()) continue;
      // A frame that still parses must also survive payload decode.
      DecodeProbeBatchRequest(decoded->payload).ok();
    }
  }
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    Bytes mutated = payload;
    mutated[pos] ^= 0xff;
    DecodeProbeBatchRequest(mutated).ok();
  }
}

// --- loopback: uniform server-side handling -----------------------------

/// A hospital-corpus daemon shared by the loopback tests below.
class PrivacyLoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    doc_ = new Document(BuildHospital(20, 6));
    auto client = Client::Host(*doc_, HealthcareConstraints(),
                               SchemeKind::kOptimal, "privacy-secret");
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = new Client(std::move(*client));
    auto bundle = DeserializeBundle(
        SerializeBundle(client_->database(), client_->metadata()));
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    NetServerOptions options;
    options.num_threads = 4;
    auto server = NetServer::Serve(
        ServerConfig::ForBundle(std::move(*bundle), "127.0.0.1", 0, options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = server->release();
  }

  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete client_;
    client_ = nullptr;
    delete doc_;
    doc_ = nullptr;
  }

  static TranslatedQuery Translate(const std::string& xpath) {
    auto expr = ParseXPath(xpath);
    EXPECT_TRUE(expr.ok()) << xpath;
    auto translated = client_->Translate(*expr);
    EXPECT_TRUE(translated.ok()) << xpath;
    return *translated;
  }

  static void ExpectSameResponse(const ServerResponse& a,
                                 const ServerResponse& b,
                                 const std::string& label) {
    EXPECT_EQ(a.skeleton_xml, b.skeleton_xml) << label;
    EXPECT_EQ(a.requires_full_requery, b.requires_full_requery) << label;
    EXPECT_EQ(a.cached_ids, b.cached_ids) << label;
    ASSERT_EQ(a.blocks.size(), b.blocks.size()) << label;
    for (size_t i = 0; i < a.blocks.size(); ++i) {
      EXPECT_EQ(a.blocks[i].id, b.blocks[i].id) << label;
      EXPECT_EQ(a.blocks[i].ciphertext, b.blocks[i].ciphertext) << label;
    }
  }

  static std::vector<std::string> PhaseNames(
      const std::vector<obs::PhaseTiming>& phases) {
    std::vector<std::string> names;
    names.reserve(phases.size());
    for (const obs::PhaseTiming& p : phases) names.push_back(p.name);
    return names;
  }

  static Document* doc_;
  static Client* client_;
  static NetServer* server_;
};

Document* PrivacyLoopbackTest::doc_ = nullptr;
Client* PrivacyLoopbackTest::client_ = nullptr;
NetServer* PrivacyLoopbackTest::server_ = nullptr;

// The core indistinguishability property, observed from the server side:
// a batch of k+1 IDENTICAL probes must come back as k+1 answers with
// identical bytes and identical phase structure, and must tick the served
// counter once per entry — the real probe leaves no server-visible mark.
// The plan cache is warmed first: decoys are replays of past queries, so
// the steady state (every probe a plan-cache hit) is the relevant one —
// cold, the batch's FIRST entry would miss the cache and show different
// phases, exactly like a lone query running for the first time.
TEST_F(PrivacyLoopbackTest, IdenticalProbesAnsweredUniformly) {
  const TranslatedQuery probe = Translate("//patient//SSN");
  const std::vector<TranslatedQuery> probes = {probe, probe, probe};
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE((*remote)->Execute(probe).ok());
  const uint64_t served_before = server_->stats().queries_served;

  auto sock = Socket::Dial("127.0.0.1", server_->port(), 5.0, 5.0);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  ASSERT_TRUE(WriteFrame(*sock, MessageType::kProbeBatchRequest,
                         EncodeProbeBatchRequest(probes))
                  .ok());
  auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 10.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MessageType::kProbeBatchResponse);
  auto batch = DecodeProbeBatchResponse(reply->payload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->answers.size(), probes.size());

  for (size_t i = 1; i < batch->answers.size(); ++i) {
    ExpectSameResponse(batch->answers[0].response,
                       batch->answers[i].response,
                       "answer " + std::to_string(i));
    EXPECT_EQ(PhaseNames(batch->answers[0].server_phases),
              PhaseNames(batch->answers[i].server_phases))
        << "answer " << i;
  }
  EXPECT_FALSE(batch->answers[0].server_phases.empty());
  EXPECT_EQ(server_->stats().queries_served, served_before + probes.size());
}

// Batched evaluation must be answer-preserving: each entry of a mixed
// batch matches what the same query gets as a lone kQueryRequest.
TEST_F(PrivacyLoopbackTest, MixedBatchMatchesUnbatchedAnswers) {
  const std::vector<TranslatedQuery> probes = {
      Translate("//patient[pname='Betty']//disease"),
      Translate("//patient//SSN"),
      Translate("//treat[doctor='Smith']/disease"),
  };
  const ServerEngine local(&client_->database(), &client_->metadata());

  auto sock = Socket::Dial("127.0.0.1", server_->port(), 5.0, 5.0);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(WriteFrame(*sock, MessageType::kProbeBatchRequest,
                         EncodeProbeBatchRequest(probes))
                  .ok());
  auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 10.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MessageType::kProbeBatchResponse);
  auto batch = DecodeProbeBatchResponse(reply->payload);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->answers.size(), probes.size());

  for (size_t i = 0; i < probes.size(); ++i) {
    auto expected = local.Execute(probes[i]);
    ASSERT_TRUE(expected.ok()) << "probe " << i;
    ExpectSameResponse(expected->response, batch->answers[i].response,
                       "probe " + std::to_string(i));
  }
}

TEST_F(PrivacyLoopbackTest, GarbageBatchGetsErrorAndServerSurvives) {
  {
    auto sock = Socket::Dial("127.0.0.1", server_->port(), 5.0, 5.0);
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(WriteFrame(*sock, MessageType::kProbeBatchRequest,
                           Bytes{1, 2, 3})
                    .ok());
    auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 10.0);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, MessageType::kError);
    EXPECT_FALSE(DecodeError(reply->payload).ok());
  }
  // The daemon is still healthy: a well-formed batch on a fresh
  // connection gets answered.
  auto sock = Socket::Dial("127.0.0.1", server_->port(), 5.0, 5.0);
  ASSERT_TRUE(sock.ok());
  const std::vector<TranslatedQuery> probes = {Translate("//insurance")};
  ASSERT_TRUE(WriteFrame(*sock, MessageType::kProbeBatchRequest,
                         EncodeProbeBatchRequest(probes))
                  .ok());
  auto reply = ReadFrame(*sock, kDefaultMaxFrameBytes, 10.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MessageType::kProbeBatchResponse);
}

// RemoteServerEngine mixes the real query into the covers and keeps only
// its answer; the result must equal the unbatched remote answer, and the
// client-side decoy counter must account for the covers.
TEST_F(PrivacyLoopbackTest, ExecuteWithCoversMatchesPlainExecute) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const TranslatedQuery real = Translate("//patient//SSN");
  const std::vector<TranslatedQuery> covers = {
      Translate("//insurance"),
      Translate("//treat[doctor='Smith']/disease"),
  };

  auto plain = (*remote)->Execute(real);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  const uint64_t decoys_before =
      obs::MetricsRegistry::Global().GetCounter("privacy.decoys_sent")
          ->Value();
  ExecOptions opts;
  opts.cover_queries = covers;
  // A few rounds so the jitter position moves around.
  for (int round = 0; round < 4; ++round) {
    auto batched = (*remote)->Execute(real, opts);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectSameResponse(plain->response, batched->response,
                       "round " + std::to_string(round));
  }
  const uint64_t decoys_after =
      obs::MetricsRegistry::Global().GetCounter("privacy.decoys_sent")
          ->Value();
  EXPECT_EQ(decoys_after - decoys_before, 4u * covers.size());
}

// The retry-path fix: the advert a request carries is rebuilt through the
// installed refresher, so entries dropped from the cache between attempts
// (or, here, before the call) are never promised to the daemon.
TEST_F(PrivacyLoopbackTest, AdvertRefresherFiltersStaleAdverts) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());

  // Which subtrees land in encryption blocks depends on the scheme; take
  // the first candidate whose answer actually ships blocks.
  Result<EngineQueryResult> cold =
      Status::NotFound("no block-shipping candidate");
  TranslatedQuery query;
  for (const char* text : {"//patient[pname='Betty']//disease",
                           "//patient[.//disease='diarrhea']//SSN",
                           "//insurance"}) {
    query = Translate(text);
    cold = (*remote)->Execute(query);
    ASSERT_TRUE(cold.ok()) << text;
    if (!cold->response.blocks.empty()) break;
  }
  ASSERT_FALSE(cold->response.blocks.empty());
  std::vector<BlockAdvert> adverts;
  for (const EncryptedBlock& block : cold->response.blocks) {
    adverts.push_back({block.id, block.generation});
  }

  ExecOptions opts;
  opts.cached_blocks = adverts;
  auto stubbed = (*remote)->Execute(query, opts);
  ASSERT_TRUE(stubbed.ok());
  EXPECT_FALSE(stubbed->response.cached_ids.empty())
      << "advertised blocks should come back as id-only stubs";

  // Now a refresher reporting every advert stale: the daemon must ship
  // full payloads again even though opts still lists the adverts.
  (*remote)->SetAdvertRefresher(
      [](std::vector<BlockAdvert>) { return std::vector<BlockAdvert>{}; });
  auto refreshed = (*remote)->Execute(query, opts);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed->response.cached_ids.empty());
  ExpectSameResponse(cold->response, refreshed->response, "refreshed");
}

TEST_F(PrivacyLoopbackTest, PirSetupAndFetchOverTheWire) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());

  auto setup = (*remote)->PirSetup(privacy::kBlockMetaSection);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  EXPECT_GT(setup->params.num_records, 0u);
  EXPECT_EQ(setup->params.record_bytes, privacy::kBlockMetaRecordBytes);
  ASSERT_TRUE(setup->params.Validate().ok());

  auto section = privacy::PirClientSection::Create(setup->params,
                                                   setup->hint);
  ASSERT_TRUE(section.ok()) << section.status().ToString();
  Rng rng(17);
  auto query = section->MakeQuery(0, rng,
                                  setup->params.SupportsPrivateFetch());
  ASSERT_TRUE(query.ok());
  auto answer = (*remote)->PirFetch(privacy::kBlockMetaSection, query->u);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto record = section->Decode(*query, *answer);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->size(), privacy::kBlockMetaRecordBytes);

  // Unknown sections are a clean NotFound, not a crash or a hang.
  EXPECT_FALSE((*remote)->PirSetup(privacy::OpessRootSection("nope")).ok());
  EXPECT_FALSE((*remote)->PirSetup("bogus-section").ok());
}

TEST_F(PrivacyLoopbackTest, SectionFetcherChoosesTransportByThreshold) {
  auto remote = RemoteServerEngine::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(remote.ok());

  privacy::SectionFetcher private_fetcher(remote->get(), 1 << 20, 99);
  auto private_record =
      private_fetcher.Fetch(privacy::kBlockMetaSection, 0);
  ASSERT_TRUE(private_record.ok()) << private_record.status().ToString();
  EXPECT_EQ(private_record->size(), privacy::kBlockMetaRecordBytes);
  EXPECT_TRUE(private_fetcher.SectionPrivate(privacy::kBlockMetaSection));
  EXPECT_EQ(private_fetcher.private_fetches(), 1u);
  EXPECT_EQ(private_fetcher.plain_fetches(), 0u);
  EXPECT_GT(private_fetcher.SectionRecords(privacy::kBlockMetaSection), 0u);

  // A 1-byte threshold forces the plain selector; the record bytes must
  // come back identical either way (only the selection vector differs).
  privacy::SectionFetcher plain_fetcher(remote->get(), 1, 99);
  auto plain_record = plain_fetcher.Fetch(privacy::kBlockMetaSection, 0);
  ASSERT_TRUE(plain_record.ok());
  EXPECT_FALSE(plain_fetcher.SectionPrivate(privacy::kBlockMetaSection));
  EXPECT_EQ(plain_fetcher.plain_fetches(), 1u);
  EXPECT_EQ(plain_fetcher.private_fetches(), 0u);
  EXPECT_EQ(*plain_record, *private_record);
}

// --- DasSystem end to end, all four schemes -----------------------------

class DasPrivacyTest : public ::testing::TestWithParam<SchemeKind> {
 protected:
  struct Hosted {
    std::unique_ptr<DasSystem> das;
    std::unique_ptr<NetServer> server;
  };

  static Hosted HostAndServe(const ClientTuning& tuning) {
    Hosted hosted;
    auto das = DasSystem::Host(BuildHospital(15, 5), HealthcareConstraints(),
                               GetParam(), "das-privacy-secret", tuning);
    EXPECT_TRUE(das.ok()) << das.status().ToString();
    hosted.das = std::make_unique<DasSystem>(std::move(*das));
    auto bundle = hosted.das->ExportBundle();
    EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
    auto server =
        NetServer::Serve(ServerConfig::ForBundle(std::move(*bundle)));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    hosted.server = std::move(*server);
    EXPECT_TRUE(hosted.das->Remote()
                    .Connect("127.0.0.1", hosted.server->port())
                    .ok());
    return hosted;
  }
};

// The acceptance property of the whole mode: a client running with
// decoys=4 (+ padded responses + PIR spot checks) must produce answers
// byte-identical to a decoys=0 client against the same data, while the
// server sees k+1 uniform probes per query and the client's shape log
// grows. The first query of a fresh system finds an empty log and goes
// out uncovered — a query never covers for itself.
TEST_P(DasPrivacyTest, DecoysPreserveAnswersAcrossSchemes) {
  ClientTuning plain_tuning;
  const TestDir dir;
  const std::string shape_path = dir.File("shape_log");
  ClientTuning decoy_tuning;
  decoy_tuning.privacy.decoys = 4;
  decoy_tuning.privacy.pir_threshold_bytes = 1 << 20;
  decoy_tuning.shape_log_path = shape_path;
  decoy_tuning.privacy_seed = 7;
  ASSERT_TRUE(decoy_tuning.Validate().ok());

  Hosted plain = HostAndServe(plain_tuning);
  Hosted decoyed = HostAndServe(decoy_tuning);
  ASSERT_NE(decoyed.das->section_fetcher(), nullptr);
  EXPECT_EQ(plain.das->section_fetcher(), nullptr);

  const std::vector<std::string> queries = {
      "//patient[pname='Betty']//disease",
      "//patient[.//disease='diarrhea']//SSN",
      "//treat[doctor='Smith']/disease",
      "//patient//SSN",
  };

  const uint64_t decoys_before =
      obs::MetricsRegistry::Global().GetCounter("privacy.decoys_sent")
          ->Value();
  int executed = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& xpath : queries) {
      auto expr = ParseXPath(xpath);
      ASSERT_TRUE(expr.ok()) << xpath;
      auto plain_run = plain.das->Execute(*expr);
      auto decoy_run = decoyed.das->Execute(*expr);
      ASSERT_TRUE(plain_run.ok()) << xpath << ": "
                                  << plain_run.status().ToString();
      ASSERT_TRUE(decoy_run.ok()) << xpath << ": "
                                  << decoy_run.status().ToString();
      ++executed;
      EXPECT_EQ(decoy_run->answer.SerializedSorted(),
                plain_run->answer.SerializedSorted())
          << xpath << " pass " << pass;
      EXPECT_EQ(decoy_run->answer.SerializedSorted(),
                GroundTruth(decoyed.das->client().original(), *expr)
                    .SerializedSorted())
          << xpath << " pass " << pass;
    }
  }
  ASSERT_GT(executed, 2);

  // Every executed query was recorded into the shape log...
  EXPECT_EQ(decoyed.das->shape_log_size(), static_cast<size_t>(executed));
  // ...and all but the first (empty-log) one carried a full cover set.
  EXPECT_EQ(obs::MetricsRegistry::Global()
                    .GetCounter("privacy.decoys_sent")
                    ->Value() -
                decoys_before,
            4u * (executed - 1));
  // Server-side accounting agrees: one tick per probe, cover or real.
  EXPECT_EQ(decoyed.server->stats().queries_served,
            static_cast<uint64_t>(executed + 4 * (executed - 1)));
  EXPECT_EQ(plain.server->stats().queries_served,
            static_cast<uint64_t>(executed));

  // PIR spot checks ran for block-shipping queries.
  const privacy::SectionFetcher* fetcher = decoyed.das->section_fetcher();
  EXPECT_GT(fetcher->private_fetches() + fetcher->plain_fetches(), 0u);

  // The shape log persists and seeds the next session's distribution.
  ASSERT_TRUE(decoyed.das->SaveShapeLog().ok());
  ClientTuning reload_tuning = decoy_tuning;
  auto reloaded =
      DasSystem::Host(BuildHospital(15, 5), HealthcareConstraints(),
                      GetParam(), "das-privacy-secret", reload_tuning);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->shape_log_size(),
            static_cast<size_t>(executed));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, DasPrivacyTest,
    ::testing::Values(SchemeKind::kOptimal, SchemeKind::kApproximate,
                      SchemeKind::kSub, SchemeKind::kTop),
    [](const ::testing::TestParamInfo<SchemeKind>& info) {
      return std::string(SchemeKindName(info.param));
    });

}  // namespace
}  // namespace net
}  // namespace xcrypt
