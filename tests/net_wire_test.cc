// Wire-protocol codec tests: round-trip of every message type, plus
// fault injection — truncation at every byte boundary and bit flips at
// each field boundary must yield clean error statuses, never a crash or
// a runaway allocation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/binary_io.h"
#include "net/wire.h"

namespace xcrypt {
namespace net {
namespace {

TranslatedQuery SampleQuery() {
  TranslatedQuery query;

  TranslatedStep first;
  first.axis = Axis::kDescendant;
  first.tokens = {"X95SER", "patient"};

  TranslatedPredicate exists;
  exists.kind = TranslatedPredicate::Kind::kExists;
  TranslatedStep exists_step;
  exists_step.axis = Axis::kChild;
  exists_step.tokens = {"U84573"};
  exists.path.push_back(exists_step);
  first.predicates.push_back(exists);

  TranslatedPredicate plain;
  plain.kind = TranslatedPredicate::Kind::kPlainValue;
  plain.op = CompOp::kLe;
  plain.literal = "Seoul";
  TranslatedStep plain_step;
  plain_step.axis = Axis::kChild;
  plain_step.tokens = {"city"};
  plain.path.push_back(plain_step);
  first.predicates.push_back(plain);

  TranslatedPredicate range;
  range.kind = TranslatedPredicate::Kind::kIndexRange;
  range.index_token = "TY0POA";
  range.range.lo = 764398;
  range.range.hi = 812001;
  TranslatedStep range_step;
  range_step.axis = Axis::kDescendant;
  range_step.tokens = {"TY0POA"};
  range.path.push_back(range_step);
  first.predicates.push_back(range);

  query.steps.push_back(first);

  TranslatedStep second;
  second.axis = Axis::kChild;
  second.wildcard = true;
  query.steps.push_back(second);
  return query;
}

ServerResponse SampleResponse() {
  ServerResponse response;
  response.skeleton_xml = "<root><_encblock id=\"0\"/><pub>x</pub></root>";
  EncryptedBlock b0;
  b0.id = 0;
  b0.generation = 3;
  b0.ciphertext = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  EncryptedBlock b1;
  b1.id = 7;
  b1.ciphertext = {};
  response.blocks = {b0, b1};
  response.cached_ids = {2, 5};
  response.requires_full_requery = true;
  return response;
}

std::vector<BlockAdvert> SampleAdverts() {
  return {{0, 3}, {2, 0}, {5, 1}};
}

void ExpectAdvertsEq(const std::vector<BlockAdvert>& a,
                     const std::vector<BlockAdvert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].generation, b[i].generation);
  }
}

void ExpectQueryEq(const TranslatedQuery& a, const TranslatedQuery& b) {
  EXPECT_EQ(a.ToString(), b.ToString());
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].axis, b.steps[i].axis);
    EXPECT_EQ(a.steps[i].wildcard, b.steps[i].wildcard);
    EXPECT_EQ(a.steps[i].tokens, b.steps[i].tokens);
    ASSERT_EQ(a.steps[i].predicates.size(), b.steps[i].predicates.size());
    for (size_t j = 0; j < a.steps[i].predicates.size(); ++j) {
      const auto& pa = a.steps[i].predicates[j];
      const auto& pb = b.steps[i].predicates[j];
      EXPECT_EQ(pa.kind, pb.kind);
      EXPECT_EQ(pa.op, pb.op);
      EXPECT_EQ(pa.literal, pb.literal);
      EXPECT_EQ(pa.index_token, pb.index_token);
      EXPECT_EQ(pa.range.lo, pb.range.lo);
      EXPECT_EQ(pa.range.hi, pb.range.hi);
      EXPECT_EQ(pa.range.empty, pb.range.empty);
    }
  }
}

void ExpectResponseEq(const ServerResponse& a, const ServerResponse& b) {
  EXPECT_EQ(a.skeleton_xml, b.skeleton_xml);
  EXPECT_EQ(a.requires_full_requery, b.requires_full_requery);
  EXPECT_EQ(a.cached_ids, b.cached_ids);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].id, b.blocks[i].id);
    EXPECT_EQ(a.blocks[i].generation, b.blocks[i].generation);
    EXPECT_EQ(a.blocks[i].ciphertext, b.blocks[i].ciphertext);
  }
}

TEST(WireFrame, RoundTripsEveryMessageType) {
  const Bytes payload = {1, 2, 3, 4, 5};
  for (uint8_t t = static_cast<uint8_t>(MessageType::kPingRequest);
       t <= static_cast<uint8_t>(MessageType::kPirFetchResponse); ++t) {
    const MessageType type = static_cast<MessageType>(t);
    auto frame = DecodeFrame(EncodeFrame(type, payload),
                             kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << MessageTypeName(type);
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(WireFrame, RejectsBadMagicVersionTypeAndLength) {
  const Bytes good = EncodeFrame(MessageType::kPingRequest, {});

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(DecodeFrame(bad_magic, kDefaultMaxFrameBytes).status().code(),
            StatusCode::kCorruption);

  Bytes bad_version = good;
  bad_version[4] = kWireVersion + 1;
  EXPECT_EQ(DecodeFrame(bad_version, kDefaultMaxFrameBytes).status().code(),
            StatusCode::kUnsupported);

  Bytes bad_type = good;
  bad_type[5] = 0;
  EXPECT_EQ(DecodeFrame(bad_type, kDefaultMaxFrameBytes).status().code(),
            StatusCode::kCorruption);
  bad_type[5] = static_cast<uint8_t>(MessageType::kPirFetchResponse) + 1;
  EXPECT_EQ(DecodeFrame(bad_type, kDefaultMaxFrameBytes).status().code(),
            StatusCode::kCorruption);

  // A length prefix exceeding the frame limit is rejected from the header
  // alone — before any payload allocation could happen.
  Bytes huge = EncodeFrame(MessageType::kPingRequest, {});
  huge[6] = 0xff;
  huge[7] = 0xff;
  huge[8] = 0xff;
  huge[9] = 0xff;
  EXPECT_EQ(DecodeFrame(huge, /*max_frame_bytes=*/1 << 20).status().code(),
            StatusCode::kCorruption);
}

TEST(WireFrame, OnlyCurrentVersionAccepted) {
  auto current = DecodeFrame(EncodeFrame(MessageType::kPingRequest, {}),
                             kDefaultMaxFrameBytes);
  ASSERT_TRUE(current.ok());

  // Every version byte but the current one is refused as Unsupported:
  // older layouts are not decoded, newer ones are not guessed at.
  for (int version = 0; version <= 255; ++version) {
    if (version == kWireVersion) continue;
    Bytes image = EncodeFrame(MessageType::kPingRequest, {});
    image[4] = static_cast<uint8_t>(version);  // follows the 4-byte magic
    EXPECT_EQ(DecodeFrame(image, kDefaultMaxFrameBytes).status().code(),
              StatusCode::kUnsupported)
        << version;
  }
}

TEST(WireFrame, RejectsTruncationAtEveryByte) {
  const Bytes frame = EncodeFrame(MessageType::kQueryRequest,
                                  EncodeQueryRequest(SampleQuery()));
  for (size_t len = 0; len < frame.size(); ++len) {
    const Bytes cut(frame.begin(), frame.begin() + len);
    auto decoded = DecodeFrame(cut, kDefaultMaxFrameBytes);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
  }
}

TEST(WireQuery, RoundTrip) {
  const TranslatedQuery query = SampleQuery();
  auto decoded = DecodeQueryRequest(EncodeQueryRequest(query));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectQueryEq(query, decoded->query);
  EXPECT_TRUE(decoded->cached.empty());
}

TEST(WireQuery, RoundTripEmpty) {
  auto decoded = DecodeQueryRequest(EncodeQueryRequest(TranslatedQuery{}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->query.steps.empty());
}

TEST(WireQuery, CacheAdvertsRoundTrip) {
  const std::vector<BlockAdvert> adverts = SampleAdverts();
  auto decoded = DecodeQueryRequest(EncodeQueryRequest(SampleQuery(), adverts));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectAdvertsEq(adverts, decoded->cached);
}

TEST(WireQuery, AdvertTruncationAtEveryByteFailsCleanly) {
  const Bytes payload = EncodeQueryRequest(SampleQuery(), SampleAdverts());
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    auto decoded = DecodeQueryRequest(cut);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireQuery, OversizedAdvertCountRejectedWithoutAllocation) {
  // A count claiming 2^32-1 adverts in 0 bytes of remaining data must be
  // rejected by CanHold before any reserve.
  Bytes payload = EncodeQueryRequest(SampleQuery());
  for (size_t i = payload.size() - 4; i < payload.size(); ++i) {
    payload[i] = 0xff;
  }
  EXPECT_EQ(DecodeQueryRequest(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(WireQuery, TruncationAtEveryByteFailsCleanly) {
  const Bytes payload = EncodeQueryRequest(SampleQuery());
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    auto decoded = DecodeQueryRequest(cut);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireQuery, BitFlipsNeverCrash) {
  const Bytes payload = EncodeQueryRequest(SampleQuery());
  // Flip every bit of every byte: decode must either succeed (the flip
  // hit a don't-care or produced a different valid query) or fail with a
  // clean status. Either way: no crash, no over-allocation.
  for (size_t i = 0; i < payload.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = payload;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      auto decoded = DecodeQueryRequest(mutated);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(WireQuery, OversizedCountsRejectedWithoutAllocation) {
  // A hand-built payload claiming 2^32-1 steps in 8 bytes of data.
  Bytes payload = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0};
  auto decoded = DecodeQueryRequest(payload);
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(WireQuery, TrailingBytesRejected) {
  Bytes payload = EncodeQueryRequest(SampleQuery());
  payload.push_back(0x00);
  EXPECT_EQ(DecodeQueryRequest(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(WireQueryResponse, RoundTrip) {
  const ServerResponse response = SampleResponse();
  auto decoded = DecodeQueryResponse(EncodeQueryResponse(response, 123.5));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectResponseEq(response, decoded->response);
  EXPECT_DOUBLE_EQ(decoded->server_process_us, 123.5);
}

TEST(WireQueryResponse, TruncationAtEveryByteFailsCleanly) {
  const Bytes payload = EncodeQueryResponse(SampleResponse(), 1.0);
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    auto decoded = DecodeQueryResponse(cut);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
  }
}

TEST(WireAggregate, RequestRoundTrip) {
  const TranslatedQuery query = SampleQuery();
  auto decoded = DecodeAggregateRequest(
      EncodeAggregateRequest(query, AggregateKind::kSum, "TY0POA"));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectQueryEq(query, decoded->query);
  EXPECT_EQ(decoded->kind, AggregateKind::kSum);
  EXPECT_EQ(decoded->index_token, "TY0POA");
  EXPECT_TRUE(decoded->cached.empty());
}

TEST(WireAggregate, RequestAdvertsRoundTrip) {
  const std::vector<BlockAdvert> adverts = SampleAdverts();
  auto decoded = DecodeAggregateRequest(EncodeAggregateRequest(
      SampleQuery(), AggregateKind::kCount, "", adverts));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectAdvertsEq(adverts, decoded->cached);
}

TEST(WireAggregate, RequestRejectsBadKind) {
  Bytes payload =
      EncodeAggregateRequest(TranslatedQuery{}, AggregateKind::kMin, "");
  // The kind byte sits right after the (empty) step list.
  payload[4] = 17;
  EXPECT_EQ(DecodeAggregateRequest(payload).status().code(),
            StatusCode::kCorruption);
}

TEST(WireAggregate, ResponseRoundTrip) {
  AggregateResponse response;
  response.kind = AggregateKind::kMax;
  response.computed_on_server = true;
  response.server_value = "41.5";
  response.payload = SampleResponse();
  auto decoded = DecodeAggregateResponse(EncodeAggregateResponse(response, 7));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->response.kind, AggregateKind::kMax);
  EXPECT_TRUE(decoded->response.computed_on_server);
  EXPECT_EQ(decoded->response.server_value, "41.5");
  ExpectResponseEq(response.payload, decoded->response.payload);
  EXPECT_DOUBLE_EQ(decoded->server_process_us, 7.0);
}

TEST(WireAggregate, ResponseTruncationFailsCleanly) {
  AggregateResponse response;
  response.kind = AggregateKind::kCount;
  response.payload = SampleResponse();
  const Bytes payload = EncodeAggregateResponse(response, 0.0);
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(DecodeAggregateResponse(cut).ok());
  }
}

TEST(WireStats, RoundTrip) {
  NetStats stats;
  stats.queries_served = 101;
  stats.aggregates_served = 17;
  stats.naive_served = 3;
  stats.errors = 2;
  stats.connections_total = 12;
  stats.connections_active = 5;
  stats.bytes_received = 1 << 20;
  stats.bytes_sent = 1 << 22;
  stats.num_blocks = 998;
  stats.ciphertext_bytes = 1234567;
  stats.database = "tenant";
  stats.db_generation = 42;  // owners sync on attach
  stats.updates_applied = 7;
  auto decoded = DecodeStats(EncodeStats(stats));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->queries_served, 101u);
  EXPECT_EQ(decoded->aggregates_served, 17u);
  EXPECT_EQ(decoded->naive_served, 3u);
  EXPECT_EQ(decoded->errors, 2u);
  EXPECT_EQ(decoded->connections_total, 12u);
  EXPECT_EQ(decoded->connections_active, 5u);
  EXPECT_EQ(decoded->bytes_received, 1u << 20);
  EXPECT_EQ(decoded->bytes_sent, 1u << 22);
  EXPECT_EQ(decoded->num_blocks, 998u);
  EXPECT_EQ(decoded->ciphertext_bytes, 1234567u);
  EXPECT_EQ(decoded->database, "tenant");
  EXPECT_EQ(decoded->db_generation, 42u);
  EXPECT_EQ(decoded->updates_applied, 7u);
}

TEST(WireStats, TruncationFailsCleanly) {
  const Bytes payload = EncodeStats(NetStats{});
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(DecodeStats(cut).ok());
  }
}

TEST(WireError, RoundTripsEveryCode) {
  const Status statuses[] = {
      Status::InvalidArgument("bad arg"), Status::NotFound("missing"),
      Status::ParseError("syntax"),       Status::Corruption("bits"),
      Status::Unsupported("version"),     Status::Internal("bug"),
      Status::Unavailable("later"),
  };
  for (const Status& s : statuses) {
    const Status decoded = DecodeError(EncodeError(s));
    EXPECT_EQ(decoded.code(), s.code());
    EXPECT_EQ(decoded.message(), s.message());
  }
}

TEST(WireError, RejectsOkAndUnknownCodes) {
  EXPECT_EQ(DecodeError(EncodeError(Status::Ok())).code(),
            StatusCode::kCorruption);
  Bytes payload = EncodeError(Status::Internal("x"));
  payload[0] = 250;
  EXPECT_EQ(DecodeError(payload).code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeError(Bytes{}).code(), StatusCode::kCorruption);
}

// Appends the (empty) advert list and database name a top-level query
// request carries after its steps.
Bytes WithEmptyAdverts(Bytes payload) {
  BinaryWriter w(&payload);
  w.U32(0);      // no cached-block adverts
  w.Str("");     // default database
  return payload;
}

// One step whose single predicate's relative path holds the next level.
Bytes EncodeNestedSteps(int depth) {
  Bytes out;
  BinaryWriter w(&out);
  if (depth == 0) {
    w.U32(0);  // empty step list terminates the chain
    return out;
  }
  w.U32(1);  // one step
  w.U8(0);   // axis: child
  w.U8(0);   // not a wildcard
  w.U32(0);  // no tokens
  w.U32(1);  // one predicate
  w.U8(0);   // kind: kExists
  const Bytes inner = EncodeNestedSteps(depth - 1);
  out.insert(out.end(), inner.begin(), inner.end());
  BinaryWriter tail(&out);
  tail.U8(0);   // op
  tail.U32(0);  // literal ""
  tail.U32(0);  // index_token ""
  tail.U64(0);  // range.lo
  tail.U64(0);  // range.hi
  tail.U8(0);   // range.empty
  return out;
}

TEST(WireQuery, DeepNestingRejected) {
  // A predicate chain nested beyond the decoder's depth bound, encoded
  // by hand (the translator never produces this). Must be rejected, not
  // recursed into unboundedly.
  auto decoded = DecodeQueryRequest(WithEmptyAdverts(EncodeNestedSteps(80)));
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(WireQuery, ReasonableNestingAccepted) {
  auto decoded = DecodeQueryRequest(WithEmptyAdverts(EncodeNestedSteps(10)));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
}

std::vector<obs::PhaseTiming> SamplePhases() {
  return {{"index-lookup", 12.5}, {"structural-join", 80.25},
          {"predicate-batch", 7.0}, {"assemble", 3.0}};
}

obs::HistogramSnapshot SampleHistogram() {
  obs::HistogramSnapshot hist;
  hist.count = 5;
  hist.sum_us = 1234;
  hist.buckets[0] = 1;
  hist.buckets[7] = 3;
  hist.buckets[11] = 1;
  return hist;
}

TEST(WireQueryResponse, PhasesRoundTrip) {
  const std::vector<obs::PhaseTiming> phases = SamplePhases();
  auto decoded = DecodeQueryResponse(
      EncodeQueryResponse(SampleResponse(), 123.5, phases));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->server_phases.size(), phases.size());
  for (size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(decoded->server_phases[i].name, phases[i].name);
    EXPECT_DOUBLE_EQ(decoded->server_phases[i].elapsed_us,
                     phases[i].elapsed_us);
  }
}

TEST(WireQueryResponse, PhasesTruncationAtEveryByteFailsCleanly) {
  const Bytes payload =
      EncodeQueryResponse(SampleResponse(), 1.0, SamplePhases());
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(DecodeQueryResponse(cut).ok())
        << "prefix of " << len << " bytes";
  }
}

TEST(WireAggregate, ResponsePhasesRoundTrip) {
  AggregateResponse response;
  response.kind = AggregateKind::kMin;
  response.payload = SampleResponse();
  const std::vector<obs::PhaseTiming> phases = SamplePhases();
  auto decoded = DecodeAggregateResponse(
      EncodeAggregateResponse(response, 9.0, phases));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->server_phases.size(), phases.size());
  for (size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(decoded->server_phases[i].name, phases[i].name);
    EXPECT_DOUBLE_EQ(decoded->server_phases[i].elapsed_us,
                     phases[i].elapsed_us);
  }
}

NetStats StatsWithHistograms() {
  NetStats stats;
  stats.queries_served = 42;
  stats.latency.emplace_back("query_us", SampleHistogram());
  obs::HistogramSnapshot empty;
  stats.latency.emplace_back("ping_us", empty);
  return stats;
}

TEST(WireStats, HistogramsRoundTrip) {
  const NetStats stats = StatsWithHistograms();
  auto decoded = DecodeStats(EncodeStats(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->latency.size(), 2u);
  EXPECT_EQ(decoded->latency[0].first, "query_us");
  const obs::HistogramSnapshot& hist = decoded->latency[0].second;
  EXPECT_EQ(hist.count, 5u);
  EXPECT_EQ(hist.sum_us, 1234u);
  // Buckets survive the trailing-zero elision on the wire verbatim.
  EXPECT_EQ(hist.buckets, SampleHistogram().buckets);
  EXPECT_EQ(decoded->latency[1].first, "ping_us");
  EXPECT_EQ(decoded->latency[1].second.count, 0u);
}

TEST(WireStats, HistogramTruncationAtEveryByteFailsCleanly) {
  const Bytes payload = EncodeStats(StatsWithHistograms());
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    auto decoded = DecodeStats(cut);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireStats, HistogramBitFlipsNeverCrash) {
  const Bytes payload = EncodeStats(StatsWithHistograms());
  for (size_t i = 0; i < payload.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = payload;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      auto decoded = DecodeStats(mutated);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(WireStats, OversizedBucketCountRejectedWithoutAllocation) {
  NetStats stats;
  stats.latency.emplace_back("h", SampleHistogram());
  Bytes payload = EncodeStats(stats);
  // Layout: ten u64 counters, u32 histogram count, str name, u64 count,
  // u64 sum — then the u32 bucket count we corrupt.
  const size_t nbuckets_at = 10 * 8 + 4 + (4 + 1) + 8 + 8;
  ASSERT_LT(nbuckets_at + 4, payload.size());
  payload[nbuckets_at] = 0xff;
  payload[nbuckets_at + 1] = 0xff;
  payload[nbuckets_at + 2] = 0xff;
  payload[nbuckets_at + 3] = 0xff;
  EXPECT_EQ(DecodeStats(payload).status().code(), StatusCode::kCorruption);
}

TEST(WireStats, OversizedHistogramCountRejectedWithoutAllocation) {
  Bytes payload = EncodeStats(NetStats{});
  const size_t count_at = 10 * 8;
  for (int i = 0; i < 4; ++i) payload[count_at + i] = 0xff;
  EXPECT_EQ(DecodeStats(payload).status().code(), StatusCode::kCorruption);
}

// --- multi-tenant routing + retry hints --------------------------------

TEST(WireV4, QueryRequestDbRoundTrip) {
  const Bytes payload = EncodeQueryRequest(SampleQuery(), {}, "tenant-a");
  auto decoded = DecodeQueryRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->db, "tenant-a");
}

TEST(WireV4, QueryRequestDbTruncationFailsCleanly) {
  const Bytes payload = EncodeQueryRequest(SampleQuery(), {}, "tenant-a");
  // Cut anywhere inside the db tail: clean Corruption, never a crash.
  for (size_t cut = payload.size() - 9; cut < payload.size(); ++cut) {
    Bytes truncated(payload.begin(), payload.begin() + cut);
    auto decoded = DecodeQueryRequest(truncated);
    ASSERT_FALSE(decoded.ok()) << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << cut;
  }
}

TEST(WireV4, AggregateRequestDbRoundTrip) {
  const Bytes payload = EncodeAggregateRequest(
      SampleQuery(), AggregateKind::kSum, "IDX42", {}, "tenant-b");
  auto decoded = DecodeAggregateRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->db, "tenant-b");
  EXPECT_EQ(decoded->kind, AggregateKind::kSum);
}

TEST(WireV4, NaiveAndStatsRequestsRoundTrip) {
  auto naive = DecodeNaiveRequest(EncodeNaiveRequest("db-n"));
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->db, "db-n");

  auto stats = DecodeStatsRequest(EncodeStatsRequest("db-s"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->db, "db-s");

  // The db name is the whole payload: an empty one is still a name
  // field, and a payload without it is truncated.
  EXPECT_FALSE(DecodeNaiveRequest(Bytes()).ok());
  EXPECT_FALSE(DecodeStatsRequest(Bytes()).ok());
}

TEST(WireV4, FuzzedDbNamesDecodeSafely) {
  // Arbitrary bytes in the name (control chars, path separators, high
  // bits) round-trip as data; interpretation is the catalog's problem.
  const std::string fuzzed[] = {
      std::string("../../etc/passwd"),
      std::string("a\x01\x7f\xff b"),
      std::string(300, 'x'),
      std::string("name with spaces / and : punct"),
  };
  for (const std::string& name : fuzzed) {
    auto decoded = DecodeQueryRequest(EncodeQueryRequest({}, {}, name));
    ASSERT_TRUE(decoded.ok()) << name;
    EXPECT_EQ(decoded->db, name);
  }
}

TEST(WireV4, ErrorRetryHintRoundTrips) {
  const Status shed = Status::Unavailable("over capacity");
  double hint = 0.0;
  Status decoded = DecodeError(EncodeError(shed, 75.5), &hint);
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(hint, 75.5);

  // No suggestion decodes as zero.
  hint = -1.0;
  decoded = DecodeError(EncodeError(shed), &hint);
  EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(hint, 0.0);

  // Callers that don't care may pass no out-param.
  EXPECT_EQ(DecodeError(EncodeError(shed, 75.5)).code(),
            StatusCode::kUnavailable);
}

TEST(WireV4, HostileRetryHintsAreSanitized) {
  // A hostile daemon must not be able to park a client forever (or feed
  // it NaN): negative and non-finite hints decode as "no hint".
  const Status shed = Status::Unavailable("x");
  for (double evil : {-1.0, -1e300, std::nan(""),
                      -std::numeric_limits<double>::infinity()}) {
    Bytes payload = EncodeError(shed, 0.0);
    // Overwrite the trailing f64 hint with the hostile bit pattern.
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(evil));
    std::memcpy(&bits, &evil, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      payload[payload.size() - 8 + i] =
          static_cast<uint8_t>(bits >> (8 * i));
    }
    double hint = 123.0;
    Status decoded = DecodeError(payload, &hint);
    EXPECT_EQ(decoded.code(), StatusCode::kUnavailable);
    EXPECT_DOUBLE_EQ(hint, 0.0) << evil;
  }
}

TEST(WireV4, StatsResponseCarriesShedQueueAndDbName) {
  NetStats stats;
  stats.queries_served = 9;
  stats.queries_shed = 4;
  stats.queue_depth = 2;
  stats.database = "alpha";
  auto decoded = DecodeStats(EncodeStats(stats));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->queries_shed, 4u);
  EXPECT_EQ(decoded->queue_depth, 2u);
  EXPECT_EQ(decoded->database, "alpha");
}

// --- update push + invalidation events ---------------------------------

TEST(WireV5, InvalidationEventRoundTrip) {
  InvalidationEventMsg event;
  event.db = "tenant-a";
  event.db_generation = 17;
  event.blocks = SampleAdverts();
  auto decoded = DecodeInvalidationEvent(EncodeInvalidationEvent(event));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->db, "tenant-a");
  EXPECT_EQ(decoded->db_generation, 17u);
  EXPECT_FALSE(decoded->drop_all);
  ExpectAdvertsEq(event.blocks, decoded->blocks);

  InvalidationEventMsg drop;
  drop.drop_all = true;
  auto decoded_drop = DecodeInvalidationEvent(EncodeInvalidationEvent(drop));
  ASSERT_TRUE(decoded_drop.ok());
  EXPECT_TRUE(decoded_drop->drop_all);
  EXPECT_TRUE(decoded_drop->blocks.empty());
}

TEST(WireV5, InvalidationEventTruncationAtEveryByteFailsCleanly) {
  InvalidationEventMsg event;
  event.db = "db";
  event.db_generation = 3;
  event.blocks = SampleAdverts();
  const Bytes payload = EncodeInvalidationEvent(event);
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    auto decoded = DecodeInvalidationEvent(cut);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireV5, InvalidationEventBitFlipsNeverCrash) {
  InvalidationEventMsg event;
  event.db = "db";
  event.blocks = SampleAdverts();
  const Bytes payload = EncodeInvalidationEvent(event);
  for (size_t i = 0; i < payload.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = payload;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      auto decoded = DecodeInvalidationEvent(mutated);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST(WireV5, UpdateRequestAndResponseRoundTrip) {
  UpdateRequestMsg request;
  request.db = "tenant-c";
  request.delta = {0x01, 0x02, 0x00, 0xff};
  auto decoded = DecodeUpdateRequest(EncodeUpdateRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->db, "tenant-c");
  EXPECT_EQ(decoded->delta, request.delta);

  auto response = DecodeUpdateResponse(EncodeUpdateResponse({42}));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->generation, 42u);
}

TEST(WireV5, UpdateRequestTruncationAtEveryByteFailsCleanly) {
  UpdateRequestMsg request;
  request.db = "d";
  request.delta = {1, 2, 3, 4, 5, 6};
  const Bytes payload = EncodeUpdateRequest(request);
  for (size_t len = 0; len < payload.size(); ++len) {
    const Bytes cut(payload.begin(), payload.begin() + len);
    auto decoded = DecodeUpdateRequest(cut);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireV5, UpdateAndInvalidationTypesDecodeOnlyAtCurrentVersion) {
  // The update/invalidation types decode at the current version; the same
  // frame under a v3/v4 version byte is refused on that byte alone.
  for (MessageType type : {MessageType::kInvalidationEvent,
                           MessageType::kUpdateRequest,
                           MessageType::kUpdateResponse}) {
    auto current = DecodeFrame(EncodeFrame(type, {}), kDefaultMaxFrameBytes);
    ASSERT_TRUE(current.ok()) << MessageTypeName(type);
    EXPECT_EQ(current->type, type);
    for (uint8_t old : {uint8_t{3}, uint8_t{4}}) {
      Bytes image = EncodeFrame(type, {});
      image[4] = old;
      EXPECT_EQ(DecodeFrame(image, kDefaultMaxFrameBytes).status().code(),
                StatusCode::kUnsupported)
          << MessageTypeName(type) << " at v" << int(old);
    }
  }
}

// --- frame ids + scatter-gather framing --------------------------------

TEST(WireV6, FrameIdRoundTrips) {
  const uint64_t id = 0xfeedbeefcafe1234ull;
  auto decoded = DecodeFrame(
      EncodeFrame(MessageType::kQueryRequest, {1, 2, 3}, id),
      kDefaultMaxFrameBytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->frame_id, id);
  EXPECT_EQ(decoded->payload, Bytes({1, 2, 3}));

  // Unsolicited frames use id 0; it round-trips like any other value.
  auto zero = DecodeFrame(EncodeFrame(MessageType::kPingResponse, {}),
                          kDefaultMaxFrameBytes);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->frame_id, 0u);
}

TEST(WireV6, TruncationInsideFrameIdFailsCleanly) {
  const Bytes image = EncodeFrame(MessageType::kPingRequest, {}, 99);
  ASSERT_EQ(image.size(), kFrameHeaderBytes);
  for (size_t len = kFramePrefixBytes; len < image.size(); ++len) {
    const Bytes cut(image.begin(), image.begin() + len);
    auto decoded = DecodeFrame(cut, kDefaultMaxFrameBytes);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireV6, FramePartsFlattenToEncodeFrameBytes) {
  const std::vector<Bytes> segments = {
      {0xaa, 0xbb}, {}, {0xcc}, Bytes(2000, 0x5e)};
  Bytes contiguous;
  for (const Bytes& seg : segments) {
    contiguous.insert(contiguous.end(), seg.begin(), seg.end());
  }

  const FrameParts parts =
      EncodeFrameParts(MessageType::kQueryResponse, segments, 42);
  const Bytes reference =
      EncodeFrame(MessageType::kQueryResponse, contiguous, 42);

  Bytes flattened;
  for (const Bytes& part : parts) {
    flattened.insert(flattened.end(), part.begin(), part.end());
  }
  EXPECT_EQ(flattened, reference);
  EXPECT_EQ(FramePartsBytes(parts), reference.size());
}

TEST(WireV6, QueryResponsePartsConcatenateToContiguousEncoding) {
  // A ciphertext above the detach threshold must not change the bytes on
  // the wire — only how they are segmented for writev.
  ServerResponse response = SampleResponse();
  EncryptedBlock big;
  big.id = 9;
  big.generation = 2;
  big.ciphertext = Bytes(4096, 0xd6);
  response.blocks.push_back(big);
  const std::vector<obs::PhaseTiming> phases = SamplePhases();

  const Bytes reference = EncodeQueryResponse(response, 12.5, phases);
  ServerResponse moved = response;
  const std::vector<Bytes> parts =
      EncodeQueryResponseParts(std::move(moved), 12.5, phases);
  EXPECT_GT(parts.size(), 1u);

  Bytes flattened;
  for (const Bytes& part : parts) {
    flattened.insert(flattened.end(), part.begin(), part.end());
  }
  EXPECT_EQ(flattened, reference);
}

TEST(WireV6, AggregateResponsePartsConcatenateToContiguousEncoding) {
  AggregateResponse response;
  response.kind = AggregateKind::kSum;
  response.payload = SampleResponse();
  EncryptedBlock big;
  big.id = 11;
  big.ciphertext = Bytes(2048, 0x17);
  response.payload.blocks.push_back(big);

  const Bytes reference = EncodeAggregateResponse(response, 3.0);
  AggregateResponse moved = response;
  const std::vector<Bytes> parts =
      EncodeAggregateResponseParts(std::move(moved), 3.0);

  Bytes flattened;
  for (const Bytes& part : parts) {
    flattened.insert(flattened.end(), part.begin(), part.end());
  }
  EXPECT_EQ(flattened, reference);
}

}  // namespace
}  // namespace net
}  // namespace xcrypt
