#include "net/wire.h"

#include <algorithm>

#include "common/binary_io.h"
#include "privacy/padding.h"

namespace xcrypt {
namespace net {

namespace {

/// Translated queries nest (a predicate's relative path carries its own
/// predicates). Genuine queries are a handful of levels deep; a frame
/// claiming more is hostile or corrupted, and the bound keeps the
/// recursive decoder's stack usage trivially small.
constexpr int kMaxPredicateDepth = 64;

// Minimum encoded sizes, used to sanity-check element counts against the
// bytes actually remaining before reserving anything.
constexpr uint64_t kMinStepBytes = 1 + 1 + 4 + 4;  // axis, wildcard, counts
constexpr uint64_t kMinPredicateBytes = 1 + 4 + 1 + 4 + 4 + 8 + 8 + 1;
constexpr uint64_t kMinBlockBytes = 4 + 4 + 4;   // id, generation, ct length
constexpr uint64_t kMinAdvertBytes = 4 + 4;      // id + generation
constexpr uint64_t kMinPhaseBytes = 4 + 8;       // name length + f64
constexpr uint64_t kMinHistogramBytes = 4 + 8 + 8 + 4;  // name, count, sum, n

void WriteSteps(BinaryWriter& w, const std::vector<TranslatedStep>& steps);

void WritePredicate(BinaryWriter& w, const TranslatedPredicate& pred) {
  w.U8(static_cast<uint8_t>(pred.kind));
  WriteSteps(w, pred.path);
  w.U8(static_cast<uint8_t>(pred.op));
  w.Str(pred.literal);
  w.Str(pred.index_token);
  w.I64(pred.range.lo);
  w.I64(pred.range.hi);
  w.U8(pred.range.empty ? 1 : 0);
}

void WriteSteps(BinaryWriter& w, const std::vector<TranslatedStep>& steps) {
  w.U32(static_cast<uint32_t>(steps.size()));
  for (const TranslatedStep& step : steps) {
    w.U8(static_cast<uint8_t>(step.axis));
    w.U8(step.wildcard ? 1 : 0);
    w.U32(static_cast<uint32_t>(step.tokens.size()));
    for (const std::string& token : step.tokens) w.Str(token);
    w.U32(static_cast<uint32_t>(step.predicates.size()));
    for (const TranslatedPredicate& pred : step.predicates) {
      WritePredicate(w, pred);
    }
  }
}

Status ReadSteps(BinaryReader& r, std::vector<TranslatedStep>* out, int depth);

Status ReadPredicate(BinaryReader& r, TranslatedPredicate* pred, int depth) {
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(TranslatedPredicate::Kind::kIndexRange)) {
    return Status::Corruption("bad predicate kind");
  }
  pred->kind = static_cast<TranslatedPredicate::Kind>(kind);
  XCRYPT_RETURN_NOT_OK(ReadSteps(r, &pred->path, depth + 1));
  const uint8_t op = r.U8();
  if (op > static_cast<uint8_t>(CompOp::kGe)) {
    return Status::Corruption("bad comparison operator");
  }
  pred->op = static_cast<CompOp>(op);
  pred->literal = r.Str();
  pred->index_token = r.Str();
  pred->range.lo = r.I64();
  pred->range.hi = r.I64();
  pred->range.empty = r.U8() != 0;
  if (r.failed()) return Status::Corruption("truncated predicate");
  return Status::Ok();
}

Status ReadSteps(BinaryReader& r, std::vector<TranslatedStep>* out,
                 int depth) {
  if (depth > kMaxPredicateDepth) {
    return Status::Corruption("predicate nesting too deep");
  }
  const uint32_t num_steps = r.U32();
  if (!r.CanHold(num_steps, kMinStepBytes)) {
    return Status::Corruption("bad step count");
  }
  out->reserve(num_steps);
  for (uint32_t i = 0; i < num_steps; ++i) {
    TranslatedStep step;
    const uint8_t axis = r.U8();
    if (axis > static_cast<uint8_t>(Axis::kDescendant)) {
      return Status::Corruption("bad axis");
    }
    step.axis = static_cast<Axis>(axis);
    step.wildcard = r.U8() != 0;
    const uint32_t num_tokens = r.U32();
    if (!r.CanHold(num_tokens, 4)) {
      return Status::Corruption("bad token count");
    }
    step.tokens.reserve(num_tokens);
    for (uint32_t j = 0; j < num_tokens; ++j) step.tokens.push_back(r.Str());
    const uint32_t num_preds = r.U32();
    if (!r.CanHold(num_preds, kMinPredicateBytes)) {
      return Status::Corruption("bad predicate count");
    }
    step.predicates.reserve(num_preds);
    for (uint32_t j = 0; j < num_preds; ++j) {
      TranslatedPredicate pred;
      XCRYPT_RETURN_NOT_OK(ReadPredicate(r, &pred, depth));
      step.predicates.push_back(std::move(pred));
    }
    if (r.failed()) return Status::Corruption("truncated step");
    out->push_back(std::move(step));
  }
  return Status::Ok();
}

/// Ciphertexts at or above this size are detached into their own writev
/// segment when encoding response parts; smaller ones are cheaper to copy
/// into the glue buffer than to scatter (one iovec entry each).
constexpr size_t kDetachCiphertextBytes = 1024;

/// Accumulates scatter-gather payload segments: small fields append to a
/// glue buffer; Detach() seals the glue and adopts a large buffer (a block
/// ciphertext) as its own segment without copying it.
class PartsWriter {
 public:
  explicit PartsWriter(std::vector<Bytes>* parts)
      : parts_(parts), writer_(&glue_) {}

  BinaryWriter& writer() { return writer_; }

  void Detach(Bytes&& segment) {
    Flush();
    parts_->push_back(std::move(segment));
  }

  void Flush() {
    if (!glue_.empty()) {
      parts_->push_back(std::move(glue_));
      glue_.clear();  // moved-from; reset so the writer keeps appending
    }
  }

 private:
  std::vector<Bytes>* parts_;
  Bytes glue_;
  BinaryWriter writer_;
};

void WriteServerResponse(BinaryWriter& w, const ServerResponse& response) {
  w.Str(response.skeleton_xml);
  w.U32(static_cast<uint32_t>(response.blocks.size()));
  for (const EncryptedBlock& block : response.blocks) {
    w.I32(block.id);
    w.U32(block.generation);
    w.Blob(block.ciphertext);
    // plaintext_bytes is client-only knowledge and never crosses the wire.
  }
  w.U32(static_cast<uint32_t>(response.cached_ids.size()));
  for (int id : response.cached_ids) w.I32(id);
  w.U8(response.requires_full_requery ? 1 : 0);
}

/// Segment-producing twin of WriteServerResponse: byte-identical when the
/// segments are concatenated, but large ciphertexts are moved out of
/// `response` into their own segments (the u32 length prefix stays in the
/// preceding glue).
void WriteServerResponseParts(PartsWriter& pw, ServerResponse&& response) {
  BinaryWriter& w = pw.writer();
  w.Str(response.skeleton_xml);
  w.U32(static_cast<uint32_t>(response.blocks.size()));
  for (EncryptedBlock& block : response.blocks) {
    w.I32(block.id);
    w.U32(block.generation);
    if (block.ciphertext.size() >= kDetachCiphertextBytes) {
      w.U32(static_cast<uint32_t>(block.ciphertext.size()));
      pw.Detach(std::move(block.ciphertext));
    } else {
      w.Blob(block.ciphertext);
    }
  }
  w.U32(static_cast<uint32_t>(response.cached_ids.size()));
  for (int id : response.cached_ids) w.I32(id);
  w.U8(response.requires_full_requery ? 1 : 0);
}

Status ReadServerResponse(BinaryReader& r, ServerResponse* out) {
  out->skeleton_xml = r.Str();
  const uint32_t num_blocks = r.U32();
  if (!r.CanHold(num_blocks, kMinBlockBytes)) {
    return Status::Corruption("bad block count");
  }
  out->blocks.reserve(num_blocks);
  for (uint32_t i = 0; i < num_blocks; ++i) {
    EncryptedBlock block;
    block.id = r.I32();
    block.generation = r.U32();
    block.ciphertext = r.Blob();
    if (r.failed()) return Status::Corruption("truncated block");
    out->blocks.push_back(std::move(block));
  }
  const uint32_t num_cached = r.U32();
  if (!r.CanHold(num_cached, 4)) {
    return Status::Corruption("bad cached-id count");
  }
  out->cached_ids.reserve(num_cached);
  for (uint32_t i = 0; i < num_cached; ++i) out->cached_ids.push_back(r.I32());
  out->requires_full_requery = r.U8() != 0;
  if (r.failed()) return Status::Corruption("truncated server response");
  return Status::Ok();
}

void WriteAdverts(BinaryWriter& w, const std::vector<BlockAdvert>& adverts) {
  w.U32(static_cast<uint32_t>(adverts.size()));
  for (const BlockAdvert& advert : adverts) {
    w.I32(advert.id);
    w.U32(advert.generation);
  }
}

Status ReadAdverts(BinaryReader& r, std::vector<BlockAdvert>* out) {
  const uint32_t num_adverts = r.U32();
  if (!r.CanHold(num_adverts, kMinAdvertBytes)) {
    return Status::Corruption("bad advert count");
  }
  out->reserve(num_adverts);
  for (uint32_t i = 0; i < num_adverts; ++i) {
    BlockAdvert advert;
    advert.id = r.I32();
    advert.generation = r.U32();
    if (r.failed()) return Status::Corruption("truncated advert");
    out->push_back(advert);
  }
  return Status::Ok();
}

void WritePhases(BinaryWriter& w,
                 const std::vector<obs::PhaseTiming>& phases) {
  w.U32(static_cast<uint32_t>(phases.size()));
  for (const obs::PhaseTiming& phase : phases) {
    w.Str(phase.name);
    w.F64(phase.elapsed_us);
  }
}

Status ReadPhases(BinaryReader& r, std::vector<obs::PhaseTiming>* out) {
  const uint32_t num_phases = r.U32();
  if (!r.CanHold(num_phases, kMinPhaseBytes)) {
    return Status::Corruption("bad phase count");
  }
  out->reserve(num_phases);
  for (uint32_t i = 0; i < num_phases; ++i) {
    obs::PhaseTiming phase;
    phase.name = r.Str();
    phase.elapsed_us = r.F64();
    if (r.failed()) return Status::Corruption("truncated phase timing");
    out->push_back(std::move(phase));
  }
  return Status::Ok();
}

void WriteHistograms(
    BinaryWriter& w,
    const std::vector<std::pair<std::string, obs::HistogramSnapshot>>& hists) {
  w.U32(static_cast<uint32_t>(hists.size()));
  for (const auto& [name, hist] : hists) {
    w.Str(name);
    w.U64(hist.count);
    w.U64(hist.sum_us);
    // Trailing all-zero buckets are elided: most latency distributions
    // occupy a handful of low buckets.
    int last = obs::HistogramSnapshot::kNumBuckets - 1;
    while (last >= 0 && hist.buckets[last] == 0) --last;
    w.U32(static_cast<uint32_t>(last + 1));
    for (int i = 0; i <= last; ++i) w.U64(hist.buckets[i]);
  }
}

Status ReadHistograms(
    BinaryReader& r,
    std::vector<std::pair<std::string, obs::HistogramSnapshot>>* out) {
  const uint32_t num_hists = r.U32();
  if (!r.CanHold(num_hists, kMinHistogramBytes)) {
    return Status::Corruption("bad histogram count");
  }
  out->reserve(num_hists);
  for (uint32_t i = 0; i < num_hists; ++i) {
    std::string name = r.Str();
    obs::HistogramSnapshot hist;
    hist.count = r.U64();
    hist.sum_us = r.U64();
    const uint32_t num_buckets = r.U32();
    if (num_buckets > obs::HistogramSnapshot::kNumBuckets) {
      return Status::Corruption("bad bucket count");
    }
    if (!r.CanHold(num_buckets, 8)) {
      return Status::Corruption("truncated histogram buckets");
    }
    for (uint32_t b = 0; b < num_buckets; ++b) hist.buckets[b] = r.U64();
    if (r.failed()) return Status::Corruption("truncated histogram");
    out->emplace_back(std::move(name), hist);
  }
  return Status::Ok();
}

Status CheckFullyConsumed(const BinaryReader& r, const char* what) {
  if (r.failed()) {
    return Status::Corruption(std::string("truncated ") + what);
  }
  if (!r.AtEnd()) {
    return Status::Corruption(std::string("trailing bytes in ") + what);
  }
  return Status::Ok();
}

void WriteFrameHeader(BinaryWriter& w, MessageType type, uint64_t payload_bytes,
                      uint64_t frame_id) {
  w.U32(kWireMagic);
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(type));
  w.U32(static_cast<uint32_t>(payload_bytes));
  w.U64(frame_id);
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kPingRequest:
      return "PingRequest";
    case MessageType::kPingResponse:
      return "PingResponse";
    case MessageType::kQueryRequest:
      return "QueryRequest";
    case MessageType::kQueryResponse:
      return "QueryResponse";
    case MessageType::kNaiveRequest:
      return "NaiveRequest";
    case MessageType::kAggregateRequest:
      return "AggregateRequest";
    case MessageType::kAggregateResponse:
      return "AggregateResponse";
    case MessageType::kStatsRequest:
      return "StatsRequest";
    case MessageType::kStatsResponse:
      return "StatsResponse";
    case MessageType::kError:
      return "Error";
    case MessageType::kInvalidationEvent:
      return "InvalidationEvent";
    case MessageType::kUpdateRequest:
      return "UpdateRequest";
    case MessageType::kUpdateResponse:
      return "UpdateResponse";
    case MessageType::kProbeBatchRequest:
      return "ProbeBatchRequest";
    case MessageType::kProbeBatchResponse:
      return "ProbeBatchResponse";
    case MessageType::kPirSetupRequest:
      return "PirSetupRequest";
    case MessageType::kPirSetupResponse:
      return "PirSetupResponse";
    case MessageType::kPirFetchRequest:
      return "PirFetchRequest";
    case MessageType::kPirFetchResponse:
      return "PirFetchResponse";
  }
  return "Unknown";
}

Bytes EncodeFrame(MessageType type, const Bytes& payload, uint64_t frame_id) {
  Bytes out;
  out.reserve(kFrameHeaderBytes + payload.size());
  BinaryWriter w(&out);
  WriteFrameHeader(w, type, payload.size(), frame_id);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<Frame> DecodeFrameHeader(const uint8_t* buf, uint64_t max_frame_bytes,
                                uint32_t* payload_length) {
  Bytes header(buf, buf + kFramePrefixBytes);
  BinaryReader r(header);
  if (r.U32() != kWireMagic) return Status::Corruption("bad frame magic");
  const uint8_t version = r.U8();
  if (version != kWireVersion) {
    return Status::Unsupported("wire version " + std::to_string(version) +
                               " (this endpoint speaks only " +
                               std::to_string(kWireVersion) + ")");
  }
  const uint8_t type = r.U8();
  if (type < static_cast<uint8_t>(MessageType::kPingRequest) ||
      type > static_cast<uint8_t>(MessageType::kPirFetchResponse)) {
    return Status::Corruption("bad message type " + std::to_string(type));
  }
  const uint32_t length = r.U32();
  if (length > max_frame_bytes) {
    return Status::Corruption("frame of " + std::to_string(length) +
                              " bytes exceeds limit of " +
                              std::to_string(max_frame_bytes));
  }
  Frame frame;
  frame.type = static_cast<MessageType>(type);
  *payload_length = length;
  return frame;
}

uint64_t DecodeFrameId(const uint8_t* buf) {
  uint64_t id = 0;
  for (size_t i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(buf[i]) << (8 * i);
  }
  return id;
}

Result<Frame> DecodeFrame(const Bytes& buf, uint64_t max_frame_bytes) {
  if (buf.size() < kFramePrefixBytes) {
    return Status::Corruption("truncated frame header");
  }
  uint32_t payload_length = 0;
  auto frame = DecodeFrameHeader(buf.data(), max_frame_bytes, &payload_length);
  if (!frame.ok()) return frame.status();
  if (buf.size() < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame id");
  }
  frame->frame_id = DecodeFrameId(buf.data() + kFramePrefixBytes);
  if (buf.size() - kFrameHeaderBytes != payload_length) {
    return Status::Corruption("frame length mismatch");
  }
  frame->payload.assign(buf.begin() + kFrameHeaderBytes, buf.end());
  return frame;
}

uint64_t FramePartsBytes(const FrameParts& parts) {
  uint64_t total = 0;
  for (const Bytes& part : parts) total += part.size();
  return total;
}

FrameParts EncodeFrameParts(MessageType type, std::vector<Bytes> payload,
                            uint64_t frame_id) {
  uint64_t payload_bytes = 0;
  for (const Bytes& part : payload) payload_bytes += part.size();
  Bytes header;
  header.reserve(kFrameHeaderBytes);
  BinaryWriter w(&header);
  WriteFrameHeader(w, type, payload_bytes, frame_id);
  FrameParts parts;
  parts.reserve(payload.size() + 1);
  parts.push_back(std::move(header));
  for (Bytes& part : payload) parts.push_back(std::move(part));
  return parts;
}

Bytes EncodeQueryRequest(const TranslatedQuery& query,
                         const std::vector<BlockAdvert>& cached,
                         const std::string& db) {
  Bytes out;
  BinaryWriter w(&out);
  WriteSteps(w, query.steps);
  WriteAdverts(w, cached);
  w.Str(db);
  return out;
}

Result<QueryRequestMsg> DecodeQueryRequest(const Bytes& payload) {
  BinaryReader r(payload);
  QueryRequestMsg msg;
  XCRYPT_RETURN_NOT_OK(ReadSteps(r, &msg.query.steps, 0));
  XCRYPT_RETURN_NOT_OK(ReadAdverts(r, &msg.cached));
  msg.db = r.Str();
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "query request"));
  return msg;
}

Bytes EncodeNaiveRequest(const std::string& db) {
  Bytes out;
  BinaryWriter w(&out);
  w.Str(db);
  return out;
}

Result<NaiveRequestMsg> DecodeNaiveRequest(const Bytes& payload) {
  BinaryReader r(payload);
  NaiveRequestMsg msg;
  msg.db = r.Str();
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "naive request"));
  return msg;
}

Bytes EncodeStatsRequest(const std::string& db) {
  Bytes out;
  BinaryWriter w(&out);
  w.Str(db);
  return out;
}

Result<StatsRequestMsg> DecodeStatsRequest(const Bytes& payload) {
  BinaryReader r(payload);
  StatsRequestMsg msg;
  msg.db = r.Str();
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "stats request"));
  return msg;
}

Bytes EncodeQueryResponse(const ServerResponse& response,
                          double server_process_us,
                          const std::vector<obs::PhaseTiming>& server_phases) {
  Bytes out;
  BinaryWriter w(&out);
  WriteServerResponse(w, response);
  w.F64(server_process_us);
  WritePhases(w, server_phases);
  return out;
}

std::vector<Bytes> EncodeQueryResponseParts(
    ServerResponse&& response, double server_process_us,
    const std::vector<obs::PhaseTiming>& server_phases) {
  std::vector<Bytes> parts;
  PartsWriter pw(&parts);
  WriteServerResponseParts(pw, std::move(response));
  pw.writer().F64(server_process_us);
  WritePhases(pw.writer(), server_phases);
  pw.Flush();
  return parts;
}

Result<QueryResponseMsg> DecodeQueryResponse(const Bytes& payload) {
  BinaryReader r(payload);
  QueryResponseMsg msg;
  XCRYPT_RETURN_NOT_OK(ReadServerResponse(r, &msg.response));
  msg.server_process_us = r.F64();
  XCRYPT_RETURN_NOT_OK(ReadPhases(r, &msg.server_phases));
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "query response"));
  return msg;
}

Bytes EncodeAggregateRequest(const TranslatedQuery& query, AggregateKind kind,
                             const std::string& index_token,
                             const std::vector<BlockAdvert>& cached,
                             const std::string& db) {
  Bytes out;
  BinaryWriter w(&out);
  WriteSteps(w, query.steps);
  w.U8(static_cast<uint8_t>(kind));
  w.Str(index_token);
  WriteAdverts(w, cached);
  w.Str(db);
  return out;
}

Result<AggregateRequestMsg> DecodeAggregateRequest(const Bytes& payload) {
  BinaryReader r(payload);
  AggregateRequestMsg msg;
  XCRYPT_RETURN_NOT_OK(ReadSteps(r, &msg.query.steps, 0));
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(AggregateKind::kSum)) {
    return Status::Corruption("bad aggregate kind");
  }
  msg.kind = static_cast<AggregateKind>(kind);
  msg.index_token = r.Str();
  XCRYPT_RETURN_NOT_OK(ReadAdverts(r, &msg.cached));
  msg.db = r.Str();
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "aggregate request"));
  return msg;
}

Bytes EncodeAggregateResponse(const AggregateResponse& response,
                              double server_process_us,
                              const std::vector<obs::PhaseTiming>&
                                  server_phases) {
  Bytes out;
  BinaryWriter w(&out);
  w.U8(static_cast<uint8_t>(response.kind));
  w.U8(response.computed_on_server ? 1 : 0);
  w.Str(response.server_value);
  WriteServerResponse(w, response.payload);
  w.F64(server_process_us);
  WritePhases(w, server_phases);
  return out;
}

std::vector<Bytes> EncodeAggregateResponseParts(
    AggregateResponse&& response, double server_process_us,
    const std::vector<obs::PhaseTiming>& server_phases) {
  std::vector<Bytes> parts;
  PartsWriter pw(&parts);
  BinaryWriter& w = pw.writer();
  w.U8(static_cast<uint8_t>(response.kind));
  w.U8(response.computed_on_server ? 1 : 0);
  w.Str(response.server_value);
  WriteServerResponseParts(pw, std::move(response.payload));
  pw.writer().F64(server_process_us);
  WritePhases(pw.writer(), server_phases);
  pw.Flush();
  return parts;
}

Result<AggregateResponseMsg> DecodeAggregateResponse(const Bytes& payload) {
  BinaryReader r(payload);
  AggregateResponseMsg msg;
  const uint8_t kind = r.U8();
  if (kind > static_cast<uint8_t>(AggregateKind::kSum)) {
    return Status::Corruption("bad aggregate kind");
  }
  msg.response.kind = static_cast<AggregateKind>(kind);
  msg.response.computed_on_server = r.U8() != 0;
  msg.response.server_value = r.Str();
  XCRYPT_RETURN_NOT_OK(ReadServerResponse(r, &msg.response.payload));
  msg.server_process_us = r.F64();
  XCRYPT_RETURN_NOT_OK(ReadPhases(r, &msg.server_phases));
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "aggregate response"));
  return msg;
}

Bytes EncodeStats(const NetStats& stats) {
  Bytes out;
  BinaryWriter w(&out);
  w.U64(stats.queries_served);
  w.U64(stats.aggregates_served);
  w.U64(stats.naive_served);
  w.U64(stats.errors);
  w.U64(stats.connections_total);
  w.U64(stats.connections_active);
  w.U64(stats.bytes_received);
  w.U64(stats.bytes_sent);
  w.U64(stats.num_blocks);
  w.U64(stats.ciphertext_bytes);
  WriteHistograms(w, stats.latency);
  w.U64(stats.queries_shed);
  w.U64(stats.queue_depth);
  w.Str(stats.database);
  w.U64(stats.db_generation);
  w.U64(stats.updates_applied);
  return out;
}

Result<NetStats> DecodeStats(const Bytes& payload) {
  BinaryReader r(payload);
  NetStats stats;
  stats.queries_served = r.U64();
  stats.aggregates_served = r.U64();
  stats.naive_served = r.U64();
  stats.errors = r.U64();
  stats.connections_total = r.U64();
  stats.connections_active = r.U64();
  stats.bytes_received = r.U64();
  stats.bytes_sent = r.U64();
  stats.num_blocks = r.U64();
  stats.ciphertext_bytes = r.U64();
  XCRYPT_RETURN_NOT_OK(ReadHistograms(r, &stats.latency));
  stats.queries_shed = r.U64();
  stats.queue_depth = r.U64();
  stats.database = r.Str();
  stats.db_generation = r.U64();
  stats.updates_applied = r.U64();
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "stats"));
  return stats;
}

Bytes EncodeInvalidationEvent(const InvalidationEventMsg& event) {
  Bytes out;
  BinaryWriter w(&out);
  w.Str(event.db);
  w.U64(event.db_generation);
  w.U8(event.drop_all ? 1 : 0);
  WriteAdverts(w, event.blocks);
  return out;
}

Result<InvalidationEventMsg> DecodeInvalidationEvent(const Bytes& payload) {
  BinaryReader r(payload);
  InvalidationEventMsg event;
  event.db = r.Str();
  event.db_generation = r.U64();
  event.drop_all = r.U8() != 0;
  XCRYPT_RETURN_NOT_OK(ReadAdverts(r, &event.blocks));
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "invalidation event"));
  return event;
}

Bytes EncodeUpdateRequest(const UpdateRequestMsg& msg) {
  Bytes out;
  BinaryWriter w(&out);
  w.Str(msg.db);
  w.Blob(msg.delta);
  return out;
}

Result<UpdateRequestMsg> DecodeUpdateRequest(const Bytes& payload) {
  BinaryReader r(payload);
  UpdateRequestMsg msg;
  msg.db = r.Str();
  msg.delta = r.Blob();
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "update request"));
  return msg;
}

Bytes EncodeUpdateResponse(const UpdateResponseMsg& msg) {
  Bytes out;
  BinaryWriter w(&out);
  w.U64(msg.generation);
  return out;
}

Result<UpdateResponseMsg> DecodeUpdateResponse(const Bytes& payload) {
  BinaryReader r(payload);
  UpdateResponseMsg msg;
  msg.generation = r.U64();
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "update response"));
  return msg;
}

Bytes EncodeTranslatedQuery(const TranslatedQuery& query) {
  Bytes out;
  BinaryWriter w(&out);
  WriteSteps(w, query.steps);
  return out;
}

Result<TranslatedQuery> DecodeTranslatedQuery(const Bytes& payload) {
  BinaryReader r(payload);
  TranslatedQuery query;
  XCRYPT_RETURN_NOT_OK(ReadSteps(r, &query.steps, 0));
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "translated query"));
  return query;
}

namespace {

/// Writes `entries` into equal fixed-size slots: u32 actual length, the
/// bytes, zero fill up to the batch's quantum-rounded maximum. Identical
/// slot sizes are the whole point — an observer cannot rank entries by
/// length.
void WritePaddedEntries(BinaryWriter& w, const std::vector<Bytes>& entries) {
  size_t max_bytes = 0;
  for (const Bytes& e : entries) max_bytes = std::max(max_bytes, e.size());
  const size_t slot = privacy::PadToQuantum(max_bytes);
  w.U32(static_cast<uint32_t>(entries.size()));
  w.U32(static_cast<uint32_t>(slot));
  for (const Bytes& e : entries) {
    w.U32(static_cast<uint32_t>(e.size()));
    // BinaryWriter has no raw append; reuse the writer's buffer directly.
    for (uint8_t b : e) w.U8(b);
    for (size_t i = e.size(); i < slot; ++i) w.U8(0);
  }
}

/// Reads the slot header + each entry's actual bytes (pad skipped).
/// `max_entries` guards the count, `min_entry_bytes` the slot claim.
Status ReadPaddedEntries(BinaryReader& r, uint32_t max_entries,
                         std::vector<Bytes>* out) {
  const uint32_t count = r.U32();
  const uint32_t slot = r.U32();
  if (count == 0 || count > max_entries) {
    return Status::Corruption("bad padded entry count");
  }
  if (!r.CanHold(count, 4ull + slot)) {
    return Status::Corruption("padded entries exceed payload");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t actual = r.U32();
    if (actual > slot) {
      return Status::Corruption("padded entry longer than its slot");
    }
    Bytes body = r.Raw(actual);
    r.Skip(slot - actual);
    if (r.failed()) return Status::Corruption("truncated padded entry");
    out->push_back(std::move(body));
  }
  return Status::Ok();
}

}  // namespace

Bytes EncodeProbeBatchRequest(std::span<const TranslatedQuery> probes,
                              const std::vector<BlockAdvert>& cached,
                              const std::string& db, bool pad_responses) {
  Bytes out;
  BinaryWriter w(&out);
  w.Str(db);
  WriteAdverts(w, cached);
  w.U8(pad_responses ? 1 : 0);
  std::vector<Bytes> entries;
  entries.reserve(probes.size());
  for (const TranslatedQuery& probe : probes) {
    entries.push_back(EncodeTranslatedQuery(probe));
  }
  WritePaddedEntries(w, entries);
  return out;
}

Result<ProbeBatchRequestMsg> DecodeProbeBatchRequest(const Bytes& payload) {
  BinaryReader r(payload);
  ProbeBatchRequestMsg msg;
  msg.db = r.Str();
  XCRYPT_RETURN_NOT_OK(ReadAdverts(r, &msg.cached));
  msg.pad_responses = r.U8() != 0;
  if (r.failed()) return Status::Corruption("truncated probe batch header");
  std::vector<Bytes> entries;
  XCRYPT_RETURN_NOT_OK(
      ReadPaddedEntries(r, PrivacyOptions::kMaxDecoys + 1, &entries));
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "probe batch request"));
  msg.probes.reserve(entries.size());
  for (const Bytes& entry : entries) {
    auto query = DecodeTranslatedQuery(entry);
    if (!query.ok()) return query.status();
    msg.probes.push_back(std::move(*query));
  }
  return msg;
}

Bytes EncodeProbeBatchResponse(const std::vector<Bytes>& answers, bool pad) {
  Bytes out;
  BinaryWriter w(&out);
  w.U8(pad ? 1 : 0);
  if (pad) {
    WritePaddedEntries(w, answers);
  } else {
    w.U32(static_cast<uint32_t>(answers.size()));
    for (const Bytes& answer : answers) w.Blob(answer);
  }
  return out;
}

Result<ProbeBatchResponseMsg> DecodeProbeBatchResponse(const Bytes& payload) {
  BinaryReader r(payload);
  const bool padded = r.U8() != 0;
  std::vector<Bytes> entries;
  if (padded) {
    XCRYPT_RETURN_NOT_OK(
        ReadPaddedEntries(r, PrivacyOptions::kMaxDecoys + 1, &entries));
  } else {
    const uint32_t count = r.U32();
    if (count == 0 ||
        count > static_cast<uint32_t>(PrivacyOptions::kMaxDecoys) + 1) {
      return Status::Corruption("bad probe batch answer count");
    }
    if (!r.CanHold(count, 4)) {
      return Status::Corruption("probe batch answers exceed payload");
    }
    entries.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      entries.push_back(r.Blob());
      if (r.failed()) return Status::Corruption("truncated batch answer");
    }
  }
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "probe batch response"));
  ProbeBatchResponseMsg msg;
  msg.answers.reserve(entries.size());
  for (const Bytes& entry : entries) {
    auto answer = DecodeQueryResponse(entry);
    if (!answer.ok()) return answer.status();
    msg.answers.push_back(std::move(*answer));
  }
  return msg;
}

Bytes EncodePirSetupRequest(const PirSetupRequestMsg& msg) {
  Bytes out;
  BinaryWriter w(&out);
  w.Str(msg.db);
  w.Str(msg.section);
  return out;
}

Result<PirSetupRequestMsg> DecodePirSetupRequest(const Bytes& payload) {
  BinaryReader r(payload);
  PirSetupRequestMsg msg;
  msg.db = r.Str();
  msg.section = r.Str();
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "pir setup request"));
  return msg;
}

Bytes EncodePirSetupResponse(const PirSetupResponseMsg& msg) {
  Bytes out;
  BinaryWriter w(&out);
  w.U32(msg.params.num_records);
  w.U32(msg.params.record_bytes);
  w.U32(msg.params.dim);
  w.U64(msg.params.seed);
  w.U32(static_cast<uint32_t>(msg.hint.size()));
  for (uint32_t v : msg.hint) w.U32(v);
  return out;
}

Result<PirSetupResponseMsg> DecodePirSetupResponse(const Bytes& payload) {
  BinaryReader r(payload);
  PirSetupResponseMsg msg;
  msg.params.num_records = r.U32();
  msg.params.record_bytes = r.U32();
  msg.params.dim = r.U32();
  msg.params.seed = r.U64();
  XCRYPT_RETURN_NOT_OK(msg.params.Validate());
  const uint32_t hint_len = r.U32();
  if (hint_len != static_cast<uint64_t>(msg.params.record_bytes) *
                      msg.params.dim ||
      !r.CanHold(hint_len, 4)) {
    return Status::Corruption("bad pir hint length");
  }
  msg.hint.reserve(hint_len);
  for (uint32_t i = 0; i < hint_len; ++i) msg.hint.push_back(r.U32());
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "pir setup response"));
  return msg;
}

Bytes EncodePirFetchRequest(const PirFetchRequestMsg& msg) {
  Bytes out;
  BinaryWriter w(&out);
  w.Str(msg.db);
  w.Str(msg.section);
  w.U32(static_cast<uint32_t>(msg.query.size()));
  for (uint32_t v : msg.query) w.U32(v);
  return out;
}

Result<PirFetchRequestMsg> DecodePirFetchRequest(const Bytes& payload) {
  BinaryReader r(payload);
  PirFetchRequestMsg msg;
  msg.db = r.Str();
  msg.section = r.Str();
  const uint32_t query_len = r.U32();
  if (query_len == 0 || query_len > privacy::PirParams::kMaxRecords ||
      !r.CanHold(query_len, 4)) {
    return Status::Corruption("bad pir query length");
  }
  msg.query.reserve(query_len);
  for (uint32_t i = 0; i < query_len; ++i) msg.query.push_back(r.U32());
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "pir fetch request"));
  return msg;
}

Bytes EncodePirFetchResponse(const PirFetchResponseMsg& msg) {
  Bytes out;
  BinaryWriter w(&out);
  w.U32(static_cast<uint32_t>(msg.answer.size()));
  for (uint32_t v : msg.answer) w.U32(v);
  return out;
}

Result<PirFetchResponseMsg> DecodePirFetchResponse(const Bytes& payload) {
  BinaryReader r(payload);
  const uint32_t answer_len = r.U32();
  if (answer_len == 0 || answer_len > privacy::PirParams::kMaxRecordBytes ||
      !r.CanHold(answer_len, 4)) {
    return Status::Corruption("bad pir answer length");
  }
  PirFetchResponseMsg msg;
  msg.answer.reserve(answer_len);
  for (uint32_t i = 0; i < answer_len; ++i) msg.answer.push_back(r.U32());
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "pir fetch response"));
  return msg;
}

Bytes EncodeError(const Status& status, double retry_after_ms) {
  Bytes out;
  BinaryWriter w(&out);
  w.U8(static_cast<uint8_t>(status.code()));
  w.Str(status.message());
  w.F64(retry_after_ms);
  return out;
}

Status DecodeError(const Bytes& payload, double* retry_after_ms) {
  BinaryReader r(payload);
  const uint8_t code = r.U8();
  const std::string message = r.Str();
  const double hint = r.F64();
  if (retry_after_ms != nullptr) {
    // Reject NaN/negative hints from a hostile daemon; a client must
    // never be talked into sleeping forever (or not at all, in a loop).
    *retry_after_ms = hint > 0.0 && hint == hint ? hint : 0.0;
  }
  XCRYPT_RETURN_NOT_OK(CheckFullyConsumed(r, "error message"));
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      // An error frame must carry an error; an OK code is a protocol bug.
      return Status::Corruption("error frame with OK status");
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kParseError:
      return Status::ParseError(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    case StatusCode::kUnsupported:
      return Status::Unsupported(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
  }
  return Status::Corruption("bad status code in error frame");
}

}  // namespace net
}  // namespace xcrypt
