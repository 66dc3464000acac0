#ifndef XCRYPT_NET_WIRE_H_
#define XCRYPT_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/aggregate.h"
#include "core/server.h"
#include "core/translated_query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "privacy/pir.h"

namespace xcrypt {
namespace net {

/// The service-layer wire protocol (Figure 1's client/server link made
/// real). Every message travels as one frame:
///
///   +-------+---------+------+----------------+----------+-----------+
///   | magic | version | type | payload length | frame id |  payload  |
///   |  u32  |   u8    |  u8  |      u32       |   u64    | `length`  |
///   +-------+---------+------+----------------+----------+-----------+
///
/// All integers little-endian, strings/blobs u32-length-prefixed — the
/// same conventions as the storage image format (storage/serializer.cc),
/// sharing common/binary_io.h. There is exactly one protocol version: an
/// endpoint rejects a frame carrying any other with Unsupported instead of
/// guessing at its layout, and the daemon then closes the connection.
///
/// Requests carry a client-chosen frame id which the daemon echoes in the
/// response, so one connection can have several requests in flight and
/// responses may complete out of order. Unsolicited frames (invalidation
/// events) and errors raised outside any request carry id 0, which clients
/// never assign to a request.

inline constexpr uint32_t kWireMagic = 0x54454E58;  // "XNET" on the wire
inline constexpr uint8_t kWireVersion = 7;
/// The header fields DecodeFrameHeader validates: magic, version, type and
/// payload length. A reader can refuse a bad frame as soon as these have
/// arrived, without waiting for bytes an older peer will never send.
inline constexpr size_t kFramePrefixBytes = 4 + 1 + 1 + 4;
/// Bytes preceding the payload: the validated prefix, then the frame id.
inline constexpr size_t kFrameHeaderBytes = kFramePrefixBytes + 8;

/// Upper bound on a single frame's payload. A header announcing more is
/// rejected before any allocation — the guard against a corrupted or
/// hostile length prefix. 256 MiB comfortably fits a naive-method reply
/// for the evaluation corpora while staying far below memory limits.
inline constexpr uint64_t kDefaultMaxFrameBytes = 256ull << 20;

enum class MessageType : uint8_t {
  kPingRequest = 1,
  kPingResponse = 2,
  kQueryRequest = 3,       ///< TranslatedQuery
  kQueryResponse = 4,      ///< ServerResponse + server timing
  kNaiveRequest = 5,       ///< db name; answered with kQueryResponse
  kAggregateRequest = 6,   ///< TranslatedQuery + kind + index token
  kAggregateResponse = 7,  ///< AggregateResponse + server timing
  kStatsRequest = 8,       ///< db name
  kStatsResponse = 9,      ///< NetStats
  kError = 10,             ///< Status code + message
  kInvalidationEvent = 11,  ///< server-pushed stale-block notice
  kUpdateRequest = 12,      ///< delta bundle image
  kUpdateResponse = 13,     ///< new bundle generation after apply
  kProbeBatchRequest = 14,  ///< k+1 uniform probes, one real
  kProbeBatchResponse = 15, ///< per-probe answers, optionally padded
  kPirSetupRequest = 16,    ///< section name
  kPirSetupResponse = 17,   ///< PirParams + hint
  kPirFetchRequest = 18,    ///< section + selection vector
  kPirFetchResponse = 19,   ///< answer vector
};

const char* MessageTypeName(MessageType type);

/// One decoded frame.
struct Frame {
  MessageType type = MessageType::kError;
  /// Request/response correlation id; 0 for unsolicited frames.
  uint64_t frame_id = 0;
  Bytes payload;
};

/// Per-call options for the net surface's maintenance operations
/// (RemoteServerEngine::Stats/PushDelta, NetServer::stats), mirroring the
/// ExecOptions::db convention so the net API has exactly one way to name
/// a database.
struct NetCallOptions {
  /// Target database; empty = the endpoint's default database.
  std::string db;
};

/// Server-side counters reported by kStatsResponse, plus the daemon's
/// per-message-type latency histograms. Histogram snapshots merge
/// associatively, so scrapes from several daemons or intervals can be
/// combined client-side.
struct NetStats {
  uint64_t queries_served = 0;
  uint64_t aggregates_served = 0;
  uint64_t naive_served = 0;
  uint64_t errors = 0;
  uint64_t connections_total = 0;
  uint64_t connections_active = 0;
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t num_blocks = 0;
  uint64_t ciphertext_bytes = 0;
  /// Requests refused with Unavailable by admission control.
  uint64_t queries_shed = 0;
  /// Requests currently waiting for an admission slot.
  uint64_t queue_depth = 0;
  /// Which database num_blocks/ciphertext_bytes describe: the
  /// one named in the stats request, or the daemon's default.
  std::string database;
  /// Resident bundle generation of `database`; 0 when no database
  /// resolved.
  /// Owners sync on this at attach so deltas build against the server's
  /// actual base.
  uint64_t db_generation = 0;
  /// Delta bundles applied across all databases.
  uint64_t updates_applied = 0;
  /// Named latency histograms (e.g. "query_us", "aggregate_us").
  std::vector<std::pair<std::string, obs::HistogramSnapshot>> latency;
};

// --- framing ------------------------------------------------------------

/// Serializes a complete frame (header + payload).
Bytes EncodeFrame(MessageType type, const Bytes& payload,
                  uint64_t frame_id = 0);

/// Validates the header prefix: magic, version, message type, and payload
/// length against `max_frame_bytes`. On success returns the frame with its
/// id and payload still empty; the caller next reads the frame id (see
/// DecodeFrameId), then `payload_length` bytes. `buf` must hold
/// kFramePrefixBytes.
Result<Frame> DecodeFrameHeader(const uint8_t* buf, uint64_t max_frame_bytes,
                                uint32_t* payload_length);

/// Reads the little-endian u64 frame id that follows the header prefix.
/// `buf` must hold 8 bytes.
uint64_t DecodeFrameId(const uint8_t* buf);

/// Parses a complete frame from a contiguous buffer (tests, fuzzing).
Result<Frame> DecodeFrame(const Bytes& buf, uint64_t max_frame_bytes);

/// A frame assembled as scatter-gather segments for writev: segment 0 is
/// the header, the rest concatenate to the payload.
/// Large block ciphertexts become their own segments — moved, never
/// copied into one contiguous send buffer.
using FrameParts = std::vector<Bytes>;

/// Total bytes across all segments (header + payload).
uint64_t FramePartsBytes(const FrameParts& parts);

/// Frames pre-built payload segments: prepends the header segment with
/// the summed payload length. Flattening the result is byte-identical to
/// EncodeFrame over the concatenated payload.
FrameParts EncodeFrameParts(MessageType type, std::vector<Bytes> payload,
                            uint64_t frame_id = 0);

// --- payload codecs -----------------------------------------------------
//
// Every Decode* rejects malformed input with Corruption (truncation, bad
// enum values, impossible counts) and never over-allocates: element
// counts are checked against the bytes actually present before any
// reserve.

struct QueryRequestMsg {
  TranslatedQuery query;
  /// Blocks the client already holds decrypted; the server may answer with
  /// id-only stubs for any of these whose generation matches.
  std::vector<BlockAdvert> cached;
  /// Target database; empty = the daemon's default database.
  std::string db;
};
Bytes EncodeQueryRequest(const TranslatedQuery& query,
                         const std::vector<BlockAdvert>& cached = {},
                         const std::string& db = std::string());
Result<QueryRequestMsg> DecodeQueryRequest(const Bytes& payload);

/// kNaiveRequest: the target database name.
struct NaiveRequestMsg {
  std::string db;
};
Bytes EncodeNaiveRequest(const std::string& db = std::string());
Result<NaiveRequestMsg> DecodeNaiveRequest(const Bytes& payload);

/// kStatsRequest: the database whose size counters the reply describes.
struct StatsRequestMsg {
  std::string db;
};
Bytes EncodeStatsRequest(const std::string& db = std::string());
Result<StatsRequestMsg> DecodeStatsRequest(const Bytes& payload);

struct QueryResponseMsg {
  ServerResponse response;
  double server_process_us = 0.0;
  /// The daemon's decomposition of server_process_us into named phases
  /// (empty when the daemon ran the call untraced).
  std::vector<obs::PhaseTiming> server_phases;
};
Bytes EncodeQueryResponse(const ServerResponse& response,
                          double server_process_us,
                          const std::vector<obs::PhaseTiming>& server_phases =
                              {});
/// Scatter-gather variant: block ciphertexts at or above the internal
/// detach threshold are moved into their own payload segments instead of
/// copied. Concatenating the segments yields exactly the
/// EncodeQueryResponse bytes. Consumes `response`.
std::vector<Bytes> EncodeQueryResponseParts(
    ServerResponse&& response, double server_process_us,
    const std::vector<obs::PhaseTiming>& server_phases = {});
Result<QueryResponseMsg> DecodeQueryResponse(const Bytes& payload);

struct AggregateRequestMsg {
  TranslatedQuery query;
  AggregateKind kind = AggregateKind::kCount;
  std::string index_token;
  std::vector<BlockAdvert> cached;  ///< client cache advertisement
  std::string db;                   ///< target database
};
Bytes EncodeAggregateRequest(const TranslatedQuery& query, AggregateKind kind,
                             const std::string& index_token,
                             const std::vector<BlockAdvert>& cached = {},
                             const std::string& db = std::string());
Result<AggregateRequestMsg> DecodeAggregateRequest(const Bytes& payload);

struct AggregateResponseMsg {
  AggregateResponse response;
  double server_process_us = 0.0;
  std::vector<obs::PhaseTiming> server_phases;
};
Bytes EncodeAggregateResponse(const AggregateResponse& response,
                              double server_process_us,
                              const std::vector<obs::PhaseTiming>&
                                  server_phases = {});
/// Scatter-gather variant of EncodeAggregateResponse; see
/// EncodeQueryResponseParts. Consumes `response`.
std::vector<Bytes> EncodeAggregateResponseParts(
    AggregateResponse&& response, double server_process_us,
    const std::vector<obs::PhaseTiming>& server_phases = {});
Result<AggregateResponseMsg> DecodeAggregateResponse(const Bytes& payload);

Bytes EncodeStats(const NetStats& stats);
Result<NetStats> DecodeStats(const Bytes& payload);

/// kInvalidationEvent: pushed by the daemon, never solicited. Tells
/// a connected client that `db` advanced to `db_generation` and which of
/// its cached blocks are now stale. `drop_all` covers the cases where a
/// precise list is unavailable (bundle replaced wholesale, or the daemon's
/// invalidation log was outrun) — the client empties its cache for `db`.
struct InvalidationEventMsg {
  std::string db;
  uint64_t db_generation = 0;
  bool drop_all = false;
  /// Stale blocks as (id, new generation) pairs; empty when drop_all.
  std::vector<BlockAdvert> blocks;
};
Bytes EncodeInvalidationEvent(const InvalidationEventMsg& event);
Result<InvalidationEventMsg> DecodeInvalidationEvent(const Bytes& payload);

/// kUpdateRequest: an owner pushes a serialized DeltaBundle image
/// (storage/update/delta.h). The daemon treats the image as opaque bytes
/// at the wire layer; the update path deserializes and validates it.
struct UpdateRequestMsg {
  std::string db;  ///< target database; empty = the daemon's default
  Bytes delta;     ///< SerializeDelta output, opaque to the framing layer
};
Bytes EncodeUpdateRequest(const UpdateRequestMsg& msg);
Result<UpdateRequestMsg> DecodeUpdateRequest(const Bytes& payload);

/// kUpdateResponse: the bundle generation after the delta applied
/// (also returned for an idempotent replay that changed nothing).
struct UpdateResponseMsg {
  uint64_t generation = 0;
};
Bytes EncodeUpdateResponse(const UpdateResponseMsg& msg);
Result<UpdateResponseMsg> DecodeUpdateResponse(const Bytes& payload);

// --- access-pattern protection -----------------------------------------

/// Standalone codec for one translated query, shared by the probe-batch
/// entries below and by privacy::ShapeLog persistence. Byte-identical to
/// the steps section of EncodeQueryRequest.
Bytes EncodeTranslatedQuery(const TranslatedQuery& query);
Result<TranslatedQuery> DecodeTranslatedQuery(const Bytes& payload);

/// kProbeBatchRequest: k+1 probes of which exactly one is real — the
/// server cannot tell which, because every entry is encoded into the same
/// fixed-size slot (the quantum-rounded maximum of the batch, see
/// privacy::PadToQuantum) and all entries share one advert list and one
/// database. Decoding recovers the probes in order; the real one's
/// position is client-side knowledge only.
struct ProbeBatchRequestMsg {
  std::vector<TranslatedQuery> probes;
  std::vector<BlockAdvert> cached;  ///< shared by every entry
  std::string db;
  /// Asks the daemon to pad response entries to their common maximum too.
  bool pad_responses = true;
};
Bytes EncodeProbeBatchRequest(std::span<const TranslatedQuery> probes,
                              const std::vector<BlockAdvert>& cached = {},
                              const std::string& db = std::string(),
                              bool pad_responses = true);
Result<ProbeBatchRequestMsg> DecodeProbeBatchRequest(const Bytes& payload);

/// kProbeBatchResponse: one QueryResponseMsg per probe, in request order.
/// With padding on, every entry occupies the same quantum-rounded slot so
/// entry sizes cannot single out the real probe.
struct ProbeBatchResponseMsg {
  std::vector<QueryResponseMsg> answers;
};
/// `answers[i]` is the EncodeQueryResponse bytes for probe i.
Bytes EncodeProbeBatchResponse(const std::vector<Bytes>& answers, bool pad);
Result<ProbeBatchResponseMsg> DecodeProbeBatchResponse(const Bytes& payload);

/// kPirSetupRequest: names a hosted section (privacy::kBlockMetaSection or
/// privacy::OpessRootSection). Answered with the section's parameters and
/// hint, after which the client can fetch records by selection vector.
struct PirSetupRequestMsg {
  std::string db;
  std::string section;
};
Bytes EncodePirSetupRequest(const PirSetupRequestMsg& msg);
Result<PirSetupRequestMsg> DecodePirSetupRequest(const Bytes& payload);

struct PirSetupResponseMsg {
  privacy::PirParams params;
  std::vector<uint32_t> hint;  ///< record_bytes × dim, row-major
};
Bytes EncodePirSetupResponse(const PirSetupResponseMsg& msg);
Result<PirSetupResponseMsg> DecodePirSetupResponse(const Bytes& payload);

/// kPirFetchRequest: one selection vector (num_records u32s — LWE
/// ciphertext or transparent selector; the server cannot tell which and
/// performs the identical dot product either way).
struct PirFetchRequestMsg {
  std::string db;
  std::string section;
  std::vector<uint32_t> query;
};
Bytes EncodePirFetchRequest(const PirFetchRequestMsg& msg);
Result<PirFetchRequestMsg> DecodePirFetchRequest(const Bytes& payload);

struct PirFetchResponseMsg {
  std::vector<uint32_t> answer;  ///< record_bytes u32s
};
Bytes EncodePirFetchResponse(const PirFetchResponseMsg& msg);
Result<PirFetchResponseMsg> DecodePirFetchResponse(const Bytes& payload);

/// kError carries a non-OK Status across the wire. Decoding never returns
/// OK: a well-formed payload yields the carried error, a malformed one
/// yields Corruption. The frame also carries `retry_after_ms`, a
/// server-suggested backoff hint (0 = no suggestion) that admission
/// control attaches to Unavailable sheds and the client's retry loop
/// honors as a floor.
Bytes EncodeError(const Status& status, double retry_after_ms = 0.0);
Status DecodeError(const Bytes& payload, double* retry_after_ms = nullptr);

}  // namespace net
}  // namespace xcrypt

#endif  // XCRYPT_NET_WIRE_H_
