#ifndef XCRYPT_CORE_SERVER_H_
#define XCRYPT_CORE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "core/encryptor.h"
#include "core/metadata.h"
#include "core/plan_cache.h"
#include "core/translated_query.h"
#include "index/interval_forest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "privacy/options.h"
#include "privacy/pir.h"

namespace xcrypt {

class MmapBundleReader;

/// What the server sends back for one query (§6.2 step 3): a pruned copy of
/// the plaintext skeleton — the ancestor chains plus the selected subtrees,
/// with `_encblock` markers where blocks belong — and the referenced
/// encryption blocks.
struct ServerResponse {
  /// Serialized pruned skeleton; empty when nothing matched.
  std::string skeleton_xml;
  /// Blocks referenced by markers inside skeleton_xml, shipped alongside.
  std::vector<EncryptedBlock> blocks;
  /// Blocks referenced by markers but NOT shipped: the query advertised a
  /// cached copy at the block's current generation, so the server sent an
  /// id-only stub and the client splices from its block cache (wire v3).
  std::vector<int> cached_ids;
  /// True when some predicate could only be checked conservatively (the
  /// context node lies strictly inside an encryption block), so the client
  /// must re-apply the full original query after decryption. Otherwise the
  /// client only needs to re-verify the output step's predicates.
  bool requires_full_requery = false;

  /// Bytes on the wire: pruned skeleton plus ciphertext, plus 4 bytes per
  /// id-only stub.
  int64_t TotalBytes() const;
};

/// Aggregate functions over the values bound by a path (§6.4).
///
/// MIN and MAX exploit the order-preserving value index: the server
/// locates the block holding the extreme value directly from ciphertext
/// order and ships only that block. COUNT and SUM "cannot be evaluated
/// without decryption" (splitting and scaling destroy cardinalities), so
/// the server ships every block containing a bound value and the client
/// finishes locally. Aggregates over public values are computed entirely
/// on the server.
enum class AggregateKind { kMin, kMax, kCount, kSum };

const char* AggregateKindName(AggregateKind kind);

/// The server's reply for an aggregate query.
struct AggregateResponse {
  AggregateKind kind = AggregateKind::kCount;
  /// True when the server could compute the final value itself (the target
  /// values are public); `server_value` then holds the answer and the
  /// payload is empty.
  bool computed_on_server = false;
  std::string server_value;
  /// Blocks/fragments the client needs for finishing. For MIN/MAX on
  /// encrypted values this holds exactly one block.
  ServerResponse payload;
};

/// Per-call wire facts returned WITH each engine response. Every call gets
/// a fresh value, so one engine can serve any number of concurrent callers
/// without their measurements racing. Time is not here: engines record it
/// as spans into the caller's trace (ExecOptions::ctx).
struct EngineCallStats {
  enum class Transport { kInProcess, kRemote };

  /// Whether the call crossed a real wire; the byte and retry counts are
  /// meaningful only for kRemote.
  Transport transport = Transport::kInProcess;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int retries = 0;  ///< transient failures absorbed before success
};

/// A query response together with its per-call measurements.
struct EngineQueryResult {
  ServerResponse response;
  EngineCallStats stats;
};

/// An aggregate response together with its per-call measurements.
struct EngineAggregateResult {
  AggregateResponse response;
  EngineCallStats stats;
};

/// Per-call options for the engine surface, passed by const reference.
/// Collapses what used to be an accreting tail of optional pointers
/// (trace context, cache advertisement, now a database name) into one
/// struct, so adding a knob never changes the signatures again.
struct ExecOptions {
  /// Optional trace to fill + deadline to respect; nullptr = fast path.
  obs::QueryContext* ctx = nullptr;
  /// Blocks the client holds decrypted (id + generation, wire v3); empty
  /// advertises nothing. The engine may answer with id-only stubs for
  /// advertised blocks whose generation still matches, and must ship the
  /// payload whenever it does not (stale caches degrade to extra bytes,
  /// never to wrong answers). The span must stay valid for the call.
  std::span<const BlockAdvert> cached_blocks;
  /// Which hosted database to evaluate against, for engines fronting a
  /// multi-tenant daemon (wire v4). Empty selects the endpoint's default
  /// database. In-process engines host exactly one database and ignore it.
  std::string db;
  /// Access-pattern protection knobs (DESIGN.md §17). Off by default; only
  /// remote engines act on them — an in-process engine has no wire
  /// observer to hide from.
  PrivacyOptions privacy;
  /// Cover queries bundled with the real one into a wire-v7 probe batch
  /// (sampled by the caller from its privacy::ShapeLog). Empty sends a
  /// plain request. The span must stay valid for the call; in-process
  /// engines ignore it.
  std::span<const TranslatedQuery> cover_queries;
};

/// The query surface an untrusted evaluator exposes to DasSystem —
/// implemented in-process by ServerEngine and over TCP by
/// net::RemoteServerEngine, so the protocol of §6 runs unchanged either
/// way. Every operation has exactly one signature: the required inputs
/// plus an ExecOptions (defaulted), and returns its own measurements
/// alongside the response.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  virtual Result<EngineQueryResult> Execute(
      const TranslatedQuery& query,
      const ExecOptions& opts = ExecOptions()) const = 0;

  /// The naive method of §7.3: ship the whole database (skeleton + all
  /// blocks); the client decrypts everything and evaluates locally.
  virtual Result<EngineQueryResult> ExecuteNaive(
      const ExecOptions& opts = ExecOptions()) const = 0;

  /// Aggregate evaluation (§6.4). `index_token` is the value index for the
  /// query's target tag (empty when the target is public).
  virtual Result<EngineAggregateResult> ExecuteAggregate(
      const TranslatedQuery& query, AggregateKind kind,
      const std::string& index_token,
      const ExecOptions& opts = ExecOptions()) const = 0;
};

/// The untrusted server's query executor (§6.2). It sees only the
/// encrypted database, the metadata, and translated queries — never keys or
/// plaintext of encrypted content.
class ServerEngine : public QueryEngine {
 public:
  /// Construction interns the DSI interval universe into a laminar forest
  /// (O(n log n), see index/interval_forest.h) so every child-axis join and
  /// covering-block lookup afterwards is a constant-size forest walk. The
  /// forest is derived solely from the public DSI/block interval lists, so
  /// the server learns nothing it did not already hold.
  ServerEngine(const EncryptedDatabase* db, const Metadata* meta);

  /// Lazy residency mode over a mapped format-v4 bundle: construction does
  /// no parsing and builds no forests. The first Execute*/call faults the
  /// index sections in (MmapBundleReader::EnsureResident) and builds the
  /// forests then; OPESS B-trees load per token on first probe; block
  /// ciphertext is copied out of the mapping only when a response ships
  /// it. A corrupt image surfaces as Corruption from the first call, never
  /// as a crash. `mapped` must outlive the engine.
  explicit ServerEngine(const MmapBundleReader* mapped);

  /// Executes the translated query:
  ///  1. label query nodes with DSI interval lists and prune them with
  ///     structural joins;
  ///  2. resolve value constraints through the OPESS B-trees;
  ///  3. ship the covering blocks / plaintext fragments of the result.
  /// With a traced context, the internal phases (index-lookup,
  /// structural-join, predicate-batch, assemble) are spanned under one
  /// "server" span and summarized into the returned stats.
  Result<EngineQueryResult> Execute(
      const TranslatedQuery& query,
      const ExecOptions& opts = ExecOptions()) const override;

  Result<EngineQueryResult> ExecuteNaive(
      const ExecOptions& opts = ExecOptions()) const override;

  Result<EngineAggregateResult> ExecuteAggregate(
      const TranslatedQuery& query, AggregateKind kind,
      const std::string& index_token,
      const ExecOptions& opts = ExecOptions()) const override;

  /// Binds the engine to the generation of the bundle its database came
  /// from. Plan-cache keys embed this value, and changing it drops every
  /// cached plan — the catalog calls this after each ApplyDelta/reload, so
  /// a plan computed against older data can never answer a newer query
  /// even if an engine were ever reused across generations.
  void SetDataGeneration(uint64_t generation);
  uint64_t data_generation() const { return data_generation_; }

  /// Points the plan-cache counters (`plan_cache.hit`, `plan_cache.miss`)
  /// at `registry` (nullptr detaches). Call before serving concurrently;
  /// the pointers are cached unsynchronized.
  void SetMetricsRegistry(obs::MetricsRegistry* registry);

  /// Resizes the plan cache (0 disables it); for tests and benches.
  void SetPlanCacheCapacity(size_t capacity);

  PlanCacheStats plan_cache_stats() const { return plan_cache_.Stats(); }

  /// PIR-hosted small sections (DESIGN.md §17): "block-meta" (one 8-byte
  /// record per encryption block — u32 generation, u32 ciphertext size)
  /// and "opess-root:<token>" (the root-level separator keys of the
  /// token's OPESS B-tree, one i64 per record). Built lazily on first
  /// request, cached per data generation (SetDataGeneration drops the
  /// cache), shared across callers. NotFound for unknown names; the
  /// returned pointer stays valid until the next generation change.
  Result<const privacy::PirHostedSection*> PirSection(
      const std::string& section) const;

 private:
  /// Forward pass: interval list per step (cumulative filtering). The
  /// trace (nullable) gets one span per phase per step; the deadline in
  /// `ctx` is checked between steps.
  Result<std::vector<std::vector<Interval>>> ForwardPass(
      const std::vector<TranslatedStep>& steps,
      const std::vector<Interval>& context, bool from_document_root,
      bool* conservative, obs::QueryContext* ctx) const;

  std::vector<Interval> LookupStep(const TranslatedStep& step) const;

  /// Evaluates one predicate against every candidate of a step with a
  /// single shared ForwardPass over the union of contexts (the joins are
  /// monotone in the context and step predicates are context-independent,
  /// so per-candidate chains are recovered from the shared pruned lists).
  /// Returns one pass/fail flag per candidate, in order.
  std::vector<char> BatchCheckPredicate(const std::vector<Interval>& candidates,
                                        const TranslatedPredicate& pred,
                                        bool* conservative) const;

  /// The kind-specific decision of §6.2 for one candidate, given the
  /// targets its predicate path reaches.
  bool PredicateKindHolds(const Interval& candidate,
                          const TranslatedPredicate& pred,
                          const std::vector<Interval>& targets,
                          bool* conservative) const;

  /// Builds the pruned-skeleton response for the subtrees rooted at the
  /// given intervals. Blocks whose (id, generation) appears in
  /// `cached_blocks` (nullable) become id-only stubs in cached_ids.
  ServerResponse AssembleResponse(
      const std::vector<Interval>& ship_roots, bool requires_full_requery,
      std::span<const BlockAdvert> cached_blocks) const;

  /// Gathers the raw record bytes + params for a hosted section name, or
  /// NotFound. Called under no lock (reads only immutable post-EnsureReady
  /// state).
  Result<privacy::PirHostedSection> BuildPirSection(
      const std::string& section) const;

  /// All DSI intervals, computed once (used by every child-axis join).
  const std::vector<Interval>& Universe() const;

  /// Representative intervals of the blocks hit by a value-index range
  /// probe, memoized per (token, lo, hi): the same predicate is checked
  /// against every candidate of its step, but the probe result does not
  /// depend on the candidate.
  const std::vector<Interval>& RangeProbeReps(const std::string& token,
                                              int64_t lo, int64_t hi) const;

  /// Faults the mapped bundle's index sections in and builds the forests,
  /// once; a no-op (one atomic load) for eager engines and after the
  /// first success. Every public entry point calls this first, so a
  /// mapped engine pays its residency cost on the first query — the
  /// "time to first query" a cold attach is measured by.
  Status EnsureReady() const;

  /// Builds universe_/forest_/block_forest_ from meta_ (shared by the
  /// eager constructor and the lazy first-use path).
  void BuildIndexes() const;

  // Block accessors routing to either the eager database or the mapping.
  size_t BlockCount() const;
  uint32_t BlockGenerationOf(size_t i) const;
  bool BlockTombstoned(size_t i) const;
  EncryptedBlock ShipBlock(size_t i) const;
  /// Ciphertext size without copying the payload (mapped mode reads only
  /// the directory entry, faulting no payload pages).
  size_t BlockCiphertextBytes(size_t i) const;

  /// OPESS B-tree for a token: map probe for eager engines, lazy
  /// per-token section parse for mapped ones. nullptr when absent.
  const BPlusTree* ValueIndex(const std::string& token) const;

  /// Mapped-mode source; null for eager engines.
  const MmapBundleReader* mapped_ = nullptr;
  /// Set at construction for eager engines, on first EnsureReady for
  /// mapped ones (pointing into the reader's materialized sections).
  mutable const EncryptedDatabase* db_ = nullptr;
  mutable const Metadata* meta_ = nullptr;
  /// One-time lazy construction latch: acquire-load fast path, mutex for
  /// the (retryable) build.
  mutable std::atomic<bool> ready_{false};
  mutable std::mutex ready_mu_;
  /// All DSI intervals, materialized once (the wildcard step list and the
  /// child-axis universe).
  mutable std::vector<Interval> universe_;
  /// Laminar forest over universe_: parent/depth/subtree spans for the
  /// child-axis join.
  mutable LaminarForest forest_;
  /// Forest over the encryption blocks' representative intervals, plus the
  /// block id behind each forest node — the innermost-covering-block
  /// question of response assembly as one forest walk.
  mutable LaminarForest block_forest_;
  mutable std::vector<int> block_of_forest_node_;
  /// Guards the lazy cache below so one engine can serve concurrent
  /// network sessions; everything else here is read-only after
  /// construction. Reader/writer split: once a probe is memoized, the
  /// predicate batch hits it from many threads at once under shared locks.
  mutable std::shared_mutex cache_mu_;
  mutable std::map<std::tuple<std::string, int64_t, int64_t>,
                   std::vector<Interval>>
      range_probe_cache_;
  /// PIR sections built on demand, keyed by name. Guarded by cache_mu_;
  /// cleared by SetDataGeneration (records embed per-block generations).
  /// std::map for pointer stability: PirSection hands out entry pointers
  /// that stay valid across later insertions.
  mutable std::map<std::string, privacy::PirHostedSection> pir_sections_;

  /// Per-database translated-plan cache: normalized query shape (+ data
  /// generation) -> back-pruned ship roots, so a repeated query shape skips
  /// the whole join pipeline and goes straight to response assembly.
  mutable PlanCache plan_cache_;
  uint64_t data_generation_ = 0;
  obs::Counter* plan_hit_ = nullptr;
  obs::Counter* plan_miss_ = nullptr;
};

}  // namespace xcrypt

#endif  // XCRYPT_CORE_SERVER_H_
