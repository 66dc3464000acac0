#ifndef XCRYPT_DAS_DAS_SYSTEM_H_
#define XCRYPT_DAS_DAS_SYSTEM_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/client.h"
#include "core/server.h"
#include "das/client_tuning.h"
#include "net/remote_engine.h"
#include "privacy/fetcher.h"
#include "privacy/shape.h"
#include "storage/serializer.h"
#include "storage/update/delta_builder.h"
#include "xpath/ast.h"

namespace xcrypt {

/// Fixed-bandwidth cost model for the client↔server link, used when no
/// real wire exists (§7.1's 100 Mbps experimental setup).
struct SimulatedLink {
  double mbps = 100.0;

  /// Wire time for `bytes` over the link, in microseconds.
  double EstimateUs(int64_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / (mbps * 1e6) * 1e6;
  }
};

/// Per-query cost breakdown, mirroring the parameters measured in §7.2:
/// query translation time on the client, query processing time on the
/// server, transmission time of the answer, decryption time on the client,
/// and query post-processing time on the client. Every time is a
/// projection of the query's trace (CostsFromTrace).
struct QueryCosts {
  double client_translate_us = 0.0;
  double server_process_us = 0.0;
  /// Wire time. In-process it is simulated from bytes_shipped over the
  /// configured link; connected to a remote server it is measured wall
  /// time. EngineCallStats::transport says which.
  double transmission_us = 0.0;
  double decrypt_us = 0.0;
  double postprocess_us = 0.0;
  int64_t bytes_shipped = 0;
  int blocks_shipped = 0;

  double TotalUs() const {
    return client_translate_us + server_process_us + transmission_us +
           decrypt_us + postprocess_us;
  }
  /// The client-side share (everything but server processing and the wire).
  double ClientUs() const {
    return client_translate_us + decrypt_us + postprocess_us;
  }
};

/// The QueryCosts field a span name is charged to (DESIGN.md §10 has the
/// table), or nullptr for a name that is not a cost of its own: the
/// server's phases (inside "server") and the "decoy-batch" group, whose
/// children are charged one by one.
double QueryCosts::*CostFieldOf(std::string_view span_name);

/// Projects a trace produced by DasSystem::Execute onto the §7.2 cost
/// breakdown; QueryRun::costs is exactly this plus the byte counts. Each
/// closed span is charged to its name's field unless an enclosing span
/// already was. Wire byte/block counters are not time and stay 0.
QueryCosts CostsFromTrace(const obs::Trace& trace);

/// One executed query: its answer plus the measured costs.
struct QueryRun {
  QueryAnswer answer;
  QueryCosts costs;
  TranslatedQuery translated;
  /// The engine call's wire facts (transport, bytes, retries).
  EngineCallStats engine_stats;
};

/// One executed aggregate query.
struct AggregateRun {
  AggregateAnswer answer;
  QueryCosts costs;
  EngineCallStats engine_stats;
};

/// Host-time statistics (reported by experiment E4).
struct HostReport {
  double encrypt_us = 0.0;
  double metadata_us = 0.0;
  int64_t ciphertext_bytes = 0;
  int64_t skeleton_bytes = 0;
  int64_t metadata_bytes = 0;
  int num_blocks = 0;
  int64_t scheme_size_nodes = 0;
};

/// The complete hosted system of Figure 1: the client (data owner, keys,
/// translation, post-processing) wired to the untrusted server engine, with
/// a cost model for the link between them.
class DasSystem {
 public:
  /// Encrypts and hosts `doc` under `kind`, building all metadata.
  /// `tuning` (see ClientTuning) carries every client-side knob — link
  /// model, cache budget, thread/kernel picks, retry policy, privacy mode
  /// — validated up front; it is fixed for the system's lifetime.
  static Result<DasSystem> Host(Document doc,
                                std::vector<SecurityConstraint> constraints,
                                SchemeKind kind,
                                const std::string& master_secret,
                                const ClientTuning& tuning = ClientTuning());

  /// Runs the full 5-step protocol of §6 for one query. Every entry
  /// point takes the query as either a parsed PathExpr or an XPath
  /// string — one templated surface forwards both spellings through
  /// ResolveQuery, so the two stay symmetric by construction. Every run
  /// records its phases, client and server alike, as spans: into the
  /// context's trace when one is given (a fresh trace per call), else
  /// into a local one. The context may also carry a deadline the engine
  /// respects.
  template <typename Query>
  Result<QueryRun> Execute(const Query& query,
                           obs::QueryContext* ctx = nullptr) const {
    auto path = ResolveQuery(query);
    if (!path.ok()) return path.status();
    return ExecutePath(*path, ctx);
  }

  /// The naive method of §7.3: ship the entire encrypted database and
  /// evaluate at the client.
  template <typename Query>
  Result<QueryRun> ExecuteNaive(const Query& query,
                                obs::QueryContext* ctx = nullptr) const {
    auto path = ResolveQuery(query);
    if (!path.ok()) return path.status();
    return ExecuteNaivePath(*path, ctx);
  }

  /// Aggregate evaluation (§6.4): MIN/MAX over encrypted values decrypt a
  /// single block; COUNT/SUM fall back to shipping the bound blocks;
  /// aggregates over public values never leave the server.
  template <typename Query>
  Result<AggregateRun> ExecuteAggregate(const Query& query,
                                        AggregateKind kind,
                                        obs::QueryContext* ctx = nullptr)
      const {
    auto path = ResolveQuery(query);
    if (!path.ok()) return path.status();
    return ExecuteAggregatePath(*path, kind, ctx);
  }

  // --- Remote service (Figure 1 over an actual wire) -------------------

  /// Handle over this system's remote attachment. Obtained via Remote();
  /// groups connect/disconnect/inspection behind one small surface
  /// instead of three loose methods on DasSystem.
  class RemoteHandle {
   public:
    /// Routes all subsequent queries through an xcrypt_serve endpoint
    /// hosting this system's bundle (see storage/serializer.h) instead
    /// of the in-process engine; `database` selects one of a catalog
    /// daemon's databases ("" = its default). Query costs then report
    /// measured transmission time. Fails (leaving the in-process path
    /// active) when the endpoint is unreachable or speaks the wrong
    /// protocol version. When `options` is absent, the connection derives
    /// its RemoteOptions from the system's ClientTuning (retry policy);
    /// passing explicit options overrides the tuning wholesale.
    Status Connect(const std::string& host, uint16_t port,
                   const std::string& database = std::string(),
                   std::optional<net::RemoteOptions> options = std::nullopt);

    /// Returns to in-process evaluation.
    void Disconnect();
    bool attached() const { return das_->remote_ != nullptr; }

    /// The connected session's target database ("" when detached or
    /// using the daemon's default).
    const std::string& database() const;

    /// Daemon-side counters for the connected endpoint.
    Result<net::NetStats> Stats() const;

   private:
    friend class DasSystem;
    explicit RemoteHandle(DasSystem* das) : das_(das) {}
    DasSystem* das_;
  };

  RemoteHandle Remote() { return RemoteHandle(this); }

  // --- Updates (future-work item (3); see Client) ----------------------
  //
  // All three edit kinds are incremental: the client re-encrypts only the
  // touched blocks and patches the indexes in place. When a remote daemon
  // is attached the side effects are recorded (DeltaBuilder), shipped as
  // a delta bundle over wire v5, and applied server-side in place —
  // pinned readers keep the old resident, new queries see the new one,
  // and connected clients get invalidation pushes for the stale blocks.

  /// Structure-preserving value update.
  Result<int> UpdateValues(const std::string& xpath, const std::string& value);
  /// Structural insert under every node matched by `parent_xpath`.
  Status InsertSubtree(const std::string& parent_xpath,
                       const Document& fragment);
  Result<int> DeleteSubtrees(const std::string& xpath);

  /// A hosted bundle of the current state, stamped `name` and the current
  /// bundle generation — what gets uploaded to (or re-checkpointed at) a
  /// daemon. Deltas built after this export use it as their base.
  Result<HostedBundle> ExportBundle(
      const std::string& name = std::string()) const;

  /// Owner-assigned generation of the hosted state: 1 at Host, +1 per
  /// applied update batch (delta pushes carry it across the wire).
  uint64_t bundle_generation() const { return bundle_generation_; }

  const Client& client() const { return *client_; }
  const HostReport& host_report() const { return host_report_; }
  const ClientTuning& tuning() const { return tuning_; }

  // --- Access-pattern protection (DESIGN.md §17) ------------------------

  /// Entries currently in the local query-shape log (the decoy sampling
  /// distribution). Grows as real queries run with decoys enabled.
  size_t shape_log_size() const;

  /// Persists the shape log to tuning().shape_log_path now (a periodic
  /// save also happens every few dozen recorded queries). No-op Ok when
  /// no path is configured.
  Status SaveShapeLog() const;

  /// The remote PIR fetcher, or nullptr when detached / PIR disabled.
  /// Exposes fetch counters for tests and experiments.
  const privacy::SectionFetcher* section_fetcher() const {
    return privacy_ == nullptr ? nullptr : privacy_->fetcher.get();
  }

 private:
  DasSystem() = default;

  /// Normalizes the two query spellings behind the templated entry
  /// points: a PathExpr passes through, a string parses.
  static Result<PathExpr> ResolveQuery(const PathExpr& query);
  static Result<PathExpr> ResolveQuery(const std::string& xpath);
  static Result<PathExpr> ResolveQuery(const char* xpath);

  Result<QueryRun> ExecutePath(const PathExpr& query,
                               obs::QueryContext* ctx) const;
  Result<QueryRun> ExecuteNaivePath(const PathExpr& query,
                                    obs::QueryContext* ctx) const;
  Result<AggregateRun> ExecuteAggregatePath(const PathExpr& path,
                                            AggregateKind kind,
                                            obs::QueryContext* ctx) const;

  Result<QueryRun> Finish(const PathExpr& query, EngineQueryResult engine_run,
                          TranslatedQuery translated, obs::Trace* trace,
                          const CachedBlockSet* cache_set = nullptr) const;

  /// The active evaluator: the remote stub when attached, else the
  /// in-process engine.
  const QueryEngine& engine() const {
    return remote_ ? static_cast<const QueryEngine&>(*remote_) : *server_;
  }

  /// The simulated-link cost model for the configured bandwidth.
  SimulatedLink link() const { return SimulatedLink{tuning_.link_mbps}; }

  /// An in-process call has no wire: records the link model's estimate
  /// for `bytes` as the "transmit" span (a remote engine records its
  /// measured one itself).
  void RecordSimulatedWire(const EngineCallStats& stats, int64_t bytes,
                           obs::Trace* trace) const;

  /// Finishes one recorded update batch: refreshes the in-process engine,
  /// advances the bundle generation, and (when remote) ships the delta.
  Status PropagateUpdate(const DeltaBuilder& builder);

  /// Everything behind the privacy mode, grouped so DasSystem stays
  /// movable (a mutex member would pin it): the shape log decoys sample
  /// from, the jitter source, and the remote PIR fetcher. One mutex
  /// serializes all of it — neither ShapeLog nor SectionFetcher is
  /// thread-safe on its own.
  struct PrivacyState {
    std::mutex mu;
    privacy::ShapeLog shape_log;
    Rng rng;
    uint64_t records_since_save = 0;
    std::unique_ptr<privacy::SectionFetcher> fetcher;
  };

  /// Samples up to `decoys` cover queries and then records `real` into
  /// the shape log (in that order: a query never covers for itself on its
  /// first appearance), persisting the log periodically.
  std::vector<TranslatedQuery> SampleCoversAndRecord(
      const TranslatedQuery& real, int decoys) const;

  /// Spot-checks one shipped block's metadata through the PIR fetcher
  /// (block-meta section): a generation-matched record whose size
  /// disagrees with the shipped ciphertext is server inconsistency.
  Status PirSpotCheck(const ServerResponse& response,
                      obs::Trace* trace) const;

  /// client_ precedes remote_: the remote stub's invalidation sink points
  /// into the client's block cache and must die first. privacy_ follows
  /// remote_ so the fetcher (which holds the stub as its transport) is
  /// destroyed before the stub.
  std::unique_ptr<Client> client_;
  std::unique_ptr<ServerEngine> server_;
  std::unique_ptr<net::RemoteServerEngine> remote_;
  std::unique_ptr<PrivacyState> privacy_;
  ClientTuning tuning_;
  HostReport host_report_;
  uint64_t bundle_generation_ = 1;
};

}  // namespace xcrypt

#endif  // XCRYPT_DAS_DAS_SYSTEM_H_
