#ifndef XCRYPT_NET_SERVER_H_
#define XCRYPT_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/server.h"
#include "net/catalog.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "storage/serializer.h"

namespace xcrypt {
namespace net {

struct NetServerOptions {
  NetServerOptions() {}
  int num_threads = 8;  ///< fixed worker pool size (query evaluation)
  /// Reactor I/O threads. Each runs an epoll loop over a share of the
  /// connections, doing only non-blocking reads/writes and frame parsing;
  /// a handful suffice for tens of thousands of sockets.
  int io_threads = 2;
  int backlog = 64;             ///< listen(2) backlog
  double io_timeout_sec = 30.;  ///< per-frame read/write progress bound
  /// Reap connections idle (no request in flight, nothing buffered)
  /// longer than this. 0 keeps the pre-reactor behavior: idle persistent
  /// connections stay open indefinitely.
  double idle_timeout_sec = 0.;
  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Database served to requests with an empty db field. Empty + a
  /// request naming no database → InvalidArgument. ServerConfig::ForBundle
  /// fills it in.
  std::string default_db;
  /// Admission control: queries/aggregates/naive requests evaluating
  /// concurrently across all connections (0 = unbounded; pings and stats
  /// are never gated). Excess requests wait in a bounded queue.
  int max_inflight_queries = 0;
  /// Waiting slots beyond max_inflight_queries. When both are full the
  /// request is shed with a retryable Unavailable instead of queueing
  /// unboundedly — one hot tenant cannot starve the daemon.
  int max_queued_queries = 8;
  /// Backoff hint attached to Unavailable sheds: the client's retry loop
  /// treats it as a floor for its next sleep.
  double shed_backoff_ms = 50.0;
  /// Accept kUpdateRequest frames. Off by default: an update
  /// mutates hosted state, so the operator must opt in (--allow-updates).
  bool accept_updates = false;
  /// Bounded per-daemon log of recent invalidation events. A session that
  /// falls further behind than the log reaches gets one drop-all event
  /// instead of a precise stale-block list.
  int max_invalidation_log = 64;
  /// Requests a single connection may have dispatched concurrently
  /// (pipelining). Beyond this the reactor stops reading the connection
  /// until replies drain — per-connection backpressure.
  int max_pipeline_depth = 64;

  /// Rejects nonsensical settings (negative timeouts, zero frame bound,
  /// thread counts < 1, ...). Serve() refuses to start on a bad config
  /// instead of misbehaving later.
  Status Validate() const;
};

/// Everything Serve() needs: the endpoint, what to host (exactly one of
/// `bundle` or `catalog`), and the runtime options — the net-layer mirror
/// of the ExecOptions convention (one options bag instead of positional
/// overloads).
struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 → ephemeral; read back via NetServer::port()
  /// Single-database hosting: wrapped in a one-entry catalog named after
  /// the bundle (or "default"), which also becomes options.default_db
  /// when unset.
  std::optional<HostedBundle> bundle;
  /// Multi-tenant hosting: every database in the catalog is served.
  /// options.default_db, when set, must name a database in the catalog.
  std::unique_ptr<BundleCatalog> catalog;
  NetServerOptions options;

  static ServerConfig ForBundle(HostedBundle bundle,
                                const std::string& host = "127.0.0.1",
                                uint16_t port = 0,
                                NetServerOptions options = NetServerOptions());
  static ServerConfig ForCatalog(std::unique_ptr<BundleCatalog> catalog,
                                 const std::string& host = "127.0.0.1",
                                 uint16_t port = 0,
                                 NetServerOptions options = NetServerOptions());
};

/// The untrusted service provider as an actual network daemon: owns a
/// BundleCatalog of hosted databases (encrypted database + metadata —
/// never keys or plaintext), listens on TCP, and evaluates translated
/// queries for any number of clients against any of its databases (each
/// request names its database; an empty name gets default_db).
///
/// Threading model (the reactor): one acceptor thread hands accepted
/// sockets to a small set of I/O threads round-robin. Each I/O thread
/// runs an epoll loop over its connections — non-blocking reads into a
/// per-connection buffer, frame parsing, and scatter-gather writes
/// (sendmsg with one iovec per segment, so block ciphertexts are never
/// copied into a contiguous send buffer). Parsed requests are dispatched
/// to a fixed worker pool for evaluation; I/O threads never block on the
/// catalog or a join, so ten thousand idle sockets cost ten thousand
/// epoll registrations, not ten thousand threads.
///
/// A session may pipeline up to max_pipeline_depth requests per
/// connection; responses carry the request's frame id and may complete
/// out of order. A frame of any other wire version gets one Unsupported
/// error and the connection closes. Each request resolves its database
/// through the catalog and pins the engine for the duration of the call,
/// so hot reloads and LRU evictions never break an in-flight query.
///
/// Shutdown() drains gracefully: stop accepting, let every dispatched
/// request finish and its response flush, then close sessions and join.
class NetServer {
 public:
  /// The single entry point: validates config.options, builds the catalog
  /// (from `bundle` or `catalog` — exactly one), binds, and starts the
  /// reactor.
  static Result<std::unique_ptr<NetServer>> Serve(ServerConfig config);

  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  uint16_t port() const { return port_; }

  /// The catalog behind the daemon (reload/unload administration).
  BundleCatalog& catalog() { return *catalog_; }

  /// Current counters and latency histograms (the same numbers a remote
  /// client gets via kStatsRequest). `opts.db` selects which database the
  /// num_blocks/ciphertext_bytes fields describe (empty = default).
  NetStats stats(const NetCallOptions& opts = NetCallOptions()) const;

  /// Full metrics snapshot: the daemon's latency histograms plus the
  /// request/byte counters, mergeable across scrapes.
  obs::MetricsSnapshot SnapshotMetrics() const;

  /// SnapshotMetrics() rendered as JSON (the --metrics-json dump format).
  std::string MetricsJson() const { return SnapshotMetrics().RenderJson(); }

  /// Graceful drain; idempotent, also run by the destructor.
  void Shutdown();

 private:
  struct Conn;      // one connection's reactor state (server.cc)
  struct IoThread;  // one epoll loop's state (server.cc)
  /// A parsed request handed from an I/O thread to the worker pool.
  struct Task {
    std::shared_ptr<Conn> conn;
    Frame frame;
  };

  NetServer() = default;

  static Result<std::unique_ptr<NetServer>> Start(
      std::unique_ptr<BundleCatalog> catalog, const std::string& host,
      uint16_t port, const NetServerOptions& options);

  void AcceptLoop();
  void IoLoop(IoThread* io);
  void WorkerLoop();

  // --- I/O-thread side (each Conn is touched by exactly one IoThread) --
  void RegisterConn(IoThread* io, Socket sock);
  /// Runs a connection's full state machine: read, parse, dispatch,
  /// flush, epoll-interest update, and the drained-close checks.
  void ProcessConn(IoThread* io, const std::shared_ptr<Conn>& conn);
  /// Non-blocking read into the connection buffer. Returns false when
  /// the connection died (already closed).
  bool ReadInput(IoThread* io, const std::shared_ptr<Conn>& conn);
  /// Extracts complete frames from the read buffer into conn->parsed.
  /// Returns false on a framing violation (error queued, close pending).
  bool ParseFrames(const std::shared_ptr<Conn>& conn);
  void DispatchFrames(const std::shared_ptr<Conn>& conn);
  /// Scatter-gather flush of the output queue. Returns false when the
  /// peer is gone (connection must close).
  bool FlushOutput(Conn* conn);
  void UpdateInterest(IoThread* io, Conn* conn);
  /// Takes its own reference (by value): callers often pass the map's
  /// entry itself, which erasing would otherwise destroy mid-close.
  void CloseConn(IoThread* io, std::shared_ptr<Conn> conn);
  /// Pushes invalidation events this session has not seen yet.
  void FlushConnInvalidations(Conn* conn);
  /// Periodic sweep: idle reaping, mid-frame and stalled-write timeouts.
  void SweepConns(IoThread* io);
  void SignalIo(IoThread* io);

  // --- worker side ----------------------------------------------------
  /// Runs one request through admission control and Dispatch, then
  /// enqueues its reply (or its error frame) on the connection.
  void HandleFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  /// Evaluates one admitted request and returns its framed reply.
  Result<FrameParts> Dispatch(const Frame& frame);
  /// Decodes and applies a pushed delta, then records the invalidation.
  Result<UpdateResponseMsg> ApplyUpdate(const Bytes& payload);
  /// Appends a framed reply to the connection's output queue (counts
  /// bytes_sent).
  void EnqueueReply(const std::shared_ptr<Conn>& conn, FrameParts parts);
  /// Marks the request done (pipelining bookkeeping) and wakes the
  /// owning I/O thread to dispatch what the slot was blocking.
  void FinishRequest(const std::shared_ptr<Conn>& conn);

  /// Appends an invalidation event to the bounded log, bumps the
  /// sequence counter, and wakes every I/O thread to push it.
  void RecordInvalidation(InvalidationEventMsg event);

  /// Maps a request's db field to a pinned resident database (empty →
  /// default_db) and counts the hit under "db.<name>.queries".
  Result<std::shared_ptr<const ResidentDb>> ResolveDb(
      const std::string& db) const;

  /// Admission gate for query-class requests. Returns true with a slot
  /// held (release with ReleaseQuery), false when the request must be
  /// shed. Blocks in the bounded wait queue when inflight is full.
  bool AdmitQuery();
  void ReleaseQuery();

  std::unique_ptr<BundleCatalog> catalog_;
  NetServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;

  /// stop_: stop accepting, reading, and dispatching (drain begins).
  /// io_stop_: set once workers drained; I/O threads flush and exit.
  std::atomic<bool> stop_{false};
  std::atomic<bool> io_stop_{false};
  std::thread acceptor_;
  std::vector<std::unique_ptr<IoThread>> io_;
  std::atomic<size_t> next_io_{0};  ///< round-robin accept placement
  std::vector<std::thread> workers_;

  /// Worker task queue (parsed requests).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> tasks_;

  /// Admission state: inflight query-class requests + waiters.
  mutable std::mutex admit_mu_;
  std::condition_variable admit_cv_;
  int inflight_ = 0;
  int waiting_ = 0;

  /// Cache-invalidation push state. inv_seq_ counts recorded events; each
  /// session tracks how far the reactor has pushed to it.
  struct PendingInvalidation {
    uint64_t seq = 0;
    InvalidationEventMsg event;
  };
  std::mutex inv_mu_;
  std::deque<PendingInvalidation> inv_log_;
  std::atomic<uint64_t> inv_seq_{0};

  // Counters. Relaxed order: they are statistics, not synchronization.
  mutable std::atomic<uint64_t> queries_served_{0};
  mutable std::atomic<uint64_t> aggregates_served_{0};
  mutable std::atomic<uint64_t> naive_served_{0};
  mutable std::atomic<uint64_t> errors_{0};
  mutable std::atomic<uint64_t> connections_total_{0};
  mutable std::atomic<uint64_t> connections_active_{0};
  mutable std::atomic<uint64_t> bytes_received_{0};
  mutable std::atomic<uint64_t> bytes_sent_{0};
  mutable std::atomic<uint64_t> queries_shed_{0};
  mutable std::atomic<uint64_t> updates_applied_{0};

  /// Latency histograms, one per message type. The pointers are interned
  /// once at startup; workers then touch only lock-free atomics.
  mutable obs::MetricsRegistry metrics_;
  obs::Histogram* query_latency_ = nullptr;
  obs::Histogram* naive_latency_ = nullptr;
  obs::Histogram* aggregate_latency_ = nullptr;
  obs::Histogram* ping_latency_ = nullptr;
  obs::Histogram* stats_latency_ = nullptr;
  obs::Histogram* update_latency_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
};

}  // namespace net
}  // namespace xcrypt

#endif  // XCRYPT_NET_SERVER_H_
