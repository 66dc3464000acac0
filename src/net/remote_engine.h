#ifndef XCRYPT_NET_REMOTE_ENGINE_H_
#define XCRYPT_NET_REMOTE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "privacy/fetcher.h"

namespace xcrypt {
namespace net {

/// Retry discipline for one remote stub, grouped as one value so
/// DasSystem's ClientTuning carries the whole policy instead of four
/// loose knobs.
struct RetryPolicy {
  RetryPolicy() {}
  /// Total tries per request (1 first attempt + up to N-1 retries).
  /// Only transient failures (Unavailable) are retried — transport drops
  /// and admission-control sheds alike — with decorrelated-jitter
  /// backoff; queries are read-only, so replaying one is always safe.
  /// Other server-reported errors are deterministic and returned
  /// immediately.
  int max_attempts = 4;
  double initial_backoff_ms = 50.0;
  double max_backoff_ms = 2000.0;
  /// Seed for the backoff jitter (0 = derive one from the clock and this
  /// stub's address). Fixed seeds make retry schedules reproducible in
  /// tests; distinct stubs still get distinct streams.
  uint64_t backoff_seed = 0;

  /// Rejects max_attempts < 1 and negative backoffs.
  Status Validate() const;
};

struct RemoteOptions {
  RemoteOptions() {}
  double connect_timeout_sec = 5.0;
  double request_timeout_sec = 30.0;
  /// Retry discipline; see RetryPolicy.
  RetryPolicy retry;
  uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Which of the daemon's databases this session targets.
  /// Empty = the daemon's default database. A per-call ExecOptions::db
  /// overrides it for that call.
  std::string database;

  /// Rejects nonsensical settings (non-positive timeouts, zero frame
  /// bound, a bad retry policy). Connect() refuses a bad config up front
  /// instead of misbehaving on the first retry.
  Status Validate() const;
};

/// One decorrelated-jitter backoff step (AWS style): uniform in
/// [base, max(base, prev*3)], capped at `cap`. Consecutive sleeps are
/// randomized AND grow from the previous sleep, so a fleet of clients
/// retrying a recovering daemon spreads out instead of stampeding in
/// lockstep the way deterministic exponential backoff does.
double NextBackoffMs(double prev_ms, double base_ms, double cap_ms, Rng& rng);

/// ServerEngine's network twin: the same QueryEngine surface, evaluated
/// by an xcrypt_serve daemon on the other end of a TCP connection. The
/// connection is persistent and re-established transparently; DasSystem
/// swaps this in for the in-process engine without touching the protocol
/// of §6.
///
/// The transport is multiplexed: every request carries a frame
/// id, a dedicated reader thread matches responses back to callers by id,
/// and any number of threads sharing one stub have their requests in
/// flight on the single connection concurrently — they serialize only on
/// the send syscall, never for the daemon's processing time.
class RemoteServerEngine : public QueryEngine, public privacy::PirTransport {
 public:
  /// Validates options, dials host:port, and verifies the endpoint speaks
  /// the protocol (a ping round trip), so a misconfigured address fails
  /// here rather than on the first query.
  static Result<std::unique_ptr<RemoteServerEngine>> Connect(
      const std::string& host, uint16_t port,
      const RemoteOptions& options = RemoteOptions());

  ~RemoteServerEngine() override;

  /// Per-call measurements (round trip, wire bytes, retries, the daemon's
  /// reported processing time and phase decomposition) come back inside
  /// the result, so any number of threads can share one stub without
  /// sharing any mutable measurement. A context's trace receives the call
  /// as recorded "server" (+ phases) and "transmit" spans.
  Result<EngineQueryResult> Execute(
      const TranslatedQuery& query,
      const ExecOptions& opts = ExecOptions()) const override;
  Result<EngineQueryResult> ExecuteNaive(
      const ExecOptions& opts = ExecOptions()) const override;
  Result<EngineAggregateResult> ExecuteAggregate(
      const TranslatedQuery& query, AggregateKind kind,
      const std::string& index_token,
      const ExecOptions& opts = ExecOptions()) const override;

  Status Ping() const;
  /// Daemon counters; `opts.db` selects which database's size fields the
  /// reply describes (empty = the session database, or daemon default).
  Result<NetStats> Stats(const NetCallOptions& opts = NetCallOptions()) const;

  /// privacy::PirTransport over the wire: setup downloads a hosted
  /// section's params + hint, fetch ships one selection vector. Both
  /// target the session database and retry per RetryPolicy like every
  /// other call.
  Result<privacy::PirTransport::Setup> PirSetup(
      const std::string& section) override;
  Result<std::vector<uint32_t>> PirFetch(
      const std::string& section, std::span<const uint32_t> query) override;

  /// Ships a serialized delta bundle (storage/update/delta.h) to the
  /// daemon and returns the bundle generation after the apply; `opts.db`
  /// routes it (empty = session database). Safe to retry: a replayed
  /// delta is recognized by its generation and applied at most once (the
  /// retry gets the same generation back).
  Result<uint64_t> PushDelta(
      const Bytes& delta_image,
      const NetCallOptions& opts = NetCallOptions()) const;

  /// Installs the handler for server-pushed invalidation events. Runs on
  /// the transport's reader thread, between response dispatches — it must
  /// be fast and must not call back into this engine.
  void SetInvalidationSink(
      std::function<void(const InvalidationEventMsg&)> sink) {
    std::lock_guard<std::mutex> lock(sink_mu_);
    invalidation_sink_ = std::move(sink);
  }

  /// Installs the per-attempt cache-advert filter. Retried requests call
  /// it with the originally advertised blocks and send what it returns —
  /// DasSystem wires it to the live block cache, so an invalidation
  /// arriving mid-backoff shrinks the advert before the re-send instead
  /// of promising the daemon blocks the client no longer holds. The
  /// refresher must only ever REMOVE adverts: an added advert could be
  /// stubbed by the daemon with no pinned payload behind it.
  void SetAdvertRefresher(
      std::function<std::vector<BlockAdvert>(std::vector<BlockAdvert>)>
          refresher) {
    std::lock_guard<std::mutex> lock(sink_mu_);
    advert_refresher_ = std::move(refresher);
  }

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }
  /// The session's target database ("" = daemon default).
  const std::string& database() const { return options_.database; }

  /// High-water mark of requests this stub has had in flight on one
  /// connection at once (observability: proves pipelining overlap).
  int max_inflight_observed() const {
    return inflight_peak_.load(std::memory_order_relaxed);
  }

 private:
  struct PendingCall;  // one caller's wait state (remote_engine.cc)
  struct Transport;    // one live connection + reader (remote_engine.cc)

  RemoteServerEngine(std::string host, uint16_t port, RemoteOptions options);

  /// Returns the live transport, dialing a fresh connection (and starting
  /// its reader thread) when there is none.
  Result<std::shared_ptr<Transport>> GetTransport() const;
  /// Marks a transport dead: fails every pending call with `error`, stops
  /// its reader, and forgets it so the next attempt dials fresh.
  void FailTransport(Transport* transport, const Status& error) const;
  /// Reader-thread body: matches response frames to pending calls by
  /// frame id and dispatches unsolicited invalidation events.
  void ReaderLoop(Transport* transport) const;

  /// Sends one request and awaits its reply by frame id, retrying
  /// transient failures per RetryPolicy — including Unavailable error
  /// frames (admission sheds), whose retry-after hint floors the next
  /// backoff. `payload_builder` runs once per attempt, so a retry can
  /// re-derive state that may have moved during the backoff (the cache
  /// advert, via the advert refresher). On success fills the wire facts
  /// of `stats`.
  Result<Frame> RoundTrip(MessageType type,
                          const std::function<Bytes()>& payload_builder,
                          MessageType expected_reply,
                          EngineCallStats* stats) const;

  /// The advert list one attempt should carry: the call's original
  /// adverts, filtered through the installed refresher (if any).
  std::vector<BlockAdvert> AdvertsFor(
      std::span<const BlockAdvert> original) const;

  /// The probe-batch path of Execute: mixes the real query into
  /// opts.cover_queries at a jitter-chosen position, sends one
  /// kProbeBatchRequest, and keeps only the real probe's answer.
  Result<EngineQueryResult> ExecuteBatch(const TranslatedQuery& query,
                                         const ExecOptions& opts) const;

  /// The db field a call should carry: per-call override or the session
  /// database.
  const std::string& DbFor(const ExecOptions& opts) const {
    return opts.db.empty() ? options_.database : opts.db;
  }

  std::string host_;
  uint16_t port_ = 0;
  RemoteOptions options_;

  /// Guards transport_ (swap on reconnect). Calls in flight hold their
  /// own shared_ptr, so a reconnect never yanks the connection from under
  /// a concurrent caller.
  mutable std::mutex mu_;
  mutable std::shared_ptr<Transport> transport_;

  /// Jitter source for retry backoff; its own lock so concurrent
  /// retries never serialize on the transport.
  mutable std::mutex rng_mu_;
  mutable Rng backoff_rng_;

  mutable std::mutex sink_mu_;
  std::function<void(const InvalidationEventMsg&)> invalidation_sink_;
  std::function<std::vector<BlockAdvert>(std::vector<BlockAdvert>)>
      advert_refresher_;

  /// Reader threads are detached (a reader failing its own transport must
  /// not join itself); the destructor waits for all of them to exit so no
  /// reader outlives the engine.
  mutable std::mutex readers_mu_;
  mutable std::condition_variable readers_cv_;
  mutable int live_readers_ = 0;

  mutable std::atomic<int> inflight_now_{0};
  mutable std::atomic<int> inflight_peak_{0};
};

}  // namespace net
}  // namespace xcrypt

#endif  // XCRYPT_NET_REMOTE_ENGINE_H_
