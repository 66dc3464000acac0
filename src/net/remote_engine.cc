#include "net/remote_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "net/channel.h"

namespace xcrypt {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

/// Enters one finished remote call into the caller's trace: the daemon's
/// processing time as a recorded "server" span (with its phase
/// decomposition as children) and the remainder of the round trip as
/// "transmit".
void RecordRemoteSpans(obs::QueryContext* ctx, const EngineCallStats& stats) {
  obs::Trace* trace = obs::TraceOf(ctx);
  if (trace == nullptr) return;
  const int server_id = trace->Record("server", stats.server_process_us,
                                      obs::Trace::kNoParent);
  for (const obs::PhaseTiming& phase : stats.server_phases) {
    trace->Record(phase.name, phase.elapsed_us, server_id);
  }
  trace->Record("transmit",
                std::max(0.0, stats.round_trip_us - stats.server_process_us),
                obs::Trace::kNoParent);
}

uint64_t DeriveBackoffSeed(const RemoteOptions& options, const void* self) {
  if (options.retry.backoff_seed != 0) return options.retry.backoff_seed;
  uint64_t state =
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
      reinterpret_cast<uintptr_t>(self);
  return SplitMix64(state);
}

}  // namespace

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be >= 1");
  }
  if (!(initial_backoff_ms >= 0)) {  // also rejects NaN
    return Status::InvalidArgument("initial_backoff_ms must be >= 0");
  }
  if (!(max_backoff_ms >= 0)) {
    return Status::InvalidArgument("max_backoff_ms must be >= 0");
  }
  return Status::Ok();
}

Status RemoteOptions::Validate() const {
  if (!(connect_timeout_sec > 0)) {  // also rejects NaN
    return Status::InvalidArgument("connect_timeout_sec must be > 0");
  }
  if (!(request_timeout_sec > 0)) {
    return Status::InvalidArgument("request_timeout_sec must be > 0");
  }
  XCRYPT_RETURN_NOT_OK(retry.Validate());
  if (max_frame_bytes == 0) {
    return Status::InvalidArgument("max_frame_bytes must be > 0");
  }
  return Status::Ok();
}

double NextBackoffMs(double prev_ms, double base_ms, double cap_ms, Rng& rng) {
  if (base_ms <= 0.0) base_ms = 1.0;
  const double upper = std::max(base_ms, prev_ms * 3.0);
  return std::min(cap_ms, rng.UniformDouble(base_ms, upper));
}

/// One caller's rendezvous with the reader thread. The caller waits on
/// `cv`; the reader (or FailTransport) fills the result and sets `done`.
struct RemoteServerEngine::PendingCall {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status error = Status::Ok();  ///< transport-level failure, when !ok
  Frame reply;                  ///< valid when done && error.ok()
};

/// One live connection: the socket, the id-keyed pending-call table, and
/// the (detached) reader thread's control state. Calls in flight hold a
/// shared_ptr; the reader holds none (the engine's destructor waits for
/// readers via live_readers_, so the raw pointer it runs on stays valid).
struct RemoteServerEngine::Transport {
  Socket sock;
  std::atomic<bool> stop{false};

  std::mutex mu;  ///< guards pending, next_id, broken
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> pending;
  uint64_t next_id = 1;  ///< 0 is reserved for unsolicited frames
  bool broken = false;

  /// Serializes the send syscall only, so concurrent callers' frames
  /// never interleave on the wire; waiting for replies is lock-free.
  std::mutex send_mu;
};

RemoteServerEngine::RemoteServerEngine(std::string host, uint16_t port,
                                       RemoteOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      backoff_rng_(DeriveBackoffSeed(options_, this)) {}

RemoteServerEngine::~RemoteServerEngine() {
  std::shared_ptr<Transport> transport;
  {
    std::lock_guard<std::mutex> lock(mu_);
    transport = std::move(transport_);
  }
  if (transport) transport->stop.store(true, std::memory_order_release);
  transport.reset();
  // Readers of this and every previously failed transport notice stop
  // within one poll tick; wait them out so none outlives the engine.
  std::unique_lock<std::mutex> lock(readers_mu_);
  readers_cv_.wait(lock, [this] { return live_readers_ == 0; });
}

Result<std::unique_ptr<RemoteServerEngine>> RemoteServerEngine::Connect(
    const std::string& host, uint16_t port, const RemoteOptions& options) {
  XCRYPT_RETURN_NOT_OK(options.Validate());
  std::unique_ptr<RemoteServerEngine> engine(
      new RemoteServerEngine(host, port, options));
  XCRYPT_RETURN_NOT_OK(engine->Ping());
  return engine;
}

Result<std::shared_ptr<RemoteServerEngine::Transport>>
RemoteServerEngine::GetTransport() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (transport_ != nullptr) return transport_;
  auto sock = Socket::Dial(host_, port_, options_.connect_timeout_sec,
                           options_.request_timeout_sec);
  if (!sock.ok()) return sock.status();
  auto transport = std::make_shared<Transport>();
  transport->sock = std::move(*sock);
  {
    std::lock_guard<std::mutex> rlock(readers_mu_);
    ++live_readers_;
  }
  // The lambda's shared_ptr keeps the Transport alive for the reader's
  // whole run even after the engine forgets it on failure.
  std::thread([this, transport] {
    ReaderLoop(transport.get());
    std::lock_guard<std::mutex> rlock(readers_mu_);
    --live_readers_;
    readers_cv_.notify_all();
  }).detach();
  transport_ = transport;
  return transport_;
}

void RemoteServerEngine::FailTransport(Transport* transport,
                                       const Status& error) const {
  transport->stop.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<PendingCall>> pending;
  {
    std::lock_guard<std::mutex> lock(transport->mu);
    transport->broken = true;
    pending.reserve(transport->pending.size());
    for (auto& [id, call] : transport->pending) pending.push_back(call);
    transport->pending.clear();
  }
  const Status failure =
      error.ok() ? Status::Unavailable("transport failed") : error;
  for (const auto& call : pending) {
    {
      std::lock_guard<std::mutex> lock(call->mu);
      call->error = failure;
      call->done = true;
    }
    call->cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (transport_.get() == transport) transport_.reset();
}

void RemoteServerEngine::ReaderLoop(Transport* transport) const {
  while (!transport->stop.load(std::memory_order_acquire)) {
    // allow_idle: a multiplexed session is legitimately quiet between
    // calls; only a *partial* frame is held to the request timeout.
    auto frame = ReadFrame(transport->sock, options_.max_frame_bytes,
                           options_.request_timeout_sec, &transport->stop,
                           /*allow_idle=*/true);
    if (!frame.ok()) {
      FailTransport(transport, frame.status());
      return;
    }
    if (frame->type == MessageType::kInvalidationEvent) {
      auto event = DecodeInvalidationEvent(frame->payload);
      if (!event.ok()) {
        FailTransport(transport, event.status());
        return;
      }
      std::function<void(const InvalidationEventMsg&)> sink;
      {
        std::lock_guard<std::mutex> lock(sink_mu_);
        sink = invalidation_sink_;
      }
      if (sink) sink(*event);
      continue;
    }
    std::shared_ptr<PendingCall> call;
    {
      std::lock_guard<std::mutex> lock(transport->mu);
      auto it = transport->pending.find(frame->frame_id);
      if (it != transport->pending.end()) {
        call = it->second;
        transport->pending.erase(it);
      }
    }
    if (call == nullptr) continue;  // stray id: its caller already gave up
    {
      std::lock_guard<std::mutex> lock(call->mu);
      call->reply = std::move(*frame);
      call->done = true;
    }
    call->cv.notify_all();
  }
}

Result<Frame> RemoteServerEngine::RoundTrip(
    MessageType type, const std::function<Bytes()>& payload_builder,
    MessageType expected_reply, EngineCallStats* stats) const {
  stats->transport = EngineCallStats::Transport::kRemote;
  Status last_error = Status::Unavailable("no attempt made");
  double backoff_ms = 0.0;        // previous sleep; 0 before any retry
  double server_hint_ms = 0.0;    // daemon-suggested floor

  for (int attempt = 0; attempt < options_.retry.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Decorrelated jitter spreads a fleet of retrying clients out;
      // a server-sent retry-after hint floors the sleep so a shedding
      // daemon is not hammered faster than it asked for.
      {
        std::lock_guard<std::mutex> lock(rng_mu_);
        backoff_ms =
            NextBackoffMs(backoff_ms, options_.retry.initial_backoff_ms,
                          options_.retry.max_backoff_ms, backoff_rng_);
      }
      backoff_ms = std::max(
          backoff_ms, std::min(server_hint_ms, options_.retry.max_backoff_ms));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      ++stats->retries;
    }
    server_hint_ms = 0.0;
    // Rebuilt each attempt: state the payload embeds (the cache advert)
    // may have moved during the backoff — see SetAdvertRefresher.
    const Bytes payload = payload_builder();

    auto maybe_transport = GetTransport();
    if (!maybe_transport.ok()) {
      last_error = maybe_transport.status();
      if (last_error.code() == StatusCode::kUnavailable) continue;
      return last_error;
    }
    std::shared_ptr<Transport> transport = std::move(*maybe_transport);

    auto call = std::make_shared<PendingCall>();
    uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(transport->mu);
      if (transport->broken) {
        last_error = Status::Unavailable("connection failed");
        continue;
      }
      id = transport->next_id++;
      transport->pending.emplace(id, call);
    }
    const int now = inflight_now_.fetch_add(1, std::memory_order_relaxed) + 1;
    int peak = inflight_peak_.load(std::memory_order_relaxed);
    while (now > peak && !inflight_peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }

    Stopwatch watch;
    Status sent;
    {
      std::lock_guard<std::mutex> lock(transport->send_mu);
      const Bytes frame = EncodeFrame(type, payload, id);
      sent = transport->sock.SendAll(frame.data(), frame.size());
    }
    if (!sent.ok()) {
      inflight_now_.fetch_sub(1, std::memory_order_relaxed);
      FailTransport(transport.get(), sent);
      last_error = sent;
      if (last_error.code() == StatusCode::kUnavailable) continue;
      return last_error;
    }

    Frame reply;
    {
      std::unique_lock<std::mutex> lock(call->mu);
      const bool done = call->cv.wait_until(
          lock,
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options_.request_timeout_sec)),
          [&call] { return call->done; });
      inflight_now_.fetch_sub(1, std::memory_order_relaxed);
      if (!done) {
        lock.unlock();
        {
          std::lock_guard<std::mutex> tlock(transport->mu);
          transport->pending.erase(id);
        }
        // The connection has an unanswered id on it; a late reply would
        // desynchronize accounting, so retire the whole transport.
        last_error = Status::Unavailable("request timed out");
        FailTransport(transport.get(), last_error);
        continue;
      }
      if (!call->error.ok()) {
        last_error = call->error;
        if (last_error.code() == StatusCode::kUnavailable) continue;
        return last_error;
      }
      reply = std::move(call->reply);
    }

    stats->round_trip_us = watch.ElapsedMicros();
    stats->bytes_sent =
        static_cast<int64_t>(kFrameHeaderBytes + payload.size());
    stats->bytes_received =
        static_cast<int64_t>(kFrameHeaderBytes + reply.payload.size());
    if (reply.type == MessageType::kError) {
      double hint_ms = 0.0;
      last_error = DecodeError(reply.payload, &hint_ms);
      if (last_error.code() == StatusCode::kUnavailable) {
        // Admission-control shed: transient by definition, and the frame
        // arrived intact — keep the connection and retry after the
        // suggested backoff.
        server_hint_ms = hint_ms;
        continue;
      }
      // Any other server-side failure is deterministic; retrying
      // cannot help.
      return last_error;
    }
    if (reply.type != expected_reply) {
      const Status error = Status::Corruption(
          std::string("expected ") + MessageTypeName(expected_reply) +
          ", got " + MessageTypeName(reply.type));
      FailTransport(transport.get(), error);
      return error;
    }
    return reply;
  }
  return Status::Unavailable(
      "request failed after " + std::to_string(options_.retry.max_attempts) +
      " attempts to " + host_ + ":" + std::to_string(port_) + " (" +
      last_error.ToString() + ")");
}

std::vector<BlockAdvert> RemoteServerEngine::AdvertsFor(
    std::span<const BlockAdvert> original) const {
  std::vector<BlockAdvert> adverts(original.begin(), original.end());
  std::function<std::vector<BlockAdvert>(std::vector<BlockAdvert>)> refresher;
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    refresher = advert_refresher_;
  }
  if (refresher && !adverts.empty()) adverts = refresher(std::move(adverts));
  return adverts;
}

Result<EngineQueryResult> RemoteServerEngine::Execute(
    const TranslatedQuery& query, const ExecOptions& opts) const {
  if (opts.ctx != nullptr && opts.ctx->Expired()) {
    return Status::Unavailable("deadline expired before remote call");
  }
  if (!opts.cover_queries.empty()) return ExecuteBatch(query, opts);
  EngineQueryResult out;
  auto reply = RoundTrip(
      MessageType::kQueryRequest,
      [&] {
        return EncodeQueryRequest(query, AdvertsFor(opts.cached_blocks),
                                  DbFor(opts));
      },
      MessageType::kQueryResponse, &out.stats);
  if (!reply.ok()) return reply.status();
  auto msg = DecodeQueryResponse(reply->payload);
  if (!msg.ok()) return msg.status();
  out.stats.server_process_us = msg->server_process_us;
  out.stats.server_phases = std::move(msg->server_phases);
  RecordRemoteSpans(opts.ctx, out.stats);
  out.response = std::move(msg->response);
  return out;
}

Result<EngineQueryResult> RemoteServerEngine::ExecuteBatch(
    const TranslatedQuery& query, const ExecOptions& opts) const {
  // The real probe's position is fresh jitter per call: a fixed slot (or
  // any slot correlated with send order) would be a trivial tell.
  size_t position = 0;
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    position = static_cast<size_t>(
        backoff_rng_.UniformU64(0, opts.cover_queries.size()));
  }
  std::vector<TranslatedQuery> probes;
  probes.reserve(opts.cover_queries.size() + 1);
  probes.insert(probes.end(), opts.cover_queries.begin(),
                opts.cover_queries.begin() + position);
  probes.push_back(query);
  probes.insert(probes.end(), opts.cover_queries.begin() + position,
                opts.cover_queries.end());

  EngineQueryResult out;
  Stopwatch watch;
  auto reply = RoundTrip(
      MessageType::kProbeBatchRequest,
      [&] {
        return EncodeProbeBatchRequest(probes, AdvertsFor(opts.cached_blocks),
                                       DbFor(opts),
                                       opts.privacy.pad_responses);
      },
      MessageType::kProbeBatchResponse, &out.stats);
  if (!reply.ok()) return reply.status();
  auto msg = DecodeProbeBatchResponse(reply->payload);
  if (!msg.ok()) return msg.status();
  if (msg->answers.size() != probes.size()) {
    return Status::Corruption("probe batch answer count mismatch");
  }
  obs::MetricsRegistry::Global()
      .GetCounter("privacy.decoys_sent")
      ->Add(static_cast<uint64_t>(opts.cover_queries.size()));
  // Cover answers are discarded here, undecrypted; only the real probe's
  // answer leaves this frame.
  QueryResponseMsg& real = msg->answers[position];
  out.stats.server_process_us = real.server_process_us;
  out.stats.server_phases = std::move(real.server_phases);
  RecordRemoteSpans(opts.ctx, out.stats);
  if (obs::Trace* trace = obs::TraceOf(opts.ctx)) {
    trace->Record("decoy-batch", watch.ElapsedMicros(), obs::Trace::kNoParent);
  }
  out.response = std::move(real.response);
  return out;
}

Result<EngineQueryResult> RemoteServerEngine::ExecuteNaive(
    const ExecOptions& opts) const {
  if (opts.ctx != nullptr && opts.ctx->Expired()) {
    return Status::Unavailable("deadline expired before remote call");
  }
  EngineQueryResult out;
  auto reply = RoundTrip(MessageType::kNaiveRequest,
                         [&] { return EncodeNaiveRequest(DbFor(opts)); },
                         MessageType::kQueryResponse, &out.stats);
  if (!reply.ok()) return reply.status();
  auto msg = DecodeQueryResponse(reply->payload);
  if (!msg.ok()) return msg.status();
  out.stats.server_process_us = msg->server_process_us;
  out.stats.server_phases = std::move(msg->server_phases);
  RecordRemoteSpans(opts.ctx, out.stats);
  out.response = std::move(msg->response);
  return out;
}

Result<EngineAggregateResult> RemoteServerEngine::ExecuteAggregate(
    const TranslatedQuery& query, AggregateKind kind,
    const std::string& index_token, const ExecOptions& opts) const {
  if (opts.ctx != nullptr && opts.ctx->Expired()) {
    return Status::Unavailable("deadline expired before remote call");
  }
  EngineAggregateResult out;
  auto reply = RoundTrip(
      MessageType::kAggregateRequest,
      [&] {
        return EncodeAggregateRequest(query, kind, index_token,
                                      AdvertsFor(opts.cached_blocks),
                                      DbFor(opts));
      },
      MessageType::kAggregateResponse, &out.stats);
  if (!reply.ok()) return reply.status();
  auto msg = DecodeAggregateResponse(reply->payload);
  if (!msg.ok()) return msg.status();
  out.stats.server_process_us = msg->server_process_us;
  out.stats.server_phases = std::move(msg->server_phases);
  RecordRemoteSpans(opts.ctx, out.stats);
  out.response = std::move(msg->response);
  return out;
}

Status RemoteServerEngine::Ping() const {
  EngineCallStats stats;
  auto reply = RoundTrip(MessageType::kPingRequest, [] { return Bytes(); },
                         MessageType::kPingResponse, &stats);
  return reply.ok() ? Status::Ok() : reply.status();
}

Result<uint64_t> RemoteServerEngine::PushDelta(
    const Bytes& delta_image, const NetCallOptions& opts) const {
  UpdateRequestMsg msg;
  msg.db = opts.db.empty() ? options_.database : opts.db;
  msg.delta = delta_image;
  EngineCallStats stats;
  auto reply = RoundTrip(MessageType::kUpdateRequest,
                         [&] { return EncodeUpdateRequest(msg); },
                         MessageType::kUpdateResponse, &stats);
  if (!reply.ok()) return reply.status();
  auto response = DecodeUpdateResponse(reply->payload);
  if (!response.ok()) return response.status();
  return response->generation;
}

Result<NetStats> RemoteServerEngine::Stats(const NetCallOptions& opts) const {
  EngineCallStats stats;
  auto reply = RoundTrip(
      MessageType::kStatsRequest,
      [&] {
        return EncodeStatsRequest(opts.db.empty() ? options_.database
                                                  : opts.db);
      },
      MessageType::kStatsResponse, &stats);
  if (!reply.ok()) return reply.status();
  return DecodeStats(reply->payload);
}

Result<privacy::PirTransport::Setup> RemoteServerEngine::PirSetup(
    const std::string& section) {
  PirSetupRequestMsg msg;
  msg.db = options_.database;
  msg.section = section;
  EngineCallStats stats;
  auto reply = RoundTrip(MessageType::kPirSetupRequest,
                         [&] { return EncodePirSetupRequest(msg); },
                         MessageType::kPirSetupResponse, &stats);
  if (!reply.ok()) return reply.status();
  auto response = DecodePirSetupResponse(reply->payload);
  if (!response.ok()) return response.status();
  privacy::PirTransport::Setup setup;
  setup.params = response->params;
  setup.hint = std::move(response->hint);
  return setup;
}

Result<std::vector<uint32_t>> RemoteServerEngine::PirFetch(
    const std::string& section, std::span<const uint32_t> query) {
  PirFetchRequestMsg msg;
  msg.db = options_.database;
  msg.section = section;
  msg.query.assign(query.begin(), query.end());
  EngineCallStats stats;
  auto reply = RoundTrip(MessageType::kPirFetchRequest,
                         [&] { return EncodePirFetchRequest(msg); },
                         MessageType::kPirFetchResponse, &stats);
  if (!reply.ok()) return reply.status();
  auto response = DecodePirFetchResponse(reply->payload);
  if (!response.ok()) return response.status();
  return std::move(response->answer);
}

}  // namespace net
}  // namespace xcrypt
