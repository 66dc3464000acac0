#include "net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "common/timer.h"

namespace xcrypt {
namespace net {

namespace {
/// How often blocked threads re-check the stop flag.
constexpr double kStopPollSec = 0.1;
/// epoll_wait tick, so I/O threads notice the stop flag promptly.
constexpr int kEpollTickMs = 100;
/// How often an I/O thread sweeps its connections for timeouts.
constexpr auto kSweepInterval = std::chrono::milliseconds(250);
/// Bytes pulled off a socket per recv call.
constexpr size_t kReadChunk = 64 * 1024;
/// Read budget per connection per loop round, so one firehose connection
/// cannot starve its I/O thread's other sockets.
constexpr int kMaxReadChunksPerRound = 16;
/// iovec entries per sendmsg call.
constexpr int kMaxIov = 64;

using Clock = std::chrono::steady_clock;

Clock::duration SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

FrameParts ErrorFrame(const Status& error, uint64_t frame_id,
                      double retry_after_ms = 0.0) {
  return EncodeFrameParts(MessageType::kError,
                          {EncodeError(error, retry_after_ms)}, frame_id);
}

/// Runs one engine call the way every served query-class request runs:
/// traced (the phase decomposition rides back inside the response) and
/// with the client's cache advert. On success ticks `served` and records
/// the call's wall time in `latency`.
template <typename Call>
auto TracedCall(std::span<const BlockAdvert> cached,
                std::atomic<uint64_t>& served, obs::Histogram* latency,
                Call&& call) {
  Stopwatch watch;
  obs::Trace trace;
  obs::QueryContext qctx;
  qctx.trace = &trace;
  ExecOptions exec;
  exec.ctx = &qctx;
  exec.cached_blocks = cached;
  auto result = call(exec);
  if (result.ok()) {
    served.fetch_add(1, std::memory_order_relaxed);
    latency->Observe(watch.ElapsedMicros());
  }
  return result;
}

/// Frames a query or naive evaluation as a kQueryResponse, moving large
/// ciphertexts into their own writev segments.
Result<FrameParts> QueryReply(Result<EngineQueryResult> result,
                              uint64_t frame_id) {
  if (!result.ok()) return result.status();
  return EncodeFrameParts(
      MessageType::kQueryResponse,
      EncodeQueryResponseParts(std::move(result->response),
                               result->stats.server_process_us,
                               result->stats.server_phases),
      frame_id);
}

}  // namespace

/// One connection's reactor state. Everything above `mu` is touched only
/// by the owning I/O thread; the fields under `mu` are shared with the
/// worker pool (reply enqueue, pipelining bookkeeping).
struct NetServer::Conn {
  Socket sock;
  IoThread* io = nullptr;

  Bytes in;           ///< unparsed input bytes
  size_t in_off = 0;  ///< consumed prefix of `in`
  /// The peer has sent a valid frame. Only such sessions get invalidation
  /// pushes: an idle, never-spoken connection is not caching anything.
  bool spoken = false;
  uint64_t inv_seen = 0;
  std::deque<Frame> parsed;  ///< complete frames awaiting dispatch
  bool read_closed = false;  ///< EOF or broken framing: no more reads
  uint32_t interest = 0;     ///< currently registered epoll mask
  Clock::time_point last_activity;
  Clock::time_point frame_start;  ///< when the current partial frame began
  bool mid_frame = false;

  std::mutex mu;
  std::deque<Bytes> out;  ///< pending output segments (writev queue)
  size_t out_off = 0;     ///< bytes of out.front() already on the wire
  int inflight = 0;     ///< dispatched requests awaiting replies
  bool close_after_flush = false;
  bool closed = false;  ///< fd closed; late replies are dropped
};

/// One epoll loop's state. `conns` belongs to the loop thread alone; the
/// fields under `mu` are the handoff surface (acceptor → inbox, workers →
/// ready, updates → inv_pending) drained once per loop round.
struct NetServer::IoThread {
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  Clock::time_point last_sweep;

  std::mutex mu;
  std::vector<Socket> inbox;
  std::vector<std::shared_ptr<Conn>> ready;
  bool inv_pending = false;

  ~IoThread() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (event_fd >= 0) ::close(event_fd);
  }
};

Status NetServerOptions::Validate() const {
  if (num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (io_threads < 1) {
    return Status::InvalidArgument("io_threads must be >= 1");
  }
  if (backlog < 1) {
    return Status::InvalidArgument("backlog must be >= 1");
  }
  if (!(io_timeout_sec > 0)) {  // also rejects NaN
    return Status::InvalidArgument("io_timeout_sec must be > 0");
  }
  if (!(idle_timeout_sec >= 0)) {
    return Status::InvalidArgument("idle_timeout_sec must be >= 0");
  }
  if (max_frame_bytes == 0) {
    return Status::InvalidArgument("max_frame_bytes must be > 0");
  }
  if (max_inflight_queries < 0) {
    return Status::InvalidArgument("max_inflight_queries must be >= 0");
  }
  if (max_queued_queries < 0) {
    return Status::InvalidArgument("max_queued_queries must be >= 0");
  }
  if (!(shed_backoff_ms >= 0)) {
    return Status::InvalidArgument("shed_backoff_ms must be >= 0");
  }
  if (max_invalidation_log < 0) {
    return Status::InvalidArgument("max_invalidation_log must be >= 0");
  }
  if (max_pipeline_depth < 1) {
    return Status::InvalidArgument("max_pipeline_depth must be >= 1");
  }
  return Status::Ok();
}

ServerConfig ServerConfig::ForBundle(HostedBundle bundle,
                                     const std::string& host, uint16_t port,
                                     NetServerOptions options) {
  ServerConfig config;
  config.host = host;
  config.port = port;
  config.bundle = std::move(bundle);
  config.options = std::move(options);
  return config;
}

ServerConfig ServerConfig::ForCatalog(std::unique_ptr<BundleCatalog> catalog,
                                      const std::string& host, uint16_t port,
                                      NetServerOptions options) {
  ServerConfig config;
  config.host = host;
  config.port = port;
  config.catalog = std::move(catalog);
  config.options = std::move(options);
  return config;
}

Result<std::unique_ptr<NetServer>> NetServer::Serve(ServerConfig config) {
  XCRYPT_RETURN_NOT_OK(config.options.Validate());
  if (config.bundle.has_value() == (config.catalog != nullptr)) {
    return Status::InvalidArgument(
        "ServerConfig must set exactly one of bundle or catalog");
  }
  std::unique_ptr<BundleCatalog> catalog;
  NetServerOptions opts = config.options;
  if (config.bundle.has_value()) {
    const std::string name =
        config.bundle->name.empty() ? "default" : config.bundle->name;
    catalog = std::make_unique<BundleCatalog>();
    XCRYPT_RETURN_NOT_OK(catalog->AddBundle(name, std::move(*config.bundle)));
    if (opts.default_db.empty()) opts.default_db = name;
  } else {
    catalog = std::move(config.catalog);
  }
  return Start(std::move(catalog), config.host, config.port, opts);
}

Result<std::unique_ptr<NetServer>> NetServer::Start(
    std::unique_ptr<BundleCatalog> catalog, const std::string& host,
    uint16_t port, const NetServerOptions& options) {
  auto listener = Socket::Listen(host, port, options.backlog);
  if (!listener.ok()) return listener.status();

  std::unique_ptr<NetServer> server(new NetServer());
  server->catalog_ = std::move(catalog);
  // Engines the catalog builds from here on report plan-cache hit/miss
  // into this daemon's registry (visible through the stats op).
  server->catalog_->SetMetricsRegistry(&server->metrics_);
  server->options_ = options;
  server->listener_ = std::move(*listener);
  auto bound = server->listener_.LocalPort();
  if (!bound.ok()) return bound.status();
  server->port_ = *bound;

  server->query_latency_ = server->metrics_.GetHistogram("query_us");
  server->naive_latency_ = server->metrics_.GetHistogram("naive_us");
  server->aggregate_latency_ = server->metrics_.GetHistogram("aggregate_us");
  server->ping_latency_ = server->metrics_.GetHistogram("ping_us");
  server->stats_latency_ = server->metrics_.GetHistogram("stats_us");
  server->update_latency_ = server->metrics_.GetHistogram("update_us");
  server->queue_depth_ = server->metrics_.GetGauge("queue_depth");

  for (int i = 0; i < options.io_threads; ++i) {
    auto io = std::make_unique<IoThread>();
    io->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    io->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (io->epoll_fd < 0 || io->event_fd < 0) {
      return Status::Internal("cannot create epoll/eventfd for I/O thread");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = io->event_fd;
    if (::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->event_fd, &ev) != 0) {
      return Status::Internal("cannot register eventfd with epoll");
    }
    io->last_sweep = Clock::now();
    server->io_.push_back(std::move(io));
  }
  for (auto& io : server->io_) {
    io->thread = std::thread([s = server.get(), t = io.get()] { s->IoLoop(t); });
  }
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  for (int i = 0; i < options.num_threads; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  return server;
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Shutdown() {
  if (stop_.exchange(true)) return;  // idempotent
  queue_cv_.notify_all();
  admit_cv_.notify_all();  // queued requests drain as Unavailable sheds
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  // Workers drain every dispatched request first, so each one's reply is
  // queued before the I/O threads run their final flush.
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  io_stop_.store(true, std::memory_order_release);
  for (auto& io : io_) SignalIo(io.get());
  for (auto& io : io_) {
    if (io->thread.joinable()) io->thread.join();
  }
}

void NetServer::SignalIo(IoThread* io) {
  const uint64_t one = 1;
  // The eventfd is nonblocking; a full counter still wakes the loop.
  (void)!::write(io->event_fd, &one, sizeof(one));
}

Result<std::shared_ptr<const ResidentDb>> NetServer::ResolveDb(
    const std::string& db) const {
  const std::string& name = db.empty() ? options_.default_db : db;
  if (name.empty()) {
    return Status::InvalidArgument(
        "request names no database and the daemon has no default");
  }
  auto resident = catalog_->Get(name);
  if (resident.ok()) {
    metrics_.GetCounter("db." + name + ".queries")->Add(1);
  }
  return resident;
}

bool NetServer::AdmitQuery() {
  if (options_.max_inflight_queries <= 0) return true;
  std::unique_lock<std::mutex> lock(admit_mu_);
  if (inflight_ < options_.max_inflight_queries) {
    ++inflight_;
    return true;
  }
  if (waiting_ >= options_.max_queued_queries) return false;  // shed
  ++waiting_;
  queue_depth_->Add(1);
  admit_cv_.wait(lock, [this] {
    return stop_.load(std::memory_order_relaxed) ||
           inflight_ < options_.max_inflight_queries;
  });
  --waiting_;
  queue_depth_->Sub(1);
  if (stop_.load(std::memory_order_relaxed)) return false;
  ++inflight_;
  return true;
}

void NetServer::ReleaseQuery() {
  if (options_.max_inflight_queries <= 0) return;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    --inflight_;
  }
  admit_cv_.notify_one();
}

NetStats NetServer::stats(const NetCallOptions& opts) const {
  NetStats s;
  s.queries_served = queries_served_.load(std::memory_order_relaxed);
  s.aggregates_served = aggregates_served_.load(std::memory_order_relaxed);
  s.naive_served = naive_served_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.connections_total = connections_total_.load(std::memory_order_relaxed);
  s.connections_active = connections_active_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.queries_shed = queries_shed_.load(std::memory_order_relaxed);
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    s.queue_depth = static_cast<uint64_t>(waiting_);
  }
  const std::string& name = opts.db.empty() ? options_.default_db : opts.db;
  if (!name.empty()) {
    auto resident = catalog_->Get(name);
    if (resident.ok()) {
      s.database = name;
      s.num_blocks = (*resident)->num_blocks();
      s.ciphertext_bytes =
          static_cast<uint64_t>((*resident)->ciphertext_bytes());
      s.db_generation = (*resident)->owner_generation();
    }
  }
  for (auto& [hist_name, hist] : metrics_.Snapshot().histograms) {
    s.latency.emplace_back(std::move(hist_name), hist);
  }
  return s;
}

obs::MetricsSnapshot NetServer::SnapshotMetrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  snap.counters.emplace_back(
      "queries_served", queries_served_.load(std::memory_order_relaxed));
  snap.counters.emplace_back(
      "aggregates_served",
      aggregates_served_.load(std::memory_order_relaxed));
  snap.counters.emplace_back("naive_served",
                             naive_served_.load(std::memory_order_relaxed));
  snap.counters.emplace_back("errors",
                             errors_.load(std::memory_order_relaxed));
  snap.counters.emplace_back(
      "connections_total",
      connections_total_.load(std::memory_order_relaxed));
  snap.counters.emplace_back(
      "connections_active",
      connections_active_.load(std::memory_order_relaxed));
  snap.counters.emplace_back("bytes_received",
                             bytes_received_.load(std::memory_order_relaxed));
  snap.counters.emplace_back("bytes_sent",
                             bytes_sent_.load(std::memory_order_relaxed));
  snap.counters.emplace_back("queries_shed",
                             queries_shed_.load(std::memory_order_relaxed));
  snap.counters.emplace_back(
      "updates_applied", updates_applied_.load(std::memory_order_relaxed));
  return snap;
}

void NetServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto conn = listener_.Accept(kStopPollSec);
    if (!conn.ok()) {
      // Accept failures are transient (peer vanished mid-handshake);
      // keep serving everyone else.
      errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!conn->valid()) continue;  // tick elapsed with no connection
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    IoThread* io =
        io_[next_io_.fetch_add(1, std::memory_order_relaxed) % io_.size()]
            .get();
    {
      std::lock_guard<std::mutex> lock(io->mu);
      io->inbox.push_back(std::move(*conn));
    }
    SignalIo(io);
  }
}

// --- reactor ------------------------------------------------------------

void NetServer::IoLoop(IoThread* io) {
  epoll_event events[128];
  while (!io_stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(io->epoll_fd, events,
                               static_cast<int>(std::size(events)),
                               kEpollTickMs);
    if (n < 0 && errno != EINTR) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == io->event_fd) {
        uint64_t drained = 0;
        (void)!::read(io->event_fd, &drained, sizeof(drained));
        continue;
      }
      auto it = io->conns.find(events[i].data.fd);
      if (it == io->conns.end()) continue;  // closed earlier this round
      ProcessConn(io, it->second);
    }

    // Drain the handoff surface: freshly accepted sockets, connections
    // with worker activity, and invalidation pushes.
    std::vector<Socket> inbox;
    std::vector<std::shared_ptr<Conn>> ready;
    bool inv = false;
    {
      std::lock_guard<std::mutex> lock(io->mu);
      inbox.swap(io->inbox);
      ready.swap(io->ready);
      inv = io->inv_pending;
      io->inv_pending = false;
    }
    for (Socket& sock : inbox) RegisterConn(io, std::move(sock));
    for (const auto& conn : ready) ProcessConn(io, conn);
    if (inv) {
      std::vector<std::shared_ptr<Conn>> snapshot;
      snapshot.reserve(io->conns.size());
      for (const auto& [fd, conn] : io->conns) {
        if (conn->spoken) snapshot.push_back(conn);
      }
      for (const auto& conn : snapshot) ProcessConn(io, conn);
    }

    const auto now = Clock::now();
    if (now - io->last_sweep >= kSweepInterval) {
      io->last_sweep = now;
      SweepConns(io);
    }
  }

  // Final drain: the workers have exited, so every reply that will ever
  // exist is queued. Flush what the wire will take within the I/O
  // timeout, then close everything.
  std::vector<std::shared_ptr<Conn>> conns;
  conns.reserve(io->conns.size());
  for (const auto& [fd, conn] : io->conns) conns.push_back(conn);
  const auto deadline = Clock::now() + SecondsToDuration(options_.io_timeout_sec);
  bool pending = true;
  while (pending && Clock::now() < deadline) {
    pending = false;
    for (const auto& conn : conns) {
      if (conn->closed) continue;
      bool empty;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        empty = conn->out.empty();
      }
      if (empty) continue;
      if (!FlushOutput(conn.get())) {
        CloseConn(io, conn);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->out.empty()) pending = true;
      }
    }
    if (pending) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& conn : conns) CloseConn(io, conn);
}

void NetServer::RegisterConn(IoThread* io, Socket sock) {
  if (stop_.load(std::memory_order_relaxed)) return;  // draining: drop it
  if (!sock.SetNonBlocking(true).ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto conn = std::make_shared<Conn>();
  conn->sock = std::move(sock);
  conn->io = io;
  // New sessions start past the log: events recorded before a client
  // connected describe blocks it cannot be caching yet.
  conn->inv_seen = inv_seq_.load(std::memory_order_acquire);
  conn->last_activity = Clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->sock.fd();
  if (::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return;  // Socket closes via RAII
  }
  conn->interest = EPOLLIN;
  io->conns.emplace(conn->sock.fd(), conn);
  connections_active_.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::ProcessConn(IoThread* io, const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  if (!conn->read_closed && !stop_.load(std::memory_order_relaxed)) {
    if (!ReadInput(io, conn)) return;  // hard error: connection closed
    ParseFrames(conn);
  }
  DispatchFrames(conn);
  if (!FlushOutput(conn.get())) {
    CloseConn(io, conn);
    return;
  }
  if (conn->spoken &&
      conn->inv_seen < inv_seq_.load(std::memory_order_acquire)) {
    FlushConnInvalidations(conn.get());
    if (!FlushOutput(conn.get())) {
      CloseConn(io, conn);
      return;
    }
  }
  bool done;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    done = (conn->read_closed || conn->close_after_flush) &&
           conn->inflight == 0 && conn->out.empty() && conn->parsed.empty();
  }
  if (done) {
    CloseConn(io, conn);
    return;
  }
  UpdateInterest(io, conn.get());
}

bool NetServer::ReadInput(IoThread* io, const std::shared_ptr<Conn>& conn) {
  // Backpressure: a full parsed backlog means dispatch is blocked on the
  // pipeline depth — leave further bytes in the kernel buffer so TCP flow
  // control reaches the peer.
  if (static_cast<int>(conn->parsed.size()) >= options_.max_pipeline_depth) {
    return true;
  }
  for (int round = 0; round < kMaxReadChunksPerRound; ++round) {
    const size_t old_size = conn->in.size();
    conn->in.resize(old_size + kReadChunk);
    const ssize_t rc =
        ::recv(conn->sock.fd(), conn->in.data() + old_size, kReadChunk, 0);
    if (rc > 0) {
      conn->in.resize(old_size + static_cast<size_t>(rc));
      conn->last_activity = Clock::now();
      if (static_cast<size_t>(rc) < kReadChunk) break;  // socket drained
      continue;
    }
    conn->in.resize(old_size);
    if (rc == 0) {
      // EOF. Pending requests still get served and flushed; the drained-
      // close check in ProcessConn reaps the connection afterwards.
      conn->read_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(io, conn);
    return false;
  }
  return true;
}

bool NetServer::ParseFrames(const std::shared_ptr<Conn>& conn) {
  while (static_cast<int>(conn->parsed.size()) < options_.max_pipeline_depth) {
    const size_t avail = conn->in.size() - conn->in_off;
    if (avail < kFramePrefixBytes) {
      if (avail > 0 && !conn->mid_frame) {
        conn->mid_frame = true;
        conn->frame_start = Clock::now();
      }
      break;
    }
    uint32_t payload_length = 0;
    auto frame = DecodeFrameHeader(conn->in.data() + conn->in_off,
                                   options_.max_frame_bytes, &payload_length);
    if (!frame.ok()) {
      // Framing violation (including any other wire version): report it,
      // then close once the error flushes — after a bad header the stream
      // is no longer frame-aligned.
      errors_.fetch_add(1, std::memory_order_relaxed);
      conn->read_closed = true;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->close_after_flush = true;
      }
      EnqueueReply(conn, ErrorFrame(frame.status(), /*frame_id=*/0));
      return false;
    }
    const size_t frame_bytes = kFrameHeaderBytes + payload_length;
    if (avail < frame_bytes) {
      if (!conn->mid_frame) {
        conn->mid_frame = true;
        conn->frame_start = Clock::now();
      }
      break;
    }
    const uint8_t* base = conn->in.data() + conn->in_off;
    frame->frame_id = DecodeFrameId(base + kFramePrefixBytes);
    frame->payload.assign(base + kFrameHeaderBytes,
                          base + kFrameHeaderBytes + payload_length);
    conn->in_off += frame_bytes;
    conn->mid_frame = false;
    conn->spoken = true;
    bytes_received_.fetch_add(frame_bytes, std::memory_order_relaxed);
    conn->parsed.push_back(std::move(*frame));
  }
  // Compact the consumed prefix once it is worth the memmove.
  if (conn->in_off == conn->in.size()) {
    conn->in.clear();
    conn->in_off = 0;
  } else if (conn->in_off > kReadChunk) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(conn->in_off));
    conn->in_off = 0;
  }
  return true;
}

void NetServer::DispatchFrames(const std::shared_ptr<Conn>& conn) {
  if (stop_.load(std::memory_order_relaxed)) return;
  while (!conn->parsed.empty()) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->inflight >= options_.max_pipeline_depth) return;
      ++conn->inflight;
    }
    Task task;
    task.conn = conn;
    task.frame = std::move(conn->parsed.front());
    conn->parsed.pop_front();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      tasks_.push_back(std::move(task));
    }
    queue_cv_.notify_one();
  }
}

bool NetServer::FlushOutput(Conn* conn) {
  if (conn->closed) return true;
  std::lock_guard<std::mutex> lock(conn->mu);
  while (!conn->out.empty()) {
    iovec iov[kMaxIov];
    int n = 0;
    size_t off = conn->out_off;
    for (auto it = conn->out.begin(); it != conn->out.end() && n < kMaxIov;
         ++it) {
      iov[n].iov_base = it->data() + off;
      iov[n].iov_len = it->size() - off;
      off = 0;
      ++n;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(n);
    const ssize_t rc = ::sendmsg(conn->sock.fd(), &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;  // UpdateInterest arms EPOLLOUT for the remainder
      }
      return false;  // peer gone
    }
    conn->last_activity = Clock::now();
    size_t left = static_cast<size_t>(rc);
    while (left > 0) {
      const size_t head = conn->out.front().size() - conn->out_off;
      if (left >= head) {
        left -= head;
        conn->out.pop_front();
        conn->out_off = 0;
      } else {
        conn->out_off += left;
        left = 0;
      }
    }
  }
  return true;
}

void NetServer::UpdateInterest(IoThread* io, Conn* conn) {
  int inflight;
  bool out_empty;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    inflight = conn->inflight;
    out_empty = conn->out.empty();
  }
  const bool paused = static_cast<int>(conn->parsed.size()) + inflight >=
                      options_.max_pipeline_depth;
  uint32_t want = 0;
  if (!conn->read_closed && !paused &&
      !stop_.load(std::memory_order_relaxed)) {
    want |= EPOLLIN;
  }
  if (!out_empty) want |= EPOLLOUT;
  if (want == conn->interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->sock.fd();
  ::epoll_ctl(io->epoll_fd, EPOLL_CTL_MOD, conn->sock.fd(), &ev);
  conn->interest = want;
}

void NetServer::CloseConn(IoThread* io, std::shared_ptr<Conn> conn) {
  if (conn->closed) return;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    conn->out.clear();
    conn->out_off = 0;
  }
  const int fd = conn->sock.fd();
  ::epoll_ctl(io->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  io->conns.erase(fd);
  conn->sock.Close();
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

void NetServer::SweepConns(IoThread* io) {
  const auto now = Clock::now();
  const auto io_timeout = SecondsToDuration(options_.io_timeout_sec);
  std::vector<std::shared_ptr<Conn>> doomed;
  for (const auto& [fd, conn] : io->conns) {
    int inflight;
    bool out_empty;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      inflight = conn->inflight;
      out_empty = conn->out.empty();
    }
    if (conn->mid_frame && now - conn->frame_start > io_timeout) {
      // Stalled mid-frame (the old RecvAll timeout): close quietly, the
      // stream cannot be re-aligned and the peer is not making progress.
      doomed.push_back(conn);
    } else if (!out_empty && now - conn->last_activity > io_timeout) {
      // Peer stopped reading with replies pending: reap the slow reader
      // instead of buffering unboundedly.
      doomed.push_back(conn);
    } else if (options_.idle_timeout_sec > 0 && inflight == 0 && out_empty &&
               !conn->mid_frame && conn->parsed.empty() &&
               now - conn->last_activity >
                   SecondsToDuration(options_.idle_timeout_sec)) {
      doomed.push_back(conn);
    }
  }
  for (const auto& conn : doomed) CloseConn(io, conn);
}

// --- invalidation push --------------------------------------------------

void NetServer::RecordInvalidation(InvalidationEventMsg event) {
  {
    std::lock_guard<std::mutex> lock(inv_mu_);
    PendingInvalidation entry;
    entry.seq = inv_seq_.load(std::memory_order_relaxed) + 1;
    entry.event = std::move(event);
    inv_log_.push_back(std::move(entry));
    while (options_.max_invalidation_log > 0 &&
           inv_log_.size() >
               static_cast<size_t>(options_.max_invalidation_log)) {
      inv_log_.pop_front();
    }
    // Release so an I/O thread that wakes on the counter sees the log
    // entry it advertises.
    inv_seq_.fetch_add(1, std::memory_order_release);
  }
  // Wake every I/O thread: idle sessions get the event pushed without
  // waiting for their next request.
  for (auto& io : io_) {
    {
      std::lock_guard<std::mutex> lock(io->mu);
      io->inv_pending = true;
    }
    SignalIo(io.get());
  }
}

void NetServer::FlushConnInvalidations(Conn* conn) {
  std::vector<InvalidationEventMsg> events;
  uint64_t newest = 0;
  {
    std::lock_guard<std::mutex> lock(inv_mu_);
    newest = inv_seq_.load(std::memory_order_relaxed);
    if (newest == conn->inv_seen) return;
    if (inv_log_.empty() || inv_log_.front().seq > conn->inv_seen + 1) {
      // The bounded log no longer reaches back this far: precise lists
      // for the missed events are gone, so tell the client to drop
      // everything it holds.
      InvalidationEventMsg drop_all;
      drop_all.drop_all = true;
      events.push_back(std::move(drop_all));
    } else {
      for (const PendingInvalidation& entry : inv_log_) {
        if (entry.seq > conn->inv_seen) events.push_back(entry.event);
      }
    }
  }
  conn->inv_seen = newest;
  for (const InvalidationEventMsg& event : events) {
    // Unsolicited frames carry id 0.
    FrameParts parts = EncodeFrameParts(MessageType::kInvalidationEvent,
                                        {EncodeInvalidationEvent(event)});
    bytes_sent_.fetch_add(FramePartsBytes(parts), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    for (Bytes& part : parts) {
      if (!part.empty()) conn->out.push_back(std::move(part));
    }
  }
}

// --- worker pool --------------------------------------------------------

void NetServer::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || !tasks_.empty();
      });
      if (tasks_.empty()) return;  // stopping and fully drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    HandleFrame(task.conn, task.frame);
    FinishRequest(task.conn);
  }
}

void NetServer::EnqueueReply(const std::shared_ptr<Conn>& conn,
                             FrameParts parts) {
  bytes_sent_.fetch_add(FramePartsBytes(parts), std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closed) return;  // peer is gone; drop the late reply
  for (Bytes& part : parts) {
    if (!part.empty()) conn->out.push_back(std::move(part));
  }
}

void NetServer::FinishRequest(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    --conn->inflight;
  }
  IoThread* io = conn->io;
  {
    std::lock_guard<std::mutex> lock(io->mu);
    io->ready.push_back(conn);
  }
  SignalIo(io);
}

void NetServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                            const Frame& frame) {
  // The admission gate covers the query-class request types plus updates
  // (a delta apply clones and rebuilds an engine — heavier than most
  // queries) and the PIR endpoints (a setup computes a hint, a fetch runs
  // a full-section dot product). A probe batch admits as ONE unit even
  // though it evaluates k+1 queries: shedding must not depend on the
  // batch's size, or admission itself would leak how many covers a client
  // sends. Pings and stats stay cheap and ungated so a saturated daemon
  // can still be health-checked and observed.
  const bool gated = frame.type == MessageType::kQueryRequest ||
                     frame.type == MessageType::kNaiveRequest ||
                     frame.type == MessageType::kAggregateRequest ||
                     frame.type == MessageType::kUpdateRequest ||
                     frame.type == MessageType::kProbeBatchRequest ||
                     frame.type == MessageType::kPirSetupRequest ||
                     frame.type == MessageType::kPirFetchRequest;
  const bool shed = gated && !AdmitQuery();
  Result<FrameParts> reply =
      shed ? Result<FrameParts>(
                 Status::Unavailable("daemon over capacity, retry later"))
           : Dispatch(frame);
  if (shed) {
    queries_shed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The slot is free before the reply becomes visible: a client that
    // sends its next request on seeing this answer must not be shed by
    // its own previous one.
    if (gated) ReleaseQuery();
    if (!reply.ok()) errors_.fetch_add(1, std::memory_order_relaxed);
  }
  EnqueueReply(conn, reply.ok()
                         ? std::move(*reply)
                         : ErrorFrame(reply.status(), frame.frame_id,
                                      shed ? options_.shed_backoff_ms : 0.0));
}

Result<FrameParts> NetServer::Dispatch(const Frame& frame) {
  const uint64_t id = frame.frame_id;
  switch (frame.type) {
    case MessageType::kPingRequest: {
      ping_latency_->Observe(0.0);
      return EncodeFrameParts(MessageType::kPingResponse, {}, id);
    }
    case MessageType::kQueryRequest: {
      auto request = DecodeQueryRequest(frame.payload);
      if (!request.ok()) return request.status();
      auto db = ResolveDb(request->db);
      if (!db.ok()) return db.status();
      auto result = TracedCall(
          request->cached, queries_served_, query_latency_,
          [&](const ExecOptions& exec) {
            return (*db)->engine().Execute(request->query, exec);
          });
      return QueryReply(std::move(result), id);
    }
    case MessageType::kProbeBatchRequest: {
      auto batch = DecodeProbeBatchRequest(frame.payload);
      if (!batch.ok()) return batch.status();
      auto db = ResolveDb(batch->db);
      if (!db.ok()) return db.status();
      // Every entry runs through the SAME path a lone kQueryRequest takes
      // — fresh trace, same plan-cache behavior, its own latency sample
      // and queries_served tick — so nothing on the server side
      // distinguishes the real probe from its covers. Any entry failing
      // fails the whole batch: a partial answer would mark the failed
      // position.
      std::vector<Bytes> answers;
      answers.reserve(batch->probes.size());
      for (const TranslatedQuery& probe : batch->probes) {
        auto result = TracedCall(
            batch->cached, queries_served_, query_latency_,
            [&](const ExecOptions& exec) {
              return (*db)->engine().Execute(probe, exec);
            });
        if (!result.ok()) return result.status();
        answers.push_back(EncodeQueryResponse(result->response,
                                              result->stats.server_process_us,
                                              result->stats.server_phases));
      }
      return EncodeFrameParts(
          MessageType::kProbeBatchResponse,
          {EncodeProbeBatchResponse(answers, batch->pad_responses)}, id);
    }
    case MessageType::kPirSetupRequest: {
      auto request = DecodePirSetupRequest(frame.payload);
      if (!request.ok()) return request.status();
      auto db = ResolveDb(request->db);
      if (!db.ok()) return db.status();
      auto section = (*db)->engine().PirSection(request->section);
      if (!section.ok()) return section.status();
      metrics_.GetCounter("net.pir_setups")->Add(1);
      PirSetupResponseMsg response;
      response.params = (*section)->params();
      response.hint = (*section)->hint();
      return EncodeFrameParts(MessageType::kPirSetupResponse,
                              {EncodePirSetupResponse(response)}, id);
    }
    case MessageType::kPirFetchRequest: {
      auto request = DecodePirFetchRequest(frame.payload);
      if (!request.ok()) return request.status();
      auto db = ResolveDb(request->db);
      if (!db.ok()) return db.status();
      auto section = (*db)->engine().PirSection(request->section);
      if (!section.ok()) return section.status();
      auto answer = (*section)->Answer(request->query);
      if (!answer.ok()) return answer.status();
      metrics_.GetCounter("net.pir_fetches")->Add(1);
      PirFetchResponseMsg response;
      response.answer = std::move(*answer);
      return EncodeFrameParts(MessageType::kPirFetchResponse,
                              {EncodePirFetchResponse(response)}, id);
    }
    case MessageType::kNaiveRequest: {
      auto request = DecodeNaiveRequest(frame.payload);
      if (!request.ok()) return request.status();
      auto db = ResolveDb(request->db);
      if (!db.ok()) return db.status();
      auto result = TracedCall(
          {}, naive_served_, naive_latency_, [&](const ExecOptions& exec) {
            return (*db)->engine().ExecuteNaive(exec);
          });
      return QueryReply(std::move(result), id);
    }
    case MessageType::kAggregateRequest: {
      auto request = DecodeAggregateRequest(frame.payload);
      if (!request.ok()) return request.status();
      auto db = ResolveDb(request->db);
      if (!db.ok()) return db.status();
      auto result = TracedCall(
          request->cached, aggregates_served_, aggregate_latency_,
          [&](const ExecOptions& exec) {
            return (*db)->engine().ExecuteAggregate(
                request->query, request->kind, request->index_token, exec);
          });
      if (!result.ok()) return result.status();
      return EncodeFrameParts(
          MessageType::kAggregateResponse,
          EncodeAggregateResponseParts(std::move(result->response),
                                       result->stats.server_process_us,
                                       result->stats.server_phases),
          id);
    }
    case MessageType::kUpdateRequest: {
      auto response = ApplyUpdate(frame.payload);
      if (!response.ok()) return response.status();
      return EncodeFrameParts(MessageType::kUpdateResponse,
                              {EncodeUpdateResponse(*response)}, id);
    }
    case MessageType::kStatsRequest: {
      Stopwatch watch;
      auto request = DecodeStatsRequest(frame.payload);
      if (!request.ok()) return request.status();
      NetCallOptions call;
      call.db = request->db;
      Bytes payload = EncodeStats(stats(call));
      stats_latency_->Observe(watch.ElapsedMicros());
      return EncodeFrameParts(MessageType::kStatsResponse,
                              {std::move(payload)}, id);
    }
    default:
      // A response type arriving at the server is a confused client;
      // answer with an error but keep the (still frame-aligned) session.
      return Status::InvalidArgument(std::string("unexpected message type ") +
                                     MessageTypeName(frame.type));
  }
}

Result<UpdateResponseMsg> NetServer::ApplyUpdate(const Bytes& payload) {
  if (!options_.accept_updates) {
    return Status::Unsupported(
        "daemon does not accept updates (restart with --allow-updates)");
  }
  auto request = DecodeUpdateRequest(payload);
  if (!request.ok()) return request.status();
  auto delta = DeserializeDelta(request->delta);
  if (!delta.ok()) return delta.status();
  const std::string db =
      request->db.empty() ? options_.default_db : request->db;
  if (db.empty()) {
    return Status::InvalidArgument(
        "update names no database and the daemon has no default");
  }
  Stopwatch watch;
  auto generation = catalog_->ApplyDelta(db, *delta);
  if (!generation.ok()) return generation.status();
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  update_latency_->Observe(watch.ElapsedMicros());
  metrics_.GetCounter("db." + db + ".updates")->Add(1);

  // Tell every connected session (this one included) which cached blocks
  // just went stale; the reactor pushes the event to idle sessions
  // without waiting for their next request.
  InvalidationEventMsg event;
  event.db = db;
  event.db_generation = *generation;
  for (const DeltaBlockPut& put : delta->block_puts) {
    BlockAdvert advert;
    advert.id = put.id;
    advert.generation = put.generation;
    event.blocks.push_back(advert);
  }
  for (const auto& [block_id, block_generation] : delta->block_tombstones) {
    BlockAdvert advert;
    advert.id = block_id;
    advert.generation = block_generation;
    event.blocks.push_back(advert);
  }
  RecordInvalidation(std::move(event));

  UpdateResponseMsg response;
  response.generation = *generation;
  return response;
}

}  // namespace net
}  // namespace xcrypt
