#ifndef XCRYPT_OBS_TRACE_H_
#define XCRYPT_OBS_TRACE_H_

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

namespace xcrypt {
namespace obs {

/// One named phase with its accumulated wall time — the unit in which
/// span breakdowns travel (across the wire in query responses, and into
/// QueryCosts projections).
struct PhaseTiming {
  std::string name;
  double elapsed_us = 0.0;
};

/// One timed region of a query's life. Spans form a forest: `parent` is
/// the index of the enclosing span inside the owning Trace (kNoParent for
/// top-level spans). `start_us` is the offset from the trace epoch, so
/// spans are totally ordered in time as well as nested.
struct SpanRecord {
  std::string name;
  int parent = -1;
  double start_us = 0.0;
  double elapsed_us = 0.0;
  bool closed = false;
};

/// Hierarchical timed spans for ONE query evaluation, carried through
/// every layer of the query path (translate → index-lookup →
/// structural-join → predicate-batch → assemble → transmit → decrypt →
/// splice → postprocess). A Trace is owned by a single caller and is NOT
/// thread-safe: one query, one thread, one trace. The disabled fast path
/// is a null Trace pointer — Span guards built over nullptr do nothing
/// and cost a pointer test.
class Trace {
 public:
  static constexpr int kNoParent = -1;
  /// Sentinel for Record(): attach under the currently open span.
  static constexpr int kCurrent = -2;

  Trace() : epoch_(Clock::now()) {}

  /// Opens a span nested under the currently open one; returns its index.
  int Open(std::string_view name) {
    SpanRecord span;
    span.name = std::string(name);
    span.parent = open_.empty() ? kNoParent : open_.back();
    span.start_us = SinceEpochUs();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    open_.push_back(id);
    return id;
  }

  /// Closes span `id`, fixing its elapsed time. Closing out of order pops
  /// every span opened after it (a guard destroyed early closes its
  /// children), so the open stack stays consistent.
  void Close(int id) {
    if (id < 0 || static_cast<size_t>(id) >= spans_.size()) return;
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (!spans_[top].closed) {
        spans_[top].elapsed_us = SinceEpochUs() - spans_[top].start_us;
        spans_[top].closed = true;
      }
      if (top == id) break;
    }
  }

  /// Records an externally measured interval as an already-closed span —
  /// how wire-reported durations (server phases, transmission) enter the
  /// client's trace. `parent` is a span index, kNoParent, or kCurrent.
  /// Returns the new span's index.
  int Record(std::string_view name, double elapsed_us, int parent = kCurrent) {
    SpanRecord span;
    span.name = std::string(name);
    span.parent = (parent == kCurrent)
                      ? (open_.empty() ? kNoParent : open_.back())
                      : parent;
    // Place the recorded interval so it *ends* now: externally measured
    // work happened just before it was reported.
    const double now = SinceEpochUs();
    span.start_us = now > elapsed_us ? now - elapsed_us : 0.0;
    span.elapsed_us = elapsed_us;
    span.closed = true;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }

  /// Total elapsed time over every closed span named `name`.
  double TotalUs(std::string_view name) const;

  /// Per-name elapsed totals over the direct children of span `parent`,
  /// in first-appearance order — the phase decomposition of one span
  /// (e.g. server time into join / OPESS probe / assembly).
  std::vector<PhaseTiming> ChildPhaseTotals(int parent) const;

  /// Indented rendering, one span per line: "  name  12.3us".
  std::string Render() const;

 private:
  using Clock = std::chrono::steady_clock;

  double SinceEpochUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  ///< stack of open span indices
};

/// RAII guard for one span. Null trace → complete no-op: the disabled
/// path compiles to a pointer test, which is what keeps tracing
/// affordable to leave compiled in everywhere.
class Span {
 public:
  Span() = default;
  Span(Trace* trace, std::string_view name) : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->Open(name);
  }
  ~Span() { End(); }

  Span(Span&& other) noexcept : trace_(other.trace_), id_(other.id_) {
    other.trace_ = nullptr;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      trace_ = other.trace_;
      id_ = other.id_;
      other.trace_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early (idempotent).
  void End() {
    if (trace_ != nullptr) {
      trace_->Close(id_);
      trace_ = nullptr;
    }
  }

  /// Index of this span in the trace, or Trace::kNoParent when disabled.
  int id() const { return trace_ != nullptr ? id_ : Trace::kNoParent; }

 private:
  Trace* trace_ = nullptr;
  int id_ = Trace::kNoParent;
};

/// Per-call evaluation context threaded through the engine surface:
/// an optional trace to fill and an optional deadline to respect. A null
/// QueryContext* (the default everywhere) means "no tracing, no
/// deadline" to an engine, which then takes the fast path; DasSystem
/// records into a local trace instead, since its costs are read from one.
struct QueryContext {
  Trace* trace = nullptr;
  /// Absolute steady-clock point after which engines abort with
  /// Unavailable instead of continuing to burn server time.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
  bool Expired() const {
    return has_deadline() && std::chrono::steady_clock::now() > deadline;
  }

  /// Context expiring `seconds` from now.
  static QueryContext WithTimeout(double seconds, Trace* trace = nullptr) {
    QueryContext ctx;
    ctx.trace = trace;
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(seconds));
    return ctx;
  }
};

/// Trace pointer of an optional context (nullptr-safe).
inline Trace* TraceOf(QueryContext* ctx) {
  return ctx != nullptr ? ctx->trace : nullptr;
}
inline const Trace* TraceOf(const QueryContext* ctx) {
  return ctx != nullptr ? ctx->trace : nullptr;
}

}  // namespace obs
}  // namespace xcrypt

#endif  // XCRYPT_OBS_TRACE_H_
