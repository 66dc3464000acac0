#ifndef XCRYPT_BENCH_BENCH_UTIL_H_
#define XCRYPT_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment-reproduction binaries (one binary per
// table/figure of the paper; see DESIGN.md §2). These are plain harnesses
// that print the same rows/series the paper reports; bench_micro.cc uses
// google-benchmark for the microbenchmarks.

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/timer.h"
#include "das/das_system.h"
#include "data/dblp_generator.h"
#include "data/healthcare.h"
#include "data/nasa_generator.h"
#include "data/workload.h"
#include "data/xmark_generator.h"

namespace xcrypt {
namespace bench {

/// The two evaluation corpora of §7.1, size-scaled for CI time (the paper
/// used 25-50MB documents on 2006 hardware; scale up via `scale` to
/// approach those sizes).
struct Corpus {
  std::string name;
  Document doc;
  std::vector<SecurityConstraint> constraints;
};

inline Corpus MakeXMark(int scale = 1) {
  XMarkConfig config;
  config.people = 120 * scale;
  config.items = 60 * scale;
  config.seed = 20060912;  // the VLDB'06 conference date
  return {"XMark", GenerateXMark(config), XMarkConstraints()};
}

inline Corpus MakeNasa(int scale = 1) {
  NasaConfig config;
  config.datasets = 100 * scale;
  config.seed = 20060915;
  return {"NASA", GenerateNasa(config), NasaConstraints()};
}

/// Payload-heavy bibliography corpus for the out-of-core storage
/// experiments: confidential abstracts make ciphertext payload ~97% of
/// the serialized image. Scale 1 is ~10x the NASA baseline image and
/// scale 10 is ~100x, so the storage sweep covers the 10x-100x range the
/// out-of-core experiments target.
inline Corpus MakeDblp(int scale = 1) {
  DblpConfig config;
  config.persons = 12 * scale;
  config.publications_per_person = 5;
  config.abstract_sentences = 1000;
  config.seed = 20060923;
  return {"DBLP", GenerateDblp(config), DblpConstraints()};
}

inline const std::vector<SchemeKind>& AllSchemes() {
  static const std::vector<SchemeKind> kSchemes = {
      SchemeKind::kTop, SchemeKind::kSub, SchemeKind::kApproximate,
      SchemeKind::kOptimal};
  return kSchemes;
}

/// Median of `samples` (0.0 when empty) — the robust center the stabilized
/// measurement helpers below report, insensitive to the one trial that
/// landed on a page fault or a scheduler hiccup.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Standard measurement discipline for the experiment binaries: run `fn`
/// `warmup` times untimed (so caches — including the client block cache —
/// allocator arenas, and branch predictors settle into steady state), then
/// time `n` repetitions and return the median in microseconds. Use this
/// instead of ad-hoc loops so BENCH_*.json deltas between commits are
/// attributable to code changes rather than run-to-run noise.
template <typename Fn>
double WarmedMedianUs(Fn&& fn, int n = 5, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Stopwatch watch;
    fn();
    samples.push_back(watch.ElapsedMicros());
  }
  return Median(std::move(samples));
}

/// Mean after dropping min and max — the paper's "average of 5 trials
/// after dropping the maximum and minimum" (§7.1).
inline double TrimmedMean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  if (samples.size() <= 2) {
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           samples.size();
  }
  std::sort(samples.begin(), samples.end());
  return std::accumulate(samples.begin() + 1, samples.end() - 1, 0.0) /
         (samples.size() - 2);
}

/// Per-phase costs of one query: median over `trials` timed runs taken
/// after untimed warmup runs.
struct AveragedCosts {
  double client_translate_us = 0.0;
  double server_process_us = 0.0;
  double transmission_us = 0.0;
  double decrypt_us = 0.0;
  double postprocess_us = 0.0;
  double bytes = 0.0;
  double total_us = 0.0;
};

inline AveragedCosts RunAveraged(const DasSystem& das, const PathExpr& query,
                                 int trials = 5, int warmup = 1) {
  // Untimed warmup settles the block cache and allocator so every timed
  // trial measures the same steady state; the median then discards the
  // residual scheduler noise (same discipline as WarmedMedianUs, but
  // keeping the per-phase cost breakdown).
  for (int w = 0; w < warmup; ++w) {
    if (!das.Execute(query).ok()) break;
  }
  std::vector<double> translate, server, wire, decrypt, post, bytes, total;
  for (int t = 0; t < trials; ++t) {
    auto run = das.Execute(query);
    if (!run.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   run.status().ToString().c_str());
      return {};
    }
    translate.push_back(run->costs.client_translate_us);
    server.push_back(run->costs.server_process_us);
    wire.push_back(run->costs.transmission_us);
    decrypt.push_back(run->costs.decrypt_us);
    post.push_back(run->costs.postprocess_us);
    bytes.push_back(static_cast<double>(run->costs.bytes_shipped));
    total.push_back(run->costs.TotalUs());
  }
  AveragedCosts out;
  out.client_translate_us = Median(translate);
  out.server_process_us = Median(server);
  out.transmission_us = Median(wire);
  out.decrypt_us = Median(decrypt);
  out.postprocess_us = Median(post);
  out.bytes = Median(bytes);
  out.total_us = Median(total);
  return out;
}

/// Workload-average of per-phase costs.
inline AveragedCosts RunWorkload(const DasSystem& das,
                                 const std::vector<WorkloadQuery>& workload,
                                 int trials = 5) {
  AveragedCosts sum;
  int n = 0;
  for (const WorkloadQuery& wq : workload) {
    const AveragedCosts c = RunAveraged(das, wq.expr, trials);
    sum.client_translate_us += c.client_translate_us;
    sum.server_process_us += c.server_process_us;
    sum.transmission_us += c.transmission_us;
    sum.decrypt_us += c.decrypt_us;
    sum.postprocess_us += c.postprocess_us;
    sum.bytes += c.bytes;
    sum.total_us += c.total_us;
    ++n;
  }
  if (n == 0) return sum;
  sum.client_translate_us /= n;
  sum.server_process_us /= n;
  sum.transmission_us /= n;
  sum.decrypt_us /= n;
  sum.postprocess_us /= n;
  sum.bytes /= n;
  sum.total_us /= n;
  return sum;
}

/// Mean elapsed time per span name over one traced pass of the workload
/// (nested spans each appear under their own name; parents include their
/// children's time). Also reports the mean number of spans per query —
/// the multiplier for the trace overhead estimate.
inline std::map<std::string, double> SpanBreakdown(
    const DasSystem& das, const std::vector<WorkloadQuery>& workload,
    double* spans_per_query = nullptr) {
  std::map<std::string, double> totals;
  size_t span_count = 0;
  int n = 0;
  for (const WorkloadQuery& wq : workload) {
    obs::Trace trace;
    obs::QueryContext ctx;
    ctx.trace = &trace;
    auto run = das.Execute(wq.expr, &ctx);
    if (!run.ok()) continue;
    span_count += trace.size();
    for (const obs::SpanRecord& span : trace.spans()) {
      totals[span.name] += span.elapsed_us;
    }
    ++n;
  }
  if (n > 0) {
    for (auto& [name, total] : totals) total /= n;
    if (spans_per_query != nullptr) {
      *spans_per_query = static_cast<double>(span_count) / n;
    }
  }
  return totals;
}

/// Naive-method total time (§7.3), workload-averaged.
inline double RunWorkloadNaive(const DasSystem& das,
                               const std::vector<WorkloadQuery>& workload,
                               int trials = 3) {
  double sum = 0.0;
  int n = 0;
  for (const WorkloadQuery& wq : workload) {
    std::vector<double> total;
    for (int t = 0; t < trials; ++t) {
      auto run = das.ExecuteNaive(wq.expr);
      if (!run.ok()) continue;
      total.push_back(run->costs.TotalUs());
    }
    sum += TrimmedMean(total);
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

/// Tiny JSON emitter for the machine-readable BENCH_*.json files the
/// experiment binaries drop next to their stdout tables. Only what the
/// benches need: flat objects and arrays of them, no escaping beyond
/// quotes (keys and labels are ASCII identifiers).
class JsonObj {
 public:
  JsonObj& Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return AddRaw(key, buf);
  }
  JsonObj& Add(const std::string& key, int value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonObj& Add(const std::string& key, long long value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonObj& Add(const std::string& key, const std::string& value) {
    return AddRaw(key, "\"" + value + "\"");
  }
  JsonObj& AddNull(const std::string& key) { return AddRaw(key, "null"); }
  JsonObj& AddRaw(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + rendered;
    return *this;
  }
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline std::string JsonArray(const std::vector<std::string>& rendered) {
  std::string out = "[";
  for (size_t i = 0; i < rendered.size(); ++i) {
    out += (i ? ",\n  " : "\n  ") + rendered[i];
  }
  out += "\n]";
  return out;
}

/// Writes `json` to `path` (working directory of the bench run) and tells
/// the user where it went.
inline bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

inline void PrintRule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title) {
  PrintRule('=');
  std::printf("%s\n", title.c_str());
  PrintRule('=');
}

}  // namespace bench
}  // namespace xcrypt

#endif  // XCRYPT_BENCH_BENCH_UTIL_H_
