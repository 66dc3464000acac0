// Perf-smoke gate for the privacy mode (ctest label: perfsmoke): running
// with decoys=4 over a loopback daemon must cost less than 3x
// decoys=0 on the NASA corpus, as the median of per-query ratios between
// the two arms run back to back. The batch amortizes framing and the
// server evaluates covers with the same plan cache, so the k+1 probes
// must not cost anywhere near k+1 times a lone query — this pins the
// constant-factor promise DESIGN.md §17 makes.
//
// Skipped under sanitizers (instrumented crypto makes this a timing
// exercise, not a functional one there).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "das/das_system.h"
#include "net/server.h"

namespace xcrypt {
namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(__SANITIZE_ADDRESS__)
#define __SANITIZE_ADDRESS__ 1
#endif
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif

#if !defined(XCRYPT_PERF_SMOKE_SKIP) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)

struct Served {
  std::unique_ptr<DasSystem> das;
  std::unique_ptr<net::NetServer> server;
};

Served Serve(const bench::Corpus& corpus, const ClientTuning& tuning) {
  Served served;
  auto das = DasSystem::Host(corpus.doc, corpus.constraints,
                             SchemeKind::kOptimal, "perf-privacy-secret",
                             tuning);
  EXPECT_TRUE(das.ok()) << das.status().ToString();
  served.das = std::make_unique<DasSystem>(std::move(*das));
  auto bundle = served.das->ExportBundle();
  EXPECT_TRUE(bundle.ok());
  auto server =
      net::NetServer::Serve(net::ServerConfig::ForBundle(std::move(*bundle)));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  served.server = std::move(*server);
  EXPECT_TRUE(
      served.das->Remote().Connect("127.0.0.1", served.server->port()).ok());
  return served;
}

/// Wall time of one Execute, or a negative value when it failed.
double QueryUs(const DasSystem& das, const PathExpr& query) {
  Stopwatch watch;
  const bool ok = das.Execute(query).ok();
  const double us = watch.ElapsedMicros();
  return ok ? us : -1.0;
}

double MedianOf(std::vector<double> samples) {
  EXPECT_FALSE(samples.empty());
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

#endif

TEST(PerfPrivacyTest, FourDecoysStayUnderThreeTimesBaseline) {
#if defined(XCRYPT_PERF_SMOKE_SKIP) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "perf smoke runs only on uninstrumented builds";
#else
  bench::Corpus corpus = bench::MakeNasa(1);
  const auto workload =
      BuildWorkload(corpus.doc, WorkloadKind::kQm, 10, 23);

  // The block cache is off on both sides: warmed stub-only responses
  // would collapse both configurations to framing time and the ratio
  // would measure nothing.
  ClientTuning baseline;
  baseline.block_cache_bytes = 0;
  ClientTuning decoys;
  decoys.block_cache_bytes = 0;
  decoys.privacy.decoys = 4;
  decoys.privacy_seed = 11;

  Served plain = Serve(corpus, baseline);
  Served covered = Serve(corpus, decoys);

  // Warmup pass: populates the covered client's shape log (the first
  // pass's queries go out with few or no covers) and the daemons' plan
  // caches, so the measured passes compare steady states.
  for (const WorkloadQuery& wq : workload) {
    (void)QueryUs(*plain.das, wq.expr);
    (void)QueryUs(*covered.das, wq.expr);
  }

  // The two arms run back to back for each query, so a slow spell on the
  // host lands on both sides of a ratio instead of on one arm's median.
  std::vector<double> ratios;
  std::vector<double> plain_samples;
  std::vector<double> covered_samples;
  constexpr int kPasses = 5;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const WorkloadQuery& wq : workload) {
      const double p = QueryUs(*plain.das, wq.expr);
      const double c = QueryUs(*covered.das, wq.expr);
      if (p <= 0.0 || c <= 0.0) continue;
      plain_samples.push_back(p);
      covered_samples.push_back(c);
      ratios.push_back(c / p);
    }
  }
  ASSERT_GT(ratios.size(), 20u);

  const double ratio = MedianOf(ratios);
  ::printf("privacy perf smoke: k=0 median %.0f us, k=4 median %.0f us, "
           "median per-query ratio %.2fx (budget 3x)\n",
           MedianOf(plain_samples), MedianOf(covered_samples), ratio);
  EXPECT_LT(ratio, 3.0) << "median of " << ratios.size()
                        << " paired decoys=4 / decoys=0 ratios";
#endif
}

}  // namespace
}  // namespace xcrypt
