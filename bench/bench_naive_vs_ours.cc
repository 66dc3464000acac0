// Experiment E3 — §7.3 "Our Approach VS. Naive Method".
//
// The naive method ships the entire encrypted database for every query;
// the client decrypts it all and evaluates locally. The paper reports that
// for opt/app/sub schemes, query evaluation with metadata takes only
// 11%-28% of the naive method's time, while the top scheme performs the
// same as naive.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace xcrypt;
  using namespace xcrypt::bench;

  PrintHeader("E3 / Sec 7.3: metadata-based evaluation vs naive method");

  // The paper's client has no block cache. With one, a warmed top scheme
  // never re-ships its single block while naive ships everything on every
  // query, so "top == naive" would stop being the comparison measured.
  ClientTuning no_cache;
  no_cache.block_cache_bytes = 0;

  for (const Corpus& corpus : {MakeXMark(1), MakeNasa(1)}) {
    std::printf("\n[%s-like corpus, %d nodes]\n", corpus.name.c_str(),
                corpus.doc.node_count());
    std::printf("%-6s %14s %14s %10s\n", "scheme", "ours total/us",
                "naive total/us", "ratio");
    PrintRule('-', 50);

    for (SchemeKind kind : AllSchemes()) {
      auto das = DasSystem::Host(corpus.doc, corpus.constraints, kind,
                                 "e3-secret", no_cache);
      if (!das.ok()) {
        std::fprintf(stderr, "%s\n", das.status().ToString().c_str());
        return 1;
      }
      // Selective leaf-level queries, where indexes pay off (the paper's
      // Ql class dominates its workload mix).
      double ours = 0.0, naive = 0.0;
      for (WorkloadKind wk :
           {WorkloadKind::kQm, WorkloadKind::kQl}) {
        const auto workload = BuildWorkload(corpus.doc, wk, 8, 11);
        ours += RunWorkload(*das, workload, 3).total_us;
        naive += RunWorkloadNaive(*das, workload, 3);
      }
      const double ratio = naive > 0 ? ours / naive : 0.0;
      std::printf("%-6s %14.1f %14.1f %9.1f%%\n", SchemeKindName(kind), ours,
                  naive, 100.0 * ratio);
    }
  }

  std::printf(
      "\nPaper's claim: opt/app/sub run at 11%%-28%% of naive; top ~= "
      "naive.\n");
  return 0;
}
