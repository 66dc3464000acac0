// Experiment E2 — §7.2 "Division of Work between Client and Server".
//
// Measures, per query class (Qs/Qm/Ql) on the NASA-like corpus under the
// optimal scheme, the parameters the paper reports: query translation time
// on the client, query processing time on the server, transmission time of
// the answer (simulated 100Mbps link), decryption time on the client, and
// query post-processing time on the client.
//
// Paper observations to compare against:
//  - translation times are negligible;
//  - transmission is negligible on the fast link;
//  - the decryption cost dominates the client side;
//  - server query processing exceeds client-side query processing.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace xcrypt;
  using namespace xcrypt::bench;

  PrintHeader("E2 / Sec 7.2: division of work between client and server");

  Corpus corpus = MakeNasa(2);
  std::printf("corpus: %s-like, %d nodes, height %d\n", corpus.name.c_str(),
              corpus.doc.node_count(), corpus.doc.Height());

  auto das = DasSystem::Host(corpus.doc, corpus.constraints,
                             SchemeKind::kOptimal, "e2-secret");
  if (!das.ok()) {
    std::fprintf(stderr, "%s\n", das.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-4s %12s %12s %12s %12s %12s %10s %10s\n", "Q",
              "translate/us", "server/us", "wire/us", "decrypt/us",
              "postproc/us", "(parse/us)", "bytes");
  PrintRule();
  AveragedCosts per_class[3];
  int idx = 0;
  for (WorkloadKind kind :
       {WorkloadKind::kQs, WorkloadKind::kQm, WorkloadKind::kQl}) {
    const auto workload = BuildWorkload(corpus.doc, kind, 10, 7);
    const AveragedCosts c = RunWorkload(*das, workload);
    per_class[idx++] = c;
    std::printf("%-4s %12.1f %12.1f %12.2f %12.1f %12.1f %10.1f %10.0f\n",
                WorkloadKindName(kind), c.client_translate_us,
                c.server_process_us, c.transmission_us, c.decrypt_us,
                c.postprocess_us,
                SpanBreakdown(*das, workload)["skeleton-parse"], c.bytes);
  }

  PrintRule();
  std::printf("\nShape checks vs paper (Sec 7.2):\n");
  bool translate_negligible = true;
  bool server_dominates_client_processing = true;
  for (const AveragedCosts& c : per_class) {
    if (c.client_translate_us > 0.1 * c.total_us) {
      translate_negligible = false;
    }
    if (c.server_process_us < c.postprocess_us) {
      server_dominates_client_processing = false;
    }
  }
  std::printf("  query translation negligible (<10%% of total): %s\n",
              translate_negligible ? "PASS" : "DIFFERS");
  std::printf("  server processing > client post-processing: %s\n",
              server_dominates_client_processing ? "PASS" : "DIFFERS");
  std::printf(
      "  (post-processing includes parsing the shipped skeleton: the\n"
      "   parse/us column)\n");
  std::printf(
      "  (the paper additionally reports decryption as the largest client "
      "factor\n   on 2006 hardware; AES-NI-era CPUs shrink that share)\n");
  return 0;
}
