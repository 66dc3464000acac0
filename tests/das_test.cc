#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/timer.h"
#include "das/das_system.h"
#include "data/healthcare.h"
#include "data/workload.h"
#include "data/xmark_generator.h"
#include "net/server.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace {

TEST(DasSystemTest, HostReportPopulated) {
  auto das = DasSystem::Host(BuildHospital(30, 1), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  const HostReport& r = das->host_report();
  EXPECT_GT(r.num_blocks, 0);
  EXPECT_GT(r.ciphertext_bytes, 0);
  EXPECT_GT(r.skeleton_bytes, 0);
  EXPECT_GT(r.metadata_bytes, 0);
  EXPECT_GT(r.scheme_size_nodes, 0);
  EXPECT_GE(r.encrypt_us, 0.0);
  EXPECT_GE(r.metadata_us, 0.0);
}

TEST(DasSystemTest, CostsPopulatedPerQuery) {
  auto das = DasSystem::Host(BuildHospital(30, 1), HealthcareConstraints(),
                             SchemeKind::kSub, "s");
  ASSERT_TRUE(das.ok());
  auto run = das->Execute("//patient[.//disease='diarrhea']//SSN");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const QueryCosts& c = run->costs;
  EXPECT_GT(c.client_translate_us, 0.0);
  EXPECT_GT(c.server_process_us, 0.0);
  EXPECT_GT(c.bytes_shipped, 0);
  EXPECT_GT(c.blocks_shipped, 0);
  EXPECT_GT(c.decrypt_us, 0.0);
  EXPECT_GT(c.postprocess_us, 0.0);
  EXPECT_GT(c.transmission_us, 0.0);
  EXPECT_GT(c.TotalUs(), c.ClientUs());
}

TEST(DasSystemTest, TransmissionFollowsLinkSpeed) {
  ClientTuning slow;
  slow.link_mbps = 1.0;
  ClientTuning fast;
  fast.link_mbps = 1000.0;
  auto das_slow = DasSystem::Host(BuildHospital(20, 2),
                                  HealthcareConstraints(),
                                  SchemeKind::kTop, "s", slow);
  auto das_fast = DasSystem::Host(BuildHospital(20, 2),
                                  HealthcareConstraints(),
                                  SchemeKind::kTop, "s", fast);
  ASSERT_TRUE(das_slow.ok() && das_fast.ok());
  auto q = ParseXPath("//patient//SSN");
  ASSERT_TRUE(q.ok());
  auto run_slow = das_slow->Execute(*q);
  auto run_fast = das_fast->Execute(*q);
  ASSERT_TRUE(run_slow.ok() && run_fast.ok());
  EXPECT_EQ(run_slow->costs.bytes_shipped, run_fast->costs.bytes_shipped);
  EXPECT_NEAR(run_slow->costs.transmission_us,
              1000.0 * run_fast->costs.transmission_us,
              run_slow->costs.transmission_us * 0.01);
}

TEST(DasSystemTest, NaiveShipsEverything) {
  auto das = DasSystem::Host(BuildHospital(30, 3), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  auto q = ParseXPath("//patient[pname='Betty']//disease");
  ASSERT_TRUE(q.ok());
  auto ours = das->Execute(*q);
  auto naive = das->ExecuteNaive(*q);
  ASSERT_TRUE(ours.ok() && naive.ok());
  // Same answers...
  EXPECT_EQ(ours->answer.SerializedSorted(), naive->answer.SerializedSorted());
  // ...but the naive method ships every block.
  EXPECT_EQ(naive->costs.blocks_shipped, das->host_report().num_blocks);
  EXPECT_LT(ours->costs.blocks_shipped, naive->costs.blocks_shipped);
  EXPECT_LT(ours->costs.bytes_shipped, naive->costs.bytes_shipped);
}

TEST(DasSystemTest, SelectiveQueryShipsLessThanBroadQuery) {
  auto das = DasSystem::Host(BuildHospital(50, 4), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  auto broad = das->Execute("//patient");
  auto narrow = das->Execute("//patient[pname='Betty']/SSN");
  ASSERT_TRUE(broad.ok() && narrow.ok());
  EXPECT_LT(narrow->costs.bytes_shipped, broad->costs.bytes_shipped);
}

TEST(DasSystemTest, TopSchemeBehavesLikeNaiveOnCost) {
  // §7.3: the top scheme has the same performance as the naive method —
  // any query touching encrypted content ships the single whole-document
  // block.
  auto das = DasSystem::Host(BuildHospital(30, 5), HealthcareConstraints(),
                             SchemeKind::kTop, "s");
  ASSERT_TRUE(das.ok());
  auto q = ParseXPath("//patient[pname='Betty']//disease");
  ASSERT_TRUE(q.ok());
  auto ours = das->Execute(*q);
  auto naive = das->ExecuteNaive(*q);
  ASSERT_TRUE(ours.ok() && naive.ok());
  EXPECT_EQ(ours->costs.blocks_shipped, 1);
  // Bytes within 5% of naive (the pruned skeleton is just the marker).
  EXPECT_NEAR(static_cast<double>(ours->costs.bytes_shipped),
              static_cast<double>(naive->costs.bytes_shipped),
              0.05 * naive->costs.bytes_shipped);
}

TEST(DasSystemTest, OptShipsLessThanSubLessThanTop) {
  // The core experimental claim (Fig. 9/10): finer schemes ship and
  // decrypt less for selective queries.
  const Document doc = BuildHospital(50, 6);
  int64_t bytes[3];
  int i = 0;
  for (SchemeKind kind :
       {SchemeKind::kOptimal, SchemeKind::kSub, SchemeKind::kTop}) {
    auto das =
        DasSystem::Host(doc, HealthcareConstraints(), kind, "s");
    ASSERT_TRUE(das.ok());
    auto run = das->Execute("//patient[pname='Betty']//disease");
    ASSERT_TRUE(run.ok());
    bytes[i++] = run->costs.bytes_shipped;
  }
  EXPECT_LT(bytes[0], bytes[1]);  // opt < sub
  EXPECT_LT(bytes[1], bytes[2]);  // sub < top
}

TEST(DasSystemTest, InProcessTransmissionIsSimulatedFromBytesShipped) {
  ClientTuning options;
  options.link_mbps = 100.0;
  auto das = DasSystem::Host(BuildHospital(30, 1), HealthcareConstraints(),
                             SchemeKind::kSub, "s", options);
  ASSERT_TRUE(das.ok());
  obs::Trace trace;
  obs::QueryContext ctx;
  ctx.trace = &trace;
  auto run = das->Execute("//patient[.//disease='diarrhea']//SSN", &ctx);
  ASSERT_TRUE(run.ok());
  // Invariant: in-process runs simulate the wire — the transport says so,
  // and the trace's one transmit span is exactly the link model applied
  // to the bytes.
  EXPECT_EQ(run->engine_stats.transport,
            EngineCallStats::Transport::kInProcess);
  const SimulatedLink link{options.link_mbps};
  EXPECT_DOUBLE_EQ(trace.TotalUs("transmit"),
                   link.EstimateUs(run->costs.bytes_shipped));
  EXPECT_DOUBLE_EQ(run->costs.transmission_us,
                   link.EstimateUs(run->costs.bytes_shipped));
  EXPECT_EQ(run->engine_stats.bytes_received, 0);
}

TEST(DasSystemTest, TracedRunDecomposesServerTime) {
  auto das = DasSystem::Host(BuildHospital(30, 1), HealthcareConstraints(),
                             SchemeKind::kSub, "s");
  ASSERT_TRUE(das.ok());
  obs::Trace trace;
  obs::QueryContext ctx;
  ctx.trace = &trace;
  auto run = das->Execute("//patient[.//disease='diarrhea']//SSN", &ctx);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // The engine decomposed its processing time into at least three named
  // phases under the trace's server span.
  EXPECT_GT(trace.TotalUs("translate"), 0.0);
  EXPECT_GT(trace.TotalUs("server"), 0.0);
  EXPECT_GT(trace.TotalUs("decrypt"), 0.0);
  int server_id = -1;
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    if (trace.spans()[i].name == "server") server_id = static_cast<int>(i);
  }
  ASSERT_GE(server_id, 0);
  const std::vector<obs::PhaseTiming> phases =
      trace.ChildPhaseTotals(server_id);
  ASSERT_GE(phases.size(), 3u);
  double phase_total = 0.0;
  for (const obs::PhaseTiming& phase : phases) phase_total += phase.elapsed_us;
  EXPECT_GT(phase_total, 0.0);
  EXPECT_LE(phase_total, trace.spans()[server_id].elapsed_us);
}

TEST(DasSystemTest, TopLevelSpansCoverExecute) {
  auto das = DasSystem::Host(BuildHospital(120, 1), HealthcareConstraints(),
                             SchemeKind::kSub, "s");
  ASSERT_TRUE(das.ok());
  auto bundle = das->ExportBundle();
  ASSERT_TRUE(bundle.ok());
  auto server =
      net::NetServer::Serve(net::ServerConfig::ForBundle(std::move(*bundle)));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const PathExpr query = *ParseXPath("//patient[.//disease='diarrhea']//SSN");
  const PathExpr naive = *ParseXPath("//patient[pname='Betty']//disease");
  const PathExpr aggregate = *ParseXPath("//disease");

  for (const bool remote : {false, true}) {
    if (remote) {
      ASSERT_TRUE(das->Remote().Connect("127.0.0.1", (*server)->port()).ok());
    }
    const auto transport = remote ? EngineCallStats::Transport::kRemote
                                  : EngineCallStats::Transport::kInProcess;
    for (const char* kind : {"query", "naive", "aggregate"}) {
      const std::string label =
          std::string(remote ? "remote " : "in-process ") + kind;
      std::vector<double> shares;
      for (int i = 0; i < 20; ++i) {
        obs::Trace trace;
        obs::QueryContext ctx;
        ctx.trace = &trace;
        Stopwatch watch;
        // The one-ledger contract on one run: its costs are exactly the
        // trace's projection, and every top-level span has a cost field.
        auto check = [&](const auto& run) {
          const double wall_us = watch.ElapsedMicros();
          ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();
          EXPECT_EQ(run->engine_stats.transport, transport) << label;
          const QueryCosts projected = CostsFromTrace(trace);
          for (double QueryCosts::*field :
               {&QueryCosts::client_translate_us,
                &QueryCosts::server_process_us, &QueryCosts::transmission_us,
                &QueryCosts::decrypt_us, &QueryCosts::postprocess_us}) {
            EXPECT_EQ(run->costs.*field, projected.*field) << label;
          }
          double covered_us = 0.0;
          for (const obs::SpanRecord& span : trace.spans()) {
            if (span.parent != obs::Trace::kNoParent) continue;
            EXPECT_NE(CostFieldOf(span.name), nullptr)
                << label << ": top-level span \"" << span.name << "\"";
            // In-process, transmit is the link model, not wall time.
            if (!remote && span.name == "transmit") continue;
            covered_us += span.elapsed_us;
          }
          shares.push_back(covered_us / wall_us);
        };
        if (kind == std::string("query")) {
          check(das->Execute(query, &ctx));
        } else if (kind == std::string("naive")) {
          check(das->ExecuteNaive(naive, &ctx));
        } else {
          check(das->ExecuteAggregate(aggregate, AggregateKind::kCount, &ctx));
        }
      }
      ASSERT_EQ(shares.size(), 20u) << label;
      std::sort(shares.begin(), shares.end());
      EXPECT_GE(shares[10], 0.95) << label << ": top-level spans cover only "
                                  << 100.0 * shares[10] << "% of Execute";
      EXPECT_LE(shares[10], 1.0) << label << ": top-level spans overlap";
    }
  }
}

TEST(DasSystemTest, ExpiredDeadlineAbortsWithUnavailable) {
  auto das = DasSystem::Host(BuildHospital(20, 1), HealthcareConstraints(),
                             SchemeKind::kSub, "s");
  ASSERT_TRUE(das.ok());
  obs::QueryContext ctx = obs::QueryContext::WithTimeout(-1.0);
  auto run = das->Execute("//patient//SSN", &ctx);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
}

TEST(DasSystemTest, AggregateTracedRunRecordsTransmit) {
  auto das = DasSystem::Host(BuildHospital(30, 1), HealthcareConstraints(),
                             SchemeKind::kSub, "s");
  ASSERT_TRUE(das.ok());
  obs::Trace trace;
  obs::QueryContext ctx;
  ctx.trace = &trace;
  auto run = das->ExecuteAggregate("//disease", AggregateKind::kMin, &ctx);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->engine_stats.transport,
            EngineCallStats::Transport::kInProcess);
  EXPECT_GT(trace.TotalUs("server"), 0.0);
  EXPECT_DOUBLE_EQ(trace.TotalUs("transmit"), run->costs.transmission_us);
}

TEST(DasSystemTest, StringOverloadParses) {
  auto das = DasSystem::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  EXPECT_TRUE(das->Execute("//patient").ok());
  EXPECT_FALSE(das->Execute("not an xpath").ok());
}

TEST(WorkloadTest, BuildsRequestedClasses) {
  const Document doc = BuildHospital(20, 9);
  for (WorkloadKind kind :
       {WorkloadKind::kQs, WorkloadKind::kQm, WorkloadKind::kQl}) {
    const auto queries = BuildWorkload(doc, kind, 10, 1);
    EXPECT_EQ(queries.size(), 10u) << WorkloadKindName(kind);
    for (const auto& wq : queries) {
      EXPECT_FALSE(wq.expr.steps.empty());
    }
  }
  // Deterministic in the seed.
  const auto a = BuildWorkload(doc, WorkloadKind::kQl, 5, 42);
  const auto b = BuildWorkload(doc, WorkloadKind::kQl, 5, 42);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, b[i].text);
}

TEST(WorkloadTest, QsTargetsChildrenOfRoot) {
  const Document doc = BuildHospital(20, 9);
  for (const auto& wq : BuildWorkload(doc, WorkloadKind::kQs, 5, 3)) {
    EXPECT_EQ(wq.expr.steps.size(), 2u) << wq.text;
    EXPECT_EQ(wq.expr.steps[0].tag, "hospital") << wq.text;
  }
}

}  // namespace
}  // namespace xcrypt
