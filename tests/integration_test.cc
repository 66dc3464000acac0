// End-to-end correctness: for every corpus, scheme granularity, and query
// class, the answer produced by the full protocol (translate -> server
// execute -> decrypt -> post-process) must equal evaluating the query
// directly on the plaintext database: Q(delta(Qs(eta(D)))) = Q(D) (§1).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "das/das_system.h"
#include "data/healthcare.h"
#include "data/nasa_generator.h"
#include "data/workload.h"
#include "data/xmark_generator.h"
#include "xpath/parser.h"

namespace xcrypt {
namespace {

struct Corpus {
  std::string name;
  Document doc;
  std::vector<SecurityConstraint> constraints;
  std::vector<std::string> handwritten_queries;
};

Corpus MakeCorpus(const std::string& name) {
  if (name == "healthcare") {
    return {name,
            BuildHealthcareSample(),
            HealthcareConstraints(),
            {
                "/hospital/patient",
                "//patient",
                "//patient//SSN",
                "//SSN",
                "//insurance",
                "//insurance/policy#",
                "//patient[pname='Betty']",
                "//patient[pname='Betty']//disease",
                "//patient[pname='Nobody']//disease",
                "//patient[.//disease='diarrhea']//SSN",
                "//patient[.//disease='leukemia']/age",
                "//patient[.//insurance/@coverage>='10000']//SSN",
                "//patient[.//insurance/@coverage>'100000']//SSN",
                "//treat[disease='diarrhea']/doctor",
                "//treat[disease='diarrhea'][doctor='Smith']",
                "//patient[age>'36']/SSN",
                "//patient[insurance]/pname",
                "//hospital//treat//doctor",
                "//patient/*",
            }};
  }
  if (name == "hospital") {
    return {name,
            BuildHospital(25, 77),
            HealthcareConstraints(),
            {
                "//patient//disease",
                "//patient[.//disease='diarrhea']//SSN",
                "//patient[age>='50']/pname",
                "//treat[doctor='Smith']/disease",
                "//insurance/policy#",
                "//patient[.//insurance/@coverage>='500000']/age",
            }};
  }
  if (name == "xmark") {
    return {name,
            GenerateXMark({.people = 25, .items = 10, .seed = 5}),
            XMarkConstraints(),
            {
                "/site/people",
                "//person/name",
                "//person[profile/income>'50000']/name",
                "//person[profile/income<='30000']//emailaddress",
                "//person//city",
                "//person[address/city='Seoul']/creditcard",
                "//open_auction/current",
                "//item[location='Canada']/itemname",
                "//person[profile/age>='40']//creditcard",
            }};
  }
  return {name,
          GenerateNasa({.datasets = 20, .seed = 13}),
          NasaConstraints(),
          {
              "/datasets/dataset",
              "//author/last",
              "//author[last='Gliese']/initial",
              "//other[publisher='MNRAS']/title",
              "//other[.//last='Hubble']//title",
              "//reference//author",
              "//dataset//field/name",
              "//other[date/year>='1990']/publisher",
          }};
}

// gtest lists each case with a hex dump of its parameter's bytes, so this
// layout is fixed and fully initialised to keep the listed names the same in
// every build and environment. When `corpus` was a std::string the dump began
// with a heap address, and the cases are tracked under the names one build
// printed; `listed_as` keeps those two leading bytes.
struct Case {
  uint16_t listed_as = 0x19D0;
  char corpus[30] = {};
  SchemeKind kind = SchemeKind::kOptimal;
  uint32_t reserved = 0;
};
static_assert(sizeof(Case) == 40, "the byte dump is part of each test name");

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.corpus) + "_" +
         SchemeKindName(info.param.kind);
}

class ProtocolTest : public ::testing::TestWithParam<Case> {};

TEST_P(ProtocolTest, HandwrittenQueriesMatchGroundTruth) {
  const Case& param = GetParam();
  Corpus corpus = MakeCorpus(param.corpus);
  auto das = DasSystem::Host(corpus.doc, corpus.constraints, param.kind,
                             "integration-secret");
  ASSERT_TRUE(das.ok()) << das.status().ToString();

  for (const std::string& text : corpus.handwritten_queries) {
    auto query = ParseXPath(text);
    ASSERT_TRUE(query.ok()) << text;
    auto run = das->Execute(*query);
    ASSERT_TRUE(run.ok()) << text << ": " << run.status().ToString();
    const QueryAnswer truth = GroundTruth(corpus.doc, *query);
    EXPECT_EQ(run->answer.SerializedSorted(), truth.SerializedSorted())
        << "query " << text << " under scheme "
        << SchemeKindName(param.kind);
  }
}

TEST_P(ProtocolTest, GeneratedWorkloadsMatchGroundTruth) {
  const Case& param = GetParam();
  Corpus corpus = MakeCorpus(param.corpus);
  auto das = DasSystem::Host(corpus.doc, corpus.constraints, param.kind,
                             "integration-secret-2");
  ASSERT_TRUE(das.ok()) << das.status().ToString();

  for (WorkloadKind kind :
       {WorkloadKind::kQs, WorkloadKind::kQm, WorkloadKind::kQl}) {
    const auto workload = BuildWorkload(corpus.doc, kind, 6, 99);
    ASSERT_FALSE(workload.empty());
    for (const WorkloadQuery& wq : workload) {
      auto run = das->Execute(wq.expr);
      ASSERT_TRUE(run.ok()) << wq.text << ": " << run.status().ToString();
      const QueryAnswer truth = GroundTruth(corpus.doc, wq.expr);
      EXPECT_EQ(run->answer.SerializedSorted(), truth.SerializedSorted())
          << WorkloadKindName(kind) << " query " << wq.text << " under "
          << SchemeKindName(param.kind);
    }
  }
}

TEST_P(ProtocolTest, NaiveMethodMatchesGroundTruth) {
  const Case& param = GetParam();
  Corpus corpus = MakeCorpus(param.corpus);
  auto das = DasSystem::Host(corpus.doc, corpus.constraints, param.kind,
                             "integration-secret-3");
  ASSERT_TRUE(das.ok());
  for (const std::string& text : corpus.handwritten_queries) {
    auto query = ParseXPath(text);
    ASSERT_TRUE(query.ok());
    auto run = das->ExecuteNaive(*query);
    ASSERT_TRUE(run.ok()) << text << ": " << run.status().ToString();
    const QueryAnswer truth = GroundTruth(corpus.doc, *query);
    EXPECT_EQ(run->answer.SerializedSorted(), truth.SerializedSorted())
        << "naive, query " << text;
  }
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const char* corpus : {"healthcare", "hospital", "xmark", "nasa"}) {
    for (SchemeKind kind : {SchemeKind::kOptimal, SchemeKind::kApproximate,
                            SchemeKind::kSub, SchemeKind::kTop}) {
      Case c;
      std::strncpy(c.corpus, corpus, sizeof(c.corpus) - 1);
      c.kind = kind;
      cases.push_back(c);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ProtocolTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(ProtocolEdgeTest, QueryOnAbsentTagFailsCleanly) {
  auto das = DasSystem::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  auto run = das->Execute("//nonexistent_tag");
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
}

TEST(ProtocolEdgeTest, EmptyAnswerQueries) {
  auto das = DasSystem::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  // The tag exists but no node satisfies the predicate.
  auto run = das->Execute("//patient[pname='Zelda']//SSN");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->answer.nodes.empty());
  EXPECT_EQ(run->costs.bytes_shipped, 0);
}

TEST(ProtocolEdgeTest, NotEqualOnEncryptedValueUnsupported) {
  auto das = DasSystem::Host(BuildHealthcareSample(), HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  auto run = das->Execute("//patient[pname!='Betty']//SSN");
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnsupported);
}

TEST(ProtocolEdgeTest, NotEqualOnPublicValueWorks) {
  const Document doc = BuildHealthcareSample();
  auto das = DasSystem::Host(doc, HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  auto query = ParseXPath("//patient[SSN!='763895']/age");
  ASSERT_TRUE(query.ok());
  auto run = das->Execute(*query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answer.SerializedSorted(),
            GroundTruth(doc, *query).SerializedSorted());
}

TEST(ProtocolEdgeTest, RepeatedExecutionIsDeterministic) {
  const Document doc = BuildHealthcareSample();
  auto das = DasSystem::Host(doc, HealthcareConstraints(),
                             SchemeKind::kOptimal, "s");
  ASSERT_TRUE(das.ok());
  auto q = ParseXPath("//patient[pname='Betty']//disease");
  ASSERT_TRUE(q.ok());
  auto first = das->Execute(*q);
  auto second = das->Execute(*q);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->answer.SerializedSorted(),
            second->answer.SerializedSorted());
}

}  // namespace
}  // namespace xcrypt
