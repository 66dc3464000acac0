#include <gtest/gtest.h>

#include "data/healthcare.h"
#include "data/nasa_generator.h"
#include "data/xmark_generator.h"
#include "index/dsi.h"
#include "index/dsi_table.h"
#include "index/structural_join.h"

namespace xcrypt {
namespace {

TEST(CalIntervalsTest, MatchesPaperFormulae) {
  // Figure 3: d = (max-min)/(2N+1); min_i = min + (2i-1)d - w1_i d;
  // max_i = min + 2i d + w2_i d.
  const Interval parent{0.0, 1.0};
  const std::vector<double> w1 = {0.1, 0.2, 0.3};
  const std::vector<double> w2 = {0.4, 0.1, 0.25};
  const auto children = CalIntervals(parent, 3, w1, w2);
  ASSERT_EQ(children.size(), 3u);
  const double d = 1.0 / 7.0;
  EXPECT_NEAR(children[0].min, d * (1 - 0.1), 1e-12);
  EXPECT_NEAR(children[0].max, d * (2 + 0.4), 1e-12);
  EXPECT_NEAR(children[1].min, d * (3 - 0.2), 1e-12);
  EXPECT_NEAR(children[1].max, d * (4 + 0.1), 1e-12);
  EXPECT_NEAR(children[2].min, d * (5 - 0.3), 1e-12);
  EXPECT_NEAR(children[2].max, d * (6 + 0.25), 1e-12);
}

TEST(CalIntervalsTest, GuaranteedGaps) {
  // For any weights in (0, 0.5): min1 > min, maxN < max, and adjacent
  // children are separated by a positive gap (the discontinuity property).
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformU64(0, 7));
    std::vector<double> w1(n), w2(n);
    for (int i = 0; i < n; ++i) {
      w1[i] = rng.UniformDouble(1e-9, 0.5);
      w2[i] = rng.UniformDouble(1e-9, 0.5);
    }
    const Interval parent{0.2, 0.7};
    const auto children = CalIntervals(parent, n, w1, w2);
    EXPECT_GT(children.front().min, parent.min);
    EXPECT_LT(children.back().max, parent.max);
    for (int i = 0; i < n; ++i) {
      EXPECT_LT(children[i].min, children[i].max);
      EXPECT_TRUE(children[i].ProperlyInside(parent));
      if (i > 0) {
        EXPECT_GT(children[i].min, children[i - 1].max);
      }
    }
  }
}

class DsiPropertyTest : public ::testing::TestWithParam<const char*> {
 protected:
  Document Build() const {
    const std::string which = GetParam();
    if (which == "healthcare") return BuildHealthcareSample();
    if (which == "hospital") return BuildHospital(30, 11);
    if (which == "xmark") return GenerateXMark({.people = 15, .items = 8});
    return GenerateNasa({.datasets = 12});
  }
};

TEST_P(DsiPropertyTest, ContainmentIffAncestor) {
  const Document doc = Build();
  Rng rng(123);
  const DsiIndex dsi = DsiIndex::Build(doc, rng);
  const auto nodes = doc.PreOrder();
  // Exhaustive on small docs, sampled on large ones.
  Rng pick(7);
  const int pairs = std::min<int>(20000,
                                  static_cast<int>(nodes.size() * nodes.size()));
  for (int t = 0; t < pairs; ++t) {
    const NodeId a = nodes[pick.UniformU64(0, nodes.size() - 1)];
    const NodeId b = nodes[pick.UniformU64(0, nodes.size() - 1)];
    if (a == b) continue;
    EXPECT_EQ(doc.IsAncestor(a, b), dsi.Contains(a, b))
        << "nodes " << a << " and " << b;
  }
}

TEST_P(DsiPropertyTest, RootGetsUnitInterval) {
  const Document doc = Build();
  Rng rng(123);
  const DsiIndex dsi = DsiIndex::Build(doc, rng);
  EXPECT_EQ(dsi.interval(doc.root()).min, 0.0);
  EXPECT_EQ(dsi.interval(doc.root()).max, 1.0);
}

TEST_P(DsiPropertyTest, SiblingsDisjointWithGaps) {
  const Document doc = Build();
  Rng rng(123);
  const DsiIndex dsi = DsiIndex::Build(doc, rng);
  for (NodeId id : doc.PreOrder()) {
    const auto& children = doc.node(id).children;
    for (size_t i = 1; i < children.size(); ++i) {
      EXPECT_GT(dsi.interval(children[i]).min,
                dsi.interval(children[i - 1]).max);
    }
  }
}

TEST_P(DsiPropertyTest, DifferentSeedsGiveDifferentWeights) {
  const Document doc = Build();
  Rng rng1(1), rng2(2);
  const DsiIndex a = DsiIndex::Build(doc, rng1);
  const DsiIndex b = DsiIndex::Build(doc, rng2);
  int differs = 0;
  for (NodeId id : doc.PreOrder()) {
    if (id == doc.root()) continue;
    if (!(a.interval(id) == b.interval(id))) ++differs;
  }
  EXPECT_GT(differs, doc.node_count() / 2);
}

INSTANTIATE_TEST_SUITE_P(Corpora, DsiPropertyTest,
                         ::testing::Values("healthcare", "hospital", "xmark",
                                           "nasa"));

TEST(DsiTableTest, LookupAndSeal) {
  DsiTable table;
  table.Add("patient", {0.14, 0.46});
  table.Add("patient", {0.54, 0.86});
  table.Add("patient", {0.14, 0.46});  // duplicate collapses on Seal
  table.Seal();
  ASSERT_EQ(table.Lookup("patient").size(), 2u);
  EXPECT_TRUE(std::is_sorted(table.Lookup("patient").begin(),
                             table.Lookup("patient").end()));
  EXPECT_TRUE(table.Lookup("absent").empty());
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.AllIntervals().size(), 2u);
  EXPECT_GT(table.ByteSize(), 0);
}

TEST(BlockTableTest, CoveringAndRepresentative) {
  BlockTable table;
  table.Add(1, {0.16, 0.2});
  table.Add(2, {0.393, 0.439});
  ASSERT_NE(table.RepresentativeOf(1), nullptr);
  EXPECT_EQ(table.RepresentativeOf(1)->min, 0.16);
  EXPECT_EQ(table.RepresentativeOf(99), nullptr);

  // Equal interval and properly-inside interval are covered.
  EXPECT_EQ(table.BlocksCovering({0.16, 0.2}).size(), 1u);
  EXPECT_EQ(table.BlocksCovering({0.17, 0.18}).size(), 1u);
  EXPECT_TRUE(table.BlocksCovering({0.5, 0.6}).empty());
}

// Brute-force reference for the structural joins.
std::vector<Interval> BruteDescendants(const std::vector<Interval>& anc,
                                       const std::vector<Interval>& desc) {
  std::vector<Interval> out;
  for (const Interval& d : desc) {
    for (const Interval& a : anc) {
      if (d.ProperlyInside(a)) {
        out.push_back(d);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

class StructuralJoinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StructuralJoinTest, MatchesBruteForceOnTreeIntervals) {
  const Document doc = BuildHospital(20, GetParam());
  Rng rng(GetParam() * 31 + 1);
  const DsiIndex dsi = DsiIndex::Build(doc, rng);

  // Ancestors: all "patient" and "treat" intervals; descendants: leaves.
  std::vector<Interval> anc;
  std::vector<Interval> desc;
  for (NodeId id : doc.PreOrder()) {
    const std::string& tag = doc.node(id).tag;
    if (tag == "patient" || tag == "treat") anc.push_back(dsi.interval(id));
    if (doc.IsLeaf(id)) desc.push_back(dsi.interval(id));
  }
  const auto fast = StructuralJoin::FilterDescendants(anc, desc);
  const auto brute = BruteDescendants(anc, desc);
  EXPECT_EQ(fast, brute);

  // FilterAncestors agrees with a direct containment check.
  const auto kept = StructuralJoin::FilterAncestors(anc, desc);
  for (const Interval& a : kept) {
    bool has = false;
    for (const Interval& d : desc) has |= d.ProperlyInside(a);
    EXPECT_TRUE(has);
  }
}

TEST_P(StructuralJoinTest, ChildJoinFindsExactChildren) {
  const Document doc = BuildHospital(15, GetParam());
  Rng rng(GetParam() + 77);
  const DsiIndex dsi = DsiIndex::Build(doc, rng);

  // Universe: every node interval (ungrouped here).
  std::vector<Interval> universe;
  for (NodeId id : doc.PreOrder()) universe.push_back(dsi.interval(id));
  std::sort(universe.begin(), universe.end());

  std::vector<Interval> patients;
  std::vector<Interval> diseases;  // grandchildren of patient (via treat)
  std::vector<Interval> treats;    // children of patient
  for (NodeId id : doc.PreOrder()) {
    const std::string& tag = doc.node(id).tag;
    if (tag == "patient") patients.push_back(dsi.interval(id));
    if (tag == "disease") diseases.push_back(dsi.interval(id));
    if (tag == "treat") treats.push_back(dsi.interval(id));
  }
  // treat IS a child of patient: all pass.
  EXPECT_EQ(StructuralJoin::FilterChildren(patients, treats, universe).size(),
            treats.size());
  // disease is a grandchild: none pass (treat interposes).
  EXPECT_TRUE(
      StructuralJoin::FilterChildren(patients, diseases, universe).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralJoinTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(StructuralJoinTest, PairJoinEnumeratesPairs) {
  const std::vector<Interval> anc = {{0.0, 0.5}, {0.6, 0.9}};
  const std::vector<Interval> desc = {{0.1, 0.2}, {0.65, 0.7}, {0.95, 0.99}};
  const auto pairs = StructuralJoin::PairJoin(anc, desc);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], std::make_pair(0, 0));
  EXPECT_EQ(pairs[1], std::make_pair(1, 1));
}

TEST(StructuralJoinTest, EmptyInputs) {
  EXPECT_TRUE(StructuralJoin::FilterDescendants({}, {{0.1, 0.2}}).empty());
  EXPECT_TRUE(StructuralJoin::FilterDescendants({{0.0, 1.0}}, std::vector<Interval>{}).empty());
  EXPECT_TRUE(
      StructuralJoin::FilterChildren({}, {}, std::vector<Interval>{})
          .empty());
}

}  // namespace
}  // namespace xcrypt
