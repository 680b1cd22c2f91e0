#include "core/topk.h"

#include "core/engine.h"
#include "gtest/gtest.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::UnwrapOrDie;

/// Builds a hand-crafted table M over two attributes with controlled
/// degrees. Coordinates use small string/int values.
class TopKTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildRunningExample();
    table_.attributes = {*db_.ResolveColumn("Author.name"),
                         *db_.ResolveColumn("Publication.year")};
    table_.original_values = {10, 10};
    table_.subquery_values.assign(2, {});
  }

  void AddRow(const char* name, int64_t year, double interv, double aggr) {
    Tuple coords(2);
    coords[0] = name == nullptr ? Value::Null() : Value::Str(name);
    coords[1] = year == 0 ? Value::Null() : Value::Int(year);
    table_.coords.push_back(std::move(coords));
    table_.subquery_values[0].push_back(0);
    table_.subquery_values[1].push_back(0);
    table_.mu_interv.push_back(interv);
    table_.mu_aggr.push_back(aggr);
  }

  std::vector<std::string> Names(const std::vector<RankedExplanation>& out) {
    std::vector<std::string> names;
    for (const auto& e : out) names.push_back(e.explanation.ToString(db_));
    return names;
  }

  Database db_;
  TableM table_;
};

TEST_F(TopKTest, NoMinimalSortsByDegree) {
  AddRow("RR", 0, 5.0, 1.0);
  AddRow("JG", 0, 7.0, 2.0);
  AddRow(nullptr, 2001, 6.0, 3.0);
  AddRow(nullptr, 0, 99.0, 99.0);  // trivial: excluded despite top degree
  auto out = TopKExplanations(table_, DegreeKind::kIntervention, 2,
                              MinimalityStrategy::kNone);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].degree, 7.0);
  EXPECT_DOUBLE_EQ(out[1].degree, 6.0);
}

TEST_F(TopKTest, AggravationColumnSelectable) {
  AddRow("RR", 0, 5.0, 1.0);
  AddRow("JG", 0, 7.0, 2.0);
  auto out = TopKExplanations(table_, DegreeKind::kAggravation, 1,
                              MinimalityStrategy::kNone);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].degree, 2.0);
}

TEST_F(TopKTest, DominatedRowDetected) {
  AddRow("RR", 0, 5.0, 5.0);          // row 0: general
  AddRow("RR", 2001, 5.0, 5.0);       // row 1: specialization, same degree
  AddRow("RR", 2011, 8.0, 8.0);       // row 2: specialization, higher
  AddRow("JG", 2001, 4.0, 4.0);       // row 3: unrelated
  EXPECT_FALSE(IsDominated(table_, DegreeKind::kIntervention, 0));
  EXPECT_TRUE(IsDominated(table_, DegreeKind::kIntervention, 1));
  EXPECT_FALSE(IsDominated(table_, DegreeKind::kIntervention, 2));
  EXPECT_FALSE(IsDominated(table_, DegreeKind::kIntervention, 3));
}

TEST_F(TopKTest, SelfJoinDropsDominated) {
  AddRow("RR", 0, 5.0, 0);
  AddRow("RR", 2001, 5.0, 0);  // dominated (paper's phi_3 example)
  AddRow("JG", 2001, 4.0, 0);
  auto out = TopKExplanations(table_, DegreeKind::kIntervention, 10,
                              MinimalityStrategy::kSelfJoin);
  auto names = Names(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(names[0], "[Author.name = 'RR']");
  EXPECT_EQ(names[1],
            "[Author.name = 'JG' AND Publication.year = 2001]");
}

TEST_F(TopKTest, AppendExcludesSpecializationsOfWinners) {
  AddRow("RR", 0, 5.0, 0);
  AddRow("RR", 2001, 5.0, 0);
  AddRow("RR", 2011, 4.5, 0);
  AddRow("JG", 2001, 4.0, 0);
  auto out = TopKExplanations(table_, DegreeKind::kIntervention, 3,
                              MinimalityStrategy::kAppend);
  auto names = Names(out);
  // After [RR] wins, its specializations are excluded; JG follows; then
  // nothing remains.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(names[0], "[Author.name = 'RR']");
  EXPECT_EQ(names[1],
            "[Author.name = 'JG' AND Publication.year = 2001]");
}

TEST_F(TopKTest, AppendAndSelfJoinAgreeOnMinimalSets) {
  AddRow("RR", 0, 5.0, 0);
  AddRow("RR", 2001, 5.0, 0);
  AddRow("JG", 0, 3.0, 0);
  AddRow("JG", 2001, 6.0, 0);  // specializes JG but higher: NOT dominated
  AddRow(nullptr, 2011, 2.0, 0);
  auto self_join = TopKExplanations(table_, DegreeKind::kIntervention, 10,
                                    MinimalityStrategy::kSelfJoin);
  auto append = TopKExplanations(table_, DegreeKind::kIntervention, 10,
                                 MinimalityStrategy::kAppend);
  // JG@2001 outranks everything and is not dominated (its generalization
  // JG has a lower degree), so both strategies rank it first.
  ASSERT_FALSE(self_join.empty());
  ASSERT_FALSE(append.empty());
  EXPECT_EQ(self_join[0].m_row, 3u);
  EXPECT_EQ(append[0].m_row, 3u);
  // Self-join keeps rows 3, 0, 2, 4 (row 1 is dominated by row 0).
  EXPECT_EQ(self_join.size(), 4u);
  // Append continues with [RR] (5.0); [RR,2001] is excluded as its
  // specialization, then [JG] and the year-only row follow.
  ASSERT_EQ(append.size(), 4u);
  EXPECT_EQ(append[1].explanation.ToString(db_), "[Author.name = 'RR']");
  EXPECT_EQ(append[2].m_row, 2u);
  EXPECT_EQ(append[3].m_row, 4u);
}

TEST_F(TopKTest, TieBreakPrefersGeneralExplanations) {
  AddRow("RR", 2001, 5.0, 0);
  AddRow("RR", 0, 5.0, 0);
  auto out = TopKExplanations(table_, DegreeKind::kIntervention, 2,
                              MinimalityStrategy::kNone);
  // Same degree: the paper's dummy-value trick prefers the shorter one.
  EXPECT_EQ(out[0].explanation.NumBound(), 1);
  EXPECT_EQ(out[1].explanation.NumBound(), 2);
}

TEST_F(TopKTest, HybridReadsInterventionColumn) {
  AddRow("RR", 0, 5.0, 1.0);
  AddRow("JG", 0, 7.0, 9.0);
  auto hybrid = TopKExplanations(table_, DegreeKind::kHybrid, 1,
                                 MinimalityStrategy::kNone);
  ASSERT_EQ(hybrid.size(), 1u);
  // Hybrid ranks by the cube-based mu_interv column (7.0), not mu_aggr.
  EXPECT_DOUBLE_EQ(hybrid[0].degree, 7.0);
  EXPECT_STREQ(DegreeKindToString(DegreeKind::kHybrid), "hybrid");
}

TEST_F(TopKTest, EmptyTableYieldsNothing) {
  auto out = TopKExplanations(table_, DegreeKind::kIntervention, 5,
                              MinimalityStrategy::kAppend);
  EXPECT_TRUE(out.empty());
}

// The exact-degree step shared by one node and the cluster coordinator:
// degree = sign * E(residuals), written back into mu_interv, a stable sort
// by degree (ties keep candidate order), then the first top_k.
TEST_F(TopKTest, RankExactDegreesWritesBackSortsStablyAndTruncates) {
  AddRow("RR", 0, 1.0, 0.0);
  AddRow("JG", 0, 2.0, 0.0);
  AddRow("CM", 0, 3.0, 0.0);
  AddRow(nullptr, 2001, 4.0, 0.0);
  AggregateQuery q1, q2;
  q1.name = "q1";
  q1.agg = AggregateSpec::CountStar();
  q2 = q1;
  q2.name = "q2";
  ExprPtr expr = UnwrapOrDie(ParseExpression("q1 - q2", {"q1", "q2"}));
  const UserQuestion question{
      UnwrapOrDie(NumericalQuery::Create({q1, q2}, expr)), Direction::kHigh};
  ExplainReport report;
  report.table = table_;
  std::vector<RankedExplanation> candidates;
  for (size_t row = 0; row < 4; ++row) {
    candidates.push_back(
        RankedExplanation{table_.ExplanationAt(row), 0.0, row});
  }
  ExplainOptions options;
  options.top_k = 3;
  // direction high: degree = -(q1 - q2) = 4, 7, 4, -1 for rows 0..3.
  RankExactDegrees(question, options, {{1, 5}, {0, 7}, {2, 6}, {3, 2}},
                   candidates, &report);
  ASSERT_EQ(report.explanations.size(), 3u);
  EXPECT_EQ(report.explanations[0].m_row, 1u);
  EXPECT_EQ(report.explanations[1].m_row, 0u);
  EXPECT_EQ(report.explanations[2].m_row, 2u);
  EXPECT_EQ(report.explanations[0].degree, 7.0);
  EXPECT_EQ(report.explanations[1].degree, 4.0);
  EXPECT_EQ(report.explanations[2].degree, 4.0);
  // Every candidate's exact degree lands in table M, also the truncated
  // one.
  EXPECT_EQ(report.table.mu_interv, (std::vector<double>{4, 7, 4, -1}));
}

TEST_F(TopKTest, StrategyNames) {
  EXPECT_STREQ(MinimalityStrategyToString(MinimalityStrategy::kNone),
               "no-minimal");
  EXPECT_STREQ(MinimalityStrategyToString(MinimalityStrategy::kSelfJoin),
               "minimal-self-join");
  EXPECT_STREQ(MinimalityStrategyToString(MinimalityStrategy::kAppend),
               "minimal-append");
  EXPECT_STREQ(DegreeKindToString(DegreeKind::kIntervention), "intervention");
  EXPECT_STREQ(DegreeKindToString(DegreeKind::kAggravation), "aggravation");
}

}  // namespace
}  // namespace xplain
