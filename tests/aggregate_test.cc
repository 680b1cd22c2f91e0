#include "relational/aggregate.h"

#include "gtest/gtest.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

TEST(AccumulatorTest, CountStar) {
  AggregateAccumulator acc(AggregateKind::kCountStar);
  acc.Add(Value::Null());
  acc.Add(Value::Null());
  EXPECT_EQ(acc.Finish().AsInt(), 2);
  EXPECT_DOUBLE_EQ(acc.Finish().AsNumeric(), 2.0);
}

TEST(AccumulatorTest, CountDistinctIgnoresNullsAndDupes) {
  AggregateAccumulator acc(AggregateKind::kCountDistinct);
  acc.Add(Value::Str("a"));
  acc.Add(Value::Str("a"));
  acc.Add(Value::Str("b"));
  acc.Add(Value::Null());
  EXPECT_EQ(acc.Finish().AsInt(), 2);
}

TEST(AccumulatorTest, SumAvgMinMax) {
  AggregateAccumulator sum(AggregateKind::kSum);
  AggregateAccumulator avg(AggregateKind::kAvg);
  AggregateAccumulator mn(AggregateKind::kMin);
  AggregateAccumulator mx(AggregateKind::kMax);
  for (int v : {4, 2, 6}) {
    sum.Add(Value::Int(v));
    avg.Add(Value::Int(v));
    mn.Add(Value::Int(v));
    mx.Add(Value::Int(v));
  }
  EXPECT_DOUBLE_EQ(sum.Finish().AsDouble(), 12.0);
  EXPECT_DOUBLE_EQ(avg.Finish().AsDouble(), 4.0);
  EXPECT_EQ(mn.Finish().AsInt(), 2);
  EXPECT_EQ(mx.Finish().AsInt(), 6);
}

TEST(AccumulatorTest, EmptyGroups) {
  EXPECT_EQ(AggregateAccumulator(AggregateKind::kCountStar).Finish().AsInt(),
            0);
  EXPECT_TRUE(AggregateAccumulator(AggregateKind::kSum).Finish().is_null());
  EXPECT_TRUE(AggregateAccumulator(AggregateKind::kMin).Finish().is_null());
  EXPECT_TRUE(AggregateAccumulator(AggregateKind::kAvg).Finish().is_null());
}

TEST(EvaluateAggregateTest, CountStarOverUniversal) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  Value v = EvaluateAggregate(u, AggregateSpec::CountStar(), nullptr);
  EXPECT_EQ(v.AsInt(), 6);
}

TEST(EvaluateAggregateTest, WithFilter) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  DnfPredicate sigmod = Pred(db, "Publication.venue = 'SIGMOD'");
  Value v = EvaluateAggregate(u, AggregateSpec::CountStar(), &sigmod);
  EXPECT_EQ(v.AsInt(), 4);  // s1, s2, s5, s6
}

TEST(EvaluateAggregateTest, CountDistinctPubid) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ColumnRef pubid = *db.ResolveColumn("Publication.pubid");
  DnfPredicate com = Pred(db, "Author.dom = 'com'");
  Value v = EvaluateAggregate(u, AggregateSpec::CountDistinct(pubid), &com);
  EXPECT_EQ(v.AsInt(), 3);  // com authors touch P1, P2, P3
}

TEST(EvaluateAggregateTest, LiveMaskRestrictsRows) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  RowSet live(u.NumRows());
  live.Set(0);
  live.Set(1);
  Value v = EvaluateAggregate(u, AggregateSpec::CountStar(), nullptr, &live);
  EXPECT_EQ(v.AsInt(), 2);
}

TEST(ParseAggregateTest, Forms) {
  Database db = BuildRunningExample();
  AggregateSpec star = UnwrapOrDie(ParseAggregate(db, "count(*)"));
  EXPECT_EQ(star.kind, AggregateKind::kCountStar);
  AggregateSpec distinct =
      UnwrapOrDie(ParseAggregate(db, "count(distinct Publication.pubid)"));
  EXPECT_EQ(distinct.kind, AggregateKind::kCountDistinct);
  EXPECT_EQ(db.ColumnName(distinct.column), "Publication.pubid");
  AggregateSpec sum = UnwrapOrDie(ParseAggregate(db, "sum(year)"));
  EXPECT_EQ(sum.kind, AggregateKind::kSum);
  AggregateSpec mx = UnwrapOrDie(ParseAggregate(db, "max(Author.name)"));
  EXPECT_EQ(mx.kind, AggregateKind::kMax);
  EXPECT_EQ(star.ToString(db), "count(*)");
  EXPECT_EQ(distinct.ToString(db), "count(distinct Publication.pubid)");
}

TEST(ParseAggregateTest, Errors) {
  Database db = BuildRunningExample();
  EXPECT_FALSE(ParseAggregate(db, "count()").ok());
  EXPECT_FALSE(ParseAggregate(db, "median(year)").ok());
  EXPECT_FALSE(ParseAggregate(db, "sum(Author.name)").ok());  // not numeric
  EXPECT_FALSE(ParseAggregate(db, "count(*) trailing").ok());
}

}  // namespace
}  // namespace xplain
