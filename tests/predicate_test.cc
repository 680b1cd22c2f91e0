#include "relational/predicate.h"

#include "gtest/gtest.h"
#include "relational/parser.h"
#include "relational/universal.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

TEST(CompareOpTest, RoundTrip) {
  EXPECT_EQ(*CompareOpFromString("="), CompareOp::kEq);
  EXPECT_EQ(*CompareOpFromString("<="), CompareOp::kLe);
  EXPECT_EQ(*CompareOpFromString("!="), CompareOp::kNe);
  EXPECT_FALSE(CompareOpFromString("~").ok());
  EXPECT_STREQ(CompareOpToString(CompareOp::kGe), ">=");
}

TEST(EvalCompareTest, ThreeValuedNullSemantics) {
  EXPECT_FALSE(EvalCompare(Value::Null(), CompareOp::kEq, Value::Null()));
  EXPECT_FALSE(EvalCompare(Value::Null(), CompareOp::kNe, Value::Int(1)));
  EXPECT_FALSE(EvalCompare(Value::Int(1), CompareOp::kLt, Value::Null()));
}

TEST(EvalCompareTest, AllOperators) {
  Value a = Value::Int(3), b = Value::Int(5);
  EXPECT_TRUE(EvalCompare(a, CompareOp::kLt, b));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kLe, b));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kNe, b));
  EXPECT_FALSE(EvalCompare(a, CompareOp::kGt, b));
  EXPECT_FALSE(EvalCompare(a, CompareOp::kGe, b));
  EXPECT_FALSE(EvalCompare(a, CompareOp::kEq, b));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kEq, Value::Real(3.0)));
}

TEST(AtomicPredicateTest, CreateValidatesTypes) {
  Database db = BuildRunningExample();
  XPLAIN_EXPECT_OK(AtomicPredicate::Create(db, "Publication.year",
                                           CompareOp::kGe, Value::Int(2000))
                       .status());
  // String column vs int constant.
  EXPECT_FALSE(AtomicPredicate::Create(db, "Author.name", CompareOp::kEq,
                                       Value::Int(1))
                   .ok());
  EXPECT_FALSE(AtomicPredicate::Create(db, "Author.nope", CompareOp::kEq,
                                       Value::Str("x"))
                   .ok());
}

TEST(ConjunctivePredicateTest, EvalUniversal) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ConjunctivePredicate phi =
      Pred(db, "Author.name = 'JG' AND Publication.year = 2001");
  int matches = 0;
  for (size_t i = 0; i < u.NumRows(); ++i) {
    if (phi.EvalUniversal(u, i)) ++matches;
  }
  EXPECT_EQ(matches, 1);  // only (JG, P1, 2001)
}

TEST(ConjunctivePredicateTest, EmptyConjunctionIsTrue) {
  Database db = BuildRunningExample();
  UniversalRelation u = UnwrapOrDie(UniversalRelation::Build(db));
  ConjunctivePredicate phi;
  EXPECT_TRUE(phi.IsTrue());
  EXPECT_TRUE(phi.EvalUniversal(u, 0));
  EXPECT_EQ(phi.ToString(db), "[true]");
}

TEST(ConjunctivePredicateTest, EvalOnRelationIgnoresOtherRelations) {
  Database db = BuildRunningExample();
  ConjunctivePredicate phi =
      Pred(db, "Author.name = 'JG' AND Publication.year = 2001");
  // Author row 0 is JG.
  EXPECT_TRUE(phi.EvalOnRelation(db, 0, 0));
  EXPECT_FALSE(phi.EvalOnRelation(db, 0, 1));
  // Authored has no atoms: vacuously true.
  EXPECT_TRUE(phi.EvalOnRelation(db, 1, 0));
  EXPECT_TRUE(phi.MentionsRelation(0));
  EXPECT_FALSE(phi.MentionsRelation(1));
  EXPECT_TRUE(phi.MentionsRelation(2));
}

TEST(ConjunctivePredicateTest, AndConcatenatesAtoms) {
  Database db = BuildRunningExample();
  ConjunctivePredicate a = Pred(db, "Author.dom = 'com'");
  ConjunctivePredicate b = Pred(db, "Publication.venue = 'SIGMOD'");
  ConjunctivePredicate both = a.And(b);
  EXPECT_EQ(both.atoms().size(), 2u);
}

TEST(ParsePredicateTest, ParsesRangesAndStrings) {
  Database db = BuildRunningExample();
  ConjunctivePredicate phi = Pred(
      db, "Publication.year >= 2000 AND Publication.year <= 2004 AND "
          "Author.dom = 'com'");
  EXPECT_EQ(phi.atoms().size(), 3u);
  EXPECT_EQ(phi.atoms()[0].op, CompareOp::kGe);
  EXPECT_EQ(phi.atoms()[2].constant.AsString(), "com");
}

TEST(ParsePredicateTest, EmptyTextIsTrue) {
  Database db = BuildRunningExample();
  EXPECT_TRUE(Pred(db, "  ").IsTrue());
}

TEST(ParsePredicateTest, Errors) {
  Database db = BuildRunningExample();
  EXPECT_FALSE(ParsePredicate(db, "Author.name").ok());
  EXPECT_FALSE(ParsePredicate(db, "Author.name = ").ok());
  EXPECT_FALSE(ParsePredicate(db, "Author.name = 'JG' extra").ok());
  EXPECT_FALSE(ParsePredicate(db, "Nope.name = 'JG'").ok());
  EXPECT_FALSE(ParsePredicate(db, "Author.name = 'unterminated").ok());
}

TEST(ParsePredicateTest, NegativeNumbersAndDoubles) {
  Database db = BuildRunningExample();
  ConjunctivePredicate phi = Pred(db, "Publication.year > -1");
  EXPECT_EQ(phi.atoms()[0].constant.AsInt(), -1);
}

// Stacked minus signs on a literal recurse once each; past kMaxParseDepth
// they are a ParseError, not a stack overflow.
TEST(ParsePredicateTest, DeeplyNegatedLiteralIsRefused) {
  Database db = BuildRunningExample();
  const std::string minuses(100000, '-');
  EXPECT_EQ(ParseDnfPredicate(db, "Publication.year = " + minuses + "5")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      ParsePredicate(db, "Publication.year = " + minuses + "5").status().code(),
      StatusCode::kParseError);
  const std::string at_cap(static_cast<size_t>(kMaxParseDepth), '-');
  ConjunctivePredicate phi = Pred(db, "Publication.year = " + at_cap + "5");
  EXPECT_EQ(phi.atoms()[0].constant.AsInt(), 5);  // an even count
}

TEST(PredicateToStringTest, Rendering) {
  Database db = BuildRunningExample();
  ConjunctivePredicate phi =
      Pred(db, "Author.name = 'JG' AND Publication.year = 2001");
  EXPECT_EQ(phi.ToString(db),
            "[Author.name = 'JG' AND Publication.year = 2001]");
}

}  // namespace
}  // namespace xplain
