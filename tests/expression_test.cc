#include "relational/expression.h"

#include <cmath>

#include "gtest/gtest.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::UnwrapOrDie;

const EvalOptions kOpts;

TEST(ExpressionTest, ConstantsAndVariables) {
  ExprPtr c = Expression::Constant(2.5);
  EXPECT_DOUBLE_EQ(c->Eval({}, kOpts), 2.5);
  ExprPtr v = Expression::Variable(1, "q2");
  EXPECT_DOUBLE_EQ(v->Eval({10, 20}, kOpts), 20);
  EXPECT_EQ(v->MaxVariableIndex(), 1);
  EXPECT_EQ(c->MaxVariableIndex(), -1);
}

TEST(ExpressionTest, Arithmetic) {
  ExprPtr e = Expression::Binary(
      Expression::BinaryOp::kAdd, Expression::Constant(1),
      Expression::Binary(Expression::BinaryOp::kMul, Expression::Constant(2),
                         Expression::Constant(3)));
  EXPECT_DOUBLE_EQ(e->Eval({}, kOpts), 7.0);
}

TEST(ExpressionTest, DivisionGuardedByEpsilon) {
  ExprPtr e = Expression::Binary(Expression::BinaryOp::kDiv,
                                 Expression::Constant(1),
                                 Expression::Variable(0, "q1"));
  EXPECT_DOUBLE_EQ(e->Eval({4}, kOpts), 0.25);
  // Denominator 0 is clamped to +epsilon.
  EXPECT_DOUBLE_EQ(e->Eval({0}, kOpts), 1.0 / kOpts.epsilon);
  // Small negative denominators clamp to -epsilon.
  EXPECT_DOUBLE_EQ(e->Eval({-1e-9}, kOpts), -1.0 / kOpts.epsilon);
}

TEST(ExpressionTest, UnaryFunctions) {
  ExprPtr x = Expression::Variable(0, "x");
  EXPECT_DOUBLE_EQ(
      Expression::Unary(Expression::UnaryOp::kNeg, x)->Eval({3}, kOpts), -3);
  EXPECT_DOUBLE_EQ(
      Expression::Unary(Expression::UnaryOp::kAbs, x)->Eval({-3}, kOpts), 3);
  EXPECT_DOUBLE_EQ(
      Expression::Unary(Expression::UnaryOp::kExp, x)->Eval({0}, kOpts), 1);
  EXPECT_DOUBLE_EQ(
      Expression::Unary(Expression::UnaryOp::kSqrt, x)->Eval({9}, kOpts), 3);
  // sqrt of negative clamps to 0; log of non-positive clamps to epsilon.
  EXPECT_DOUBLE_EQ(
      Expression::Unary(Expression::UnaryOp::kSqrt, x)->Eval({-1}, kOpts), 0);
  EXPECT_DOUBLE_EQ(
      Expression::Unary(Expression::UnaryOp::kLog, x)->Eval({0}, kOpts),
      std::log(kOpts.epsilon));
}

TEST(ParseExpressionTest, PaperRatioOfRatios) {
  ExprPtr e = UnwrapOrDie(
      ParseExpression("(q1 / q2) / (q3 / q4)", {"q1", "q2", "q3", "q4"}));
  EXPECT_DOUBLE_EQ(e->Eval({10, 2, 3, 6}, kOpts), (10.0 / 2) / (3.0 / 6));
  EXPECT_EQ(e->MaxVariableIndex(), 3);
}

TEST(ParseExpressionTest, Precedence) {
  ExprPtr e = UnwrapOrDie(ParseExpression("1 + 2 * 3 - 4 / 2", {}));
  EXPECT_DOUBLE_EQ(e->Eval({}, kOpts), 5.0);
  ExprPtr p = UnwrapOrDie(ParseExpression("2 ^ 3 ^ 2", {}));  // right-assoc
  EXPECT_DOUBLE_EQ(p->Eval({}, kOpts), 512.0);
}

TEST(ParseExpressionTest, UnaryMinusAndFunctions) {
  ExprPtr e = UnwrapOrDie(ParseExpression("-q1 + abs(-3)", {"q1"}));
  EXPECT_DOUBLE_EQ(e->Eval({2}, kOpts), 1.0);
  ExprPtr f = UnwrapOrDie(ParseExpression("log(exp(2))", {}));
  EXPECT_NEAR(f->Eval({}, kOpts), 2.0, 1e-9);
}

TEST(ParseExpressionTest, CaseInsensitiveVariables) {
  ExprPtr e = UnwrapOrDie(ParseExpression("Q1 / q2", {"q1", "q2"}));
  EXPECT_DOUBLE_EQ(e->Eval({6, 3}, kOpts), 2.0);
}

TEST(ParseExpressionTest, Errors) {
  EXPECT_FALSE(ParseExpression("q1 +", {"q1"}).ok());
  EXPECT_FALSE(ParseExpression("(q1", {"q1"}).ok());
  EXPECT_FALSE(ParseExpression("qX", {"q1"}).ok());
  EXPECT_FALSE(ParseExpression("median(q1)", {"q1"}).ok());
  EXPECT_FALSE(ParseExpression("q1 q2", {"q1", "q2"}).ok());
}

/// `n` copies of `unit`.
std::string Repeat(const std::string& unit, size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (size_t i = 0; i < n; ++i) out += unit;
  return out;
}

// Nesting past kMaxParseDepth is a ParseError, not a stack overflow: each
// shape fits a 1 MiB request line.
TEST(ParseExpressionTest, DeepNestingIsRefused) {
  const std::vector<std::string> q1 = {"q1"};
  auto refused = [&](const std::string& text) {
    return ParseExpression(text, q1).status().code() ==
           StatusCode::kParseError;
  };
  EXPECT_TRUE(refused(Repeat("(", 10000)));
  EXPECT_TRUE(refused(Repeat("(", 10000) + "q1" + Repeat(")", 10000)));
  EXPECT_TRUE(refused("q1" + Repeat("^q1", 100000)));
  EXPECT_TRUE(refused(Repeat("-", 100000) + "q1"));
  EXPECT_TRUE(refused(Repeat("abs(", 10000) + "q1" + Repeat(")", 10000)));
  // A chain of binary operators nests no deeper but builds a tree as tall
  // as the chain: the token cap bounds it.
  EXPECT_TRUE(refused("q1" + Repeat("+q1", 100000)));

  // At the cap, each shape still parses.
  const size_t depth = static_cast<size_t>(kMaxParseDepth);
  ExprPtr parens = UnwrapOrDie(ParseExpression(
      Repeat("(", depth) + "q1" + Repeat(")", depth), q1));
  EXPECT_DOUBLE_EQ(parens->Eval({2}, kOpts), 2.0);
  ExprPtr negs = UnwrapOrDie(ParseExpression(Repeat("-", depth) + "q1", q1));
  EXPECT_DOUBLE_EQ(negs->Eval({2}, kOpts), 2.0);  // an even count
  ExprPtr powers =
      UnwrapOrDie(ParseExpression("q1" + Repeat("^q1", depth), q1));
  EXPECT_DOUBLE_EQ(powers->Eval({1}, kOpts), 1.0);
  ExprPtr chain = UnwrapOrDie(ParseExpression(
      "q1" + Repeat("+q1", (kMaxExpressionTokens - 1) / 2), q1));
  EXPECT_DOUBLE_EQ(chain->Eval({1}, kOpts),
                   static_cast<double>((kMaxExpressionTokens + 1) / 2));
  EXPECT_TRUE(refused(Repeat("(", depth + 1) + "q1" + Repeat(")", depth + 1)));
}

TEST(ExpressionToStringTest, Rendering) {
  ExprPtr e = UnwrapOrDie(ParseExpression("(q1 / q2) / (q3 / q4)",
                                          {"q1", "q2", "q3", "q4"}));
  EXPECT_EQ(e->ToString(), "((q1 / q2) / (q3 / q4))");
}

}  // namespace
}  // namespace xplain
