#ifndef XPLAIN_RELATIONAL_PARSER_H_
#define XPLAIN_RELATIONAL_PARSER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "relational/aggregate.h"
#include "relational/expression.h"
#include "relational/predicate.h"
#include "util/result.h"

namespace xplain {

/// The deepest nesting a parser accepts: parentheses, function calls,
/// unary minus and '^' operands in an expression, and stacked minus signs
/// on a literal. Input past it is a ParseError, not a recursion that could
/// exhaust the stack.
inline constexpr int kMaxParseDepth = 64;

/// The most tokens an expression may have. A chain of binary operators
/// builds a tree as tall as the chain is long, and evaluating or freeing
/// it recurses once per level; this bounds that height.
inline constexpr size_t kMaxExpressionTokens = 4096;

/// Parses a conjunctive predicate, e.g.
///   "Author.name = 'JG' AND Publication.year >= 2000"
/// Column names are resolved against `db`; unqualified names must be
/// unambiguous. String literals use single or double quotes; numbers parse
/// as int64 unless they contain '.', 'e' or 'E'.
[[nodiscard]] Result<ConjunctivePredicate> ParsePredicate(const Database& db,
                                            const std::string& text);

/// Parses a predicate in disjunctive normal form, e.g.
///   "Author.dom = 'uk' OR Author.country = 'UK'"
/// AND binds tighter than OR; the empty string parses to TRUE. Every
/// conjunctive predicate is accepted too.
[[nodiscard]] Result<DnfPredicate> ParseDnfPredicate(const Database& db,
                                       const std::string& text);

/// Parses an arithmetic expression over subquery names, e.g.
///   "(q1 / q2) / (q3 / q4)"
/// `variables` lists the allowed variable names in index order (typically
/// {"q1", ..., "qm"}). Supports + - * / ^, unary minus, parentheses and the
/// functions log, exp, sqrt, abs.
[[nodiscard]] Result<ExprPtr> ParseExpression(const std::string& text,
                                const std::vector<std::string>& variables);

/// Parses an aggregate specification, e.g.
///   "count(*)", "count(distinct Publication.pubid)", "sum(amount)"
[[nodiscard]] Result<AggregateSpec> ParseAggregate(const Database& db,
                                     const std::string& text);

}  // namespace xplain

#endif  // XPLAIN_RELATIONAL_PARSER_H_
