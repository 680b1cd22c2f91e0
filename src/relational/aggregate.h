#ifndef XPLAIN_RELATIONAL_AGGREGATE_H_
#define XPLAIN_RELATIONAL_AGGREGATE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "relational/predicate.h"
#include "relational/universal.h"
#include "util/result.h"

namespace xplain {

/// Aggregate functions supported in the select clause of the q_j queries
/// (paper Eq. 1).
enum class AggregateKind {
  kCountStar,
  kCountDistinct,
  kSum,
  kMin,
  kMax,
  kAvg,
};

/// Wire/display name of `kind` ("count(*)", "sum", ...).
const char* AggregateKindToString(AggregateKind kind);

/// An aggregate over the universal relation, e.g. COUNT(DISTINCT
/// Publication.pubid) or SUM(Order.amount). `column` is unused for
/// COUNT(*).
/// Thread-safety: plain data, externally synchronized.
struct AggregateSpec {
  AggregateKind kind = AggregateKind::kCountStar;
  ColumnRef column;

  static AggregateSpec CountStar() { return AggregateSpec{}; }
  static AggregateSpec CountDistinct(ColumnRef column) {
    return AggregateSpec{AggregateKind::kCountDistinct, column};
  }
  static AggregateSpec Sum(ColumnRef column) {
    return AggregateSpec{AggregateKind::kSum, column};
  }

  /// "count(*)", "count(distinct Rel.attr)", "sum(Rel.attr)" ...
  std::string ToString(const Database& db) const;
};

/// Running state of one aggregate over a scan of rows (EvaluateAggregate).
/// The cube kernel keeps its own per-cell state over dictionary codes.
/// Thread-safety: unsafe — one accumulator per thread.
class AggregateAccumulator {
 public:
  explicit AggregateAccumulator(AggregateKind kind) : kind_(kind) {}

  /// Folds in one input row's column value (ignored for COUNT(*)).
  void Add(const Value& value);

  /// Final aggregate value; NULL for empty MIN/MAX/AVG/SUM groups,
  /// 0 for empty counts.
  Value Finish() const;

 private:
  AggregateKind kind_;
  int64_t count_ = 0;         // rows seen (kCountStar / kAvg divisor)
  double sum_ = 0.0;          // kSum / kAvg
  Value min_, max_;           // kMin / kMax
  std::unordered_set<Value> distinct_;  // kCountDistinct
};

/// Evaluates `spec` over the universal rows satisfying `filter` (nullptr =
/// all rows). If `live` is non-null, only rows with live->Test(u) true
/// participate.
Value EvaluateAggregate(const UniversalRelation& universal,
                        const AggregateSpec& spec,
                        const DnfPredicate* filter,
                        const RowSet* live = nullptr);

}  // namespace xplain

#endif  // XPLAIN_RELATIONAL_AGGREGATE_H_
