#include "relational/aggregate.h"

namespace xplain {

const char* AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCountStar:
      return "count(*)";
    case AggregateKind::kCountDistinct:
      return "count(distinct)";
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kMin:
      return "min";
    case AggregateKind::kMax:
      return "max";
    case AggregateKind::kAvg:
      return "avg";
  }
  return "?";
}

std::string AggregateSpec::ToString(const Database& db) const {
  switch (kind) {
    case AggregateKind::kCountStar:
      return "count(*)";
    case AggregateKind::kCountDistinct:
      return "count(distinct " + db.ColumnName(column) + ")";
    case AggregateKind::kSum:
      return "sum(" + db.ColumnName(column) + ")";
    case AggregateKind::kMin:
      return "min(" + db.ColumnName(column) + ")";
    case AggregateKind::kMax:
      return "max(" + db.ColumnName(column) + ")";
    case AggregateKind::kAvg:
      return "avg(" + db.ColumnName(column) + ")";
  }
  return "?";
}

void AggregateAccumulator::Add(const Value& value) {
  switch (kind_) {
    case AggregateKind::kCountStar:
      ++count_;
      return;
    case AggregateKind::kCountDistinct:
      if (!value.is_null()) distinct_.insert(value);
      return;
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      if (!value.is_null()) {
        sum_ += value.AsNumeric();
        ++count_;
      }
      return;
    case AggregateKind::kMin:
      if (!value.is_null() &&
          (min_.is_null() || value.Compare(min_) < 0)) {
        min_ = value;
      }
      return;
    case AggregateKind::kMax:
      if (!value.is_null() &&
          (max_.is_null() || value.Compare(max_) > 0)) {
        max_ = value;
      }
      return;
  }
}

Value AggregateAccumulator::Finish() const {
  switch (kind_) {
    case AggregateKind::kCountStar:
      return Value::Int(count_);
    case AggregateKind::kCountDistinct:
      return Value::Int(static_cast<int64_t>(distinct_.size()));
    case AggregateKind::kSum:
      return count_ == 0 ? Value::Null() : Value::Real(sum_);
    case AggregateKind::kAvg:
      return count_ == 0 ? Value::Null()
                         : Value::Real(sum_ / static_cast<double>(count_));
    case AggregateKind::kMin:
      return min_;
    case AggregateKind::kMax:
      return max_;
  }
  return Value::Null();
}

Value EvaluateAggregate(const UniversalRelation& universal,
                        const AggregateSpec& spec,
                        const DnfPredicate* filter,
                        const RowSet* live) {
  AggregateAccumulator acc(spec.kind);
  const size_t n = universal.NumRows();
  const bool needs_column = spec.kind != AggregateKind::kCountStar;
  for (size_t u = 0; u < n; ++u) {
    if (live != nullptr && !live->Test(u)) continue;
    if (filter != nullptr && !filter->EvalUniversal(universal, u)) continue;
    acc.Add(needs_column ? universal.ValueAt(u, spec.column) : Value::Null());
  }
  return acc.Finish();
}

}  // namespace xplain
