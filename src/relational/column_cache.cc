#include "relational/column_cache.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace xplain {

EncodedColumn EncodedColumn::Encode(const UniversalRelation& universal,
                                    const ColumnRef& column) {
  EncodedColumn out;
  out.column = column;
  // Encode at the base-relation level first -- in join workloads the base
  // table is much smaller than U(D), so the Value hashing happens once
  // per base row and the per-universal-row work is an integer gather.
  const Relation& base_rel = universal.db().relation(column.relation);
  std::vector<uint32_t> base_codes(base_rel.NumRows());
  std::unordered_map<Value, uint32_t> code_of;
  for (size_t row = 0; row < base_rel.NumRows(); ++row) {
    const Value& v = base_rel.at(row, column.attribute);
    auto [it, inserted] =
        code_of.emplace(v, static_cast<uint32_t>(out.dictionary.size()));
    if (inserted) out.dictionary.push_back(v);
    base_codes[row] = it->second;
  }
  out.codes.resize(universal.NumRows());
  for (size_t u = 0; u < out.codes.size(); ++u) {
    out.codes[u] = base_codes[universal.BaseRow(u, column.relation)];
  }
  return out;
}

EncodedColumn EncodedColumn::Remapped(
    const std::vector<uint32_t>& surviving_universal) const {
  EncodedColumn out;
  out.column = column;
  out.dictionary = dictionary;
  out.codes.resize(surviving_universal.size());
  for (size_t i = 0; i < surviving_universal.size(); ++i) {
    out.codes[i] = codes[surviving_universal[i]];
  }
  return out;
}

ColumnCache::ColumnCache(
    const UniversalRelation& universal,
    std::vector<std::shared_ptr<const EncodedColumn>> columns)
    : num_rows_(universal.NumRows()),
      columns_(std::move(columns)) {
  for (const auto& column : columns_) {
    XPLAIN_CHECK(column->codes.size() == num_rows_);
    codes_.push_back(column->codes.data());
  }
}

ColumnCache ColumnCache::Build(const UniversalRelation& universal,
                               const std::vector<ColumnRef>& columns,
                               ThreadPool* pool) {
  std::vector<std::shared_ptr<const EncodedColumn>> encoded(columns.size());
  const Status status = ParallelShards(
      pool, columns.size(), [&](int, size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          encoded[c] = std::make_shared<const EncodedColumn>(
              EncodedColumn::Encode(universal, columns[c]));
        }
        return Status::OK();
      });
  XPLAIN_CHECK(status.ok()) << status.ToString();
  return ColumnCache(universal, std::move(encoded));
}

int ColumnCache::FindColumn(const ColumnRef& column) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c]->column == column) return static_cast<int>(c);
  }
  return -1;
}

namespace {

/// Per dictionary code of the cached column `atom` reads: whether the
/// atom holds. kInvalidArgument when that column is not cached.
Result<std::vector<uint8_t>> MatchTable(const ColumnCache& cache,
                                        const AtomicPredicate& atom,
                                        int* column_index) {
  *column_index = cache.FindColumn(atom.column);
  if (*column_index < 0) {
    return Status::InvalidArgument(
        "filter atom references a column outside the cache");
  }
  std::vector<uint8_t> match(cache.DictionarySize(*column_index));
  for (size_t code = 0; code < match.size(); ++code) {
    match[code] =
        atom.Eval(cache.Decode(*column_index, static_cast<uint32_t>(code)))
            ? 1
            : 0;
  }
  return match;
}

}  // namespace

Result<CodedFilter> CodedFilter::Compile(const ColumnCache& cache,
                                         const DnfPredicate& filter) {
  CodedFilter out;
  out.disjuncts_.reserve(filter.disjuncts().size());
  for (const ConjunctivePredicate& conjunct : filter.disjuncts()) {
    std::vector<CodedAtom> coded;
    coded.reserve(conjunct.atoms().size());
    for (const AtomicPredicate& atom : conjunct.atoms()) {
      CodedAtom coded_atom;
      XPLAIN_ASSIGN_OR_RETURN(
          coded_atom.match,
          MatchTable(cache, atom, &coded_atom.column_index));
      coded.push_back(std::move(coded_atom));
    }
    out.disjuncts_.push_back(std::move(coded));
  }
  return out;
}

Result<FilterMasks> FilterMasks::Compile(
    const ColumnCache& cache, const std::vector<const DnfPredicate*>& filters) {
  if (filters.size() > 64) {
    return Status::InvalidArgument("at most 64 filters share one mask; got " +
                                   std::to_string(filters.size()));
  }
  FilterMasks out;
  for (size_t b = 0; b < filters.size(); ++b) {
    const DnfPredicate* filter = filters[b];
    const uint64_t bit = uint64_t{1} << b;
    if (filter == nullptr) {
      out.conjunctive_ |= bit;
      continue;
    }
    if (filter->disjuncts().size() != 1) {
      XPLAIN_ASSIGN_OR_RETURN(CodedFilter coded,
                              CodedFilter::Compile(cache, *filter));
      out.disjunctive_.emplace_back(static_cast<int>(b), std::move(coded));
      continue;
    }
    out.conjunctive_ |= bit;
    for (const AtomicPredicate& atom : filter->disjuncts()[0].atoms()) {
      int column_index = -1;
      XPLAIN_ASSIGN_OR_RETURN(std::vector<uint8_t> match,
                              MatchTable(cache, atom, &column_index));
      auto table = std::find_if(
          out.tables_.begin(), out.tables_.end(),
          [&](const ColumnTable& t) { return t.column_index == column_index; });
      if (table == out.tables_.end()) {
        // A code passes every filter that has no atom on the column.
        out.tables_.push_back({column_index, std::vector<uint64_t>(
                                                 match.size(), ~uint64_t{0})});
        table = out.tables_.end() - 1;
      }
      for (size_t code = 0; code < match.size(); ++code) {
        if (!match[code]) table->pass[code] &= ~bit;
      }
    }
  }
  return out;
}

template <typename RowAt>
void FilterMasks::Fill(const ColumnCache& cache, size_t n, RowAt row_at,
                       uint64_t* out) const {
  std::fill(out, out + n, conjunctive_);
  for (const ColumnTable& table : tables_) {
    const uint32_t* codes = cache.Codes(table.column_index);
    const uint64_t* pass = table.pass.data();
    for (size_t r = 0; r < n; ++r) out[r] &= pass[codes[row_at(r)]];
  }
  for (const auto& [bit, filter] : disjunctive_) {
    for (size_t r = 0; r < n; ++r) {
      if (filter.Eval(cache, row_at(r))) out[r] |= uint64_t{1} << bit;
    }
  }
}

void FilterMasks::Masks(const ColumnCache& cache, const uint32_t* rows,
                        size_t n, uint64_t* out) const {
  Fill(cache, n, [rows](size_t r) { return rows[r]; }, out);
}

void FilterMasks::Masks(const ColumnCache& cache, size_t first, size_t n,
                        uint64_t* out) const {
  Fill(cache, n, [first](size_t r) { return first + r; }, out);
}

}  // namespace xplain
