#ifndef XPLAIN_RELATIONAL_COLUMN_CACHE_H_
#define XPLAIN_RELATIONAL_COLUMN_CACHE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "relational/predicate.h"
#include "relational/universal.h"
#include "util/thread_pool.h"

namespace xplain {

/// One dictionary-encoded universal-relation column: a dense uint32 code
/// per universal row plus the per-code dictionary. Codes are assigned in
/// first-appearance base-row order; the dictionary is deduplicated and
/// bijective with the values present in the base relation.
/// Thread-safety: immutable once built; concurrent const access is safe.
struct EncodedColumn {
  ColumnRef column;
  std::vector<uint32_t> codes;     // [universal row]
  std::vector<Value> dictionary;   // [code]

  /// Encodes `column` of `universal` (one Value hash per base row, then an
  /// integer gather per universal row).
  static EncodedColumn Encode(const UniversalRelation& universal,
                              const ColumnRef& column);

  /// The column restricted to the surviving universal rows after a delta
  /// (`surviving_universal`: old row indices, ascending — see
  /// UniversalRemap). The dictionary is kept as-is, so it may become a
  /// superset of the live values; every consumer keys by code or decodes
  /// per live row, which is unaffected.
  EncodedColumn Remapped(
      const std::vector<uint32_t>& surviving_universal) const;
};

/// A columnar view over selected universal-relation columns, each one an
/// EncodedColumn shared with its owner (a CubeWorkspace holds each column
/// once and hands out views; Build encodes private columns). The cube
/// kernel groups on these dictionary codes instead of Value tuples.
///
/// Thread-safety: immutable; concurrent const access is safe.
class ColumnCache {
 public:
  /// A view over already-encoded columns of `universal` (shared, not
  /// copied); every column must cover universal.NumRows() rows.
  ColumnCache(const UniversalRelation& universal,
              std::vector<std::shared_ptr<const EncodedColumn>> columns);

  /// Encodes `columns` of `universal` into a view that owns them, one
  /// column per task across `pool` (nullptr: sequentially).
  static ColumnCache Build(const UniversalRelation& universal,
                           const std::vector<ColumnRef>& columns,
                           ThreadPool* pool = nullptr);

  /// The cached column at position `col`.
  const ColumnRef& column(int col) const { return columns_[col]->column; }
  /// Number of cached columns.
  int num_columns() const { return static_cast<int>(columns_.size()); }
  /// Number of encoded rows (U(D)'s row count when the view was made).
  size_t NumRows() const { return num_rows_; }

  /// Dictionary code of column `col` in universal row `row`.
  uint32_t Code(size_t row, int col) const { return codes_[col][row]; }
  /// Column `col`'s codes, one per universal row.
  const uint32_t* Codes(int col) const { return codes_[col]; }

  /// Decoded value for a column code.
  const Value& Decode(int col, uint32_t code) const {
    return columns_[col]->dictionary[code];
  }

  /// Number of codes in column `col`'s dictionary. Also used as the
  /// reserved "ALL" sentinel code for rolled-up cube coordinates.
  size_t DictionarySize(int col) const {
    return columns_[col]->dictionary.size();
  }

  /// Index of `column` within the cache, or -1.
  int FindColumn(const ColumnRef& column) const;

 private:
  size_t num_rows_;
  std::vector<std::shared_ptr<const EncodedColumn>> columns_;
  std::vector<const uint32_t*> codes_;  // columns_[c]->codes.data()
};

/// A DNF predicate compiled against a ColumnCache: every atom becomes a
/// per-dictionary-code match table, so row evaluation is a handful of
/// array lookups instead of Value comparisons. Requires every atom's
/// column to be cached.
/// Thread-safety: safe after Compile — Eval only reads.
class CodedFilter {
 public:
  [[nodiscard]] static Result<CodedFilter> Compile(const ColumnCache& cache,
                                     const DnfPredicate& filter);

  bool Eval(const ColumnCache& cache, size_t row) const {
    for (const auto& conjunct : disjuncts_) {
      bool pass = true;
      for (const auto& atom : conjunct) {
        if (!atom.match[cache.Code(row, atom.column_index)]) {
          pass = false;
          break;
        }
      }
      if (pass) return true;
    }
    return false;
  }

 private:
  struct CodedAtom {
    int column_index = -1;
    std::vector<uint8_t> match;  // indexed by dictionary code
  };
  std::vector<std::vector<CodedAtom>> disjuncts_;
};

/// Up to 64 filters compiled together for one scan: a row's mask has bit
/// b set iff the row passes filter b. A single-conjunct filter becomes a
/// bit in per-column tables (dictionary code -> the filters that code
/// passes), which a row ANDs together; a filter with several disjuncts
/// sets its bit with CodedFilter::Eval; a FALSE filter (no disjuncts)
/// never sets it. Requires every atom's column to be cached.
/// Thread-safety: safe after Compile — Masks only reads.
class FilterMasks {
 public:
  /// `filters[b]` is filter b; nullptr passes every row.
  [[nodiscard]] static Result<FilterMasks> Compile(
      const ColumnCache& cache, const std::vector<const DnfPredicate*>& filters);

  /// out[r] = the mask of row rows[r], for r < n; one column at a time.
  void Masks(const ColumnCache& cache, const uint32_t* rows, size_t n,
             uint64_t* out) const;
  /// out[r] = the mask of row first + r, for r < n.
  void Masks(const ColumnCache& cache, size_t first, size_t n,
             uint64_t* out) const;

 private:
  struct ColumnTable {
    int column_index = -1;
    std::vector<uint64_t> pass;  // indexed by dictionary code
  };
  uint64_t conjunctive_ = 0;  // bits of the single-conjunct filters
  std::vector<ColumnTable> tables_;
  std::vector<std::pair<int, CodedFilter>> disjunctive_;

  /// Masks of the rows row_at(0), ..., row_at(n - 1).
  template <typename RowAt>
  void Fill(const ColumnCache& cache, size_t n, RowAt row_at,
            uint64_t* out) const;
};

}  // namespace xplain

#endif  // XPLAIN_RELATIONAL_COLUMN_CACHE_H_
