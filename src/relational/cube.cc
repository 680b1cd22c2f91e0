#include "relational/cube.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <unordered_set>

#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {

namespace {

constexpr uint32_t kNoCode = 0xffffffffu;

/// The code of the NULL in column `col`'s dictionary, or kNoCode (a
/// dictionary holds each value once).
uint32_t NullCode(const ColumnCache& cache, int col) {
  for (uint32_t code = 0; code < cache.DictionarySize(col); ++code) {
    if (cache.Decode(col, code).is_null()) return code;
  }
  return kNoCode;
}

/// The aggregated column as the kernel reads it: per row a dictionary
/// code, and for SUM/MIN/MAX/AVG each code's value as a double. `column`
/// is -1 for COUNT(*).
struct ValueCodes {
  const ColumnCache* cache = nullptr;
  int column = -1;
  uint32_t null_code = kNoCode;
  std::vector<double> numeric;

  uint32_t Code(uint32_t row) const { return cache->Code(row, column); }
};

Result<ValueCodes> ReadValueCodes(const ColumnCache& cache,
                                  const AggregateSpec& agg) {
  ValueCodes values;
  values.cache = &cache;
  if (agg.kind == AggregateKind::kCountStar) return values;
  values.column = cache.FindColumn(agg.column);
  if (values.column < 0) {
    return Status::InvalidArgument("aggregated column is not in the cache");
  }
  values.null_code = NullCode(cache, values.column);
  if (agg.kind == AggregateKind::kCountDistinct) return values;
  values.numeric.resize(cache.DictionarySize(values.column), 0.0);
  for (uint32_t code = 0; code < values.numeric.size(); ++code) {
    const Value& v = cache.Decode(values.column, code);
    if (v.is_null()) continue;
    if (!IsNumeric(v.type())) {
      return Status::InvalidArgument(
          std::string(AggregateKindToString(agg.kind)) +
          " needs a numeric column, got " + DataTypeToString(v.type()));
    }
    values.numeric[code] = v.AsNumeric();
  }
  return values;
}

/// Per-cell running state of aggregate kind K: Add folds in one input
/// row, Merge another cell; Finish gives what EvaluateAggregate gives for
/// the same rows, as a double (0.0 for an empty group).
template <AggregateKind K>
struct Cell {
  int64_t count = 0;  // rows for COUNT(*), else non-NULL values folded
  double acc = 0.0;   // SUM/AVG: the sum; MIN/MAX: the extremum

  void Add(const ValueCodes& values, uint32_t row) {
    if constexpr (K == AggregateKind::kCountStar) {
      ++count;
    } else {
      const uint32_t code = values.Code(row);
      if (code != values.null_code) Fold(1, values.numeric[code]);
    }
  }
  void Merge(const Cell& other) {
    if (other.count > 0) Fold(other.count, other.acc);
  }
  void Fold(int64_t n, double x) {
    if constexpr (K == AggregateKind::kMin) {
      if (count == 0 || x < acc) acc = x;
    } else if constexpr (K == AggregateKind::kMax) {
      if (count == 0 || x > acc) acc = x;
    } else {
      acc += x;
    }
    count += n;
  }
  double Finish() const {
    if constexpr (K == AggregateKind::kCountStar) {
      return static_cast<double>(count);
    } else if constexpr (K == AggregateKind::kAvg) {
      return count == 0 ? 0.0 : acc / static_cast<double>(count);
    } else {
      return acc;
    }
  }
};

/// COUNT(DISTINCT) keeps the set of non-NULL value codes, so its roll-up
/// is an exact union, not a sum.
template <>
struct Cell<AggregateKind::kCountDistinct> {
  std::unordered_set<uint32_t> codes;

  void Add(const ValueCodes& values, uint32_t row) {
    const uint32_t code = values.Code(row);
    if (code != values.null_code) codes.insert(code);
  }
  void Merge(const Cell& other) {
    codes.insert(other.codes.begin(), other.codes.end());
  }
  double Finish() const { return static_cast<double>(codes.size()); }
};

/// Bits a key field needs for codes 0..dict_size, the last meaning ALL.
int FieldWidth(size_t dict_size) {
  int bits = 1;
  while ((uint64_t{1} << bits) < dict_size + 1) ++bits;
  return bits;
}

/// Cube keys over the grouping columns' dictionary codes, one field per
/// attribute: packed into a uint64_t when the fields fit in 64 bits, else
/// one 32-bit char per code in a std::u32string (which std::hash takes).
/// Field value all_[i], attribute i's dictionary size and never a real
/// code, marks ALL after the roll-up.
template <typename Key>
class CubeKeys {
 public:
  static constexpr bool kPacked = std::is_same_v<Key, uint64_t>;

  CubeKeys(const ColumnCache& cache, const std::vector<int>& columns)
      : cache_(&cache), columns_(columns) {
    int shift = 0;
    for (int col : columns_) {
      all_.push_back(static_cast<uint32_t>(cache.DictionarySize(col)));
      null_.push_back(NullCode(cache, col));
      shifts_.push_back(shift);
      fields_.push_back((uint64_t{1} << FieldWidth(all_.back())) - 1);
      shift += FieldWidth(all_.back());
    }
    if constexpr (kPacked) {
      // Per roll-up mask: the bits of the fields it keeps, and ALL in the
      // others.
      keep_.assign(size_t{1} << d(), 0);
      rolled_all_.assign(size_t{1} << d(), 0);
      for (size_t mask = 0; mask < keep_.size(); ++mask) {
        for (int i = 0; i < d(); ++i) {
          if (mask & (size_t{1} << i)) {
            keep_[mask] |= fields_[i] << shifts_[i];
          } else {
            rolled_all_[mask] |= static_cast<uint64_t>(all_[i]) << shifts_[i];
          }
        }
      }
    }
  }

  /// True when `columns`' fields pack into 64 bits.
  static bool Fits(const ColumnCache& cache, const std::vector<int>& columns) {
    int bits = 0;
    for (int col : columns) bits += FieldWidth(cache.DictionarySize(col));
    return bits <= 64;
  }

  int d() const { return static_cast<int>(columns_.size()); }

  /// The base-cell key of universal row `row`.
  Key Make(uint32_t row) const {
    Key key{};
    if constexpr (!kPacked) key.resize(columns_.size());
    for (int i = 0; i < d(); ++i) {
      const uint32_t code = cache_->Code(row, columns_[i]);
      if constexpr (kPacked) {
        key |= static_cast<uint64_t>(code) << shifts_[i];
      } else {
        key[i] = static_cast<char32_t>(code);
      }
    }
    return key;
  }

  /// `key` with every attribute whose bit is clear in `mask` set to ALL.
  Key Roll(Key key, uint32_t mask) const {
    if constexpr (kPacked) {
      return (key & keep_[mask]) | rolled_all_[mask];
    } else {
      for (int i = 0; i < d(); ++i) {
        if (!(mask & (1u << i))) key[i] = static_cast<char32_t>(all_[i]);
      }
      return key;
    }
  }

  /// True if a base cell groups a data NULL in some attribute.
  bool HasNull(const Key& key) const {
    for (int i = 0; i < d(); ++i) {
      if (Get(key, i) == null_[i]) return true;
    }
    return false;
  }

  /// The cell coordinate of `key`; ALL decodes to NULL.
  Tuple Decode(const Key& key) const {
    Tuple coords(columns_.size());
    for (int i = 0; i < d(); ++i) {
      const uint32_t code = Get(key, i);
      if (code != all_[i]) coords[i] = cache_->Decode(columns_[i], code);
    }
    return coords;
  }

 private:
  uint32_t Get(const Key& key, int i) const {
    if constexpr (kPacked) {
      return static_cast<uint32_t>((key >> shifts_[i]) & fields_[i]);
    } else {
      return static_cast<uint32_t>(key[i]);
    }
  }

  const ColumnCache* cache_;
  std::vector<int> columns_;
  std::vector<uint32_t> all_;
  std::vector<uint32_t> null_;
  std::vector<int> shifts_;
  std::vector<uint64_t> fields_;
  std::vector<uint64_t> keep_;
  std::vector<uint64_t> rolled_all_;
};

/// The kernel body, one instance per (aggregate kind, key type). Phase 1
/// groups `rows` in contiguous per-shard ranges into thread-local maps,
/// merged in shard order; phase 2 shards the lattice by mask, so shards
/// emit disjoint cells (a mask fixes which fields hold ALL).
template <AggregateKind K, typename Key>
Result<DataCube::CellMap> GroupAndRollUp(const CubeKeys<Key>& keys,
                                         const ValueCodes& values,
                                         const std::vector<uint32_t>& rows,
                                         ThreadPool* pool) {
  using Map = std::unordered_map<Key, Cell<K>>;
  const size_t shards = static_cast<size_t>(
      pool == nullptr ? 1 : std::max(pool->num_threads(), 1));
  std::vector<Map> base_locals(shards);
  XPLAIN_RETURN_IF_ERROR(ParallelShards(
      pool, rows.size(), [&](int shard, size_t begin, size_t end) {
        XPLAIN_TRACE_SPAN("cube.base_shard");
        Map& local = base_locals[static_cast<size_t>(shard)];
        for (size_t r = begin; r < end; ++r) {
          local[keys.Make(rows[r])].Add(values, rows[r]);
        }
        return Status::OK();
      }));
  Map base = std::move(base_locals[0]);
  for (size_t s = 1; s < shards; ++s) {
    for (auto& [key, cell] : base_locals[s]) {
      auto [it, inserted] = base.try_emplace(key, std::move(cell));
      if (!inserted) it->second.Merge(cell);
    }
  }
  XPLAIN_COUNTER_ADD("cube.base_cells", static_cast<int64_t>(base.size()));
  // A data NULL would be indistinguishable from the lattice's don't-care
  // marker (SQL's GROUPING() ambiguity); the paper's candidate attributes
  // are recoded non-NULL categories. Only rows that take part count.
  for (const auto& [key, cell] : base) {
    if (keys.HasNull(key)) {
      return Status::InvalidArgument(
          "cube attribute contains NULL; recode NULLs before cubing");
    }
  }

  std::vector<Map> rolled_locals(shards);
  XPLAIN_RETURN_IF_ERROR(ParallelShards(
      pool, size_t{1} << keys.d(),
      [&](int shard, size_t mask_begin, size_t mask_end) {
        XPLAIN_TRACE_SPAN("cube.rollup_shard");
        Map& rolled = rolled_locals[static_cast<size_t>(shard)];
        rolled.reserve(base.size());
        for (const auto& [key, cell] : base) {
          for (size_t mask = mask_begin; mask < mask_end; ++mask) {
            rolled[keys.Roll(key, static_cast<uint32_t>(mask))].Merge(cell);
          }
        }
        return Status::OK();
      }));
  size_t total_cells = 0;
  for (const Map& rolled : rolled_locals) total_cells += rolled.size();
  DataCube::CellMap cells;
  cells.reserve(total_cells);
  for (const Map& rolled : rolled_locals) {
    for (const auto& [key, cell] : rolled) {
      cells.emplace(keys.Decode(key), cell.Finish());
    }
  }
  XPLAIN_COUNTER_ADD("cube.cells", static_cast<int64_t>(total_cells));
  return cells;
}

}  // namespace

Result<DataCube> DataCube::Compute(const UniversalRelation& universal,
                                   const std::vector<ColumnRef>& attributes,
                                   const AggregateSpec& agg,
                                   const DnfPredicate* filter,
                                   const CubeOptions& options) {
  std::vector<ColumnRef> columns = attributes;
  if (agg.kind != AggregateKind::kCountStar) columns.push_back(agg.column);
  std::vector<uint32_t> rows;
  for (size_t u = 0; u < universal.NumRows(); ++u) {
    if (filter == nullptr || filter->EvalUniversal(universal, u)) {
      rows.push_back(static_cast<uint32_t>(u));
    }
  }
  return Compute(ColumnCache::Build(universal, columns), attributes, agg,
                 rows, options);
}

Result<DataCube> DataCube::Compute(const ColumnCache& cache,
                                   const std::vector<ColumnRef>& attributes,
                                   const AggregateSpec& agg,
                                   const std::vector<uint32_t>& rows,
                                   const CubeOptions& options) {
  XPLAIN_TRACE_SPAN("cube.compute");
  const int d = static_cast<int>(attributes.size());
  if (d == 0) {
    return Status::InvalidArgument("cube needs at least one attribute");
  }
  if (d > options.max_attributes) {
    return Status::InvalidArgument(
        "cube over " + std::to_string(d) + " attributes exceeds the cap of " +
        std::to_string(options.max_attributes));
  }
  std::vector<int> columns;
  for (const ColumnRef& attr : attributes) {
    columns.push_back(cache.FindColumn(attr));
    if (columns.back() < 0) {
      return Status::InvalidArgument("cube attribute is not in the cache");
    }
  }
  XPLAIN_ASSIGN_OR_RETURN(ValueCodes values, ReadValueCodes(cache, agg));
  // The aggregate kind and the key type are picked once per call.
  auto run = [&](const auto& keys) -> Result<CellMap> {
    using enum AggregateKind;
    switch (agg.kind) {
      case kCountStar:
        return GroupAndRollUp<kCountStar>(keys, values, rows, options.pool);
      case kCountDistinct:
        return GroupAndRollUp<kCountDistinct>(keys, values, rows, options.pool);
      case kSum:
        return GroupAndRollUp<kSum>(keys, values, rows, options.pool);
      case kAvg:
        return GroupAndRollUp<kAvg>(keys, values, rows, options.pool);
      case kMin:
        return GroupAndRollUp<kMin>(keys, values, rows, options.pool);
      case kMax:
        return GroupAndRollUp<kMax>(keys, values, rows, options.pool);
    }
    return Status::InvalidArgument("unknown aggregate kind");
  };
  DataCube cube;
  cube.attributes_ = attributes;
  XPLAIN_ASSIGN_OR_RETURN(
      cube.cells_,
      CubeKeys<uint64_t>::Fits(cache, columns)
          ? run(CubeKeys<uint64_t>(cache, columns))
          : run(CubeKeys<std::u32string>(cache, columns)));
  return cube;
}

DataCube DataCube::FromCells(std::vector<ColumnRef> attributes,
                             CellMap cells) {
  DataCube cube;
  cube.attributes_ = std::move(attributes);
  cube.cells_ = std::move(cells);
  return cube;
}

double DataCube::CellValue(const Tuple& coords) const {
  auto it = cells_.find(coords);
  return it == cells_.end() ? 0.0 : it->second;
}

double DataCube::GrandTotal() const {
  return CellValue(Tuple(attributes_.size(), Value::Null()));
}

std::string DataCube::ToString(const Database& db, size_t max_cells) const {
  std::string out = "cube over (";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += db.ColumnName(attributes_[i]);
  }
  out += "): " + std::to_string(cells_.size()) + " cells";
  // Deterministic rendering: sort coordinates.
  std::vector<const Tuple*> keys;
  keys.reserve(cells_.size());
  for (const auto& [coords, value] : cells_) keys.push_back(&coords);
  std::sort(keys.begin(), keys.end(), [](const Tuple* a, const Tuple* b) {
    return CompareTuples(*a, *b) < 0;
  });
  size_t shown = std::min(max_cells, keys.size());
  for (size_t i = 0; i < shown; ++i) {
    out += "\n  " + TupleToString(*keys[i]) + " -> " +
           std::to_string(cells_.at(*keys[i]));
  }
  if (shown < keys.size()) out += "\n  ...";
  return out;
}

Result<CubeJoinResult> FullOuterJoinCubes(
    const std::vector<const DataCube*>& cubes) {
  TraceSpan span("cube.full_outer_join");
  if (cubes.empty()) {
    return Status::InvalidArgument(
        "FullOuterJoinCubes needs at least one cube operand");
  }
  for (size_t j = 0; j < cubes.size(); ++j) {
    const DataCube* cube = cubes[j];
    if (cube == nullptr) {
      return Status::InvalidArgument("cube operand " + std::to_string(j) +
                                     " is null");
    }
    if (!(cube->attributes() == cubes[0]->attributes())) {
      return Status::InvalidArgument(
          "cube operand " + std::to_string(j) + " groups by " +
          std::to_string(cube->attributes().size()) +
          " attribute(s) that differ from operand 0's " +
          std::to_string(cubes[0]->attributes().size()) +
          "; cubes must share one attribute list to be joined");
    }
  }
  CubeJoinResult out;
  out.attributes = cubes[0]->attributes();
  // Collect the union of coordinates. (The paper replaces NULL with a dummy
  // value to make the SQL equi-join work; our Tuple hash treats NULL as an
  // ordinary groupable value, which is equivalent.)
  std::unordered_map<Tuple, size_t, TupleHash, TupleEq> row_of;
  for (const DataCube* cube : cubes) {
    for (const auto& [coords, value] : cube->cells()) {
      if (row_of.emplace(coords, out.coords.size()).second) {
        out.coords.push_back(coords);
      }
    }
  }
  // Canonical row order: the union above inherits the cubes' hash-map
  // iteration order, which varies with how the cells were inserted (e.g.
  // across num_threads settings). Sorting pins table M — and everything
  // downstream of it — to a single representation (DESIGN.md §6).
  std::sort(out.coords.begin(), out.coords.end(),
            [](const Tuple& a, const Tuple& b) {
              return CompareTuples(a, b) < 0;
            });
  for (size_t row = 0; row < out.coords.size(); ++row) {
    row_of[out.coords[row]] = row;
  }
  out.values.assign(cubes.size(), std::vector<double>(out.coords.size(), 0.0));
  out.present.assign(cubes.size(),
                     std::vector<uint8_t>(out.coords.size(), 0));
  for (size_t j = 0; j < cubes.size(); ++j) {
    for (const auto& [coords, value] : cubes[j]->cells()) {
      const size_t row = row_of[coords];
      out.values[j][row] = value;
      out.present[j][row] = 1;
    }
  }
  span.set_arg(static_cast<int64_t>(out.coords.size()));
  XPLAIN_COUNTER_ADD("cube.joined_rows",
                     static_cast<int64_t>(out.coords.size()));
  return out;
}

}  // namespace xplain
