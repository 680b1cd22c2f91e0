#include "relational/cube.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {

Result<DataCube> DataCube::Compute(const UniversalRelation& universal,
                                   const std::vector<ColumnRef>& attributes,
                                   const AggregateSpec& agg,
                                   const DnfPredicate* filter,
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

  // Phase 1: full group-by into base cells. With a pool, the input rows
  // are partitioned into contiguous per-shard ranges aggregated into
  // thread-local maps; the merge is exact because every accumulator kind
  // is mergeable (count/sum add, min/max compare, distinct sets union) —
  // the same cell-additivity that justifies the cube degrees in §4.
  const bool needs_column = agg.kind != AggregateKind::kCountStar;
  using BaseMap =
      std::unordered_map<Tuple, AggregateAccumulator, TupleHash, TupleEq>;
  const size_t n = universal.NumRows();
  ThreadPool* pool = options.pool;
  const int shards = pool == nullptr ? 1 : std::max(pool->num_threads(), 1);
  std::vector<BaseMap> base_locals(static_cast<size_t>(shards));
  XPLAIN_RETURN_IF_ERROR(ParallelShards(
      pool, n, [&](int shard, size_t begin, size_t end) -> Status {
        XPLAIN_TRACE_SPAN("cube.base_shard");
        BaseMap& local = base_locals[static_cast<size_t>(shard)];
        Tuple coords(d);
        for (size_t u = begin; u < end; ++u) {
          if (filter != nullptr && !filter->EvalUniversal(universal, u)) {
            continue;
          }
          for (int i = 0; i < d; ++i) {
            coords[i] = universal.ValueAt(u, attributes[i]);
            if (coords[i].is_null()) {
              // A data NULL would be indistinguishable from the lattice's
              // don't-care marker (SQL's GROUPING() ambiguity); the paper's
              // candidate attributes are recoded non-NULL categories.
              return Status::InvalidArgument(
                  "cube attribute " +
                  universal.db().ColumnName(attributes[i]) +
                  " contains NULL; recode NULLs before cubing");
            }
          }
          auto it = local.find(coords);
          if (it == local.end()) {
            it = local.emplace(coords, AggregateAccumulator(agg.kind)).first;
          }
          it->second.Add(needs_column ? universal.ValueAt(u, agg.column)
                                      : Value::Null());
        }
        return Status::OK();
      }));
  // Merge in shard order so the combined map is reproducible for a fixed
  // thread count.
  TraceSpan base_merge_span("cube.base_merge");
  BaseMap base = std::move(base_locals[0]);
  for (size_t s = 1; s < base_locals.size(); ++s) {
    for (auto& [coords, acc] : base_locals[s]) {
      auto it = base.find(coords);
      if (it == base.end()) {
        base.emplace(std::move(coords), std::move(acc));
      } else {
        it->second.Merge(acc);
      }
    }
  }
  base_merge_span.set_arg(static_cast<int64_t>(base.size()));
  base_merge_span.End();
  XPLAIN_COUNTER_ADD("cube.base_cells", static_cast<int64_t>(base.size()));

  // Phase 2: roll every base cell up through the 2^d lattice. Sharding is
  // by mask: two distinct masks null out different attribute subsets, so
  // the cells they produce can never collide and each shard owns a
  // disjoint slice of the output lattice (no merge needed).
  const uint32_t num_masks = 1u << d;
  using RolledMap = BaseMap;
  std::vector<RolledMap> rolled_locals(static_cast<size_t>(shards));
  XPLAIN_RETURN_IF_ERROR(ParallelShards(
      pool, num_masks, [&](int shard, size_t mask_begin, size_t mask_end) {
        XPLAIN_TRACE_SPAN("cube.rollup_shard");
        RolledMap& rolled = rolled_locals[static_cast<size_t>(shard)];
        rolled.reserve(base.size());
        for (const auto& [full_coords, acc] : base) {
          for (size_t mask = mask_begin; mask < mask_end; ++mask) {
            Tuple cell(d);
            for (int i = 0; i < d; ++i) {
              cell[i] =
                  (mask & (1u << i)) ? full_coords[i] : Value::Null();
            }
            auto it = rolled.find(cell);
            if (it == rolled.end()) {
              it = rolled
                       .emplace(std::move(cell),
                                AggregateAccumulator(agg.kind))
                       .first;
            }
            it->second.Merge(acc);
          }
        }
        return Status::OK();
      }));

  DataCube cube;
  cube.attributes_ = attributes;
  size_t total_cells = 0;
  for (const RolledMap& rolled : rolled_locals) total_cells += rolled.size();
  cube.cells_.reserve(total_cells);
  for (const RolledMap& rolled : rolled_locals) {
    for (const auto& [cell, acc] : rolled) {
      cube.cells_.emplace(cell, acc.FinishNumeric());
    }
  }
  XPLAIN_COUNTER_ADD("cube.cells", static_cast<int64_t>(total_cells));
  return cube;
}

namespace {

struct CodeVecHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t seed = v.size();
    for (uint32_t c : v) {
      seed ^= c + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }
};

/// Count / count-distinct accumulator over dictionary codes.
struct FastAccumulator {
  int64_t count = 0;
  std::unordered_set<uint32_t> distinct;

  void Merge(const FastAccumulator& other) {
    count += other.count;
    distinct.insert(other.distinct.begin(), other.distinct.end());
  }
};

}  // namespace

Result<DataCube> DataCube::ComputeCached(const ColumnCache& cache,
                                         const std::vector<int>& attr_indices,
                                         AggregateKind kind,
                                         int distinct_index,
                                         const RowSet* filter_rows,
                                         const CubeOptions& options) {
  XPLAIN_TRACE_SPAN("cube.compute_cached");
  const int d = static_cast<int>(attr_indices.size());
  if (d == 0) {
    return Status::InvalidArgument("cube needs at least one attribute");
  }
  if (d > options.max_attributes) {
    return Status::InvalidArgument("cube attribute cap exceeded");
  }
  const bool is_distinct = kind == AggregateKind::kCountDistinct;
  if (kind != AggregateKind::kCountStar && !is_distinct) {
    return Status::InvalidArgument(
        "ComputeCached supports count(*) and count(distinct) only");
  }
  if (is_distinct &&
      (distinct_index < 0 || distinct_index >= cache.num_columns())) {
    return Status::InvalidArgument("counted column is not in the cache");
  }
  for (int idx : attr_indices) {
    if (idx < 0 || idx >= cache.num_columns()) {
      return Status::InvalidArgument("grouping column is not in the cache");
    }
  }

  // Per-attribute bit widths; code dict_size is reserved as the "ALL"
  // marker for the rollup, so widths cover dict_size + 1 values. When the
  // packed key fits in 64 bits the group-by runs allocation-free on uint64
  // keys; otherwise fall back to code vectors.
  for (int i = 0; i < d; ++i) {
    for (size_t code = 0; code < cache.DictionarySize(attr_indices[i]);
         ++code) {
      if (cache.Decode(attr_indices[i], static_cast<uint32_t>(code))
              .is_null()) {
        return Status::InvalidArgument(
            "cube attribute contains NULL; recode NULLs before cubing");
      }
    }
  }
  std::vector<int> shifts(d, 0);
  int total_bits = 0;
  std::vector<uint32_t> all_codes(d);
  for (int i = 0; i < d; ++i) {
    uint64_t distinct_plus_all = cache.DictionarySize(attr_indices[i]) + 1;
    int bits = 1;
    while ((uint64_t{1} << bits) < distinct_plus_all) ++bits;
    shifts[i] = total_bits;
    total_bits += bits;
    all_codes[i] =
        static_cast<uint32_t>(cache.DictionarySize(attr_indices[i]));
  }
  const size_t n = cache.NumRows();
  const uint32_t num_masks = 1u << d;

  DataCube cube;
  cube.attributes_.reserve(d);
  for (int idx : attr_indices) {
    cube.attributes_.push_back(cache.column(idx));
  }

  auto add_input = [&](FastAccumulator* acc, size_t u) {
    if (is_distinct) {
      uint32_t code = cache.Code(u, distinct_index);
      if (!cache.Decode(distinct_index, code).is_null()) {
        acc->distinct.insert(code);
      }
    } else {
      ++acc->count;
    }
  };
  auto finish = [&](const FastAccumulator& acc) {
    return is_distinct ? static_cast<double>(acc.distinct.size())
                       : static_cast<double>(acc.count);
  };

  if (total_bits <= 64) {
    // Fast path: packed uint64 keys. Parallel scheme mirrors Compute():
    // phase 1 shards the row scan into thread-local maps (merge is exact —
    // counts add, distinct code sets union), phase 2 shards the rollup by
    // mask, which yields disjoint output cells because the reserved ALL
    // code marks exactly the masked-out attribute fields.
    ThreadPool* pool = options.pool;
    const int shards =
        pool == nullptr ? 1 : std::max(pool->num_threads(), 1);
    using BaseMap = std::unordered_map<uint64_t, FastAccumulator>;
    std::vector<BaseMap> base_locals(static_cast<size_t>(shards));
    XPLAIN_RETURN_IF_ERROR(ParallelShards(
        pool, n, [&](int shard, size_t begin, size_t end) {
          XPLAIN_TRACE_SPAN("cube.cached_base_shard");
          BaseMap& local = base_locals[static_cast<size_t>(shard)];
          for (size_t u = begin; u < end; ++u) {
            if (filter_rows != nullptr && !filter_rows->Test(u)) continue;
            uint64_t key = 0;
            for (int i = 0; i < d; ++i) {
              key |= static_cast<uint64_t>(cache.Code(u, attr_indices[i]))
                     << shifts[i];
            }
            add_input(&local[key], u);
          }
          return Status::OK();
        }));
    TraceSpan cached_merge_span("cube.cached_base_merge");
    BaseMap base = std::move(base_locals[0]);
    for (size_t s = 1; s < base_locals.size(); ++s) {
      for (const auto& [key, acc] : base_locals[s]) base[key].Merge(acc);
    }
    cached_merge_span.set_arg(static_cast<int64_t>(base.size()));
    cached_merge_span.End();
    XPLAIN_COUNTER_ADD("cube.cached_base_cells",
                       static_cast<int64_t>(base.size()));

    // Precompute, per mask, the bits to clear and the ALL pattern to set.
    std::vector<uint64_t> clear_bits(num_masks, 0), set_all(num_masks, 0);
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      for (int i = 0; i < d; ++i) {
        if (!(mask & (1u << i))) {
          uint64_t next_shift =
              (i + 1 < d) ? static_cast<uint64_t>(shifts[i + 1]) : 64;
          uint64_t field = next_shift >= 64
                               ? ~uint64_t{0} << shifts[i]
                               : ((uint64_t{1} << next_shift) - 1) ^
                                     ((uint64_t{1} << shifts[i]) - 1);
          clear_bits[mask] |= field;
          set_all[mask] |= static_cast<uint64_t>(all_codes[i]) << shifts[i];
        }
      }
    }
    std::vector<BaseMap> rolled_locals(static_cast<size_t>(shards));
    XPLAIN_RETURN_IF_ERROR(ParallelShards(
        pool, num_masks, [&](int shard, size_t mask_begin, size_t mask_end) {
          XPLAIN_TRACE_SPAN("cube.cached_rollup_shard");
          BaseMap& rolled = rolled_locals[static_cast<size_t>(shard)];
          rolled.reserve(base.size());
          for (const auto& [full_key, acc] : base) {
            for (size_t mask = mask_begin; mask < mask_end; ++mask) {
              uint64_t cell =
                  (full_key & ~clear_bits[mask]) | set_all[mask];
              rolled[cell].Merge(acc);
            }
          }
          return Status::OK();
        }));
    size_t total_cells = 0;
    for (const BaseMap& rolled : rolled_locals) total_cells += rolled.size();
    cube.cells_.reserve(total_cells);
    for (const BaseMap& rolled : rolled_locals) {
      for (const auto& [cell_key, acc] : rolled) {
        Tuple cell(d);
        for (int i = 0; i < d; ++i) {
          uint64_t next_shift =
              (i + 1 < d) ? static_cast<uint64_t>(shifts[i + 1]) : 64;
          uint64_t width = next_shift - shifts[i];
          uint64_t mask_bits =
              width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
          uint32_t code =
              static_cast<uint32_t>((cell_key >> shifts[i]) & mask_bits);
          cell[i] = code == all_codes[i]
                        ? Value::Null()
                        : cache.Decode(attr_indices[i], code);
        }
        cube.cells_.emplace(std::move(cell), finish(acc));
      }
    }
    XPLAIN_COUNTER_ADD("cube.cached_cells",
                       static_cast<int64_t>(cube.cells_.size()));
    return cube;
  }

  // General path: code-vector keys (> 64 bits of packed codes; only hit
  // far beyond the paper's workloads). Kept sequential: the packed path
  // above is the hot one, and a pool here would complicate the overflow
  // fallback for no measured benefit.
  std::unordered_map<std::vector<uint32_t>, FastAccumulator, CodeVecHash>
      base;
  std::vector<uint32_t> key(d);
  for (size_t u = 0; u < n; ++u) {
    if (filter_rows != nullptr && !filter_rows->Test(u)) continue;
    for (int i = 0; i < d; ++i) {
      key[i] = cache.Code(u, attr_indices[i]);
    }
    add_input(&base[key], u);
  }
  constexpr uint32_t kNoValue = 0xffffffffu;
  std::unordered_map<std::vector<uint32_t>, FastAccumulator, CodeVecHash>
      rolled;
  rolled.reserve(base.size() * 2);
  for (const auto& [full_key, acc] : base) {
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      std::vector<uint32_t> cell(d);
      for (int i = 0; i < d; ++i) {
        cell[i] = (mask & (1u << i)) ? full_key[i] : kNoValue;
      }
      rolled[std::move(cell)].Merge(acc);
    }
  }
  cube.cells_.reserve(rolled.size());
  for (const auto& [cell_codes, acc] : rolled) {
    Tuple cell(d);
    for (int i = 0; i < d; ++i) {
      cell[i] = cell_codes[i] == kNoValue
                    ? Value::Null()
                    : cache.Decode(attr_indices[i], cell_codes[i]);
    }
    cube.cells_.emplace(std::move(cell), finish(acc));
  }
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
