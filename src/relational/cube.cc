#include "relational/cube.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <variant>

#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {

namespace {

constexpr uint32_t kNoCode = 0xffffffffu;
/// Input rows a scan shard stages (filter mask + cell slot) before
/// folding them into each pass's cells.
constexpr size_t kBlockRows = 512;
/// (base cell, mask) pairs a hashed roll-up shard resolves to rolled
/// slots before folding them into each pass's cells.
constexpr size_t kRollPairs = 4096;

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

/// Per-cell running state of aggregate kind K for one subquery: Add folds
/// in one filter-passing input row, Merge another cell; Finish gives what
/// EvaluateAggregate gives for the same rows, as a double (0.0 for an
/// empty group). `rows` counts the filter-passing rows, so a cell exists
/// iff rows > 0, also when every value in it is NULL.
template <AggregateKind K>
struct Cell {
  int64_t rows = 0;
  int64_t count = 0;  // non-NULL values folded
  double acc = 0.0;   // SUM/AVG: the sum; MIN/MAX: the extremum

  void Add(const ValueCodes& values, uint32_t row) {
    ++rows;
    const uint32_t code = values.Code(row);
    if (code != values.null_code) Fold(1, values.numeric[code]);
  }
  void Merge(const Cell& other) {
    rows += other.rows;
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
    if constexpr (K == AggregateKind::kAvg) {
      return count == 0 ? 0.0 : acc / static_cast<double>(count);
    } else {
      return acc;
    }
  }
};

/// COUNT(*) is its row count.
template <>
struct Cell<AggregateKind::kCountStar> {
  int64_t rows = 0;

  void Add(const ValueCodes&, uint32_t) { ++rows; }
  void Merge(const Cell& other) { rows += other.rows; }
  double Finish() const { return static_cast<double>(rows); }
};

/// COUNT(DISTINCT) keeps the set of non-NULL value codes, so its roll-up
/// is an exact union, not a sum.
template <>
struct Cell<AggregateKind::kCountDistinct> {
  int64_t rows = 0;
  std::unordered_set<uint32_t> codes;

  void Add(const ValueCodes& values, uint32_t row) {
    ++rows;
    const uint32_t code = values.Code(row);
    if (code != values.null_code) codes.insert(code);
  }
  void Merge(const Cell& other) {
    rows += other.rows;
    codes.insert(other.codes.begin(), other.codes.end());
  }
  double Finish() const { return static_cast<double>(codes.size()); }
};

/// The subqueries of one AggregateSpec in a kernel call: they own mask
/// bits [first, first + n), and their cells are stored slot-major,
/// cells[slot * n + i] for the subquery on bit first + i.
template <AggregateKind K>
struct Pass {
  ValueCodes values;
  int first = 0;
  int n = 0;
  /// Per scan shard; after the merge, shards[0] holds the base cells (and,
  /// on the dense lattice, the rolled-up ones).
  std::vector<std::vector<Cell<K>>> shards;
  /// Per hashed roll-up shard.
  std::vector<std::vector<Cell<K>>> rolled;

  /// `mask`'s bits for this pass, as local subquery indices.
  uint64_t Bits(uint64_t mask) const {
    mask >>= first;
    return n == 64 ? mask : mask & ((uint64_t{1} << n) - 1);
  }
};

using AnyPass =
    std::variant<Pass<AggregateKind::kCountStar>,
                 Pass<AggregateKind::kCountDistinct>,
                 Pass<AggregateKind::kSum>, Pass<AggregateKind::kAvg>,
                 Pass<AggregateKind::kMin>, Pass<AggregateKind::kMax>>;

AnyPass MakePass(AggregateKind kind) {
  using enum AggregateKind;
  switch (kind) {
    case kCountStar:
      return Pass<kCountStar>{};
    case kCountDistinct:
      return Pass<kCountDistinct>{};
    case kSum:
      return Pass<kSum>{};
    case kAvg:
      return Pass<kAvg>{};
    case kMin:
      return Pass<kMin>{};
    case kMax:
      return Pass<kMax>{};
  }
  return Pass<kCountStar>{};
}

/// One scan block: input rows `list[0, size)`, or first + [0, size) when
/// `list` is null, with each row's filter mask and, where the mask is not
/// zero, its cell slot.
struct Block {
  size_t first = 0;
  const uint32_t* list = nullptr;
  size_t size = 0;
  uint64_t masks[kBlockRows];
  uint32_t slots[kBlockRows];

  uint32_t Row(size_t r) const {
    return static_cast<uint32_t>(list == nullptr ? first + r : list[r]);
  }
};

template <AggregateKind K>
void AddBlock(const Pass<K>& pass, const Block& block,
              std::vector<Cell<K>>& cells) {
  for (size_t r = 0; r < block.size; ++r) {
    uint64_t bits = pass.Bits(block.masks[r]);
    if (bits == 0) continue;
    Cell<K>* cell = cells.data() + size_t{block.slots[r]} * pass.n;
    const uint32_t row = block.Row(r);
    do {
      cell[std::countr_zero(bits)].Add(pass.values, row);
      bits &= bits - 1;
    } while (bits != 0);
  }
}

/// The dense lattice: one slot per cell, at index sum_i digit_i * stride_i
/// with mixed radix dictionary size + 1, where digit_i is attribute i's
/// code and the last digit (the dictionary size) is ALL.
class Lattice {
 public:
  Lattice(const ColumnCache& cache, const std::vector<int>& columns)
      : cache_(&cache), columns_(columns) {
    for (int col : columns_) {
      all_.push_back(static_cast<uint32_t>(cache.DictionarySize(col)));
      null_.push_back(NullCode(cache, col));
      any_null_ = any_null_ || null_.back() != kNoCode;
      strides_.push_back(cells_);
      cells_ *= all_.back() + 1;
    }
  }

  /// The lattice's cell count, or `limit` + 1 when it exceeds `limit`.
  static size_t Cells(const ColumnCache& cache, const std::vector<int>& columns,
                      size_t limit) {
    size_t cells = 1;
    for (int col : columns) {
      const size_t radix = cache.DictionarySize(col) + 1;
      if (cells > limit / radix) return limit + 1;
      cells *= radix;
    }
    return cells;
  }

  int d() const { return static_cast<int>(columns_.size()); }
  size_t Count() const { return cells_; }
  uint32_t Slot(uint32_t row) const {
    size_t slot = 0;
    for (int i = 0; i < d(); ++i) {
      slot += cache_->Code(row, columns_[i]) * strides_[i];
    }
    return static_cast<uint32_t>(slot);
  }
  size_t stride(int i) const { return strides_[i]; }
  uint32_t all(int i) const { return all_[i]; }
  bool any_null() const { return any_null_; }

  /// True if cell `slot` groups a data NULL in some attribute.
  bool HasNull(size_t slot) const {
    for (int i = 0; i < d(); ++i) {
      if (Digit(slot, i) == null_[i]) return true;
    }
    return false;
  }

  /// The cell coordinate of `slot`; ALL decodes to NULL.
  Tuple Decode(size_t slot) const {
    Tuple coords(columns_.size());
    for (int i = 0; i < d(); ++i) {
      const uint32_t code = Digit(slot, i);
      if (code != all_[i]) coords[i] = cache_->Decode(columns_[i], code);
    }
    return coords;
  }

 private:
  uint32_t Digit(size_t slot, int i) const {
    return static_cast<uint32_t>(slot / strides_[i] % (all_[i] + 1));
  }

  const ColumnCache* cache_;
  std::vector<int> columns_;
  std::vector<uint32_t> all_;
  std::vector<uint32_t> null_;
  std::vector<size_t> strides_;
  size_t cells_ = 1;
  bool any_null_ = false;
};

/// Bits a key field needs for codes 0..dict_size, the last meaning ALL.
int FieldWidth(size_t dict_size) {
  int bits = 1;
  while ((uint64_t{1} << bits) < dict_size + 1) ++bits;
  return bits;
}

/// Hashed cube keys over the grouping columns' dictionary codes, one field
/// per attribute: packed into a uint64_t when the fields fit in 64 bits,
/// else one 32-bit char per code in a std::u32string (which std::hash
/// takes). Field value all_[i], attribute i's dictionary size and never a
/// real code, marks ALL after the roll-up.
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
      any_null_ = any_null_ || null_.back() != kNoCode;
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
  bool any_null() const { return any_null_; }

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
  bool any_null_ = false;
  std::vector<int> shifts_;
  std::vector<uint64_t> fields_;
  std::vector<uint64_t> keep_;
  std::vector<uint64_t> rolled_all_;
};

/// Slots handed out by a hash map, in first-appearance order.
template <typename Key>
struct HashedSlots {
  const CubeKeys<Key>* keys = nullptr;
  std::unordered_map<Key, uint32_t> slot_of;
  std::vector<Key> by_slot;

  uint32_t Slot(uint32_t row) { return SlotOfKey(keys->Make(row)); }
  uint32_t SlotOfKey(const Key& key) {
    auto [it, inserted] =
        slot_of.try_emplace(key, static_cast<uint32_t>(by_slot.size()));
    if (inserted) by_slot.push_back(key);
    return it->second;
  }
  size_t Count() const { return by_slot.size(); }
};

/// What every phase of one kernel call reads and writes.
struct Kernel {
  const ColumnCache* cache = nullptr;
  std::vector<int> columns;
  const std::vector<uint32_t>* rows = nullptr;
  size_t num_input = 0;
  ThreadPool* pool = nullptr;
  size_t shards = 1;
  FilterMasks filters;
  std::vector<AnyPass> passes;
  /// Per mask bit: the query it stands for and the pass that holds it.
  std::vector<size_t> query_of_bit;
  std::vector<size_t> pass_of_bit;
  /// Per mask bit: base cells reached, and whether one of them groups a
  /// NULL.
  std::vector<int64_t> base_cells;
  std::vector<uint8_t> null_hit;
  std::vector<CubeResult>* results = nullptr;
  const std::vector<CubeQuery>* queries = nullptr;
};

/// Phase 1: each scan shard folds its contiguous input range into its own
/// cells, block by block. A row's filter mask and its cell slot (from
/// `slots_of(shard)`: Slot(row), Count()) are computed once for all the
/// passes.
template <typename SlotsOf>
Status ScanRows(Kernel& k, SlotsOf&& slots_of) {
  for (AnyPass& any : k.passes) {
    std::visit([&](auto& pass) { pass.shards.resize(k.shards); }, any);
  }
  return ParallelShards(
      k.pool, k.num_input, [&](int shard, size_t begin, size_t end) {
        XPLAIN_TRACE_SPAN("cube.base_shard");
        auto& slots = slots_of(shard);
        auto block = std::make_unique<Block>();
        for (size_t start = begin; start < end; start += kBlockRows) {
          block->first = start;
          block->list = k.rows == nullptr ? nullptr : k.rows->data() + start;
          block->size = std::min(end - start, kBlockRows);
          if (block->list == nullptr) {
            k.filters.Masks(*k.cache, start, block->size, block->masks);
          } else {
            k.filters.Masks(*k.cache, block->list, block->size,
                            block->masks);
          }
          for (size_t r = 0; r < block->size; ++r) {
            if (block->masks[r] != 0) block->slots[r] = slots.Slot(block->Row(r));
          }
          for (AnyPass& any : k.passes) {
            std::visit(
                [&](auto& pass) {
                  auto& cells = pass.shards[static_cast<size_t>(shard)];
                  const size_t need = slots.Count() * pass.n;
                  if (cells.size() < need) cells.resize(need);
                  AddBlock(pass, *block, cells);
                },
                any);
          }
        }
        return Status::OK();
      });
}

/// Runs `fn` over roll-up work [0, n), sharded across `pool`.
Status RollUpShards(ThreadPool* pool, size_t n,
                    const std::function<void(int, size_t, size_t)>& fn) {
  return ParallelShards(pool, n, [&](int shard, size_t begin, size_t end) {
    XPLAIN_TRACE_SPAN("cube.rollup_shard");
    fn(shard, begin, end);
    return Status::OK();
  });
}

/// Counts the base cells subquery `i` of `pass` reaches in `cells` (slots
/// before the roll-up), and flags it when one of them groups a NULL.
template <AggregateKind K, typename HasNull>
void CheckBaseCells(Kernel& k, const Pass<K>& pass, int i,
                    const std::vector<Cell<K>>& cells, size_t slots,
                    bool any_null, HasNull&& has_null) {
  const size_t bit = static_cast<size_t>(pass.first + i);
  for (size_t slot = 0; slot < slots; ++slot) {
    if (cells[slot * pass.n + i].rows == 0) continue;
    ++k.base_cells[bit];
    // A data NULL would be indistinguishable from the lattice's
    // don't-care marker (SQL's GROUPING() ambiguity); the paper's
    // candidate attributes are recoded non-NULL categories. Only rows
    // that take part count.
    if (any_null && has_null(slot)) k.null_hit[bit] = 1;
  }
}

/// Fails the cubes whose base cells group a NULL.
void FailNullHits(Kernel& k) {
  for (size_t bit = 0; bit < k.null_hit.size(); ++bit) {
    if (!k.null_hit[bit]) continue;
    (*k.results)[k.query_of_bit[bit]].status = Status::InvalidArgument(
        "cube attribute contains NULL; recode NULLs before cubing");
  }
}

/// Adds the reached cells of every pass (`cells_of(pass)`, slot-major
/// over `slots` slots) to the results of their subqueries: a cube holds a
/// cell iff a filter-passing row reached it. Each reached slot's
/// coordinate is decoded once (`decode(slot)`) and moved into the last map
/// that takes it. Returns the cells added.
template <typename CellsOf, typename Decode>
int64_t EmitCells(Kernel& k, size_t slots, CellsOf&& cells_of,
                  Decode&& decode) {
  // Per subquery on `bit`: its result, or null when it failed.
  auto result_of = [&](int bit) -> CubeResult* {
    CubeResult& out = (*k.results)[k.query_of_bit[static_cast<size_t>(bit)]];
    return out.status.ok() ? &out : nullptr;
  };
  auto counts_of = [&](int bit) {
    return (*k.queries)[k.query_of_bit[static_cast<size_t>(bit)]].row_counts;
  };
  std::vector<uint32_t> uses(slots, 0);
  for (AnyPass& any : k.passes) {
    std::visit(
        [&](auto& pass) {
          const auto& cells = cells_of(pass);
          for (int i = 0; i < pass.n; ++i) {
            CubeResult* out = result_of(pass.first + i);
            if (out == nullptr) continue;
            const uint32_t takes = counts_of(pass.first + i) ? 2 : 1;
            size_t reached = 0;
            for (size_t slot = 0; slot < slots; ++slot) {
              if (cells[slot * pass.n + i].rows == 0) continue;
              uses[slot] += takes;
              ++reached;
            }
            out->cube.mutable_cells()->reserve(out->cube.NumCells() + reached);
            if (takes == 2) {
              out->row_counts.reserve(out->row_counts.size() + reached);
            }
          }
        },
        any);
  }
  std::vector<Tuple> coords(slots);
  for (size_t slot = 0; slot < slots; ++slot) {
    if (uses[slot] > 0) coords[slot] = decode(slot);
  }
  auto take = [&](size_t slot) -> Tuple {
    return --uses[slot] == 0 ? std::move(coords[slot]) : coords[slot];
  };
  int64_t emitted = 0;
  for (AnyPass& any : k.passes) {
    std::visit(
        [&](auto& pass) {
          const auto& cells = cells_of(pass);
          for (int i = 0; i < pass.n; ++i) {
            CubeResult* out = result_of(pass.first + i);
            if (out == nullptr) continue;
            const bool row_counts = counts_of(pass.first + i);
            DataCube::CellMap& values = *out->cube.mutable_cells();
            for (size_t slot = 0; slot < slots; ++slot) {
              const auto& cell = cells[slot * pass.n + i];
              if (cell.rows == 0) continue;
              values.emplace(take(slot), cell.Finish());
              if (row_counts) {
                out->row_counts.emplace(take(slot),
                                        static_cast<double>(cell.rows));
              }
              ++emitted;
            }
          }
        },
        any);
  }
  return emitted;
}

/// The dense path: every scan shard fills a whole-lattice array; per
/// subquery, the shard arrays are added in shard order and the roll-up
/// runs one dimension at a time, folding each line of cells into its ALL
/// digit. Returns the cells emitted.
Result<int64_t> DenseCubes(Kernel& k, const Lattice& lattice) {
  XPLAIN_RETURN_IF_ERROR(
      ScanRows(k, [&](int) -> const Lattice& { return lattice; }));
  const size_t cells = lattice.Count();
  for (AnyPass& any : k.passes) {
    std::visit([&](auto& pass) { pass.shards[0].resize(cells * pass.n); },
               any);
  }
  XPLAIN_RETURN_IF_ERROR(RollUpShards(
      k.pool, k.query_of_bit.size(), [&](int, size_t begin, size_t end) {
        for (size_t bit = begin; bit < end; ++bit) {
          std::visit(
              [&](auto& pass) {
                const int i = static_cast<int>(bit) - pass.first;
                const size_t n = static_cast<size_t>(pass.n);
                auto& base = pass.shards[0];
                for (size_t s = 1; s < pass.shards.size(); ++s) {
                  if (pass.shards[s].empty()) continue;
                  for (size_t c = 0; c < cells; ++c) {
                    base[c * n + i].Merge(pass.shards[s][c * n + i]);
                  }
                }
                CheckBaseCells(k, pass, i, base, cells, lattice.any_null(),
                               [&](size_t slot) {
                                 return lattice.HasNull(slot);
                               });
                for (int dim = 0; dim < lattice.d(); ++dim) {
                  const size_t stride = lattice.stride(dim);
                  const size_t all = lattice.all(dim);
                  const size_t span = stride * (all + 1);
                  for (size_t hi = 0; hi < cells; hi += span) {
                    for (size_t lo = hi; lo < hi + stride; ++lo) {
                      auto& rolled = base[(lo + all * stride) * n + i];
                      for (size_t digit = 0; digit < all; ++digit) {
                        rolled.Merge(base[(lo + digit * stride) * n + i]);
                      }
                    }
                  }
                }
              },
              k.passes[k.pass_of_bit[bit]]);
        }
      }));
  FailNullHits(k);
  for (AnyPass& any : k.passes) {
    std::visit([](auto& pass) { pass.shards.resize(1); }, any);
  }
  return EmitCells(
      k, cells, [](auto& pass) -> auto& { return pass.shards[0]; },
      [&](size_t slot) { return lattice.Decode(slot); });
}

/// The hashed path: each scan shard maps keys to slots of its own; the
/// shards merge into shard 0's slots in shard order, and the roll-up
/// shards the 2^d masks, so roll-up shards emit disjoint cells (a mask
/// fixes which fields hold ALL). Returns the cells emitted.
template <typename Key>
Result<int64_t> HashedCubes(Kernel& k, const CubeKeys<Key>& keys) {
  std::vector<HashedSlots<Key>> slots(k.shards);
  for (HashedSlots<Key>& shard : slots) shard.keys = &keys;
  XPLAIN_RETURN_IF_ERROR(ScanRows(
      k, [&](int shard) -> HashedSlots<Key>& { return slots[shard]; }));
  HashedSlots<Key>& base = slots[0];
  for (size_t s = 1; s < k.shards; ++s) {
    std::vector<uint32_t> to_base(slots[s].Count());
    for (size_t t = 0; t < to_base.size(); ++t) {
      to_base[t] = base.SlotOfKey(slots[s].by_slot[t]);
    }
    for (AnyPass& any : k.passes) {
      std::visit(
          [&](auto& pass) {
            auto& cells = pass.shards[0];
            const size_t n = static_cast<size_t>(pass.n);
            cells.resize(base.Count() * n);
            const auto& local = pass.shards[s];
            for (size_t t = 0; t < to_base.size(); ++t) {
              for (size_t i = 0; i < n; ++i) {
                cells[to_base[t] * n + i].Merge(local[t * n + i]);
              }
            }
            pass.shards[s] = {};
          },
          any);
    }
    slots[s] = {};
  }
  const size_t num_base = base.Count();
  for (AnyPass& any : k.passes) {
    std::visit(
        [&](auto& pass) {
          pass.shards[0].resize(num_base * pass.n);
          for (int i = 0; i < pass.n; ++i) {
            CheckBaseCells(k, pass, i, pass.shards[0], num_base,
                           keys.any_null(), [&](size_t slot) {
                             return keys.HasNull(base.by_slot[slot]);
                           });
          }
          pass.rolled.assign(k.shards, {});
        },
        any);
  }
  FailNullHits(k);

  std::vector<HashedSlots<Key>> rolled(k.shards);
  XPLAIN_RETURN_IF_ERROR(RollUpShards(
      k.pool, size_t{1} << keys.d(),
      [&](int shard, size_t mask_begin, size_t mask_end) {
        HashedSlots<Key>& out = rolled[static_cast<size_t>(shard)];
        out.slot_of.reserve(num_base);
        const size_t width = mask_end - mask_begin;
        if (width == 0) return;
        const size_t chunk = std::max<size_t>(1, kRollPairs / width);
        std::vector<uint32_t> targets;
        for (size_t b0 = 0; b0 < num_base; b0 += chunk) {
          const size_t b1 = std::min(num_base, b0 + chunk);
          targets.clear();
          for (size_t b = b0; b < b1; ++b) {
            for (size_t mask = mask_begin; mask < mask_end; ++mask) {
              targets.push_back(out.SlotOfKey(
                  keys.Roll(base.by_slot[b], static_cast<uint32_t>(mask))));
            }
          }
          for (AnyPass& any : k.passes) {
            std::visit(
                [&](auto& pass) {
                  const size_t n = static_cast<size_t>(pass.n);
                  auto& cells = pass.rolled[static_cast<size_t>(shard)];
                  cells.resize(out.Count() * n);
                  size_t t = 0;
                  for (size_t b = b0; b < b1; ++b) {
                    const auto* from = &pass.shards[0][b * n];
                    for (size_t mask = 0; mask < width; ++mask) {
                      auto* to = &cells[targets[t++] * n];
                      for (size_t i = 0; i < n; ++i) to[i].Merge(from[i]);
                    }
                  }
                },
                any);
          }
        }
      }));
  int64_t emitted = 0;
  for (size_t shard = 0; shard < k.shards; ++shard) {
    emitted += EmitCells(
        k, rolled[shard].Count(),
        [shard](auto& pass) -> auto& { return pass.rolled[shard]; },
        [&](size_t slot) { return keys.Decode(rolled[shard].by_slot[slot]); });
  }
  return emitted;
}

}  // namespace

Result<std::vector<CubeResult>> ComputeCubes(
    const ColumnCache& cache, const std::vector<ColumnRef>& attributes,
    const std::vector<CubeQuery>& queries, const std::vector<uint32_t>* rows,
    ThreadPool* pool) {
  XPLAIN_TRACE_SPAN("cube.compute");
  const int d = static_cast<int>(attributes.size());
  if (d == 0) {
    return Status::InvalidArgument("cube needs at least one attribute");
  }
  if (d > kMaxCubeAttributes) {
    return Status::InvalidArgument(
        "cube over " + std::to_string(d) + " attributes exceeds the cap of " +
        std::to_string(kMaxCubeAttributes));
  }
  if (queries.size() > 64) {
    return Status::InvalidArgument(
        "one cube pass covers at most 64 subqueries; got " +
        std::to_string(queries.size()));
  }
  Kernel k;
  k.cache = &cache;
  for (const ColumnRef& attr : attributes) {
    k.columns.push_back(cache.FindColumn(attr));
    if (k.columns.back() < 0) {
      return Status::InvalidArgument("cube attribute is not in the cache");
    }
  }
  // One pass per distinct AggregateSpec, in first-use order; a pass's
  // subqueries take consecutive mask bits.
  std::vector<std::vector<size_t>> members;
  std::vector<AggregateSpec> specs;
  for (size_t j = 0; j < queries.size(); ++j) {
    const AggregateSpec& agg = queries[j].agg;
    size_t p = 0;
    while (p < specs.size() &&
           !(specs[p].kind == agg.kind &&
             (agg.kind == AggregateKind::kCountStar ||
              specs[p].column == agg.column))) {
      ++p;
    }
    if (p == specs.size()) {
      specs.push_back(agg);
      members.emplace_back();
    }
    members[p].push_back(j);
  }
  std::vector<const DnfPredicate*> filters;
  for (size_t p = 0; p < specs.size(); ++p) {
    XPLAIN_ASSIGN_OR_RETURN(ValueCodes values, ReadValueCodes(cache, specs[p]));
    k.passes.push_back(MakePass(specs[p].kind));
    std::visit(
        [&](auto& pass) {
          pass.values = std::move(values);
          pass.first = static_cast<int>(filters.size());
          pass.n = static_cast<int>(members[p].size());
        },
        k.passes.back());
    for (size_t j : members[p]) {
      k.query_of_bit.push_back(j);
      k.pass_of_bit.push_back(p);
      filters.push_back(queries[j].filter);
    }
  }
  XPLAIN_ASSIGN_OR_RETURN(k.filters, FilterMasks::Compile(cache, filters));
  k.base_cells.assign(queries.size(), 0);
  k.null_hit.assign(queries.size(), 0);
  std::vector<CubeResult> results(queries.size());
  for (CubeResult& result : results) {
    result.cube = DataCube::FromCells(attributes, {});
  }
  if (queries.empty()) return results;
  k.results = &results;
  k.queries = &queries;
  k.rows = rows;
  k.num_input = rows == nullptr ? cache.NumRows() : rows->size();
  k.pool = pool;
  k.shards =
      static_cast<size_t>(pool == nullptr ? 1 : std::max(pool->num_threads(), 1));

  // The storage rule (DESIGN.md §6): a whole-lattice array per shard when
  // the shards' arrays together hold no more cells than there are input
  // rows, else hashed cells.
  const size_t limit = k.num_input / k.shards;
  int64_t emitted = 0;
  if (Lattice::Cells(cache, k.columns, limit) <= limit) {
    XPLAIN_ASSIGN_OR_RETURN(emitted, DenseCubes(k, Lattice(cache, k.columns)));
  } else if (CubeKeys<uint64_t>::Fits(cache, k.columns)) {
    XPLAIN_ASSIGN_OR_RETURN(
        emitted, HashedCubes(k, CubeKeys<uint64_t>(cache, k.columns)));
  } else {
    XPLAIN_ASSIGN_OR_RETURN(
        emitted, HashedCubes(k, CubeKeys<std::u32string>(cache, k.columns)));
  }
  int64_t base_cells = 0;
  for (int64_t cells : k.base_cells) base_cells += cells;
  XPLAIN_COUNTER_ADD("cube.base_cells", base_cells);
  XPLAIN_COUNTER_ADD("cube.cells", emitted);
  return results;
}

Result<DataCube> DataCube::Compute(const UniversalRelation& universal,
                                   const std::vector<ColumnRef>& attributes,
                                   const AggregateSpec& agg,
                                   const DnfPredicate* filter,
                                   ThreadPool* pool) {
  std::vector<ColumnRef> columns = attributes;
  if (agg.kind != AggregateKind::kCountStar) columns.push_back(agg.column);
  std::vector<uint32_t> rows;
  for (size_t u = 0; u < universal.NumRows(); ++u) {
    if (filter == nullptr || filter->EvalUniversal(universal, u)) {
      rows.push_back(static_cast<uint32_t>(u));
    }
  }
  XPLAIN_ASSIGN_OR_RETURN(
      std::vector<CubeResult> results,
      ComputeCubes(ColumnCache::Build(universal, columns), attributes,
                   {CubeQuery{agg, nullptr, false}}, &rows, pool));
  XPLAIN_RETURN_IF_ERROR(results[0].status);
  return std::move(results[0].cube);
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

std::vector<size_t> CanonicalOrder(const std::vector<const Tuple*>& coords,
                                   size_t d) {
  std::vector<uint32_t> ranks(coords.size() * d);
  auto value_hash = [](const Value* v) { return v->Hash(); };
  auto value_eq = [](const Value* a, const Value* b) { return a->Equals(*b); };
  for (size_t i = 0; i < d; ++i) {
    std::unordered_map<const Value*, uint32_t, decltype(value_hash),
                       decltype(value_eq)>
        id_of(16, value_hash, value_eq);
    std::vector<const Value*> distinct;
    for (size_t row = 0; row < coords.size(); ++row) {
      const Value* v = &(*coords[row])[i];
      auto [it, inserted] =
          id_of.try_emplace(v, static_cast<uint32_t>(distinct.size()));
      if (inserted) distinct.push_back(v);
      ranks[row * d + i] = it->second;
    }
    std::vector<uint32_t> by_value(distinct.size());
    for (uint32_t id = 0; id < by_value.size(); ++id) by_value[id] = id;
    std::sort(by_value.begin(), by_value.end(), [&](uint32_t a, uint32_t b) {
      return distinct[a]->Compare(*distinct[b]) < 0;
    });
    std::vector<uint32_t> rank_of(distinct.size());
    for (uint32_t r = 0; r < by_value.size(); ++r) rank_of[by_value[r]] = r;
    for (size_t row = 0; row < coords.size(); ++row) {
      ranks[row * d + i] = rank_of[ranks[row * d + i]];
    }
  }
  std::vector<size_t> order(coords.size());
  for (size_t row = 0; row < order.size(); ++row) order[row] = row;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(ranks.begin() + a * d,
                                        ranks.begin() + (a + 1) * d,
                                        ranks.begin() + b * d,
                                        ranks.begin() + (b + 1) * d);
  });
  return order;
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
  // One hash per cell: the first cube to hold a coordinate gives it a row
  // (in hash-map iteration order) and every cube writes its value there.
  // (The paper replaces NULL with a dummy value to make the SQL equi-join
  // work; our Tuple hash treats NULL as an ordinary groupable value, which
  // is equivalent.)
  const size_t m = cubes.size();
  size_t total = 0;
  for (const DataCube* cube : cubes) total += cube->NumCells();
  // Keyed by the cubes' own coordinates, which outlive the join.
  auto hash = [](const Tuple* t) { return TupleHash{}(*t); };
  auto eq = [](const Tuple* a, const Tuple* b) { return TupleEq{}(*a, *b); };
  std::unordered_map<const Tuple*, size_t, decltype(hash), decltype(eq)>
      row_of(total, hash, eq);
  std::vector<const Tuple*> coords;
  std::vector<double> values;    // [row * m + j]
  std::vector<uint8_t> present;  // [row * m + j]
  const size_t d = cubes[0]->attributes().size();
  for (size_t j = 0; j < m; ++j) {
    for (const auto& [coord, value] : cubes[j]->cells()) {
      if (coord.size() != d) {
        return Status::InvalidArgument(
            "cube operand " + std::to_string(j) + " has a cell of arity " +
            std::to_string(coord.size()) + " over " + std::to_string(d) +
            " attribute(s)");
      }
      auto [it, inserted] = row_of.try_emplace(&coord, coords.size());
      if (inserted) {
        coords.push_back(&coord);
        values.resize(values.size() + m, 0.0);
        present.resize(present.size() + m, 0);
      }
      values[it->second * m + j] = value;
      present[it->second * m + j] = 1;
    }
  }
  // Canonical row order: the rows above inherit the cubes' hash-map
  // iteration order, which varies with how the cells were inserted (e.g.
  // across num_threads settings). Sorting pins table M — and everything
  // downstream of it — to a single representation (DESIGN.md §6).
  const std::vector<size_t> order = CanonicalOrder(coords, d);
  CubeJoinResult out;
  out.attributes = cubes[0]->attributes();
  out.coords.reserve(order.size());
  out.values.assign(m, std::vector<double>(order.size()));
  out.present.assign(m, std::vector<uint8_t>(order.size()));
  for (size_t row = 0; row < order.size(); ++row) {
    out.coords.push_back(*coords[order[row]]);
    for (size_t j = 0; j < m; ++j) {
      out.values[j][row] = values[order[row] * m + j];
      out.present[j][row] = present[order[row] * m + j];
    }
  }
  span.set_arg(static_cast<int64_t>(out.coords.size()));
  XPLAIN_COUNTER_ADD("cube.joined_rows",
                     static_cast<int64_t>(out.coords.size()));
  return out;
}

}  // namespace xplain
