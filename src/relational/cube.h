#ifndef XPLAIN_RELATIONAL_CUBE_H_
#define XPLAIN_RELATIONAL_CUBE_H_

#include <unordered_map>
#include <vector>

#include "relational/aggregate.h"
#include "relational/column_cache.h"
#include "relational/universal.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace xplain {

/// The most cube attributes one cube may group by (a 2^d lattice).
inline constexpr int kMaxCubeAttributes = 16;

/// The result of `GROUP BY ... WITH CUBE` over the universal relation for a
/// single aggregate (paper Example 4.1).
///
/// A cell coordinate assigns each cube attribute either a concrete value or
/// NULL meaning ALL ("don't care"). The all-NULL cell holds the grand total.
/// One kernel, ComputeCubes below, computes every cube; Compute is a thin
/// adapter over it.
///
/// Thread-safety: a computed DataCube is immutable; all const accessors
/// are safe to call concurrently.
class DataCube {
 public:
  /// Computes the cube of `agg` over the rows of `universal` satisfying
  /// `filter` (nullptr = all rows), grouped by `attributes`: encodes the
  /// columns privately and runs ComputeCubes.
  [[nodiscard]] static Result<DataCube> Compute(
      const UniversalRelation& universal,
      const std::vector<ColumnRef>& attributes, const AggregateSpec& agg,
      const DnfPredicate* filter, ThreadPool* pool = nullptr);

  /// Rewraps an existing cell map as a DataCube without recomputation —
  /// the adoption point for incrementally maintained cubes
  /// (DESIGN.md §10). The caller vouches that `cells` equals what
  /// Compute would produce for `attributes` over the current database.
  static DataCube FromCells(std::vector<ColumnRef> attributes,
                            std::unordered_map<Tuple, double, TupleHash,
                                               TupleEq> cells);

  /// The cube's grouping attributes, in coordinate order.
  const std::vector<ColumnRef>& attributes() const { return attributes_; }
  /// Number of materialized (non-empty) cells across the whole lattice.
  size_t NumCells() const { return cells_.size(); }

  using CellMap = std::unordered_map<Tuple, double, TupleHash, TupleEq>;
  /// All materialized cells, keyed by coordinate tuple (NULL = ALL).
  const CellMap& cells() const { return cells_; }
  /// Mutable cell access for incremental maintenance; mutating breaks the
  /// immutability guarantee, so callers must hold exclusive access.
  CellMap* mutable_cells() { return &cells_; }

  /// Aggregate value of the cell at `coords`; 0 when the cell is absent
  /// (no input row matched).
  double CellValue(const Tuple& coords) const;

  /// The grand-total (all-NULL) cell value.
  double GrandTotal() const;

  /// Multi-line rendering of up to `max_cells` cells.
  std::string ToString(const Database& db, size_t max_cells = 20) const;

 private:
  std::vector<ColumnRef> attributes_;
  CellMap cells_;
};

/// One subquery of a ComputeCubes call: the cube of `agg` over the input
/// rows that pass `filter`.
/// Thread-safety: plain data, externally synchronized.
struct CubeQuery {
  AggregateSpec agg;
  /// Non-owning; must outlive the call. nullptr passes every row.
  const DnfPredicate* filter = nullptr;
  /// Also return each cell's count of filter-passing rows (the liveness
  /// sidecar of a maintained cube, DESIGN.md §10).
  bool row_counts = false;
};

/// One CubeQuery's cube from ComputeCubes.
/// Thread-safety: plain data, externally synchronized.
struct CubeResult {
  /// kInvalidArgument when a filter-passing row groups a data NULL into a
  /// base cell (a NULL would read as the lattice's ALL); `cube` is then
  /// empty.
  Status status;
  DataCube cube;
  /// When asked for: per cell of `cube`, the number of filter-passing
  /// rows that reach it.
  DataCube::CellMap row_counts;
};

/// The cube kernel: the cubes of `queries` (at most 64) over the input
/// rows `rows` (ascending positions in `cache`; nullptr = every cached
/// row), grouped by `attributes`, in one scan of the input. The scan builds
/// each row's cell key once and marks the subqueries whose filter it
/// passes; subqueries with the same AggregateSpec share one per-cell
/// state array. Cells live in a dense array over the whole lattice when
/// it is small against the input, else in hash maps keyed by the packed
/// codes (DESIGN.md §6). With a non-owning `pool`, the input rows split
/// into per-worker ranges aggregated into worker-local cells (merged in
/// shard order: cells are additive under any disjoint partition of the
/// rows), and the roll-up splits by subquery (dense lattice) or by mask
/// (hashed cells) so workers write disjoint cells; nullptr runs on the
/// caller. At most kMaxCubeAttributes attributes.
///
/// `cache` must hold every attribute, every filter column and every
/// non-COUNT(*) aggregated column, which SUM/MIN/MAX/AVG need numeric.
/// Argument errors fail the call; the NULL rule fails only the cubes it
/// hits (CubeResult::status). Returns one result per query, in order.
[[nodiscard]] Result<std::vector<CubeResult>> ComputeCubes(
    const ColumnCache& cache, const std::vector<ColumnRef>& attributes,
    const std::vector<CubeQuery>& queries, const std::vector<uint32_t>* rows,
    ThreadPool* pool = nullptr);

/// The full outer join of m cubes over identical attribute lists: one row
/// per coordinate appearing in any cube, with that cube's value or 0
/// (paper Section 4.1: explanations missing from a cube count as zero).
/// Rows are in canonical (lexicographic coordinate) order, so the joined
/// table is identical however the input cubes were computed — in
/// particular across num_threads settings.
/// Thread-safety: plain data, externally synchronized.
struct CubeJoinResult {
  std::vector<ColumnRef> attributes;
  std::vector<Tuple> coords;
  /// values[j][row] = value of cube j at coords[row].
  std::vector<std::vector<double>> values;
  /// present[j][row] = 1 iff cube j materialized a cell at coords[row].
  /// Distinguishes a genuine 0-valued cell (e.g. SUM of zeros) from a cell
  /// the cube never produced — the distinction the cluster merge needs to
  /// reconstruct per-shard cube supports exactly (DESIGN.md §13).
  std::vector<std::vector<uint8_t>> present;

  size_t NumRows() const { return coords.size(); }
};

/// Joins `cubes` (all non-null, same attribute list) into one table.
/// m == 1 is a pass-through: the single cube's cells in canonical order.
/// An empty operand list or mismatched attribute lists are
/// kInvalidArgument — the coordinator surfaces these as structured errors
/// rather than merging garbage.
[[nodiscard]] Result<CubeJoinResult> FullOuterJoinCubes(
    const std::vector<const DataCube*>& cubes);

/// The canonical row order of table M: the permutation of `coords` (each
/// of arity `d`, pairwise distinct) that sorts them in CompareTuples
/// order. Each attribute's distinct values are ranked once, so rows
/// compare as integer vectors. Shared by FullOuterJoinCubes and the
/// cluster merge (DESIGN.md §13), so both emit rows in one order.
std::vector<size_t> CanonicalOrder(const std::vector<const Tuple*>& coords,
                                   size_t d);

}  // namespace xplain

#endif  // XPLAIN_RELATIONAL_CUBE_H_
