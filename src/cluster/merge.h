#ifndef XPLAIN_CLUSTER_MERGE_H_
#define XPLAIN_CLUSTER_MERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "relational/query.h"
#include "server/json.h"
#include "util/result.h"

namespace xplain {
namespace cluster {

/// One shard's answer to a partial EXPLAIN, decoded from the wire
/// (server::PartialReportPayload): the unpruned table-M fragment over that
/// shard's partition, row-major.
/// Thread-safety: plain data, externally synchronized.
struct ShardPartial {
  uint64_t db_version = 0;
  bool additive = false;
  bool cell_additive = false;
  /// Per-shard originals u_j = q_j(D_s).
  std::vector<double> u;
  /// One entry per fragment row, in the shard's canonical order.
  std::vector<Tuple> coords;
  /// cube_mask of each row (bit j = cube C_j materialized this cell).
  std::vector<uint64_t> masks;
  /// values[row][j] = v_j of that row.
  std::vector<std::vector<double>> values;
};

/// Decodes one shard response carrying a PartialReportPayload. The
/// response must be an ok:true partial payload; ok:false responses should
/// be routed to error handling before calling this.
[[nodiscard]] Result<ShardPartial> ParsePartialPayload(
    const server::JsonValue& json);

/// As above, parsing the response line first.
[[nodiscard]] Result<ShardPartial> ParsePartialPayload(
    const std::string& line);

/// Decodes one shard response to a rescore request
/// (server::RescorePayload): rescored[i][j] = q_j(D_s - Delta^phi_i_s).
/// The response must be ok:true; row arity is checked by FinishRescore.
[[nodiscard]] Result<std::vector<std::vector<double>>> ParseRescorePayload(
    const server::JsonValue& json);

/// The coordinator-side outcome of merging K shard fragments: either a
/// finished report (`need_rescore == false`) or a report whose candidate
/// `pool` still needs the exact-rescore fan-out (FinishRescore).
/// Thread-safety: plain data, externally synchronized.
struct MergedExplain {
  ExplainReport report;
  bool need_rescore = false;
  /// Rescore candidates (when need_rescore): ranked by the cube proxy,
  /// m_row indexing report.table.
  std::vector<RankedExplanation> pool;
};

/// Merges K shard fragments into one report, bit-identically to a single
/// node over the union database (DESIGN.md §13). One hashed pass over the
/// fragment rows, in shard order, sums each coordinate's values per set
/// cube-mask bit and ORs the masks: this is the full outer join of the
/// global cubes, whose cells are sums of the shards' cells. Rows are put
/// in canonical order, and the shared AssembleTableM + RankTableM tail
/// runs with the caller's real options (min_support is applied here,
/// after the global merge). A fragment that repeats a coordinate is
/// kInvalidArgument; a row with no mask bit set is no cube cell and is
/// skipped. Additivity verdicts are the AND over shards — exact whenever
/// the partition co-locates every base row's universal occurrences. When
/// the question needs exact intervention degrees, the result carries the
/// candidate pool for the rescore fan-out instead of final rankings.
[[nodiscard]] Result<MergedExplain> MergePartials(
    const UserQuestion& question, const std::vector<ColumnRef>& attributes,
    const ExplainOptions& options, const std::vector<ShardPartial>& partials);

/// Completes an exact rescore from the per-shard residual subquery values
/// (shard_values[s][i][j] = q_j(D_s - Delta^phi_i_s), shards in shard-map
/// order, cells in `merged->pool` order): sums residuals across shards
/// in shard order from 0.0, then finishes with the single node's
/// RankExactDegrees.
[[nodiscard]] Status FinishRescore(
    const UserQuestion& question, const ExplainOptions& options,
    const std::vector<std::vector<std::vector<double>>>& shard_values,
    MergedExplain* merged);

}  // namespace cluster
}  // namespace xplain

#endif  // XPLAIN_CLUSTER_MERGE_H_
