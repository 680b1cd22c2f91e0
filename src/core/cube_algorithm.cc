#include "core/cube_algorithm.h"

#include "core/degree.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace xplain {

namespace {

/// Milliseconds elapsed since `start_us` on the trace clock.
double MsSince(int64_t start_us) {
  return static_cast<double>(Trace::NowMicros() - start_us) / 1000.0;
}

bool IsCounting(AggregateKind kind) {
  return kind == AggregateKind::kCountStar ||
         kind == AggregateKind::kCountDistinct;
}

}  // namespace

Status CheckSubqueryCount(int m) {
  if (m <= kMaxSubqueries) return Status::OK();
  return Status::InvalidArgument("a question has at most " +
                                 std::to_string(kMaxSubqueries) +
                                 " subqueries; got " + std::to_string(m));
}

int64_t TableM::FindRow(const Tuple& cell) const {
  for (size_t i = 0; i < coords.size(); ++i) {
    if (TupleEq{}(coords[i], cell)) return static_cast<int64_t>(i);
  }
  return -1;
}

Result<TableM> ComputeTableM(const UniversalRelation& universal,
                             const UserQuestion& question,
                             const std::vector<ColumnRef>& attributes,
                             const TableMOptions& options) {
  const NumericalQuery& query = question.query;
  const int m = query.num_subqueries();
  if (m == 0) {
    return Status::InvalidArgument("question has no subqueries");
  }
  XPLAIN_RETURN_IF_ERROR(CheckSubqueryCount(m));

  TableM table;
  table.attributes = attributes;
  XPLAIN_TRACE_SPAN("tablem.compute");

  // Step 2 first: the cubes the workspace does not hold, all from one
  // kernel call over one dictionary-coded view (the workspace's held
  // columns, or a private encoding) of the grouping attributes, the
  // aggregated columns and the filter columns. Cubes are held by
  // shared_ptr so rows can come either from the maintained workspace
  // (shared across calls) or a fresh computation.
  const Database& db = universal.db();
  CubeWorkspace* workspace = options.workspace;
  std::vector<std::shared_ptr<const DataCube>> cubes(m);
  int64_t step_start_us = Trace::NowMicros();
  TraceSpan cubes_span("tablem.cubes");
  const std::vector<ColumnRef> columns =
      CubeColumns(attributes, query.subqueries());
  const ColumnCache cache = workspace
                                ? workspace->Columns(universal, columns)
                                : ColumnCache::Build(universal, columns,
                                                     options.pool);
  std::vector<CubeQuery> misses;
  std::vector<int> missed;
  for (int j = 0; j < m; ++j) {
    const AggregateQuery& q = query.subqueries()[j];
    if (workspace != nullptr) {
      cubes[j] = workspace->LookupCube(db, q, attributes);
      if (cubes[j] != nullptr) continue;
    }
    // A retained non-COUNT(*) cube keeps its cells' row counts as the
    // liveness sidecar; a COUNT(*) cube is its own.
    misses.push_back(CubeQuery{
        q.agg, &q.where,
        workspace != nullptr && q.agg.kind != AggregateKind::kCountStar &&
            CubeWorkspace::CubeIsMaintainable(db, q.agg)});
    missed.push_back(j);
  }
  if (!misses.empty()) {
    XPLAIN_ASSIGN_OR_RETURN(
        std::vector<CubeResult> computed,
        ComputeCubes(cache, attributes, misses, nullptr, options.pool));
    for (size_t k = 0; k < computed.size(); ++k) {
      const AggregateQuery& q = query.subqueries()[missed[k]];
      CubeResult& result = computed[k];
      XPLAIN_RETURN_IF_ERROR(result.status);
      if (workspace == nullptr) {
        cubes[missed[k]] =
            std::make_shared<const DataCube>(std::move(result.cube));
        continue;
      }
      cubes[missed[k]] =
          workspace->InsertCube(db, q, attributes, std::move(result.cube),
                                std::move(result.row_counts));
    }
  }
  cubes_span.End();
  table.build_stats.cube_build_ms = MsSince(step_start_us);

  // Step 1: u_j = q_j(D). A counting cube's apex (ALL, ..., ALL) cell
  // aggregates every filter-passing row, so it is u_j exactly (integer-
  // valued; an absent apex, where no row passes, reads 0.0 like
  // EvaluateAggregate). Other aggregates take one pass over U(D): float
  // sums depend on summation order.
  step_start_us = Trace::NowMicros();
  {
    XPLAIN_TRACE_SPAN("tablem.originals");
    table.original_values.reserve(m);
    for (int j = 0; j < m; ++j) {
      const AggregateQuery& q = query.subqueries()[j];
      if (IsCounting(q.agg.kind)) {
        table.original_values.push_back(cubes[j]->GrandTotal());
        continue;
      }
      Value v = EvaluateAggregate(universal, q.agg, &q.where);
      table.original_values.push_back(v.is_null() ? 0.0 : v.AsNumeric());
    }
  }
  table.build_stats.originals_ms = MsSince(step_start_us);

  // Step 3: full outer join, then the shared assemble step (support
  // pruning + degree columns) that the cluster coordinator reuses over
  // merged shard cubes (DESIGN.md §13).
  step_start_us = Trace::NowMicros();
  TraceSpan merge_span("tablem.merge");
  std::vector<const DataCube*> cube_ptrs;
  for (const auto& c : cubes) cube_ptrs.push_back(c.get());
  XPLAIN_ASSIGN_OR_RETURN(CubeJoinResult joined,
                          FullOuterJoinCubes(cube_ptrs));
  merge_span.End();
  table.build_stats.merge_ms = MsSince(step_start_us);
  XPLAIN_RETURN_IF_ERROR(AssembleTableM(std::move(joined), query,
                                        question.direction,
                                        options.min_support,
                                        options.pool, &table));
  return table;
}

Status AssembleTableM(CubeJoinResult joined, const NumericalQuery& query,
                      Direction direction, double min_support,
                      ThreadPool* pool, TableM* table) {
  const int m = static_cast<int>(joined.values.size());
  if (m == 0) {
    return Status::InvalidArgument("joined cube table has no value columns");
  }
  XPLAIN_RETURN_IF_ERROR(CheckSubqueryCount(m));
  if (static_cast<int>(query.num_subqueries()) != m) {
    return Status::InvalidArgument(
        "joined cube table has " + std::to_string(m) +
        " value columns but the query has " +
        std::to_string(query.num_subqueries()) + " subqueries");
  }
  int64_t step_start_us = Trace::NowMicros();
  TraceSpan assemble_span("tablem.assemble");
  table->build_stats.rows_before_support = joined.NumRows();

  // Optional support pruning.
  std::vector<size_t> kept;
  kept.reserve(joined.NumRows());
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    if (min_support > 0.0) {
      bool supported = false;
      for (int j = 0; j < m; ++j) {
        if (joined.values[j][row] >= min_support) {
          supported = true;
          break;
        }
      }
      if (!supported) continue;
    }
    kept.push_back(row);
  }

  table->coords.reserve(kept.size());
  table->subquery_values.assign(m, {});
  for (int j = 0; j < m; ++j) table->subquery_values[j].reserve(kept.size());
  table->cube_mask.reserve(kept.size());
  const bool have_present = !joined.present.empty();
  for (size_t row : kept) {
    table->coords.push_back(std::move(joined.coords[row]));
    uint64_t mask = 0;
    for (int j = 0; j < m; ++j) {
      table->subquery_values[j].push_back(joined.values[j][row]);
      if (have_present && joined.present[j][row]) mask |= uint64_t{1} << j;
    }
    table->cube_mask.push_back(mask);
  }
  assemble_span.End();
  table->build_stats.merge_ms += MsSince(step_start_us);
  table->build_stats.rows = table->coords.size();

  // Steps 4-5: degree columns. Rows are independent, so shards write
  // disjoint ranges of the preallocated columns; each row's arithmetic is
  // identical to the sequential path, keeping the columns bit-identical
  // for every thread count.
  const double interv_sign = InterventionSign(direction);
  const double aggr_sign = AggravationSign(direction);
  const size_t rows = table->coords.size();
  table->mu_interv.assign(rows, 0.0);
  table->mu_aggr.assign(rows, 0.0);
  step_start_us = Trace::NowMicros();
  TraceSpan degrees_span("tablem.degrees");
  XPLAIN_RETURN_IF_ERROR(ParallelShards(
      pool, rows, [&](int, size_t begin, size_t end) {
        XPLAIN_TRACE_SPAN("tablem.degree_shard");
        std::vector<double> vars(m);
        for (size_t row = begin; row < end; ++row) {
          for (int j = 0; j < m; ++j) {
            vars[j] =
                table->original_values[j] - table->subquery_values[j][row];
          }
          table->mu_interv[row] = interv_sign * query.Combine(vars);
          for (int j = 0; j < m; ++j) {
            vars[j] = table->subquery_values[j][row];
          }
          table->mu_aggr[row] = aggr_sign * query.Combine(vars);
        }
        return Status::OK();
      }));
  degrees_span.End();
  table->build_stats.degree_ms = MsSince(step_start_us);
  return Status::OK();
}

}  // namespace xplain
