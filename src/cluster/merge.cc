#include "cluster/merge.h"

#include <bit>
#include <cerrno>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "core/cube_algorithm.h"
#include "relational/cube.h"
#include "server/protocol.h"
#include "util/trace.h"

namespace xplain {
namespace cluster {

namespace {

using server::JsonValue;

Result<uint64_t> ParseMaskString(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty cube-mask string");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("bad cube-mask string '" + text + "'");
  }
  return static_cast<uint64_t>(parsed);
}

/// The items of a JSON array that must hold only numbers.
Result<std::vector<double>> Numbers(const JsonValue& array, const char* what) {
  std::vector<double> out;
  out.reserve(array.array_items().size());
  for (const JsonValue& item : array.array_items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument(std::string(what) +
                                     " holds a non-number");
    }
    out.push_back(item.number_value());
  }
  return out;
}

}  // namespace

Result<ShardPartial> ParsePartialPayload(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("shard partial is not a JSON object");
  }
  const JsonValue* ok = json.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    return Status::InvalidArgument("shard partial is not an ok response");
  }
  if (!json.GetBool("partial", false)) {
    return Status::InvalidArgument(
        "shard response carries no partial fragment");
  }
  ShardPartial partial;
  partial.db_version =
      static_cast<uint64_t>(json.GetNumber("db_version", 0.0));
  partial.additive = json.GetBool("additive", false);
  partial.cell_additive = json.GetBool("cell_additive", false);
  const JsonValue* u = json.Find("u");
  if (u == nullptr || !u->is_array()) {
    return Status::InvalidArgument("shard partial is missing 'u'");
  }
  XPLAIN_ASSIGN_OR_RETURN(partial.u, Numbers(*u, "shard partial 'u'"));
  const JsonValue* cells = json.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return Status::InvalidArgument("shard partial is missing 'cells'");
  }
  partial.coords.reserve(cells->array_items().size());
  partial.masks.reserve(cells->array_items().size());
  partial.values.reserve(cells->array_items().size());
  for (const JsonValue& cell : cells->array_items()) {
    if (!cell.is_object()) {
      return Status::InvalidArgument("shard partial cell is not an object");
    }
    const JsonValue* c = cell.Find("c");
    const JsonValue* mask = cell.Find("m");
    const JsonValue* v = cell.Find("v");
    if (c == nullptr || !c->is_array() || mask == nullptr ||
        !mask->is_string() || v == nullptr || !v->is_array()) {
      return Status::InvalidArgument(
          "shard partial cell is missing c/m/v members");
    }
    Tuple coords;
    coords.reserve(c->array_items().size());
    for (const JsonValue& coord : c->array_items()) {
      XPLAIN_ASSIGN_OR_RETURN(Value value, server::ParseWireValue(coord));
      coords.push_back(std::move(value));
    }
    XPLAIN_ASSIGN_OR_RETURN(uint64_t mask_bits,
                            ParseMaskString(mask->string_value()));
    XPLAIN_ASSIGN_OR_RETURN(std::vector<double> values,
                            Numbers(*v, "shard partial cell 'v'"));
    if (values.size() != partial.u.size()) {
      return Status::InvalidArgument(
          "shard partial cell has " + std::to_string(values.size()) +
          " values but the question has " + std::to_string(partial.u.size()) +
          " subqueries");
    }
    partial.coords.push_back(std::move(coords));
    partial.masks.push_back(mask_bits);
    partial.values.push_back(std::move(values));
  }
  return partial;
}

Result<ShardPartial> ParsePartialPayload(const std::string& line) {
  XPLAIN_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(line));
  return ParsePartialPayload(json);
}

Result<std::vector<std::vector<double>>> ParseRescorePayload(
    const JsonValue& json) {
  const JsonValue* ok = json.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    return Status::InvalidArgument("shard rescore is not an ok response");
  }
  const JsonValue* rescored = json.Find("rescored");
  if (rescored == nullptr || !rescored->is_array()) {
    return Status::InvalidArgument(
        "rescore response carries no 'rescored' member");
  }
  std::vector<std::vector<double>> rows;
  rows.reserve(rescored->array_items().size());
  for (const JsonValue& row : rescored->array_items()) {
    if (!row.is_array()) {
      return Status::InvalidArgument("rescore row is not an array");
    }
    XPLAIN_ASSIGN_OR_RETURN(std::vector<double> values,
                            Numbers(row, "rescore row"));
    rows.push_back(std::move(values));
  }
  return rows;
}

Result<MergedExplain> MergePartials(
    const UserQuestion& question, const std::vector<ColumnRef>& attributes,
    const ExplainOptions& options,
    const std::vector<ShardPartial>& partials) {
  XPLAIN_TRACE_SPAN("cluster.merge");
  if (partials.empty()) {
    return Status::InvalidArgument("no shard partials to merge");
  }
  const size_t m = static_cast<size_t>(question.query.num_subqueries());
  XPLAIN_RETURN_IF_ERROR(CheckSubqueryCount(static_cast<int>(m)));

  // The full outer join of the global cubes in one hashed pass over the
  // fragment rows. Cube cells of the envelope aggregates are additive over
  // the disjoint row partition, so a global cell C_j(c) is the sum of the
  // shards' C_j(c) where mask bit j is set; summing in shard-map order
  // from 0.0 keeps it deterministic. A row whose mask has no bit set was
  // no cube's cell and joins nothing. The global originals sum the same
  // way: u_j(D) = sum over shards of u_j(D_s).
  const uint64_t cube_bits = m == 64 ? ~uint64_t{0} : (uint64_t{1} << m) - 1;
  auto hash = [](const Tuple* t) { return TupleHash{}(*t); };
  auto eq = [](const Tuple* a, const Tuple* b) { return TupleEq{}(*a, *b); };
  std::unordered_map<const Tuple*, size_t, decltype(hash), decltype(eq)>
      row_of(partials[0].coords.size(), hash, eq);
  std::vector<const Tuple*> coords;  // keyed into the fragments
  std::vector<double> sums;          // [row * m + j]
  std::vector<uint64_t> masks;
  std::vector<size_t> last_shard;  // the latest shard to hold the row
  std::vector<double> u_sum(m, 0.0);
  for (size_t s = 0; s < partials.size(); ++s) {
    const ShardPartial& partial = partials[s];
    const size_t n = partial.coords.size();
    if (partial.u.size() != m) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " answered " +
          std::to_string(partial.u.size()) + " subqueries; expected " +
          std::to_string(m));
    }
    if (partial.masks.size() != n || partial.values.size() != n) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " fragment has ragged rows");
    }
    for (size_t j = 0; j < m; ++j) u_sum[j] += partial.u[j];
    for (size_t i = 0; i < n; ++i) {
      if (partial.coords[i].size() != attributes.size() ||
          partial.values[i].size() != m) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) +
            " fragment row arity does not match the candidate attributes "
            "and subqueries");
      }
      const uint64_t mask = partial.masks[i] & cube_bits;
      if (mask == 0) continue;
      auto [it, inserted] =
          row_of.try_emplace(&partial.coords[i], coords.size());
      const size_t row = it->second;
      if (inserted) {
        coords.push_back(&partial.coords[i]);
        sums.resize(sums.size() + m, 0.0);
        masks.push_back(0);
        last_shard.push_back(s);
      } else if (last_shard[row] == s) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) + " fragment repeats coordinate " +
            TupleToString(partial.coords[i]));
      }
      last_shard[row] = s;
      for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
        const size_t j = static_cast<size_t>(std::countr_zero(bits));
        sums[row * m + j] += partial.values[i][j];
      }
      masks[row] |= mask;
    }
  }
  const std::vector<size_t> order = CanonicalOrder(coords, attributes.size());
  CubeJoinResult joined;
  joined.attributes = attributes;
  joined.coords.reserve(order.size());
  joined.values.assign(m, std::vector<double>(order.size()));
  joined.present.assign(m, std::vector<uint8_t>(order.size()));
  for (size_t row = 0; row < order.size(); ++row) {
    joined.coords.push_back(*coords[order[row]]);
    for (size_t j = 0; j < m; ++j) {
      joined.values[j][row] = sums[order[row] * m + j];
      joined.present[j][row] = (masks[order[row]] >> j) & 1u;
    }
  }

  MergedExplain merged;
  ExplainReport& report = merged.report;
  report.used_cube = true;
  report.original_value = question.query.Combine(u_sum);

  // Verdicts are ANDed across shards: additivity is a property of the
  // schema, FK kinds and unique-core bits, and a partition that co-locates
  // every base row's universal occurrences preserves each shard's bits
  // (DESIGN.md §13 documents the non-co-locating caveat).
  report.additivity.additive = true;
  report.cell_additivity.additive = true;
  for (size_t s = 0; s < partials.size(); ++s) {
    if (!partials[s].additive && report.additivity.additive) {
      report.additivity.additive = false;
      report.additivity.reason =
          "shard " + std::to_string(s) + " is not additive";
    }
    if (!partials[s].cell_additive && report.cell_additivity.additive) {
      report.cell_additivity.additive = false;
      report.cell_additivity.reason =
          "shard " + std::to_string(s) + " is not cell-additive";
    }
  }
  if (report.additivity.additive) {
    report.additivity.reason =
        "all " + std::to_string(partials.size()) + " shard verdicts additive";
  }
  if (report.cell_additivity.additive) {
    report.cell_additivity.reason =
        "all " + std::to_string(partials.size()) +
        " shard verdicts cell-additive";
  }

  // The single-node tail: support pruning (the coordinator is the only
  // place min_support applies — shards always ship unpruned), degree
  // columns, ranking. Identical inputs, identical code, identical bytes.
  report.table.attributes = attributes;
  report.table.original_values = std::move(u_sum);
  XPLAIN_RETURN_IF_ERROR(AssembleTableM(std::move(joined), question.query,
                                        question.direction,
                                        options.min_support, nullptr,
                                        &report.table));
  XPLAIN_ASSIGN_OR_RETURN(merged.need_rescore,
                          RankTableM(options, nullptr, &report, &merged.pool));
  return merged;
}

Status FinishRescore(
    const UserQuestion& question, const ExplainOptions& options,
    const std::vector<std::vector<std::vector<double>>>& shard_values,
    MergedExplain* merged) {
  XPLAIN_TRACE_SPAN("cluster.rescore_merge");
  if (!merged->need_rescore) {
    return Status::Internal("FinishRescore called without a pending rescore");
  }
  const size_t cells = merged->pool.size();
  const size_t m = static_cast<size_t>(question.query.num_subqueries());
  for (size_t s = 0; s < shard_values.size(); ++s) {
    if (shard_values[s].size() != cells) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) + " rescored " +
          std::to_string(shard_values[s].size()) + " cells; expected " +
          std::to_string(cells));
    }
    for (const std::vector<double>& values : shard_values[s]) {
      if (values.size() != m) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) +
            " rescore row has the wrong subquery arity");
      }
    }
  }
  // q_j(D - Delta^phi) decomposes into the per-shard residuals when the
  // partition co-locates every base row's universal occurrences
  // (DESIGN.md §13).
  std::vector<std::vector<double>> residuals(cells, std::vector<double>(m));
  for (size_t i = 0; i < cells; ++i) {
    for (const auto& values : shard_values) {
      for (size_t j = 0; j < m; ++j) residuals[i][j] += values[i][j];
    }
  }
  RankExactDegrees(question, options, residuals, std::move(merged->pool),
                   &merged->report);
  merged->pool.clear();
  merged->need_rescore = false;
  return Status::OK();
}

}  // namespace cluster
}  // namespace xplain
