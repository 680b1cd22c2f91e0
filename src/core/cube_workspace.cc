#include "core/cube_workspace.h"

#include <algorithm>

#include "relational/aggregate.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {

namespace {

/// Length-prefix framing ("<len>:<text>;") so concatenated fields cannot
/// collide across field boundaries.
void AppendField(std::string* out, const std::string& field) {
  *out += std::to_string(field.size());
  *out += ':';
  *out += field;
  *out += ';';
}

}  // namespace

std::vector<ColumnRef> CubeColumns(const std::vector<ColumnRef>& attributes,
                                   std::span<const AggregateQuery> queries) {
  std::vector<ColumnRef> columns;
  auto add = [&columns](const ColumnRef& column) {
    if (std::find(columns.begin(), columns.end(), column) == columns.end()) {
      columns.push_back(column);
    }
  };
  for (const ColumnRef& attr : attributes) add(attr);
  for (const AggregateQuery& query : queries) {
    if (query.agg.kind != AggregateKind::kCountStar) add(query.agg.column);
    for (const ConjunctivePredicate& disjunct : query.where.disjuncts()) {
      for (const AtomicPredicate& atom : disjunct.atoms()) add(atom.column);
    }
  }
  return columns;
}

std::string CanonicalCubeKey(const Database& db, const AggregateQuery& query,
                             const std::vector<ColumnRef>& attributes) {
  std::string key = "cube;";
  AppendField(&key, query.agg.ToString(db));
  AppendField(&key, query.where.ToString(db));
  for (const ColumnRef& attr : attributes) {
    AppendField(&key, std::to_string(attr.relation) + "." +
                          std::to_string(attr.attribute));
  }
  return key;
}

bool CubeWorkspace::CubeIsMaintainable(const Database& db,
                                       const AggregateSpec& agg) {
  switch (agg.kind) {
    case AggregateKind::kCountStar:
    case AggregateKind::kCountDistinct:
      return true;
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      // Integer sums are exact in double (|sum| < 2^53); float sums are
      // order-sensitive, so subtraction would break byte-identity.
      return db.ColumnType(agg.column) == DataType::kInt64;
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return IsNumeric(db.ColumnType(agg.column));
  }
  return false;
}

std::shared_ptr<const DataCube> CubeWorkspace::LookupCube(
    const Database& db, const AggregateQuery& query,
    const std::vector<ColumnRef>& attributes) const {
  const std::string key = CanonicalCubeKey(db, query, attributes);
  MutexLock lock(&mu_);
  auto it = cubes_.find(key);
  if (it == cubes_.end()) {
    ++cube_misses_;
    XPLAIN_COUNTER_ADD("workspace.cube_misses", 1);
    return nullptr;
  }
  ++cube_hits_;
  XPLAIN_COUNTER_ADD("workspace.cube_hits", 1);
  return it->second.cube;
}

std::shared_ptr<const DataCube> CubeWorkspace::InsertCube(
    const Database& db, const AggregateQuery& query,
    const std::vector<ColumnRef>& attributes, DataCube cube,
    DataCube::CellMap counts) {
  auto shared = std::make_shared<DataCube>(std::move(cube));
  if (!CubeIsMaintainable(db, query.agg)) return shared;
  const std::string key = CanonicalCubeKey(db, query, attributes);
  MutexLock lock(&mu_);
  if (frozen_ || cubes_.size() >= limits_.max_cubes ||
      cubes_.count(key) != 0) {
    return shared;
  }
  CubeEntry entry;
  entry.query = query;
  entry.attributes = attributes;
  entry.cube = shared;
  entry.counts = std::move(counts);
  cubes_.emplace(key, std::move(entry));
  XPLAIN_COUNTER_ADD("workspace.cube_inserts", 1);
  return shared;
}

ColumnCache CubeWorkspace::Columns(const UniversalRelation& universal,
                                   const std::vector<ColumnRef>& columns) {
  std::vector<std::shared_ptr<const EncodedColumn>> held(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    {
      MutexLock lock(&mu_);
      auto it = columns_.find(columns[c]);
      if (it != columns_.end()) {
        held[c] = it->second;
        ++column_hits_;
        XPLAIN_COUNTER_ADD("workspace.column_hits", 1);
        continue;
      }
      ++column_misses_;
      XPLAIN_COUNTER_ADD("workspace.column_misses", 1);
    }
    auto encoded = std::make_shared<const EncodedColumn>(
        EncodedColumn::Encode(universal, columns[c]));
    // A concurrent first use may have won the race; keep its encoding.
    MutexLock lock(&mu_);
    held[c] = columns_.emplace(columns[c], std::move(encoded)).first->second;
  }
  return ColumnCache(universal, std::move(held));
}

void CubeWorkspace::BeginDelta() {
  MutexLock lock(&mu_);
  frozen_ = true;
}

void CubeWorkspace::AbortDelta() {
  MutexLock lock(&mu_);
  frozen_ = false;
}

CubeWorkspaceStats CubeWorkspace::GetStats() const {
  MutexLock lock(&mu_);
  CubeWorkspaceStats stats;
  stats.cube_hits = cube_hits_;
  stats.cube_misses = cube_misses_;
  stats.column_hits = column_hits_;
  stats.column_misses = column_misses_;
  stats.cells_patched = cells_patched_;
  stats.cells_recomputed = cells_recomputed_;
  stats.cube_entries = cubes_.size();
  stats.column_entries = columns_.size();
  return stats;
}

CubeWorkspace::Patch CubeWorkspace::PlanDelta(
    const UniversalRelation& old_universal, const UniversalRemap& remap) {
  TraceSpan span("workspace.plan_delta");
  Patch patch;
  if (remap.removed_universal.empty()) return patch;
  // Snapshot the entries under the lock; the per-entry analysis below runs
  // without it (entries are frozen between BeginDelta and CommitDelta).
  std::vector<const CubeEntry*> entries;
  {
    MutexLock lock(&mu_);
    entries.reserve(cubes_.size());
    for (const auto& [key, entry] : cubes_) {
      patch.entries.push_back(Patch::EntryPatch{key, {}, {}, {}});
      entries.push_back(&entry);
    }
  }

  for (size_t e = 0; e < entries.size(); ++e) {
    const CubeEntry& entry = *entries[e];
    Patch::EntryPatch& entry_patch = patch.entries[e];
    const AggregateSpec& agg = entry.query.agg;
    const ColumnCache cache = Columns(
        old_universal, CubeColumns(entry.attributes, {&entry.query, 1}));
    // Every row cubed here took part in the retained cube over the same
    // columns (no NULL key, numeric value column), so the kernel cannot
    // fail.
    auto cubes_of = [&](const std::vector<CubeQuery>& queries,
                        const std::vector<uint32_t>& rows) {
      Result<std::vector<CubeResult>> cubes =
          ComputeCubes(cache, entry.attributes, queries, &rows);
      XPLAIN_CHECK(cubes.ok()) << cubes.status().ToString();
      for (const CubeResult& cube : *cubes) {
        XPLAIN_CHECK(cube.status.ok()) << cube.status.ToString();
      }
      return std::move(cubes).ValueOrDie();
    };

    // The removal effects per ancestor cell, from one kernel call over the
    // removed filter-passing rows: how many die (the row counts), their
    // sum (SUM) or extremum (MIN/MAX), and whether any of them had a
    // non-NULL value (COUNT(DISTINCT) > 0).
    std::vector<CubeQuery> removal = {
        CubeQuery{agg, &entry.query.where, /*row_counts=*/true}};
    if (agg.kind != AggregateKind::kCountStar) {
      removal.push_back(CubeQuery{AggregateSpec::CountDistinct(agg.column),
                                  &entry.query.where, false});
    }
    const std::vector<CubeResult> removed =
        cubes_of(removal, remap.removed_universal);
    const bool count_star = agg.kind == AggregateKind::kCountStar;
    const DataCube::CellMap& removed_counts =
        count_star ? removed[0].cube.cells() : removed[0].row_counts;
    if (removed_counts.empty()) continue;
    const DataCube& effects = removed[0].cube;
    // A COUNT(*) entry's cells are its row counts.
    const DataCube::CellMap& counts =
        count_star ? entry.cube->cells() : entry.counts;

    // Emit the per-cell updates. A surviving cell needs recomputation when
    // an extremum may have died (MIN/MAX) or the aggregate does not
    // subtract (DISTINCT/AVG); those are read off one cube over the
    // surviving rows. The retained kinds are order-insensitive (integer
    // sums are exact, MIN/MAX and DISTINCT are idempotent folds), so it
    // matches a fresh cube byte for byte.
    std::vector<Tuple> dirty;
    for (const auto& [coord, removed_count] : removed_counts) {
      auto count_it = counts.find(coord);
      const double old_count =
          count_it == counts.end() ? 0.0 : count_it->second;
      const double new_count = old_count - removed_count;
      ++patch.cells_patched;
      if (new_count <= 0.0) {
        entry_patch.erasures.push_back(coord);
        continue;
      }
      if (count_star) {
        entry_patch.value_updates.emplace_back(coord, new_count);
        continue;
      }
      entry_patch.count_updates.emplace_back(coord, new_count);
      if (removed[1].cube.CellValue(coord) == 0.0) continue;  // no value lost
      const double value = entry.cube->CellValue(coord);
      const double effect = effects.CellValue(coord);
      if (agg.kind == AggregateKind::kSum) {
        entry_patch.value_updates.emplace_back(coord, value - effect);
      } else if ((agg.kind != AggregateKind::kMin || effect <= value) &&
                 (agg.kind != AggregateKind::kMax || effect >= value)) {
        dirty.push_back(coord);
      }
    }
    if (dirty.empty()) continue;
    const std::vector<CubeResult> fresh =
        cubes_of({CubeQuery{agg, &entry.query.where, false}},
                 remap.surviving_universal);
    for (Tuple& coord : dirty) {
      const double value = fresh[0].cube.CellValue(coord);
      entry_patch.value_updates.emplace_back(std::move(coord), value);
    }
    patch.cells_recomputed += static_cast<int64_t>(dirty.size());
  }
  span.set_arg(patch.cells_patched);
  return patch;
}

void CubeWorkspace::CommitDelta(Patch&& patch, const UniversalRemap& remap) {
  TraceSpan span("workspace.commit_delta");
  MutexLock lock(&mu_);
  for (Patch::EntryPatch& entry_patch : patch.entries) {
    auto it = cubes_.find(entry_patch.key);
    if (it == cubes_.end()) continue;
    CubeEntry& entry = it->second;
    DataCube::CellMap* cells = entry.cube->mutable_cells();
    for (auto& [coord, value] : entry_patch.value_updates) {
      (*cells)[coord] = value;
    }
    for (auto& [coord, count] : entry_patch.count_updates) {
      entry.counts[coord] = count;
    }
    for (const Tuple& coord : entry_patch.erasures) {
      cells->erase(coord);
      entry.counts.erase(coord);
    }
  }
  for (auto& [ref, column] : columns_) {
    column = std::make_shared<const EncodedColumn>(
        column->Remapped(remap.surviving_universal));
  }
  cells_patched_ += patch.cells_patched;
  cells_recomputed_ += patch.cells_recomputed;
  XPLAIN_COUNTER_ADD("workspace.cells_patched", patch.cells_patched);
  XPLAIN_COUNTER_ADD("workspace.cells_recomputed", patch.cells_recomputed);
  frozen_ = false;
}

}  // namespace xplain
