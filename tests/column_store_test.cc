// Differential test of the cube kernel and the workspace's table-M path
// (DESIGN.md §10): ComputeTableM builds all of a question's missing cubes
// in one kernel call, grouping every aggregate kind on dictionary codes
// on a dense lattice or in hashed cells, from the workspace's per-column
// store when there is one, and reads its counting u_j off the cube
// apexes. Over seeded random
// instances, every table must match the naive oracle (ComputeTableMNaive)
// and NumericalQuery::EvaluateOnUniversal bit for bit, across pool sizes
// and before and after a CommitDelta remap, while the store holds each
// column once. Double SUM/AVG depend on summation order, so for them the
// contract is determinism per thread count (DESIGN.md §6).

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cube_algorithm.h"
#include "core/cube_workspace.h"
#include "core/engine.h"
#include "core/naive.h"
#include "datagen/rng.h"
#include "relational/database.h"
#include "relational/parser.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace xplain {
namespace {

using ::xplain::testing::UnwrapOrDie;

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Fact(fid, did, a, b, c, v, w) with a standard FK to Dim(did, dv). v is
/// a nullable int64 and w a nullable double (each about a third NULL).
Database MakeDb(uint64_t seed) {
  Rng rng(seed);
  Relation dim(std::move(*RelationSchema::Create(
      "Dim", {{"did", DataType::kString}, {"dv", DataType::kString}},
      {"did"})));
  for (int d = 0; d < 4; ++d) {
    dim.AppendUnchecked({Value::Str("d" + std::to_string(d)),
                         Value::Str(d % 2 == 0 ? "x" : "y")});
  }
  Relation fact(std::move(*RelationSchema::Create(
      "Fact",
      {{"fid", DataType::kInt64},
       {"did", DataType::kString},
       {"a", DataType::kString},
       {"b", DataType::kString},
       {"c", DataType::kString},
       {"v", DataType::kInt64},
       {"w", DataType::kDouble}},
      {"fid"})));
  for (int f = 0; f < 60; ++f) {
    const int64_t did = f < 4 ? f : rng.UniformInt(0, 3);
    fact.AppendUnchecked(
        {Value::Int(f), Value::Str("d" + std::to_string(did)),
         Value::Str("a" + std::to_string(rng.UniformInt(0, 2))),
         Value::Str("b" + std::to_string(rng.UniformInt(0, 2))),
         Value::Str("c" + std::to_string(rng.UniformInt(0, 1))),
         rng.Bernoulli(0.3) ? Value::Null()
                            : Value::Int(rng.UniformInt(0, 4)),
         rng.Bernoulli(0.3) ? Value::Null()
                            : Value::Real(rng.NextDouble() * 10.0 - 3.0)});
  }
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(dim)).ok());
  XPLAIN_CHECK(db.AddRelation(std::move(fact)).ok());
  ForeignKey fk;
  fk.child_relation = "Fact";
  fk.child_attrs = {"did"};
  fk.parent_relation = "Dim";
  fk.parent_attrs = {"did"};
  fk.kind = ForeignKeyKind::kStandard;
  XPLAIN_CHECK(db.AddForeignKey(fk).ok());
  return db;
}

struct Case {
  UserQuestion question;
  std::vector<ColumnRef> attributes;
};

Case MakeCase(const Database& db, const std::vector<std::string>& attributes,
              const std::vector<std::pair<std::string, std::string>>& subs,
              const std::string& expr) {
  Case c;
  std::vector<AggregateQuery> subqueries;
  std::vector<std::string> names;
  for (const auto& [agg, where] : subs) {
    AggregateQuery q;
    q.name = "q" + std::to_string(subqueries.size() + 1);
    q.agg = UnwrapOrDie(ParseAggregate(db, agg));
    q.where = UnwrapOrDie(ParseDnfPredicate(db, where));
    names.push_back(q.name);
    subqueries.push_back(std::move(q));
  }
  c.question.query = UnwrapOrDie(NumericalQuery::Create(
      std::move(subqueries), UnwrapOrDie(ParseExpression(expr, names))));
  for (const std::string& name : attributes) {
    c.attributes.push_back(UnwrapOrDie(db.ResolveColumn(name)));
  }
  return c;
}

/// Two counting questions whose column sets overlap (Fact.a and Fact.c in
/// both), one of them with a filter no row passes (no apex cell) and one
/// counting DISTINCT over the NULL-bearing v; plus a SUM question, whose
/// u_j keep their EvaluateAggregate pass.
std::vector<Case> MakeCases(const Database& db) {
  return {
      MakeCase(db, {"Fact.b", "Fact.c"},
               {{"count(*)", "Fact.a = 'a0'"},
                {"count(distinct Fact.v)", "Fact.a = 'a0'"}},
               "q1 - q2"),
      MakeCase(db, {"Fact.c", "Dim.dv"},
               {{"count(*)", "Fact.b = 'b1' OR Fact.a = 'a2'"},
                {"count(*)", "Fact.a = 'none'"}},
               "q1 + 2 * q2"),
      MakeCase(db, {"Fact.a", "Dim.dv"},
               {{"sum(Fact.v)", "Fact.c = 'c0'"},
                {"count(*)", "Fact.c = 'c0'"}},
               "q1 - q2"),
  };
}

/// Columns the counting cases encode: Fact.{a,b,c,v} and Dim.dv.
constexpr size_t kEncodedColumns = 5;

/// Checks `table` against the oracles evaluated on `oracle`, a freshly
/// built U(D) of the database the table was computed over.
void ExpectMatchesOracles(const UniversalRelation& oracle, const Case& c,
                          const TableM& table) {
  const NumericalQuery& query = c.question.query;
  const std::vector<double> expected = query.EvaluateSubqueries(oracle);
  ASSERT_EQ(table.original_values.size(), expected.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_EQ(Bits(table.original_values[j]), Bits(expected[j])) << "u_" << j;
  }
  EXPECT_EQ(Bits(query.Combine(table.original_values)),
            Bits(query.EvaluateOnUniversal(oracle)));

  const TableM naive =
      UnwrapOrDie(ComputeTableMNaive(oracle, c.question, c.attributes));
  // The naive table omits all-zero cells; the cube keeps a cell whenever
  // some row passed a filter, so compare on the nonzero ones.
  size_t nonzero = 0;
  for (size_t row = 0; row < table.NumRows(); ++row) {
    bool any = false;
    for (const std::vector<double>& values : table.subquery_values) {
      any = any || values[row] != 0.0;
    }
    if (!any) continue;
    ++nonzero;
    const int64_t n = naive.FindRow(table.coords[row]);
    ASSERT_GE(n, 0) << TupleToString(table.coords[row]);
    for (size_t j = 0; j < table.subquery_values.size(); ++j) {
      EXPECT_EQ(Bits(table.subquery_values[j][row]),
                Bits(naive.subquery_values[j][n]));
    }
    EXPECT_EQ(Bits(table.mu_interv[row]), Bits(naive.mu_interv[n]));
    EXPECT_EQ(Bits(table.mu_aggr[row]), Bits(naive.mu_aggr[n]));
  }
  EXPECT_EQ(nonzero, naive.NumRows());
}

TEST(ColumnStoreTest, WorkspaceTableMatchesOraclesAcrossDelta) {
  for (const uint64_t seed : {5u, 17u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database db = MakeDb(seed);
    UniversalRelation universal = UnwrapOrDie(UniversalRelation::Build(db));
    const std::vector<Case> cases = MakeCases(db);
    CubeWorkspace workspace;
    TableMOptions options;
    options.workspace = &workspace;
    auto run_all = [&] {
      const UniversalRelation oracle =
          UnwrapOrDie(UniversalRelation::Build(db));
      for (const Case& c : cases) {
        TableM table = UnwrapOrDie(
            ComputeTableM(universal, c.question, c.attributes, options));
        ExpectMatchesOracles(oracle, c, table);
      }
    };

    run_all();
    const CubeWorkspaceStats first = workspace.GetStats();
    EXPECT_EQ(first.column_entries, kEncodedColumns);
    EXPECT_EQ(first.column_misses, static_cast<int64_t>(kEncodedColumns));

    // Repeats hit the held columns: the store does not grow.
    run_all();
    run_all();
    const CubeWorkspaceStats repeated = workspace.GetStats();
    EXPECT_EQ(repeated.column_entries, kEncodedColumns);
    EXPECT_EQ(repeated.column_misses, first.column_misses);
    EXPECT_GT(repeated.column_hits, first.column_hits);

    // Delete about a third of the facts; the held columns are remapped,
    // not re-encoded, and the maintained cubes are patched.
    Rng rng(seed * 7 + 1);
    DeltaSet delta = db.EmptyDelta();
    const int fact = *db.RelationIndex("Fact");
    for (size_t row = 0; row < db.relation(fact).NumRows(); ++row) {
      if (rng.Bernoulli(0.35)) delta[static_cast<size_t>(fact)].Set(row);
    }
    workspace.BeginDelta();
    DeltaPlan plan = db.PlanDelta(delta);
    UniversalRemap remap = universal.PlanRemap(plan);
    CubeWorkspace::Patch patch = workspace.PlanDelta(universal, remap);
    ASSERT_GT(db.ApplyDeltaPlan(plan), 0u);
    workspace.CommitDelta(std::move(patch), remap);
    universal.AdoptRows(std::move(remap));

    run_all();
    const CubeWorkspaceStats after = workspace.GetStats();
    EXPECT_EQ(after.column_entries, kEncodedColumns);
    EXPECT_EQ(after.column_misses, first.column_misses);
    EXPECT_GT(after.cube_hits, repeated.cube_hits);
  }
}

// Without a workspace the same tables come from private encodings.
TEST(ColumnStoreTest, NoWorkspaceMatchesOracles) {
  Database db = MakeDb(41);
  const UniversalRelation universal =
      UnwrapOrDie(UniversalRelation::Build(db));
  for (const Case& c : MakeCases(db)) {
    ExpectMatchesOracles(
        universal, c,
        UnwrapOrDie(ComputeTableM(universal, c.question, c.attributes)));
  }
}

/// Bitwise equality of two tables M, row for row.
void ExpectSameTable(const TableM& a, const TableM& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.subquery_values.size(), b.subquery_values.size());
  for (size_t j = 0; j < a.original_values.size(); ++j) {
    EXPECT_EQ(Bits(a.original_values[j]), Bits(b.original_values[j]));
  }
  for (size_t row = 0; row < a.NumRows(); ++row) {
    EXPECT_EQ(CompareTuples(a.coords[row], b.coords[row]), 0) << row;
    for (size_t j = 0; j < a.subquery_values.size(); ++j) {
      EXPECT_EQ(Bits(a.subquery_values[j][row]),
                Bits(b.subquery_values[j][row]));
    }
    EXPECT_EQ(Bits(a.mu_interv[row]), Bits(b.mu_interv[row]));
    EXPECT_EQ(Bits(a.mu_aggr[row]), Bits(b.mu_aggr[row]));
  }
}

/// Every aggregate kind over the int64 v and the double w, cubed on pools
/// of 1, 2 and 8 threads; q2's filter passes no row, so its cube has no
/// apex cell. Double SUM/AVG are checked for repeatability per thread
/// count and, loosely, against the oracle; every other kind bit for bit.
TEST(ColumnStoreTest, EveryAggregateKindAcrossPoolSizes) {
  // (aggregate, whether the oracle comparison is bit-exact)
  const std::vector<std::pair<std::string, bool>> aggregates = {
      {"count(*)", true},    {"count(distinct Fact.v)", true},
      {"sum(Fact.v)", true}, {"count(distinct Fact.w)", true},
      {"avg(Fact.v)", true}, {"min(Fact.v)", true},
      {"max(Fact.v)", true}, {"min(Fact.w)", true},
      {"max(Fact.w)", true}, {"sum(Fact.w)", false},
      {"avg(Fact.w)", false},
  };
  for (const uint64_t seed : {5u, 17u}) {
    Database db = MakeDb(seed);
    const UniversalRelation universal =
        UnwrapOrDie(UniversalRelation::Build(db));
    for (const auto& [agg, exact] : aggregates) {
      SCOPED_TRACE(agg + ", seed " + std::to_string(seed));
      const Case c = MakeCase(db, {"Fact.b", "Dim.dv"},
                              {{agg, "Fact.c = 'c0' OR Fact.a = 'a1'"},
                               {agg, "Fact.a = 'none'"}},
                              "q1 - q2");
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        TableMOptions options;
        options.pool = &pool;
        const TableM table = UnwrapOrDie(
            ComputeTableM(universal, c.question, c.attributes, options));
        EXPECT_EQ(table.original_values[1], 0.0);  // no apex cell
        if (exact) {
          ExpectMatchesOracles(universal, c, table);
          continue;
        }
        ExpectSameTable(table, UnwrapOrDie(ComputeTableM(
                                   universal, c.question, c.attributes,
                                   options)));
        const TableM naive = UnwrapOrDie(
            ComputeTableMNaive(universal, c.question, c.attributes));
        for (size_t row = 0; row < naive.NumRows(); ++row) {
          const int64_t t = table.FindRow(naive.coords[row]);
          ASSERT_GE(t, 0);
          EXPECT_NEAR(table.subquery_values[0][t],
                      naive.subquery_values[0][row], 1e-9);
        }
      }
    }
  }
}

/// One question whose kernel call takes several passes (COUNT(*),
/// COUNT(DISTINCT), int64 SUM and MIN, two of them shared by two
/// subqueries), with a multi-disjunct filter beside conjunctive ones, a
/// filter on a grouping attribute and an empty WHERE. On 60 rows over a
/// 4 x 4 lattice, pools of 1 and 2 take the dense path and 8 the hashed
/// one; every table matches the oracle bit for bit.
Case MixedPassesCase(const Database& db) {
  return MakeCase(db, {"Fact.a", "Fact.b"},
                  {{"count(*)", "Fact.a = 'a0' AND Fact.c = 'c1'"},
                   {"count(distinct Fact.v)", "Fact.b = 'b1' OR Dim.dv = 'x'"},
                   {"sum(Fact.v)", ""},
                   {"min(Fact.v)", "Fact.c = 'c0'"},
                   {"count(*)", "Fact.c = 'c0'"},
                   {"sum(Fact.v)", "Fact.a <> 'a2'"}},
                  "q1 + q2 - q3 + q4 * q5 - q6");
}

TEST(ColumnStoreTest, FusedPassesMatchOracleOnBothPaths) {
  for (const uint64_t seed : {5u, 17u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database db = MakeDb(seed);
    const UniversalRelation universal =
        UnwrapOrDie(UniversalRelation::Build(db));
    const Case c = MixedPassesCase(db);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ThreadPool pool(threads);
      TableMOptions options;
      options.pool = &pool;
      ExpectMatchesOracles(
          universal, c,
          UnwrapOrDie(
              ComputeTableM(universal, c.question, c.attributes, options)));
    }
  }
}

// A workspace holding some of a question's cubes: the kernel computes
// only the others, and the table is the same as a cold one.
TEST(ColumnStoreTest, PartlyHeldQuestionMatchesOracle) {
  Database db = MakeDb(17);
  const UniversalRelation universal =
      UnwrapOrDie(UniversalRelation::Build(db));
  const Case c = MixedPassesCase(db);
  UserQuestion first;
  std::vector<AggregateQuery> held = {c.question.query.subqueries()[0],
                                      c.question.query.subqueries()[3]};
  first.query = UnwrapOrDie(NumericalQuery::Create(
      std::move(held), UnwrapOrDie(ParseExpression("q1 - q4", {"q1", "q4"}))));
  CubeWorkspace workspace;
  TableMOptions options;
  options.workspace = &workspace;
  UnwrapOrDie(ComputeTableM(universal, first, c.attributes, options));
  const CubeWorkspaceStats before = workspace.GetStats();
  EXPECT_EQ(before.cube_entries, 2u);

  const TableM table =
      UnwrapOrDie(ComputeTableM(universal, c.question, c.attributes, options));
  ExpectMatchesOracles(universal, c, table);
  const CubeWorkspaceStats after = workspace.GetStats();
  EXPECT_EQ(after.cube_hits - before.cube_hits, 2);
  EXPECT_EQ(after.cube_misses - before.cube_misses, 4);
  ExpectSameTable(table, UnwrapOrDie(ComputeTableM(universal, c.question,
                                                   c.attributes)));
}

// The same question on the hashed path with code-vector keys (a maintained
// engine whose held dictionaries keep 70000 codes per attribute after a
// delta) and on the dense path (a fresh engine over the 4096 survivors,
// whose lattice has 4^4 cells): identical tables, both equal to the oracle.
TEST(ColumnStoreTest, DenseAndWideHashedPathsAgree) {
  constexpr int64_t kRows = 70000;
  constexpr int64_t kKept = 4096;
  Relation wide(std::move(*RelationSchema::Create(
      "Wide",
      {{"id", DataType::kInt64},
       {"a", DataType::kInt64},
       {"b", DataType::kInt64},
       {"c", DataType::kInt64},
       {"e", DataType::kInt64},
       {"v", DataType::kInt64}},
      {"id"})));
  for (int64_t i = 0; i < kRows; ++i) {
    // Survivors take 3 values per attribute; the deleted rows each a
    // value of their own.
    auto code = [&](int64_t salt) {
      return Value::Int(i < kKept ? (i * salt) % 3 : i + salt * kRows);
    };
    wide.AppendUnchecked({Value::Int(i), code(1), code(5), code(7), code(11),
                          i % 7 == 0 ? Value::Null() : Value::Int(i % 5)});
  }
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(wide)).ok());
  UniversalRelation universal = UnwrapOrDie(UniversalRelation::Build(db));
  const Case c = MakeCase(db, {"Wide.a", "Wide.b", "Wide.c", "Wide.e"},
                          {{"count(*)", "Wide.v <> 4"},
                           {"count(distinct Wide.v)", ""},
                           {"sum(Wide.v)", "Wide.a = 1 OR Wide.b = 2"},
                           {"min(Wide.v)", "Wide.c <> 0"}},
                          "q1 + q2 + q3 + q4");
  std::vector<ColumnRef> columns = c.attributes;
  columns.push_back(UnwrapOrDie(db.ResolveColumn("Wide.v")));
  CubeWorkspace workspace;
  workspace.Columns(universal, columns);
  DeltaSet delta = db.EmptyDelta();
  for (int64_t i = kKept; i < kRows; ++i) delta[0].Set(static_cast<size_t>(i));
  workspace.BeginDelta();
  DeltaPlan plan = db.PlanDelta(delta);
  UniversalRemap remap = universal.PlanRemap(plan);
  CubeWorkspace::Patch patch = workspace.PlanDelta(universal, remap);
  ASSERT_EQ(db.ApplyDeltaPlan(plan), static_cast<size_t>(kRows - kKept));
  workspace.CommitDelta(std::move(patch), remap);
  universal.AdoptRows(std::move(remap));
  EXPECT_GT(workspace.Columns(universal, c.attributes).DictionarySize(0),
            size_t{65535});

  const UniversalRelation fresh = UnwrapOrDie(UniversalRelation::Build(db));
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    TableMOptions hashed;
    hashed.workspace = &workspace;
    hashed.pool = &pool;
    TableMOptions dense;
    dense.pool = &pool;
    const TableM wide_table =
        UnwrapOrDie(ComputeTableM(universal, c.question, c.attributes, hashed));
    ExpectMatchesOracles(fresh, c, wide_table);
    ExpectSameTable(wide_table, UnwrapOrDie(ComputeTableM(
                                    fresh, c.question, c.attributes, dense)));
  }
}

/// The maintained kinds through a workspace and a delta: PlanDelta's
/// removal cubes and its recomputation over the survivors must leave
/// every cube equal to a fresh one on the mutated database.
TEST(ColumnStoreTest, MaintainedKindsMatchOraclesAcrossDelta) {
  for (const uint64_t seed : {5u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database db = MakeDb(seed);
    UniversalRelation universal = UnwrapOrDie(UniversalRelation::Build(db));
    std::vector<Case> cases;
    for (const char* agg :
         {"count(distinct Fact.v)", "sum(Fact.v)", "avg(Fact.v)",
          "min(Fact.v)", "max(Fact.v)", "min(Fact.w)", "max(Fact.w)"}) {
      cases.push_back(MakeCase(db, {"Fact.a", "Fact.b"},
                               {{agg, "Fact.c = 'c1' OR Dim.dv = 'x'"},
                                {"count(*)", "Fact.c = 'c1'"}},
                               "q1 + q2"));
    }
    CubeWorkspace workspace;
    TableMOptions options;
    options.workspace = &workspace;
    auto run_all = [&] {
      const UniversalRelation oracle =
          UnwrapOrDie(UniversalRelation::Build(db));
      for (const Case& c : cases) {
        ExpectMatchesOracles(
            oracle, c,
            UnwrapOrDie(
                ComputeTableM(universal, c.question, c.attributes, options)));
      }
    };
    run_all();
    // One entry per case's q1, plus the q2 they share.
    EXPECT_EQ(workspace.GetStats().cube_entries, cases.size() + 1);

    Rng rng(seed * 11 + 3);
    DeltaSet delta = db.EmptyDelta();
    const int fact = *db.RelationIndex("Fact");
    for (size_t row = 0; row < db.relation(fact).NumRows(); ++row) {
      if (rng.Bernoulli(0.3)) delta[static_cast<size_t>(fact)].Set(row);
    }
    workspace.BeginDelta();
    DeltaPlan plan = db.PlanDelta(delta);
    UniversalRemap remap = universal.PlanRemap(plan);
    CubeWorkspace::Patch patch = workspace.PlanDelta(universal, remap);
    EXPECT_GT(patch.cells_recomputed, 0);
    ASSERT_GT(db.ApplyDeltaPlan(plan), 0u);
    workspace.CommitDelta(std::move(patch), remap);
    universal.AdoptRows(std::move(remap));
    run_all();
  }
}

/// A held dictionary keeps the values of deleted rows
/// (EncodedColumn::Remapped), so a maintained engine's keys can outgrow
/// 64 packed bits on a handful of live rows: four attributes of 65536
/// codes each take 4 x 17 = 68 bits, which the code-vector keys carry.
TEST(ColumnStoreTest, WideKeysAfterDeltaMatchOracles) {
  constexpr int64_t kRows = 65536;
  Relation wide(std::move(*RelationSchema::Create(
      "Wide",
      {{"id", DataType::kInt64},
       {"a", DataType::kInt64},
       {"b", DataType::kInt64},
       {"c", DataType::kInt64},
       {"e", DataType::kInt64},
       {"v", DataType::kInt64}},
      {"id"})));
  for (int64_t i = 0; i < kRows; ++i) {
    wide.AppendUnchecked({Value::Int(i), Value::Int(i),
                          Value::Int(i ^ 0x5a5a), Value::Int((i * 7) % kRows),
                          Value::Int(kRows - 1 - i), Value::Int(i % 5)});
  }
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(wide)).ok());
  UniversalRelation universal = UnwrapOrDie(UniversalRelation::Build(db));
  const Case c = MakeCase(db, {"Wide.a", "Wide.b", "Wide.c", "Wide.e"},
                          {{"count(*)", "Wide.v <> 4"},
                           {"max(Wide.v)", "Wide.v <> 4"}},
                          "q1 + q2");
  std::vector<ColumnRef> columns = c.attributes;
  columns.push_back(UnwrapOrDie(db.ResolveColumn("Wide.v")));
  CubeWorkspace workspace;
  workspace.Columns(universal, columns);

  // Keep 8 rows; the held columns keep all 65536 codes.
  DeltaSet delta = db.EmptyDelta();
  for (int64_t i = 0; i < kRows; ++i) {
    if (i % 8192 != 3) delta[0].Set(static_cast<size_t>(i));
  }
  workspace.BeginDelta();
  DeltaPlan plan = db.PlanDelta(delta);
  UniversalRemap remap = universal.PlanRemap(plan);
  CubeWorkspace::Patch patch = workspace.PlanDelta(universal, remap);
  ASSERT_EQ(db.ApplyDeltaPlan(plan), static_cast<size_t>(kRows - 8));
  workspace.CommitDelta(std::move(patch), remap);
  universal.AdoptRows(std::move(remap));
  const ColumnCache held = workspace.Columns(universal, c.attributes);
  for (int i = 0; i < held.num_columns(); ++i) {
    EXPECT_EQ(held.DictionarySize(i), static_cast<size_t>(kRows));
  }

  const UniversalRelation oracle = UnwrapOrDie(UniversalRelation::Build(db));
  for (const int threads : {1, 2}) {
    ThreadPool pool(threads);
    TableMOptions options;
    options.workspace = &workspace;
    options.pool = &pool;
    ExpectMatchesOracles(oracle, c,
                         UnwrapOrDie(ComputeTableM(universal, c.question,
                                                   c.attributes, options)));
  }
}

/// T(id, a, v): the only NULL grouping value (a) sits in the row with
/// v = 1, which the filter v >= 3 drops.
Database MakeNullDb() {
  Relation t(std::move(*RelationSchema::Create(
      "T",
      {{"id", DataType::kInt64},
       {"a", DataType::kString},
       {"v", DataType::kInt64}},
      {"id"})));
  t.AppendUnchecked({Value::Int(1), Value::Str("x"), Value::Int(4)});
  t.AppendUnchecked({Value::Int(2), Value::Str("y"), Value::Int(5)});
  t.AppendUnchecked({Value::Int(3), Value::Null(), Value::Int(1)});
  t.AppendUnchecked({Value::Int(4), Value::Str("x"), Value::Int(3)});
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(t)).ok());
  return db;
}

// A NULL grouping value is rejected only on a row that takes part, the
// same for every aggregate kind.
TEST(ColumnStoreTest, NullGroupingValueOutsideTheFilterIsAnswered) {
  Database db = MakeNullDb();
  const UniversalRelation universal =
      UnwrapOrDie(UniversalRelation::Build(db));
  std::vector<TableM> tables;
  for (const char* agg : {"count(*)", "sum(T.v)"}) {
    SCOPED_TRACE(agg);
    const Case kept = MakeCase(db, {"T.a"}, {{agg, "T.v >= 3"}}, "q1");
    tables.push_back(UnwrapOrDie(
        ComputeTableM(universal, kept.question, kept.attributes)));
    ExpectMatchesOracles(universal, kept, tables.back());
    CubeWorkspace workspace;
    TableMOptions options;
    options.workspace = &workspace;
    ExpectSameTable(tables.back(),
                    UnwrapOrDie(ComputeTableM(universal, kept.question,
                                              kept.attributes, options)));
    const Case taking_part = MakeCase(db, {"T.a"}, {{agg, "T.v >= 1"}}, "q1");
    EXPECT_EQ(ComputeTableM(universal, taking_part.question,
                            taking_part.attributes)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_EQ(tables[0].NumRows(), tables[1].NumRows());
  for (size_t row = 0; row < tables[0].NumRows(); ++row) {
    EXPECT_EQ(CompareTuples(tables[0].coords[row], tables[1].coords[row]), 0);
  }
}

// The NULL rule and an all-NULL group on both paths: over T's 4 rows a
// 1-thread pool keeps T.a's 4-cell lattice dense, a 2-thread one hashes
// it. The group a = 'z' only holds NULL values of w: its cells exist,
// valued 0, for every aggregate of w.
TEST(ColumnStoreTest, NullRulesHoldOnDenseAndHashedPaths) {
  Database db = MakeNullDb();
  const UniversalRelation universal =
      UnwrapOrDie(UniversalRelation::Build(db));
  const Case kept = MakeCase(db, {"T.a"},
                             {{"count(*)", "T.v >= 3"}, {"sum(T.v)", "T.v >= 3"}},
                             "q1 - q2");
  const Case taking_part =
      MakeCase(db, {"T.a"}, {{"count(*)", "T.v >= 3"}, {"max(T.v)", ""}},
               "q1 - q2");
  Relation u(std::move(*RelationSchema::Create(
      "U",
      {{"id", DataType::kInt64},
       {"a", DataType::kString},
       {"w", DataType::kInt64}},
      {"id"})));
  u.AppendUnchecked({Value::Int(1), Value::Str("x"), Value::Int(4)});
  u.AppendUnchecked({Value::Int(2), Value::Str("z"), Value::Null()});
  u.AppendUnchecked({Value::Int(3), Value::Str("z"), Value::Null()});
  u.AppendUnchecked({Value::Int(4), Value::Str("x"), Value::Int(2)});
  Database null_values;
  XPLAIN_CHECK(null_values.AddRelation(std::move(u)).ok());
  const UniversalRelation null_universal =
      UnwrapOrDie(UniversalRelation::Build(null_values));
  const Case all_null = MakeCase(
      null_values, {"U.a"},
      {{"sum(U.w)", ""}, {"min(U.w)", ""}, {"count(distinct U.w)", ""},
       {"avg(U.w)", ""}},
      "q1 + q2 + q3 + q4");
  const Tuple z = {Value::Str("z")};
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    TableMOptions options;
    options.pool = &pool;
    ExpectMatchesOracles(universal, kept,
                         UnwrapOrDie(ComputeTableM(universal, kept.question,
                                                   kept.attributes, options)));
    EXPECT_EQ(ComputeTableM(universal, taking_part.question,
                            taking_part.attributes, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);

    const TableM table = UnwrapOrDie(ComputeTableM(
        null_universal, all_null.question, all_null.attributes, options));
    const int64_t row = table.FindRow(z);
    ASSERT_GE(row, 0);
    EXPECT_EQ(table.cube_mask[row], 0xfu);
    for (const std::vector<double>& values : table.subquery_values) {
      EXPECT_EQ(values[row], 0.0);
    }
  }
}

// Incremental == rebuild across the NULL rule: once a delta deletes the
// only NULL row, the maintained engine (whose held dictionary still has
// the NULL code) answers exactly as a fresh engine does.
TEST(ColumnStoreTest, DeletingTheOnlyNullRowMatchesAFreshEngine) {
  Database db = MakeNullDb();
  ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  // q1's cube is retained before q2 is rejected.
  const Case c = MakeCase(db, {"T.a"},
                          {{"count(*)", "T.v >= 3"}, {"sum(T.v)", "T.v >= 1"}},
                          "q1 - q2");
  ExplainOptions options;
  options.num_threads = 1;
  EXPECT_EQ(
      engine.ExplainResolved(c.question, c.attributes, options).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.workspace().GetStats().cube_entries, 1u);

  DeltaSet delta = db.EmptyDelta();
  delta[0].Set(2);
  EngineDeltaPlan plan = engine.PlanDelta(delta);
  ASSERT_EQ(plan.rows_removed, 1u);
  db.ApplyDeltaPlan(plan.db_plan);
  engine.CommitDelta(std::move(plan));

  const ExplainReport maintained = UnwrapOrDie(
      engine.ExplainResolved(c.question, c.attributes, options));
  Database mutated = db;
  ExplainEngine fresh = UnwrapOrDie(ExplainEngine::Create(&mutated));
  const ExplainReport rebuilt =
      UnwrapOrDie(fresh.ExplainResolved(c.question, c.attributes, options));
  ExpectSameTable(maintained.table, rebuilt.table);
  EXPECT_GT(engine.workspace().GetStats().cube_hits, 0);
}

}  // namespace
}  // namespace xplain
