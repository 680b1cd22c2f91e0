// Differential test of the workspace's table-M path (DESIGN.md §10): with
// a CubeWorkspace, ComputeTableM reads its columns from the per-column
// store and its counting u_j off the cube apexes. Over seeded random
// instances, every table must match the naive oracle (ComputeTableMNaive)
// and NumericalQuery::EvaluateOnUniversal bit for bit, before and after a
// CommitDelta remap, while the store holds each column once.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cube_algorithm.h"
#include "core/cube_workspace.h"
#include "core/naive.h"
#include "datagen/rng.h"
#include "relational/database.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::UnwrapOrDie;

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Fact(fid, did, a, b, c, v) with a standard FK to Dim(did, dv). v is a
/// nullable int64 (about a third NULL) for COUNT(DISTINCT) and SUM.
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
       {"v", DataType::kInt64}},
      {"fid"})));
  for (int f = 0; f < 60; ++f) {
    const int64_t did = f < 4 ? f : rng.UniformInt(0, 3);
    fact.AppendUnchecked(
        {Value::Int(f), Value::Str("d" + std::to_string(did)),
         Value::Str("a" + std::to_string(rng.UniformInt(0, 2))),
         Value::Str("b" + std::to_string(rng.UniformInt(0, 2))),
         Value::Str("c" + std::to_string(rng.UniformInt(0, 1))),
         rng.Bernoulli(0.3) ? Value::Null()
                            : Value::Int(rng.UniformInt(0, 4))});
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

}  // namespace
}  // namespace xplain
