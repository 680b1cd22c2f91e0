#include "relational/column_cache.h"

#include "core/cube_workspace.h"
#include "core/naive.h"
#include "gtest/gtest.h"
#include "relational/cube.h"
#include "relational/parser.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

class ColumnCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildRunningExample();
    universal_ = std::make_unique<UniversalRelation>(
        UnwrapOrDie(UniversalRelation::Build(db_)));
    name_ = *db_.ResolveColumn("Author.name");
    year_ = *db_.ResolveColumn("Publication.year");
    pubid_ = *db_.ResolveColumn("Publication.pubid");
  }

  Database db_;
  std::unique_ptr<UniversalRelation> universal_;
  ColumnRef name_, year_, pubid_;
};

TEST_F(ColumnCacheTest, EncodingRoundTrips) {
  ColumnCache cache = ColumnCache::Build(*universal_, {name_, year_});
  EXPECT_EQ(cache.num_columns(), 2);
  EXPECT_EQ(cache.NumRows(), universal_->NumRows());
  EXPECT_EQ(cache.DictionarySize(0), 3u);  // JG, RR, CM
  EXPECT_EQ(cache.DictionarySize(1), 2u);  // 2001, 2011
  for (size_t u = 0; u < cache.NumRows(); ++u) {
    EXPECT_TRUE(cache.Decode(0, cache.Code(u, 0))
                    .Equals(universal_->ValueAt(u, name_)));
    EXPECT_TRUE(cache.Decode(1, cache.Code(u, 1))
                    .Equals(universal_->ValueAt(u, year_)));
  }
  EXPECT_EQ(cache.FindColumn(name_), 0);
  EXPECT_EQ(cache.FindColumn(pubid_), -1);
}

TEST_F(ColumnCacheTest, CodedFilterMatchesRowPredicate) {
  DnfPredicate sigmod = Pred(db_, "Publication.venue = 'SIGMOD'");
  ColumnCache cache = ColumnCache::Build(
      *universal_, {*db_.ResolveColumn("Publication.venue")});
  CodedFilter filter = UnwrapOrDie(CodedFilter::Compile(cache, sigmod));
  std::vector<uint32_t> expected;
  for (size_t u = 0; u < universal_->NumRows(); ++u) {
    if (sigmod.EvalUniversal(*universal_, u)) {
      expected.push_back(static_cast<uint32_t>(u));
    }
  }
  std::vector<uint32_t> matching;
  for (size_t u = 0; u < cache.NumRows(); ++u) {
    if (filter.Eval(cache, u)) matching.push_back(static_cast<uint32_t>(u));
  }
  EXPECT_EQ(matching, expected);
  EXPECT_EQ(expected.size(), 4u);
  // A filter over a column outside the cache does not compile.
  EXPECT_FALSE(
      CodedFilter::Compile(cache, Pred(db_, "Publication.year = 2001")).ok());
}

// FilterMasks sets bit b exactly on the rows passing filter b: a
// single-conjunct filter (two atoms on one column), a multi-disjunct one,
// nullptr (every row) and FALSE (no row).
TEST_F(ColumnCacheTest, FilterMasksMatchRowPredicates) {
  const DnfPredicate sigmod_2001 = UnwrapOrDie(ParseDnfPredicate(
      db_, "Publication.venue = 'SIGMOD' AND Publication.year >= 2001 AND "
           "Publication.year <= 2001"));
  const DnfPredicate either = UnwrapOrDie(ParseDnfPredicate(
      db_, "Publication.venue = 'PODS' OR Author.name = 'JG'"));
  const DnfPredicate none;
  ColumnCache cache = ColumnCache::Build(
      *universal_, {*db_.ResolveColumn("Publication.venue"), year_, name_});
  const FilterMasks masks = UnwrapOrDie(
      FilterMasks::Compile(cache, {&sigmod_2001, &either, nullptr, &none}));
  // Every row, in reverse order (a row list need not be contiguous).
  std::vector<uint32_t> rows;
  for (size_t u = universal_->NumRows(); u-- > 0;) {
    rows.push_back(static_cast<uint32_t>(u));
  }
  std::vector<uint64_t> got(rows.size());
  masks.Masks(cache, rows.data(), rows.size(), got.data());
  size_t passing = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const size_t u = rows[r];
    const uint64_t expected =
        (sigmod_2001.EvalUniversal(*universal_, u) ? 1u : 0u) |
        (either.EvalUniversal(*universal_, u) ? 2u : 0u) | 4u;
    EXPECT_EQ(got[r], expected) << u;
    passing += expected & 1u;
  }
  EXPECT_GT(passing, 0u);
  // A filter over a column outside the cache does not compile.
  const DnfPredicate outside = Pred(db_, "Publication.pubid = 'P1'");
  EXPECT_FALSE(FilterMasks::Compile(cache, {&sigmod_2001, &outside}).ok());
}

/// The kernel's cube of `agg` over the input `rows`, unfiltered.
Result<DataCube> KernelCube(const ColumnCache& cache,
                            const std::vector<ColumnRef>& attributes,
                            const AggregateSpec& agg,
                            const std::vector<uint32_t>& rows) {
  XPLAIN_ASSIGN_OR_RETURN(
      std::vector<CubeResult> results,
      ComputeCubes(cache, attributes, {CubeQuery{agg, nullptr, false}}, &rows));
  XPLAIN_RETURN_IF_ERROR(results[0].status);
  return std::move(results[0].cube);
}

/// Checks the kernel's cube of `agg` over the rows passing `where` against
/// the naive oracle's single-subquery table M: every nonzero cell agrees
/// bit for bit and no nonzero cell is missing.
void ExpectKernelMatchesNaive(const Database& db,
                              const UniversalRelation& universal,
                              const std::vector<ColumnRef>& attributes,
                              const AggregateSpec& agg,
                              const std::string& where) {
  AggregateQuery q;
  q.name = "q1";
  q.agg = agg;
  q.where = UnwrapOrDie(ParseDnfPredicate(db, where));
  ColumnCache cache = ColumnCache::Build(
      universal, CubeColumns(attributes, {&q, 1}));
  std::vector<CubeResult> results = UnwrapOrDie(ComputeCubes(
      cache, attributes, {CubeQuery{agg, &q.where, false}}, nullptr));
  ASSERT_TRUE(results[0].status.ok());
  const DataCube& cube = results[0].cube;
  UserQuestion question;
  std::vector<AggregateQuery> subqueries = {q};
  question.query = UnwrapOrDie(NumericalQuery::Create(
      std::move(subqueries), UnwrapOrDie(ParseExpression("q1", {"q1"}))));
  TableM naive =
      UnwrapOrDie(ComputeTableMNaive(universal, question, attributes));
  size_t nonzero = 0;
  for (const auto& [cell, value] : cube.cells()) {
    if (value == 0.0) continue;
    ++nonzero;
    const int64_t row = naive.FindRow(cell);
    ASSERT_GE(row, 0) << TupleToString(cell);
    EXPECT_EQ(value, naive.subquery_values[0][row]) << TupleToString(cell);
  }
  EXPECT_EQ(nonzero, naive.NumRows());
}

TEST_F(ColumnCacheTest, KernelCountStarMatchesNaive) {
  ExpectKernelMatchesNaive(db_, *universal_, {name_, year_},
                           AggregateSpec::CountStar(),
                           "Publication.venue = 'SIGMOD'");
}

TEST_F(ColumnCacheTest, KernelCountDistinctMatchesNaive) {
  ExpectKernelMatchesNaive(db_, *universal_, {name_},
                           AggregateSpec::CountDistinct(pubid_), "");
}

TEST_F(ColumnCacheTest, KernelRejectsBadArguments) {
  ColumnCache cache = ColumnCache::Build(*universal_, {name_, year_});
  const std::vector<uint32_t> rows = {0, 1, 2};
  // No attributes; an attribute or counted column outside the cache.
  EXPECT_FALSE(KernelCube(cache, {}, AggregateSpec::CountStar(), rows).ok());
  EXPECT_FALSE(
      KernelCube(cache, {pubid_}, AggregateSpec::CountStar(), rows).ok());
  EXPECT_FALSE(
      KernelCube(cache, {name_}, AggregateSpec::CountDistinct(pubid_), rows)
          .ok());
  // MIN over a string column has no numeric cell value.
  auto min_name =
      KernelCube(cache, {year_}, AggregateSpec{AggregateKind::kMin, name_}, rows);
  EXPECT_EQ(min_name.status().code(), StatusCode::kInvalidArgument);
  // More than 64 subqueries do not fit one pass's masks.
  EXPECT_EQ(ComputeCubes(cache, {name_},
                         std::vector<CubeQuery>(65, CubeQuery{}), &rows)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // MAX over a numeric one is fine.
  DataCube max_year = UnwrapOrDie(
      KernelCube(cache, {name_}, AggregateSpec{AggregateKind::kMax, year_}, rows));
  EXPECT_GT(max_year.GrandTotal(), 2000.0);
}

}  // namespace
}  // namespace xplain
