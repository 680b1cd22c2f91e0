#include "relational/cube.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xplain {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::Pred;
using ::xplain::testing::UnwrapOrDie;

class CubeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = BuildRunningExample();
    universal_ = std::make_unique<UniversalRelation>(
        UnwrapOrDie(UniversalRelation::Build(db_)));
    name_ = *db_.ResolveColumn("Author.name");
    year_ = *db_.ResolveColumn("Publication.year");
  }

  Database db_;
  std::unique_ptr<UniversalRelation> universal_;
  ColumnRef name_, year_;
};

TEST_F(CubeTest, Example41CountCube) {
  // The paper's Example 4.1: cube over (name, year) with count(*).
  DataCube cube = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_, year_}, AggregateSpec::CountStar(), nullptr));
  EXPECT_EQ(cube.NumCells(), 11u);
  auto cell = [](const char* n, int64_t y) {
    Tuple t(2);
    t[0] = n == nullptr ? Value::Null() : Value::Str(n);
    t[1] = y == 0 ? Value::Null() : Value::Int(y);
    return t;
  };
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("JG", 2001)), 1);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("JG", 2011)), 1);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("RR", 2001)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("CM", 2001)), 1);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("CM", 2011)), 1);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("JG", 0)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("RR", 0)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("CM", 0)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell(nullptr, 2001)), 4);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell(nullptr, 2011)), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue(cell(nullptr, 0)), 6);
  EXPECT_DOUBLE_EQ(cube.GrandTotal(), 6);
  // Missing cells read as 0.
  EXPECT_DOUBLE_EQ(cube.CellValue(cell("RR", 2011)), 0);
}

TEST_F(CubeTest, FilteredCube) {
  DnfPredicate sigmod = Pred(db_, "Publication.venue = 'SIGMOD'");
  DataCube cube = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), &sigmod));
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("RR")}), 2);
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("JG")}), 1);
  EXPECT_DOUBLE_EQ(cube.GrandTotal(), 4);
}

TEST_F(CubeTest, CountDistinctRollsUpExactly) {
  ColumnRef pubid = *db_.ResolveColumn("Publication.pubid");
  DataCube cube = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountDistinct(pubid), nullptr));
  // Each author wrote 2 distinct papers; total distinct papers is 3, NOT
  // the sum 6 -- distinct rollup must not double count.
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("JG")}), 2);
  EXPECT_DOUBLE_EQ(cube.GrandTotal(), 3);
}

TEST_F(CubeTest, SumCube) {
  DataCube cube = UnwrapOrDie(
      DataCube::Compute(*universal_, {name_},
                        AggregateSpec::Sum(year_), nullptr));
  EXPECT_DOUBLE_EQ(cube.CellValue({Value::Str("JG")}), 2001 + 2011);
}

TEST_F(CubeTest, AttributeCapEnforced) {
  std::vector<ColumnRef> attributes;
  for (int i = 0; i <= kMaxCubeAttributes; ++i) {
    attributes.push_back(i % 2 == 0 ? name_ : year_);
  }
  Result<DataCube> over_cap = DataCube::Compute(
      *universal_, attributes, AggregateSpec::CountStar(), nullptr);
  ASSERT_FALSE(over_cap.ok());
  EXPECT_NE(over_cap.status().message().find("cap of 16"), std::string::npos)
      << over_cap.status().ToString();
  EXPECT_FALSE(DataCube::Compute(*universal_, {},
                                 AggregateSpec::CountStar(), nullptr)
                   .ok());
}

TEST_F(CubeTest, FullOuterJoinFillsZeros) {
  DnfPredicate y2001 = Pred(db_, "Publication.year = 2001");
  DnfPredicate y2011 = Pred(db_, "Publication.year = 2011");
  DataCube c1 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), &y2001));
  DataCube c2 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), &y2011));
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&c1, &c2}));
  // Union of cells; JG appears in both, RR only in 2001, CM in both.
  ASSERT_EQ(joined.NumRows(), 4u);  // JG, RR, CM, ALL
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    if (joined.coords[row][0].is_null()) continue;
    const std::string& who = joined.coords[row][0].AsString();
    if (who == "RR") {
      EXPECT_DOUBLE_EQ(joined.values[0][row], 2);
      EXPECT_DOUBLE_EQ(joined.values[1][row], 0);  // missing cell -> 0
    }
  }
}

// Joined rows come out in CompareTuples order (NULL = ALL first in each
// coordinate), whatever order the cubes hold their cells in, with each
// cube's value and presence on the row of its coordinate.
TEST_F(CubeTest, FullOuterJoinRowsAreInCanonicalOrder) {
  DnfPredicate y2001 = Pred(db_, "Publication.year = 2001");
  DataCube c1 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_, year_}, AggregateSpec::CountStar(), &y2001));
  DataCube c2 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_, year_}, AggregateSpec::CountStar(), nullptr));
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&c1, &c2}));
  ASSERT_EQ(joined.NumRows(), c2.NumCells());
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    if (row > 0) {
      EXPECT_LT(CompareTuples(joined.coords[row - 1], joined.coords[row]), 0)
          << TupleToString(joined.coords[row]);
    }
    for (size_t j = 0; j < 2; ++j) {
      const DataCube& cube = j == 0 ? c1 : c2;
      const bool present = cube.cells().count(joined.coords[row]) > 0;
      EXPECT_EQ(joined.present[j][row], present ? 1 : 0);
      EXPECT_EQ(joined.values[j][row], cube.CellValue(joined.coords[row]));
    }
  }
  EXPECT_TRUE(joined.coords[0][0].is_null());
  EXPECT_TRUE(joined.coords[0][1].is_null());
}

TEST_F(CubeTest, FullOuterJoinValidatesInputs) {
  DataCube c1 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), nullptr));
  DataCube c2 = UnwrapOrDie(DataCube::Compute(
      *universal_, {year_}, AggregateSpec::CountStar(), nullptr));
  EXPECT_FALSE(FullOuterJoinCubes({&c1, &c2}).ok());
  EXPECT_FALSE(FullOuterJoinCubes({}).ok());
  EXPECT_FALSE(FullOuterJoinCubes({&c1, nullptr}).ok());
}

TEST_F(CubeTest, FullOuterJoinEmptyOperandListIsInvalidArgument) {
  const auto joined = FullOuterJoinCubes({});
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(joined.status().message().find("at least one cube operand"),
            std::string::npos);
}

TEST_F(CubeTest, FullOuterJoinNullOperandNamesItsIndex) {
  DataCube c1 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), nullptr));
  const auto joined = FullOuterJoinCubes({&c1, nullptr});
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(joined.status().message().find("operand 1"), std::string::npos);
}

TEST_F(CubeTest, FullOuterJoinMismatchedAttributesNamesOffender) {
  DataCube c1 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), nullptr));
  DataCube c2 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_, year_}, AggregateSpec::CountStar(), nullptr));
  const auto joined = FullOuterJoinCubes({&c1, &c2});
  ASSERT_FALSE(joined.ok());
  EXPECT_EQ(joined.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(joined.status().message().find("operand 1"), std::string::npos);
  EXPECT_NE(joined.status().message().find("share one attribute list"),
            std::string::npos);
}

TEST_F(CubeTest, FullOuterJoinSingleCubeIsPassThrough) {
  // m = 1: the joined table is the cube's own cells in canonical order,
  // every one present.
  DataCube cube = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), nullptr));
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&cube}));
  ASSERT_EQ(joined.NumRows(), cube.NumCells());
  ASSERT_EQ(joined.values.size(), 1u);
  ASSERT_EQ(joined.present.size(), 1u);
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    EXPECT_DOUBLE_EQ(joined.values[0][row],
                     cube.CellValue(joined.coords[row]));
    EXPECT_EQ(joined.present[0][row], 1);
  }
}

TEST_F(CubeTest, FullOuterJoinWithEmptyCubeOperand) {
  // An empty cube (no cells at all) joins fine: it contributes no
  // coordinates, is absent (and 0) everywhere, and the union is the other
  // operand's cells.
  DataCube c1 = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), nullptr));
  DataCube empty = DataCube::FromCells({name_}, {});
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&c1, &empty}));
  ASSERT_EQ(joined.NumRows(), c1.NumCells());
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    EXPECT_EQ(joined.present[0][row], 1);
    EXPECT_EQ(joined.present[1][row], 0);
    EXPECT_DOUBLE_EQ(joined.values[1][row], 0.0);
  }
}

TEST_F(CubeTest, FullOuterJoinPresentBitsDistinguishMissingFromZero) {
  // A cell materialized with value 0 must stay distinguishable from a cell
  // the cube never produced — the cluster merge reconstructs per-shard
  // supports from exactly this bit (DESIGN.md §13).
  DataCube::CellMap zero_cells;
  Tuple jg(1);
  jg[0] = Value::Str("JG");
  zero_cells[jg] = 0.0;
  DataCube zero = DataCube::FromCells({name_}, std::move(zero_cells));
  DataCube::CellMap other_cells;
  Tuple rr(1);
  rr[0] = Value::Str("RR");
  other_cells[rr] = 3.0;
  DataCube other = DataCube::FromCells({name_}, std::move(other_cells));
  CubeJoinResult joined = UnwrapOrDie(FullOuterJoinCubes({&zero, &other}));
  ASSERT_EQ(joined.NumRows(), 2u);
  for (size_t row = 0; row < joined.NumRows(); ++row) {
    const bool is_jg = joined.coords[row] == jg;
    // Both rows carry a 0 in one cube; only JG's is a real cell there.
    EXPECT_EQ(joined.present[0][row], is_jg ? 1 : 0);
    EXPECT_EQ(joined.present[1][row], is_jg ? 0 : 1);
    EXPECT_DOUBLE_EQ(joined.values[0][row], 0.0);
    EXPECT_DOUBLE_EQ(joined.values[1][row], is_jg ? 0.0 : 3.0);
  }
}

TEST_F(CubeTest, ToStringIsDeterministic) {
  DataCube cube = UnwrapOrDie(DataCube::Compute(
      *universal_, {name_}, AggregateSpec::CountStar(), nullptr));
  EXPECT_EQ(cube.ToString(db_), cube.ToString(db_));
  EXPECT_NE(cube.ToString(db_).find("Author.name"), std::string::npos);
}

}  // namespace
}  // namespace xplain
