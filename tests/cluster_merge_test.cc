// Cluster layer unit tests (DESIGN.md §13): shard-map hashing and the
// exactness envelope, hash partitioning of a database, the partial and
// rescore payload decoders, and the coordinator-side merge — asserted
// byte-identical to a single node over the union database.

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/merge.h"
#include "cluster/partition.h"
#include "cluster/shard_map.h"
#include "relational/universal.h"
#include "server/protocol.h"
#include "server/service.h"
#include "tests/test_util.h"

namespace xplain {
namespace cluster {
namespace {

using ::xplain::testing::BuildRunningExample;
using ::xplain::testing::UnwrapOrDie;

/// One relation of signed integer amounts, keyed by id: SUM cells mix
/// positive and negative values, and a region's sum can cancel to 0.
Database BuildSignedSales() {
  auto schema = RelationSchema::Create("Sale",
                                       {{"id", DataType::kString},
                                        {"region", DataType::kString},
                                        {"kind", DataType::kString},
                                        {"amount", DataType::kInt64}},
                                       {"id"});
  Relation sale(std::move(*schema));
  const struct {
    const char* region;
    const char* kind;
    int64_t amount;
  } rows[] = {{"north", "a", 7},  {"north", "a", -7}, {"north", "b", -3},
              {"south", "a", -12}, {"south", "b", 5},  {"south", "b", -1},
              {"east", "a", 4},   {"east", "b", -9},  {"east", "a", 0},
              {"west", "b", 11},  {"west", "a", -2},  {"west", "b", -11}};
  int id = 0;
  for (const auto& row : rows) {
    sale.AppendUnchecked({Value::Str("S" + std::to_string(id++)),
                          Value::Str(row.region), Value::Str(row.kind),
                          Value::Int(row.amount)});
  }
  Database db;
  XPLAIN_CHECK(db.AddRelation(std::move(sale)).ok());
  return db;
}

/// Answers `line` the way the coordinator does, in process: partial
/// fragments from K shard services over `db` partitioned on
/// `partition_attr`, MergePartials, and — when the question needs exact
/// degrees — the rescore round through ParseRescorePayload and
/// FinishRescore.
std::string ClusterAnswer(const Database& db, const std::string& line,
                          const std::string& partition_attr, size_t k) {
  const server::Request request = UnwrapOrDie(server::ParseRequest(line));
  const UserQuestion question =
      UnwrapOrDie(server::BuildQuestion(db, request));
  std::vector<ColumnRef> attributes;
  for (const std::string& name : request.attrs) {
    attributes.push_back(UnwrapOrDie(db.ResolveColumn(name)));
  }
  const ShardMap map = UnwrapOrDie(ShardMap::Create(db, {partition_attr}, k));
  std::vector<Database> shard_dbs = UnwrapOrDie(PartitionDatabase(db, map));
  std::vector<std::unique_ptr<server::XplaindService>> shards;
  for (Database& shard_db : shard_dbs) {
    shards.push_back(
        UnwrapOrDie(server::XplaindService::Create(std::move(shard_db))));
  }

  server::Request shard_request = request;
  shard_request.partial = true;
  std::vector<ShardPartial> partials;
  for (auto& shard : shards) {
    partials.push_back(UnwrapOrDie(ParsePartialPayload(
        shard->HandleLine(server::SerializeRequest(shard_request)))));
  }
  MergedExplain merged = UnwrapOrDie(
      MergePartials(question, attributes, request.options, partials));
  // The merged table M is the single node's, row for row in canonical
  // order.
  const ExplainEngine engine = UnwrapOrDie(ExplainEngine::Create(&db));
  const ExplainReport local = UnwrapOrDie(
      engine.ExplainResolved(question, attributes, request.options));
  EXPECT_EQ(merged.report.table.coords, local.table.coords);
  EXPECT_EQ(merged.report.table.subquery_values, local.table.subquery_values);
  EXPECT_EQ(merged.report.table.cube_mask, local.table.cube_mask);
  if (merged.need_rescore) {
    shard_request.partial = false;
    for (const RankedExplanation& candidate : merged.pool) {
      shard_request.rescore_cells.push_back(
          merged.report.table.coords[candidate.m_row]);
    }
    std::vector<std::vector<std::vector<double>>> shard_values;
    for (auto& shard : shards) {
      const server::JsonValue json = UnwrapOrDie(server::JsonValue::Parse(
          shard->HandleLine(server::SerializeRequest(shard_request))));
      shard_values.push_back(UnwrapOrDie(ParseRescorePayload(json)));
    }
    const Status finished =
        FinishRescore(question, request.options, shard_values, &merged);
    EXPECT_TRUE(finished.ok()) << finished.ToString();
  }
  return server::MakeResponse(
      request.id, server::ReportPayload(db, merged.report, request.op));
}

/// A one-subquery count(*) question over Author.name, for hand-built
/// fragments.
struct NameQuestion {
  Database db = BuildRunningExample();
  UserQuestion question;
  std::vector<ColumnRef> attributes;
  ExplainOptions options;

  NameQuestion() {
    server::SubquerySpec spec;
    spec.name = "q1";
    spec.agg = "count(*)";
    server::Request request;
    request.op = server::RequestOp::kExplain;
    request.subqueries = {spec};
    request.expr = "q1";
    request.attrs = {"Author.name"};
    question = UnwrapOrDie(server::BuildQuestion(db, request));
    attributes = {UnwrapOrDie(db.ResolveColumn("Author.name"))};
    options = request.options;
  }

  /// A cell-additive fragment of the given rows (coordinate, mask, v_1).
  static ShardPartial Fragment(
      const std::vector<std::tuple<Value, uint64_t, double>>& rows) {
    ShardPartial partial;
    partial.additive = true;
    partial.cell_additive = true;
    partial.u = {0.0};
    for (const auto& [coord, mask, value] : rows) {
      partial.coords.push_back(Tuple{coord});
      partial.masks.push_back(mask);
      partial.values.push_back({value});
      if (coord.is_null()) partial.u[0] = value;
    }
    return partial;
  }
};

TEST(ShardListTest, ParsesHostPortPairs) {
  const auto shards =
      UnwrapOrDie(ParseShardList("127.0.0.1:7411,localhost:80"));
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].host, "127.0.0.1");
  EXPECT_EQ(shards[0].port, 7411);
  EXPECT_EQ(shards[1].host, "localhost");
  EXPECT_EQ(shards[1].port, 80);
  EXPECT_EQ(shards[0].ToString(), "127.0.0.1:7411");
}

TEST(ShardListTest, RejectsMalformedEndpoints) {
  EXPECT_FALSE(ParseShardList("").ok());
  EXPECT_FALSE(ParseShardList("127.0.0.1").ok());
  EXPECT_FALSE(ParseShardList("h:0").ok());
  EXPECT_FALSE(ParseShardList("h:99999").ok());
  EXPECT_FALSE(ParseShardList("h:12x").ok());
  EXPECT_FALSE(ParseShardList("h:1,,h:2").ok());
}

TEST(ShardMapTest, HashingIsDeterministicAndTyped) {
  Tuple a(1), b(1);
  a[0] = Value::Str("P1");
  b[0] = Value::Str("P1");
  EXPECT_EQ(HashPartitionKey(a), HashPartitionKey(b));
  b[0] = Value::Str("P2");
  EXPECT_NE(HashPartitionKey(a), HashPartitionKey(b));
  // The type tag keeps 1 (int) and "1" (string) from colliding.
  Tuple i(1), s(1);
  i[0] = Value::Int(1);
  s[0] = Value::Str("1");
  EXPECT_NE(HashPartitionKey(i), HashPartitionKey(s));
}

class ShardMapEnvelopeTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = BuildRunningExample(); }

  NumericalQuery MakeQuery(const std::string& agg) {
    server::SubquerySpec spec;
    spec.name = "q1";
    spec.agg = agg;
    spec.where = "";
    server::Request request;
    request.op = server::RequestOp::kExplain;
    request.subqueries = {spec};
    request.expr = "q1";
    request.attrs = {"Author.name"};
    return UnwrapOrDie(server::BuildQuestion(db_, request)).query;
  }

  Database db_;
};

TEST_F(ShardMapEnvelopeTest, CountStarAndSumPassAnyPartition) {
  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db_, {"Author.name"}, 2));
  EXPECT_TRUE(map.CheckQueryEnvelope(MakeQuery("count(*)")).ok());
  EXPECT_TRUE(
      map.CheckQueryEnvelope(MakeQuery("sum(Publication.year)")).ok());
}

TEST_F(ShardMapEnvelopeTest, CountDistinctRequiresThePartitionKey) {
  const ShardMap by_pub =
      UnwrapOrDie(ShardMap::Create(db_, {"Publication.pubid"}, 2));
  EXPECT_TRUE(
      by_pub.CheckQueryEnvelope(MakeQuery("count(distinct Publication.pubid)"))
          .ok());
  const auto rejected =
      by_pub.CheckQueryEnvelope(MakeQuery("count(distinct Author.id)"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("double-count"), std::string::npos);
}

TEST_F(ShardMapEnvelopeTest, MinMaxAvgAreOutsideTheEnvelope) {
  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db_, {"Publication.pubid"}, 2));
  for (const char* agg : {"min(Publication.year)", "max(Publication.year)",
                          "avg(Publication.year)"}) {
    const auto rejected = map.CheckQueryEnvelope(MakeQuery(agg));
    ASSERT_FALSE(rejected.ok()) << agg;
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument) << agg;
    EXPECT_NE(rejected.message().find("sum-merge envelope"),
              std::string::npos)
        << agg;
  }
}

TEST(ShardMapTest, RejectsUnknownPartitionAttribute) {
  Database db = BuildRunningExample();
  EXPECT_FALSE(ShardMap::Create(db, {"Nope.attr"}, 2).ok());
  EXPECT_FALSE(ShardMap::Create(db, {}, 2).ok());
  EXPECT_FALSE(ShardMap::Create(db, {"Author.name"}, 0).ok());
}

TEST(PartitionTest, UniversalRowsAreDisjointAndExhaustive) {
  Database db = BuildRunningExample();
  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db, {"Publication.pubid"}, 2));
  const std::vector<Database> shards =
      UnwrapOrDie(PartitionDatabase(db, map));
  ASSERT_EQ(shards.size(), 2u);

  // Every shard database is referentially intact (UniversalRelation::Build
  // enforces the FK graph) and the universal rows partition the original's.
  const UniversalRelation whole = UnwrapOrDie(UniversalRelation::Build(db));
  size_t total = 0;
  for (const Database& shard : shards) {
    const UniversalRelation part =
        UnwrapOrDie(UniversalRelation::Build(shard));
    total += part.NumRows();
  }
  EXPECT_EQ(total, whole.NumRows());

  // The partition key confines each pubid to exactly one shard.
  const int pub = UnwrapOrDie(db.RelationIndex("Publication"));
  size_t pub_rows = 0;
  for (const Database& shard : shards) pub_rows += shard.relation(pub).NumRows();
  EXPECT_EQ(pub_rows, db.relation(pub).NumRows());
}

// End-to-end over in-process services: partition the running example two
// ways, serve each shard with a real XplaindService, fan an EXPLAIN out as
// partial requests, merge, and compare the final payload byte-for-byte
// with the single-node answer to the same line. count(distinct
// Publication.pubid) is intervention-additive on the running example
// (count(*) is not — the back-and-forth key drags co-author rows into the
// delta), so this exercises the pure merge path with no rescore round.
TEST(MergeTest, MergedExplainIsByteIdenticalToSingleNode) {
  const std::string line =
      "{\"id\":7,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"count(distinct Publication.pubid)\","
      "\"where\":\"venue = 'SIGMOD'\"},"
      "{\"name\":\"q2\",\"agg\":\"count(distinct Publication.pubid)\","
      "\"where\":\"venue = 'VLDB'\"}],"
      "\"expr\":\"q1 - q2\",\"direction\":\"high\"},"
      "\"attrs\":[\"Author.name\",\"Publication.year\"],"
      "\"options\":{\"top_k\":4}}";

  Database db = BuildRunningExample();
  const std::string single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()))
          ->HandleLine(line);
  ASSERT_NE(single.find("\"ok\":true"), std::string::npos) << single;

  const server::Request request =
      UnwrapOrDie(server::ParseRequest(line));
  const UserQuestion question =
      UnwrapOrDie(server::BuildQuestion(db, request));
  std::vector<ColumnRef> attributes;
  for (const std::string& name : request.attrs) {
    attributes.push_back(UnwrapOrDie(db.ResolveColumn(name)));
  }

  for (size_t k : {size_t{2}, size_t{3}}) {
    const ShardMap map =
        UnwrapOrDie(ShardMap::Create(db, {"Publication.pubid"}, k));
    std::vector<Database> shard_dbs =
        UnwrapOrDie(PartitionDatabase(db, map));

    server::Request partial_request = request;
    partial_request.partial = true;
    const std::string partial_line =
        server::SerializeRequest(partial_request);

    std::vector<ShardPartial> partials;
    for (size_t s = 0; s < k; ++s) {
      auto service = UnwrapOrDie(
          server::XplaindService::Create(std::move(shard_dbs[s])));
      const std::string response = service->HandleLine(partial_line);
      ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
      ASSERT_NE(response.find("\"partial\":true"), std::string::npos);
      partials.push_back(UnwrapOrDie(ParsePartialPayload(response)));
    }

    const MergedExplain merged = UnwrapOrDie(
        MergePartials(question, attributes, request.options, partials));
    ASSERT_FALSE(merged.need_rescore);
    const std::string clustered = server::MakeResponse(
        request.id, server::ReportPayload(db, merged.report, request.op));
    EXPECT_EQ(clustered, single) << "K=" << k;
  }
}

// min_support must be applied at the coordinator after the global sum — a
// cell below threshold on every shard can clear it globally.
TEST(MergeTest, MinSupportIsAppliedAfterTheGlobalMerge) {
  const std::string line =
      "{\"id\":9,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"count(distinct Publication.pubid)\","
      "\"where\":\"venue = 'SIGMOD'\"},"
      "{\"name\":\"q2\",\"agg\":\"count(distinct Publication.pubid)\","
      "\"where\":\"venue = 'VLDB'\"}],"
      "\"expr\":\"q1 - q2\",\"direction\":\"high\"},"
      "\"attrs\":[\"Author.name\"],"
      "\"options\":{\"top_k\":4,\"min_support\":2}}";

  Database db = BuildRunningExample();
  const std::string single =
      UnwrapOrDie(server::XplaindService::Create(BuildRunningExample()))
          ->HandleLine(line);
  ASSERT_NE(single.find("\"ok\":true"), std::string::npos) << single;

  const server::Request request = UnwrapOrDie(server::ParseRequest(line));
  const UserQuestion question =
      UnwrapOrDie(server::BuildQuestion(db, request));
  std::vector<ColumnRef> attributes = {
      UnwrapOrDie(db.ResolveColumn("Author.name"))};

  const ShardMap map =
      UnwrapOrDie(ShardMap::Create(db, {"Publication.pubid"}, 2));
  std::vector<Database> shard_dbs = UnwrapOrDie(PartitionDatabase(db, map));

  server::Request partial_request = request;
  partial_request.partial = true;
  const std::string partial_line = server::SerializeRequest(partial_request);

  std::vector<ShardPartial> partials;
  for (size_t s = 0; s < 2; ++s) {
    auto service = UnwrapOrDie(
        server::XplaindService::Create(std::move(shard_dbs[s])));
    partials.push_back(
        UnwrapOrDie(ParsePartialPayload(service->HandleLine(partial_line))));
  }
  const MergedExplain merged = UnwrapOrDie(
      MergePartials(question, attributes, request.options, partials));
  ASSERT_FALSE(merged.need_rescore);
  EXPECT_EQ(server::MakeResponse(
                request.id,
                server::ReportPayload(db, merged.report, request.op)),
            single);
}

TEST(MergeTest, ParsePartialPayloadRejectsNonPartialLines) {
  EXPECT_FALSE(ParsePartialPayload("not json").ok());
  EXPECT_FALSE(ParsePartialPayload("{\"id\":1,\"ok\":true}").ok());
  EXPECT_FALSE(
      ParsePartialPayload("{\"id\":1,\"ok\":false,\"error\":\"x\"}").ok());
}

TEST(MergeTest, MergeRejectsMismatchedArity) {
  Database db = BuildRunningExample();
  server::SubquerySpec spec;
  spec.name = "q1";
  spec.agg = "count(*)";
  server::Request request;
  request.op = server::RequestOp::kExplain;
  request.subqueries = {spec};
  request.expr = "q1";
  request.attrs = {"Author.name"};
  const UserQuestion question =
      UnwrapOrDie(server::BuildQuestion(db, request));
  std::vector<ColumnRef> attributes = {
      UnwrapOrDie(db.ResolveColumn("Author.name"))};

  EXPECT_FALSE(
      MergePartials(question, attributes, request.options, {}).ok());
  ShardPartial bad;
  bad.additive = true;
  bad.cell_additive = true;
  bad.u = {1.0, 2.0};  // two subquery originals for a 1-subquery question
  EXPECT_FALSE(
      MergePartials(question, attributes, request.options, {bad}).ok());
}

// The in-process cluster answer equals one node's for every shard count,
// K = 1 included: a SUM over signed amounts (cells that mix signs and
// cancel to 0) ranked both ways, and the running example's
// non-additive count(*) question through the exact-rescore round.
TEST(MergeTest, ClusterAnswerIsByteIdenticalToSingleNodeAcrossK) {
  struct Case {
    Database (*build)();
    std::string partition_attr;
    std::string line;
  };
  auto signed_sum = [](const char* degree) {
    return "{\"id\":3,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
           "{\"name\":\"q1\",\"agg\":\"sum(Sale.amount)\","
           "\"where\":\"kind = 'a'\"},"
           "{\"name\":\"q2\",\"agg\":\"sum(Sale.amount)\","
           "\"where\":\"kind = 'b'\"}],"
           "\"expr\":\"q1 - q2\",\"direction\":\"low\"},"
           "\"attrs\":[\"Sale.region\",\"Sale.kind\"],"
           "\"options\":{\"top_k\":6,\"degree\":\"" +
           std::string(degree) + "\"}}";
  };
  const Case cases[] = {
      {BuildSignedSales, "Sale.id", signed_sum("interv")},
      {BuildSignedSales, "Sale.id", signed_sum("aggr")},
      {[] { return BuildRunningExample(); }, "Publication.pubid",
       "{\"id\":11,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
       "{\"name\":\"q1\",\"agg\":\"count(*)\","
       "\"where\":\"venue = 'SIGMOD'\"},"
       "{\"name\":\"q2\",\"agg\":\"count(*)\","
       "\"where\":\"venue = 'VLDB'\"}],"
       "\"expr\":\"q1 / (q2 + 1)\",\"direction\":\"high\"},"
       "\"attrs\":[\"Publication.venue\",\"Publication.year\"],"
       "\"options\":{\"top_k\":3}}"},
  };
  for (const Case& c : cases) {
    const std::string single =
        UnwrapOrDie(server::XplaindService::Create(c.build()))
            ->HandleLine(c.line);
    ASSERT_NE(single.find("\"ok\":true"), std::string::npos) << single;
    const Database db = c.build();
    for (size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
      EXPECT_EQ(ClusterAnswer(db, c.line, c.partition_attr, k), single)
          << "K=" << k << " line=" << c.line;
    }
  }
}

TEST(MergeTest, FragmentRepeatingACoordinateIsRejected) {
  NameQuestion q;
  const ShardPartial repeated = NameQuestion::Fragment(
      {{Value::Null(), 1, 3.0}, {Value::Str("JG"), 1, 1.0},
       {Value::Str("JG"), 1, 2.0}});
  Result<MergedExplain> merged =
      MergePartials(q.question, q.attributes, q.options, {repeated});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(merged.status().message().find("repeats"), std::string::npos)
      << merged.status().ToString();

  // The same coordinate on two shards is no repeat: its cells sum.
  const ShardPartial first = NameQuestion::Fragment(
      {{Value::Null(), 1, 1.0}, {Value::Str("JG"), 1, 1.0}});
  const ShardPartial second = NameQuestion::Fragment(
      {{Value::Null(), 1, 2.0}, {Value::Str("JG"), 1, 2.0}});
  const MergedExplain summed = UnwrapOrDie(
      MergePartials(q.question, q.attributes, q.options, {first, second}));
  const int64_t row = summed.report.table.FindRow(Tuple{Value::Str("JG")});
  ASSERT_GE(row, 0);
  EXPECT_EQ(summed.report.table.subquery_values[0][row], 3.0);
}

TEST(MergeTest, RowsWithNoCubeBitNeverEnterTheTable) {
  NameQuestion q;
  // RR carries no mask bit; CM only a bit beyond the question's one
  // subquery. Neither is a cube cell, whatever their values say.
  const ShardPartial fragment = NameQuestion::Fragment(
      {{Value::Null(), 1, 4.0}, {Value::Str("JG"), 1, 4.0},
       {Value::Str("RR"), 0, 7.0}, {Value::Str("CM"), 2, 9.0}});
  const MergedExplain merged = UnwrapOrDie(
      MergePartials(q.question, q.attributes, q.options, {fragment}));
  const TableM& table = merged.report.table;
  ASSERT_EQ(table.NumRows(), 2u);
  EXPECT_EQ(table.FindRow(Tuple{Value::Str("RR")}), -1);
  EXPECT_EQ(table.FindRow(Tuple{Value::Str("CM")}), -1);
  EXPECT_EQ(table.cube_mask, (std::vector<uint64_t>{1, 1}));
  // A fragment of nothing but such rows merges to an empty table.
  const ShardPartial empty =
      NameQuestion::Fragment({{Value::Str("RR"), 0, 7.0}});
  EXPECT_EQ(UnwrapOrDie(MergePartials(q.question, q.attributes, q.options,
                                      {empty}))
                .report.table.NumRows(),
            0u);
}

TEST(MergeTest, ParseRescorePayloadDecodesAndRejectsMalformedRows) {
  auto parse = [](const std::string& line) {
    return ParseRescorePayload(UnwrapOrDie(server::JsonValue::Parse(line)));
  };
  const std::vector<std::vector<double>> rows = UnwrapOrDie(
      parse("{\"ok\":true,\"rescored\":[[1,-2.5],[0,3]]}"));
  EXPECT_EQ(rows, (std::vector<std::vector<double>>{{1, -2.5}, {0, 3}}));
  // The wire form of a shard's rescore answer round-trips.
  EXPECT_EQ(UnwrapOrDie(parse("{\"id\":4," +
                              server::RescorePayload(rows, 12) + "}")),
            rows);

  Result<std::vector<std::vector<double>>> not_array =
      parse("{\"ok\":true,\"rescored\":[[1,2],3]}");
  ASSERT_FALSE(not_array.ok());
  EXPECT_EQ(not_array.status().code(), StatusCode::kInvalidArgument);
  Result<std::vector<std::vector<double>>> not_number =
      parse("{\"ok\":true,\"rescored\":[[1,\"2\"]]}");
  ASSERT_FALSE(not_number.ok());
  EXPECT_EQ(not_number.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(parse("{\"ok\":true}").ok());
  EXPECT_FALSE(parse("{\"ok\":false,\"rescored\":[]}").ok());
}

}  // namespace
}  // namespace cluster
}  // namespace xplain
