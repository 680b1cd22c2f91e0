// End-to-end tests of the xplaind service over the in-process loopback
// transport (DESIGN.md §8): concurrent byte-identity against direct
// engine calls, deterministic admission-control overload behavior,
// graceful drain, and version-keyed cache invalidation.

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/random_db.h"
#include "server/flight_recorder.h"
#include "server/json.h"
#include "server/loopback.h"
#include "server/protocol.h"
#include "server/service.h"
#include "tests/test_util.h"
#include "util/metrics.h"

namespace xplain {
namespace server {
namespace {

using ::xplain::testing::UnwrapOrDie;

Database MakeDb() {
  datagen::RandomDbOptions options;
  options.seed = 77;
  options.schema = datagen::DbTemplate::kDblpLike;
  options.size = 12;
  options.domain = 3;
  return UnwrapOrDie(datagen::GenerateRandomDb(options));
}

/// One of 16 distinct EXPLAIN/TOPK request lines; `variant` also serves as
/// the request id so expected responses can be precomputed per variant.
std::string MakeLine(int variant) {
  const int x = variant % 3;
  const bool topk = (variant / 3) % 2 == 1;
  const size_t top_k = 2 + static_cast<size_t>(variant % 4);
  std::string line = "{\"id\":" + std::to_string(variant) + ",\"op\":\"";
  line += topk ? "TOPK" : "EXPLAIN";
  line +=
      "\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"\"},"
      "{\"name\":\"q2\",\"agg\":\"count(*)\",\"where\":\"A.va = " +
      std::to_string(x) +
      "\"}],\"expr\":\"q1 - q2\",\"direction\":\"high\"},"
      "\"attrs\":[\"A.va\",\"P.vp\"],\"options\":{\"top_k\":" +
      std::to_string(top_k) + "}}";
  return line;
}

/// The reference response: the same line evaluated by a direct
/// ExplainEngine call on `db`, serialized through the same payload code.
std::string DirectResponse(const Database& db, const ExplainEngine& engine,
                           const std::string& line) {
  Request request = UnwrapOrDie(ParseRequest(line));
  UserQuestion question = UnwrapOrDie(BuildQuestion(db, request));
  auto report = engine.Explain(question, request.attrs, request.options);
  if (!report.ok()) {
    return MakeResponse(request.id, ErrorPayload(report.status()));
  }
  return MakeResponse(request.id, ReportPayload(db, *report, request.op));
}

TEST(XplaindServiceTest, ConcurrentLoopbackMatchesDirectEngineByteForByte) {
  // Reference: a private copy of the database and a direct engine.
  Database direct_db = MakeDb();
  ExplainEngine direct_engine =
      UnwrapOrDie(ExplainEngine::Create(&direct_db));
  constexpr int kVariants = 16;
  std::vector<std::string> expected;
  expected.reserve(kVariants);
  for (int v = 0; v < kVariants; ++v) {
    expected.push_back(DirectResponse(direct_db, direct_engine, MakeLine(v)));
  }

  ServiceOptions options;
  options.num_workers = 4;
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb(), options));
  LoopbackTransport transport(service.get());

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;  // 8 x 25 = 200 interleaved calls
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      got[t].reserve(kRequestsPerThread);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const int variant = (t * kRequestsPerThread + i) % kVariants;
        got[t].push_back(transport.Call(MakeLine(variant)));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRequestsPerThread; ++i) {
      const int variant = (t * kRequestsPerThread + i) % kVariants;
      EXPECT_EQ(got[t][i], expected[variant])
          << "thread " << t << " request " << i;
    }
  }

  XplaindService::Stats stats = service->GetStats();
  EXPECT_EQ(stats.received, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.served, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.rejected, 0);

  // Rerun every variant: all cached now, responses still byte-identical.
  const int64_t hits_before = stats.cache.hits;
  for (int v = 0; v < kVariants; ++v) {
    EXPECT_EQ(transport.Call(MakeLine(v)), expected[v]) << "variant " << v;
  }
  stats = service->GetStats();
  EXPECT_GE(stats.cache.hits, hits_before + kVariants);
  EXPECT_GT(stats.cache.hits, 0);
}

// A client-sent num_threads is ignored like any unknown member: a value
// far beyond the machine spawns nothing, and the request answers
// byte-identical to one that sends 1.
TEST(XplaindServiceTest, WireNumThreadsIsIgnored) {
  auto with_threads = [](int variant, const std::string& threads) {
    std::string line = MakeLine(variant);
    const std::string options = "\"options\":{";
    return line.insert(line.find(options) + options.size(),
                       "\"num_threads\":" + threads + ",");
  };
  Database direct_db = MakeDb();
  ExplainEngine direct_engine =
      UnwrapOrDie(ExplainEngine::Create(&direct_db));
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb()));
  LoopbackTransport transport(service.get());
  for (int variant : {0, 4}) {
    const std::string got = transport.Call(with_threads(variant, "100000"));
    EXPECT_NE(got.find("\"ok\":true"), std::string::npos) << got;
    EXPECT_EQ(got, DirectResponse(direct_db, direct_engine,
                                  with_threads(variant, "1")));
  }
}

TEST(XplaindServiceTest, OverloadRejectsExactlyBeyondCapacity) {
  // One worker + queue depth 2 = admission capacity 3. The execute hook
  // holds the worker so admission decisions are fully deterministic.
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  ServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  options.enable_cache = false;
  options.execute_hook = [gate_future] { gate_future.wait(); };
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb(), options));

  constexpr int kBurst = 10;
  std::vector<std::future<std::string>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(service->SubmitLine(MakeLine(i % 16)));
  }
  // Rejections resolve immediately, even while the worker is held.
  int ready = 0;
  for (std::future<std::string>& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      ++ready;
    }
  }
  EXPECT_EQ(ready, kBurst - 3);

  gate.set_value();
  int ok_count = 0;
  int rejected_count = 0;
  for (std::future<std::string>& f : futures) {
    const std::string response = f.get();  // no request blocks forever
    if (response.find("\"ok\":true") != std::string::npos) {
      ++ok_count;
    } else {
      EXPECT_NE(response.find("ResourceExhausted"), std::string::npos)
          << response;
      ++rejected_count;
    }
  }
  EXPECT_EQ(ok_count, 3);
  EXPECT_EQ(rejected_count, kBurst - 3);

  const XplaindService::Stats stats = service->GetStats();
  EXPECT_EQ(stats.served, 3);
  EXPECT_EQ(stats.rejected, kBurst - 3);

  // A DRAIN request completes cleanly after the storm. Responses resolve
  // before the worker's completion bookkeeping (the flight record needs
  // the flush timing), so in_flight only reliably reads 0 after the
  // drain's quiescence barrier, not right after the futures resolve.
  const std::string drain = service->HandleLine("{\"id\":99,\"op\":\"DRAIN\"}");
  EXPECT_NE(drain.find("\"ok\":true"), std::string::npos) << drain;
  EXPECT_TRUE(service->draining());
  EXPECT_EQ(service->GetStats().in_flight, 0);
}

TEST(XplaindServiceTest, DrainStopsAdmissionButKeepsStats) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb()));
  LoopbackTransport transport(service.get());
  EXPECT_NE(transport.Call(MakeLine(0)).find("\"ok\":true"),
            std::string::npos);
  service->Drain();
  EXPECT_TRUE(service->draining());
  // New work is refused with Unavailable...
  const std::string refused = transport.Call(MakeLine(1));
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("Unavailable"), std::string::npos) << refused;
  // ...but STATS still answers, and reports the drained state.
  const std::string stats = transport.Call("{\"id\":5,\"op\":\"STATS\"}");
  EXPECT_NE(stats.find("\"draining\":true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"served\":1"), std::string::npos) << stats;
  // Drain is idempotent.
  service->Drain();
}

TEST(XplaindServiceTest, MalformedLinesGetErrorResponsesNotCrashes) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb()));
  const std::string bad_json = service->HandleLine("this is not json");
  EXPECT_NE(bad_json.find("\"ok\":false"), std::string::npos) << bad_json;
  EXPECT_NE(bad_json.find("\"id\":0"), std::string::npos) << bad_json;
  // A parseable id is echoed even when the rest of the request is junk.
  const std::string bad_op =
      service->HandleLine("{\"id\":41,\"op\":\"NOPE\"}");
  EXPECT_NE(bad_op.find("\"id\":41"), std::string::npos) << bad_op;
  EXPECT_NE(bad_op.find("InvalidArgument"), std::string::npos) << bad_op;
  // Semantic errors (unknown column) surface as Status payloads too.
  const std::string bad_attr = service->HandleLine(
      "{\"id\":42,\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":["
      "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"\"}],"
      "\"expr\":\"q1\"},\"attrs\":[\"No.such\"]}");
  EXPECT_NE(bad_attr.find("\"ok\":false"), std::string::npos) << bad_attr;
  EXPECT_NE(bad_attr.find("\"id\":42"), std::string::npos) << bad_attr;
  const XplaindService::Stats stats = service->GetStats();
  EXPECT_EQ(stats.errors, 3);
  EXPECT_EQ(stats.served, 0);
}

// MIN/MAX over a string column parse (a plain aggregate query prints the
// string), but no cube cell or u_j can hold one: EXPLAIN and TOPK get a
// structured error and the daemon keeps serving.
TEST(XplaindServiceTest, StringMinMaxSubqueryIsRejectedNotFatal) {
  auto service = UnwrapOrDie(
      XplaindService::Create(::xplain::testing::BuildRunningExample()));
  auto line = [](int id, const std::string& op, const std::string& agg,
                 const std::string& extra = "") {
    return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op +
           "\",\"question\":{\"subqueries\":[{\"name\":\"q1\","
           "\"agg\":\"" + agg + "\",\"where\":\"\"}],\"expr\":\"q1\"},"
           "\"attrs\":[\"Publication.venue\"]" + extra + "}";
  };
  // Every engine path: the cube, the naive table, a shard's partial
  // table and a shard's exact rescore.
  const std::vector<std::string> paths = {
      "", ",\"options\":{\"use_cube\":false}", ",\"partial\":true",
      ",\"rescore_cells\":[[\"SIGMOD\"]]"};
  int id = 1;
  for (const char* op : {"EXPLAIN", "TOPK"}) {
    for (const char* agg : {"max(Author.name)", "min(Author.name)"}) {
      for (const std::string& path : paths) {
        if (op == std::string("TOPK") && path.find("rescore") != path.npos) {
          continue;  // rescore_cells is EXPLAIN-only
        }
        const std::string bad = service->HandleLine(line(id++, op, agg, path));
        EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;
        EXPECT_NE(bad.find("InvalidArgument"), std::string::npos) << bad;
        EXPECT_NE(bad.find("numeric"), std::string::npos) << bad;
      }
    }
  }
  const std::string good =
      service->HandleLine(line(id, "EXPLAIN", "max(Publication.year)"));
  EXPECT_NE(good.find("\"ok\":true"), std::string::npos) << good;
  EXPECT_EQ(service->GetStats().served, 1);
}

// Expressions and filters nested past the parser's depth cap, each well
// under the 1 MiB line cap, get a ParseError response; the service keeps
// serving.
TEST(XplaindServiceTest, DeeplyNestedInputIsRejectedNotFatal) {
  auto service = UnwrapOrDie(
      XplaindService::Create(::xplain::testing::BuildRunningExample()));
  auto line = [](int id, const std::string& expr, const std::string& where) {
    return "{\"id\":" + std::to_string(id) +
           ",\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":[{\"name\":"
           "\"q1\",\"agg\":\"count(*)\",\"where\":\"" + where +
           "\"}],\"expr\":\"" + expr +
           "\"},\"attrs\":[\"Publication.venue\"]}";
  };
  std::string power_chain = "q1";
  for (int i = 0; i < 100000; ++i) power_chain += "^q1";
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {std::string(10000, '(') + "q1" + std::string(10000, ')'), ""},
      {power_chain, ""},
      {"q1", "Publication.year = " + std::string(100000, '-') + "5"},
  };
  int id = 1;
  for (const auto& [expr, where] : shapes) {
    const std::string bad = service->HandleLine(line(id++, expr, where));
    EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad.substr(0, 200);
    EXPECT_NE(bad.find("ParseError"), std::string::npos) << bad.substr(0, 200);
  }
  const std::string good = service->HandleLine(line(id, "q1", ""));
  EXPECT_NE(good.find("\"ok\":true"), std::string::npos) << good;
  EXPECT_EQ(service->GetStats().served, 1);
}

// A question with more subqueries than one cube pass covers is refused on
// every engine path before any cube is looked up or built.
TEST(XplaindServiceTest, TooManySubqueriesAreRejectedBeforeCubeWork) {
  auto service = UnwrapOrDie(
      XplaindService::Create(::xplain::testing::BuildRunningExample()));
  std::string subqueries;
  for (int i = 1; i <= 1000; ++i) {
    if (i > 1) subqueries += ",";
    subqueries += "{\"name\":\"q" + std::to_string(i) +
                  "\",\"agg\":\"count(*)\",\"where\":\"\"}";
  }
  auto line = [&](int id, const std::string& extra) {
    return "{\"id\":" + std::to_string(id) +
           ",\"op\":\"EXPLAIN\",\"question\":{\"subqueries\":[" +
           subqueries +
           "],\"expr\":\"q1\"},\"attrs\":[\"Publication.venue\"]" + extra +
           "}";
  };
  auto cube_lookups = [] {
    double lookups = 0.0;
    for (const auto& [name, value] :
         MetricsRegistry::Global().CounterSnapshot()) {
      if (name == "workspace.cube_hits" || name == "workspace.cube_misses") {
        lookups += value;
      }
    }
    return lookups;
  };
  const double before = cube_lookups();
  int id = 1;
  for (const std::string& path :
       {std::string(), std::string(",\"partial\":true"),
        std::string(",\"options\":{\"use_cube\":false}")}) {
    const std::string bad = service->HandleLine(line(id++, path));
    EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << path;
    EXPECT_NE(bad.find("InvalidArgument"), std::string::npos) << path;
    EXPECT_NE(bad.find("at most 64 subqueries"), std::string::npos) << path;
  }
  EXPECT_EQ(cube_lookups(), before);
  subqueries = "{\"name\":\"q1\",\"agg\":\"count(*)\",\"where\":\"\"}";
  const std::string good = service->HandleLine(line(id, ""));
  EXPECT_NE(good.find("\"ok\":true"), std::string::npos) << good;
}

TEST(XplaindServiceTest, ApplyDeltaInvalidatesCacheAndChangesAnswers) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb()));
  LoopbackTransport transport(service.get());
  const std::string line = MakeLine(0);
  const uint64_t version_before = service->db_version();

  const std::string first = transport.Call(line);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
  const std::string second = transport.Call(line);
  EXPECT_EQ(first, second);  // cache hits are byte-identical
  XplaindService::Stats stats = service->GetStats();
  EXPECT_EQ(stats.cache_hits, 1);

  // Delete one row of the fact relation C: the database version bumps,
  // the cache is invalidated, and count(*) answers change.
  DeltaSet delta = service->db().EmptyDelta();
  const int c_index = *service->db().RelationIndex("C");
  delta[static_cast<size_t>(c_index)].Set(0);
  XPLAIN_EXPECT_OK(service->ApplyDelta(delta));
  EXPECT_GT(service->db_version(), version_before);

  const std::string third = transport.Call(line);
  EXPECT_NE(third.find("\"ok\":true"), std::string::npos) << third;
  EXPECT_NE(third, first);  // recomputed against the mutated database

  // The recomputation matches a direct engine on an identically mutated
  // database, byte for byte.
  Database reference = MakeDb();
  DeltaSet reference_delta = reference.EmptyDelta();
  reference_delta[static_cast<size_t>(c_index)].Set(0);
  reference = reference.ApplyDelta(reference_delta);
  reference.SemijoinReduce();
  ExplainEngine reference_engine =
      UnwrapOrDie(ExplainEngine::Create(&reference));
  EXPECT_EQ(third, DirectResponse(reference, reference_engine, line));

  stats = service->GetStats();
  EXPECT_EQ(stats.cache_hits, 1);       // the post-delta call was a miss
  EXPECT_GE(stats.cache.invalidations, 1);

  // Serving the same line again now hits the fresh entry.
  EXPECT_EQ(transport.Call(line), third);
  EXPECT_EQ(service->GetStats().cache_hits, 2);
}

// --- request-scoped observability (DESIGN.md §12) ---------------------------

TEST(XplaindServiceTest, StatsPayloadCarriesCacheCountersAndLatency) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb()));
  const std::string line = MakeLine(1);
  EXPECT_NE(service->HandleLine(line).find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service->HandleLine(line).find("\"ok\":true"),
            std::string::npos);  // cache hit
  const std::string stats =
      service->HandleLine("{\"id\":9,\"op\":\"STATS\"}");
  auto root = JsonValue::Parse(stats);
  ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << stats;
  const JsonValue* cache = root->Find("cache");
  ASSERT_NE(cache, nullptr) << stats;
  EXPECT_EQ(cache->GetNumber("hits", -1), 1.0);
  // The maintenance counters are always present (zero on a fresh service).
  EXPECT_EQ(cache->GetNumber("rekeyed", -1), 0.0);
  EXPECT_EQ(cache->GetNumber("targeted_invalidations", -1), 0.0);
  EXPECT_EQ(cache->GetNumber("full_invalidations", -1), 0.0);
  const JsonValue* latency = root->Find("latency");
  ASSERT_NE(latency, nullptr) << stats;
  for (const char* op : {"explain", "topk", "delta"}) {
    const JsonValue* entry = latency->Find(op);
    ASSERT_NE(entry, nullptr) << stats;
    // The histograms are process-global, so only lower bounds are exact.
    EXPECT_GE(entry->GetNumber("count", -1), 0.0);
    EXPECT_GE(entry->GetNumber("p50_us", -1), 0.0);
    EXPECT_GE(entry->GetNumber("p99_us", -1), 0.0);
    EXPECT_GE(entry->GetNumber("p99_us", 0.0),
              entry->GetNumber("p50_us", 0.0));
  }
  // This service served one EXPLAIN-class request (the TOPK variant of
  // MakeLine(1) counts into topk); some prior test may have added more.
  EXPECT_GE(latency->Find("explain")->GetNumber("count", 0) +
                latency->Find("topk")->GetNumber("count", 0),
            1.0);
}

TEST(XplaindServiceTest, MetricsOpReturnsPrometheusExposition) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb(), ServiceOptions()));
  EXPECT_NE(service->HandleLine(MakeLine(0)).find("\"ok\":true"),
            std::string::npos);
  // Drain so the request's latency/flight metrics have definitely been
  // registered before the scrape (METRICS still answers while drained).
  service->Drain();
  const std::string response =
      service->HandleLine("{\"id\":5,\"op\":\"METRICS\"}");
  auto root = JsonValue::Parse(response);
  ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << response;
  EXPECT_TRUE(root->GetBool("ok", false)) << response;
  EXPECT_EQ(root->GetString("op", ""), "METRICS");
  EXPECT_EQ(root->GetString("content_type", ""),
            "text/plain; version=0.0.4");
  const std::string exposition = root->GetString("exposition", "");
  ASSERT_FALSE(exposition.empty()) << response;
  // The per-op latency histogram the request just fed, as a full ladder.
  EXPECT_NE(exposition.find("# TYPE xplain_server_op_explain_us histogram"),
            std::string::npos);
  EXPECT_NE(exposition.find("xplain_server_op_explain_us_bucket{le=\"1\"}"),
            std::string::npos);
  EXPECT_NE(
      exposition.find("xplain_server_op_explain_us_bucket{le=\"+Inf\"}"),
      std::string::npos);
  EXPECT_NE(exposition.find("xplain_server_op_explain_us_count"),
            std::string::npos);
  EXPECT_NE(exposition.find("xplain_server_op_explain_us_sum"),
            std::string::npos);
  // Flight-recorder and gauge families from this request's lifecycle.
  EXPECT_NE(exposition.find("# TYPE xplain_server_flight_recorded counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("# TYPE xplain_server_in_flight gauge"),
            std::string::npos);
}

TEST(XplaindServiceTest, FlightOpDumpsPerRequestRecords) {
  ServiceOptions options;
  options.flight_capacity = 4;
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb(), options));
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(service->HandleLine(MakeLine(i)).find("\"ok\":true"),
              std::string::npos);
  }
  // Meta ops must not pollute the ring: FLIGHT polling stays invisible.
  EXPECT_NE(service->HandleLine("{\"id\":7,\"op\":\"STATS\"}")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_NE(service->HandleLine("{\"id\":8,\"op\":\"METRICS\"}")
                .find("\"ok\":true"),
            std::string::npos);
  // Drain before dumping: a drained service has appended the flight record
  // of every admitted request (meta ops still answer while drained).
  service->Drain();
  const std::string response =
      service->HandleLine("{\"id\":9,\"op\":\"FLIGHT\"}");
  auto root = JsonValue::Parse(response);
  ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << response;
  EXPECT_TRUE(root->GetBool("ok", false)) << response;
  EXPECT_EQ(root->GetString("op", ""), "FLIGHT");
  EXPECT_EQ(root->GetNumber("capacity", -1), 4.0);
  EXPECT_EQ(root->GetNumber("total_recorded", -1), 6.0);
  EXPECT_EQ(root->GetNumber("overwritten", -1), 2.0);
  const JsonValue* records = root->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array_items().size(), 4u);
  for (const JsonValue& record : records->array_items()) {
    EXPECT_EQ(record.GetString("code", ""), "OK") << response;
    EXPECT_EQ(record.GetString("cache", ""), "miss") << response;
    EXPECT_GT(record.GetNumber("bytes", 0), 0.0) << response;
    const std::string op = record.GetString("op", "");
    EXPECT_TRUE(op == "EXPLAIN" || op == "TOPK") << response;
  }
  // The newest 4 of the 6 requests survived, in seq order.
  EXPECT_EQ(records->array_items()[0].GetNumber("seq", -1), 2.0);
  EXPECT_EQ(records->array_items()[3].GetNumber("seq", -1), 5.0);
}

TEST(XplaindServiceTest, SlowQueryThresholdPinsOffenders) {
  ServiceOptions options;
  options.slow_query_us = 0;  // everything is "slow": deterministic pinning
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb(), options));
  EXPECT_NE(service->HandleLine(MakeLine(2)).find("\"ok\":true"),
            std::string::npos);
  service->Drain();  // guarantees the record landed before the dump
  const std::string response =
      service->HandleLine("{\"id\":3,\"op\":\"FLIGHT\"}");
  auto root = JsonValue::Parse(response);
  ASSERT_TRUE(root.ok()) << root.status().ToString() << "\n" << response;
  EXPECT_EQ(root->GetNumber("slow_query_us", -1), 0.0);
  EXPECT_EQ(root->GetNumber("slow", -1), 1.0);
  const JsonValue* pinned = root->Find("pinned");
  ASSERT_NE(pinned, nullptr);
  ASSERT_EQ(pinned->array_items().size(), 1u);
  EXPECT_TRUE(pinned->array_items()[0].GetBool("pinned", false)) << response;
}

/// The response future resolves inside CompleteRequest's flush span, a
/// hair before the flight record is appended on the worker; tests that
/// depend on record *order* wait for the append explicitly.
void WaitForFlightRecords(const XplaindService& service, uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (service.flight_recorder().Snapshot().total_recorded >= want) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "timed out waiting for " << want << " flight records";
}

TEST(XplaindServiceTest, CacheHitAndDeltaOutcomesReachTheFlightRecorder) {
  auto service = UnwrapOrDie(XplaindService::Create(MakeDb()));
  const std::string line = MakeLine(0);
  EXPECT_NE(service->HandleLine(line).find("\"ok\":true"),
            std::string::npos);
  WaitForFlightRecords(*service, 1);  // pin the miss record to seq 0
  EXPECT_NE(service->HandleLine(line).find("\"ok\":true"),
            std::string::npos);  // hit
  EXPECT_NE(service
                ->HandleLine("{\"id\":3,\"op\":\"DELTA\","
                             "\"relation\":\"C\",\"rows\":[0]}")
                .find("\"ok\":true"),
            std::string::npos);
  const FlightRecorder::Dump dump = service->flight_recorder().Snapshot();
  ASSERT_EQ(dump.records.size(), 3u);
  EXPECT_EQ(dump.records[0].cache, FlightRecord::CacheOutcome::kMiss);
  EXPECT_EQ(dump.records[1].cache, FlightRecord::CacheOutcome::kHit);
  EXPECT_EQ(dump.records[2].op, RequestOp::kDelta);
  EXPECT_EQ(dump.records[2].cache, FlightRecord::CacheOutcome::kBypass);
  // The DELTA record carries the post-delta database version.
  EXPECT_EQ(dump.records[2].db_version, service->db_version());
  EXPECT_GT(dump.records[2].db_version, dump.records[0].db_version);
}

}  // namespace
}  // namespace server
}  // namespace xplain
