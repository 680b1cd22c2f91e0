// End-to-end observability tests: spans recorded concurrently by
// thread-pool workers (distinct tids, no serialization), metrics updated
// from pool tasks (the tsan preset runs this file), disabled-mode no-ops
// while the engine is busy, and ExplainOptions::collect_stats attaching a
// per-phase QueryStats to the report.

#include <cstdint>
#include <latch>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/natality.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace xplain {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Trace::Disable();
    Trace::Clear();
  }
  void TearDown() override {
    Trace::Disable();
    Trace::Clear();
  }
};

// Every worker holds the latch until all four arrived, so the four tasks
// are pinned to four distinct workers; each then records a nested pair of
// spans. The snapshot must show four distinct tids and per-tid containment.
TEST_F(ObservabilityTest, SpansNestAcrossThreadPoolWorkers) {
  constexpr int kWorkers = 4;
  Trace::Enable();
  {
    ThreadPool pool(kWorkers);
    std::latch all_running(kWorkers);
    std::vector<std::future<Status>> futures;
    futures.reserve(kWorkers);
    for (int i = 0; i < kWorkers; ++i) {
      futures.push_back(pool.Submit([&all_running]() -> Status {
        all_running.arrive_and_wait();
        TraceSpan outer("obs.worker_outer");
        { XPLAIN_TRACE_SPAN("obs.worker_inner"); }
        outer.End();
        return Status::OK();
      }));
    }
    for (std::future<Status>& future : futures) {
      EXPECT_TRUE(future.get().ok());
    }
  }
  Trace::Disable();

  std::vector<TraceEvent> events = Trace::Snapshot();
  std::set<uint32_t> outer_tids;
  int outers = 0;
  int inners = 0;
  for (const TraceEvent& event : events) {
    const std::string name = event.name;
    if (name == "obs.worker_outer") {
      ++outers;
      outer_tids.insert(event.tid);
    } else if (name == "obs.worker_inner") {
      ++inners;
    }
  }
  EXPECT_EQ(outers, kWorkers);
  EXPECT_EQ(inners, kWorkers);
  EXPECT_EQ(outer_tids.size(), static_cast<size_t>(kWorkers));

  // Per-tid containment: each worker's inner span lies inside its outer.
  for (const TraceEvent& inner : events) {
    if (std::string(inner.name) != "obs.worker_inner") continue;
    bool contained = false;
    for (const TraceEvent& outer : events) {
      if (std::string(outer.name) != "obs.worker_outer") continue;
      if (outer.tid != inner.tid) continue;
      if (outer.start_us <= inner.start_us &&
          outer.start_us + outer.dur_us >= inner.start_us + inner.dur_us) {
        contained = true;
      }
    }
    EXPECT_TRUE(contained) << "inner span on tid " << inner.tid
                           << " not contained in its worker's outer span";
  }
}

// Concurrent metric updates from pool tasks must lose no increments (the
// tsan preset verifies the absence of data races on the same path).
TEST_F(ObservabilityTest, MetricsFromPoolTasksLoseNoUpdates) {
  constexpr int kTasks = 32;
  constexpr int kIncrementsPerTask = 1000;
  Counter* counter =
      MetricsRegistry::Global().GetCounter("obs.pool_increments");
  const int64_t before = counter->value();
  {
    ThreadPool pool(4);
    std::vector<std::future<Status>> futures;
    futures.reserve(kTasks);
    for (int t = 0; t < kTasks; ++t) {
      futures.push_back(pool.Submit([]() -> Status {
        for (int i = 0; i < kIncrementsPerTask; ++i) {
          XPLAIN_COUNTER_ADD("obs.pool_increments", 1);
          XPLAIN_HISTOGRAM_RECORD("obs.pool_hist", 1.0);
        }
        return Status::OK();
      }));
    }
    for (std::future<Status>& future : futures) {
      EXPECT_TRUE(future.get().ok());
    }
  }
  EXPECT_EQ(counter->value() - before,
            static_cast<int64_t>(kTasks) * kIncrementsPerTask);
}

// With collection off, spans opened on busy pool workers must record
// nothing — the engine's always-compiled instrumentation is a no-op.
TEST_F(ObservabilityTest, DisabledSpansOnWorkersAreNoOps) {
  ASSERT_FALSE(Trace::enabled());
  {
    ThreadPool pool(4);
    std::vector<std::future<Status>> futures;
    for (int t = 0; t < 16; ++t) {
      futures.push_back(pool.Submit([]() -> Status {
        XPLAIN_TRACE_SPAN("obs.disabled_span");
        return Status::OK();
      }));
    }
    for (std::future<Status>& future : futures) {
      EXPECT_TRUE(future.get().ok());
    }
  }
  EXPECT_TRUE(Trace::Snapshot().empty());
}

// Concurrently recorded spans export as schema-valid Chrome JSON with
// lint-conformant names.
TEST_F(ObservabilityTest, ConcurrentSpansExportValidChromeJson) {
  Trace::Enable();
  {
    ThreadPool pool(4);
    std::vector<std::future<Status>> futures;
    for (int t = 0; t < 8; ++t) {
      futures.push_back(pool.Submit([]() -> Status {
        XPLAIN_TRACE_SPAN("obs.exported_span");
        return Status::OK();
      }));
    }
    for (std::future<Status>& future : futures) {
      EXPECT_TRUE(future.get().ok());
    }
  }
  Trace::Disable();
  for (const TraceEvent& event : Trace::Snapshot()) {
    EXPECT_TRUE(MetricsRegistry::IsValidName(event.name)) << event.name;
  }
  const std::string json = Trace::ToChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"obs.exported_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// collect_stats attaches a per-phase QueryStats whose flat view carries
// the per-phase keys the BENCH JSON merge relies on.
TEST_F(ObservabilityTest, CollectStatsPopulatesQueryStats) {
  datagen::NatalityOptions gen;
  gen.num_rows = 2000;
  auto db_result = datagen::GenerateNatality(gen);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  Database db = std::move(db_result).ValueOrDie();
  auto question_result = datagen::MakeNatalityQRace(db);
  ASSERT_TRUE(question_result.ok()) << question_result.status().ToString();
  UserQuestion question = std::move(question_result).ValueOrDie();
  auto engine_result = ExplainEngine::Create(&db);
  ASSERT_TRUE(engine_result.ok()) << engine_result.status().ToString();
  ExplainEngine engine = std::move(engine_result).ValueOrDie();

  ExplainOptions options;
  options.collect_stats = true;
  auto report_result =
      engine.Explain(question, {"Birth.age", "Birth.tobacco"}, options);
  ASSERT_TRUE(report_result.ok()) << report_result.status().ToString();
  ExplainReport report = std::move(report_result).ValueOrDie();

  EXPECT_TRUE(report.stats_collected);
  EXPECT_GT(report.stats.total_ms, 0.0);
  EXPECT_GT(report.stats.table_rows, 0u);
  EXPECT_EQ(report.stats.table_rows, report.table.NumRows());

  std::vector<std::pair<std::string, double>> flat = report.stats.ToFlat();
  auto has_key = [&](const std::string& key) {
    for (const auto& [name, value] : flat) {
      if (name == key) return true;
    }
    return false;
  };
  for (const char* key :
       {"total_ms", "semijoin_ms", "originals_ms", "cube_build_ms",
        "merge_ms", "degree_ms", "topk_ms", "exact_rescore_ms", "table_rows",
        "fixpoint_runs", "fixpoint_rounds", "fixpoint_deleted_tuples"}) {
    EXPECT_TRUE(has_key(key)) << "QueryStats::ToFlat missing " << key;
  }
  EXPECT_NE(report.stats.ToString().find("cube_build_ms"), std::string::npos);
}

// Off by default: the report must come back without stats.
TEST_F(ObservabilityTest, StatsOffByDefault) {
  datagen::NatalityOptions gen;
  gen.num_rows = 1000;
  auto db_result = datagen::GenerateNatality(gen);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  Database db = std::move(db_result).ValueOrDie();
  auto question_result = datagen::MakeNatalityQRace(db);
  ASSERT_TRUE(question_result.ok()) << question_result.status().ToString();
  UserQuestion question = std::move(question_result).ValueOrDie();
  auto engine_result = ExplainEngine::Create(&db);
  ASSERT_TRUE(engine_result.ok()) << engine_result.status().ToString();
  ExplainEngine engine = std::move(engine_result).ValueOrDie();

  auto report_result = engine.Explain(question, {"Birth.age"});
  ASSERT_TRUE(report_result.ok()) << report_result.status().ToString();
  EXPECT_FALSE(report_result.ValueOrDie().stats_collected);
}

}  // namespace
}  // namespace xplain
