// Figure 12: the benefit of the data-cube optimization. Compares Algorithm
// 1 ("Cube") against the naive enumeration ("No Cube") for Q_Race:
//  (a) input size vs time, with two candidate attributes;
//  (b) number of candidate attributes vs time, on a 1% sample.
// The claim to reproduce is the *dramatic* gap: No Cube grows with
// (#candidate cells x input size) while Cube stays near a single scan.
// Section (c) sweeps the parallel cube over 1/2/4/8 worker threads
// (DESIGN.md §6) and verifies every parallel table M is byte-identical to
// the sequential one.

// Section (d) runs the full engine with ExplainOptions::collect_stats and
// tracing on, emitting per-phase keys (semijoin_ms, cube_build_ms,
// merge_ms, topk_ms, ...) into the BENCH JSON and a Chrome-trace file
// (BENCH_fig12_cube_vs_nocube.trace.json, openable in Perfetto).

#include <cstring>
#include <memory>

#include "bench/bench_util.h"
#include "core/cube_algorithm.h"
#include "core/engine.h"
#include "core/naive.h"
#include "datagen/natality.h"
#include "relational/universal.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace xplain {
namespace {

using bench::Fmt;
using bench::PrintHeader;
using bench::PrintRow;
using bench::Unwrap;

std::vector<ColumnRef> Attrs(const Database& db,
                             const std::vector<std::string>& names) {
  std::vector<ColumnRef> attrs;
  for (const std::string& name : names) {
    attrs.push_back(Unwrap(db.ResolveColumn(name)));
  }
  return attrs;
}

/// Bitwise comparison of two tables M: same canonical row order, same
/// degree columns down to the last bit.
bool BitIdentical(const TableM& a, const TableM& b) {
  if (a.NumRows() != b.NumRows()) return false;
  for (size_t row = 0; row < a.NumRows(); ++row) {
    if (CompareTuples(a.coords[row], b.coords[row]) != 0) return false;
  }
  auto same_bits = [](const std::vector<double>& x,
                      const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return same_bits(a.mu_interv, b.mu_interv) && same_bits(a.mu_aggr, b.mu_aggr);
}

}  // namespace
}  // namespace xplain

int main() {
  using namespace xplain;         // NOLINT
  using namespace xplain::bench;  // NOLINT

  JsonReporter json("fig12_cube_vs_nocube");

  const std::vector<std::string> kAllAttrs = {
      "Birth.age", "Birth.tobacco", "Birth.prenatal", "Birth.education",
      "Birth.marital"};

  PrintHeader("Figure 12a: data size vs time, Cube vs No Cube (2 attrs)");
  // The paper samples 0.01%..50% of the 4M-row file; same absolute sizes.
  PrintRow({"rows", "cube_s", "nocube_s", "speedup"});
  for (size_t rows : {400, 4000, 40000, 400000, 2000000}) {
    datagen::NatalityOptions options;
    options.num_rows = rows;
    Database db = Unwrap(datagen::GenerateNatality(options));
    UniversalRelation u = Unwrap(UniversalRelation::Build(db));
    UserQuestion question = Unwrap(datagen::MakeNatalityQRace(db));
    std::vector<ColumnRef> attrs =
        Attrs(db, {"Birth.age", "Birth.tobacco"});

    Stopwatch cube_watch;
    TableM cube = Unwrap(ComputeTableM(u, question, attrs));
    double cube_s = cube_watch.ElapsedSeconds();

    Stopwatch naive_watch;
    TableM naive = Unwrap(ComputeTableMNaive(u, question, attrs));
    double naive_s = naive_watch.ElapsedSeconds();

    PrintRow({std::to_string(rows), Fmt(cube_s), Fmt(naive_s),
              Fmt(naive_s / std::max(cube_s, 1e-6), 1) + "x"});
    json.Add("fig12a/rows=" + std::to_string(rows) + "/cube", 1,
             cube_s * 1000.0);
    json.Add("fig12a/rows=" + std::to_string(rows) + "/nocube", 1,
             naive_s * 1000.0);
  }

  PrintHeader(
      "Figure 12b: #attributes vs time, Cube vs No Cube (1% sample)");
  PrintRow({"attrs", "cube_s", "nocube_s", "speedup"});
  datagen::NatalityOptions options;
  options.num_rows = 20000;
  Database db = Unwrap(datagen::GenerateNatality(options));
  UniversalRelation u = Unwrap(UniversalRelation::Build(db));
  UserQuestion question = Unwrap(datagen::MakeNatalityQRace(db));
  for (size_t num_attrs = 1; num_attrs <= kAllAttrs.size(); ++num_attrs) {
    std::vector<std::string> names(kAllAttrs.begin(),
                                   kAllAttrs.begin() + num_attrs);
    std::vector<ColumnRef> attrs = Attrs(db, names);

    Stopwatch cube_watch;
    TableM cube = Unwrap(ComputeTableM(u, question, attrs));
    double cube_s = cube_watch.ElapsedSeconds();

    Stopwatch naive_watch;
    TableM naive = Unwrap(ComputeTableMNaive(u, question, attrs));
    double naive_s = naive_watch.ElapsedSeconds();

    PrintRow({std::to_string(num_attrs), Fmt(cube_s), Fmt(naive_s),
              Fmt(naive_s / std::max(cube_s, 1e-6), 1) + "x"});
    json.Add("fig12b/attrs=" + std::to_string(num_attrs) + "/cube", 1,
             cube_s * 1000.0);
    json.Add("fig12b/attrs=" + std::to_string(num_attrs) + "/nocube", 1,
             naive_s * 1000.0);
  }
  std::cout << "shape check: the No-Cube column grows multiplicatively with "
               "both axes; Cube stays near one scan (paper Figure 12).\n";

  PrintHeader("Figure 12c: parallel cube, worker threads vs time (4 attrs)");
  PrintRow({"threads", "cube_s", "speedup", "identical"});
  datagen::NatalityOptions par_options;
  par_options.num_rows = 2000000;
  Database par_db = Unwrap(datagen::GenerateNatality(par_options));
  UniversalRelation par_u = Unwrap(UniversalRelation::Build(par_db));
  UserQuestion par_question = Unwrap(datagen::MakeNatalityQRace(par_db));
  std::vector<ColumnRef> par_attrs =
      Attrs(par_db, {"Birth.age", "Birth.tobacco", "Birth.prenatal",
                     "Birth.education"});
  TableM sequential;
  double sequential_s = 1.0;
  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    TableMOptions mopts;
    mopts.pool = pool.get();
    Stopwatch watch;
    TableM table = Unwrap(ComputeTableM(par_u, par_question, par_attrs, mopts));
    double seconds = watch.ElapsedSeconds();
    bool identical = true;
    if (threads == 1) {
      sequential = std::move(table);
      sequential_s = seconds;
    } else {
      identical = BitIdentical(sequential, table);
      if (!identical) {
        std::cerr << "PARALLEL MISMATCH at " << threads << " threads\n";
        return 1;
      }
    }
    PrintRow({std::to_string(threads), Fmt(seconds),
              Fmt(sequential_s / std::max(seconds, 1e-6), 2) + "x",
              identical ? "yes" : "NO"});
    json.Add("fig12c/cube_parallel", threads, seconds * 1000.0);
  }
  std::cout << "determinism check: every parallel table M is byte-identical "
               "to the sequential one (DESIGN.md §6). Speedup tracks the "
               "machine's core count (hardware_concurrency = "
            << ThreadPool::DefaultNumThreads() << " here).\n";

  PrintHeader("Figure 12d: per-phase stats + Chrome trace (collect_stats)");
  // Reuses the 1%-sample database of section (b). Min/median over warmed
  // repeats keeps the per-phase numbers stable across CI runs.
  ExplainEngine engine = Unwrap(ExplainEngine::Create(&db));
  std::vector<ColumnRef> stat_attrs =
      Attrs(db, {"Birth.age", "Birth.tobacco"});
  ExplainOptions eopts;
  eopts.collect_stats = true;
  BenchTiming timing = MeasureMs(
      [&] {
        ExplainReport r =
            Unwrap(engine.ExplainResolved(question, stat_attrs, eopts));
      },
      /*iterations=*/3, /*warmup=*/1);
  json.AddTiming("fig12d/explain", ThreadPool::DefaultNumThreads(), timing);

  Trace::Clear();
  Trace::Enable();
  ExplainReport traced =
      Unwrap(engine.ExplainResolved(question, stat_attrs, eopts));
  Trace::Disable();
  json.AddStats("fig12d/explain_stats", ThreadPool::DefaultNumThreads(),
                traced.stats.total_ms, traced.stats.ToFlat());
  std::cout << traced.stats.ToString();
  const std::string trace_path = "BENCH_fig12_cube_vs_nocube.trace.json";
  Status trace_status = Trace::WriteChromeJson(trace_path);
  if (!trace_status.ok()) {
    std::cerr << "trace export failed: " << trace_status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << trace_path << " ("
            << Trace::Snapshot().size() << " spans; open in "
            << "https://ui.perfetto.dev or chrome://tracing)\n";
  PrintRow({"explain_ms_min", Fmt(timing.min_ms)});
  PrintRow({"explain_ms_median", Fmt(timing.median_ms)});
  return 0;
}
