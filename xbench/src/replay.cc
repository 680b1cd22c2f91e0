// The traced run. Per-layer numbers come from spans the benchmark records
// around its own calls into each module's public entry points, replayed
// one op at a time on a shadow of the serving state; the program itself is
// never instrumented for them.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "cluster/merge.h"
#include "core/additivity.h"
#include "core/engine.h"
#include "harness.h"
#include "relational/universal.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/tcp_client.h"
#include "util/metrics.h"

namespace xbench {

using xplain::Database;
using xplain::Result;
using xplain::server::Request;

namespace {

/// In-memory span log of one single-threaded replay.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t op = 0;
    std::string args;  // extra JSON members, without braces
  };

  int Begin(const char* name, uint64_t op) {
    Span span;
    span.name = name;
    span.start_ns = NowNs();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op;
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Ends span `id`; returns its duration in ms.
  double End(int id) {
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
    return (spans_[id].end_ns - spans_[id].start_ns) / 1e6;
  }
  void AddArgs(int id, const std::string& args) { spans_[id].args = args; }

  /// Self time (duration minus the union of its children, which never
  /// overlap in a single-threaded log) of every span, in ms.
  std::vector<double> SelfMs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[span.parent] -= (span.end_ns - span.start_ns) / 1e6;
      }
    }
    return self;
  }

  std::string SelfTimeTable() const {
    struct Row {
      size_t count = 0;
      double self_ms = 0.0;
      double total_ms = 0.0;
    };
    std::map<std::string, Row> rows;
    const std::vector<double> self = SelfMs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      Row& row = rows[spans_[i].name];
      ++row.count;
      row.self_ms += self[i];
      row.total_ms += (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.self_ms > b.second.self_ms;
    });
    std::ostringstream out;
    char line[200];
    std::snprintf(line, sizeof(line), "%-26s %8s %12s %12s %12s\n", "span",
                  "count", "self_ms", "self_ms/op", "total_ms/op");
    out << line;
    for (const auto& [name, row] : sorted) {
      std::snprintf(line, sizeof(line), "%-26s %8zu %12.3f %12.4f %12.4f\n",
                    name.c_str(), row.count, row.self_ms,
                    row.self_ms / row.count, row.total_ms / row.count);
      out << line;
    }
    return out.str();
  }

  /// Chrome trace-event JSON (opens in Perfetto and tools/xplain_trace;
  /// each op's spans share args.trace_id = the op's wire id in hex).
  bool WriteChrome(const std::string& path) const {
    std::string out = "{\"traceEvents\":[";
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (i > 0) out += ",";
      char head[256];
      std::snprintf(head, sizeof(head),
                    "{\"name\":\"%s\",\"cat\":\"xbench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,",
                    span.name, (span.start_ns - origin) / 1e3,
                    (span.end_ns - span.start_ns) / 1e3);
      out += head;
      char ids[128];
      std::snprintf(ids, sizeof(ids),
                    "\"args\":{\"trace_id\":\"%llx\",\"span\":%zu,"
                    "\"parent\":%d",
                    static_cast<unsigned long long>(span.op), i, span.parent);
      out += ids;
      if (!span.args.empty()) out += "," + span.args;
      out += "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    std::ofstream file(path, std::ios::trunc);
    return static_cast<bool>(file << out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; End() closes it early and returns its duration in ms.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, uint64_t op)
      : log_(log), id_(log->Begin(name, op)) {}
  ~Scoped() { End(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  double End() {
    if (!ended_) {
      ms_ = log_->End(id_);
      ended_ = true;
    }
    return ms_;
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  bool ended_ = false;
  double ms_ = 0.0;
};

/// Sum and count of one per-layer quantity.
struct Acc {
  double sum = 0.0;
  size_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double Mean() const { return n == 0 ? 0.0 : sum / n; }
};

double Counter(const std::vector<std::pair<std::string, double>>& snapshot,
               const std::string& name) {
  for (const auto& [key, value] : snapshot) {
    if (key == name) return value;
  }
  return 0.0;
}

std::vector<std::pair<std::string, double>> Counters() {
  return xplain::MetricsRegistry::Global().CounterSnapshot();
}

std::string Num(double v) {
  std::string out;
  xplain::server::AppendJsonNumber(v, &out);
  return out;
}

/// All per-layer accumulators of one replay, keyed by metric name.
using Accs = std::map<std::string, Acc>;

/// Shadow state of a single-node replay: an identical database and engine
/// that the replay drives through the layers' entry points.
struct Shadow {
  std::unique_ptr<Database> db;
  std::unique_ptr<xplain::ExplainEngine> engine;
};

/// Read path on the shadow: parse -> build question -> u_j, additivity ->
/// ExplainResolved (collect_stats) -> serialize. Returns the answer line.
std::string ShadowRead(SpanLog* log, uint64_t op, Shadow* shadow,
                       const std::string& line, Accs* acc) {
  using namespace xplain::server;  // NOLINT
  Scoped parse(log, "server.parse", op);
  Result<Request> request = ParseRequest(line);
  (*acc)["server.parse_ms"].Add(parse.End());
  if (!request.ok()) return "";
  Scoped build(log, "server.build_question", op);
  Result<xplain::UserQuestion> question = BuildQuestion(*shadow->db, *request);
  Result<std::vector<xplain::ColumnRef>> attrs =
      shadow->engine->ResolveAttributes(request->attrs);
  (*acc)["server.build_question_ms"].Add(build.End());
  if (!question.ok() || !attrs.ok()) return "";

  const xplain::UniversalRelation& universal = shadow->engine->universal();
  Scoped evaluate(log, "relational.evaluate", op);
  const double value = question->query.EvaluateOnUniversal(universal);
  const double evaluate_ms = evaluate.End();
  Scoped additivity(log, "core.additivity", op);
  const bool additive =
      xplain::CheckQueryAdditivity(universal, question->query).additive &&
      xplain::CheckCellAdditivity(universal, question->query).additive;
  const double additivity_ms = additivity.End();

  xplain::ExplainOptions options = request->options;
  options.num_threads = 1;
  options.collect_stats = true;
  const auto before = Counters();
  Scoped explain(log, "core.explain", op);
  Result<xplain::ExplainReport> report =
      shadow->engine->ExplainResolved(*question, *attrs, options);
  const double explain_ms = explain.End();
  const auto after = Counters();
  if (!report.ok()) {
    return MakeResponse(request->id, ErrorPayload(report.status()));
  }
  const xplain::QueryStats& stats = report->stats;
  const double originals_ms = report->table.build_stats.originals_ms;
  log->AddArgs(explain.id(),
               "\"originals_ms\":" + Num(originals_ms) +
                   ",\"cube_build_ms\":" + Num(stats.cube_build_ms) +
                   ",\"merge_ms\":" + Num(stats.merge_ms) +
                   ",\"degree_ms\":" + Num(stats.degree_ms) +
                   ",\"topk_ms\":" + Num(stats.topk_ms) +
                   ",\"exact_rescore_ms\":" + Num(stats.exact_rescore_ms) +
                   ",\"original_value\":" + Num(value) +
                   ",\"additive\":" + (additive ? "true" : "false"));
  (*acc)["relational.evaluate_ms"].Add(evaluate_ms);
  (*acc)["core.additivity_ms"].Add(additivity_ms);
  (*acc)["core.explain_ms"].Add(explain_ms);
  (*acc)["relational.originals_ms"].Add(originals_ms);
  (*acc)["relational.cube_build_ms"].Add(stats.cube_build_ms);
  (*acc)["core.merge_ms"].Add(stats.merge_ms);
  (*acc)["core.degree_ms"].Add(stats.degree_ms);
  (*acc)["core.topk_ms"].Add(stats.topk_ms);
  (*acc)["core.exact_rescore_ms"].Add(stats.exact_rescore_ms);
  (*acc)["core.fixpoint_runs_per_read"].Add(stats.fixpoint_runs);
  (*acc)["core.fixpoint_rounds_per_read"].Add(stats.fixpoint_rounds);
  (*acc)["core.unattributed_ms"].Add(
      explain_ms - evaluate_ms - additivity_ms - originals_ms -
      stats.cube_build_ms - stats.merge_ms - stats.degree_ms - stats.topk_ms -
      stats.exact_rescore_ms);
  // Cells the generic and the dictionary-coded cube kernels produced.
  (*acc)["relational.cube_cells_per_read"].Add(
      Counter(after, "cube.cells") + Counter(after, "cube.cached_cells") -
      Counter(before, "cube.cells") - Counter(before, "cube.cached_cells"));
  const double hits = Counter(after, "workspace.cube_hits") -
                      Counter(before, "workspace.cube_hits");
  const double misses = Counter(after, "workspace.cube_misses") -
                        Counter(before, "workspace.cube_misses");
  (*acc)["workspace.cube_hits"].sum += hits;
  (*acc)["workspace.cube_attempts"].sum += hits + misses;

  Scoped serialize(log, "server.serialize", op);
  std::string answer = MakeResponse(
      request->id, ReportPayload(*shadow->db, *report, request->op));
  (*acc)["server.serialize_ms"].Add(serialize.End());
  return answer;
}

/// Delta path on the shadow: BuildDelta -> PlanDelta -> ApplyDeltaPlan ->
/// CommitDelta. Returns the answer line the service sends for it.
std::string ShadowDelta(SpanLog* log, uint64_t op, Shadow* shadow,
                        const std::string& line, Accs* acc) {
  using namespace xplain::server;  // NOLINT
  Scoped parse(log, "server.parse", op);
  Result<Request> request = ParseRequest(line);
  (*acc)["server.parse_ms"].Add(parse.End());
  if (!request.ok()) return "";
  Database& db = *shadow->db;
  size_t rows_before = 0;
  for (int r = 0; r < db.num_relations(); ++r) {
    rows_before += db.relation(r).NumRows();
  }
  Scoped build(log, "server.build_delta", op);
  Result<xplain::DeltaSet> delta = BuildDelta(db, *request);
  (*acc)["server.build_delta_ms"].Add(build.End());
  if (!delta.ok()) {
    return MakeResponse(request->id, ErrorPayload(delta.status()));
  }
  const auto before = Counters();
  Scoped plan_span(log, "core.plan_delta", op);
  xplain::EngineDeltaPlan plan = shadow->engine->PlanDelta(*delta);
  (*acc)["core.plan_delta_ms"].Add(plan_span.End());
  if (plan.rows_removed == 0) {
    shadow->engine->AbortDelta();
  } else {
    Scoped apply(log, "relational.apply_delta", op);
    db.ApplyDeltaPlan(plan.db_plan);
    (*acc)["relational.apply_delta_ms"].Add(apply.End());
    Scoped commit(log, "core.commit_delta", op);
    shadow->engine->CommitDelta(std::move(plan));
    (*acc)["core.commit_delta_ms"].Add(commit.End());
  }
  const auto after = Counters();
  (*acc)["core.cells_patched_per_delta"].Add(
      Counter(after, "workspace.cells_patched") -
      Counter(before, "workspace.cells_patched"));
  (*acc)["core.cells_recomputed_per_delta"].Add(
      Counter(after, "workspace.cells_recomputed") -
      Counter(before, "workspace.cells_recomputed"));
  size_t rows_after = 0;
  for (int r = 0; r < db.num_relations(); ++r) {
    rows_after += db.relation(r).NumRows();
  }
  return MakeResponse(request->id,
                      "\"ok\":true,\"op\":\"DELTA\",\"removed\":" +
                          std::to_string(rows_before - rows_after) +
                          ",\"db_version\":" + std::to_string(db.version()));
}

/// Cluster read path: the coordinator's fan-out re-done from the outside
/// against the in-process shard services — partial lines -> decode ->
/// merge -> (rescore lines -> decode -> finish) -> serialize.
/// `phases_ms` receives the summed time of every timed step.
std::string ClusterRead(SpanLog* log, uint64_t op, const Deployment& dep,
                        const std::string& line, Accs* acc,
                        double* phases_ms) {
  using namespace xplain::server;  // NOLINT
  const Database& catalog = dep.coordinator()->catalog();
  Scoped parse(log, "server.parse", op);
  Result<Request> request = ParseRequest(line);
  const double parse_ms = parse.End();
  (*acc)["server.parse_ms"].Add(parse_ms);
  if (!request.ok()) return "";
  Scoped build(log, "server.build_question", op);
  Result<xplain::UserQuestion> question = BuildQuestion(catalog, *request);
  std::vector<xplain::ColumnRef> attrs;
  for (const std::string& name : request->attrs) {
    Result<xplain::ColumnRef> ref = catalog.ResolveColumn(name);
    if (ref.ok()) attrs.push_back(*ref);
  }
  const double build_ms = build.End();
  (*acc)["server.build_question_ms"].Add(build_ms);
  if (!question.ok()) return "";

  const auto& shards = dep.shards();
  auto fan_out = [&](const Request& shard_request, const char* span_name,
                     double* slowest, double* bytes) {
    std::vector<std::string> responses;
    Request r = shard_request;
    for (const auto& shard : shards) {
      r.expect_version = shard->db_version();
      const std::string shard_line = SerializeRequest(r);
      Scoped call(log, span_name, op);
      responses.push_back(shard->HandleLine(shard_line));
      *slowest = std::max(*slowest, call.End());
      *bytes += responses.back().size();
    }
    return responses;
  };

  Request partial_request = *request;
  partial_request.op = RequestOp::kExplain;
  partial_request.partial = true;
  partial_request.rescore_cells.clear();
  partial_request.has_expect_version = true;
  double partial_ms = 0.0;
  double bytes = 0.0;
  const std::vector<std::string> partial_lines =
      fan_out(partial_request, "cluster.shard_partial", &partial_ms, &bytes);
  (*acc)["cluster.shard_partial_ms"].Add(partial_ms);
  (*acc)["cluster.fragment_bytes"].Add(bytes);

  Scoped decode(log, "cluster.decode", op);
  std::vector<xplain::cluster::ShardPartial> partials;
  for (const std::string& shard_line : partial_lines) {
    Result<xplain::server::JsonValue> json =
        xplain::server::JsonValue::Parse(shard_line);
    Result<xplain::cluster::ShardPartial> partial =
        xplain::cluster::ParsePartialPayload(shard_line);
    if (!json.ok() || !partial.ok()) return "";
    partials.push_back(std::move(*partial));
  }
  double decode_ms = decode.End();

  Scoped merge(log, "cluster.merge", op);
  Result<xplain::cluster::MergedExplain> merged =
      xplain::cluster::MergePartials(*question, attrs, request->options,
                                     partials);
  const double merge_ms = merge.End();
  (*acc)["cluster.merge_ms"].Add(merge_ms);
  if (!merged.ok()) {
    return MakeResponse(request->id, ErrorPayload(merged.status()));
  }

  double rescore_ms = 0.0;
  double finish_ms = 0.0;
  const bool rescore_round = merged->need_rescore;
  if (rescore_round) {
    Request rescore_request = *request;
    rescore_request.op = RequestOp::kExplain;
    rescore_request.partial = false;
    rescore_request.has_expect_version = true;
    rescore_request.rescore_cells.clear();
    for (const xplain::RankedExplanation& candidate : merged->pool) {
      rescore_request.rescore_cells.push_back(
          merged->report.table.coords[candidate.m_row]);
    }
    double rescore_bytes = 0.0;
    const std::vector<std::string> rescore_lines = fan_out(
        rescore_request, "cluster.shard_rescore", &rescore_ms, &rescore_bytes);
    (*acc)["cluster.shard_rescore_ms"].Add(rescore_ms);
    Scoped decode_rescore(log, "cluster.decode", op);
    std::vector<std::vector<std::vector<double>>> values;
    for (const std::string& shard_line : rescore_lines) {
      Result<xplain::server::JsonValue> json =
          xplain::server::JsonValue::Parse(shard_line);
      if (!json.ok()) return "";
      const xplain::server::JsonValue* rescored = json->Find("rescored");
      if (rescored == nullptr || !rescored->is_array()) return "";
      std::vector<std::vector<double>> shard_values;
      for (const auto& row : rescored->array_items()) {
        std::vector<double> cell;
        for (const auto& item : row.array_items()) {
          cell.push_back(item.number_value());
        }
        shard_values.push_back(std::move(cell));
      }
      values.push_back(std::move(shard_values));
    }
    decode_ms += decode_rescore.End();
    Scoped finish(log, "cluster.finish_rescore", op);
    const xplain::Status finished = xplain::cluster::FinishRescore(
        *question, request->options, values, &*merged);
    finish_ms = finish.End();
    (*acc)["cluster.finish_rescore_ms"].Add(finish_ms);
    if (!finished.ok()) {
      return MakeResponse(request->id, ErrorPayload(finished));
    }
  }
  (*acc)["cluster.decode_ms"].Add(decode_ms);
  (*acc)["cluster.rounds_per_read"].Add(rescore_round ? 2 : 1);

  Scoped serialize(log, "server.serialize", op);
  std::string answer = MakeResponse(
      request->id, ReportPayload(catalog, merged->report, request->op));
  const double serialize_ms = serialize.End();
  (*acc)["server.serialize_ms"].Add(serialize_ms);
  *phases_ms = parse_ms + build_ms + partial_ms + decode_ms + merge_ms +
               rescore_ms + finish_ms + serialize_ms;
  return answer;
}

/// Sets up a fresh deployment and its shadow, then replays the ops `next`
/// yields (in order, one client) through the service and the shadow,
/// recording spans into `log` and per-layer sums into `acc`.
void ReplaySession(
    const WorkloadSpec& spec, uint64_t seed, SpanLog* log_ptr, Accs* acc_ptr,
    LayerReport* report_ptr,
    const std::function<bool(const OpSource&, uint64_t, Op*)>& next) {
  SpanLog& log = *log_ptr;
  Accs& acc = *acc_ptr;
  LayerReport& report = *report_ptr;
  auto fail = [&](const std::string& what) { report.errors.push_back(what); };
  Result<std::unique_ptr<Deployment>> started =
      Deployment::Start(spec, seed, 256);
  if (!started.ok()) {
    return fail("replay setup: " + started.status().ToString());
  }
  const Deployment& dep = **started;
  acc["datagen.generate_ms"].Add(dep.generate_ms());

  Shadow shadow;
  std::vector<const Database*> setup_dbs;
  if (dep.service() != nullptr) {
    Result<Database> db = GenerateData(spec, seed);
    if (!db.ok()) return fail("shadow data: " + db.status().ToString());
    shadow.db = std::make_unique<Database>(std::move(*db));
    setup_dbs.push_back(shadow.db.get());
  } else {
    for (const auto& shard : dep.shards()) setup_dbs.push_back(&shard->db());
  }
  for (const Database* db : setup_dbs) {
    Scoped build(&log, "relational.universal_build", 0);
    Result<xplain::UniversalRelation> universal =
        xplain::UniversalRelation::Build(*db);
    acc["relational.universal_build_ms"].Add(build.End());
    Scoped create(&log, "core.engine_create", 0);
    Result<xplain::ExplainEngine> engine = xplain::ExplainEngine::Create(db);
    acc["core.engine_create_ms"].Add(create.End());
    if (!universal.ok() || !engine.ok()) return fail("shadow engine");
    if (shadow.db != nullptr) {
      shadow.engine =
          std::make_unique<xplain::ExplainEngine>(std::move(*engine));
    }
  }
  if (shadow.engine != nullptr) {
    // Warm the shadow workspace exactly as the prefill warmed the service.
    SpanLog scratch;
    Accs ignored;
    for (const Op& op : dep.ops().Prefill()) {
      ShadowRead(&scratch, op.id, &shadow, op.line, &ignored);
    }
  }

  Result<xplain::server::TcpClient> client =
      xplain::server::TcpClient::Connect("127.0.0.1", dep.port());
  if (!client.ok()) {
    return fail("replay connect: " + client.status().ToString());
  }

  auto replay = [&](const Op& op) {
    const bool cluster = dep.coordinator() != nullptr;
    Scoped root(&log, op.delta ? "op.delta" : "op.read", op.id);
    const auto stats_before = cluster ? xplain::server::XplaindService::Stats()
                                      : dep.service()->GetStats();
    const auto counters_before = Counters();
    Scoped trip(&log, "server.tcp_roundtrip", op.id);
    Result<std::string> served = client->Call(op.line);
    const double trip_ms = trip.End();
    const auto counters_after = Counters();
    acc["util.threadpool_tasks_per_op"].Add(
        Counter(counters_after, "threadpool.tasks") -
        Counter(counters_before, "threadpool.tasks"));
    if (!served.ok()) {
      report.errors.push_back("replay op " + std::to_string(op.id) + ": " +
                              served.status().ToString());
      return;
    }
    ++report.replayed;
    std::string answer;
    // Cache hits are re-read from the same service, which returns the
    // cached bytes again: they are compared, but not counted as checked.
    bool independent = true;
    if (cluster) {
      if (op.delta) return;  // cluster deltas: round trip only
      Scoped handle(&log, "cluster.handle_line", op.id);
      const std::string again = dep.coordinator()->HandleLine(op.line);
      const double handle_ms = handle.End();
      acc["cluster.handle_line_ms"].Add(handle_ms);
      if (again != *served) {
        ++report.mismatches;
        report.errors.push_back("coordinator answered op " +
                                std::to_string(op.id) + " differently twice");
      }
      double phases_ms = 0.0;
      answer = ClusterRead(&log, op.id, dep, op.line, &acc, &phases_ms);
      acc["cluster.unattributed_ms"].Add(handle_ms - phases_ms);
    } else if (op.delta) {
      answer = ShadowDelta(&log, op.id, &shadow, op.line, &acc);
      const auto stats_after = dep.service()->GetStats();
      acc["server.cache_rekeyed_per_delta"].Add(stats_after.cache.rekeyed -
                                                stats_before.cache.rekeyed);
      acc["server.cache_invalidated_per_delta"].Add(
          stats_after.cache.invalidations - stats_before.cache.invalidations);
    } else if (dep.service()->GetStats().cache_hits > stats_before.cache_hits) {
      // Served from the response cache: time the same line in-process to
      // split the round trip into service time and transport.
      Scoped handle(&log, "server.handle_line", op.id);
      answer = dep.service()->HandleLine(op.line);
      const double handle_ms = handle.End();
      acc["server.handle_line_ms"].Add(handle_ms);
      acc["server.transport_ms"].Add(trip_ms - handle_ms);
      independent = false;
      ++report.cache_hits;
    } else {
      answer = ShadowRead(&log, op.id, &shadow, op.line, &acc);
    }
    if (independent) ++report.recomputed;
    if (answer != *served) {
      ++report.mismatches;
      report.errors.push_back("replayed op " + std::to_string(op.id) +
                              " differs from the served answer\n  served:   " +
                              served->substr(0, 300) + "\n  replayed: " +
                              answer.substr(0, 300));
    }
  };

  Op op;
  for (uint64_t i = 0; next(dep.ops(), i, &op); ++i) replay(op);
}

}  // namespace

LayerReport RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
                      const LoadResult& timed, const std::string& trace_path) {
  LayerReport report;
  Accs acc;
  auto fail = [&](const std::string& what) {
    report.errors.push_back(what);
    return report;
  };

  // Part 1: the timed run again, with every flight record kept.
  {
    Result<std::unique_ptr<Deployment>> dep =
        Deployment::Start(spec, seed, size_t{1} << 20);
    if (!dep.ok()) return fail("traced setup: " + dep.status().ToString());
    WarmCpus(1.0);
    const LoadResult traced = RunLoad(spec, **dep, seconds, {});
    using xplain::server::FlightRecord;
    using xplain::server::RequestOp;
    for (const FlightRecord& record : (*dep)->FlightRecords()) {
      const bool read = record.op == RequestOp::kExplain ||
                        record.op == RequestOp::kTopK;
      if (read && record.cache != FlightRecord::CacheOutcome::kHit) {
        acc["server.queue_wait_ms"].Add(record.queue_us / 1000.0);
      }
    }
    double hits = 0.0;
    double served = 0.0;
    std::vector<xplain::server::XplaindService*> services;
    if ((*dep)->service() != nullptr) services.push_back((*dep)->service());
    for (const auto& shard : (*dep)->shards()) services.push_back(shard.get());
    for (auto* service : services) {
      const auto stats = service->GetStats();
      hits += stats.cache_hits;
      served += stats.served;
    }
    acc["server.cache_hit_rate"].Add(served == 0 ? 0.0 : hits / served);
    auto ok_rate = [](const LoadResult& load) {
      size_t ok = 0;
      for (const Sample& s : load.window) ok += s.ok;
      return ok / load.window_s;
    };
    // The recorder runs in both rounds (the timed one keeps 256 records),
    // and the benchmark's spans sit outside the served path (part 2), so
    // this is only the cost of keeping every flight record, as seen by
    // two single rounds: it is within their noise.
    acc["trace.overhead_pct"].Add(
        100.0 * (ok_rate(timed) / std::max(1e-9, ok_rate(traced)) - 1.0));
  }

  // Part 2: one-client replays, each on a fresh deployment and shadow:
  // the window ops the timed run sent, as far as `seconds` of replay
  // reaches, then the workload's probe deltas.
  SpanLog log;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  ReplaySession(spec, seed, &log, &acc, &report,
                [&](const OpSource& ops, uint64_t i, Op* op) {
                  if (i >= timed.window.size() || NowNs() >= deadline) {
                    return false;
                  }
                  *op = ops.Window(i);
                  return true;
                });
  ReplaySession(spec, seed, &log, &acc, &report,
                [&](const OpSource& ops, uint64_t j, Op* op) {
                  if (j >= spec.probe_deltas) return false;
                  *op = ops.Probe(j);
                  return true;
                });

  const double hits = acc["workspace.cube_hits"].sum;
  const double attempts = acc["workspace.cube_attempts"].sum;
  acc["core.workspace_cube_hit_rate"].Add(attempts == 0 ? 0.0
                                                        : hits / attempts);

  static const char* kNames[] = {
      "datagen.generate_ms",         "relational.universal_build_ms",
      "relational.cube_build_ms",    "relational.originals_ms",
      "relational.evaluate_ms",      "relational.apply_delta_ms",
      "relational.cube_cells_per_read", "core.engine_create_ms",
      "core.explain_ms",             "core.additivity_ms",
      "core.merge_ms",               "core.degree_ms",
      "core.topk_ms",                "core.exact_rescore_ms",
      "core.fixpoint_runs_per_read", "core.fixpoint_rounds_per_read",
      "core.unattributed_ms",        "core.workspace_cube_hit_rate",
      "core.plan_delta_ms",          "core.commit_delta_ms",
      "core.cells_patched_per_delta", "core.cells_recomputed_per_delta",
      "server.parse_ms",             "server.transport_ms",
      "server.build_question_ms",    "server.serialize_ms",
      "server.handle_line_ms",       "server.build_delta_ms",
      "server.queue_wait_ms",        "server.cache_hit_rate",
      "server.cache_rekeyed_per_delta", "server.cache_invalidated_per_delta",
      "cluster.handle_line_ms",      "cluster.shard_partial_ms",
      "cluster.shard_rescore_ms",    "cluster.decode_ms",
      "cluster.merge_ms",            "cluster.finish_rescore_ms",
      "cluster.fragment_bytes",      "cluster.rounds_per_read",
      "cluster.unattributed_ms",     "util.threadpool_tasks_per_op",
      "trace.overhead_pct"};
  for (const char* name : kNames) {
    const Acc& a = acc[name];
    report.metrics.emplace_back(name, a.Mean());
    report.samples.emplace_back(name, a.n);
  }
  report.self_time_table = log.SelfTimeTable();
  if (!trace_path.empty() && log.WriteChrome(trace_path)) {
    report.trace_path = trace_path;
  }
  return report;
}

}  // namespace xbench
