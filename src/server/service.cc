#include "server/service.h"

#include <utility>

#include "relational/ddl.h"
#include "server/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace xplain {
namespace server {

namespace {

/// Per-thread trace buffer cap a sampling daemon runs under: always-on
/// sampling must not grow memory without bound (DESIGN.md §12).
constexpr size_t kSamplingEventCap = 1u << 16;

/// Server-side end-to-end latency histogram of `op` (dispatch to response
/// handoff, cache hits and errors included), or nullptr for the meta ops.
/// Pointers resolve once; steady-state cost is one relaxed record.
Histogram* PerOpLatencyHistogram(RequestOp op) {
  static Histogram* explain_us =
      MetricsRegistry::Global().GetHistogram("server.op.explain_us");
  static Histogram* topk_us =
      MetricsRegistry::Global().GetHistogram("server.op.topk_us");
  static Histogram* delta_us =
      MetricsRegistry::Global().GetHistogram("server.op.delta_us");
  switch (op) {
    case RequestOp::kExplain:
      return explain_us;
    case RequestOp::kTopK:
      return topk_us;
    case RequestOp::kDelta:
      return delta_us;
    default:
      return nullptr;
  }
}

/// One `"<op>":{"count":N,"p50_us":X,"p99_us":Y}` member of the STATS
/// latency object, from the process-wide per-op histogram.
void AppendOpLatency(const char* key, const Histogram& h, std::string* out) {
  *out += "\"";
  *out += key;
  *out += "\":{\"count\":" + std::to_string(h.count());
  *out += ",\"p50_us\":";
  AppendJsonNumber(HistogramPercentile(h, 50.0), out);
  *out += ",\"p99_us\":";
  AppendJsonNumber(HistogramPercentile(h, 99.0), out);
  *out += "}";
}

}  // namespace

Result<std::unique_ptr<XplaindService>> XplaindService::Create(
    Database db, const ServiceOptions& options) {
  std::unique_ptr<XplaindService> service(
      new XplaindService(std::move(db), options));
  {
    WriterMutexLock lock(&service->db_mu_);
    XPLAIN_ASSIGN_OR_RETURN(ExplainEngine engine,
                            ExplainEngine::Create(&service->db_));
    service->engine_ = std::make_unique<ExplainEngine>(std::move(engine));
  }
  return service;
}

XplaindService::XplaindService(Database db, const ServiceOptions& options)
    : options_(options), db_(std::move(db)) {
  const int workers = options_.num_workers == 0
                          ? ThreadPool::DefaultNumThreads()
                          : options_.num_workers;
  admission_capacity_ =
      static_cast<size_t>(workers < 1 ? 1 : workers) +
      options_.max_queue_depth;
  pool_ = std::make_unique<ThreadPool>(workers);
  if (options_.enable_cache) {
    cache_ = std::make_unique<ExplainCache>(options_.cache);
  }
  flight_ = std::make_unique<FlightRecorder>(options_.flight_capacity,
                                             options_.slow_query_us);
  if (options_.trace_sample_period > 0) {
    // Sampling implies collection: bound the per-thread buffers so an
    // always-sampling daemon runs in fixed trace memory.
    Trace::SetPerThreadEventCap(kSamplingEventCap);
    Trace::Enable();
  }
}

XplaindService::~XplaindService() {
  Drain();
  // Workers capture `this`; join them before any member is destroyed.
  pool_->Shutdown();
}

std::string XplaindService::HandleLine(const std::string& line) {
  return SubmitLine(line).get();
}

std::future<std::string> XplaindService::SubmitLine(const std::string& line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  SubmitLineWith(line, [promise](std::string response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void XplaindService::SubmitLineWith(const std::string& line,
                                    std::function<void(std::string)> done) {
  // Dispatch timestamp: feeds both the flight record and (when sampled)
  // the rpc.dispatch span, so it is read unconditionally.
  const int64_t arrive_us = Trace::NowMicros();
  XPLAIN_COUNTER_ADD("server.requests", 1);
  {
    MutexLock lock(&mu_);
    ++received_;
  }

  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    XPLAIN_COUNTER_ADD("server.parse_errors", 1);
    {
      MutexLock lock(&mu_);
      ++errors_;
    }
    done(
        MakeResponse(ExtractRequestId(line), ErrorPayload(parsed.status())));
    return;
  }
  const Request& request = *parsed;

  // From here on every span (and the worker's, which re-installs the same
  // context) carries the request's trace identity — or records nothing
  // when the request is unsampled.
  const TraceContext trace_context = ResolveTrace(request);
  TraceContextScope trace_scope(trace_context);
  Trace::RecordManual("rpc.dispatch", arrive_us, Trace::NowMicros());

  // The flight-record skeleton of the counted ops (EXPLAIN/TOPK/DELTA);
  // meta ops below return before touching it, so FLIGHT polling can never
  // flood the ring it is inspecting.
  FlightRecord record;
  record.request_id = request.id;
  record.trace_id = trace_context.sampled ? trace_context.trace_id : 0;
  record.op = request.op;
  record.start_us = arrive_us;

  if (request.op == RequestOp::kStats) {
    XPLAIN_TRACE_SPAN("rpc.stats");
    done(MakeResponse(request.id, StatsPayload(request.want_schema)));
    return;
  }
  if (request.op == RequestOp::kMetrics) {
    XPLAIN_TRACE_SPAN("rpc.metrics");
    done(MakeResponse(request.id, MetricsPayload()));
    return;
  }
  if (request.op == RequestOp::kFlight) {
    XPLAIN_TRACE_SPAN("rpc.flight");
    done(MakeResponse(request.id, flight_->DumpPayload()));
    return;
  }
  if (request.op == RequestOp::kDrain) {
    XPLAIN_TRACE_SPAN("rpc.drain");
    Drain();
    done(MakeResponse(request.id, StatsPayload()));
    return;
  }

  record.db_version = db_version();

  if (draining()) {
    {
      MutexLock lock(&mu_);
      ++errors_;
    }
    const Status unavailable = Status::Unavailable("service is draining");
    record.code = unavailable.code();
    CompleteRequest(std::move(record), done,
                    MakeResponse(request.id, ErrorPayload(unavailable)));
    return;
  }

  // Version fence (DESIGN.md §13): fail fast at dispatch when the client
  // pinned a version this node no longer serves. ExecutePayload and
  // DeltaPayload recheck under their locks — this early check only saves
  // the queueing, it is not the authoritative one.
  if (request.has_expect_version &&
      db_version() != request.expect_version) {
    {
      MutexLock lock(&mu_);
      ++errors_;
    }
    const Status stale = Status::FailedPrecondition(
        "database version is " + std::to_string(db_version()) +
        ", request expected " + std::to_string(request.expect_version));
    record.code = stale.code();
    CompleteRequest(std::move(record), done,
                    MakeResponse(request.id, ErrorPayload(stale)));
    return;
  }

  if (request.op == RequestOp::kDelta) {
    // Synchronous on the transport thread, like DRAIN: a delta is a
    // serialized mutation, not pool work.
    const int64_t execute_start_us = Trace::NowMicros();
    std::string payload = DeltaPayload(request, &record.code);
    record.execute_us = Trace::NowMicros() - execute_start_us;
    record.db_version = db_version();
    CompleteRequest(std::move(record), done,
                    MakeResponse(request.id, std::move(payload)));
    return;
  }

  // Cache lookup happens before admission: hits cost no worker slot. The
  // database version is part of the key, so a stale entry can never match.
  // A version-fenced request keys on its *expected* version: a hit is then
  // version-correct by construction even if a delta lands between this
  // probe and the fence recheck. Rescore requests bypass the cache both
  // ways — their answers are per-cell program-P runs the coordinator never
  // repeats against the same version.
  std::string cache_key;
  const bool cacheable = request.rescore_cells.empty();
  if (cache_ != nullptr && cacheable) {
    TraceSpan probe_span("rpc.cache_probe");
    record.cache = FlightRecord::CacheOutcome::kMiss;
    const uint64_t key_version = request.has_expect_version
                                     ? request.expect_version
                                     : db_version();
    cache_key = "v=" + std::to_string(key_version) + ";" +
                CanonicalRequestKey(request);
    std::optional<std::string> hit = cache_->Lookup(cache_key);
    if (hit.has_value()) {
      {
        MutexLock lock(&mu_);
        ++served_;
        ++cache_hits_;
      }
      probe_span.End();
      record.cache = FlightRecord::CacheOutcome::kHit;
      CompleteRequest(std::move(record), done,
                      MakeResponse(request.id, *std::move(hit)));
      return;
    }
  }

  std::string reject_payload;
  if (!Admit(&reject_payload)) {
    record.code = StatusCode::kResourceExhausted;
    CompleteRequest(std::move(record), done,
                    MakeResponse(request.id, std::move(reject_payload)));
    return;
  }

  const int64_t admit_us = Trace::NowMicros();
  std::future<Status> submitted = pool_->Submit(
      [this, request, cache_key = std::move(cache_key), done, trace_context,
       record, admit_us]() mutable {
        TraceContextScope trace_scope(trace_context);
        const int64_t execute_start_us = Trace::NowMicros();
        record.queue_us = execute_start_us - admit_us;
        Trace::RecordManual("rpc.queue_wait", admit_us, execute_start_us);
        if (options_.execute_hook) options_.execute_hook();
        bool ok = false;
        std::shared_ptr<const CacheReadSet> read_set;
        std::string payload =
            ExecutePayload(request, &ok, &record.code, &read_set);
        if (ok && cache_ != nullptr && !cache_key.empty()) {
          cache_->Insert(cache_key, payload, std::move(read_set));
        }
        {
          MutexLock lock(&mu_);
          if (ok) {
            ++served_;
          } else {
            ++errors_;
          }
        }
        record.execute_us = Trace::NowMicros() - execute_start_us;
        // Completion precedes FinishOne so a Drain() that observed this
        // request as pending only returns once its response was handed
        // off and its flight record landed — a drain-time FLIGHT dump is
        // exact, never missing a just-finished request.
        CompleteRequest(std::move(record), done,
                        MakeResponse(request.id, std::move(payload)));
        FinishOne();
        return Status::OK();
      });
  if (!submitted.valid()) {
    // Unreachable with a live pool; keep the contract airtight anyway.
    FinishOne();
    done(MakeResponse(
        request.id, ErrorPayload(Status::Internal("worker pool rejected"))));
  }
}

TraceContext XplaindService::ResolveTrace(const Request& request) {
  TraceContext context;
  if (request.has_trace) {
    context.sampled = request.trace_sampled;
    context.trace_id = request.trace_id;
    if (context.sampled && context.trace_id == 0) {
      context.trace_id = Trace::NextTraceId();
    }
    return context;
  }
  if (options_.trace_sample_period > 0) {
    const uint64_t tick =
        sample_counter_.fetch_add(1, std::memory_order_relaxed);
    context.sampled = tick % options_.trace_sample_period == 0;
    if (context.sampled) context.trace_id = Trace::NextTraceId();
    return context;
  }
  // No wire context and no sampling: the default context (process-global
  // recording whenever tracing is enabled — the pre-serving behavior).
  return context;
}

void XplaindService::CompleteRequest(
    FlightRecord record, const std::function<void(std::string)>& done,
    std::string response) {
  record.bytes = response.size();
  const int64_t flush_start_us = Trace::NowMicros();
  {
    TraceSpan flush_span("rpc.flush");
    done(std::move(response));
  }
  const int64_t end_us = Trace::NowMicros();
  record.flush_us = end_us - flush_start_us;
  if (Histogram* latency = PerOpLatencyHistogram(record.op)) {
    latency->Record(static_cast<double>(end_us - record.start_us));
  }
  if (flight_->Record(record)) {
    XPLAIN_LOG(kWarning) << "slow query: op=" << RequestOpToString(record.op)
                         << " id=" << record.request_id
                         << " trace=" << TraceIdToHex(record.trace_id)
                         << " code=" << StatusCodeToString(record.code)
                         << " cache=" << CacheOutcomeToString(record.cache)
                         << " queue_us=" << record.queue_us
                         << " execute_us=" << record.execute_us
                         << " flush_us=" << record.flush_us
                         << " bytes=" << record.bytes;
  }
}

std::string XplaindService::ExecutePayload(
    const Request& request, bool* ok, StatusCode* code,
    std::shared_ptr<const CacheReadSet>* read_set) {
  XPLAIN_TRACE_SPAN("rpc.execute");
  const int64_t start_us = Trace::NowMicros();
  *ok = false;
  *code = StatusCode::kOk;
  ReaderMutexLock lock(&db_mu_);
  std::string payload;
  // Authoritative version fence: under the reader lock no delta can commit
  // until this request finishes, so a passing check holds for the whole
  // computation (DESIGN.md §13).
  Result<UserQuestion> question =
      request.has_expect_version && db_.version() != request.expect_version
          ? Result<UserQuestion>(Status::FailedPrecondition(
                "database version is " + std::to_string(db_.version()) +
                ", request expected " +
                std::to_string(request.expect_version)))
          : BuildQuestion(db_, request);
  if (!question.ok()) {
    *code = question.status().code();
    payload = ErrorPayload(question.status());
  } else if (!request.rescore_cells.empty() || request.partial) {
    // Cluster shard paths (DESIGN.md §13): a rescore runs program P per
    // candidate cell; a partial builds the unpruned table-M fragment. Both
    // serialize with this node's db_version so the coordinator can detect
    // torn fan-outs.
    payload = [&]() -> std::string {
      Result<std::vector<ColumnRef>> attrs =
          engine_->ResolveAttributes(request.attrs);
      if (!attrs.ok()) {
        *code = attrs.status().code();
        return ErrorPayload(attrs.status());
      }
      if (!request.rescore_cells.empty()) {
        Result<std::vector<std::vector<double>>> values =
            engine_->RescoreCells(*question, *attrs, request.rescore_cells);
        if (!values.ok()) {
          *code = values.status().code();
          return ErrorPayload(values.status());
        }
        *ok = true;
        TraceSpan serialize_span("rpc.serialize_rescore");
        return RescorePayload(*values, db_.version());
      }
      Result<PartialExplainReport> partial =
          engine_->ExplainPartialResolved(*question, *attrs,
                                          request.options);
      if (!partial.ok()) {
        *code = partial.status().code();
        return ErrorPayload(partial.status());
      }
      *ok = true;
      if (read_set != nullptr) {
        // A partial ships *every* cube cell, so any deletion can change
        // it: always conservative (never survives a delta).
        auto rs = std::make_shared<CacheReadSet>();
        rs->conservative = true;
        *read_set = rs;
      }
      TraceSpan serialize_span("rpc.serialize_partial");
      return PartialReportPayload(*partial, db_.version());
    }();
  } else {
    Result<ExplainReport> report =
        engine_->Explain(*question, request.attrs, request.options);
    if (!report.ok()) {
      *code = report.status().code();
      payload = ErrorPayload(report.status());
    } else {
      TraceSpan serialize_span("rpc.serialize");
      payload = ReportPayload(db_, *report, request.op);
      *ok = true;
      if (read_set != nullptr) {
        // What the answer read: the subquery filters (cube cells and
        // q_j(D) totals are functions of the rows satisfying them). The
        // payload is a pure function of those rows only when every part
        // of it is — which excludes:
        //   - EXPLAIN payloads: "candidates" counts every table-M cell,
        //     and a deletion can erase a cell no filter ever read;
        //   - exact-rescored answers: program P ran over every row;
        //   - min_support > 0: support prunes on whole-cell row counts;
        //   - non-intervention rankings (aggravation of an all-zero cell
        //     is expression-dependent, e.g. 0/0);
        //   - any served degree at or below the no-change degree
        //     sign(dir) * Q(D): a deletion can only erase cells whose
        //     every filter-contribution is zero, and such a cell's
        //     intervention degree is exactly the no-change degree — so
        //     an erased cell can sit in (or pad) the served list iff
        //     some listed degree is <= that floor.
        // Anything impure is marked conservative: it depends on every
        // row and cannot survive any delta (DESIGN.md §10).
        auto rs = std::make_shared<CacheReadSet>();
        for (const AggregateQuery& q : question->query.subqueries()) {
          rs->filters.push_back(q.where);
        }
        bool pure = request.op == RequestOp::kTopK &&
                    !report->exact_rescored &&
                    request.options.degree == DegreeKind::kIntervention &&
                    request.options.min_support <= 0.0;
        const double no_change = InterventionSign(question->direction) *
                                 report->original_value;
        for (const RankedExplanation& ranked : report->explanations) {
          pure = pure && ranked.degree > no_change;
        }
        rs->conservative = !pure;
        *read_set = std::move(rs);
      }
    }
  }
  XPLAIN_HISTOGRAM_RECORD(
      "server.request_us",
      static_cast<double>(Trace::NowMicros() - start_us));
  return payload;
}

bool XplaindService::Admit(std::string* reject_payload) {
  MutexLock lock(&mu_);
  if (pending_ >= admission_capacity_) {
    ++rejected_;
    XPLAIN_COUNTER_ADD("server.rejected", 1);
    *reject_payload = ErrorPayload(Status::ResourceExhausted(
        "admission queue full (" + std::to_string(admission_capacity_) +
        " requests pending)"));
    return false;
  }
  ++pending_;
  PublishInFlight(pending_);
  return true;
}

void XplaindService::FinishOne() {
  MutexLock lock(&mu_);
  --pending_;
  PublishInFlight(pending_);
  if (pending_ == 0) idle_cv_.SignalAll();
}

void XplaindService::PublishInFlight(size_t pending) {
  XPLAIN_GAUGE_SET("server.in_flight", static_cast<int64_t>(pending));
}

void XplaindService::Drain() {
  XPLAIN_TRACE_SPAN("rpc.drain_wait");
  // ordering: release — publishes every pre-drain write to transports that
  // acquire-load draining() and observe true.
  draining_.store(true, std::memory_order_release);
  MutexLock lock(&mu_);
  while (pending_ != 0) idle_cv_.Wait(&mu_);
  // Flush the load gauge now that the service is quiescent.
  PublishInFlight(pending_);
  XPLAIN_LOG(kInfo) << "xplaind drained: served=" << served_
                    << " cache_hits=" << cache_hits_
                    << " rejected=" << rejected_ << " errors=" << errors_;
}

XplaindService::Stats XplaindService::GetStats() const {
  Stats stats;
  {
    MutexLock lock(&mu_);
    stats.received = received_;
    stats.served = served_;
    stats.cache_hits = cache_hits_;
    stats.rejected = rejected_;
    stats.errors = errors_;
    stats.in_flight = static_cast<int64_t>(pending_);
  }
  stats.db_version = db_version();
  if (cache_ != nullptr) stats.cache = cache_->GetStats();
  return stats;
}

std::string XplaindService::StatsPayload(bool want_schema) const {
  const Stats stats = GetStats();
  std::string out = "\"ok\":true,\"op\":\"STATS\",";
  out += "\"db_version\":" + std::to_string(stats.db_version);
  if (want_schema) {
    // Schema DDL for coordinator bootstrap (DESIGN.md §13): round-trips
    // through ParseSchema + CreateDatabase into a rows-free catalog.
    out += ",\"schema\":";
    ReaderMutexLock lock(&db_mu_);
    AppendJsonString(SchemaToDdl(db_), &out);
  }
  out += ",\"received\":" + std::to_string(stats.received);
  out += ",\"served\":" + std::to_string(stats.served);
  out += ",\"cache_hits\":" + std::to_string(stats.cache_hits);
  out += ",\"rejected\":" + std::to_string(stats.rejected);
  out += ",\"errors\":" + std::to_string(stats.errors);
  out += ",\"in_flight\":" + std::to_string(stats.in_flight);
  out += ",\"draining\":";
  out += draining() ? "true" : "false";
  out += ",\"cache\":{";
  out += "\"hits\":" + std::to_string(stats.cache.hits);
  out += ",\"misses\":" + std::to_string(stats.cache.misses);
  out += ",\"evictions\":" + std::to_string(stats.cache.evictions);
  out += ",\"invalidations\":" + std::to_string(stats.cache.invalidations);
  out += ",\"full_invalidations\":" +
         std::to_string(stats.cache.full_invalidations);
  out += ",\"targeted_invalidations\":" +
         std::to_string(stats.cache.targeted_invalidations);
  out += ",\"rekeyed\":" + std::to_string(stats.cache.rekeyed);
  out += ",\"entries\":" + std::to_string(stats.cache.entries);
  out += ",\"bytes\":" + std::to_string(stats.cache.bytes);
  out += "}";
  // Server-side per-op latency, derived from the process-wide log2
  // histograms (dispatch to response handoff; cache hits included).
  out += ",\"latency\":{";
  AppendOpLatency("explain", *PerOpLatencyHistogram(RequestOp::kExplain),
                  &out);
  out += ",";
  AppendOpLatency("topk", *PerOpLatencyHistogram(RequestOp::kTopK), &out);
  out += ",";
  AppendOpLatency("delta", *PerOpLatencyHistogram(RequestOp::kDelta), &out);
  out += "}";
  return out;
}

std::string XplaindService::MetricsPayload() const {
  std::string out =
      "\"ok\":true,\"op\":\"METRICS\","
      "\"content_type\":\"text/plain; version=0.0.4\",\"exposition\":";
  AppendJsonString(MetricsRegistry::Global().PrometheusText(), &out);
  return out;
}

namespace {

/// The single emission site of the per-process delta counter (every
/// ApplyDelta outcome short of an error funnels through here).
Status CountDeltaApplied() {
  XPLAIN_COUNTER_ADD("server.deltas_applied", 1);
  return Status::OK();
}

}  // namespace

Status XplaindService::ApplyDelta(const DeltaSet& delta) {
  // Deltas serialize against each other; requests do NOT wait here — they
  // contend only on db_mu_, which ApplyDeltaLocked holds exclusively just
  // for the final swap.
  MutexLock delta_lock(&delta_mu_);
  return ApplyDeltaLocked(delta);
}

Status XplaindService::ApplyDeltaLocked(const DeltaSet& delta) {
  XPLAIN_TRACE_SPAN("rpc.apply_delta");

  // Phase A (read-only, concurrent with requests): close the delta, remap
  // U(D), patch the cube workspace, recompute the unique-core signature.
  EngineDeltaPlan plan;
  uint64_t old_version = 0;
  {
    ReaderMutexLock lock(&db_mu_);
    plan = engine_->PlanDelta(delta);
    old_version = db_.version();
  }
  if (options_.delta_plan_hook) options_.delta_plan_hook();

  if (plan.rows_removed == 0) {
    // Empty delta (possibly after closure): nothing changes, no version
    // bump, cache untouched.
    ReaderMutexLock lock(&db_mu_);
    engine_->AbortDelta();
    return CountDeltaApplied();
  }

  // Probe which cached entries the removed rows can affect, against the
  // OLD U(D) (still live under the reader lock). An entry survives the
  // version bump iff no removed universal row satisfies any of its
  // subquery filters — then neither its cube cells nor its q_j(D) grand
  // totals changed. A flipped unique-core signature can change additivity
  // verdicts, which every entry depends on, so that forces a full wipe.
  bool full_wipe = plan.signature_changed;
  std::vector<std::string> keep;
  const std::string old_prefix = "v=" + std::to_string(old_version) + ";";
  if (cache_ != nullptr && !full_wipe) {
    const auto snapshot = cache_->SnapshotReadSets();
    ReaderMutexLock lock(&db_mu_);
    const UniversalRelation& universal = engine_->universal();
    const std::vector<uint32_t>& removed = plan.remap.removed_universal;
    if (snapshot.size() * removed.size() > options_.max_targeted_probe) {
      full_wipe = true;
    } else {
      for (const auto& [key, read_set] : snapshot) {
        if (key.compare(0, old_prefix.size(), old_prefix) != 0) continue;
        if (read_set == nullptr || read_set->conservative) continue;
        bool touched = false;
        for (uint32_t u : removed) {
          for (const DnfPredicate& filter : read_set->filters) {
            if (filter.EvalUniversal(universal, u)) {
              touched = true;
              break;
            }
          }
          if (touched) break;
        }
        if (!touched) keep.push_back(key);
      }
    }
  }

  // Phase B (exclusive, pointer/state swaps only): compact the base
  // relations in place (one version bump), install the precomputed patch.
  uint64_t new_version = 0;
  {
    WriterMutexLock lock(&db_mu_);
    db_.ApplyDeltaPlan(plan.db_plan);
    new_version = db_.version();
    engine_->CommitDelta(std::move(plan));
  }

  if (cache_ != nullptr) {
    if (full_wipe) {
      cache_->InvalidateAll();
    } else {
      cache_->RetargetVersion(
          old_prefix, "v=" + std::to_string(new_version) + ";", keep);
    }
  }
  return CountDeltaApplied();
}

std::string XplaindService::DeltaPayload(const Request& request,
                                         StatusCode* code) {
  XPLAIN_TRACE_SPAN("rpc.delta");
  *code = StatusCode::kOk;
  // Build and apply under one delta lock so the row positions resolved by
  // BuildDelta cannot be shifted by a concurrent delta before they apply.
  MutexLock delta_lock(&delta_mu_);
  size_t rows_before = 0;
  Result<DeltaSet> delta = [&]() -> Result<DeltaSet> {
    ReaderMutexLock lock(&db_mu_);
    // Authoritative DELTA version barrier: deltas serialize on delta_mu_,
    // so a passing check pins the pre-delta version this mutation applies
    // to (DESIGN.md §13).
    if (request.has_expect_version &&
        db_.version() != request.expect_version) {
      return Status::FailedPrecondition(
          "database version is " + std::to_string(db_.version()) +
          ", request expected " + std::to_string(request.expect_version));
    }
    for (int r = 0; r < db_.num_relations(); ++r) {
      rows_before += db_.relation(r).NumRows();
    }
    return BuildDelta(db_, request);
  }();
  if (!delta.ok()) {
    MutexLock lock(&mu_);
    ++errors_;
    *code = delta.status().code();
    return ErrorPayload(delta.status());
  }
  Status applied = ApplyDeltaLocked(*delta);
  if (!applied.ok()) {
    MutexLock lock(&mu_);
    ++errors_;
    *code = applied.code();
    return ErrorPayload(applied);
  }
  size_t rows_after = 0;
  uint64_t version = 0;
  {
    ReaderMutexLock lock(&db_mu_);
    for (int r = 0; r < db_.num_relations(); ++r) {
      rows_after += db_.relation(r).NumRows();
    }
    version = db_.version();
  }
  std::string out = "\"ok\":true,\"op\":\"DELTA\",\"removed\":";
  out += std::to_string(rows_before - rows_after);
  out += ",\"db_version\":" + std::to_string(version);
  return out;
}

uint64_t XplaindService::db_version() const {
  ReaderMutexLock lock(&db_mu_);
  return db_.version();
}

}  // namespace server
}  // namespace xplain
