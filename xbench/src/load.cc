#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <thread>

#include "cluster/partition.h"
#include "cluster/shard_map.h"
#include "core/engine.h"
#include "harness.h"
#include "server/protocol.h"
#include "server/tcp_client.h"

namespace xbench {

using xplain::Database;
using xplain::Result;
using xplain::Status;
using xplain::server::TcpClient;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr int kRecvTimeoutMs = 60000;

xplain::server::TcpClientOptions ClientOptions() {
  xplain::server::TcpClientOptions options;
  options.recv_timeout_ms = kRecvTimeoutMs;
  return options;
}

bool IsOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// {steal, total} CPU jiffies of the whole machine, or {-1, -1}.
std::pair<double, double> CpuSteal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = -1.0;
  if (!(stat >> cpu) || cpu != "cpu") return {-1.0, -1.0};
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) return {-1.0, -1.0};
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

/// Sends `ops` over up to `clients` connections (closed loop, depth 1) and
/// requires every answer to be ok.
Status SendAll(int port, const std::vector<Op>& ops, int clients) {
  std::atomic<size_t> next{0};
  std::vector<Status> results(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Result<TcpClient> client =
          TcpClient::Connect("127.0.0.1", port, ClientOptions());
      if (!client.ok()) {
        results[c] = client.status();
        return;
      }
      for (size_t i = next++; i < ops.size(); i = next++) {
        Result<std::string> response = client->Call(ops[i].line);
        if (!response.ok()) {
          results[c] = response.status();
          return;
        }
        if (!IsOk(*response)) {
          results[c] = Status::Internal("prefill answer not ok: " + *response);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& status : results) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

/// True when `response` answers request `id` (in-order pipelining).
bool AnswersId(const std::string& response, uint64_t id) {
  const std::string prefix = "{\"id\":" + std::to_string(id) + ",";
  return response.compare(0, prefix.size(), prefix) == 0;
}

/// The reference answer to `line` from a sequential engine over `db`.
std::string ReferenceAnswer(const xplain::ExplainEngine& engine,
                            const Database& db, const std::string& line) {
  using namespace xplain::server;  // NOLINT
  Result<Request> request = ParseRequest(line);
  if (!request.ok()) {
    return MakeResponse(ExtractRequestId(line),
                        ErrorPayload(request.status()));
  }
  Result<xplain::UserQuestion> question = BuildQuestion(db, *request);
  if (!question.ok()) {
    return MakeResponse(request->id, ErrorPayload(question.status()));
  }
  xplain::ExplainOptions options = request->options;
  options.num_threads = 1;
  Result<xplain::ExplainReport> report =
      engine.Explain(*question, request->attrs, options);
  if (!report.ok()) {
    return MakeResponse(request->id, ErrorPayload(report.status()));
  }
  return MakeResponse(request->id, ReportPayload(db, *report, request->op));
}

}  // namespace

Result<std::unique_ptr<Deployment>> Deployment::Start(const WorkloadSpec& spec,
                                                      uint64_t seed,
                                                      size_t flight_capacity) {
  std::unique_ptr<Deployment> d(new Deployment());
  const int64_t gen_start = NowNs();
  XPLAIN_ASSIGN_OR_RETURN(Database db, GenerateData(spec, seed));
  d->ops_ = std::make_unique<OpSource>(spec, seed, db);
  xplain::server::ServiceOptions service_options;
  service_options.flight_capacity = flight_capacity;
  if (spec.shards == 0) {
    d->generate_ms_ = (NowNs() - gen_start) / 1e6;
    XPLAIN_ASSIGN_OR_RETURN(
        d->service_,
        xplain::server::XplaindService::Create(std::move(db), service_options));
    XPLAIN_ASSIGN_OR_RETURN(
        d->front_, xplain::server::TcpServer::Start(
                       d->service_.get(), xplain::server::TcpServerOptions{}));
  } else {
    const std::string partition = "Publication.pubid";
    XPLAIN_ASSIGN_OR_RETURN(
        xplain::cluster::ShardMap map,
        xplain::cluster::ShardMap::Create(db, {partition}, spec.shards));
    XPLAIN_ASSIGN_OR_RETURN(std::vector<Database> parts,
                            xplain::cluster::PartitionDatabase(db, map));
    d->generate_ms_ = (NowNs() - gen_start) / 1e6;
    xplain::cluster::CoordinatorOptions options;
    options.partition_attrs = {partition};
    options.flight_capacity = flight_capacity;
    options.client = ClientOptions();
    for (Database& part : parts) {
      XPLAIN_ASSIGN_OR_RETURN(auto service,
                              xplain::server::XplaindService::Create(
                                  std::move(part), service_options));
      XPLAIN_ASSIGN_OR_RETURN(
          auto server, xplain::server::TcpServer::Start(
                           service.get(), xplain::server::TcpServerOptions{}));
      options.shards.push_back({"127.0.0.1", server->port()});
      d->shard_services_.push_back(std::move(service));
      d->shard_servers_.push_back(std::move(server));
    }
    XPLAIN_ASSIGN_OR_RETURN(d->coordinator_,
                            xplain::cluster::Coordinator::Create(options));
    XPLAIN_ASSIGN_OR_RETURN(
        d->front_,
        xplain::server::TcpServer::Start(d->coordinator_.get(),
                                         xplain::server::TcpServerOptions{}));
  }
  XPLAIN_RETURN_IF_ERROR(SendAll(d->port(), d->ops_->Prefill(), spec.clients));
  return d;
}

Deployment::~Deployment() { Stop(); }

void Deployment::Stop() {
  if (front_ != nullptr) front_->Stop();
  if (coordinator_ != nullptr) coordinator_->Drain();
  for (auto& server : shard_servers_) server->Stop();
  for (auto& service : shard_services_) service->Drain();
  if (service_ != nullptr) service_->Drain();
}

std::vector<xplain::server::FlightRecord> Deployment::FlightRecords() const {
  const xplain::server::FlightRecorder& recorder =
      coordinator_ != nullptr ? coordinator_->flight_recorder()
                              : service_->flight_recorder();
  return recorder.Snapshot().records;
}

void WarmCpus(double seconds) {
  const int64_t until = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([until] {
      volatile uint64_t sink = 0;
      while (NowNs() < until) {
        for (int i = 0; i < 1000; ++i) sink = sink + i;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

LoadResult RunLoad(const WorkloadSpec& spec, const Deployment& deployment,
                   double seconds, const std::set<uint64_t>& keep) {
  LoadResult result;
  const OpSource& ops = deployment.ops();
  std::atomic<uint64_t> next{0};
  const std::pair<double, double> steal_before = CpuSteal();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<Sample>> per_client(spec.clients);
  std::vector<std::map<uint64_t, std::string>> kept(spec.clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample>& done = per_client[c];
      Result<TcpClient> client =
          TcpClient::Connect("127.0.0.1", deployment.port(), ClientOptions());
      if (!client.ok()) {
        Sample failed;
        failed.index = next++;
        failed.send_ns = NowNs();
        done.push_back(failed);
        return;
      }
      std::deque<std::pair<Sample, uint64_t>> pending;  // sample, wire id
      bool broken = false;
      while (!broken) {
        while (pending.size() < static_cast<size_t>(spec.pipeline) &&
               NowNs() < deadline) {
          Sample s;
          s.index = next++;
          const Op op = ops.Window(s.index);
          s.send_ns = NowNs();
          if (!client->Send(op.line).ok()) {
            done.push_back(s);
            broken = true;
            break;
          }
          pending.emplace_back(s, op.id);
        }
        if (broken || pending.empty()) break;
        Result<std::string> response = client->ReadResponse();
        const int64_t now = NowNs();
        auto [s, id] = pending.front();
        pending.pop_front();
        s.recv_ns = now;
        if (!response.ok()) {
          done.push_back(s);
          broken = true;
          break;
        }
        s.ok = IsOk(*response) && AnswersId(*response, id);
        if (keep.count(s.index) > 0) kept[c][s.index] = std::move(*response);
        done.push_back(s);
      }
      for (auto& [s, id] : pending) done.push_back(s);  // never answered
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.window_s = (NowNs() - start) / 1e9;
  const std::pair<double, double> steal_after = CpuSteal();
  if (steal_before.first >= 0 && steal_after.first >= 0 &&
      steal_after.second > steal_before.second) {
    result.steal_share = (steal_after.first - steal_before.first) /
                         (steal_after.second - steal_before.second);
  }
  for (int c = 0; c < spec.clients; ++c) {
    result.window.insert(result.window.end(), per_client[c].begin(),
                         per_client[c].end());
    result.responses.merge(kept[c]);
  }
  std::sort(result.window.begin(), result.window.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  result.peak_rss_mb = usage.ru_maxrss / 1024.0;
  return result;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(p / 100.0 * values->size());
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return (*values)[std::min(index, values->size() - 1)];
}

std::set<uint64_t> GateSample(uint64_t seed) {
  // Candidates among the first 150 window ops, which every run completes.
  std::set<uint64_t> sample;
  for (uint64_t j = 0; sample.size() < 12; ++j) {
    sample.insert(Mix(seed, 99, j) % 150);
  }
  return sample;
}

size_t CheckAnswers(const WorkloadSpec& spec, uint64_t seed,
                    const LoadResult& load,
                    std::vector<std::string>* errors) {
  // No window op writes, so every answer was served at the generated
  // database's version.
  Result<Database> generated = GenerateData(spec, seed);
  if (!generated.ok()) {
    errors->push_back("gate: " + generated.status().ToString());
    return 0;
  }
  const Database& db = *generated;
  Result<xplain::ExplainEngine> engine = xplain::ExplainEngine::Create(&db);
  if (!engine.ok()) {
    errors->push_back("gate: " + engine.status().ToString());
    return 0;
  }
  const OpSource ops(spec, seed, db);
  std::map<uint64_t, bool> ok;
  for (const Sample& s : load.window) ok[s.index] = s.ok;

  size_t checked = 0;
  for (const auto& [index, served] : load.responses) {
    if (!ok[index]) continue;  // counted in error_rate instead
    const std::string expected =
        ReferenceAnswer(*engine, db, ops.Window(index).line);
    ++checked;
    if (expected != served) {
      errors->push_back("op " + std::to_string(index) +
                        ": served answer differs from the sequential "
                        "reference\n  served:   " +
                        served.substr(0, 400) +
                        "\n  expected: " + expected.substr(0, 400));
    }
  }
  return checked;
}

}  // namespace xbench
