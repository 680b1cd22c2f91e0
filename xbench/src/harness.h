// Deployment, closed-loop load, correctness gate and traced replay of the
// xplain benchmark. Everything here calls the system only through its
// public headers; nothing under src/ knows the benchmark exists.

#ifndef XBENCH_HARNESS_H_
#define XBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/coordinator.h"
#include "server/service.h"
#include "server/tcp_server.h"
#include "workloads.h"

namespace xbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// One running system under test: a single xplaind, or K shard xplainds
/// behind a coordinator, each on an ephemeral loopback TCP port.
class Deployment {
 public:
  /// Generates the data, builds the services and servers, and sends the
  /// workload's prefill lines. `flight_capacity` sizes every flight
  /// recorder (the traced run keeps every record).
  [[nodiscard]] static xplain::Result<std::unique_ptr<Deployment>> Start(
      const WorkloadSpec& spec, uint64_t seed, size_t flight_capacity);

  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  int port() const { return front_->port(); }
  const OpSource& ops() const { return *ops_; }
  /// The service behind the front port (single node), or nullptr.
  xplain::server::XplaindService* service() const { return service_.get(); }
  xplain::cluster::Coordinator* coordinator() const {
    return coordinator_.get();
  }
  const std::vector<std::unique_ptr<xplain::server::XplaindService>>& shards()
      const {
    return shard_services_;
  }
  /// Wall time of data generation (+ partitioning), ms.
  double generate_ms() const { return generate_ms_; }
  /// Flight records of the front service (coordinator for clusters).
  std::vector<xplain::server::FlightRecord> FlightRecords() const;

 private:
  Deployment() = default;
  void Stop();

  std::unique_ptr<OpSource> ops_;
  std::unique_ptr<xplain::server::XplaindService> service_;
  std::vector<std::unique_ptr<xplain::server::XplaindService>> shard_services_;
  std::vector<std::unique_ptr<xplain::server::TcpServer>> shard_servers_;
  std::unique_ptr<xplain::cluster::Coordinator> coordinator_;
  std::unique_ptr<xplain::server::TcpServer> front_;
  double generate_ms_ = 0.0;
};

/// One client-observed op.
struct Sample {
  uint64_t index = 0;  // window index
  bool ok = false;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;  // 0 when no response arrived
  double latency_ms() const { return (recv_ns - send_ns) / 1e6; }
};

/// Everything one timed run observed.
struct LoadResult {
  std::vector<Sample> window;  // ops of the timed closed loop
  double window_s = 0.0;
  /// Full response lines of the window ops listed in `keep`.
  std::map<uint64_t, std::string> responses;
  double peak_rss_mb = 0.0;
  /// Share of all CPU time the hypervisor took from this machine during
  /// the window (steal in /proc/stat), or -1 where that is not readable.
  /// Printed with the results: a run with high steal measured the host.
  double steal_share = -1.0;
};

/// Keeps every CPU busy for `seconds`. Run right before a timed window: on
/// a virtual machine the first ~1 s after an idle spell runs several
/// times slower, which would otherwise land in the window's tail.
void WarmCpus(double seconds);

/// Runs the closed loop for `seconds` (spec.clients connections, each
/// keeping spec.pipeline requests outstanding). Keeps the response text of
/// the window ops in `keep`.
LoadResult RunLoad(const WorkloadSpec& spec, const Deployment& deployment,
                   double seconds, const std::set<uint64_t>& keep);

/// The window indices whose answers the gate re-computes (seeded).
std::set<uint64_t> GateSample(uint64_t seed);

/// Re-computes each kept ok answer with a fresh sequential engine
/// (num_threads = 1) over a freshly generated, unpartitioned database,
/// and compares bytes. Returns the
/// number of answers checked; appends one line per mismatch to `errors`.
size_t CheckAnswers(const WorkloadSpec& spec, uint64_t seed,
                    const LoadResult& load,
                    std::vector<std::string>* errors);

/// Exact nearest-rank percentile of `values` (sorted ascending in place);
/// +infinity sorts last. Returns 0 for an empty input.
double Percentile(std::vector<double>* values, double p);

/// Per-layer results of a traced run, by metric name.
struct LayerReport {
  std::vector<std::pair<std::string, double>> metrics;  // name -> value
  std::vector<std::pair<std::string, size_t>> samples;  // name -> count
  std::string self_time_table;
  std::string trace_path;
  size_t replayed = 0;    // ops sent by the one-client replays
  size_t recomputed = 0;  // answers re-done through the layers' entry points
  size_t cache_hits = 0;  // answers re-read from the service's cache
  size_t mismatches = 0;
  std::vector<std::string> errors;
};

/// The traced run: repeats the timed run with every flight record kept
/// (queue waits), then replays the op sequence with one client, timing
/// each layer's public entry points on a shadow engine and checking that
/// every replayed answer is byte-identical to the served one.
LayerReport RunTraced(const WorkloadSpec& spec, uint64_t seed, double seconds,
                      const LoadResult& timed, const std::string& trace_path);

}  // namespace xbench

#endif  // XBENCH_HARNESS_H_
