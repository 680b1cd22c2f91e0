// The three benchmark workloads: their fixed parameters, the data each one
// generates from the seed, and the op sequence each one sends. Every op is
// a pure function of (seed, op index), so the timed run, the traced replay
// and the correctness gate all see the same requests without storing them.

#ifndef XBENCH_WORKLOADS_H_
#define XBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/database.h"
#include "util/result.h"

namespace xbench {

enum class Kind { kNatalityCube, kDblpServe, kDblpCluster };

/// Fixed parameters of one workload (the seed only changes data and ops).
struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kNatalityCube;
  /// Birth rows (natality workloads) or DBLP scale (dblp workloads).
  size_t natality_rows = 0;
  double dblp_scale = 0.0;
  int clients = 1;
  int pipeline = 1;
  /// 0 = one xplaind; K >= 2 = K shard xplainds behind a coordinator.
  size_t shards = 0;
  /// DELTAs the traced run replays after the window ops (no workload's
  /// timed mix has writes), so every workload's trace covers the delta
  /// path.
  size_t probe_deltas = 0;

  bool natality() const { return kind == Kind::kNatalityCube; }
  /// One-line parameter summary printed with every result.
  std::string Describe() const;
};

/// Looks a workload up by name; false if unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);
/// All workload names, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

/// Generates the workload's database from the seed.
[[nodiscard]] xplain::Result<xplain::Database> GenerateData(
    const WorkloadSpec& spec, uint64_t seed);

/// One request line of the workload.
struct Op {
  uint64_t id = 0;
  bool delta = false;
  std::string line;
};

/// The seeded op sequence of one workload. `Window(i)` is the i-th op of
/// the timed closed loop (unbounded); `Probe(j)` the j-th post-window
/// delta; `Prefill()` the hot set sent during setup.
class OpSource {
 public:
  /// `db` is the generated database (only row counts are read, to size
  /// the delta slices).
  OpSource(const WorkloadSpec& spec, uint64_t seed,
           const xplain::Database& db);

  Op Window(uint64_t index) const;
  Op Probe(uint64_t index) const;
  std::vector<Op> Prefill() const;

 private:
  std::string NatalityCubeRead(uint64_t index, uint64_t id) const;
  std::string DblpServeRead(uint64_t index, uint64_t id) const;
  std::string DblpClusterRead(uint64_t index, uint64_t id) const;
  /// Zipf(s = 1.1) draw of a hot-set position for window op `index`.
  size_t ZipfPick(uint64_t index) const;
  std::string NatalityDelta(uint64_t slice, uint64_t width,
                            uint64_t id) const;
  std::string DblpDelta(uint64_t slice, uint64_t width, uint64_t id) const;

  WorkloadSpec spec_;
  uint64_t seed_;
  size_t birth_rows_ = 0;
  size_t publications_ = 0;
  std::vector<std::string> hot_;  // hot-set lines without their id prefix
  std::vector<double> zipf_cdf_;  // Zipf CDF over the first kServeHot ranks
};

/// splitmix64 of a (seed, stream, index) triple: the benchmark's only
/// source of randomness.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index);

}  // namespace xbench

#endif  // XBENCH_WORKLOADS_H_
