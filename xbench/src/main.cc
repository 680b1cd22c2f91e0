// xbench: the xplain benchmark program.
//
//   xbench --workload NAME --seed N --seconds S --trace 0|1
//          [--trace-out PATH] [--commit TEXT]
//
// Prints the run's parameters and every metric with its unit and sample
// count, then, as the last stdout line, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exits 3 when the correctness gate fails and
// 2 on a usage or setup error (then no JSON is printed).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#ifndef XBENCH_COMPILER
#define XBENCH_COMPILER "unknown"
#endif
#ifndef XBENCH_BUILD_TYPE
#define XBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using xbench::Sample;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Latencies of `samples` (failed ops as +infinity, so they sort last).
std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    out.push_back(s.ok ? s.latency_ms()
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::string Unit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_rate")) return "ratio";
  if (ends("_pct")) return "%";
  if (ends("_bytes")) return "bytes";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  xbench::WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !xbench::FindWorkload(args.workload, &spec)) {
    std::cerr << "usage: xbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--commit TEXT]\n"
                 "workloads:";
    for (const std::string& name : xbench::WorkloadNames()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 2;
  }

  std::cout << "xbench seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << "\n"
            << "params: " << spec.Describe() << "\n"
            << "host: nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << XBENCH_COMPILER
            << "\" build_type=" << XBENCH_BUILD_TYPE
            << " ndebug=" << (kNdebug ? 1 : 0) << " sanitizer=" << Sanitizer()
            << " commit=" << args.commit << "\n";
  if (!kNdebug || std::string(Sanitizer()) != "none") {
    std::cout << "WARNING: not an optimized, unsanitized build; timings are "
                 "not comparable\n";
  }

  // The timed run is five rounds, each a window of a fifth of --seconds
  // on a fresh deployment plus one more set-up, so that set-ups and
  // windows sample several stretches of host speed and the median round
  // ignores a slow stretch of one or two; set_up() times every set-up for
  // setup_s. A traced run times one round of half the window (its other
  // passes are in RunTraced).
  const int rounds = args.trace ? 1 : 5;
  const double window = args.trace ? args.seconds / 2 : args.seconds / rounds;
  std::vector<double> setups;
  auto set_up = [&]() -> std::unique_ptr<xbench::Deployment> {
    const int64_t start = xbench::NowNs();
    auto started = xbench::Deployment::Start(spec, args.seed, 256);
    if (!started.ok()) {
      std::cerr << "setup failed: " << started.status().ToString() << "\n";
      std::exit(2);
    }
    setups.push_back((xbench::NowNs() - start) / 1e9);
    return std::move(*started);
  };
  xbench::WarmCpus(1.0);
  std::vector<xbench::LoadResult> loads;
  for (int r = 0; r < rounds; ++r) {
    std::unique_ptr<xbench::Deployment> deployment = set_up();
    const std::set<uint64_t> keep =
        r == 0 ? xbench::GateSample(args.seed) : std::set<uint64_t>();
    loads.push_back(xbench::RunLoad(spec, *deployment, window, keep));
    deployment.reset();
    if (!args.trace) set_up();  // a second set-up sample per round
  }

  size_t attempted = 0;
  size_t failed = 0;
  for (const xbench::LoadResult& load : loads) {
    attempted += load.window.size();
    for (const Sample& s : load.window) failed += !s.ok;
  }

  std::vector<std::string> errors;
  const size_t checked =
      xbench::CheckAnswers(spec, args.seed, loads.front(), &errors);
  bool correct = errors.empty() && checked > 0;
  if (checked == 0 && errors.empty()) {
    errors.push_back("gate: no served answer could be checked");
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Each metric is the median of its round values; a round's latency
    // percentiles are exact over that round's raw samples.
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p99s;
    size_t ok_ops = 0;
    size_t reads = 0;
    std::ostringstream per_round;
    for (const xbench::LoadResult& load : loads) {
      size_t ok = 0;
      for (const Sample& s : load.window) ok += s.ok;
      rates.push_back(ok / load.window_s);
      ok_ops += ok;
      std::vector<double> round = Latencies(load.window);
      reads += round.size();
      p50s.push_back(xbench::Percentile(&round, 50));
      p99s.push_back(xbench::Percentile(&round, 99));
      per_round << " " << rates.back() << "/" << p50s.back() << "/"
                << p99s.back() << " (" << round.size() << " reads, steal "
                << 100 * load.steal_share << "%)";
    }
    std::vector<double> setup_values = setups;
    metrics.push_back({"setup_s", xbench::Percentile(&setup_values, 50), "s",
                       setups.size()});
    metrics.push_back(
        {"ops_per_s", xbench::Percentile(&rates, 50), "1/s", ok_ops});
    metrics.push_back(
        {"read_p50_ms", xbench::Percentile(&p50s, 50), "ms", reads});
    metrics.push_back(
        {"read_p99_ms", xbench::Percentile(&p99s, 50), "ms", reads});
    // Peak RSS up to the end of the first round: later rounds redo the
    // same work, and freed-but-retained heap would only add noise.
    metrics.push_back({"peak_rss_mb", loads.front().peak_rss_mb, "MB", 1});
    std::cout << "end-to-end: " << rounds << " rounds of " << window
              << " s, each metric the median round; per round ops_per_s/"
              << "read_p50_ms/read_p99_ms:" << per_round.str() << "\n";
  } else {
    const xbench::LayerReport layers = xbench::RunTraced(
        spec, args.seed, window, loads.front(), args.trace_out);
    for (size_t i = 0; i < layers.metrics.size(); ++i) {
      const std::string& name = layers.metrics[i].first;
      metrics.push_back({name, layers.metrics[i].second, Unit(name),
                         layers.samples[i].second});
    }
    errors.insert(errors.end(), layers.errors.begin(), layers.errors.end());
    correct = correct && layers.errors.empty() && layers.mismatches == 0;
    std::cout << "replay: " << layers.replayed << " ops replayed; "
              << layers.recomputed << " answers re-done through the layers' "
              << "entry points and compared byte for byte; "
              << layers.cache_hits << " response-cache hits re-read "
              << "in-process (the cached bytes again, so not an independent "
              << "check); "
              << layers.replayed - layers.recomputed - layers.cache_hits
              << " cluster DELTAs sent only; " << layers.mismatches
              << " answers differed\n"
              << "per-span self time (benchmark-side spans):\n"
              << layers.self_time_table;
    if (!layers.trace_path.empty()) {
      std::cout << "trace: " << layers.trace_path << "\n";
    }
  }

  std::cout << "gate: " << checked << " served answers checked against a "
            << "sequential engine, " << errors.size() << " problems\n";
  for (const std::string& error : errors) std::cout << "  " << error << "\n";
  std::printf("%-34s %16s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.4f %-6s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("%-34s %16.6f %-6s %8zu\n", "error_rate",
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
              "ratio", attempted);

  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(std::max<size_t>(1, attempted));
  json += ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + metrics[i].name + "\":{\"value\":" +
            JsonNumber(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 3;
}
