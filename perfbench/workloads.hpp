// The four gateway workloads and the two ways of running them: the
// end-to-end run (untraced, global obs registry null) and the traced run
// that times the public calls into each layer from outside.
#pragma once
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;          ///< draws the receiver noise
  std::uint64_t traffic_seed = 0;  ///< draws the nodes and their traffic
  double seconds = 0.0;            ///< measurement budget of one run
  bool trace = false;              ///< per-layer run instead of end-to-end
  std::string scratch_dir;  ///< where the int16 capture round trip lands
};

struct RunResult {
  std::size_t attempted = 0;  ///< decode passes (or stream runs) made
  std::size_t failed = 0;     ///< passes that broke a correctness gate
  std::vector<std::string> failures;  ///< one line per broken gate
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< context lines printed before the JSON
  bool correct() const { return failures.empty(); }
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunConfig& cfg);

}  // namespace perfbench
