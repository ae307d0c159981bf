// tnb_perfbench — the gateway benchmark (perfbench/README.md).
//
//   tnb_perfbench --workload NAME --seed N --traffic-seed N --seconds S
//                 --trace 0|1 --scratch DIR [--revision REV]
//
// perfbench/run.py builds it and supplies every argument: the seeds from
// perfbench/fingerprints.json, the seconds from BENCHMARK.json.
//
// Prints context lines, then one JSON object as the last line of stdout:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when a correctness gate fails (the JSON still says why on
// stderr), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "dsp/fft_backend.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

#ifndef TNB_PERFBENCH_BUILD_TYPE
#define TNB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tnb_perfbench --workload NAME --seed N --traffic-seed N "
               "--seconds S --trace 0|1 --scratch DIR [--revision REV]\n"
               "workloads:");
  for (const std::string& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// JSON string literal; the names and units here are plain ASCII.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string revision = "unknown";
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    given.insert(arg);
    if (arg == "--workload") cfg.workload = v;
    else if (arg == "--seed") cfg.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--traffic-seed") {
      cfg.traffic_seed = std::strtoull(v, nullptr, 10);
    }
    else if (arg == "--seconds") cfg.seconds = std::atof(v);
    else if (arg == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") usage();
      cfg.trace = std::string(v) == "1";
    }
    else if (arg == "--scratch") cfg.scratch_dir = v;
    else if (arg == "--revision") revision = v;
    else usage();
  }
  for (const char* required : {"--workload", "--seed", "--traffic-seed",
                               "--seconds", "--trace", "--scratch"}) {
    if (given.count(required) == 0) usage();
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == cfg.workload;
  }
  if (!known || cfg.seconds <= 0.0) usage();

  // The end-to-end run is untraced: no process-wide metrics registry.
  tnb::obs::Registry::set_global(nullptr);

  std::printf("context workload=%s seed=%llu traffic_seed=%llu seconds=%g "
              "trace=%d fft_backend=%s nproc=%u build_type=%s revision=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(cfg.traffic_seed), cfg.seconds,
              cfg.trace ? 1 : 0,
              tnb::dsp::active_fft_backend().name(),
              std::thread::hardware_concurrency(), TNB_PERFBENCH_BUILD_TYPE,
              revision.c_str());
  std::printf("context cpu=%s\n", cpu_model().c_str());

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tnb_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& n : res.notes) std::printf("%s\n", n.c_str());
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "tnb_perfbench: correctness gate: %s\n", f.c_str());
  }
  for (const perfbench::Metric& m : res.metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += res.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    if (i > 0) json += ", ";
    json += quoted(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
