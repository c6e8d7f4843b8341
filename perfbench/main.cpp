// perfbench: the project's end-to-end and per-layer benchmark binary.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --node-binary PATH [--trace-path FILE]
//
// Prints one `metric <name> <value> <unit>` line per metric, `#` lines
// with the host, build type, operation tally and (traced) the self time
// per layer, and as its last line the JSON result object. run.py builds
// this binary and is the documented entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

#ifndef P2G_BENCH_BUILD_TYPE
#define P2G_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload mjpeg|kmeans|mjpeg_live|cluster3 "
               "--seed N --seconds S --trace 0|1 --node-binary PATH "
               "[--trace-path FILE]\n");
  return 2;
}

/// JSON-safe rendering of a measured value: every digit, never NaN/inf.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--node-binary") {
      options.node_binary = value;
    } else if (key == "--trace-path") {
      options.trace_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.node_binary.empty()) return usage();

  perfbench::Tracer tracer(options.trace);
  perfbench::Outcome outcome;
  try {
    if (options.workload == "mjpeg") {
      outcome = perfbench::run_mjpeg(options, tracer);
    } else if (options.workload == "kmeans") {
      outcome = perfbench::run_kmeans(options, tracer);
    } else if (options.workload == "mjpeg_live") {
      outcome = perfbench::run_mjpeg_live(options, tracer);
    } else if (options.workload == "cluster3") {
      outcome = perfbench::run_cluster3(options, tracer);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("# workload=%s seed=%u seconds=%g trace=%d nproc=%u "
              "build_type=%s\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, std::thread::hardware_concurrency(),
              P2G_BENCH_BUILD_TYPE);
  std::printf("# attempted=%lld failed=%lld correct=%s\n",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed),
              outcome.correct ? "true" : "false");
  for (const std::string& error : outcome.errors) {
    std::printf("# error: %s\n", error.c_str());
  }
  if (tracer.enabled()) {
    for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
      std::printf("# self_ms %s %.3f\n", layer.c_str(), ms);
    }
    if (!options.trace_path.empty()) tracer.write_chrome(options.trace_path);
  }
  for (const auto& [name, samples] : outcome.samples) {
    std::printf("# samples %s n=%zu min=%.6g p25=%.6g p50=%.6g p75=%.6g "
                "max=%.6g\n",
                name.c_str(), samples.size(),
                perfbench::percentile(samples, 0.0),
                perfbench::percentile(samples, 25.0),
                perfbench::percentile(samples, 50.0),
                perfbench::percentile(samples, 75.0),
                perfbench::percentile(samples, 100.0));
  }
  for (const auto& [name, metric] : outcome.metrics) {
    std::printf("metric %s %s %s\n", name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
