// Shared pieces of the end-to-end benchmark: metric records, order
// statistics, benchmark-side span tracing and the per-workload entry
// points. See README.md for what each workload and metric means.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "core/program.h"
#include "media/yuv.h"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Median of the samples (0 when empty).
double median(std::vector<double> samples);

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> samples, double p);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Inserts unless the metric is already present (a workload's own
/// measurement wins over a probe's).
inline void put_missing(Metrics& metrics, const std::string& name,
                        double value, const std::string& unit) {
  metrics.emplace(name, Metric{value, unit});
}

/// Spans recorded by the benchmark around its calls into the project's
/// layers. Disabled tracers record nothing. The parent of a span is the
/// innermost open span of the same thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* layer_;
    std::string name_;
    int64_t start_ns_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
  };

  /// Writes the spans as Chrome trace-event JSON, one event per line (the
  /// layout `p2gtrace --summary` reads).
  void write_chrome(const std::string& path) const;

  /// Self time per layer in milliseconds: each span's duration minus the
  /// part its child spans cover.
  std::map<std::string, double> self_ms_by_layer() const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t thread = 0;
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  int64_t epoch_ns_ = now_ns();
};

/// Opens a span on `tracer` for the rest of the enclosing block.
#define PB_SPAN(tracer, layer, name) \
  ::perfbench::Tracer::Scope pb_span_##__LINE__((tracer), (layer), (name))

struct Options {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace JSON); empty = none.
  std::string trace_path;
  /// The p2gnode binary run_cluster execs for cluster nodes.
  std::string node_binary;
};

/// What a run hands back to main(): the operation tally, whether every
/// checked output was right, and the metrics of the requested kind.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  /// The samples each median-valued metric was taken over.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> errors;

  void fail_check(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

// Workload entry points (workloads.cpp). Untraced runs fill the end-to-end
// metrics; traced runs (tracer enabled) fill the per-layer metrics.
Outcome run_mjpeg(const Options& options, Tracer& tracer);
Outcome run_kmeans(const Options& options, Tracer& tracer);
Outcome run_mjpeg_live(const Options& options, Tracer& tracer);
Outcome run_cluster3(const Options& options, Tracer& tracer);

// Layer probes shared by every traced run (probes.cpp).

/// media: dct_quantize_block per block (naive and AAN) over the clip's
/// luma blocks, and encode_jpeg_from_coeffs per frame.
void probe_media(const p2g::media::YuvVideo& clip, Tracer& tracer,
                 Metrics& metrics);

/// core field storage: FieldStorage block stores into a sealed CIF luma
/// grid and try_fetch_view_whole of that age.
void probe_field(uint32_t seed, Tracer& tracer, Metrics& metrics);

/// analysis, core and graph on one program: Program::validate(), Runtime
/// construction, and FinalGraph::from_program + partition_graph(3).
void probe_program(const std::function<p2g::Program()>& build,
                   Tracer& tracer, Metrics& metrics);

/// Peak resident set of this process (and, with `children`, of its
/// largest reaped child), in MiB.
double peak_rss_mb(bool children);

}  // namespace perfbench
