// The four benchmark workloads. Each run repeats whole rounds of the same
// jobs until its time is used, checks every job's output, and reports
// medians over the rounds. A traced run times each workload's own job
// with spans and then runs the layer probes and the small probe jobs that
// reach the layers its workload does not.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/runtime.h"
#include "media/jpeg.h"
#include "media/mjpeg.h"
#include "net/cluster.h"
#include "workloads/kmeans.h"
#include "workloads/mjpeg_workload.h"
#include "workloads/pipeline.h"
#include "workloads/standalone_mjpeg.h"

namespace perfbench {

using namespace p2g;

namespace {

constexpr int kWidth = 352;  // CIF
constexpr int kHeight = 288;
constexpr int kMjpegFrames = 10;
constexpr int kQuality = 50;
/// Every decoded frame must reach this luma PSNR against its source.
constexpr double kPsnrFloorDb = 25.0;
constexpr int kLiveFps = 8;
constexpr int kLiveFrames = 32;
/// Closed-loop live jobs inject this many frames at once, kLiveBursts times
/// per round at each worker count.
constexpr int kLiveBurstFrames = 8;
constexpr int kLiveBursts = 3;
constexpr int kLiveProbeFrames = 16;
constexpr int kLiveWorkers = 2;
constexpr int kMainWorkers = 3;
constexpr int kClusterNodes = 3;
constexpr int kClusterProbeRounds = 5;
/// Set-up samples per CPU and round.
constexpr int kSetupPerCpu = 10;
constexpr int kKmeansIterations = 4;

using Clip = std::shared_ptr<const media::YuvVideo>;

Clip make_clip(int frames, uint32_t seed) {
  return std::make_shared<const media::YuvVideo>(
      media::generate_synthetic_video(kWidth, kHeight, frames, seed));
}

int64_t coefficients_per_frame(const media::YuvVideo& clip) {
  const int64_t luma = ((clip.width + 7) / 8) * ((clip.height + 7) / 8);
  const int64_t chroma =
      ((clip.width / 2 + 7) / 8) * ((clip.height / 2 + 7) / 8);
  return (luma + 2 * chroma) * media::kBlockSize;
}

void atomic_min(std::atomic<int64_t>& slot, int64_t value) {
  int64_t seen = slot.load(std::memory_order_relaxed);
  while (value < seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<int64_t>& slot, int64_t value) {
  int64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

/// Per-age commit times, fed from RunOptions::store_tap on worker threads:
/// an age's first and last result commit, and whether all its result
/// elements are in.
class CommitClock {
 public:
  CommitClock(size_t ages, int64_t elements_per_age)
      : ages_(ages),
        per_age_(elements_per_age),
        first_(new std::atomic<int64_t>[ages]),
        last_(new std::atomic<int64_t>[ages]),
        elements_(new std::atomic<int64_t>[ages]) {
    for (size_t a = 0; a < ages; ++a) {
      first_[a] = std::numeric_limits<int64_t>::max();
      last_[a] = 0;
      elements_[a] = 0;
    }
  }

  void result(Age age, int64_t elements) {
    if (age < 0 || static_cast<size_t>(age) >= ages_) return;
    const int64_t t = now_ns();
    atomic_min(first_[age], t);
    atomic_max(last_[age], t);
    if (elements_[age].fetch_add(elements) + elements == per_age_) {
      completed_.fetch_add(1);
    }
  }

  int64_t completed() const { return completed_.load(); }

  /// Gaps between consecutive completions of the complete ages, in ms.
  std::vector<double> intervals_ms() const {
    std::vector<int64_t> done;
    for (size_t a = 0; a < ages_; ++a) {
      if (elements_[a].load() == per_age_) done.push_back(last_[a].load());
    }
    std::sort(done.begin(), done.end());
    std::vector<double> gaps;
    for (size_t i = 1; i < done.size(); ++i) {
      gaps.push_back(static_cast<double>(done[i] - done[i - 1]) / 1e6);
    }
    return gaps;
  }
  bool complete(Age age) const { return elements_[age].load() == per_age_; }
  int64_t first_ns(Age age) const { return first_[age].load(); }
  int64_t last_ns(Age age) const { return last_[age].load(); }

 private:
  size_t ages_;
  int64_t per_age_;
  std::unique_ptr<std::atomic<int64_t>[]> first_;
  std::unique_ptr<std::atomic<int64_t>[]> last_;
  std::unique_ptr<std::atomic<int64_t>[]> elements_;
  std::atomic<int64_t> completed_{0};
};

double ns_to_ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One timed Runtime::run() and what it left behind.
struct Job {
  int workers = 1;
  double wall_s = 0.0;
  /// Times between consecutive ages' complete results, in completion order:
  /// the per-frame (per-iteration) time the job sustains.
  std::vector<double> interval_ms;
  RunReport report;
  double retained_mb = 0.0;
};

double retained_mb(Runtime& runtime) {
  size_t bytes = 0;
  for (const FieldDecl& field : runtime.program().fields()) {
    bytes += runtime.storage(field.id).memory_bytes();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

Program build_and_validate(const std::function<Program()>& build,
                           Tracer& tracer) {
  Program program = [&] {
    PB_SPAN(&tracer, "workloads", "build");
    return build();
  }();
  PB_SPAN(&tracer, "analysis", "Program::validate");
  program.validate();
  return program;
}

std::unique_ptr<Runtime> construct(Program program, RunOptions options,
                                   Tracer& tracer) {
  PB_SPAN(&tracer, "core", "Runtime::Runtime");
  return std::make_unique<Runtime>(std::move(program), std::move(options));
}

void timed_run(Runtime& runtime, Job& job, Tracer& tracer) {
  PB_SPAN(&tracer, "core", "Runtime::run");
  const int64_t t0 = now_ns();
  job.report = runtime.run();
  job.wall_s = seconds_since(t0);
}

/// Set-up as a user pays it: build() + validate() + Runtime construction.
double setup_sample(const std::function<Program()>& build,
                    const RunOptions& options) {
  const int64_t t0 = now_ns();
  Program program = build();
  program.validate();
  Runtime runtime(std::move(program), options);
  return seconds_since(t0);
}

/// Adds set-up samples: kSetupPerCpu on each CPU the process may use, from
/// one pinned thread at a time, so that the median does not depend on which
/// CPU the main thread happens to be on.
void add_setup_samples(const std::function<Program()>& build,
                       const RunOptions& options,
                       std::vector<double>& samples) {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: leave placement alone
  std::exception_ptr error;
  for (const int cpu : cpus) {
    std::thread sampler([&] {
      if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      }
      try {
        for (int i = 0; i < kSetupPerCpu; ++i) {
          samples.push_back(setup_sample(build, options));
        }
      } catch (...) {
        error = std::current_exception();
      }
    });
    sampler.join();
    if (error) std::rethrow_exception(error);
  }
}

// --- per-layer metric extraction -------------------------------------------

/// The Tables II/III split for the kernels the benchmark follows.
void put_kernel_layers(const RunReport& report, Metrics& metrics) {
  for (const KernelStats& k : report.instrumentation.kernels) {
    if (k.name == "assign" || k.name == "refine" || k.name == "yDCT" ||
        k.name == "vlc_write") {
      put_missing(metrics, "core.dispatch_us." + k.name, k.avg_dispatch_us(),
                  "us");
      put_missing(metrics, "core.kernel_us." + k.name, k.avg_kernel_us(),
                  "us");
    }
  }
}

/// Counters of the traced workload's own job.
void put_job_layers(const Job& job, Metrics& metrics) {
  put_kernel_layers(job.report, metrics);
  int64_t instances = 0;
  int64_t busy_ns = 0;
  for (const KernelStats& k : job.report.instrumentation.kernels) {
    instances += k.instances;
    busy_ns += k.dispatch_ns + k.kernel_ns;
  }
  metrics["core.instances"] = {static_cast<double>(instances), "count"};
  const double worker_ns = static_cast<double>(job.workers) * job.wall_s * 1e9;
  metrics["core.sched_us"] = {
      instances > 0 ? (worker_ns - static_cast<double>(busy_ns)) / 1e3 /
                          static_cast<double>(instances)
                    : 0.0,
      "us"};
  metrics["field.retained_mb"] = {job.retained_mb, "MB"};
}

// --- MJPEG -------------------------------------------------------------------

workloads::MjpegWorkload mjpeg_workload(const Clip& clip, bool fast) {
  workloads::MjpegWorkload workload;
  workload.video = clip;
  workload.config.quality = kQuality;
  workload.config.fast_dct = fast;
  return workload;
}

std::function<Program()> mjpeg_program(const Clip& clip, bool fast) {
  return [clip, fast] { return mjpeg_workload(clip, fast).build(); };
}

std::vector<uint8_t> standalone_stream(const media::YuvVideo& clip,
                                       bool fast, Tracer& tracer) {
  PB_SPAN(&tracer, "workloads", "encode_mjpeg_standalone");
  media::EncoderConfig config;
  config.quality = kQuality;
  config.fast_dct = fast;
  return workloads::encode_mjpeg_standalone(clip, config).stream();
}

struct MjpegJob {
  Job job;
  std::vector<uint8_t> stream;
};

MjpegJob run_mjpeg_job(const Clip& clip, bool fast, int workers,
                       Tracer& tracer) {
  const workloads::MjpegWorkload workload = mjpeg_workload(clip, fast);
  Program program =
      build_and_validate([&] { return workload.build(); }, tracer);
  const std::array<FieldId, 3> results = {program.find_field("yResult"),
                                          program.find_field("uResult"),
                                          program.find_field("vResult")};
  auto clock = std::make_shared<CommitClock>(clip->frames.size(),
                                             coefficients_per_frame(*clip));
  RunOptions options;
  options.workers = workers;
  options.store_tap = [clock, results](const StoreEvent& event) {
    for (const FieldId id : results) {
      if (event.field == id) {
        clock->result(event.age, event.region.element_count());
      }
    }
  };
  auto runtime = construct(std::move(program), options, tracer);

  MjpegJob out;
  out.job.workers = workers;
  timed_run(*runtime, out.job, tracer);
  out.job.retained_mb = retained_mb(*runtime);
  out.stream = workload.output->stream();
  out.job.interval_ms = clock->intervals_ms();
  return out;
}

/// Empty when `stream` is the reference stream and, with `full`, every
/// frame is present and decodes above the PSNR floor.
std::string mjpeg_error(const std::vector<uint8_t>& stream,
                        const std::vector<uint8_t>& reference,
                        const media::YuvVideo& clip, bool full) {
  if (stream.size() != reference.size()) {
    return "stream is " + std::to_string(stream.size()) +
           " bytes, standalone encoder gives " +
           std::to_string(reference.size());
  }
  const auto diff =
      std::mismatch(stream.begin(), stream.end(), reference.begin());
  if (diff.first != stream.end()) {
    return "stream differs from the standalone encoder at byte " +
           std::to_string(diff.first - stream.begin());
  }
  if (!full) return {};
  const std::vector<std::vector<uint8_t>> frames = media::split_mjpeg(stream);
  if (frames.size() != clip.frames.size()) {
    return "stream holds " + std::to_string(frames.size()) + " frames, " +
           std::to_string(clip.frames.size()) + " were fed";
  }
  for (size_t f = 0; f < frames.size(); ++f) {
    try {
      const media::YuvFrame decoded = media::decode_jpeg(frames[f]);
      const double db = media::psnr(decoded.y, clip.frames[f].y);
      if (!(db >= kPsnrFloorDb)) {
        return "frame " + std::to_string(f) + " decodes at " +
               std::to_string(db) + " dB, below the floor";
      }
    } catch (const std::exception& e) {
      return "frame " + std::to_string(f) + " does not decode: " + e.what();
    }
  }
  return {};
}

/// The oracle must reject the reference with one byte flipped.
void self_test_mjpeg(const std::vector<uint8_t>& reference,
                     const media::YuvVideo& clip, Outcome& outcome) {
  std::vector<uint8_t> corrupted = reference;
  corrupted[corrupted.size() / 2] ^= 0x01;
  if (mjpeg_error(corrupted, reference, clip, true).empty()) {
    outcome.fail_check("self-test: a flipped stream byte was accepted");
  }
}

// --- k-means -----------------------------------------------------------------

workloads::KmeansConfig kmeans_config(uint32_t seed, int iterations) {
  workloads::KmeansConfig config;
  config.n = 600;
  config.k = 40;
  config.dim = 2;
  config.iterations = iterations;
  config.seed = seed;
  return config;
}

struct KmeansJob {
  Job job;
  std::vector<std::vector<double>> snapshots;
};

KmeansJob run_kmeans_job(const workloads::KmeansConfig& config, int workers,
                         Tracer& tracer) {
  workloads::KmeansWorkload workload;
  workload.config = config;
  Program program =
      build_and_validate([&] { return workload.build(); }, tracer);
  const FieldId centroids = program.find_field("centroids");
  auto clock = std::make_shared<CommitClock>(
      static_cast<size_t>(config.iterations) + 1,
      static_cast<int64_t>(config.k) * config.dim);
  RunOptions options;
  workload.apply_schedule(options);
  options.workers = workers;
  options.store_tap = [clock, centroids](const StoreEvent& event) {
    if (event.field == centroids) {
      clock->result(event.age, event.region.element_count());
    }
  };
  auto runtime = construct(std::move(program), options, tracer);

  KmeansJob out;
  out.job.workers = workers;
  timed_run(*runtime, out.job, tracer);
  out.job.retained_mb = retained_mb(*runtime);
  out.snapshots = *workload.snapshots;
  out.job.interval_ms = clock->intervals_ms();
  return out;
}

/// Empty when the final centroids equal kmeans_sequential bit for bit and
/// each is the mean of the points nearest to its predecessor (or the
/// predecessor itself when no point is).
std::string kmeans_error(const std::vector<std::vector<double>>& snapshots,
                         const std::vector<double>& sequential,
                         const std::vector<double>& points,
                         const workloads::KmeansConfig& config) {
  const auto iterations = static_cast<size_t>(config.iterations);
  if (snapshots.size() != iterations + 1) {
    return "print captured " + std::to_string(snapshots.size()) +
           " snapshots, expected " + std::to_string(iterations + 1);
  }
  const std::vector<double>& last = snapshots.back();
  if (last != sequential) {
    return "final centroids differ from kmeans_sequential";
  }
  const std::vector<double>& prev = snapshots[iterations - 1];
  const auto k = static_cast<size_t>(config.k);
  const auto dim = static_cast<size_t>(config.dim);
  std::vector<double> sum(k * dim, 0.0);
  std::vector<int64_t> count(k, 0);
  for (size_t x = 0; x < static_cast<size_t>(config.n); ++x) {
    size_t best = 0;
    double best_d = 0.0;
    for (size_t j = 0; j < k; ++j) {
      double d = 0.0;
      for (size_t c = 0; c < dim; ++c) {
        const double delta = points[x * dim + c] - prev[j * dim + c];
        d += delta * delta;
      }
      if (j == 0 || d < best_d) {
        best = j;
        best_d = d;
      }
    }
    for (size_t c = 0; c < dim; ++c) sum[best * dim + c] += points[x * dim + c];
    ++count[best];
  }
  for (size_t j = 0; j < k; ++j) {
    for (size_t c = 0; c < dim; ++c) {
      const double want = count[j] > 0 ? sum[j * dim + c] /
                                             static_cast<double>(count[j])
                                       : prev[j * dim + c];
      if (last[j * dim + c] != want) {
        return "centroid " + std::to_string(j) +
               " is not the mean of its nearest points";
      }
    }
  }
  return {};
}

// --- live MJPEG --------------------------------------------------------------

struct LiveInput {
  Clip clip;
  /// Block-major y/u/v planes per frame, as read_splityuv would store them.
  std::vector<std::array<nd::AnyBuffer, 3>> planes;
};

LiveInput make_live_input(int frames, uint32_t seed) {
  LiveInput input;
  input.clip = make_clip(frames, seed);
  for (const media::YuvFrame& f : input.clip->frames) {
    input.planes.push_back(
        {workloads::plane_to_blocks(f.y.data(), f.width, f.height),
         workloads::plane_to_blocks(f.u.data(), f.chroma_width(),
                                    f.chroma_height()),
         workloads::plane_to_blocks(f.v.data(), f.chroma_width(),
                                    f.chroma_height())});
  }
  return input;
}

struct LiveJob {
  Job job;
  bool complete = false;
  std::vector<uint8_t> stream;
  std::vector<double> latency_ms;  ///< due time to last coefficient commit
  std::vector<double> first_ms;    ///< due time to first coefficient commit
  std::vector<double> span_ms;     ///< first to last coefficient commit
  std::vector<double> inject_us;   ///< the three inject_store calls
  std::vector<double> late_ms;     ///< generator lateness per frame
};

/// Feeds the clip's frames through Runtime::inject_store into a keep-alive
/// runtime whose read_splityuv is disabled, as a remote reader would: at
/// kLiveFps when `paced`, all at once otherwise. The job time runs from
/// the first frame's due time until the last frame is encoded.
LiveJob run_live_job(const LiveInput& input, int workers, bool paced,
                     Tracer& tracer) {
  const workloads::MjpegWorkload workload = mjpeg_workload(input.clip, true);
  Program program =
      build_and_validate([&] { return workload.build(); }, tracer);
  const std::array<FieldId, 3> inputs = {program.find_field("yInput"),
                                         program.find_field("uInput"),
                                         program.find_field("vInput")};
  const std::array<FieldId, 3> results = {program.find_field("yResult"),
                                          program.find_field("uResult"),
                                          program.find_field("vResult")};
  const KernelId reader = program.find_kernel("read_splityuv");
  const size_t frames = input.planes.size();
  auto clock = std::make_shared<CommitClock>(
      frames, coefficients_per_frame(*input.clip));
  RunOptions options;
  options.workers = workers;
  options.keep_alive = true;
  options.disabled_kernels = {"read_splityuv"};
  options.watchdog = std::chrono::milliseconds(120000);
  options.store_tap = [clock, results](const StoreEvent& event) {
    for (const FieldId id : results) {
      if (event.field == id) {
        clock->result(event.age, event.region.element_count());
      }
    }
  };
  auto runtime = construct(std::move(program), options, tracer);

  LiveJob out;
  out.job.workers = workers;
  std::exception_ptr run_error;  // written by the runner, read after join
  std::atomic<bool> run_ended{false};
  std::thread runner([&] {
    PB_SPAN(&tracer, "core", "Runtime::run(keep_alive)");
    try {
      out.job.report = runtime->run();
    } catch (...) {
      run_error = std::current_exception();
    }
    run_ended = true;
  });
  // Ends the keep-alive run and joins the runner on every path out.
  struct StopAndJoin {
    Runtime& runtime;
    std::thread& runner;
    ~StopAndJoin() {
      runtime.stop();
      runner.join();
    }
  };

  constexpr int64_t kPeriodNs = 1'000'000'000 / kLiveFps;
  const int64_t t0 = now_ns() + 10'000'000;  // let the workers start
  std::vector<int64_t> due(frames);
  // The generator: feeds the frames, then waits until they are encoded.
  const auto feed = [&] {
    for (size_t a = 0; a < frames; ++a) {
      due[a] = paced ? t0 + static_cast<int64_t>(a) * kPeriodNs : t0;
      const int64_t wait = due[a] - now_ns();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      }
      out.late_ms.push_back(ns_to_ms(now_ns() - due[a]));
      PB_SPAN(&tracer, "core", "Runtime::inject_store x3");
      const int64_t i0 = now_ns();
      for (size_t p = 0; p < 3; ++p) {
        const nd::AnyBuffer& plane = input.planes[a][p];
        runtime->inject_store(inputs[p], static_cast<Age>(a),
                              nd::Region::whole(plane.extents()), reader, p,
                              true, plane.raw());
      }
      out.inject_us.push_back(static_cast<double>(now_ns() - i0) / 1e3);
    }
    const int64_t give_up = now_ns() + 60'000'000'000LL;
    while ((clock->completed() < static_cast<int64_t>(frames) ||
            !runtime->idle()) &&
           now_ns() < give_up && !run_ended) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    out.job.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    out.complete = clock->completed() == static_cast<int64_t>(frames);
  };
  std::exception_ptr feed_error;
  {
    const StopAndJoin stop_and_join{*runtime, runner};
    // A fresh thread per job, so that which CPU the generator shares with
    // the workers changes from job to job instead of once per run.
    std::thread generator([&] {
      try {
        feed();
      } catch (...) {
        feed_error = std::current_exception();
      }
    });
    generator.join();
  }
  if (feed_error) std::rethrow_exception(feed_error);
  if (run_error) std::rethrow_exception(run_error);

  out.job.retained_mb = retained_mb(*runtime);
  out.stream = workload.output->stream();
  for (size_t a = 0; a < frames; ++a) {
    const auto age = static_cast<Age>(a);
    if (!clock->complete(age)) continue;
    out.latency_ms.push_back(ns_to_ms(clock->last_ns(age) - due[a]));
    out.first_ms.push_back(ns_to_ms(clock->first_ns(age) - due[a]));
    out.span_ms.push_back(
        ns_to_ms(clock->last_ns(age) - clock->first_ns(age)));
  }
  return out;
}

void put_live_layers(const LiveJob& job, Metrics& metrics) {
  put_missing(metrics, "core.first_commit_ms", median(job.first_ms), "ms");
  put_missing(metrics, "core.frame_span_ms", median(job.span_ms), "ms");
  put_missing(metrics, "core.inject_us", median(job.inject_us), "us");
  put_missing(metrics, "live.generator_late_ms",
              percentile(job.late_ms, 100.0), "ms");
  put_missing(metrics, "live.frame_latency_p90_ms",
              percentile(job.latency_ms, 90.0), "ms");
}

// --- cluster3 ----------------------------------------------------------------

using AgeBytes = std::map<Age, std::vector<uint8_t>>;

/// One run_cluster job of three p2gnode processes over the shm data plane.
/// The socket transport is left out: its jobs now and then never reach
/// quiescence and stop at the 30 s watchdog.
net::ClusterReport cluster_job(const std::string& workload,
                               const std::string& node_binary,
                               Tracer& tracer) {
  net::ClusterOptions options;
  options.workload = workload;
  options.nodes = kClusterNodes;
  options.workers = 1;
  options.shm = true;
  options.node_binary = node_binary;
  PB_SPAN(&tracer, "net", "run_cluster(" + workload + ",shm)");
  return net::run_cluster(options);
}

std::string cluster_failure(const net::ClusterReport& report) {
  if (report.timed_out) return "timed out";
  if (!report.dead_nodes.empty()) {
    return "node " + report.dead_nodes[0] + " died";
  }
  for (const auto& [node, ok] : report.node_ok) {
    if (!ok) return "node " + node + " failed";
  }
  if (static_cast<int>(report.node_ok.size()) != kClusterNodes) {
    return "only " + std::to_string(report.node_ok.size()) + " nodes reported";
  }
  return {};
}

struct PipelineJob {
  Job job;
  AgeBytes out;
};

PipelineJob run_pipeline_job(Tracer& tracer) {
  // The same configuration net::find_workload("pipeline") builds.
  const workloads::PipelineWorkload workload;
  Program program =
      build_and_validate([&] { return workload.build(); }, tracer);
  const FieldId frame = program.find_field("frame");
  auto clock = std::make_shared<CommitClock>(
      static_cast<size_t>(workload.config.frames) + 1,
      workload.config.frame_bytes);
  RunOptions options;
  workload.apply_schedule(options);
  options.workers = 1;
  options.store_tap = [clock, frame](const StoreEvent& event) {
    if (event.field == frame) {
      clock->result(event.age, event.region.element_count());
    }
  };
  auto runtime = construct(std::move(program), options, tracer);

  PipelineJob out;
  timed_run(*runtime, out.job, tracer);
  out.job.retained_mb = retained_mb(*runtime);
  FieldStorage& storage = runtime->storage("out");
  for (const Age age : storage.live_ages()) {
    const nd::AnyBuffer buffer = storage.fetch_whole(age);
    const auto* bytes = reinterpret_cast<const uint8_t*>(buffer.raw());
    out.out[age].assign(bytes, bytes + buffer.element_count());
  }
  out.job.interval_ms = clock->intervals_ms();
  return out;
}

/// Empty when ages 0..frames-1 of `out` are present and follow the
/// pipeline recurrence out(a+1)[i] = (2 (out(a)[i] + 3) + 1) mod 256.
std::string pipeline_error(const AgeBytes& out) {
  const workloads::PipelineConfig config;
  for (Age a = 0; a < config.frames; ++a) {
    const auto it = out.find(a);
    if (it == out.end()) return "age " + std::to_string(a) + " is missing";
    if (it->second.size() != static_cast<size_t>(config.frame_bytes)) {
      return "age " + std::to_string(a) + " has the wrong size";
    }
  }
  for (Age a = 0; a + 1 < config.frames; ++a) {
    const std::vector<uint8_t>& cur = out.at(a);
    const std::vector<uint8_t>& next = out.at(a + 1);
    for (size_t i = 0; i < cur.size(); ++i) {
      if (next[i] != static_cast<uint8_t>(2 * (cur[i] + 3) + 1)) {
        return "age " + std::to_string(a + 1) + " breaks the recurrence at " +
               std::to_string(i);
      }
    }
  }
  return {};
}

/// One cluster3 round: the pipeline job and the near-empty mul2 job over
/// the shm data plane, and the pipeline job in one in-process Runtime.
struct ClusterRound {
  net::ClusterReport pipeline;
  net::ClusterReport mul2;
  PipelineJob local;
};

/// Runs a round, counting its three operations and checking their outputs.
ClusterRound cluster_round(const std::string& node_binary, Tracer& tracer,
                           Outcome& outcome) {
  ClusterRound round;
  round.pipeline = cluster_job("pipeline", node_binary, tracer);
  round.mul2 = cluster_job("mul2", node_binary, tracer);
  round.local = run_pipeline_job(tracer);
  outcome.attempted += 3;
  for (const auto& [name, report] : {std::pair{"pipeline", &round.pipeline},
                                     std::pair{"mul2", &round.mul2}}) {
    const std::string failure = cluster_failure(*report);
    if (!failure.empty()) {
      ++outcome.failed;
      outcome.errors.push_back(std::string(name) + " cluster job failed: " +
                               failure);
    }
  }
  const std::string local_error = pipeline_error(round.local.out);
  if (!local_error.empty()) outcome.fail_check("in-process: " + local_error);
  const auto it = round.pipeline.captured.find("out");
  if (cluster_failure(round.pipeline).empty() &&
      (it == round.pipeline.captured.end() || it->second != round.local.out)) {
    outcome.fail_check("cluster output differs from the in-process run");
  }
  return round;
}

/// Net layers from a few rounds: the counts of the first, the bring-up
/// difference as a median over all of them.
void put_net_layers(const std::vector<ClusterRound>& rounds,
                    Metrics& metrics) {
  const net::ClusterReport& first = rounds.front().pipeline;
  std::vector<double> job_ms;
  for (const ClusterRound& r : rounds) {
    job_ms.push_back((r.pipeline.wall_s - r.mul2.wall_s) * 1e3);
  }
  put_missing(metrics, "net.data_frames",
              static_cast<double>(first.data_frames), "count");
  put_missing(metrics, "net.bytes_copied_per_frame",
              first.bytes_copied_per_frame, "B");
  put_missing(metrics, "net.bus_messages",
              static_cast<double>(first.bus.delivered), "count");
  put_missing(metrics, "net.bus_bytes", static_cast<double>(first.bus.bytes),
              "B");
  put_missing(metrics, "net.job_minus_bringup_ms", median(job_ms), "ms");
}

std::vector<ClusterRound> cluster_rounds(int count,
                                         const std::string& node_binary,
                                         Tracer& tracer, Outcome& outcome) {
  std::vector<ClusterRound> rounds;
  for (int i = 0; i < count; ++i) {
    rounds.push_back(cluster_round(node_binary, tracer, outcome));
  }
  return rounds;
}

// --- shared run structure ----------------------------------------------------

/// Runs whole rounds until `seconds` would be exceeded by another round of
/// the longest length seen; always at least one. Returns the peak RSS at
/// the end of the first round (with `children`, of reaped children too):
/// later rounds only add allocator fragmentation that varies run to run.
template <class Round>
double run_rounds(double seconds, bool children, Round&& round) {
  const int64_t t0 = now_ns();
  double longest = 0.0;
  double first_rss_mb = 0.0;
  while (true) {
    const int64_t r0 = now_ns();
    round();
    if (first_rss_mb == 0.0) first_rss_mb = peak_rss_mb(children);
    longest = std::max(longest, seconds_since(r0));
    if (seconds_since(t0) + longest > seconds) return first_rss_mb;
  }
}

/// Runs `op`, counting it attempted, and failed when it throws.
template <class Op>
void attempt(Outcome& outcome, Op&& op) {
  ++outcome.attempted;
  try {
    op();
  } catch (const std::exception& e) {
    ++outcome.failed;
    outcome.errors.push_back(e.what());
  }
}

void put_end_to_end(Outcome& outcome, const std::vector<double>& wall,
                    const std::vector<double>& wall_1w,
                    const std::vector<double>& latency_ms,
                    const std::vector<double>& setup, double rss_mb) {
  const auto put = [&](const char* name, const std::vector<double>& samples,
                       const char* unit) {
    outcome.metrics[name] = {median(samples), unit};
    outcome.samples[name] = samples;
  };
  put("wall_s", wall, "s");
  put("wall_s_1w", wall_1w, "s");
  put("frame_latency_ms", latency_ms, "ms");
  put("setup_s", setup, "s");
  outcome.metrics["peak_rss_mb"] = {rss_mb, "MB"};
}

void put_overhead(double untraced_s, double traced_s, Metrics& metrics) {
  metrics["trace.overhead_pct"] = {(traced_s / untraced_s - 1.0) * 100.0,
                                   "%"};
}

/// The probes every traced run makes: layer probes on the seeded MJPEG
/// clip and on the workload's program, the standalone-encoder reference
/// line, and small probe jobs for the layers `self` does not reach.
void fill_layers(const std::string& self, uint32_t seed, const Clip& clip,
                 const std::function<Program()>& program,
                 const std::string& node_binary, Tracer& tracer,
                 Outcome& outcome) {
  Metrics& metrics = outcome.metrics;
  probe_media(*clip, tracer, metrics);
  probe_field(seed, tracer, metrics);
  probe_program(program, tracer, metrics);

  const int64_t s0 = now_ns();
  const std::vector<uint8_t> reference =
      standalone_stream(*clip, false, tracer);
  const double standalone_s = seconds_since(s0);
  const MjpegJob one = run_mjpeg_job(clip, false, 1, tracer);
  metrics["media.standalone_s"] = {standalone_s, "s"};
  metrics["mjpeg.p2g_over_standalone"] = {one.job.wall_s / standalone_s,
                                          "ratio"};
  const std::string error = mjpeg_error(one.stream, reference, *clip, false);
  if (!error.empty()) outcome.fail_check("mjpeg probe: " + error);
  put_kernel_layers(one.job.report, metrics);

  if (self != "kmeans") {
    const workloads::KmeansConfig config = kmeans_config(seed, 2);
    const KmeansJob job = run_kmeans_job(config, kMainWorkers, tracer);
    if (job.snapshots.empty() ||
        job.snapshots.back() != workloads::kmeans_sequential(config)) {
      outcome.fail_check("k-means probe differs from kmeans_sequential");
    }
    put_kernel_layers(job.job.report, metrics);
  }
  if (self != "mjpeg_live") {
    const LiveInput input = make_live_input(kLiveProbeFrames, seed + 1);
    const LiveJob job = run_live_job(input, kLiveWorkers, true, tracer);
    if (!job.complete) outcome.fail_check("live probe did not finish");
    put_live_layers(job, metrics);
  }
  if (self != "cluster3") {
    put_net_layers(cluster_rounds(kClusterProbeRounds, node_binary, tracer,
                                  outcome),
                   metrics);
  }
}

}  // namespace

// --- workloads ---------------------------------------------------------------

Outcome run_mjpeg(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const Clip clip = make_clip(kMjpegFrames, options.seed);
  Tracer off(false);
  const std::vector<uint8_t> reference = standalone_stream(*clip, false, off);
  self_test_mjpeg(reference, *clip, outcome);

  bool first = true;
  const auto check = [&](const MjpegJob& job) {
    const std::string error = mjpeg_error(job.stream, reference, *clip, first);
    first = false;
    if (!error.empty()) outcome.fail_check(error);
  };

  if (tracer.enabled()) {
    MjpegJob base;  // the second of two: the first warms caches and heap
    for (int i = 0; i < 2; ++i) {
      attempt(outcome,
              [&] { base = run_mjpeg_job(clip, false, kMainWorkers, off); });
    }
    MjpegJob traced;
    attempt(outcome, [&] {
      traced = run_mjpeg_job(clip, false, kMainWorkers, tracer);
    });
    check(base);
    check(traced);
    put_job_layers(traced.job, outcome.metrics);
    put_overhead(base.job.wall_s, traced.job.wall_s, outcome.metrics);
    fill_layers("mjpeg", options.seed, clip, mjpeg_program(clip, false),
                options.node_binary, tracer, outcome);
    return outcome;
  }

  RunOptions setup_options;
  setup_options.workers = kMainWorkers;
  std::vector<double> wall, wall_1w, interval_ms, setup;
  const double rss_mb = run_rounds(options.seconds, false, [&] {
    add_setup_samples(mjpeg_program(clip, false), setup_options, setup);
    for (const int workers : {kMainWorkers, 1}) {
      attempt(outcome, [&] {
        const MjpegJob job = run_mjpeg_job(clip, false, workers, off);
        check(job);
        if (workers == 1) {
          wall_1w.push_back(job.job.wall_s);
        } else {
          wall.push_back(job.job.wall_s);
          interval_ms.insert(interval_ms.end(), job.job.interval_ms.begin(),
                             job.job.interval_ms.end());
        }
      });
    }
  });
  put_end_to_end(outcome, wall, wall_1w, interval_ms, setup, rss_mb);
  return outcome;
}

Outcome run_kmeans(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const workloads::KmeansConfig config =
      kmeans_config(options.seed, kKmeansIterations);
  const std::vector<double> sequential = workloads::kmeans_sequential(config);
  const std::vector<double> points = workloads::generate_points(config);
  // Oracle self-test on the first job: one final centroid moved by one ulp
  // must be rejected.
  bool tested = false;
  const auto check = [&](const KmeansJob& job) {
    const std::string error =
        kmeans_error(job.snapshots, sequential, points, config);
    if (!error.empty()) outcome.fail_check(error);
    if (tested || job.snapshots.empty() || job.snapshots.back().empty()) {
      return;
    }
    tested = true;
    std::vector<std::vector<double>> corrupted = job.snapshots;
    double& value = corrupted.back()[0];
    value = std::nextafter(value, std::numeric_limits<double>::infinity());
    if (kmeans_error(corrupted, sequential, points, config).empty()) {
      outcome.fail_check("self-test: a centroid moved by one ulp was accepted");
    }
  };
  Tracer off(false);

  const std::function<Program()> kmeans_program = [config] {
    workloads::KmeansWorkload workload;
    workload.config = config;
    return workload.build();
  };

  if (tracer.enabled()) {
    KmeansJob base;  // the second of two: the first warms caches and heap
    for (int i = 0; i < 2; ++i) {
      attempt(outcome,
              [&] { base = run_kmeans_job(config, kMainWorkers, off); });
    }
    KmeansJob traced;
    attempt(outcome,
            [&] { traced = run_kmeans_job(config, kMainWorkers, tracer); });
    check(base);
    check(traced);
    put_job_layers(traced.job, outcome.metrics);
    put_overhead(base.job.wall_s, traced.job.wall_s, outcome.metrics);
    fill_layers("kmeans", options.seed, make_clip(kMjpegFrames, options.seed),
                kmeans_program, options.node_binary, tracer, outcome);
    return outcome;
  }

  RunOptions setup_options;
  workloads::KmeansWorkload{config}.apply_schedule(setup_options);
  setup_options.workers = kMainWorkers;
  std::vector<double> wall, wall_1w, interval_ms, setup;
  const double rss_mb = run_rounds(options.seconds, false, [&] {
    add_setup_samples(kmeans_program, setup_options, setup);
    for (const int workers : {kMainWorkers, 1}) {
      attempt(outcome, [&] {
        const KmeansJob job = run_kmeans_job(config, workers, off);
        check(job);
        if (workers == 1) {
          wall_1w.push_back(job.job.wall_s);
        } else {
          wall.push_back(job.job.wall_s);
          interval_ms.insert(interval_ms.end(), job.job.interval_ms.begin(),
                             job.job.interval_ms.end());
        }
      });
    }
  });
  put_end_to_end(outcome, wall, wall_1w, interval_ms, setup, rss_mb);
  return outcome;
}

Outcome run_mjpeg_live(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const LiveInput input = make_live_input(kLiveFrames, options.seed + 1);
  const LiveInput burst = make_live_input(kLiveBurstFrames, options.seed + 2);
  Tracer off(false);
  const std::vector<uint8_t> reference =
      standalone_stream(*input.clip, true, off);
  const std::vector<uint8_t> burst_reference =
      standalone_stream(*burst.clip, true, off);
  self_test_mjpeg(reference, *input.clip, outcome);

  // Frame count and PSNR are checked on the first job of each clip; later
  // jobs must reproduce the same stream.
  std::set<const LiveInput*> fully_checked;
  const auto check = [&](const LiveJob& job, const LiveInput& fed,
                         const std::vector<uint8_t>& want) {
    if (!job.complete) {
      outcome.fail_check("not every injected frame was encoded");
      return;
    }
    const bool full = fully_checked.insert(&fed).second;
    const std::string error = mjpeg_error(job.stream, want, *fed.clip, full);
    if (!error.empty()) outcome.fail_check(error);
  };

  if (tracer.enabled()) {
    LiveJob paced;
    attempt(outcome, [&] {
      paced = run_live_job(input, kLiveWorkers, true, tracer);
    });
    LiveJob base;
    attempt(outcome,
            [&] { base = run_live_job(burst, kLiveWorkers, false, off); });
    LiveJob traced;
    attempt(outcome,
            [&] { traced = run_live_job(burst, kLiveWorkers, false, tracer); });
    check(paced, input, reference);
    check(base, burst, burst_reference);
    check(traced, burst, burst_reference);
    put_job_layers(paced.job, outcome.metrics);
    put_live_layers(paced, outcome.metrics);
    put_overhead(base.job.wall_s, traced.job.wall_s, outcome.metrics);
    fill_layers("mjpeg_live", options.seed,
                make_clip(kMjpegFrames, options.seed),
                mjpeg_program(input.clip, true), options.node_binary, tracer,
                outcome);
    return outcome;
  }

  RunOptions setup_options;
  setup_options.workers = kLiveWorkers;
  setup_options.keep_alive = true;
  setup_options.disabled_kernels = {"read_splityuv"};
  std::vector<double> wall, wall_1w, latency, setup;
  const double rss_mb = run_rounds(options.seconds, false, [&] {
    add_setup_samples(mjpeg_program(input.clip, true), setup_options, setup);
    attempt(outcome, [&] {
      const LiveJob job = run_live_job(input, kLiveWorkers, true, off);
      check(job, input, reference);
      latency.insert(latency.end(), job.latency_ms.begin(),
                     job.latency_ms.end());
    });
    for (int b = 0; b < kLiveBursts; ++b) {
      for (const int workers : {kLiveWorkers, 1}) {
        attempt(outcome, [&] {
          const LiveJob job = run_live_job(burst, workers, false, off);
          check(job, burst, burst_reference);
          (workers == 1 ? wall_1w : wall).push_back(job.job.wall_s);
        });
      }
    }
  });
  put_end_to_end(outcome, wall, wall_1w, latency, setup, rss_mb);
  return outcome;
}

Outcome run_cluster3(const Options& options, Tracer& tracer) {
  Outcome outcome;
  Tracer off(false);
  const std::string& node_binary = options.node_binary;

  // Oracle self-test: one age that breaks the pipeline recurrence.
  {
    const PipelineJob job = run_pipeline_job(off);
    ++outcome.attempted;
    const std::string error = pipeline_error(job.out);
    if (!error.empty()) outcome.fail_check("in-process: " + error);
    AgeBytes corrupted = job.out;
    if (corrupted.count(3)) {
      corrupted[3][0] = static_cast<uint8_t>(corrupted[3][0] + 1);
    }
    if (pipeline_error(corrupted).empty()) {
      outcome.fail_check("self-test: a broken pipeline age was accepted");
    }
  }

  if (tracer.enabled()) {
    double base_s = 0.0;  // the second of two, as for the other workloads
    for (int i = 0; i < 2; ++i) {
      attempt(outcome, [&] {
        const net::ClusterReport base =
            cluster_job("pipeline", node_binary, off);
        const std::string failure = cluster_failure(base);
        if (!failure.empty()) throw std::runtime_error(failure);
        base_s = base.wall_s;
      });
    }
    const std::vector<ClusterRound> rounds =
        cluster_rounds(kClusterProbeRounds, node_binary, tracer, outcome);
    put_job_layers(rounds.front().local.job, outcome.metrics);
    put_net_layers(rounds, outcome.metrics);
    put_overhead(base_s, rounds.front().pipeline.wall_s, outcome.metrics);
    fill_layers("cluster3", options.seed,
                make_clip(kMjpegFrames, options.seed),
                [] { return workloads::PipelineWorkload{}.build(); },
                node_binary, tracer, outcome);
    return outcome;
  }

  std::vector<double> wall, wall_1w, interval_ms, setup;
  const double rss_mb = run_rounds(options.seconds, true, [&] {
    const ClusterRound round = cluster_round(node_binary, off, outcome);
    wall.push_back(round.pipeline.wall_s);
    setup.push_back(round.mul2.wall_s);
    wall_1w.push_back(round.local.job.wall_s);
    interval_ms.insert(interval_ms.end(), round.local.job.interval_ms.begin(),
                       round.local.job.interval_ms.end());
  });
  put_end_to_end(outcome, wall, wall_1w, interval_ms, setup, rss_mb);
  return outcome;
}

}  // namespace perfbench
