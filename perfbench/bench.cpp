#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double peak_rss_mb(bool children) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  long kb = usage.ru_maxrss;
  if (children) {
    rusage child{};
    getrusage(RUSAGE_CHILDREN, &child);
    kb = std::max(kb, child.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

namespace {
thread_local uint64_t t_open_span = 0;

uint64_t thread_key() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000;
}
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* layer, std::string name)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr),
      layer_(layer),
      name_(std::move(name)) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    id_ = tracer_->next_id_++;
  }
  parent_ = t_open_span;
  t_open_span = id_;
  start_ns_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const int64_t end = now_ns();
  t_open_span = parent_;
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(
      Span{layer_, std::move(name_), start_ns_, end, id_, parent_,
           thread_key()});
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "[\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 0, \"args\": {\"name\": \"perfbench\"}},\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(
        line, sizeof line,
        "{\"name\": \"%s.%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %" PRIu64
        ", \"args\": {\"layer\": \"%s\", \"span\": \"%016" PRIx64
        "\", \"parent\": \"%016" PRIx64 "\"}}%s\n",
        s.layer.c_str(), s.name.c_str(),
        static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
        s.layer.c_str(), s.id, s.parent, i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const int64_t own = s.end_ns - s.start_ns - child_ns[s.id];
    self[s.layer] += static_cast<double>(own) / 1e6;
  }
  return self;
}

}  // namespace perfbench
