// Heap-allocation budget of the per-instance dispatch path.
//
// Counts every global operator new while a small k-means job runs at one
// worker and bounds the count per executed kernel instance. A check that
// builds its message before knowing it fails, or a store that copies its
// writer's name, shows up here as several extra allocations per instance.
//
// This executable replaces the global operator new, so it is its own test
// binary: the counting allocator affects nothing else. Sanitizer builds
// interpose their own allocator and are skipped.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>

#include "core/runtime.h"
#include "workloads/kmeans.h"

namespace {

std::atomic<int64_t> g_allocations{0};

}  // namespace

// Not inlined: a delete inlined next to a visible new would pair the
// builtin new with free() in GCC's mismatched-new-delete analysis.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace p2g {
namespace {

/// About 33 allocations per instance were measured with lazy check
/// messages (GCC 12, libstdc++); the bound leaves room for standard-library
/// differences. Building the messages eagerly measured about 141.
constexpr double kMaxAllocationsPerInstance = 48.0;

TEST(AllocationBudget, KmeansDispatchAllocationsPerInstance) {
  if (!std::string_view(P2G_SANITIZE).empty()) {
    GTEST_SKIP() << "sanitizer builds use their own allocator";
  }
  workloads::KmeansWorkload kmeans;
  kmeans.config.n = 50;
  kmeans.config.k = 4;
  kmeans.config.iterations = 2;
  RunOptions opts;
  opts.workers = 1;
  kmeans.apply_schedule(opts);
  Runtime rt(kmeans.build(), opts);

  const int64_t before = g_allocations.load();
  const RunReport report = rt.run();
  const int64_t allocations = g_allocations.load() - before;

  int64_t instances = 0;
  for (const KernelStats& k : report.instrumentation.kernels) {
    instances += k.instances;
  }
  ASSERT_GT(instances, 400);
  const double per_instance =
      static_cast<double>(allocations) / static_cast<double>(instances);
  RecordProperty("allocations_per_instance", std::to_string(per_instance));
  EXPECT_LE(per_instance, kMaxAllocationsPerInstance)
      << allocations << " allocations over " << instances << " instances";
}

}  // namespace
}  // namespace p2g
