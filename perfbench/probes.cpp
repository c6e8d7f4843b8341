// Layer probes: timed calls into one layer's public functions on seeded
// inputs, run by every traced run so each per-layer metric is measured
// whichever workload is traced.
#include <algorithm>

#include "bench.h"
#include "core/field.h"
#include "core/runtime.h"
#include "graph/partition.h"
#include "graph/static_graph.h"
#include "media/jpeg.h"
#include "media/quant.h"

namespace perfbench {

using namespace p2g;

namespace {

constexpr int kProbeRepeats = 7;

/// Keeps a computed value alive so the timed loop is not optimized away.
volatile int64_t g_sink = 0;

}  // namespace

void probe_media(const media::YuvVideo& clip, Tracer& tracer,
                 Metrics& metrics) {
  const media::QuantTable luma =
      media::scale_table(media::standard_luma_table(), 50);
  const media::QuantTable chroma =
      media::scale_table(media::standard_chroma_table(), 50);
  const size_t frames = std::min<size_t>(clip.frames.size(), 4);

  std::vector<uint8_t> blocks;
  for (size_t f = 0; f < frames; ++f) {
    const media::YuvFrame& frame = clip.frames[f];
    for (int by = 0; by < (frame.height + 7) / 8; ++by) {
      for (int bx = 0; bx < (frame.width + 7) / 8; ++bx) {
        uint8_t block[media::kBlockSize];
        media::extract_block(frame.y.data(), frame.width, frame.height, by,
                             bx, block);
        blocks.insert(blocks.end(), block, block + media::kBlockSize);
      }
    }
  }
  const size_t count = blocks.size() / media::kBlockSize;

  for (const bool fast : {false, true}) {
    std::vector<double> per_block_ns;
    int16_t out[media::kBlockSize];
    for (int r = 0; r < kProbeRepeats; ++r) {
      PB_SPAN(&tracer, "media", fast ? "dct_quantize_block(aan) x frame"
                                     : "dct_quantize_block(naive) x frame");
      const int64_t t0 = now_ns();
      for (size_t b = 0; b < count; ++b) {
        media::dct_quantize_block(&blocks[b * media::kBlockSize], luma, fast,
                                  out);
        g_sink = g_sink + out[0];
      }
      per_block_ns.push_back(static_cast<double>(now_ns() - t0) /
                             static_cast<double>(count));
    }
    metrics[fast ? "media.dct_fast_ns" : "media.dct_naive_ns"] = {
        median(per_block_ns), "ns"};
  }

  std::vector<double> vlc_ms;
  for (size_t f = 0; f < frames; ++f) {
    const media::YuvFrame& frame = clip.frames[f];
    const media::CoeffGrid y = media::dct_quantize_plane(
        frame.y.data(), frame.width, frame.height, luma, false);
    const media::CoeffGrid u =
        media::dct_quantize_plane(frame.u.data(), frame.chroma_width(),
                                  frame.chroma_height(), chroma, false);
    const media::CoeffGrid v =
        media::dct_quantize_plane(frame.v.data(), frame.chroma_width(),
                                  frame.chroma_height(), chroma, false);
    for (int r = 0; r < kProbeRepeats; ++r) {
      PB_SPAN(&tracer, "media", "encode_jpeg_from_coeffs");
      const int64_t t0 = now_ns();
      const std::vector<uint8_t> jpeg = media::encode_jpeg_from_coeffs(
          frame.width, frame.height, y, u, v, luma, chroma);
      vlc_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      g_sink = g_sink + static_cast<int64_t>(jpeg.size());
    }
  }
  metrics["media.vlc_ms"] = {median(vlc_ms), "ms"};
}

void probe_field(uint32_t seed, Tracer& tracer, Metrics& metrics) {
  // A CIF luma coefficient grid: 36 x 44 blocks of 64 int16, stored one
  // block per call the way the yDCT kernel's commits arrive.
  constexpr int64_t kRows = 36;
  constexpr int64_t kCols = 44;
  constexpr int64_t kCoeffs = 64;
  std::vector<int16_t> payload(static_cast<size_t>(kCoeffs));
  uint32_t state = seed * 2654435761u + 7;
  for (int16_t& value : payload) {
    state = state * 1664525u + 1013904223u;
    value = static_cast<int16_t>(state >> 20);
  }

  FieldDecl decl;
  decl.id = 0;
  decl.name = "probe";
  decl.type = nd::ElementType::kInt16;
  decl.rank = 3;
  FieldStorage storage(decl);

  std::vector<double> store_ns;
  std::vector<double> view_ns;
  const auto* bytes = reinterpret_cast<const std::byte*>(payload.data());
  for (Age age = 0; age < kProbeRepeats; ++age) {
    // Sealed first, so the probe times the steady write path (write-once
    // check, written bits, copy); an unsealed age re-grows its buffer on
    // every block that extends it.
    storage.seal(age, nd::Extents({kRows, kCols, kCoeffs}));
    {
      PB_SPAN(&tracer, "core", "FieldStorage::store x grid");
      const int64_t t0 = now_ns();
      for (int64_t by = 0; by < kRows; ++by) {
        for (int64_t bx = 0; bx < kCols; ++bx) {
          storage.store(age, nd::Region({nd::Interval{by, by + 1},
                                         nd::Interval{bx, bx + 1},
                                         nd::Interval{0, kCoeffs}}),
                        bytes);
        }
      }
      store_ns.push_back(static_cast<double>(now_ns() - t0) /
                         static_cast<double>(kRows * kCols));
    }
    // The first fetch publishes the sealed age; time the steady state.
    g_sink = g_sink + storage.try_fetch_view_whole(age)->element_count();
    constexpr int kFetches = 20000;
    PB_SPAN(&tracer, "core", "FieldStorage::try_fetch_view_whole x 20000");
    const int64_t t0 = now_ns();
    for (int i = 0; i < kFetches; ++i) {
      g_sink = g_sink + storage.try_fetch_view_whole(age)->element_count();
    }
    view_ns.push_back(static_cast<double>(now_ns() - t0) / kFetches);
  }
  metrics["field.store_ns"] = {median(store_ns), "ns"};
  metrics["field.fetch_view_ns"] = {median(view_ns), "ns"};
}

void probe_program(const std::function<Program()>& build, Tracer& tracer,
                   Metrics& metrics) {
  std::vector<double> validate_us;
  std::vector<double> ctor_us;
  std::vector<double> partition_us;
  for (int r = 0; r < kProbeRepeats * 3; ++r) {
    Program program = build();
    {
      PB_SPAN(&tracer, "analysis", "Program::validate");
      const int64_t t0 = now_ns();
      program.validate();
      validate_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    {
      PB_SPAN(&tracer, "graph", "FinalGraph::from_program+partition_graph");
      const int64_t t0 = now_ns();
      const graph::FinalGraph final_graph =
          graph::FinalGraph::from_program(program);
      const graph::Partition partition = graph::partition_graph(final_graph, 3);
      partition_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      g_sink = g_sink + static_cast<int64_t>(partition.assignment.size());
    }
    {
      RunOptions options;
      options.workers = 3;
      PB_SPAN(&tracer, "core", "Runtime::Runtime");
      const int64_t t0 = now_ns();
      Runtime runtime(std::move(program), options);
      ctor_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  metrics["analysis.validate_us"] = {median(validate_us), "us"};
  metrics["core.runtime_ctor_us"] = {median(ctor_us), "us"};
  metrics["graph.partition_us"] = {median(partition_us), "us"};
}

}  // namespace perfbench
