// Fields: the central data abstraction of P2G.
//
// A field is a named, typed, multi-dimensional array with an *age*
// dimension. Each (age, element) cell obeys write-once semantics — storing
// twice throws — which is what makes the runtime deterministic and lets the
// dependency analyzer decide runnability from written-bitmaps alone.
//
// Extents are discovered at runtime ("implicit resizing"): stores may grow
// an age's extents until the analyzer *seals* the age, after which the
// extent is final and completeness (`all elements written`) is meaningful.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "check/sync.h"
#include "common/dynamic_bitset.h"
#include "core/ids.h"
#include "nd/buffer.h"
#include "nd/region.h"
#include "nd/slice.h"
#include "nd/view.h"

namespace p2g {

/// Static declaration of a field.
struct FieldDecl {
  FieldId id = kInvalidField;
  std::string name;
  nd::ElementType type = nd::ElementType::kInt32;
  size_t rank = 1;
  /// Optional declared per-dimension extents (the kernel language's
  /// `int32[8] data age;`): empty = fully implicit, otherwise one entry
  /// per dimension with -1 for dimensions left implicit. Runtime extents
  /// are still discovered by stores — declared extents only feed static
  /// analysis (P2G-W008 out-of-bounds slice checks, footprint bounds).
  std::vector<int64_t> declared_extents;

  /// Declared extent of `dim`, or -1 when implicit.
  int64_t declared_extent(size_t dim) const {
    return dim < declared_extents.size() ? declared_extents[dim] : -1;
  }
};

/// Result of a store operation, consumed by the runtime to build events.
struct StoreResult {
  bool resized = false;       ///< extents grew as part of this store
  nd::Extents extents;        ///< extents after the store
};

/// Identity of the kernel instance performing a store, passed down so a
/// write-once violation names the offending writer (and, in checked mode,
/// the previous writer of the same elements). It only views the caller's
/// kernel name and indices, which must outlive the store call; nothing is
/// copied or formatted unless the store fails or writers are tracked.
struct StoreOrigin {
  std::string_view kernel;  ///< kernel name ("injected" for remote stores)
  Age age = 0;              ///< instance age
  std::span<const int64_t> indices;  ///< instance index-variable values

  /// "kernel 'mul2' instance age 3 (2)"
  std::string to_string() const;
};

/// Runtime storage of one field across all live ages. Thread-safe.
class FieldStorage {
 public:
  explicit FieldStorage(FieldDecl decl);

  const FieldDecl& decl() const { return decl_; }

  /// Stores a densely packed region payload into (age, region), enforcing
  /// write-once per element. Grows extents when the region does not fit and
  /// the age is not sealed; throws kOutOfRange if it is. `origin`, when
  /// given, is named in the write-once violation error (and recorded per
  /// region under track_writers).
  StoreResult store(Age age, const nd::Region& region, const std::byte* data,
                    const StoreOrigin* origin = nullptr);

  /// Stores a whole array as (age)'s complete content. The age's extents
  /// become at least the buffer's extents.
  StoreResult store_whole(Age age, const nd::AnyBuffer& data,
                          const StoreOrigin* origin = nullptr);

  /// Fill-mode store: writes only the elements of `region` that have not
  /// been written yet and silently skips the rest. Returns the number of
  /// freshly written elements (0 = the store was a pure duplicate). This is
  /// the idempotent-apply primitive of the fault-tolerance layer: replayed
  /// forwards, checkpoint restores, and re-executed kernel instances may
  /// partially overlap data that already arrived, and write-once semantics
  /// guarantee any overlapping payload bytes are identical.
  int64_t store_fill(Age age, const nd::Region& region,
                     const std::byte* data);

  /// Checked mode (RunOptions::checked): record the origin of every store
  /// per (age, region) so a write-once violation can also report who wrote
  /// the overlapping elements first. Costs one Region copy and one formatted
  /// origin per store; off by default.
  void track_writers(bool enabled) { track_writers_ = enabled; }

  /// Marks the age's extents as final (grows the buffer if needed). Called
  /// by the dependency analyzer when all producers are accounted for.
  void seal(Age age, const nd::Extents& extents);

  bool is_sealed(Age age) const;

  /// True when sealed and every element has been written.
  bool is_complete(Age age) const;

  /// True when the region lies within current extents and every element in
  /// it has been written.
  bool region_written(Age age, const nd::Region& region) const;

  /// The dependency analyzer's per-candidate fetch test, under one shared
  /// lock: `slice` resolved at `coord` against the age's current extents
  /// is fully written (region_written), and with `need_sealed` the age is
  /// also sealed.
  bool slice_written(Age age, const nd::SliceSpec& slice,
                     const nd::Coord& coord, bool need_sealed) const;

  /// Current extents of an age ({} rank-`rank` zeros when never touched).
  nd::Extents extents(Age age) const;

  /// Final extents of a sealed age, or nullopt while it is unsealed
  /// (is_sealed and extents under one lock).
  std::optional<nd::Extents> sealed_extents(Age age) const;

  /// Copies (age, region) into a densely packed buffer of the field's type.
  /// All elements must have been written.
  nd::AnyBuffer fetch(Age age, const nd::Region& region) const;

  /// Copies the whole content of a complete age.
  nd::AnyBuffer fetch_whole(Age age) const;

  // --- zero-copy read path -------------------------------------------------
  //
  // Sealed ages never reallocate their payload again (implicit resizing is
  // over), and write-once semantics mean already-written elements never
  // change — so a fetch of a sealed age can alias the age buffer instead of
  // copying it. The view carries a shared_ptr keepalive: release_age() may
  // drop the age while kernels still hold views, and the memory is freed
  // only when the last view goes away.
  //
  // Reads of sealed ages never wait behind stores in steady state: the
  // first fetch of a sealed age publishes it (grows the buffer to its final
  // extents under the writer lock, then adds it to the seal index); later
  // fetches resolve through the seal index under its own small lock,
  // without touching the storage mutex at all.

  /// View of (age, region) aliasing the age buffer. Returns nullopt while
  /// the age is unsealed (the buffer may still be reallocated by implicit
  /// resizing) — callers fall back to fetch(). Contiguous regions yield
  /// dense views; anything else yields a strided view, still zero-copy.
  std::optional<nd::ConstView> try_fetch_view(Age age,
                                              const nd::Region& region);

  /// Whole-field variant of try_fetch_view (the region is the sealed
  /// extents).
  std::optional<nd::ConstView> try_fetch_view_whole(Age age);

  /// Number of elements written so far at this age.
  int64_t written_count(Age age) const;

  /// Releases the storage of an age (garbage collection of old ages).
  void release_age(Age age);

  /// Ages currently held (for reports/tests).
  std::vector<Age> live_ages() const;

  /// Total bytes currently allocated across live ages.
  size_t memory_bytes() const;

  // --- external storage hooks (the shared-memory data plane) ---------------

  /// Factory for new age buffers. A shared-memory data plane installs one
  /// that allocates payload bytes from its mapped arena, so outgoing whole
  /// stores can ship as arena offsets instead of copies. Must be set
  /// before the runtime starts (not thread-safe against stores).
  using BufferFactory =
      std::function<nd::AnyBuffer(nd::ElementType, const nd::Extents&)>;
  void set_buffer_factory(BufferFactory factory);

  /// A raw look at an age's current payload block: base pointer and
  /// extents under the reader lock. The pointer is only stable if the
  /// caller knows the block cannot be reclaimed (arena-backed buffers —
  /// bump arenas never free; heap-backed buffers may relocate on growth,
  /// so callers must range-check the pointer against their arena before
  /// trusting it).
  struct RawBlock {
    const std::byte* base = nullptr;
    nd::Extents extents;
  };
  std::optional<RawBlock> peek_block(Age age) const;

  /// Adopts `view` (densely packed, matching type/rank) as the complete
  /// payload of `age` without copying: the age buffer aliases the view's
  /// memory and every element is marked written. Only possible when the
  /// age has no written elements yet and, if sealed, the view covers the
  /// sealed extents. Returns false when adoption is not possible (caller
  /// falls back to a copying store). This is how a mapped peer-arena frame
  /// becomes local field content with zero copies.
  bool adopt_whole(Age age, const nd::ConstView& view);

 private:
  struct AgeData {
    /// Payload, shared with outstanding views (keepalive).
    std::shared_ptr<nd::AnyBuffer> buffer;
    DynamicBitset written;
    bool sealed = false;
    /// The age is in the seal index (buffer at final extents).
    bool published = false;
    /// Final extents once sealed. The buffer itself grows lazily (an age
    /// that is sealed but never stored — e.g. the elided intermediate of a
    /// fused pipeline — costs no memory).
    nd::Extents sealed_extents;
    /// Writer provenance (region, formatted StoreOrigin), only populated
    /// under track_writers.
    std::vector<std::pair<nd::Region, std::string>> writers;

    nd::Extents current_extents() const {
      return sealed ? sealed_extents : buffer->extents();
    }
  };

  /// One published (sealed, fully grown) age in the seal index.
  struct SealEntry {
    Age age;
    std::shared_ptr<const nd::AnyBuffer> buffer;
  };

  AgeData& age_data(Age age);           // creates on demand (locked caller)
  const AgeData* find_age(Age age) const;

  /// Grows buffer + written-bitmap to new extents, remapping set bits.
  void grow(AgeData& data, const nd::Extents& new_extents);

  /// region_written on an age the caller holds the lock of.
  static bool written_within(const AgeData& data, const nd::Region& region);

  /// Grows a sealed age to its final extents and adds it to the seal index
  /// (caller holds the writer lock).
  void publish(AgeData& data, Age age);

  /// Buffer of a published age from the seal index, or nullptr.
  std::shared_ptr<const nd::AnyBuffer> published_buffer(Age age) const;

  /// View of `region` aliasing a published buffer.
  nd::ConstView make_view(std::shared_ptr<const nd::AnyBuffer> buffer,
                          const nd::Region& region) const;

  /// Builds and throws the kWriteOnceViolation error for a store hitting
  /// already-written elements of `conflict` (caller holds the lock).
  [[noreturn]] void throw_write_once(const AgeData& ad, Age age,
                                     const nd::Region& conflict,
                                     const StoreOrigin* origin) const;

  FieldDecl decl_;
  bool track_writers_ = false;
  BufferFactory buffer_factory_;  ///< optional external-arena allocator
  /// Writer lock for stores/seal/release/publish; shared for queries. The
  /// published-age fetch path does not take it.
  mutable sync::SharedMutex mutex_{"FieldStorage.mutex"};
  std::map<Age, AgeData> ages_;
  /// Guards seal_index_: shared on the fetch fast path, exclusive on
  /// publish/release (both once per age, nested inside mutex_).
  mutable sync::SharedMutex seal_mutex_{"FieldStorage.seal_index"};
  std::vector<SealEntry> seal_index_;  ///< sorted by age
};

}  // namespace p2g
