// A growable bitmap with a cached popcount, used by field storage to track
// which elements of an age have been written (write-once bookkeeping).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace p2g {

/// Growable bitset. All indices are element positions; the set keeps a
/// running count of set bits so completeness checks are O(1).
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t size) { resize(size); }

  /// Number of addressable bits.
  size_t size() const { return size_; }

  /// Number of set bits.
  size_t count() const { return count_; }

  bool all() const { return count_ == size_; }
  bool none() const { return count_ == 0; }

  /// Grows (or shrinks) the bitset; new bits start cleared.
  void resize(size_t new_size);

  bool test(size_t pos) const;

  /// Sets a bit. Returns false if it was already set (write-once probe).
  bool set(size_t pos);

  /// Sets [begin, end). Returns the number of bits that were newly set.
  size_t set_range(size_t begin, size_t end);

  /// True when every bit in [begin, end) is set.
  bool all_in_range(size_t begin, size_t end) const;

  /// Index of the first bit at or after `pos` whose value is `value`, or
  /// size() when there is none. Scans a word at a time, so walking the set
  /// runs of a bitmap costs O(words + runs).
  size_t find_next(size_t pos, bool value) const;

  void clear();

 private:
  static constexpr size_t kBitsPerWord = 64;

  std::vector<uint64_t> words_;
  size_t size_ = 0;
  size_t count_ = 0;
};

}  // namespace p2g
