#include "common/dynamic_bitset.h"

#include <bit>

#include "common/error.h"

namespace p2g {

void DynamicBitset::resize(size_t new_size) {
  const size_t new_words = (new_size + kBitsPerWord - 1) / kBitsPerWord;
  if (new_size < size_) {
    // Clear bits beyond the new size before shrinking so count_ stays exact.
    for (size_t pos = new_size; pos < size_; ++pos) {
      if (test(pos)) {
        words_[pos / kBitsPerWord] &= ~(uint64_t{1} << (pos % kBitsPerWord));
        --count_;
      }
    }
  }
  words_.resize(new_words, 0);
  size_ = new_size;
}

bool DynamicBitset::test(size_t pos) const {
  check_internal(pos < size_, "DynamicBitset::test out of range");
  return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1u;
}

bool DynamicBitset::set(size_t pos) {
  check_internal(pos < size_, "DynamicBitset::set out of range");
  uint64_t& word = words_[pos / kBitsPerWord];
  const uint64_t mask = uint64_t{1} << (pos % kBitsPerWord);
  if (word & mask) return false;
  word |= mask;
  ++count_;
  return true;
}

size_t DynamicBitset::set_range(size_t begin, size_t end) {
  check_internal(begin <= end && end <= size_,
                 "DynamicBitset::set_range out of range");
  size_t newly = 0;
  size_t pos = begin;
  // Ragged head, whole middle words, then the ragged tail.
  while (pos < end && pos % kBitsPerWord != 0) {
    newly += set(pos) ? 1 : 0;
    ++pos;
  }
  while (pos + kBitsPerWord <= end) {
    uint64_t& word = words_[pos / kBitsPerWord];
    const size_t fresh =
        kBitsPerWord - static_cast<size_t>(std::popcount(word));
    word = ~uint64_t{0};
    newly += fresh;
    count_ += fresh;
    pos += kBitsPerWord;
  }
  while (pos < end) {
    newly += set(pos) ? 1 : 0;
    ++pos;
  }
  return newly;
}

bool DynamicBitset::all_in_range(size_t begin, size_t end) const {
  check_internal(begin <= end && end <= size_,
                 "DynamicBitset::all_in_range out of range");
  size_t pos = begin;
  while (pos < end && pos % kBitsPerWord != 0) {
    if (!test(pos)) return false;
    ++pos;
  }
  while (pos + kBitsPerWord <= end) {
    if (words_[pos / kBitsPerWord] != ~uint64_t{0}) return false;
    pos += kBitsPerWord;
  }
  while (pos < end) {
    if (!test(pos)) return false;
    ++pos;
  }
  return true;
}

size_t DynamicBitset::find_next(size_t pos, bool value) const {
  while (pos < size_) {
    uint64_t word = words_[pos / kBitsPerWord];
    if (!value) word = ~word;
    word &= ~uint64_t{0} << (pos % kBitsPerWord);
    if (word != 0) {
      const size_t found = pos - pos % kBitsPerWord +
                           static_cast<size_t>(std::countr_zero(word));
      return found < size_ ? found : size_;
    }
    pos += kBitsPerWord - pos % kBitsPerWord;
  }
  return size_;
}

void DynamicBitset::clear() {
  words_.assign(words_.size(), 0);
  count_ = 0;
}

}  // namespace p2g
