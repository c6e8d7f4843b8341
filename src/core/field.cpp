#include "core/field.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/error.h"

namespace p2g {

std::string StoreOrigin::to_string() const {
  std::string out = "kernel '" + std::string(kernel) + "' instance age " +
                    std::to_string(age);
  if (!indices.empty()) {
    out += " " + nd::to_string(nd::Coord(indices.begin(), indices.end()));
  }
  return out;
}

FieldStorage::FieldStorage(FieldDecl decl) : decl_(std::move(decl)) {}

void FieldStorage::throw_write_once(const AgeData& ad, Age age,
                                    const nd::Region& conflict,
                                    const StoreOrigin* origin) const {
  std::string msg = "region " + conflict.to_string() + " of field " +
                    decl_.name + " age " + std::to_string(age) +
                    " overlaps previously written elements";
  if (origin != nullptr) {
    msg += "; writer: " + origin->to_string();
  }
  // With provenance tracking on (RunOptions::checked), name the earlier
  // writers of the overlapping elements — this turns the error into a
  // two-sided race report.
  size_t listed = 0;
  for (const auto& [region, writer] : ad.writers) {
    if (conflict.intersect(region).empty()) continue;
    msg += listed == 0 ? "; previously written by " : ", ";
    msg += writer + " storing " + region.to_string();
    if (++listed == 4) {
      msg += ", ...";
      break;
    }
  }
  throw_error(ErrorKind::kWriteOnceViolation, msg);
}

FieldStorage::AgeData& FieldStorage::age_data(Age age) {
  auto it = ages_.find(age);
  if (it == ages_.end()) {
    AgeData fresh;
    const nd::Extents zero(std::vector<int64_t>(decl_.rank, 0));
    fresh.buffer = buffer_factory_
                       ? std::make_shared<nd::AnyBuffer>(
                             buffer_factory_(decl_.type, zero))
                       : std::make_shared<nd::AnyBuffer>(decl_.type, zero);
    it = ages_.emplace(age, std::move(fresh)).first;
  }
  return it->second;
}

const FieldStorage::AgeData* FieldStorage::find_age(Age age) const {
  auto it = ages_.find(age);
  return it == ages_.end() ? nullptr : &it->second;
}

void FieldStorage::grow(AgeData& data, const nd::Extents& new_extents) {
  const nd::Extents old_extents = data.buffer->extents();
  if (new_extents == old_extents) return;
  check_internal(!data.sealed || new_extents.fits_in(data.sealed_extents),
                 "grow beyond sealed extents of field " + decl_.name);
  // Published buffers are aliased by views; their allocation must never
  // move again. Publishing grows to the sealed extents first, so any later
  // grow request is the no-op handled above.
  check_internal(!data.published,
                 "grow of published age buffer of field " + decl_.name);
  // The resize may reallocate the payload; drop any access history of the
  // old allocation so recycled addresses cannot produce stale-epoch races.
  // (Const access: raw() non-const would materialize an adopted alias.)
  check::reset_range(std::as_const(*data.buffer).raw(),
                     static_cast<size_t>(old_extents.element_count()) *
                         nd::element_size(data.buffer->type()));
  data.buffer->resize(new_extents);

  // Remap written bits: positions are flat indices, which change with the
  // extents. Each innermost-dimension row of the old layout stays
  // contiguous in the new one, so walk the set runs of the old bitmap, cut
  // at row ends, and copy each with one range op.
  DynamicBitset fresh(static_cast<size_t>(new_extents.element_count()));
  const DynamicBitset& old = data.written;
  const auto old_count = static_cast<size_t>(old_extents.element_count());
  size_t pos = old.find_next(0, true);
  while (pos < old_count) {
    const auto row =
        static_cast<size_t>(old_extents.dim(old_extents.rank() - 1));
    const size_t row_begin = pos - pos % row;
    const size_t row_end = row_begin + row;
    // New layout strides are at least the old ones: rows only move up.
    const size_t shift =
        static_cast<size_t>(new_extents.flatten(
            old_extents.unflatten(static_cast<int64_t>(row_begin)))) -
        row_begin;
    while (pos < row_end) {
      const size_t run_end = std::min(old.find_next(pos, false), row_end);
      fresh.set_range(pos + shift, run_end + shift);
      pos = old.find_next(run_end, true);
    }
  }
  data.written = std::move(fresh);
}

namespace {

/// lower_bound comparator of the seal index (sorted by age).
constexpr auto kByAge = [](const auto& entry, Age age) {
  return entry.age < age;
};

}  // namespace

void FieldStorage::publish(AgeData& data, Age age) {
  if (data.published) return;
  grow(data, data.sealed_extents);
  data.published = true;
  std::unique_lock lock(seal_mutex_);
  check::write(seal_index_, "FieldStorage.seal_index");
  seal_index_.insert(std::lower_bound(seal_index_.begin(), seal_index_.end(),
                                      age, kByAge),
                     SealEntry{age, data.buffer});
}

std::shared_ptr<const nd::AnyBuffer> FieldStorage::published_buffer(
    Age age) const {
  std::shared_lock lock(seal_mutex_);
  check::read(seal_index_, "FieldStorage.seal_index");
  const auto it = std::lower_bound(seal_index_.begin(), seal_index_.end(),
                                   age, kByAge);
  return it != seal_index_.end() && it->age == age ? it->buffer : nullptr;
}

nd::ConstView FieldStorage::make_view(
    std::shared_ptr<const nd::AnyBuffer> buffer,
    const nd::Region& region) const {
  const nd::AnyBuffer& buf = *buffer;
  const size_t esz = nd::element_size(buf.type());
  std::vector<int64_t> dims(region.rank());
  for (size_t i = 0; i < region.rank(); ++i) {
    dims[i] = region.interval(i).length();
  }
  nd::Extents view_extents(std::move(dims));
  if (const auto span = region.contiguous_span(buf.extents())) {
    const std::byte* base =
        buf.raw() + static_cast<size_t>(span->offset) * esz;
    return nd::ConstView(buf.type(), std::move(view_extents), base,
                         std::move(buffer));
  }
  // Strided view: base at the region's first coordinate, strides of the
  // full buffer layout.
  const std::byte* base =
      buf.raw() +
      static_cast<size_t>(buf.extents().flatten(region.first())) * esz;
  return nd::ConstView(buf.type(), std::move(view_extents),
                       buf.extents().strides(), base, std::move(buffer));
}

std::optional<nd::ConstView> FieldStorage::try_fetch_view(
    Age age, const nd::Region& region) {
  // Fast path: a published age resolves through the seal index.
  if (auto buffer = published_buffer(age)) {
    check_internal(region.within(buffer->extents()),
                   "fetch region outside extents of field " + decl_.name);
    return make_view(std::move(buffer), region);
  }
  // Slow path: first fetch of a sealed age publishes it.
  std::unique_lock lock(mutex_);
  const auto it = ages_.find(age);
  if (it == ages_.end() || !it->second.sealed) return std::nullopt;
  publish(it->second, age);
  check_internal(region.within(it->second.buffer->extents()),
                 "fetch region outside extents of field " + decl_.name);
  return make_view(it->second.buffer, region);
}

std::optional<nd::ConstView> FieldStorage::try_fetch_view_whole(Age age) {
  if (auto buffer = published_buffer(age)) {
    const nd::Region whole = nd::Region::whole(buffer->extents());
    return make_view(std::move(buffer), whole);
  }
  std::unique_lock lock(mutex_);
  const auto it = ages_.find(age);
  if (it == ages_.end() || !it->second.sealed) return std::nullopt;
  publish(it->second, age);
  return make_view(it->second.buffer,
                   nd::Region::whole(it->second.buffer->extents()));
}

StoreResult FieldStorage::store(Age age, const nd::Region& region,
                                const std::byte* data,
                                const StoreOrigin* origin) {
  check_argument(age >= 0, "field ages start at 0");
  check_argument(region.rank() == decl_.rank,
                 "store region rank mismatch on field " + decl_.name);
  std::unique_lock lock(mutex_);
  AgeData& ad = age_data(age);
  check::write(ad.written, "FieldStorage.age_meta");

  StoreResult result;
  if (!region.within(ad.buffer->extents())) {
    if (ad.sealed) {
      if (!region.within(ad.sealed_extents)) {
        throw_error(ErrorKind::kOutOfRange,
                    "store " + region.to_string() +
                        " outside sealed extents " +
                        ad.sealed_extents.to_string() + " of field " +
                        decl_.name + " age " + std::to_string(age));
      }
      grow(ad, ad.sealed_extents);  // lazy allocation up to the seal
    } else {
      grow(ad, ad.buffer->extents().max_with(region.required_extents()));
      result.resized = true;
    }
  }

  // Write-once enforcement, then payload scatter.
  const nd::Extents& ext = ad.buffer->extents();
  if (const auto span = region.contiguous_span(ext)) {
    const auto begin = static_cast<size_t>(span->offset);
    const auto end = begin + static_cast<size_t>(span->length);
    if (ad.written.set_range(begin, end) !=
        static_cast<size_t>(span->length)) {
      throw_write_once(ad, age, region, origin);
    }
  } else {
    region.for_each([&](const nd::Coord& coord) {
      const auto flat = static_cast<size_t>(ext.flatten(coord));
      if (!ad.written.set(flat)) {
        throw_write_once(ad, age, nd::Region::point(coord), origin);
      }
    });
  }
  if (track_writers_) {
    const StoreOrigin writer = origin != nullptr ? *origin : StoreOrigin{};
    ad.writers.emplace_back(region, writer.to_string());
  }
  ad.buffer->scatter(region, data);
  result.extents = ext;
  return result;
}

int64_t FieldStorage::store_fill(Age age, const nd::Region& region,
                                 const std::byte* data) {
  check_argument(age >= 0, "field ages start at 0");
  check_argument(region.rank() == decl_.rank,
                 "store region rank mismatch on field " + decl_.name);
  std::unique_lock lock(mutex_);
  AgeData& ad = age_data(age);
  check::write(ad.written, "FieldStorage.age_meta");

  if (!region.within(ad.buffer->extents())) {
    if (ad.sealed) {
      if (!region.within(ad.sealed_extents)) {
        throw_error(ErrorKind::kOutOfRange,
                    "store " + region.to_string() +
                        " outside sealed extents " +
                        ad.sealed_extents.to_string() + " of field " +
                        decl_.name + " age " + std::to_string(age));
      }
      grow(ad, ad.sealed_extents);
    } else {
      grow(ad, ad.buffer->extents().max_with(region.required_extents()));
    }
  }

  // Per-element: take the write-once bit first, copy only on fresh cells.
  // The payload is densely packed in the region's row-major order.
  const nd::Extents& ext = ad.buffer->extents();
  const size_t esz = nd::element_size(decl_.type);
  std::byte* base = ad.buffer->raw();
  int64_t fresh = 0;
  int64_t src = 0;
  region.for_each([&](const nd::Coord& coord) {
    const auto flat = static_cast<size_t>(ext.flatten(coord));
    if (ad.written.set(flat)) {
      std::memcpy(base + flat * esz,
                  data + static_cast<size_t>(src) * esz, esz);
      ++fresh;
    }
    ++src;
  });
  return fresh;
}

StoreResult FieldStorage::store_whole(Age age, const nd::AnyBuffer& data,
                                      const StoreOrigin* origin) {
  check_argument(data.type() == decl_.type,
                 "store_whole type mismatch on field " + decl_.name);
  check_argument(data.extents().rank() == decl_.rank,
                 "store_whole rank mismatch on field " + decl_.name);
  const nd::Region region = nd::Region::whole(data.extents());
  return store(age, region, data.raw(), origin);
}

void FieldStorage::seal(Age age, const nd::Extents& extents) {
  std::unique_lock lock(mutex_);
  AgeData& ad = age_data(age);
  check::write(ad.sealed, "FieldStorage.age_meta");
  if (ad.sealed) {
    // Idempotent as long as the extents agree.
    check_internal(extents.fits_in(ad.sealed_extents),
                   "conflicting seal extents on field " + decl_.name);
    return;
  }
  // Data already written beyond the proposed seal widens it to the union.
  // The buffer itself is only grown when data is actually stored.
  ad.sealed_extents = ad.buffer->extents().max_with(extents);
  ad.sealed = true;
}

bool FieldStorage::is_sealed(Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return false;
  check::read(ad->sealed, "FieldStorage.age_meta");
  return ad->sealed;
}

bool FieldStorage::is_complete(Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return false;
  check::read(ad->written, "FieldStorage.age_meta");
  return ad->sealed && static_cast<int64_t>(ad->written.count()) ==
                           ad->sealed_extents.element_count();
}

bool FieldStorage::written_within(const AgeData& data,
                                  const nd::Region& region) {
  check::read(data.written, "FieldStorage.age_meta");
  const nd::Extents& ext = data.buffer->extents();
  if (!region.within(ext)) return false;
  if (const auto span = region.contiguous_span(ext)) {
    return data.written.all_in_range(
        static_cast<size_t>(span->offset),
        static_cast<size_t>(span->offset + span->length));
  }
  bool all = true;
  region.for_each([&](const nd::Coord& coord) {
    if (!all) return;
    if (!data.written.test(static_cast<size_t>(ext.flatten(coord)))) {
      all = false;
    }
  });
  return all;
}

bool FieldStorage::region_written(Age age, const nd::Region& region) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  return ad != nullptr && written_within(*ad, region);
}

bool FieldStorage::slice_written(Age age, const nd::SliceSpec& slice,
                                 const nd::Coord& coord,
                                 bool need_sealed) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return false;
  check::read(ad->sealed, "FieldStorage.age_meta");
  if (need_sealed && !ad->sealed) return false;
  return written_within(*ad, slice.resolve(coord, ad->current_extents()));
}

nd::Extents FieldStorage::extents(Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) {
    return nd::Extents(std::vector<int64_t>(decl_.rank, 0));
  }
  return ad->current_extents();
}

std::optional<nd::Extents> FieldStorage::sealed_extents(Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return std::nullopt;
  check::read(ad->sealed, "FieldStorage.age_meta");
  if (!ad->sealed) return std::nullopt;
  return ad->sealed_extents;
}

nd::AnyBuffer FieldStorage::fetch(Age age, const nd::Region& region) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  check_internal(ad != nullptr,
                 "fetch from untouched age of field " + decl_.name);
  check_internal(region.within(ad->buffer->extents()),
                 "fetch region outside extents of field " + decl_.name);

  std::vector<int64_t> dims(region.rank());
  for (size_t i = 0; i < region.rank(); ++i) {
    dims[i] = region.interval(i).length();
  }
  nd::AnyBuffer out(decl_.type, nd::Extents(std::move(dims)));
  ad->buffer->gather(region, out.raw());
  return out;
}

nd::AnyBuffer FieldStorage::fetch_whole(Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  check_internal(ad != nullptr,
                 "fetch from untouched age of field " + decl_.name);
  const nd::Region region = nd::Region::whole(ad->current_extents());
  check_internal(region.within(ad->buffer->extents()),
                 "fetch region outside extents of field " + decl_.name);
  nd::AnyBuffer out(decl_.type, region.required_extents());
  ad->buffer->gather(region, out.raw());
  return out;
}

int64_t FieldStorage::written_count(Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  return ad == nullptr ? 0 : static_cast<int64_t>(ad->written.count());
}

void FieldStorage::release_age(Age age) {
  std::unique_lock lock(mutex_);
  const auto it = ages_.find(age);
  if (it == ages_.end()) return;
  const bool was_published = it->second.published;
  // The age's metadata address may be recycled by a future age: forget it.
  check::reset_range(&it->second, sizeof(AgeData));
  // Outstanding views keep the payload alive through their keepalive; this
  // only drops the storage's own references.
  ages_.erase(it);
  if (was_published) {
    std::unique_lock seal_lock(seal_mutex_);
    check::write(seal_index_, "FieldStorage.seal_index");
    seal_index_.erase(std::lower_bound(seal_index_.begin(), seal_index_.end(),
                                       age, kByAge));
  }
}

std::vector<Age> FieldStorage::live_ages() const {
  std::shared_lock lock(mutex_);
  std::vector<Age> out;
  out.reserve(ages_.size());
  for (const auto& [age, data] : ages_) out.push_back(age);
  return out;
}

size_t FieldStorage::memory_bytes() const {
  std::shared_lock lock(mutex_);
  size_t total = 0;
  for (const auto& [age, data] : ages_) {
    total += static_cast<size_t>(data.buffer->element_count()) *
             nd::element_size(data.buffer->type());
  }
  return total;
}

void FieldStorage::set_buffer_factory(BufferFactory factory) {
  std::unique_lock lock(mutex_);
  check_internal(ages_.empty(),
                 "buffer factory installed after ages exist on field " +
                     decl_.name);
  buffer_factory_ = std::move(factory);
}

std::optional<FieldStorage::RawBlock> FieldStorage::peek_block(
    Age age) const {
  std::shared_lock lock(mutex_);
  const AgeData* ad = find_age(age);
  if (ad == nullptr) return std::nullopt;
  RawBlock block;
  block.base = std::as_const(*ad->buffer).raw();
  block.extents = ad->buffer->extents();
  return block;
}

bool FieldStorage::adopt_whole(Age age, const nd::ConstView& view) {
  if (view.type() != decl_.type || view.extents().rank() != decl_.rank ||
      !view.is_contiguous()) {
    return false;
  }
  std::unique_lock lock(mutex_);
  AgeData& ad = age_data(age);
  // Only a pristine age can alias foreign pages: once anything was written
  // (or the buffer published), the write-once bitmap refers to the current
  // allocation. Sealed ages additionally pin the final extents.
  if (ad.written.count() > 0 || ad.published) return false;
  if (ad.sealed && !(view.extents() == ad.sealed_extents)) return false;
  ad.buffer = std::make_shared<nd::AnyBuffer>(nd::AnyBuffer::alias(
      view.type(), view.extents(), view.raw(), view.keepalive()));
  const auto count = static_cast<size_t>(view.extents().element_count());
  ad.written = DynamicBitset(count);
  ad.written.set_range(0, count);
  return true;
}

}  // namespace p2g
