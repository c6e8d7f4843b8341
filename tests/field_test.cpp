// Unit tests for field storage: write-once, aging, implicit resize, seal,
// and the zero-copy view path (aliasing, lifetime under release_age,
// concurrent readers).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "core/field.h"

namespace p2g {
namespace {

FieldDecl decl1d(const std::string& name = "f") {
  FieldDecl d;
  d.id = 0;
  d.name = name;
  d.type = nd::ElementType::kInt32;
  d.rank = 1;
  return d;
}

nd::AnyBuffer ints(std::initializer_list<int32_t> values) {
  nd::AnyBuffer buf(nd::ElementType::kInt32,
                    nd::Extents({static_cast<int64_t>(values.size())}));
  int64_t i = 0;
  for (int32_t v : values) buf.data<int32_t>()[i++] = v;
  return buf;
}

TEST(FieldStorage, StoreWholeAndFetch) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({10, 11, 12, 13, 14}));
  EXPECT_EQ(fs.extents(0), nd::Extents({5}));
  EXPECT_EQ(fs.written_count(0), 5);
  const nd::AnyBuffer out = fs.fetch_whole(0);
  EXPECT_EQ(out.at<int32_t>(3), 13);
}

TEST(FieldStorage, WriteOnceViolationThrows) {
  FieldStorage fs(decl1d());
  const int32_t v = 7;
  fs.store(0, nd::Region::point({2}),
           reinterpret_cast<const std::byte*>(&v));
  try {
    fs.store(0, nd::Region::point({2}),
             reinterpret_cast<const std::byte*>(&v));
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
  }
}

TEST(FieldStorage, WriterProvenanceInViolationMessage) {
  FieldStorage fs(decl1d());
  fs.track_writers(true);
  const int32_t v = 7;
  const nd::Coord at{2};
  const StoreOrigin first{"alpha", 0, at};
  fs.store(0, nd::Region::point({2}),
           reinterpret_cast<const std::byte*>(&v), &first);
  const StoreOrigin second{"beta", 0, at};
  try {
    fs.store(0, nd::Region::point({2}),
             reinterpret_cast<const std::byte*>(&v), &second);
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
    const std::string what = e.what();
    EXPECT_NE(what.find("kernel 'beta'"), std::string::npos) << what;
    EXPECT_NE(what.find("previously written by kernel 'alpha'"),
              std::string::npos)
        << what;
  }
}

TEST(FieldStorage, OriginWithoutTrackingStillNamesCurrentWriter) {
  FieldStorage fs(decl1d());
  const int32_t v = 7;
  fs.store(0, nd::Region::point({2}),
           reinterpret_cast<const std::byte*>(&v));
  const nd::Coord at{2};
  const StoreOrigin second{"beta", 0, at};
  try {
    fs.store(0, nd::Region::point({2}),
             reinterpret_cast<const std::byte*>(&v), &second);
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("kernel 'beta'"), std::string::npos) << what;
  }
}

TEST(FieldStorage, SameElementDifferentAgeIsFine) {
  FieldStorage fs(decl1d());
  const int32_t v = 7;
  fs.store(0, nd::Region::point({2}),
           reinterpret_cast<const std::byte*>(&v));
  EXPECT_NO_THROW(fs.store(1, nd::Region::point({2}),
                           reinterpret_cast<const std::byte*>(&v)));
  EXPECT_EQ(fs.live_ages(), (std::vector<Age>{0, 1}));
}

TEST(FieldStorage, ImplicitResizeGrowsExtents) {
  FieldStorage fs(decl1d());
  const int32_t a = 1;
  const int32_t b = 2;
  fs.store(0, nd::Region::point({0}),
           reinterpret_cast<const std::byte*>(&a));
  EXPECT_EQ(fs.extents(0), nd::Extents({1}));
  StoreResult r = fs.store(0, nd::Region::point({9}),
                           reinterpret_cast<const std::byte*>(&b));
  EXPECT_TRUE(r.resized);
  EXPECT_EQ(fs.extents(0), nd::Extents({10}));
  // Existing data survives the resize.
  const nd::AnyBuffer out = fs.fetch(0, nd::Region::point({0}));
  EXPECT_EQ(out.at<int32_t>(0), 1);
}

TEST(FieldStorage, Resize2DRemapsWrittenBits) {
  FieldDecl d;
  d.id = 0;
  d.name = "grid";
  d.type = nd::ElementType::kInt32;
  d.rank = 2;
  FieldStorage fs(d);
  const int32_t v1 = 11;
  fs.store(0, nd::Region::point({1, 1}),
           reinterpret_cast<const std::byte*>(&v1));
  const int32_t v2 = 22;
  fs.store(0, nd::Region::point({3, 5}),
           reinterpret_cast<const std::byte*>(&v2));
  EXPECT_EQ(fs.extents(0), nd::Extents({4, 6}));
  EXPECT_TRUE(fs.region_written(0, nd::Region::point({1, 1})));
  EXPECT_TRUE(fs.region_written(0, nd::Region::point({3, 5})));
  EXPECT_FALSE(fs.region_written(0, nd::Region::point({0, 0})));
  EXPECT_EQ(fs.fetch(0, nd::Region::point({1, 1})).at<int32_t>(0), 11);
  // Re-storing a remapped cell still violates write-once.
  EXPECT_THROW(fs.store(0, nd::Region::point({1, 1}),
                        reinterpret_cast<const std::byte*>(&v1)),
               Error);
}

TEST(FieldStorage, RepeatedGrowsKeepWrittenBitsAndWriteOnce) {
  // Blocks of 2x3x5 land out of raster order, so nearly every store grows
  // the 3-D age in one or more dimensions and remaps the written bitmap,
  // with runs that start and end inside 64-bit words. Afterwards every
  // element's written bit must match a reference set, and overlapping
  // stores must still be refused.
  FieldDecl d;
  d.id = 0;
  d.name = "vol";
  d.type = nd::ElementType::kInt16;
  d.rank = 3;
  FieldStorage fs(d);
  const nd::Extents block({2, 3, 5});
  const std::vector<int16_t> payload(
      static_cast<size_t>(block.element_count()), 7);
  const auto* bytes = reinterpret_cast<const std::byte*>(payload.data());
  const std::vector<nd::Coord> origins = {
      {0, 0, 0}, {2, 0, 5}, {0, 3, 0}, {4, 6, 15}, {2, 3, 10},
      {6, 0, 0}, {0, 9, 20}, {4, 0, 5}};
  std::set<nd::Coord> reference;
  for (const nd::Coord& o : origins) {
    const nd::Region region({{o[0], o[0] + 2}, {o[1], o[1] + 3},
                             {o[2], o[2] + 5}});
    fs.store(0, region, bytes);
    region.for_each([&](const nd::Coord& c) { reference.insert(c); });
  }
  const nd::Extents ext = fs.extents(0);
  EXPECT_EQ(ext, nd::Extents({8, 12, 25}));
  EXPECT_EQ(fs.written_count(0), static_cast<int64_t>(reference.size()));
  nd::Region::whole(ext).for_each([&](const nd::Coord& c) {
    EXPECT_EQ(fs.region_written(0, nd::Region::point(c)),
              reference.count(c) == 1)
        << nd::to_string(c);
  });
  // A block straddling written and unwritten cells is still a violation.
  try {
    fs.store(0, nd::Region({{3, 5}, {5, 8}, {13, 18}}), bytes);
    FAIL() << "expected write-once violation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kWriteOnceViolation);
  }
  const int16_t v = 1;
  fs.store(0, nd::Region::point({7, 11, 24}),
           reinterpret_cast<const std::byte*>(&v));
}

TEST(FieldStorage, SealMakesExtentsFinal) {
  FieldStorage fs(decl1d());
  fs.seal(0, nd::Extents({3}));
  EXPECT_TRUE(fs.is_sealed(0));
  EXPECT_FALSE(fs.is_complete(0));
  const int32_t v = 1;
  fs.store(0, nd::Region::point({1}),
           reinterpret_cast<const std::byte*>(&v));
  try {
    fs.store(0, nd::Region::point({5}),
             reinterpret_cast<const std::byte*>(&v));
    FAIL() << "store beyond sealed extents must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kOutOfRange);
  }
}

TEST(FieldStorage, CompletenessRequiresSealAndAllWritten) {
  FieldStorage fs(decl1d());
  const int32_t v = 9;
  fs.store(0, nd::Region::point({0}),
           reinterpret_cast<const std::byte*>(&v));
  fs.store(0, nd::Region::point({1}),
           reinterpret_cast<const std::byte*>(&v));
  EXPECT_FALSE(fs.is_complete(0)) << "not sealed yet";
  fs.seal(0, nd::Extents({2}));
  EXPECT_TRUE(fs.is_complete(0));
  fs.seal(0, nd::Extents({2}));  // idempotent
  EXPECT_TRUE(fs.is_complete(0));
}

TEST(FieldStorage, SealAtUnionWhenDataExceedsProposal) {
  FieldStorage fs(decl1d());
  const int32_t v = 9;
  fs.store(0, nd::Region::point({7}),
           reinterpret_cast<const std::byte*>(&v));
  fs.seal(0, nd::Extents({3}));
  EXPECT_EQ(fs.extents(0), nd::Extents({8}));
}

TEST(FieldStorage, RegionWrittenPartial) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({1, 2, 3}));
  EXPECT_TRUE(fs.region_written(0, nd::Region({nd::Interval{0, 3}})));
  EXPECT_FALSE(fs.region_written(0, nd::Region({nd::Interval{0, 4}})))
      << "outside current extents";
  EXPECT_FALSE(fs.region_written(1, nd::Region::point({0})))
      << "untouched age";
}

TEST(FieldStorage, SliceWrittenAndSealedExtents) {
  FieldStorage fs(decl1d());
  const nd::SliceSpec at_x({nd::SliceDim::variable(0)});
  const nd::SliceSpec all({nd::SliceDim::all()});
  fs.store_whole(0, ints({1, 2, 3}));

  EXPECT_TRUE(fs.slice_written(0, at_x, {1}, false));
  EXPECT_FALSE(fs.slice_written(0, at_x, {3}, false)) << "outside extents";
  EXPECT_TRUE(fs.slice_written(0, all, {}, false));
  EXPECT_FALSE(fs.slice_written(0, all, {}, true)) << "not sealed yet";
  EXPECT_FALSE(fs.sealed_extents(0).has_value());

  // The seal widens the extents past the written data: the all-slice now
  // resolves against the sealed extents and is no longer fully written.
  fs.seal(0, nd::Extents({4}));
  EXPECT_EQ(fs.sealed_extents(0), nd::Extents({4}));
  EXPECT_FALSE(fs.slice_written(0, all, {}, true));
  EXPECT_TRUE(fs.slice_written(0, at_x, {2}, true));
  const int32_t v = 4;
  fs.store(0, nd::Region::point({3}), reinterpret_cast<const std::byte*>(&v));
  EXPECT_TRUE(fs.slice_written(0, all, {}, true));

  EXPECT_FALSE(fs.slice_written(1, at_x, {0}, false)) << "untouched age";
  EXPECT_FALSE(fs.sealed_extents(1).has_value());
}

TEST(FieldStorage, ReleaseAgeFreesMemory) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({1, 2, 3}));
  fs.store_whole(1, ints({4, 5, 6}));
  const size_t before = fs.memory_bytes();
  fs.release_age(0);
  EXPECT_LT(fs.memory_bytes(), before);
  EXPECT_EQ(fs.live_ages(), (std::vector<Age>{1}));
}

TEST(FieldStorage, NegativeAgeRejected) {
  FieldStorage fs(decl1d());
  const int32_t v = 1;
  EXPECT_THROW(fs.store(-1, nd::Region::point({0}),
                        reinterpret_cast<const std::byte*>(&v)),
               Error);
}

// --- zero-copy views -------------------------------------------------------

TEST(FieldStorageView, WholeFetchOfSealedAgeDoesNotAllocate) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({10, 11, 12}));
  fs.seal(0, nd::Extents({3}));

  // The whole point of the view path: fetching a sealed age must not touch
  // the allocator or copy the payload. The buffer was stored at its final
  // extents, so even the first (publishing) fetch is alias-only.
  const int64_t before = nd::buffer_alloc_count();
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(nd::buffer_alloc_count(), before) << "fetch allocated or copied";

  EXPECT_TRUE(view->is_contiguous());
  EXPECT_EQ(view->extents(), nd::Extents({3}));
  EXPECT_EQ(view->at_flat<int32_t>(2), 12);

  // Repeated fetches alias the same memory.
  const auto again = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(view->raw(), again->raw());
  EXPECT_EQ(nd::buffer_alloc_count(), before);
}

TEST(FieldStorageView, UnsealedAgeYieldsNoView) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({1, 2, 3}));
  EXPECT_FALSE(fs.try_fetch_view_whole(0).has_value())
      << "unsealed buffers may still be reallocated; views must refuse";
  EXPECT_FALSE(fs.try_fetch_view(0, nd::Region::point({0})).has_value());
  fs.seal(0, nd::Extents({3}));
  EXPECT_TRUE(fs.try_fetch_view_whole(0).has_value());
}

TEST(FieldStorageView, ContiguousSubRegionAliasesStorage) {
  FieldDecl d;
  d.id = 0;
  d.name = "grid";
  d.type = nd::ElementType::kInt32;
  d.rank = 2;
  FieldStorage fs(d);
  nd::AnyBuffer grid(nd::ElementType::kInt32, nd::Extents({3, 4}));
  for (int64_t i = 0; i < 12; ++i) grid.data<int32_t>()[i] = 100 + i;
  fs.store_whole(0, grid);
  fs.seal(0, nd::Extents({3, 4}));

  // Row 1 is one contiguous run: dense view, no copy.
  const int64_t before = nd::buffer_alloc_count();
  const auto row = fs.try_fetch_view(
      0, nd::Region({nd::Interval{1, 2}, nd::Interval{0, 4}}));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(nd::buffer_alloc_count(), before);
  EXPECT_TRUE(row->is_contiguous());
  EXPECT_EQ(row->at_flat<int32_t>(0), 104);
  EXPECT_EQ(row->at_flat<int32_t>(3), 107);
}

TEST(FieldStorageView, StridedColumnViewMatchesCopyFetch) {
  FieldDecl d;
  d.id = 0;
  d.name = "grid";
  d.type = nd::ElementType::kInt32;
  d.rank = 2;
  FieldStorage fs(d);
  nd::AnyBuffer grid(nd::ElementType::kInt32, nd::Extents({3, 4}));
  for (int64_t i = 0; i < 12; ++i) grid.data<int32_t>()[i] = 100 + i;
  fs.store_whole(0, grid);
  fs.seal(0, nd::Extents({3, 4}));

  // Column 2 is strided (stride 4 between elements) but still zero-copy.
  const nd::Region column({nd::Interval{0, 3}, nd::Interval{2, 3}});
  const int64_t before = nd::buffer_alloc_count();
  const auto view = fs.try_fetch_view(0, column);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(nd::buffer_alloc_count(), before) << "strided views still alias";
  EXPECT_FALSE(view->is_contiguous());
  EXPECT_EQ(view->extents(), nd::Extents({3, 1}));
  EXPECT_EQ(view->at_flat<int32_t>(0), 102);
  EXPECT_EQ(view->at_flat<int32_t>(1), 106);
  EXPECT_EQ(view->at<int32_t>({2, 0}), 110);
  EXPECT_THROW((void)view->raw(), Error) << "raw() is contiguous-only";

  // materialize() packs exactly what fetch() copies.
  const nd::AnyBuffer packed = view->materialize();
  const nd::AnyBuffer copied = fs.fetch(0, column);
  ASSERT_EQ(packed.element_count(), copied.element_count());
  for (int64_t i = 0; i < packed.element_count(); ++i) {
    EXPECT_EQ(packed.at<int32_t>(i), copied.at<int32_t>(i));
  }
}

TEST(FieldStorageView, ViewOutlivesReleaseAge) {
  FieldStorage fs(decl1d());
  fs.store_whole(0, ints({7, 8, 9}));
  fs.seal(0, nd::Extents({3}));
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());

  fs.release_age(0);
  EXPECT_TRUE(fs.live_ages().empty());
  EXPECT_FALSE(fs.try_fetch_view_whole(0).has_value())
      << "released ages stop handing out new views";

  // The keepalive keeps the payload valid for the view already held.
  EXPECT_EQ(view->at_flat<int32_t>(0), 7);
  EXPECT_EQ(view->at_flat<int32_t>(2), 9);
}

TEST(FieldStorageView, LazySealedAgePublishesOnFirstFetch) {
  FieldStorage fs(decl1d());
  // Sealed but only partially stored: the buffer is smaller than the seal
  // until publish grows it (the elided-fusion-intermediate shape).
  const int32_t v = 5;
  fs.store(0, nd::Region::point({0}),
           reinterpret_cast<const std::byte*>(&v));
  fs.seal(0, nd::Extents({4}));
  const auto view = fs.try_fetch_view_whole(0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->extents(), nd::Extents({4}));
  EXPECT_EQ(view->at_flat<int32_t>(0), 5);
}

// Concurrent readers hold views across release_age while a writer keeps
// producing new ages — the race the keepalive + seal index must survive.
// Run under P2G_SANITIZE=thread to let TSan check it.
TEST(FieldStorageStress, ConcurrentViewsAcrossRelease) {
  constexpr Age kAges = 96;
  constexpr int kReaders = 4;
  constexpr int64_t kElems = 64;

  FieldStorage fs(decl1d("stress"));
  for (Age a = 0; a < kAges; ++a) {
    nd::AnyBuffer buf(nd::ElementType::kInt32, nd::Extents({kElems}));
    for (int64_t i = 0; i < kElems; ++i) {
      buf.data<int32_t>()[i] = static_cast<int32_t>(a);
    }
    fs.store_whole(a, buf);
    fs.seal(a, nd::Extents({kElems}));
  }

  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> views_read{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&fs, &mismatches, &views_read, t] {
      for (int iter = 0; iter < 4000; ++iter) {
        const Age a = (iter * 13 + t * 7) % kAges;
        const auto view = fs.try_fetch_view_whole(a);
        if (!view) continue;  // already released: allowed
        // Hold the view and read it fully — release_age may run right now.
        for (int64_t i = 0; i < view->element_count(); ++i) {
          if (view->at_flat<int32_t>(i) != static_cast<int32_t>(a)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        views_read.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread releaser([&fs] {
    for (Age a = 0; a < kAges; ++a) fs.release_age(a);
  });
  for (std::thread& r : readers) r.join();
  releaser.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(views_read.load(), 0) << "test raced to nothing; weaken it";
  EXPECT_TRUE(fs.live_ages().empty());
}

}  // namespace
}  // namespace p2g
