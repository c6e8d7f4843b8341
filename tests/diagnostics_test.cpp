// Exact failure text of the checks on the per-instance store/fetch path.
// The messages are built only when a check fails; these tests pin every
// word of them so a change to how they are built cannot change what a user
// reads.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.h"
#include "core/context.h"
#include "core/field.h"
#include "core/runtime.h"

namespace p2g {
namespace {

/// Runs `program` to its end at one worker and returns the text of the
/// p2g::Error it throws (empty when it throws none).
std::string run_error(Program program, bool checked = false) {
  RunOptions opts;
  opts.max_age = 0;
  opts.workers = 1;
  opts.checked = checked;
  Runtime rt(std::move(program), opts);
  try {
    rt.run();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// init stores the three-element field `c` at age 0; `k` (index x) runs
/// once per element of it.
ProgramBuilder with_three_instances() {
  ProgramBuilder pb;
  pb.field("c", nd::ElementType::kInt32, 1);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.kernel("init")
      .run_once()
      .store("v", "c", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        ctx.store_array("v", nd::AnyBuffer(nd::ElementType::kInt32,
                                           nd::Extents({3})));
      });
  return pb;
}

TEST(Diagnostics, PayloadSizeMismatchNamesRegionAndBothCounts) {
  ProgramBuilder pb = with_three_instances();
  pb.kernel("k")
      .index("x")
      .fetch("in", "c", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        if (ctx.index(0) != 2) return;
        ctx.store_array("out", nd::AnyBuffer(nd::ElementType::kInt32,
                                             nd::Extents({3})));
      });
  EXPECT_EQ(run_error(pb.build()),
            "invalid-argument: kernel 'k': payload holds 3 elements but the "
            "store region {[2,3)} needs 1");
}

TEST(Diagnostics, StoreTypeMismatchNamesBothTypes) {
  ProgramBuilder pb = with_three_instances();
  pb.kernel("k")
      .index("x")
      .fetch("in", "c", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        if (ctx.index(0) != 1) return;
        ctx.store_scalar<float>("out", 1.0F);
      });
  EXPECT_EQ(run_error(pb.build()),
            "invalid-argument: kernel 'k' stored float32 into field 'b' of "
            "type int32");
}

TEST(Diagnostics, UnknownFetchSlotNamesKernelAndSlot) {
  ProgramBuilder pb = with_three_instances();
  pb.kernel("k")
      .index("x")
      .fetch("in", "c", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        (void)ctx.fetch_view("nope");
      });
  EXPECT_EQ(run_error(pb.build()),
            "invalid-argument: kernel 'k' has no fetch slot 'nope'");
}

TEST(Diagnostics, StoreOutsideSealedExtentsNamesRegionExtentsFieldAndAge) {
  FieldStorage fs(FieldDecl{0, "f", nd::ElementType::kInt32, 1, {}});
  fs.seal(3, nd::Extents({4}));
  const int32_t v = 1;
  try {
    fs.store(3, nd::Region::point({4}),
             reinterpret_cast<const std::byte*>(&v));
    FAIL() << "expected an out-of-range store";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kOutOfRange);
    EXPECT_EQ(std::string(e.what()),
              "out-of-range: store {[4,5)} outside sealed extents [4] of "
              "field f age 3");
  }
}

/// `first` (run-once) stores all of b(0) and c(0); `second` (index x) runs
/// after it, once per element of c, and stores b(0)[x] only at x == 2, so
/// exactly one instance overlaps.
Program double_write() {
  ProgramBuilder pb;
  pb.field("c", nd::ElementType::kInt32, 1);
  pb.field("b", nd::ElementType::kInt32, 1);
  pb.kernel("first")
      .run_once()
      .store("w", "b", AgeExpr::constant(0), Slice::whole())
      .store("v", "c", AgeExpr::constant(0), Slice::whole())
      .body([](KernelContext& ctx) {
        ctx.store_array("w", nd::AnyBuffer(nd::ElementType::kInt32,
                                           nd::Extents({3})));
        ctx.store_array("v", nd::AnyBuffer(nd::ElementType::kInt32,
                                           nd::Extents({3})));
      });
  pb.kernel("second")
      .index("x")
      .fetch("in", "c", AgeExpr::relative(0), Slice().var("x"))
      .store("out", "b", AgeExpr::relative(0), Slice().var("x"))
      .body([](KernelContext& ctx) {
        if (ctx.index(0) == 2) ctx.store_scalar<int32_t>("out", 1);
      });
  return pb.build();
}

TEST(Diagnostics, WriteOnceViolationNamesWriterAgeAndIndices) {
  EXPECT_EQ(run_error(double_write()),
            "write-once-violation: region {[2,3)} of field b age 0 overlaps "
            "previously written elements; writer: kernel 'second' instance "
            "age 0 (2)");
}

TEST(Diagnostics, CheckedWriteOnceViolationAlsoNamesEarlierWriter) {
  EXPECT_EQ(run_error(double_write(), /*checked=*/true),
            "write-once-violation: region {[2,3)} of field b age 0 overlaps "
            "previously written elements; writer: kernel 'second' instance "
            "age 0 (2); previously written by kernel 'first' instance age 0 "
            "storing {[0,3)}");
}

}  // namespace
}  // namespace p2g
