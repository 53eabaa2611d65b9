//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the generational layer of the heap (runtime/Heap.{h,cpp}):
///
///   * bump allocation in the nursery and promotion at every size class;
///   * nursery exhaustion mid-allocation (the automatic minor collection);
///   * the write barrier: recorded old→young edges survive a minor, and
///     Heap::verify() flags a deliberately unbarriered edge;
///   * monotonic strengthening of an old cell to hold a young value, and
///     proxy chains spanning the generations;
///   * minor-GC torture (every allocation / every cast application);
///   * the escape hatch: a program's output and deterministic counters
///     are identical with the nursery on and off;
///   * the live-count regression on the heap-limit path (a pending lazy
///     sweep must be finished before exact accounting).
///
//===----------------------------------------------------------------------===//
#include "grift/Grift.h"
#include "runtime/Blame.h"
#include "runtime/Heap.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace grift;

namespace {

/// Slot counts that land in each of the seven small size classes.
constexpr uint32_t SlotsPerClass[] = {0, 4, 8, 16, 24, 40, 56};

/// Allocates \p N unrooted (instant-garbage) tuples of \p Slots slots.
void makeGarbage(Heap &H, unsigned N, uint32_t Slots) {
  for (unsigned I = 0; I != N; ++I)
    H.allocTuple(Slots);
}

} // namespace

//===----------------------------------------------------------------------===//
// Nursery bump allocation and promotion
//===----------------------------------------------------------------------===//

TEST(GenerationalGC, SmallAllocationsStartInTheNursery) {
  Heap H;
  Value T = H.allocTuple(4);
  EXPECT_TRUE(H.isYoung(T.object()));
  // Bump allocation maps no pool blocks.
  EXPECT_EQ(H.poolBlocks(), 0u);
  // Large objects are pre-tenured: never young.
  Value Big = H.allocVector(Heap::MaxSmallSlots + 1, Value::unit());
  EXPECT_FALSE(H.isYoung(Big.object()));
}

TEST(GenerationalGC, MinorCollectionPromotesSurvivorsAtEverySizeClass) {
  for (uint32_t Slots : SlotsPerClass) {
    Heap H;
    Value T = H.allocTuple(Slots);
    for (uint32_t I = 0; I != Slots; ++I)
      T.object()->slot(I) = Value::fromFixnum(I + 1);
    Rooted Root(H, T);
    makeGarbage(H, 50, Slots);
    uint64_t PromotedBefore = H.stats().PromotedObjects;
    H.minorCollect();
    // The rooted tuple moved to the old generation; the root followed.
    EXPECT_FALSE(H.isYoung(Root.get().object())) << "slots " << Slots;
    EXPECT_EQ(H.stats().PromotedObjects, PromotedBefore + 1)
        << "slots " << Slots;
    EXPECT_EQ(H.liveObjects(), 1u) << "slots " << Slots;
    for (uint32_t I = 0; I != Slots; ++I)
      EXPECT_EQ(Root.get().object()->slot(I).asFixnum(), I + 1);
    EXPECT_EQ(H.verify(), 0u) << "slots " << Slots;
  }
}

TEST(GenerationalGC, PromotionPreservesReferenceIdentity) {
  // Two roots to the SAME young box must agree on the promoted copy.
  Heap H;
  Value Box = H.allocBox(Value::fromFixnum(7));
  Rooted A(H, Box), B(H, Box);
  H.minorCollect();
  EXPECT_EQ(A.get().object(), B.get().object());
  EXPECT_EQ(A.get().object()->slot(0).asFixnum(), 7);
}

TEST(GenerationalGC, NurseryExhaustionMidAllocationTriggersMinor) {
  Heap H;
  // A small nursery makes exhaustion cheap to reach. The rooted chain of
  // boxes is the survivor set: each link must be evacuated intact by the
  // minor collections that fire mid-loop, inside allocBox.
  H.setNurserySize(Heap::MinNurseryBytes);
  Value Chain = Value::unit();
  Rooted Root(H, Chain);
  constexpr int Links = 120; // 120 * 96 B overflows 4 KiB twice over:
                             // several minors fire while the chain grows
  for (int I = 0; I != Links; ++I)
    Root.set(H.allocBox(Root.get()));
  EXPECT_GE(H.stats().MinorCollections, 1u);
  int Depth = 0;
  for (Value V = Root.get(); V.isPointer(); V = V.object()->slot(0))
    ++Depth;
  EXPECT_EQ(Depth, Links);
  EXPECT_EQ(H.verify(), 0u);
}

TEST(GenerationalGC, SetNurserySizeEvacuatesResidents) {
  Heap H;
  Value Box = H.allocBox(Value::fromFixnum(11));
  Rooted Root(H, Box);
  ASSERT_TRUE(H.isYoung(Root.get().object()));
  H.setNurserySize(0); // turning the nursery off evacuates the box
  EXPECT_FALSE(H.isYoung(Root.get().object()));
  EXPECT_EQ(Root.get().object()->slot(0).asFixnum(), 11);
  // And allocation now goes straight to the pools.
  Value T = H.allocTuple(1);
  EXPECT_FALSE(H.isYoung(T.object()));
  EXPECT_GE(H.poolBlocks(), 1u);
  EXPECT_EQ(H.verify(), 0u);
}

//===----------------------------------------------------------------------===//
// The write barrier and the remembered set
//===----------------------------------------------------------------------===//

TEST(GenerationalGC, RememberedEdgeSurvivesMinorCollection) {
  Heap H;
  Value Old = H.allocTuple(2);
  Rooted Root(H, Old);
  H.minorCollect(); // tenure the tuple
  ASSERT_FALSE(H.isYoung(Root.get().object()));
  // Store a young box into the old tuple, through the barrier.
  Value Young = H.allocBox(Value::fromFixnum(99));
  ASSERT_TRUE(H.isYoung(Young.object()));
  Root.get().object()->slot(0) = Young;
  H.recordWrite(Root.get().object(), Young);
  EXPECT_EQ(H.rememberedSetSize(), 1u);
  EXPECT_EQ(H.verify(), 0u);
  H.minorCollect();
  // The box was promoted and the old tuple's slot rewritten to follow.
  Value Slot = Root.get().object()->slot(0);
  ASSERT_TRUE(Slot.isHeap());
  EXPECT_FALSE(H.isYoung(Slot.object()));
  EXPECT_EQ(Slot.object()->slot(0).asFixnum(), 99);
  // The remembered set is flushed once the nursery is empty.
  EXPECT_EQ(H.rememberedSetSize(), 0u);
  EXPECT_EQ(H.verify(), 0u);
}

TEST(GenerationalGC, VerifyFlagsAnUnbarrieredOldToYoungEdge) {
  Heap H;
  Value Old = H.allocTuple(1);
  Rooted Root(H, Old);
  H.minorCollect();
  Value Young = H.allocBox(Value::fromFixnum(1));
  ASSERT_TRUE(H.isYoung(Young.object()));
  // Deliberately skip the barrier: verify() must call this out.
  Root.get().object()->slot(0) = Young;
  EXPECT_GE(H.verify(), 1u);
  // Recording the edge repairs the invariant.
  H.recordWrite(Root.get().object(), Young);
  EXPECT_EQ(H.verify(), 0u);
}

TEST(GenerationalGC, BarrierIsANoOpForUninterestingStores) {
  Heap H;
  Value Old = H.allocTuple(2);
  Rooted Root(H, Old);
  H.minorCollect();
  // Unboxed store: nothing to remember.
  H.recordWrite(Root.get().object(), Value::fromFixnum(5));
  EXPECT_EQ(H.rememberedSetSize(), 0u);
  // Old→old store: nothing to remember either.
  H.recordWrite(Root.get().object(), Root.get());
  EXPECT_EQ(H.rememberedSetSize(), 0u);
  // Young owner: young→young stores need no remembering.
  Value YoungOwner = H.allocTuple(1);
  Value YoungContent = H.allocBox(Value::unit());
  H.recordWrite(YoungOwner.object(), YoungContent);
  EXPECT_EQ(H.rememberedSetSize(), 0u);
  // Duplicate recording of one owner stays one entry.
  Value Young = H.allocBox(Value::fromFixnum(1));
  Rooted YR(H, Young);
  Root.get().object()->slot(0) = YR.get();
  H.recordWrite(Root.get().object(), YR.get());
  Root.get().object()->slot(1) = YR.get();
  H.recordWrite(Root.get().object(), YR.get());
  EXPECT_EQ(H.rememberedSetSize(), 1u);
}

//===----------------------------------------------------------------------===//
// Cross-generation structures through the cast runtime
//===----------------------------------------------------------------------===//

TEST(GenerationalGC, ProxyChainsSpanGenerations) {
  // An old proxy over a young base (and vice versa) must read correctly
  // after the minor collection moves one end of the edge.
  Heap H;
  Value Base = H.allocBox(Value::fromFixnum(21));
  Rooted BaseRoot(H, Base);
  Value Proxy = H.allocRefProxy(BaseRoot.get(), nullptr, nullptr, nullptr);
  Rooted ProxyRoot(H, Proxy);
  ASSERT_TRUE(ProxyRoot.get().isProxy());
  H.minorCollect(); // both ends tenure; the proxy keeps its Proxy tag
  ASSERT_TRUE(ProxyRoot.get().isProxy());
  EXPECT_FALSE(H.isYoung(ProxyRoot.get().object()));
  // Now the inverse split: old proxy, young replacement base.
  Value NewBase = H.allocBox(Value::fromFixnum(42));
  ASSERT_TRUE(H.isYoung(NewBase.object()));
  ProxyRoot.get().object()->slot(0) = NewBase;
  H.recordWrite(ProxyRoot.get().object(), NewBase);
  H.minorCollect();
  Value Through = ProxyRoot.get().object()->slot(0);
  ASSERT_TRUE(Through.isHeap());
  EXPECT_EQ(Through.object()->slot(0).asFixnum(), 42);
  EXPECT_EQ(H.verify(), 0u);
}

TEST(GenerationalGC, MonotonicStrengtheningOfAnOldCellWithYoungValues) {
  // Monotonic mode strengthens reference cells in place. Box an Int
  // behind Dyn views, force minors at every allocation, and make sure
  // in-place strengthening plus the write barrier keep the cell sound.
  Grift G;
  std::string Errors;
  auto Exe = G.compile(
      "(print-int (repeat (i 0 300) (acc : Int 0)"
      "  (let ([b (box (ann i Dyn))])"
      "    (+ acc (ann (unbox (ann b (Ref Int))) Int)))))",
      CastMode::Monotonic, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  FaultInjector Injector;
  Injector.MinorGCTorturePeriod = 1;
  RunResult R = Exe->run("", RunLimits(), &Injector);
  ASSERT_TRUE(R.OK) << R.Error.str();
  EXPECT_EQ(R.Output, "44850");
  EXPECT_GE(Injector.ForcedMinorCollections, 1u);
}

//===----------------------------------------------------------------------===//
// Torture: forced minors at adversarial points
//===----------------------------------------------------------------------===//

TEST(GenerationalGC, MinorTortureEveryAllocation) {
  Heap H;
  FaultInjector Injector;
  Injector.MinorGCTorturePeriod = 1;
  H.setFaultInjector(&Injector); // also turns on verify-after-GC
  Value Outer = H.allocTuple(2);
  Rooted Root(H, Outer);
  for (unsigned I = 0; I != 600; ++I) {
    Value Inner = H.allocBox(Value::fromFixnum(static_cast<int64_t>(I)));
    HeapObject *Owner = Root.get().object();
    Owner->slot(0) = Inner;
    H.recordWrite(Owner, Inner);
  }
  EXPECT_GE(Injector.ForcedMinorCollections, 590u);
  EXPECT_EQ(Root.get().object()->slot(0).object()->slot(0).asFixnum(), 599);
  EXPECT_EQ(H.verify(), 0u);
  H.setFaultInjector(nullptr);
}

TEST(GenerationalGC, MinorTortureInsideCastApplication) {
  // The cast-torture hook forces a minor inside every cast application;
  // a cast-heavy partially-typed loop must still compute the right
  // answer in every dynamic mode.
  for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased,
                        CastMode::Monotonic, CastMode::CoercionPassing}) {
    Grift G;
    std::string Errors;
    auto Exe = G.compile("(print-int (repeat (i 0 200) (acc : Int 0)"
                         "  (+ acc (ann (ann i Dyn) Int))))",
                         Mode, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    FaultInjector Injector;
    Injector.MinorGCTorturePeriod = 1;
    RunResult R = Exe->run("", RunLimits(), &Injector);
    ASSERT_TRUE(R.OK) << "mode " << static_cast<int>(Mode) << ": "
                      << R.Error.str();
    EXPECT_EQ(R.Output, "19900") << "mode " << static_cast<int>(Mode);
  }
}

//===----------------------------------------------------------------------===//
// The escape hatch: nursery on vs off
//===----------------------------------------------------------------------===//

TEST(GenerationalGC, OutputAndCountersIdenticalNurseryOnAndOff) {
  // --gc-nursery=0 restores the pre-generational collector. Output and
  // the deterministic counters (casts, allocation-by-class) must not
  // depend on which collector ran.
  for (CastMode Mode : {CastMode::Coercions, CastMode::TypeBased,
                        CastMode::Monotonic, CastMode::CoercionPassing}) {
    Grift G;
    std::string Errors;
    auto Exe = G.compile(
        "(print-int (repeat (i 0 2000) (acc : Int 0)"
        "  (let ([v (make-vector 3 (ann i Dyn))])"
        "    (+ acc (ann (vector-ref v (ann 1 Int)) Int)))))",
        Mode, Errors);
    ASSERT_TRUE(Exe.has_value()) << Errors;
    RunLimits On; // small nursery: the 2000 Dyn-vectors overflow it often
    On.GCNurseryBytes = 16u * 1024;
    RunLimits Off;
    Off.GCNurseryBytes = 0;
    RunResult A = Exe->run("", On);
    RunResult B = Exe->run("", Off);
    ASSERT_TRUE(A.OK) << A.Error.str();
    ASSERT_TRUE(B.OK) << B.Error.str();
    EXPECT_EQ(A.Output, B.Output);
    EXPECT_EQ(A.Stats.CastsApplied, B.Stats.CastsApplied);
    EXPECT_EQ(A.Stats.AllocBytes, B.Stats.AllocBytes);
    for (unsigned C = 0; C != RuntimeStats::NumAllocClasses; ++C)
      EXPECT_EQ(A.Stats.AllocObjectsByClass[C], B.Stats.AllocObjectsByClass[C])
          << "class " << C << " mode " << static_cast<int>(Mode);
    // The split differs — B can only do majors — but the generational
    // run actually exercised the nursery.
    EXPECT_GE(A.Stats.MinorCollections, 1u);
    EXPECT_EQ(B.Stats.MinorCollections, 0u);
  }
}

TEST(GenerationalGC, RunResultCarriesGenerationalCounters) {
  Grift G;
  std::string Errors;
  auto Exe = G.compile("(print-int (repeat (i 0 20000) (acc : Int 0)"
                       "  (+ acc (unbox (box 1)))))",
                       CastMode::Coercions, Errors);
  ASSERT_TRUE(Exe.has_value()) << Errors;
  RunResult R = Exe->run();
  ASSERT_TRUE(R.OK) << R.Error.str();
  EXPECT_GE(R.Stats.MinorCollections, 1u);
  // Histogram totals match the pause counts.
  uint64_t MinorBuckets = 0, MajorBuckets = 0;
  for (unsigned I = 0; I != RuntimeStats::NumPauseBuckets; ++I) {
    MinorBuckets += R.Stats.MinorPauseHist[I];
    MajorBuckets += R.Stats.MajorPauseHist[I];
  }
  EXPECT_EQ(MinorBuckets, R.Stats.MinorCollections);
  EXPECT_EQ(MajorBuckets, R.Stats.Collections);
  // This workload's survivors are a handful of scaffolding objects;
  // promotion must be a sliver of total allocation.
  EXPECT_LT(R.Stats.PromotedBytes, R.Stats.AllocBytes / 10);
}

//===----------------------------------------------------------------------===//
// Live-count accounting with a pending lazy sweep (heap-limit path)
//===----------------------------------------------------------------------===//

TEST(GenerationalGC, PendingSweepDoesNotSkewLiveCounts) {
  // Regression: collect() schedules an incremental sweep; a second
  // collection arriving before the sweep finished must finish it first,
  // or the dead cells still on the sweep schedule are double-counted
  // and the heap-limit retry path rejects allocations that fit.
  Heap H;
  H.setNurserySize(0);
  Value Keep = H.allocTuple(3);
  Rooted Root(H, Keep);
  makeGarbage(H, 2000, 3);
  H.collect(); // schedules the sweep of ~2000 dead cells
  EXPECT_EQ(H.liveObjects(), 1u);
  makeGarbage(H, 500, 3);
  H.collect(); // pending sweep must be finished before accounting
  EXPECT_EQ(H.liveObjects(), 1u);
  // And under a hard limit: everything dead is reclaimable, so a
  // same-size workload keeps fitting forever.
  H.setHeapLimit(1u << 20);
  for (int Round = 0; Round != 8; ++Round)
    makeGarbage(H, 4000, 3); // ~384 KiB per round under a 1 MiB cap
  EXPECT_EQ(H.verify(), 0u);
}

TEST(GenerationalGC, IncrementalSweepSliceMakesProgress) {
  Heap H;
  H.setNurserySize(0);
  makeGarbage(H, 3000, 3);
  H.collect();
  // Slices at block granularity: each call frees at least one block's
  // worth of cells until nothing is pending, and liveObjects (exact
  // since the mark) never moves.
  size_t Live = H.liveObjects();
  for (int I = 0; I != 64; ++I)
    H.sweepSlice(256);
  EXPECT_EQ(H.liveObjects(), Live);
  // A fresh allocation after slicing reuses swept cells: no new block.
  size_t Blocks = H.poolBlocks();
  Value T = H.allocTuple(3);
  (void)T;
  EXPECT_EQ(H.poolBlocks(), Blocks);
}
