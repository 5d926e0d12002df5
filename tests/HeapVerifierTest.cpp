//===----------------------------------------------------------------------===//
///
/// \file
/// Heap-invariant verifier tests: healthy heaps after allocation, GC, and
/// dynamic updates report no problems; seeded corruptions are detected.
/// Used as a property check over DSU scenarios.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dsu/LazyTransform.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "runtime/ObjectModel.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

ClassSet pairVersion(bool Extra) {
  ClassSet Set;
  ClassBuilder P("PairX");
  P.field("v", "I");
  P.field("other", "LPairX;");
  if (Extra)
    P.field("extra", "I");
  Set.add(P.build());
  ClassBuilder H("H");
  H.staticField("root", "LPairX;");
  Set.add(H.build());
  return Set;
}

std::vector<std::string> verifyHeap(VM &TheVM) {
  HeapVerifier V(TheVM.heap(), TheVM.registry());
  return V.verify([&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  });
}

Ref makePair(VM &TheVM, int64_t V, Ref Other) {
  Ref Obj = TheVM.allocateObject(TheVM.registry().idOf("PairX"));
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setInt(Obj, "v", V);
  Ctx.setRef(Obj, "other", Other);
  return Obj;
}

} // namespace

TEST(HeapVerifier, CleanAfterAllocation) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  Ref B = makePair(TheVM, 2, A);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(B);
  EXPECT_TRUE(verifyHeap(TheVM).empty());
}

TEST(HeapVerifier, CleanAfterCollection) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref Live = makePair(TheVM, 7, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(Live);
  for (int I = 0; I < 5'000; ++I)
    makePair(TheVM, I, nullptr); // garbage
  TheVM.collectGarbage();
  std::vector<std::string> Problems = verifyHeap(TheVM);
  EXPECT_TRUE(Problems.empty())
      << (Problems.empty() ? "" : Problems.front());
}

TEST(HeapVerifier, CleanAfterDynamicUpdate) {
  for (bool OldCopySpace : {false, true}) {
    VM TheVM(smallConfig());
    TheVM.loadProgram(pairVersion(false));
    Ref A = makePair(TheVM, 1, nullptr);
    Ref B = makePair(TheVM, 2, A);
    TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
        Slot::ofRef(B);

    UpdateOptions Opts;
    Opts.UseOldCopySpace = OldCopySpace;
    Updater U(TheVM);
    ASSERT_EQ(
        U.applyNow(Upt::prepare(pairVersion(false), pairVersion(true), "v1"),
                   Opts)
            .Status,
        UpdateStatus::Applied);
    std::vector<std::string> Problems = verifyHeap(TheVM);
    // The update leaves the (unreachable) old duplicates in the heap in
    // default mode; they are well-formed objects, so the walk stays
    // clean either way.
    EXPECT_TRUE(Problems.empty())
        << (Problems.empty() ? "" : Problems.front());
  }
}

TEST(HeapVerifier, DetectsDanglingFieldPointer) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  // Point a ref field outside the heap.
  static uint8_t Junk[64];
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(A, "other", Junk);
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("outside the live heap"), std::string::npos);
}

TEST(HeapVerifier, DetectsInteriorPointer) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  Ref B = makePair(TheVM, 2, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(A, "other", B + 8); // interior pointer
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("middle of an object"), std::string::npos);
}

TEST(HeapVerifier, DetectsCorruptClassId) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  header(A)->Class = 0xDEAD;
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("invalid class id"), std::string::npos);
}

TEST(HeapVerifier, DetectsStaleForwardingFlag) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  header(A)->Flags |= FlagForwarded;
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("forwarded"), std::string::npos);
}

TEST(HeapVerifier, DetectsCorruptRoot) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  static uint8_t Junk[64];
  TheVM.pinnedRoots().push_back(Junk);
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  TheVM.pinnedRoots().clear();
}

TEST(HeapVerifier, LazyShellsAllowedOnlyWhileEngineVouchesForThem) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  header(A)->Flags |= FlagUninitialized | FlagLazyPending;
  auto Roots = [&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  };

  // Without a lazy context, an uninitialized object is corruption.
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("uninitialized"), std::string::npos);

  // While a draining engine lists the shell as pending, it is legitimate.
  {
    HeapVerifier V(TheVM.heap(), TheVM.registry());
    V.setLazyContext([A](Ref O) { return O == A; },
                     /*AllowOldCopyReserved=*/true);
    EXPECT_TRUE(V.verify(Roots).empty());
  }

  // Once the engine reports drained it no longer vouches for anything:
  // a leftover shell is corruption again.
  {
    HeapVerifier V(TheVM.heap(), TheVM.registry());
    V.setLazyContext([](Ref) { return false; },
                     /*AllowOldCopyReserved=*/false);
    std::vector<std::string> P = V.verify(Roots);
    ASSERT_FALSE(P.empty());
    EXPECT_NE(P[0].find("uninitialized"), std::string::npos);
  }
  header(A)->Flags &= ~(FlagUninitialized | FlagLazyPending);
}

TEST(HeapVerifier, ForgedPendingFlagIsNotVouchedFor) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref Forged = makePair(TheVM, 2, nullptr);
  Ref Shell = makePair(TheVM, 1, Forged);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(Shell);
  auto Roots = [&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  };

  // A live shell at log index 0, as the DSU collection leaves it, and an
  // initialized object forged to look like it: both flags and a header
  // word naming the live shell's entry.
  header(Shell)->Flags |= FlagUninitialized | FlagLazyPending;
  setPendingLogIndex(Shell, 0);
  LazyTransformEngine Engine(TheVM, UpdateBundle(), {{Shell, Shell}},
                             /*OwnsOldCopySpace=*/false, /*DrainBatch=*/1);
  header(Forged)->Flags |= FlagUninitialized | FlagLazyPending;
  setPendingLogIndex(Forged, 0);

  // The entry's back-check rejects the forgery: only the shell is pending.
  EXPECT_TRUE(Engine.isPendingShell(Shell));
  EXPECT_FALSE(Engine.isPendingShell(Forged));

  HeapVerifier V(TheVM.heap(), TheVM.registry());
  V.setLazyContext([&Engine](Ref O) { return Engine.isPendingShell(O); },
                   /*AllowOldCopyReserved=*/true);
  std::vector<std::string> P = V.verify(Roots);
  ASSERT_EQ(P.size(), 1u) << P.front();
  EXPECT_NE(P[0].find("uninitialized outside an update"), std::string::npos)
      << P[0];
  EXPECT_NE(P[0].find("+" + std::to_string(Forged -
                                           TheVM.heap().currentSpaceStart())),
            std::string::npos)
      << P[0];
  header(Shell)->Flags &= ~(FlagUninitialized | FlagLazyPending);
  header(Forged)->Flags &= ~(FlagUninitialized | FlagLazyPending);
}

TEST(HeapVerifier, DetectsLazyFlagOnInitializedObject) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);
  // A barrier flag on a fully initialized object means a transform settled
  // without clearing it — every later read would take the slow path.
  header(A)->Flags |= FlagLazyPending;
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("lazy-pending"), std::string::npos);
  header(A)->Flags &= ~FlagLazyPending;
}

TEST(HeapVerifier, ReportsOldCopySpaceHeldWithNoDrainingUpdate) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  TheVM.heap().reserveOldCopySpace(1u << 12);
  auto Roots = [&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  };

  // Reserved with nothing draining: a leak, reported.
  std::vector<std::string> Problems = verifyHeap(TheVM);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("old-copy space still reserved"),
            std::string::npos);

  // Legitimate while a lazy engine still drains.
  {
    HeapVerifier V(TheVM.heap(), TheVM.registry());
    V.setLazyContext([](Ref) { return false; },
                     /*AllowOldCopyReserved=*/true);
    EXPECT_TRUE(V.verify(Roots).empty());
  }
  TheVM.heap().releaseOldCopySpace();
  EXPECT_TRUE(verifyHeap(TheVM).empty());
}

TEST(HeapVerifier, CleanAcrossAppUpdateStream) {
  // Property sweep: the heap stays well-formed after every applied update
  // of the CrossFTP stream (smallest of the three apps).
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  // (App streams are exercised in AppsTest; here we chain three updates
  // on one VM and verify after each.)
  ClassSet V1 = pairVersion(false);
  ClassSet V2 = pairVersion(true);
  ClassSet V3 = pairVersion(true);
  V3.find("PairX")->Fields.push_back({"third", "I", false, false,
                                      Access::Public});
  Ref A = makePair(TheVM, 3, nullptr);
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(A);

  Updater U(TheVM);
  ASSERT_EQ(U.applyNow(Upt::prepare(V1, V2, "s1")).Status,
            UpdateStatus::Applied);
  EXPECT_TRUE(verifyHeap(TheVM).empty());
  ASSERT_EQ(U.applyNow(Upt::prepare(V2, V3, "s2")).Status,
            UpdateStatus::Applied);
  EXPECT_TRUE(verifyHeap(TheVM).empty());
  TheVM.collectGarbage();
  EXPECT_TRUE(verifyHeap(TheVM).empty());
}

//===----------------------------------------------------------------------===//
// Start-bitmap edge cases. Object starts live in one bit per 8-byte
// granule; these pin the boundaries of that representation and the exact
// problem texts callers (chaos oracles, app tests) match on.
//===----------------------------------------------------------------------===//

namespace {

const std::string Interior = "PairX.other points into the middle of an object";
const std::string Outside = "PairX.other points outside the live heap";

void rootPair(VM &TheVM, Ref Obj) {
  TheVM.registry().cls(TheVM.registry().idOf("H")).Statics[0] =
      Slot::ofRef(Obj);
}

} // namespace

TEST(HeapVerifier, UnalignedInteriorPointerIsCaught) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  Ref B = makePair(TheVM, 2, nullptr);
  rootPair(TheVM, A);
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(A, "other", B + 3); // off the 8-byte grid, inside B
  EXPECT_EQ(verifyHeap(TheVM), std::vector<std::string>{Interior});
}

TEST(HeapVerifier, PointerAtBumpEndIsOutside) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  rootPair(TheVM, A);
  Ref End = TheVM.heap().currentSpaceStart() + TheVM.heap().bytesAllocated();
  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(A, "other", End);
  EXPECT_EQ(verifyHeap(TheVM), std::vector<std::string>{Outside});
}

TEST(HeapVerifier, InteriorPointersAcrossBitmapWordBoundary) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  const size_t Size =
      TheVM.registry().cls(TheVM.registry().idOf("PairX")).InstanceSize;
  std::vector<Ref> Pairs;
  for (int I = 0; I < 80; ++I)
    Pairs.push_back(makePair(TheVM, I, nullptr));
  rootPair(TheVM, Pairs[0]);
  uint8_t *Base = TheVM.heap().currentSpaceStart();
  auto Off = [Base](Ref R) { return static_cast<size_t>(R - Base); };

  // One bitmap word covers 64 granules of 8 bytes. Take a word boundary
  // inside the pair run; the four holders sit in later words, so pass 2
  // must also find them through the bitmap past word 0.
  constexpr size_t WordBytes = 64 * 8;
  size_t Boundary = (Off(Pairs[4]) / WordBytes + 1) * WordBytes;
  const size_t H = Pairs.size() - 4;
  ASSERT_GE(Off(Pairs[H]), Boundary + WordBytes);
  auto Containing = [&](size_t At) -> Ref {
    for (Ref P : Pairs)
      if (At >= Off(P) && At < Off(P) + Size)
        return P;
    return nullptr;
  };
  // An interior granule in the last word below the boundary and one in
  // the first word above it, whichever object happens to straddle.
  Ref Below = Containing(Boundary - 8);
  Ref Above = Containing(Boundary);
  ASSERT_TRUE(Below && Above);
  size_t LowOff = Off(Below) == Boundary - 8 ? Boundary - 16 : Boundary - 8;
  size_t HighOff = Off(Above) == Boundary ? Boundary + 8 : Boundary;
  ASSERT_NE(Containing(LowOff), nullptr);
  ASSERT_NE(Off(Containing(LowOff)), LowOff);
  ASSERT_NE(Off(Containing(HighOff)), HighOff);

  TransformCtx Ctx(TheVM, nullptr);
  Ctx.setRef(Pairs[H], "other", Base + LowOff);
  Ctx.setRef(Pairs[H + 1], "other", Base + HighOff);
  // The starts on both sides of the boundary are valid targets.
  Ctx.setRef(Pairs[H + 2], "other", Below);
  Ctx.setRef(Pairs[H + 3], "other", Above);
  EXPECT_EQ(verifyHeap(TheVM), (std::vector<std::string>{Interior, Interior}));

  // Every pair start in the run, across all its bitmap words, is valid.
  for (size_t I = 0; I + 1 < Pairs.size(); ++I)
    Ctx.setRef(Pairs[I], "other", Pairs[I + 1]);
  EXPECT_TRUE(verifyHeap(TheVM).empty());
}

TEST(HeapVerifier, RootIntoMiddleOfObject) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  Ref A = makePair(TheVM, 1, nullptr);
  rootPair(TheVM, A);
  Ref Bad = A + 8;
  TheVM.pinnedRoots().push_back(Bad);
  size_t Index = 0, BadIndex = SIZE_MAX;
  TheVM.visitRoots([&](Ref &R) {
    if (R == Bad && BadIndex == SIZE_MAX)
      BadIndex = Index;
    ++Index;
  });
  ASSERT_NE(BadIndex, SIZE_MAX);
  EXPECT_EQ(verifyHeap(TheVM),
            std::vector<std::string>{"root #" + std::to_string(BadIndex) +
                                     " points into the middle of an object"});
  TheVM.pinnedRoots().clear();
}

TEST(HeapVerifier, ProblemFloodIsCappedAt32) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  static uint8_t Junk[64];
  TransformCtx Ctx(TheVM, nullptr);
  for (int I = 0; I < 40; ++I)
    Ctx.setRef(makePair(TheVM, I, nullptr), "other", Junk);
  std::vector<std::string> Problems = verifyHeap(TheVM);
  EXPECT_EQ(Problems, std::vector<std::string>(32, Outside));
}

TEST(HeapVerifier, ClassFocusSkipsUnfocusedFieldChecks) {
  VM TheVM(smallConfig());
  TheVM.loadProgram(pairVersion(false));
  ClassRegistry &Reg = TheVM.registry();
  TransformCtx Ctx(TheVM, nullptr);
  std::vector<Ref> Pairs;
  for (int I = 0; I < 10; ++I)
    Pairs.push_back(makePair(TheVM, I, nullptr));
  rootPair(TheVM, Pairs[0]);
  Ref Arr = TheVM.allocateArray(Reg.arrayClassOf(Type::refTy("PairX")), 3);
  setRefAt(Arr, arrayElemOffset(1), Pairs[1] + 8); // arrays always checked
  Ctx.setRef(Pairs[2], "other", Pairs[3] + 8);
  auto Roots = [&TheVM](const std::function<void(Ref &)> &Visit) {
    TheVM.visitRoots(Visit);
  };

  // Independent count: every non-array object in the heap whose class is
  // outside the focus.
  auto CountUnfocused = [&](const std::string &Focus) {
    size_t N = 0;
    uint8_t *Base = TheVM.heap().currentSpaceStart();
    for (size_t Off = 0; Off < TheVM.heap().bytesAllocated();) {
      const RtClass &Cls = Reg.cls(classOf(Base + Off));
      N += !Cls.IsArray && Cls.Name != Focus;
      Off += (objectBytes(Cls, Base + Off) + 7) & ~size_t(7);
    }
    return N;
  };
  std::string ArrName = Reg.cls(classOf(Arr)).Name;

  {
    HeapVerifier V(TheVM.heap(), Reg);
    V.setClassFocus({"H"});
    EXPECT_EQ(V.verify(Roots),
              std::vector<std::string>{
                  ArrName + "[1] points into the middle of an object"});
    EXPECT_EQ(V.objectsSkipped(), CountUnfocused("H"));
    EXPECT_GE(V.objectsSkipped(), Pairs.size());
  }
  {
    HeapVerifier V(TheVM.heap(), Reg);
    V.setClassFocus({"PairX"});
    EXPECT_EQ(V.verify(Roots),
              (std::vector<std::string>{
                  Interior,
                  ArrName + "[1] points into the middle of an object"}));
    EXPECT_EQ(V.objectsSkipped(), CountUnfocused("PairX"));
  }
}
