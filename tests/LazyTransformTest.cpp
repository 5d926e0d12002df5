//===----------------------------------------------------------------------===//
///
/// \file
/// Lazy object-transformation tests: the update commits with untransformed
/// shells behind a read barrier, objects transform on first touch or from
/// the background drainer, the barrier retires to zero steady-state cost,
/// and post-commit transformer failures degrade (trap + diagnostic)
/// instead of rolling back — a faulted synthesized field mapping fails
/// every object of its class and bulk-settles none. Mid-drain states are observed via schedule()
/// plus manual driving — applyNow() intentionally completes the drain.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "bytecode/Builtins.h"
#include "dsu/LazyTransform.h"
#include "dsu/Synthesis.h"
#include "dsu/Transformers.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "heap/HeapVerifier.h"
#include "runtime/ObjectModel.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace jvolve;
using namespace jvolve::test;

namespace {

constexpr int NumPoints = 96;

/// v1: Point{x}, a static array of NumPoints instances (x = 0..N-1), a
/// probe summing x, and an Idler daemon that keeps the VM schedulable
/// without ever touching a Point. v2: Point{x, y}; probe sums x*10 + y.
/// v1 sum = 1128; v2 sum with default-transformed objects (y = 0) = 11280.
ClassSet lazyVersion(bool V2) {
  ClassSet Set;
  ClassBuilder P("Point");
  P.field("x", "I");
  if (V2)
    P.field("y", "I");
  Set.add(P.build());
  ClassBuilder H("ArrHolder");
  H.staticField("arr", "[LPoint;");
  Set.add(H.build());
  ClassBuilder S("ArrSetup");
  S.staticMethod("init", "()V")
      .locals(2)
      .iconst(NumPoints)
      .newarray("LPoint;")
      .putstatic("ArrHolder", "arr", "[LPoint;")
      .iconst(0)
      .store(0)
      .label("loop")
      .load(0)
      .iconst(NumPoints)
      .branch(Opcode::IfICmpGe, "done")
      .newobj("Point")
      .store(1)
      .load(1)
      .load(0)
      .putfield("Point", "x", "I")
      .getstatic("ArrHolder", "arr", "[LPoint;")
      .load(0)
      .load(1)
      .astore()
      .load(0)
      .iconst(1)
      .iadd()
      .store(0)
      .jump("loop")
      .label("done")
      .ret();
  Set.add(S.build());
  ClassBuilder Pr("ArrProbe");
  MethodBuilder &M = Pr.staticMethod("sum", "()I").locals(3);
  M.iconst(0)
      .store(0)
      .iconst(0)
      .store(1)
      .label("loop")
      .load(1)
      .iconst(NumPoints)
      .branch(Opcode::IfICmpGe, "done")
      .getstatic("ArrHolder", "arr", "[LPoint;")
      .load(1)
      .aload()
      .store(2)
      .load(0)
      .load(2)
      .getfield("Point", "x", "I");
  if (V2)
    M.iconst(10).imul().iadd().load(2).getfield("Point", "y", "I").iadd();
  else
    M.iadd();
  M.store(0)
      .load(1)
      .iconst(1)
      .iadd()
      .store(1)
      .jump("loop")
      .label("done")
      .load(0)
      .iret();
  Set.add(Pr.build());
  ClassBuilder I("Idler");
  I.staticMethod("loop", "()V")
      .label("top")
      .iconst(20)
      .intrinsic(IntrinsicId::SleepTicks)
      .jump("top");
  Set.add(I.build());
  return Set;
}

/// lazyVersion(false) with a method added to Point: a class update whose
/// instance layout is unchanged, so its field-move plan is the identity.
ClassSet pointGainsMethod() {
  ClassSet Set = lazyVersion(false);
  ClassBuilder P("Point");
  P.field("x", "I");
  P.method("twice", "()I")
      .load(0)
      .getfield("Point", "x", "I")
      .iconst(2)
      .imul()
      .iret();
  Set.replace(P.build());
  return Set;
}

constexpr int64_t SumV1 = NumPoints * (NumPoints - 1) / 2;
constexpr int64_t SumV2 = 10 * NumPoints * (NumPoints - 1) / 2;

/// Boots the v1 program, builds the array, and starts the idler daemon so
/// the scheduler always has a runnable thread (and the drainer gets real
/// quanta instead of synchronous settling).
std::unique_ptr<VM> bootLazyFixture() {
  auto TheVM = std::make_unique<VM>(smallConfig());
  TheVM->loadProgram(lazyVersion(false));
  TheVM->callStatic("ArrSetup", "init", "()V");
  TheVM->spawnThread("Idler", "loop", "()V", {}, "idler", /*Daemon=*/true);
  TheVM->run(100);
  return TheVM;
}

/// schedule() + tiny driving chunks so the test regains control right at
/// resolution, while most shells are still pending: the drainer settles
/// roughly one shell per tick it is scheduled, so the chunk size bounds
/// how much of the drain can slip past the commit inside one chunk.
UpdateResult scheduleLazyAndResolve(VM &TheVM, Updater &U,
                                    UpdateBundle Bundle,
                                    UpdateOptions Opts) {
  U.schedule(std::move(Bundle), Opts);
  for (int I = 0; I < 100'000 && U.pending(); ++I)
    TheVM.run(25);
  return U.result();
}

LazyTransformEngine *engineOf(VM &TheVM) {
  return static_cast<LazyTransformEngine *>(TheVM.lazyEngine());
}

void expectHeapHealthy(VM &TheVM, const char *Where) {
  HeapVerifier V(TheVM.heap(), TheVM.registry());
  if (VmLazyEngine *Engine = TheVM.lazyEngine())
    V.setLazyContext([Engine](Ref O) { return Engine->isPendingShell(O); },
                     /*AllowOldCopyReserved=*/!Engine->drained());
  std::vector<std::string> Problems = V.verify(
      [&TheVM](const std::function<void(Ref &)> &Visit) {
        TheVM.visitRoots(Visit);
      });
  EXPECT_TRUE(Problems.empty())
      << Where << ": " << (Problems.empty() ? "" : Problems.front());
}

} // namespace

TEST(LazyTransform, CommitDefersTransformsAndBarrierSettlesOnDemand) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();
  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV1);

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1; // trickle so the test observes pending shells
  UpdateResult R = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  EXPECT_TRUE(R.LazyInstalled);
  EXPECT_EQ(R.LazyPendingAtCommit, static_cast<uint64_t>(NumPoints));
  EXPECT_EQ(R.Trace.count(UpdateEventKind::LazyCommitted), 1);

  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  ASSERT_GT(Engine->pendingCount(), 0u) << "drain finished before the test "
                                           "could observe the lazy window";
  expectHeapHealthy(*TheVM, "mid-drain");

  // First touch of each remaining shell runs its transformer behind the
  // read barrier — the probe sees fully transformed v2 values.
  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV2);
  EXPECT_GT(Engine->onDemandTransforms(), 0u);
  EXPECT_GE(Engine->barrierHits(), Engine->onDemandTransforms());
  EXPECT_TRUE(Engine->drained());
  EXPECT_EQ(Engine->onDemandTransforms() + Engine->backgroundTransforms(),
            static_cast<uint64_t>(NumPoints));
}

TEST(LazyTransform, BackgroundDrainerRetiresBarrierAndReleasesOldCopySpace) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 4;
  Opts.UseOldCopySpace = true;
  UpdateResult R = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_TRUE(R.LazyInstalled);

  // Never touch a Point: the background drainer alone must settle every
  // shell and then retire the barrier.
  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  for (int I = 0; I < 10'000 && !Engine->retired(); ++I)
    TheVM->run(200);
  ASSERT_TRUE(Engine->retired());
  EXPECT_TRUE(Engine->drained());
  EXPECT_EQ(Engine->onDemandTransforms(), 0u);
  EXPECT_EQ(Engine->backgroundTransforms(),
            static_cast<uint64_t>(NumPoints));
  EXPECT_GT(Engine->drainTicks(), 0u);

  // Retirement returns steady state to exactly zero: no compiled method
  // carries the barrier bit, and the old-copy block is released.
  ClassRegistry &Reg = TheVM->registry();
  for (size_t M = 0; M < Reg.numMethods(); ++M) {
    if (auto &Code = Reg.method(static_cast<MethodId>(M)).Code) {
      EXPECT_FALSE(Code->LazyBarriers)
          << Reg.method(static_cast<MethodId>(M)).Name;
    }
  }
  EXPECT_FALSE(TheVM->heap().hasOldCopySpace());

  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV2);
  expectHeapHealthy(*TheVM, "after retirement");
}

TEST(LazyTransform, OnDemandFailureTrapsTouchingThreadAndDegrades) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  UpdateBundle B = Upt::prepare(lazyVersion(false), lazyVersion(true), "v1");
  B.ObjectTransformers["Point"] = [](TransformCtx &Ctx, Ref, Ref From) {
    Ctx.getInt(From, "nope"); // no such field: UpdateError("transform")
  };
  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1;
  UpdateResult R = scheduleLazyAndResolve(*TheVM, U, std::move(B), Opts);

  // Post-commit there is no snapshot left: the update stays Applied and
  // failures degrade it instead of rolling it back.
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  ASSERT_TRUE(R.LazyInstalled);
  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  ASSERT_GT(Engine->pendingCount(), 0u);

  // A reader touching a pending shell hits the barrier, the transformer
  // throws, and the thread traps with the structured diagnostic.
  ThreadId Reader = TheVM->spawnThread("ArrProbe", "sum", "()I", {}, "reader");
  TheVM->run(20'000);
  VMThread *T = TheVM->scheduler().findThread(Reader);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->State, ThreadState::Trapped);
  EXPECT_NE(T->TrapMessage.find("lazy-transform failed"), std::string::npos)
      << T->TrapMessage;

  EXPECT_GE(Engine->failedTransforms(), 1u);
  ASSERT_FALSE(Engine->failures().empty());
  EXPECT_FALSE(TheVM->lazyFailureLog().empty());
  EXPECT_NE(TheVM->lazyFailureLog().front().find("Point"),
            std::string::npos);

  // The drainer records the remaining failures and still retires: failed
  // shells settle as valid default-initialized objects, the heap verifies,
  // and the VM survives.
  for (int I = 0; I < 10'000 && !Engine->retired(); ++I)
    TheVM->run(200);
  ASSERT_TRUE(Engine->retired());
  EXPECT_EQ(Engine->failedTransforms(), static_cast<uint64_t>(NumPoints));
  expectHeapHealthy(*TheVM, "after degraded drain");
  std::vector<std::string> Reg = TheVM->registry().checkConsistency();
  EXPECT_TRUE(Reg.empty()) << Reg.front();
}

TEST(LazyTransform, StackedUpdateDrainsPredecessorSynchronously) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1;
  UpdateResult R1 = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R1.Status, UpdateStatus::Applied) << R1.Message;
  ASSERT_NE(TheVM->lazyEngine(), nullptr);
  ASSERT_GT(TheVM->lazyEngine()->pendingCount(), 0u);

  // Stack a second (eager, body-only) update while the first still drains:
  // scheduling it settles the predecessor synchronously first — its DSU
  // collection must never see pending shells. The changed method must not
  // be on any stack (the idler's loop never returns).
  ClassSet V3 = lazyVersion(true);
  V3.find("ArrProbe")->findMethod("sum", "()I")->Code.push_back(
      {Opcode::Nop, 0, "", "", ""});
  UpdateResult R2 =
      U.applyNow(Upt::prepare(lazyVersion(true), V3, "v2"));
  ASSERT_EQ(R2.Status, UpdateStatus::Applied) << R2.Message;
  EXPECT_FALSE(R2.LazyInstalled);
  EXPECT_EQ(TheVM->lazyEngine(), nullptr);

  // Every predecessor shell was settled before the second update ran.
  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV2);
  expectHeapHealthy(*TheVM, "after stacked update");
}

TEST(LazyTransform, RegularGcDuringDrainMigratesOldCopies) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1;
  Opts.UseOldCopySpace = true;
  UpdateResult R = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  ASSERT_GT(Engine->pendingCount(), 0u);
  size_t PendingBefore = Engine->pendingCount();
  uint64_t OnDemandBefore = Engine->onDemandTransforms();

  // A regular collection mid-drain: unsettled shells and old copies are
  // engine roots, so they survive the move; moved shells keep the log
  // index in their headers, and the engine releases the now-empty
  // dedicated old-copy block.
  TheVM->collectGarbage();
  EXPECT_EQ(Engine->pendingCount(), PendingBefore);
  EXPECT_FALSE(TheVM->heap().hasOldCopySpace());
  expectHeapHealthy(*TheVM, "after mid-drain collection");

  // Per object: every unsettled entry's (moved) shell is still pending.
  size_t Unsettled = 0;
  for (const UpdateLogEntry &E : Engine->updateLog())
    if (E.St == UpdateLogEntry::State::Pending) {
      ++Unsettled;
      EXPECT_TRUE(Engine->isPendingShell(E.NewObj));
    }
  EXPECT_EQ(Unsettled, PendingBefore);

  // Settled entries' refs went stale in the move, so reach every Point
  // through the array: exactly the shells answer pending, and a barrier
  // hit fills each from its own old copy (v1 set x = index).
  ClassRegistry &Reg = TheVM->registry();
  Ref Arr = Reg.cls(Reg.idOf("ArrHolder")).Statics[0].RefVal;
  TransformCtx Ctx(*TheVM, nullptr);
  size_t Shells = 0;
  for (int64_t I = 0; I < NumPoints; ++I) {
    SCOPED_TRACE("Point " + std::to_string(I));
    Ref P = getRefAt(Arr, arrayElemOffset(I));
    bool Shell = header(P)->Flags & FlagUninitialized;
    EXPECT_EQ(Engine->isPendingShell(P), Shell);
    if (Shell) {
      ++Shells;
      std::string Err;
      ASSERT_TRUE(Engine->onBarrierHit(P, &Err)) << Err;
      EXPECT_FALSE(Engine->isPendingShell(P));
    }
    EXPECT_EQ(Ctx.getInt(P, "x"), I);
    EXPECT_EQ(Ctx.getInt(P, "y"), 0);
  }
  EXPECT_EQ(Shells, PendingBefore);
  EXPECT_EQ(Engine->onDemandTransforms() - OnDemandBefore, PendingBefore);
  EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV2);
  EXPECT_TRUE(Engine->drained());

  for (int I = 0; I < 10'000 && !Engine->retired(); ++I)
    TheVM->run(200);
  EXPECT_TRUE(Engine->retired());
  expectHeapHealthy(*TheVM, "after retirement");
}

TEST(LazyTransform, ForgedPendingFlagIsNotAPendingShell) {
  std::unique_ptr<VM> TheVM = bootLazyFixture();

  Updater U(*TheVM);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.LazyDrainBatch = 1;
  UpdateResult R = scheduleLazyAndResolve(
      *TheVM, U, Upt::prepare(lazyVersion(false), lazyVersion(true), "v1"),
      Opts);
  ASSERT_EQ(R.Status, UpdateStatus::Applied) << R.Message;
  LazyTransformEngine *Engine = engineOf(*TheVM);
  ASSERT_NE(Engine, nullptr);
  ASSERT_GT(Engine->pendingCount(), 0u);
  const std::vector<UpdateLogEntry> &Log = Engine->updateLog();
  size_t Live = 0;
  while (Live < Log.size() && Log[Live].St != UpdateLogEntry::State::Pending)
    ++Live;
  ASSERT_LT(Live, Log.size());

  // An initialized v2 Point forged with both flags and a header word
  // naming a live shell's entry.
  Ref Forged = TheVM->allocateObject(TheVM->registry().idOf("Point"));
  Ref Shell = Log[Live].NewObj;
  header(Forged)->Flags |= FlagUninitialized | FlagLazyPending;
  setPendingLogIndex(Forged, Live);
  EXPECT_FALSE(Engine->isPendingShell(Forged));
  EXPECT_TRUE(Engine->isPendingShell(Shell));

  // Certification in the lazy context reports the forgery, and only it.
  HeapVerifier V(TheVM->heap(), TheVM->registry());
  V.setLazyContext([Engine](Ref O) { return Engine->isPendingShell(O); },
                   /*AllowOldCopyReserved=*/true);
  std::vector<std::string> Problems =
      V.verify([&TheVM](const std::function<void(Ref &)> &Visit) {
        TheVM->visitRoots(Visit);
      });
  ASSERT_EQ(Problems.size(), 1u) << Problems.front();
  EXPECT_NE(Problems[0].find("uninitialized outside an update"),
            std::string::npos)
      << Problems[0];

  // A barrier hit on the forgery clears its flags and transforms nothing.
  size_t Pending = Engine->pendingCount();
  std::string Err;
  EXPECT_TRUE(Engine->onBarrierHit(Forged, &Err)) << Err;
  EXPECT_EQ(header(Forged)->Flags & (FlagUninitialized | FlagLazyPending),
            0u);
  EXPECT_EQ(Engine->pendingCount(), Pending);
  EXPECT_TRUE(Engine->isPendingShell(Shell));
  expectHeapHealthy(*TheVM, "after the forged barrier hit");
}

TEST(LazyTransform, FaultedSynthesizedMappingFailsEveryObjectOfItsClass) {
  // Synthesis needs the built-ins in both program versions.
  ClassSet V1 = lazyVersion(false), V2 = pointGainsMethod();
  ensureBuiltins(V1);
  ensureBuiltins(V2);
  UpdateOptions Opts;
  Opts.LazyTransform = true;
  Opts.ImpactBoundedDrain = true;
  for (bool Faulted : {false, true}) {
    SCOPED_TRACE(Faulted ? "faulted mapping" : "clean mapping");
    std::unique_ptr<VM> TheVM = bootLazyFixture();
    UpdateBundle B = Upt::prepare(V1, V2, "v1");
    if (Faulted)
      TheVM->faults().arm(FaultInjector::Site::SynthTransformerField);
    SynthesisReport R =
        TransformerSynthesis(V1, V2).synthesize(B.Spec, &TheVM->faults());
    ASSERT_NE(R.plan("Point"), nullptr);
    ASSERT_EQ(R.plan("Point")->Faulted, Faulted);
    TransformerSynthesis::installTransformers(B, R);

    Updater U(*TheVM);
    UpdateResult Res = U.applyNow(std::move(B), Opts);
    // Post-commit there is no snapshot: the faulted update stays Applied
    // and degrades object by object.
    ASSERT_EQ(Res.Status, UpdateStatus::Applied) << Res.Message;
    ASSERT_TRUE(Res.LazyInstalled);
    LazyTransformEngine *Engine = engineOf(*TheVM);
    ASSERT_NE(Engine, nullptr);
    EXPECT_TRUE(Engine->drained());
    if (!Faulted) {
      // The identity plan settles every Point in bulk at arm time.
      EXPECT_EQ(Engine->bulkSettled(), static_cast<uint64_t>(NumPoints));
      EXPECT_EQ(Engine->failedTransforms(), 0u);
      EXPECT_EQ(TheVM->callStatic("ArrProbe", "sum", "()I").IntVal, SumV1);
      continue;
    }
    // The failed resolution is cached and rethrown for every object, and
    // a failed plan is never the identity, so nothing is bulk-settled.
    EXPECT_EQ(Engine->bulkSettled(), 0u);
    EXPECT_EQ(Engine->failedTransforms(), static_cast<uint64_t>(NumPoints));
    ASSERT_EQ(Engine->failures().size(), static_cast<size_t>(NumPoints));
    for (const LazyTransformError &F : Engine->failures())
      EXPECT_NE(F.Message.find("has no field 'x__fault'"), std::string::npos)
          << F.str();
    expectHeapHealthy(*TheVM, "after faulted drain");
  }
}
