//===----------------------------------------------------------------------===//
///
/// \file
/// heap_eager: the §4.1 microbenchmark heap under repeated eager updates
/// that add and then remove a field of Change, with the default transform.
/// No application thread runs during an update, so the wall time of
/// Updater::applyNow is the pause. Between updates a short interpreted
/// walk reads every object once; its rate is the workload's mips.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bytecode/Builder.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"
#include "support/Rng.h"

#include <algorithm>
#include <string>

using namespace jvolve;

namespace perfbench {

HeapInputs HeapInputs::make(size_t Objects, uint64_t Seed) {
  HeapInputs In;
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 11);
  In.NumChange = Objects / 2;
  In.IsChange.assign(Objects, 0);
  std::fill(In.IsChange.begin(), In.IsChange.begin() + In.NumChange, 1);
  for (size_t I = Objects; I > 1; --I)
    std::swap(In.IsChange[I - 1], In.IsChange[R.nextBelow(I)]);
  In.I0.resize(Objects);
  In.Target.resize(Objects);
  for (size_t I = 0; I < Objects; ++I) {
    In.I0[I] = static_cast<int64_t>(R.nextBelow(1'000'000));
    In.Target[I] = static_cast<uint32_t>(R.nextBelow(Objects));
    In.I0Sum += In.I0[I];
  }
  return In;
}

ClassSet heapProgram(bool Added) {
  ClassSet Set;
  for (const char *Name : {"Change", "NoChange"}) {
    ClassBuilder CB(Name);
    CB.field("i0", "I").field("i1", "I").field("i2", "I");
    CB.field("r0", "LObject;").field("r1", "LObject;").field("r2",
                                                             "LObject;");
    if (Added && std::string(Name) == "Change")
      CB.field("added", "I");
    Set.add(CB.build());
  }
  ClassBuilder H("Holder");
  H.staticField("arr", "[LObject;");
  // walk(): the sum of every object's i0, reading each object once.
  H.staticMethod("walk", "()I")
      .locals(5)
      .getstatic("Holder", "arr", "[LObject;")
      .store(0)
      .load(0)
      .arraylength()
      .store(2)
      .iconst(0)
      .store(1)
      .iconst(0)
      .store(3)
      .label("loop")
      .load(1)
      .load(2)
      .branch(Opcode::IfICmpGe, "done")
      .load(0)
      .load(1)
      .aload()
      .store(4)
      .load(4)
      .instanceofOp("Change")
      .branch(Opcode::IfEq, "other")
      .load(3)
      .load(4)
      .checkcast("Change")
      .getfield("Change", "i0", "I")
      .iadd()
      .store(3)
      .jump("next")
      .label("other")
      .load(3)
      .load(4)
      .checkcast("NoChange")
      .getfield("NoChange", "i0", "I")
      .iadd()
      .store(3)
      .label("next")
      .load(1)
      .iconst(1)
      .iadd()
      .store(1)
      .jump("loop")
      .label("done")
      .load(3)
      .iret();
  Set.add(H.build());
  return Set;
}

std::unique_ptr<VM> bootHeapVm(const HeapInputs &In) {
  size_t N = In.IsChange.size();
  // Object: 16-byte header + 6 (or 7) 8-byte fields, plus the holder
  // array. A DSU collection needs room for the old duplicate and the new
  // version of every Change object.
  size_t LiveBytes = N * 72 + N * 8 + (1u << 20);
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = LiveBytes * 5 / 2;
  auto TheVM = std::make_unique<VM>(Cfg);
  TheVM->loadProgram(heapProgram(false));

  ClassRegistry &Reg = TheVM->registry();
  ClassId ChangeId = Reg.idOf("Change");
  ClassId NoChangeId = Reg.idOf("NoChange");
  RtClass &Holder = Reg.cls(Reg.idOf("Holder"));
  Holder.Statics[0] = Slot::ofRef(TheVM->allocateArray(
      Reg.arrayClassOf(Type::refTy("Object")), static_cast<int64_t>(N)));
  for (size_t I = 0; I < N; ++I) {
    Ref Obj = TheVM->allocateObject(In.IsChange[I] ? ChangeId : NoChangeId);
    const RtClass &C = Reg.cls(classOf(Obj));
    setIntAt(Obj, C.findInstanceField("i0")->Offset, In.I0[I]);
    // Re-read the array root: allocation may have triggered a collection.
    setRefAt(Holder.Statics[0].RefVal,
             arrayElemOffset(static_cast<int64_t>(I)), Obj);
  }
  // Links last: nothing allocates from here on, so no Ref moves.
  Ref Arr = Holder.Statics[0].RefVal;
  uint32_t R0 = Reg.cls(ChangeId).findInstanceField("r0")->Offset;
  for (size_t I = 0; I < N; ++I)
    setRefAt(getRefAt(Arr, arrayElemOffset(static_cast<int64_t>(I))), R0,
             getRefAt(Arr, arrayElemOffset(In.Target[I])));
  return TheVM;
}

void checkHeapOp(VM &TheVM, const HeapInputs &In, bool Added, Outcome &Out) {
  ClassRegistry &Reg = TheVM.registry();
  ClassId Ids[2] = {Reg.idOf("NoChange"), Reg.idOf("Change")};
  const RtClass &Holder = Reg.cls(Reg.idOf("Holder"));
  Ref Arr = Holder.Statics[0].RefVal;
  size_t N = In.IsChange.size();
  if (!Arr || arrayLength(Arr) != static_cast<int64_t>(N)) {
    Out.fail("heap_eager: holder array lost or resized");
    return;
  }
  const RtField *AddedField = Reg.cls(Ids[1]).findInstanceField("added");
  if ((AddedField != nullptr) != Added) {
    Out.fail("heap_eager: Change has the wrong field set after the update");
    return;
  }
  size_t Bad = 0, NumChange = 0;
  std::string First;
  for (size_t I = 0; I < N; ++I) {
    Ref Obj = getRefAt(Arr, arrayElemOffset(static_cast<int64_t>(I)));
    ClassId Want = Ids[In.IsChange[I]];
    if (!Obj || classOf(Obj) != Want) {
      if (!Bad++)
        First = "object " + std::to_string(I) + " lost or has a stale class";
      continue;
    }
    NumChange += In.IsChange[I];
    const RtClass &C = Reg.cls(Want);
    Ref Linked = getRefAt(Arr, arrayElemOffset(In.Target[I]));
    bool Ok = getIntAt(Obj, C.findInstanceField("i0")->Offset) == In.I0[I] &&
              getRefAt(Obj, C.findInstanceField("r0")->Offset) == Linked &&
              (!AddedField || !In.IsChange[I] ||
               getIntAt(Obj, AddedField->Offset) == 0);
    if (!Ok && !Bad++)
      First = "object " + std::to_string(I) + " has a wrong i0, r0 or added";
  }
  if (!Bad && NumChange != In.NumChange) {
    Bad = 1;
    First = "Change object count changed";
  }
  if (Bad)
    Out.fail("heap_eager: " + std::to_string(Bad) + " bad objects; " + First);
}

namespace {

constexpr size_t Objects = 1'000'000;
/// Measured eager updates per pass, after one excluded warm-up update.
constexpr int UpdatesPerPass = 4;

/// Runs Holder.walk() to completion. \returns its result; adds the
/// VM::run wall time and instruction count of the walk.
int64_t runWalk(VM &TheVM, Tracer &Tr, double &RunMs, uint64_t &Instrs) {
  ThreadId Id = TheVM.spawnThread("Holder", "walk", "()I", {}, "walker");
  uint64_t Before = TheVM.stats().InstructionsExecuted;
  int64_t Ns = 0;
  VMThread *T = TheVM.scheduler().findThread(Id);
  while (T->State != ThreadState::Finished &&
         T->State != ThreadState::Trapped) {
    Ns += Tr.timed("vm.run", [&] { TheVM.run(1u << 20); });
    T = TheVM.scheduler().findThread(Id);
  }
  RunMs = Ns / 1e6;
  Instrs = TheVM.stats().InstructionsExecuted - Before;
  return T->State == ThreadState::Finished ? T->ExitValue.IntVal : -1;
}

UpdateBundle heapBundle(Tracer &Tr, int Index, std::vector<double> &PrepMs) {
  bool Adds = Index % 2 == 0;
  UpdateBundle B;
  PrepMs.push_back(Tr.timed("upt.prepare", [&] {
    B = Upt::prepare(heapProgram(!Adds), heapProgram(Adds),
                     "u" + std::to_string(Index));
  }) / 1e6);
  return B;
}

} // namespace

Outcome runHeapEager(const RunOptions &Opts, Tracer &Tr) {
  Outcome Out;
  EndToEndSamples E;
  LayerSamples L;
  SpeedProbe Probe;
  HeapInputs In = HeapInputs::make(Objects, Opts.Seed);
  const UpdateOptions UOpts = pinnedOptions(/*Lazy=*/false);
  PassPlan Plan(Opts, 2);
  double FirstInstrPerWalk = -1, FirstCompiles = -1;

  for (int Pass = 0; Plan.more(Pass); ++Pass) {
    bool Traced = Plan.traced(Pass);
    Tr.setEnabled(Traced);

    // --- Set-up: boot and populate, prepare every bundle, warm the walk,
    // and apply the excluded first update.
    std::unique_ptr<VM> TheVM;
    std::unique_ptr<Updater> Upd;
    std::vector<double> PrepMs;
    std::vector<UpdateBundle> Bundles;
    int64_t SetupNs = 0;
    double SetupSlow = Probe.around(SpeedProbe::Memory, [&] {
      int64_t Start = nowNs();
      Tr.timed("setup.boot", [&] { TheVM = bootHeapVm(In); });
      for (int U = 0; U <= UpdatesPerPass; ++U)
        Bundles.push_back(heapBundle(Tr, U, PrepMs));
      Upd = std::make_unique<Updater>(*TheVM);
      double RunMs = 0;
      uint64_t Instrs = 0;
      runWalk(*TheVM, Tr, RunMs, Instrs);
      UpdateResult First = Upd->applyNow(std::move(Bundles[0]), UOpts);
      if (First.Status != UpdateStatus::Applied)
        Out.fail("heap_eager: warm-up update " +
                 std::string(updateStatusName(First.Status)) + ": " +
                 First.Message);
      runWalk(*TheVM, Tr, RunMs, Instrs);
      SetupNs = nowNs() - Start;
    });

    // --- Measured updates, each followed by the checks and a walk.
    double WorkMs = 0, PassRunMs = 0;
    uint64_t PassInstrs = 0;
    uint64_t CompilesBefore = TheVM->compiler().compilationsPerformed();
    for (int U = 1; U <= UpdatesPerPass; ++U) {
      bool Added = U % 2 == 0;
      ++Out.Attempted;
      UpdateResult R;
      size_t SpanIndex = Tr.spans().size();
      double ApplyMs = 0;
      double Slow = Probe.around(SpeedProbe::Memory, [&] {
        ApplyMs = Tr.timed("updater.applyNow", [&] {
                    R = Upd->applyNow(std::move(Bundles[U]), UOpts);
                  }) / 1e6;
      });
      ApplyMs /= Slow;
      if (R.Status != UpdateStatus::Applied || !R.Certified) {
        Out.fail("heap_eager: update " + std::to_string(U) + " " +
                 updateStatusName(R.Status) + ": " + R.Message);
        continue;
      }
      uint64_t FailedBefore = Out.Failed;
      checkHeapOp(*TheVM, In, Added, Out);
      double RunMs = 0;
      uint64_t Instrs = 0;
      int64_t Sum = 0;
      double WalkSlow =
          Probe.around(SpeedProbe::Core,
                       [&] { Sum = runWalk(*TheVM, Tr, RunMs, Instrs); });
      RunMs /= WalkSlow;
      if (Sum != In.I0Sum && Out.Failed == FailedBefore)
        Out.fail("heap_eager: walk sum " + std::to_string(Sum) +
                 " != seeded " + std::to_string(In.I0Sum));
      WorkMs += ApplyMs + RunMs;
      PassRunMs += RunMs;
      PassInstrs += Instrs;
      if (FirstInstrPerWalk < 0)
        FirstInstrPerWalk = static_cast<double>(Instrs);
      Out.expectSame("vm.instr_per_walk", FirstInstrPerWalk,
                     static_cast<double>(Instrs));
      if (!Traced) {
        E.UpdateMs.push_back(ApplyMs);
        E.Mips.push_back(Instrs / (RunMs * 1e3));
        continue;
      }
      const Tracer::Span &S = Tr.spans()[SpanIndex];
      L.ApplyMs.push_back(ApplyMs);
      L.SelfMs.push_back((S.EndNs - S.StartNs - S.ChildNs) / 1e6 / Slow);
      L.SafePointTicks.push_back(static_cast<double>(R.TicksToSafePoint));
      probeHeap(*TheVM, Tr, Probe, L, Out, "heap_eager");
    }
    double Compiles = static_cast<double>(
        TheVM->compiler().compilationsPerformed() - CompilesBefore);
    if (FirstCompiles < 0)
      FirstCompiles = Compiles;
    Out.expectSame("compiler.compilations", FirstCompiles, Compiles);

    if (Traced) {
      L.TracedWorkMs.push_back(WorkMs);
      for (double Ms : PrepMs)
        L.PrepareMs.push_back(Ms / SetupSlow);
      L.RunMs.push_back(PassRunMs);
      L.NsPerInstr.push_back(PassRunMs * 1e6 /
                             std::max<uint64_t>(PassInstrs, 1));
      L.Compilations.push_back(Compiles / UpdatesPerPass);
    } else {
      L.UntracedWorkMs.push_back(WorkMs);
      E.SetupS.push_back(SetupNs / 1e9 / SetupSlow);
    }
  }
  Out.EndToEnd = endToEndMetrics(E, Probe);
  Out.PerLayer = perLayerMetrics(L);
  Out.Info = slowdownMetrics(Probe);
  return Out;
}

} // namespace perfbench
