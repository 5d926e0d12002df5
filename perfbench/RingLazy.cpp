//===----------------------------------------------------------------------===//
///
/// \file
/// ring_lazy: a circular ring of Cells spun by an application thread while
/// repeated lazy updates add and remove a field of Cell through a
/// handwritten copying transformer. The spin reads `v`, `w` and `next` and
/// writes `v` on the seeded cells whose `w` is set, so both the getfield and
/// the putfield barrier paths run. After each commit the ring keeps
/// spinning until the lazy engine drains and retires.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bytecode/Builder.h"
#include "dsu/LazyTransform.h"
#include "dsu/Transformers.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"
#include "support/Rng.h"

#include <algorithm>
#include <string>

using namespace jvolve;

namespace perfbench {

namespace {

constexpr size_t Cells = 1'000'000;
/// Measured lazy updates per pass, after one excluded warm-up update.
constexpr int UpdatesPerPass = 2;
/// Virtual ticks of steady spinning before each update, in timed windows.
constexpr uint64_t SteadyTicks = 8'000'000;
constexpr int SteadyWindows = 4;
constexpr uint64_t ChunkTicks = 50'000;

ClassSet ringProgram(bool Added) {
  ClassSet Set;
  {
    ClassBuilder CB("Cell");
    CB.field("v", "I");
    CB.field("w", "I");
    CB.field("next", "LCell;");
    if (Added)
      CB.field("added", "I");
    Set.add(CB.build());
  }
  ClassBuilder CB("Ring");
  CB.staticField("head", "LCell;");
  CB.staticField("laps", "I");
  CB.staticField("total", "I");
  // spin(n): forever walks n cells from head (one lap), summing v and
  // bumping v on cells with w set; each finished lap adds its sum to
  // total and counts itself in laps.
  CB.staticMethod("spin", "(I)V")
      .locals(4)
      .label("top")
      .getstatic("Ring", "head", "LCell;")
      .store(1)
      .iconst(0)
      .store(2)
      .iconst(0)
      .store(3)
      .label("loop")
      .load(2)
      .load(0)
      .branch(Opcode::IfICmpGe, "lapdone")
      .load(3)
      .load(1)
      .getfield("Cell", "v", "I")
      .iadd()
      .store(3)
      .load(1)
      .getfield("Cell", "w", "I")
      .branch(Opcode::IfEq, "skip")
      .load(1)
      .load(1)
      .getfield("Cell", "v", "I")
      .iconst(1)
      .iadd()
      .putfield("Cell", "v", "I")
      .label("skip")
      .load(1)
      .getfield("Cell", "next", "LCell;")
      .store(1)
      .load(2)
      .iconst(1)
      .iadd()
      .store(2)
      .jump("loop")
      .label("lapdone")
      .getstatic("Ring", "total", "I")
      .load(3)
      .iadd()
      .putstatic("Ring", "total", "I")
      .getstatic("Ring", "laps", "I")
      .iconst(1)
      .iadd()
      .putstatic("Ring", "laps", "I")
      .jump("top");
  Set.add(CB.build());
  return Set;
}

/// The seeded ring contents and the sums the spin's closed form needs.
struct RingInputs {
  std::vector<int64_t> V;
  std::vector<uint8_t> W;
  int64_t SumV = 0;
  int64_t NumW = 0;

  RingInputs(size_t Cells, uint64_t Seed) : V(Cells), W(Cells) {
    Rng R(Seed * 0x9e3779b97f4a7c15ULL + 47);
    for (size_t I = 0; I < Cells; ++I) {
      V[I] = static_cast<int64_t>(R.nextBelow(1000));
      W[I] = R.nextBelow(4) == 0;
      SumV += V[I];
      NumW += W[I];
    }
  }

  /// Ring.total after \p Laps finished laps: lap k reads every written
  /// cell k times bumped.
  int64_t expectedTotal(int64_t Laps) const {
    return Laps * SumV + NumW * Laps * (Laps - 1) / 2;
  }
};

std::unique_ptr<VM> bootRingVm(const RingInputs &In) {
  size_t N = In.V.size();
  VM::Config Cfg;
  // Cell: 16-byte header + 3 (or 4) fields. A lazy commit holds the new
  // shells and the old copies of every cell at once.
  Cfg.HeapSpaceBytes = N * 48 * 5 / 2 + (1u << 20);
  auto TheVM = std::make_unique<VM>(Cfg);
  TheVM->loadProgram(ringProgram(false));
  ClassRegistry &Reg = TheVM->registry();
  ClassId CellId = Reg.idOf("Cell");
  const RtClass &Cell = Reg.cls(CellId);
  uint32_t VOff = Cell.findInstanceField("v")->Offset;
  uint32_t WOff = Cell.findInstanceField("w")->Offset;
  uint32_t NextOff = Cell.findInstanceField("next")->Offset;
  // Pinned roots keep the first and the latest cell across collections.
  std::vector<Ref> &Pin = TheVM->pinnedRoots();
  size_t Base = Pin.size();
  for (size_t I = 0; I < N; ++I) {
    Ref C = TheVM->allocateObject(CellId);
    setIntAt(C, VOff, In.V[I]);
    setIntAt(C, WOff, In.W[I]);
    if (I == 0) {
      Pin.push_back(C);
      Pin.push_back(C);
    } else {
      setRefAt(Pin[Base + 1], NextOff, C);
      Pin[Base + 1] = C;
    }
  }
  setRefAt(Pin[Base + 1], NextOff, Pin[Base]);
  RtClass &Ring = Reg.cls(Reg.idOf("Ring"));
  Ring.Statics[Ring.findStaticField("head")->Offset] = Slot::ofRef(Pin[Base]);
  Pin.resize(Base);
  return TheVM;
}

/// The handwritten transformer's call count and (traced) time.
struct CallbackStats {
  uint64_t Calls = 0;
  int64_t Ns = 0;
};

UpdateBundle ringBundle(int Index, Tracer &Tr, CallbackStats &CB,
                        std::vector<double> &PrepMs) {
  bool Adds = Index % 2 == 0;
  UpdateBundle B;
  PrepMs.push_back(Tr.timed("upt.prepare", [&] {
    B = Upt::prepare(ringProgram(!Adds), ringProgram(Adds),
                     "r" + std::to_string(Index));
  }) / 1e6);
  auto Copy = [Adds](TransformCtx &Ctx, Ref To, Ref From) {
    Ctx.setInt(To, "v", Ctx.getInt(From, "v"));
    Ctx.setInt(To, "w", Ctx.getInt(From, "w"));
    Ctx.setRef(To, "next", Ctx.getRef(From, "next"));
    if (Adds)
      Ctx.setInt(To, "added", 0);
  };
  B.ObjectTransformers["Cell"] = [Copy, &Tr, &CB](TransformCtx &Ctx, Ref To,
                                                  Ref From) {
    ++CB.Calls;
    if (!Tr.enabled()) {
      Copy(Ctx, To, From);
      return;
    }
    int64_t Start = nowNs();
    Copy(Ctx, To, From);
    int64_t Ns = nowNs() - Start;
    CB.Ns += Ns;
    Tr.addChildNs(Ns);
  };
  return B;
}

/// Runs \p Ticks virtual ticks in chunks. \returns VM::run wall ns.
int64_t spinFor(VM &TheVM, Tracer &Tr, uint64_t Ticks) {
  int64_t Ns = 0;
  for (uint64_t Done = 0; Done < Ticks; Done += ChunkTicks)
    Ns += Tr.timed("vm.run", [&] { TheVM.run(ChunkTicks); });
  return Ns;
}

/// Runs chunks until the lazy engine drains. \returns VM::run wall ns.
int64_t spinUntilDrained(VM &TheVM, Tracer &Tr) {
  int64_t Ns = 0;
  VmLazyEngine *Engine = TheVM.lazyEngine();
  for (int I = 0; Engine && !Engine->drained() && I < 100'000; ++I)
    Ns += Tr.timed("vm.run", [&] { TheVM.run(ChunkTicks); });
  return Ns;
}

/// Requests a lazy update and runs the VM until it commits. Unlike
/// Updater::applyNow, which keeps driving until the lazy engine drains,
/// this returns at the commit, so its wall time is the update pause. The
/// caller times it as one span: the commit itself runs inside VM::run, at
/// the safe point.
UpdateResult commitLazy(VM &TheVM, Updater &Upd, UpdateBundle Bundle,
                        const UpdateOptions &Opts) {
  Upd.schedule(std::move(Bundle), Opts);
  for (int I = 0; Upd.pending() && I < 100'000; ++I)
    TheVM.run(1000);
  return Upd.result();
}

int64_t ringStatic(VM &TheVM, const char *Name) {
  RtClass &Ring = TheVM.registry().cls(TheVM.registry().idOf("Ring"));
  return Ring.Statics[Ring.findStaticField(Name)->Offset].IntVal;
}

} // namespace

Outcome runRingLazy(const RunOptions &Opts, Tracer &Tr) {
  Outcome Out;
  EndToEndSamples E;
  LayerSamples L;
  SpeedProbe Probe;
  std::vector<double> SettleMs, DrainMips;
  RingInputs In(Cells, Opts.Seed);
  const UpdateOptions UOpts = pinnedOptions(/*Lazy=*/true);
  PassPlan Plan(Opts, 2);
  double FirstInstrs = -1, FirstCompiles = -1;

  for (int Pass = 0; Plan.more(Pass); ++Pass) {
    bool Traced = Plan.traced(Pass);
    Tr.setEnabled(Traced);
    CallbackStats CB;

    // --- Set-up: boot and build the ring, start the spinner, prepare every
    // bundle, and apply and drain the excluded first update.
    std::unique_ptr<VM> TheVM;
    std::unique_ptr<Updater> Upd;
    std::vector<double> PrepMs;
    std::vector<UpdateBundle> Bundles;
    int64_t SetupNs = 0;
    double SetupSlow = Probe.around(SpeedProbe::Memory, [&] {
      int64_t Start = nowNs();
      Tr.timed("setup.boot", [&] { TheVM = bootRingVm(In); });
      TheVM->spawnThread("Ring", "spin", "(I)V",
                         {Slot::ofInt(static_cast<int64_t>(Cells))},
                         "spinner");
      for (int U = 0; U <= UpdatesPerPass; ++U)
        Bundles.push_back(ringBundle(U, Tr, CB, PrepMs));
      Upd = std::make_unique<Updater>(*TheVM);
      spinFor(*TheVM, Tr, SteadyTicks / 2);
      UpdateResult First =
          commitLazy(*TheVM, *Upd, std::move(Bundles[0]), UOpts);
      if (First.Status != UpdateStatus::Applied)
        Out.fail("ring_lazy: warm-up update " +
                 std::string(updateStatusName(First.Status)) + ": " +
                 First.Message);
      spinUntilDrained(*TheVM, Tr);
      SetupNs = nowNs() - Start;
    });

    // --- Measured: a steady spin, then a lazy update spun until drained.
    double WorkMs = 0, PassRunMs = 0;
    uint64_t InstrsBefore = TheVM->stats().InstructionsExecuted;
    uint64_t CompilesBefore = TheVM->compiler().compilationsPerformed();
    for (int U = 1; U <= UpdatesPerPass; ++U) {
      for (int W = 0; W < SteadyWindows; ++W) {
        uint64_t I0 = TheVM->stats().InstructionsExecuted;
        int64_t Ns = 0;
        double Slow = Probe.around(SpeedProbe::Core, [&] {
          Ns = spinFor(*TheVM, Tr, SteadyTicks / SteadyWindows);
        });
        double Ms = Ns / 1e6 / Slow;
        PassRunMs += Ms;
        if (!Traced)
          E.Mips.push_back((TheVM->stats().InstructionsExecuted - I0) / 1e3 /
                           Ms);
      }

      ++Out.Attempted;
      uint64_t CallsBefore = CB.Calls;
      int64_t CallbackNsBefore = CB.Ns;
      UpdateResult R;
      size_t SpanIndex = Tr.spans().size();
      double ApplyMs = 0;
      double Slow = Probe.around(SpeedProbe::Memory, [&] {
        ApplyMs = Tr.timed("updater.commit", [&] {
                    R = commitLazy(*TheVM, *Upd, std::move(Bundles[U]), UOpts);
                  }) / 1e6;
      });
      ApplyMs /= Slow;
      double DrainMs = 0;
      uint64_t DrainInstrs = TheVM->stats().InstructionsExecuted;
      double DrainSlow = Probe.around(SpeedProbe::Core, [&] {
        DrainMs = spinUntilDrained(*TheVM, Tr) / 1e6;
      });
      DrainMs /= DrainSlow;
      DrainInstrs = TheVM->stats().InstructionsExecuted - DrainInstrs;
      PassRunMs += DrainMs;
      WorkMs += ApplyMs + DrainMs;
      auto *Engine = static_cast<LazyTransformEngine *>(TheVM->lazyEngine());
      if (R.Status != UpdateStatus::Applied || !R.Certified ||
          !R.LazyInstalled || !Engine) {
        Out.fail("ring_lazy: update " + std::to_string(U) + " " +
                 updateStatusName(R.Status) + ": " + R.Message);
        continue;
      }
      uint64_t Calls = CB.Calls - CallsBefore;
      int64_t Laps = ringStatic(*TheVM, "laps");
      int64_t Total = ringStatic(*TheVM, "total");
      if (!Engine->drained() || !Engine->retired() ||
          Engine->failedTransforms() != 0 || Calls != Cells ||
          R.LazyPendingAtCommit != Cells)
        Out.fail("ring_lazy: update " + std::to_string(U) + " drained " +
                 std::to_string(Engine->drained()) + ", retired " +
                 std::to_string(Engine->retired()) + ", " +
                 std::to_string(Engine->failedTransforms()) +
                 " failed transforms, " + std::to_string(Calls) +
                 " transformer calls, " +
                 std::to_string(R.LazyPendingAtCommit) + " pending at commit");
      else if (Total != In.expectedTotal(Laps))
        Out.fail("ring_lazy: spin total " + std::to_string(Total) +
                 " after " + std::to_string(Laps) + " laps, expected " +
                 std::to_string(In.expectedTotal(Laps)));
      if (!Traced) {
        E.UpdateMs.push_back(ApplyMs);
        SettleMs.push_back(ApplyMs + DrainMs);
        DrainMips.push_back(DrainInstrs / 1e3 / std::max(DrainMs, 1e-9));
        continue;
      }
      const Tracer::Span &S = Tr.spans()[SpanIndex];
      L.ApplyMs.push_back(ApplyMs);
      L.SelfMs.push_back((S.EndNs - S.StartNs - S.ChildNs) / 1e6 / Slow);
      L.SafePointTicks.push_back(static_cast<double>(R.TicksToSafePoint));
      L.TransformerCalls.push_back(static_cast<double>(Calls));
      L.CallbackMs.push_back((CB.Ns - CallbackNsBefore) / 1e6 / Slow);
      L.PendingAtCommit.push_back(static_cast<double>(R.LazyPendingAtCommit));
      L.Transformed.push_back(static_cast<double>(Engine->transformedCount()));
      L.DrainMs.push_back(DrainMs);
      probeHeap(*TheVM, Tr, Probe, L, Out, "ring_lazy");
    }
    double Instrs =
        static_cast<double>(TheVM->stats().InstructionsExecuted - InstrsBefore);
    double Compiles = static_cast<double>(
        TheVM->compiler().compilationsPerformed() - CompilesBefore);
    if (FirstInstrs < 0) {
      FirstInstrs = Instrs;
      FirstCompiles = Compiles;
    }
    Out.expectSame("vm.instructions", FirstInstrs, Instrs);
    Out.expectSame("compiler.compilations", FirstCompiles, Compiles);

    if (Traced) {
      L.TracedWorkMs.push_back(WorkMs);
      for (double Ms : PrepMs)
        L.PrepareMs.push_back(Ms / SetupSlow);
      L.RunMs.push_back(PassRunMs);
      L.NsPerInstr.push_back(PassRunMs * 1e6 / std::max(Instrs, 1.0));
      L.Compilations.push_back(Compiles / UpdatesPerPass);
    } else {
      L.UntracedWorkMs.push_back(WorkMs);
      E.SetupS.push_back(SetupNs / 1e9 / SetupSlow);
    }
  }
  Out.EndToEnd = endToEndMetrics(E, Probe);
  Out.PerLayer = perLayerMetrics(L);
  Out.Info = {{"settle_p50_ms", median(SettleMs), "ms", SettleMs.size()},
              {"drain_mips", median(DrainMips), "Minstr/s", DrainMips.size()},
              slowdownMetrics(Probe)[0], slowdownMetrics(Probe)[1]};
  return Out;
}

} // namespace perfbench
