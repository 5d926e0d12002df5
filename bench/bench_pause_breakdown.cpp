//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the §4.1 cost-breakdown claims: "the time to suspend
/// threads and check that the application is in a safe-point is less than
/// a millisecond, and classloading time is usually less than 20 ms.
/// Therefore the update disruption time is primarily due to the GC and
/// object transformers."
///
/// Phase timings are the spans the updater marks against its single pause
/// clock, read straight from UpdateResult. For every applied update of all
/// three application streams, prints every phase span (snapshot through
/// codeversion), the total, the unaccounted remainder (total minus the
/// spans), and the time-to-safe-point in virtual ticks. The populated
/// update (100 k objects) runs several times, each on a fresh VM; from
/// their medians it prints gc, transform and certify in ns per updated
/// object, and the DSU collection's ns per copied object beside a plain
/// collection of an identical heap (the DSU extension's cost over Cheney
/// copying). Exits 1 if the spans leave more than 5% + 0.5 ms of any pause
/// unaccounted — a phase the table does not show cannot hide in the total
/// — or if the median transform or certify costs more per object than the
/// median collection that copies those objects.
///
#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/Evaluation.h"
#include "apps/JettyApp.h"
#include "bytecode/Builder.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"
#include "support/Stats.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

using namespace jvolve;

namespace {

/// Pause time no phase span claims.
double unaccountedMs(const UpdateResult &R) {
  double Sum = 0;
  for (const PhaseSpan &S : R.Trace.spans())
    Sum += S.Ms;
  return R.TotalPauseMs - Sum;
}

/// Populated updates per run: single-run ns/object figures swing up to 3x
/// on a shared host, so the per-object gate compares medians.
constexpr int PopulatedRuns = 5;

/// The populated update, plus a plain collection of an identical heap.
struct PopulatedRun {
  UpdateResult Result;
  CollectionStats PlainGc;
};

/// v1/v2 of the populated update: Rec gains a field.
ClassSet populatedVersion(bool Extra) {
  ClassSet Set;
  ClassBuilder C("Rec");
  C.field("a", "I");
  C.field("b", "I");
  if (Extra)
    C.field("c", "I");
  Set.add(C.build());
  ClassBuilder H("H");
  H.staticField("arr", "[LRec;");
  Set.add(H.build());
  return Set;
}

/// Boots a VM holding 100 k live Rec objects in a static array.
std::unique_ptr<VM> populatedVm() {
  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 64u << 20;
  auto TheVM = std::make_unique<VM>(Cfg);
  TheVM->loadProgram(populatedVersion(false));
  ClassRegistry &Reg = TheVM->registry();
  constexpr int64_t N = 100'000;
  Ref Arr = TheVM->allocateArray(Reg.arrayClassOf(Type::refTy("Rec")), N);
  Reg.cls(Reg.idOf("H")).Statics[0] = Slot::ofRef(Arr);
  ClassId RecId = Reg.idOf("Rec");
  for (int64_t I = 0; I < N; ++I) {
    Ref Obj = TheVM->allocateObject(RecId);
    Arr = Reg.cls(Reg.idOf("H")).Statics[0].RefVal;
    setRefAt(Arr, arrayElemOffset(I), Obj);
  }
  return TheVM;
}

/// A populated update (100 k live objects of the updated class), since the
/// application-model updates transform at most a handful of objects — the
/// paper's "GC and transformers dominate" claim is about populated heaps.
/// The plain collection runs on its own identical VM, so both copy into
/// a to-space that has never been touched.
PopulatedRun populatedUpdate() {
  PopulatedRun Run;
  Run.PlainGc = populatedVm()->collectGarbage();
  std::unique_ptr<VM> TheVM = populatedVm();
  Updater U(*TheVM);
  Run.Result = U.applyNow(
      Upt::prepare(populatedVersion(false), populatedVersion(true), "v1"));
  return Run;
}

} // namespace

int main() {
  std::printf("=== Update pause breakdown (paper §4.1) ===\n");
  std::printf("(phase spans from UpdateResult, one clock per pause)\n\n");
  TablePrinter TP;
  std::vector<std::string> Header = {"Update"};
  for (const char *Phase : metrics::DsuUpdatePhases)
    Header.push_back(std::string(Phase) + "(ms)");
  for (const char *Col :
       {"total(ms)", "unaccounted(ms)", "objects", "ticks-to-safe-point"})
    Header.push_back(Col);
  TP.setHeader(Header);

  AppModel Apps[] = {makeJettyApp(), makeEmailApp(), makeCrossFtpApp()};
  double MaxClassLoad = 0;
  int Rows = 0, Tiled = 0;
  auto AddRow = [&](const std::string &Name, const UpdateResult &U) {
    // The tiling budget: a span missing from the table (or time spent
    // between marks) shows up as unaccounted pause.
    bool Accounted =
        std::fabs(unaccountedMs(U)) <= 0.05 * U.TotalPauseMs + 0.5;
    ++Rows;
    Tiled += Accounted;
    std::vector<std::string> Row = {Name};
    for (size_t P = 0; P < NumUpdatePhases; ++P)
      Row.push_back(
          TablePrinter::fmt(U.phaseMs(static_cast<UpdatePhase>(P)), 3));
    Row.push_back(TablePrinter::fmt(U.TotalPauseMs, 3));
    Row.push_back(TablePrinter::fmt(unaccountedMs(U), 3) +
                  (Accounted ? "" : " OVER"));
    Row.push_back(std::to_string(U.ObjectsTransformed));
    Row.push_back(std::to_string(U.TicksToSafePoint));
    TP.addRow(Row);
    MaxClassLoad = std::max(MaxClassLoad, U.phaseMs(UpdatePhase::ClassLoad));
  };
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      ReleaseOutcome R = evaluateRelease(App, V);
      if (R.Result.Status == UpdateStatus::Applied)
        AddRow(App.name() + " " + R.Version, R.Result);
    }
  }
  std::vector<PopulatedRun> Runs;
  for (int I = 0; I < PopulatedRuns; ++I) {
    Runs.push_back(populatedUpdate());
    AddRow("microbench (100k objects) #" + std::to_string(I + 1),
           Runs.back().Result);
  }
  // Medians over the populated runs, which all update the same objects.
  auto Median = [&](auto PerRun) {
    std::vector<double> V;
    for (const PopulatedRun &Run : Runs)
      V.push_back(PerRun(Run));
    return percentile(V, 50);
  };
  auto PhaseMs = [&](UpdatePhase P) {
    return Median([P](auto &Run) { return Run.Result.phaseMs(P); });
  };
  const UpdateResult &First = Runs.front().Result;

  std::printf("%s\n", TP.render().c_str());
  std::printf("Tiling: phase spans account for the total pause (within 5%% "
              "+ 0.5 ms) on %d of %d updates\n",
              Tiled, Rows);
  std::printf("Shape: max classloading time %.3f ms (paper: usually "
              "< 20 ms)\n",
              MaxClassLoad);
  double GcTransform =
      PhaseMs(UpdatePhase::Gc) + PhaseMs(UpdatePhase::Transform);
  double ClassLoad = PhaseMs(UpdatePhase::ClassLoad);
  std::printf("Shape: on the populated heap, GC + transformers are "
              "%.0fx the classloading cost: %s (paper: 'disruption time "
              "is primarily due to the GC and object transformers')\n",
              GcTransform / std::max(ClassLoad, 1e-6),
              GcTransform > ClassLoad ? "yes" : "no");
  double TotalMs = Median([](auto &Run) { return Run.Result.TotalPauseMs; });
  std::printf("Shape: on the populated heap, certification is %.1f%% of "
              "the pause\n",
              100.0 * PhaseMs(UpdatePhase::Certify) / std::max(TotalMs, 1e-6));

  // Per-layer budget: transforming or certifying an object must not cost
  // more than the collection that copies it.
  double NsPerObject = 1e6 / static_cast<double>(std::max<uint64_t>(
                                   First.ObjectsTransformed, 1));
  double GcNs = PhaseMs(UpdatePhase::Gc) * NsPerObject,
         TransformNs = PhaseMs(UpdatePhase::Transform) * NsPerObject,
         CertifyNs = PhaseMs(UpdatePhase::Certify) * NsPerObject;
  bool WithinBudget = TransformNs <= GcNs && CertifyNs <= GcNs;
  std::printf("Per object (populated update, %llu objects, median of %d "
              "runs): gc %.1f ns, transform %.1f ns, certify %.1f ns — "
              "transform and certify within the gc cost: %s\n",
              static_cast<unsigned long long>(First.ObjectsTransformed),
              PopulatedRuns, GcNs, TransformNs, CertifyNs,
              WithinBudget ? "yes" : "NO");
  // The DSU collection copies each updated object twice (new shell plus
  // old duplicate); per copied object it should stay near plain copying.
  auto NsPerCopied = [](const CollectionStats &St) {
    return St.GcMs * 1e6 /
           static_cast<double>(std::max<uint64_t>(St.ObjectsCopied, 1));
  };
  std::printf(
      "Per copied object (populated heap, median of %d runs): DSU "
      "collection %.1f ns (%llu copied), plain collection %.1f ns (%llu "
      "copied)\n",
      PopulatedRuns,
      Median([&](auto &Run) { return NsPerCopied(Run.Result.Gc); }),
      static_cast<unsigned long long>(First.Gc.ObjectsCopied),
      Median([&](auto &Run) { return NsPerCopied(Run.PlainGc); }),
      static_cast<unsigned long long>(Runs.front().PlainGc.ObjectsCopied));
  return Tiled == Rows && WithinBudget ? 0 : 1;
}
