//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the §4.1 cost-breakdown claims: "the time to suspend
/// threads and check that the application is in a safe-point is less than
/// a millisecond, and classloading time is usually less than 20 ms.
/// Therefore the update disruption time is primarily due to the GC and
/// object transformers."
///
/// Phase timings come from the telemetry registry — the
/// dsu.update.phase_ms{phase=...} histograms the updater populates — and
/// every row is cross-checked against the UpdateResult fields the updater
/// measures with its own per-phase timers, so the two observability paths
/// must agree. For every applied update of all three application streams,
/// prints every phase span (snapshot through codeversion), the total, the
/// unaccounted remainder (total minus the spans), and the time-to-safe-
/// point in virtual ticks. On the populated update (100 k objects) it also
/// prints gc, transform and certify in ns per updated object, and the DSU
/// collection's ns per copied object beside a plain collection of an
/// identical heap (the DSU extension's cost over Cheney copying). Exits 1 if
/// the two instruments disagree, if the spans leave more than 5% + 0.5 ms
/// of a pause unaccounted — a phase the table does not show cannot hide in
/// the total — or if transform or certify costs more per object than the
/// collection that copies those objects.
///
//===----------------------------------------------------------------------===//

#include "apps/CrossFtpApp.h"
#include "apps/EmailApp.h"
#include "apps/Evaluation.h"
#include "apps/JettyApp.h"
#include "bytecode/Builder.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"
#include "support/TablePrinter.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string_view>

using namespace jvolve;

namespace {

/// Every phase span the updater marks, in pipeline order. The spans tile
/// the pause, so their sum must come back to the total.
constexpr const char *Phases[] = {"snapshot",  "classload", "stack_repair",
                                  "gc",        "transform", "certify",
                                  "rollback",  "codeversion"};
constexpr size_t NumPhases = std::size(Phases);

/// Phase timings of the most recent update, read back from the telemetry
/// registry (reset before each update so each histogram holds one sample).
struct PhaseTimings {
  double PhaseMs[NumPhases] = {};
  double TotalMs = 0;

  double ms(const char *Phase) const {
    for (size_t I = 0; I < NumPhases; ++I)
      if (std::string_view(Phases[I]) == Phase)
        return PhaseMs[I];
    return 0;
  }
  /// Pause time no phase span claims.
  double unaccountedMs() const {
    double Sum = 0;
    for (double Ms : PhaseMs)
      Sum += Ms;
    return TotalMs - Sum;
  }
};

PhaseTimings readPhaseTimings() {
  auto Sum = [](const char *Phase) {
    const TelHistogram *H =
        Telemetry::global().findHistogram(metrics::dsuPhaseMs(Phase));
    return H ? H->sum() : 0.0;
  };
  PhaseTimings T;
  for (size_t I = 0; I < NumPhases; ++I)
    T.PhaseMs[I] = Sum(Phases[I]);
  T.TotalMs = Sum("total");
  return T;
}

/// The tiling budget: a span missing from the table (or time spent
/// between marks) shows up as unaccounted pause.
bool accounted(const PhaseTimings &T) {
  return std::fabs(T.unaccountedMs()) <= 0.05 * T.TotalMs + 0.5;
}

/// The telemetry phase spans and the updater's own timers measure the
/// same pause with different instruments; the span additionally carries
/// the small bookkeeping between marks, so agreement is approximate.
bool agree(double TelemetryMs, double ResultMs) {
  return std::fabs(TelemetryMs - ResultMs) <=
         0.75 + 0.25 * std::max(TelemetryMs, ResultMs);
}

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
  Telemetry::global().setEnabled(true);
  std::printf("=== Update pause breakdown (paper §4.1) ===\n");
  std::printf("(phase timings from the telemetry registry, cross-checked "
              "against UpdateResult)\n\n");
  TablePrinter TP;
  std::vector<std::string> Header = {"Update"};
  for (const char *Phase : Phases)
    Header.push_back(std::string(Phase) + "(ms)");
  for (const char *Col : {"total(ms)", "unaccounted(ms)", "objects",
                          "ticks-to-safe-point", "sources"})
    Header.push_back(Col);
  TP.setHeader(Header);

  AppModel Apps[] = {makeJettyApp(), makeEmailApp(), makeCrossFtpApp()};
  double MaxClassLoad = 0;
  int Rows = 0, Agreements = 0, Tiled = 0;
  auto AddRow = [&](const std::string &Name, const UpdateResult &U,
                    const PhaseTimings &T) {
    bool Agrees = agree(T.ms("classload"), U.ClassLoadMs) &&
                  agree(T.ms("gc"), U.GcMs) &&
                  agree(T.ms("transform"), U.TransformMs) &&
                  agree(T.TotalMs, U.TotalPauseMs);
    bool Accounted = accounted(T);
    ++Rows;
    Agreements += Agrees;
    Tiled += Accounted;
    std::vector<std::string> Row = {Name};
    for (double Ms : T.PhaseMs)
      Row.push_back(TablePrinter::fmt(Ms, 3));
    Row.push_back(TablePrinter::fmt(T.TotalMs, 3));
    Row.push_back(TablePrinter::fmt(T.unaccountedMs(), 3) +
                  (Accounted ? "" : " OVER"));
    Row.push_back(std::to_string(U.ObjectsTransformed));
    Row.push_back(std::to_string(U.TicksToSafePoint));
    Row.push_back(Agrees ? "agree" : "DISAGREE");
    TP.addRow(Row);
    MaxClassLoad = std::max(MaxClassLoad, T.ms("classload"));
  };
  for (const AppModel &App : Apps) {
    for (size_t V = 1; V < App.numVersions(); ++V) {
      Telemetry::global().reset();
      ReleaseOutcome R = evaluateRelease(App, V);
      if (R.Result.Status == UpdateStatus::Applied)
        AddRow(App.name() + " " + R.Version, R.Result, readPhaseTimings());
    }
  }
  Telemetry::global().reset();
  PopulatedRun Run = populatedUpdate();
  const UpdateResult &Populated = Run.Result;
  PhaseTimings PopulatedT = readPhaseTimings();
  AddRow("microbench (100k objects)", Populated, PopulatedT);

  std::printf("%s\n", TP.render().c_str());
  std::printf("Cross-check: telemetry phase spans agree with the updater's "
              "own timers on %d of %d updates\n",
              Agreements, Rows);
  std::printf("Tiling: phase spans account for the total pause (within 5%% "
              "+ 0.5 ms) on %d of %d updates\n",
              Tiled, Rows);
  std::printf("Shape: max classloading time %.3f ms (paper: usually "
              "< 20 ms)\n",
              MaxClassLoad);
  double GcTransform = PopulatedT.ms("gc") + PopulatedT.ms("transform");
  std::printf("Shape: on the populated heap, GC + transformers are "
              "%.0fx the classloading cost: %s (paper: 'disruption time "
              "is primarily due to the GC and object transformers')\n",
              GcTransform / std::max(PopulatedT.ms("classload"), 1e-6),
              GcTransform > PopulatedT.ms("classload") ? "yes" : "no");
  std::printf("Shape: on the populated heap, certification is %.1f%% of "
              "the pause\n",
              100.0 * PopulatedT.ms("certify") /
                  std::max(PopulatedT.TotalMs, 1e-6));

  // Per-layer budget: transforming or certifying an object must not cost
  // more than the collection that copies it.
  auto NsPerObject = [&](const char *Phase) {
    return PopulatedT.ms(Phase) * 1e6 /
           static_cast<double>(std::max<uint64_t>(
               Populated.ObjectsTransformed, 1));
  };
  double GcNs = NsPerObject("gc"), TransformNs = NsPerObject("transform"),
         CertifyNs = NsPerObject("certify");
  bool WithinBudget = TransformNs <= GcNs && CertifyNs <= GcNs;
  std::printf("Per object (populated update, %llu objects): gc %.1f ns, "
              "transform %.1f ns, certify %.1f ns — transform and certify "
              "within the gc cost: %s\n",
              static_cast<unsigned long long>(Populated.ObjectsTransformed),
              GcNs, TransformNs, CertifyNs, WithinBudget ? "yes" : "NO");
  // The DSU collection copies each updated object twice (new shell plus
  // old duplicate); per copied object it should stay near plain copying.
  auto NsPerCopied = [](const CollectionStats &St) {
    return St.GcMs * 1e6 /
           static_cast<double>(std::max<uint64_t>(St.ObjectsCopied, 1));
  };
  std::printf("Per copied object (populated heap): DSU collection %.1f ns "
              "(%llu copied), plain collection %.1f ns (%llu copied)\n",
              NsPerCopied(Populated.Gc),
              static_cast<unsigned long long>(Populated.Gc.ObjectsCopied),
              NsPerCopied(Run.PlainGc),
              static_cast<unsigned long long>(Run.PlainGc.ObjectsCopied));
  return Agreements == Rows && Tiled == Rows && WithinBudget ? 0 : 1;
}
