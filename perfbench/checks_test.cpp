//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the benchmark's own correctness checks: a deliberately
/// corrupted field, a response carrying a stale version's constant and a
/// dropped response must each be reported as one failed op, and the
/// untouched cases as none.
///
///   cmake --build .bench_build --target perfbench_checks
///   .bench_build/perfbench_checks
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/JettyApp.h"
#include "dsu/Upt.h"
#include "runtime/ObjectModel.h"

#include <cstdio>

using namespace jvolve;
using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("%s: %s\n", Ok ? "ok  " : "FAIL", What);
  Failures += !Ok;
}

void corruptedFieldIsAFailedOp() {
  HeapInputs In = HeapInputs::make(2000, 7);
  std::unique_ptr<VM> TheVM = bootHeapVm(In);
  Updater Upd(*TheVM);
  UpdateResult R = Upd.applyNow(
      Upt::prepare(heapProgram(false), heapProgram(true), "t0"),
      pinnedOptions(/*Lazy=*/false));
  check(R.Status == UpdateStatus::Applied && R.Certified,
        "heap_eager update applies and certifies");

  Outcome Clean;
  checkHeapOp(*TheVM, In, /*Added=*/true, Clean);
  check(Clean.Failed == 0, "untouched heap passes the check");

  // Overwrite i0 of one object behind the program's back.
  ClassRegistry &Reg = TheVM->registry();
  Ref Arr = Reg.cls(Reg.idOf("Holder")).Statics[0].RefVal;
  Ref Obj = getRefAt(Arr, arrayElemOffset(1234));
  const RtClass &C = Reg.cls(classOf(Obj));
  setIntAt(Obj, C.findInstanceField("i0")->Offset, In.I0[1234] + 1);
  Outcome Corrupt;
  checkHeapOp(*TheVM, In, /*Added=*/true, Corrupt);
  check(Corrupt.Failed == 1, "a corrupted i0 is one failed op");

  // A heap checked against the wrong field set fails too.
  Outcome WrongShape;
  checkHeapOp(*TheVM, In, /*Added=*/false, WrongShape);
  check(WrongShape.Failed == 1, "a missing field change is one failed op");
}

void staleAndDroppedResponsesAreFailedOps() {
  AppModel App = makeJettyApp();
  int64_t Old = responseSalt(App.version(3));
  int64_t New = responseSalt(App.version(4));
  check(Old != New, "5.1.3 and 5.1.4 answer with different constants");

  ResponseChecker Stale;
  Outcome StaleOut;
  Stale.expect(1, {10, 20}, New, New);
  Stale.onResponse(1, 2 * 10 + Old, StaleOut);
  Stale.onResponse(1, 2 * 20 + New, StaleOut);
  Stale.finish(StaleOut);
  check(StaleOut.Failed == 1, "a stale-version response is one failed op");

  ResponseChecker Straddle;
  Outcome StraddleOut;
  Straddle.expect(2, {10, 20}, New, Old);
  Straddle.onResponse(2, 2 * 10 + Old, StraddleOut);
  Straddle.onResponse(2, 2 * 20 + New, StraddleOut);
  Straddle.finish(StraddleOut);
  check(StraddleOut.Failed == 0,
        "a connection in flight across an update may see either version");

  ResponseChecker Dropped;
  Outcome DroppedOut;
  Dropped.expect(3, {5, 6, 7}, New, New);
  Dropped.onResponse(3, 2 * 5 + New, DroppedOut);
  Dropped.onResponse(3, 2 * 6 + New, DroppedOut);
  check(Dropped.outstanding() == 1, "one request is still unanswered");
  Dropped.finish(DroppedOut);
  check(DroppedOut.Failed == 1, "a dropped response is one failed op");
}

} // namespace

int main() {
  corruptedFieldIsAFailedOp();
  staleAndDroppedResponsesAreFailedOps();
  std::printf("%d check(s) failed\n", Failures);
  return Failures ? 1 : 0;
}
