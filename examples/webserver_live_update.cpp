//===----------------------------------------------------------------------===//
///
/// \file
/// Live-updating a web server under load (the paper's Jetty scenario).
///
/// Starts the Jetty model at version 5.1.5, drives httperf-style traffic,
/// applies the dynamic update to 5.1.6 without dropping the in-flight
/// sessions, and reports throughput before/after plus the update pause.
///
//===----------------------------------------------------------------------===//

#include "apps/JettyApp.h"
#include "apps/Workload.h"
#include "dsu/Updater.h"
#include "dsu/Upt.h"
#include "vm/VM.h"

#include <cstdio>

using namespace jvolve;

int main() {
  AppModel App = makeJettyApp();
  const size_t V515 = 5, V516 = 6;
  std::printf("booting %s...\n", App.versionName(V515).c_str());

  VM::Config Cfg;
  Cfg.HeapSpaceBytes = 16u << 20;
  VM TheVM(Cfg);
  TheVM.loadProgram(App.version(V515));
  startJettyThreads(TheVM);

  LoadDriver::Options LO;
  LO.Port = JettyPort;
  // Stay below saturation so latency reflects service time.
  LO.ConnectionsPerBatch = 1;
  LO.BatchInterval = 300;
  LO.JitterTicks = 10;
  LoadDriver Driver(TheVM, LO);

  LoadResult Before = Driver.measure(20'000);
  std::printf("v5.1.5 under load: %llu responses, %.1f resp/ktick, "
              "median latency %.0f ticks\n",
              static_cast<unsigned long long>(Before.Responses),
              Before.Throughput, Before.LatencyTicks.Median);

  std::printf("applying dynamic update 5.1.5 -> 5.1.6 (server stays "
              "up)...\n");
  Updater U(TheVM);
  UpdateResult R = U.applyNow(
      Upt::prepare(App.version(V515), App.version(V516), "v515"));
  std::printf("  %s: pause %.2f ms (classload %.2f, GC %.2f, "
              "transformers %.2f); %d barrier(s), %d safe-point "
              "attempt(s)\n",
              updateStatusName(R.Status), R.TotalPauseMs,
              R.phaseMs(UpdatePhase::ClassLoad), R.phaseMs(UpdatePhase::Gc),
              R.phaseMs(UpdatePhase::Transform), R.ReturnBarriersInstalled,
              R.SafePointAttempts);
  if (R.Status != UpdateStatus::Applied)
    return 1;

  LoadResult After = Driver.measure(20'000);
  std::printf("v5.1.6 under load: %llu responses, %.1f resp/ktick, "
              "median latency %.0f ticks\n",
              static_cast<unsigned long long>(After.Responses),
              After.Throughput, After.LatencyTicks.Median);
  std::printf("requests served across the whole run: %lld (no session "
              "was dropped)\n",
              static_cast<long long>(
                  TheVM.callStatic("Stats", "served", "()I").IntVal));
  return 0;
}
