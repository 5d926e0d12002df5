//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark program: runs one workload in this single-threaded process
/// and prints its metrics, ending with one JSON line.
///
///   perfbench --workload heap_eager|serve_jetty|ring_lazy --seed N
///             --seconds S --trace 0|1 [--trace-out FILE]
///
/// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
/// it carries the per-layer metrics, and the spans go to --trace-out.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

/// Environment switches that silently change an update mode, arm faults or
/// start the telemetry writer thread. The benchmark pins all of these.
const char *const RefusedEnv[] = {"JVOLVE_LAZY",         "JVOLVE_CODEVERSION",
                                  "JVOLVE_TELEMETRY",    "JVOLVE_STATS_WINDOW",
                                  "JVOLVE_TRACE_OUT",    "JVOLVE_INJECT"};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload heap_eager|serve_jetty|ring_lazy "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               Argv0);
  return 2;
}

void printMetrics(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-26s %16.6f %-9s (n=%zu)\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
}

} // namespace

int main(int argc, char **argv) {
  std::string Workload, TraceOut;
  RunOptions Opts;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Workload = Val;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !Val.empty();
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = *End == '\0' && Opts.Seconds > 0;
    } else if (Flag == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      Opts.Trace = Val == "1";
    } else if (Flag == "--trace-out") {
      TraceOut = Val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || Workload.empty() || !HaveSeed || !HaveSeconds ||
      !HaveTrace)
    return usage(argv[0]);
  for (const char *Name : RefusedEnv)
    if (std::getenv(Name)) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; it changes what "
                   "the benchmark measures\n",
                   Name);
      return 2;
    }

  Tracer Tr;
  Outcome Out;
  if (Workload == "heap_eager")
    Out = runHeapEager(Opts, Tr);
  else if (Workload == "serve_jetty")
    Out = runServeJetty(Opts, Tr);
  else if (Workload == "ring_lazy")
    Out = runRingLazy(Opts, Tr);
  else
    return usage(argv[0]);

  if (Opts.Trace && !TraceOut.empty() && !Tr.write(TraceOut))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 TraceOut.c_str());

  bool Correct = Out.Failed == 0 && Out.Deterministic;
  std::printf("workload %s seed %llu trace %d: %llu ops, %llu failed%s\n",
              Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              Opts.Trace ? 1 : 0,
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed),
              Out.Deterministic ? "" : ", counts not repeatable");
  for (const std::string &E : Out.Errors)
    std::printf("  error: %s\n", E.c_str());
  if (!Out.Info.empty())
    printMetrics("workload figures (not gated):", Out.Info);
  const std::vector<Metric> &Reported = Opts.Trace ? Out.PerLayer : Out.EndToEnd;
  printMetrics(Opts.Trace ? "per-layer metrics:" : "end-to-end metrics:",
               Reported);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  for (size_t I = 0; I < Reported.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Reported[I].Name.c_str(), Reported[I].Value,
                Reported[I].Unit.c_str());
  std::printf("}}\n");
  return 0;
}
