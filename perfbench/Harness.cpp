#include "Harness.h"

#include "heap/HeapVerifier.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <cstdio>
#include <fstream>

using namespace jvolve;

namespace perfbench {

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"self_ns\":%lld}\n",
                 I, S.Name, S.Parent, static_cast<long long>(S.StartNs - Base),
                 static_cast<long long>(S.EndNs - Base),
                 static_cast<long long>(S.EndNs - S.StartNs - S.ChildNs));
  }
  return std::fclose(F) == 0;
}

namespace {
/// The reference loops: a pointer chase through one random cycle over the
/// table, mixed with dependent arithmetic and a data-dependent branch. The
/// core table (64 KB) stays in the core's own caches; the memory table
/// (64 MB) does not fit any core's cache.
struct ProbeShape {
  size_t Slots;
  int Steps;
  /// The loop's time at nominal speed: its fast-mode time on a 4-core
  /// 2.1 GHz x86-64 virtual machine shared with other tenants.
  double NominalNs;
};
constexpr ProbeShape Shapes[2] = {{1u << 14, 800'000, 2.6e6},
                                  {1u << 24, 100'000, 13.0e6}};

std::vector<uint32_t> makeCycle(size_t Slots, Rng &R) {
  std::vector<uint32_t> Next(Slots);
  for (size_t I = 0; I < Slots; ++I)
    Next[I] = static_cast<uint32_t>(I);
  // Sattolo's shuffle: one cycle through every slot.
  for (size_t I = Slots - 1; I > 0; --I)
    std::swap(Next[I], Next[R.nextBelow(I)]);
  return Next;
}
} // namespace

SpeedProbe::SpeedProbe() {
  Rng R(0x5eed);
  Small = makeCycle(Shapes[Core].Slots, R);
  Big = makeCycle(Shapes[Memory].Slots, R);
}

double SpeedProbe::sample(Bound B) {
  const std::vector<uint32_t> &Next = B == Core ? Small : Big;
  int64_t Start = nowNs();
  uint32_t P = static_cast<uint32_t>(Sink % Next.size());
  uint64_t Acc = Sink;
  for (int K = 0; K < Shapes[B].Steps; ++K) {
    P = Next[P];
    Acc += (Acc >> 3) ^ P;
    if (Acc & 1)
      Acc += static_cast<uint64_t>(K);
  }
  Sink = Acc;
  return (nowNs() - Start) / Shapes[B].NominalNs;
}

void Outcome::expectSame(const char *Name, double First, double Now) {
  if (First == Now)
    return;
  Deterministic = false;
  if (Errors.size() < 8)
    Errors.push_back(std::string("count ") + Name + " differs between passes: " +
                     std::to_string(First) + " vs " + std::to_string(Now));
}

PassPlan::PassPlan(const RunOptions &Opts, int MinPasses)
    : DeadlineNs(nowNs() + static_cast<int64_t>(Opts.Seconds * 1e9)),
      MinPasses(MinPasses), Trace(Opts.Trace) {}

bool PassPlan::more(int PassesDone) const {
  return PassesDone < MinPasses || nowNs() < DeadlineNs;
}

void probeHeap(VM &TheVM, Tracer &Tr, SpeedProbe &Probe, LayerSamples &L,
               Outcome &Out, const char *Workload) {
  HeapVerifier V(TheVM.heap(), TheVM.registry());
  std::vector<std::string> Problems;
  int64_t VerifyNs = 0;
  double VerifySlow = Probe.around(SpeedProbe::Memory, [&] {
    VerifyNs = Tr.timed("verifier.verify", [&] {
      Problems = V.verify([&](const std::function<void(Ref &)> &Visit) {
        TheVM.visitRoots(Visit);
      });
    });
  });
  if (!Problems.empty())
    Out.fail(std::string(Workload) + ": verifier probe: " + Problems.front());
  CollectionStats G;
  int64_t GcNs = 0;
  double GcSlow = Probe.around(SpeedProbe::Memory, [&] {
    GcNs = Tr.timed("vm.collectGarbage", [&] { G = TheVM.collectGarbage(); });
  });
  double Live = static_cast<double>(std::max<uint64_t>(G.ObjectsCopied, 1));
  L.VerifyMs.push_back(VerifyNs / 1e6 / VerifySlow);
  L.VerifyNsPerObj.push_back(VerifyNs / VerifySlow / Live);
  L.GcMs.push_back(GcNs / 1e6 / GcSlow);
  L.GcNsPerObj.push_back(GcNs / GcSlow / Live);
}

UpdateOptions pinnedOptions(bool Lazy) {
  UpdateOptions O;
  O.TimeoutTicks = 2'000'000;
  O.EnableOsr = true;
  O.UseOldCopySpace = false;
  O.OldCopyReserveLimitBytes = 0;
  O.LazyTransform = Lazy;
  O.LazyDrainBatch = 32;
  O.ImpactBoundedDrain = false;
  O.CertifyAfterUpdate = true;
  O.MaxRetries = 0;
  O.BackoffFactor = 2.0;
  O.EnableRescue = false;
  O.AllowDegraded = false;
  O.DrainNetwork = false;
  O.AnalyzeFirst = false;
  O.CanaryWindow = CanaryPolicy();
  O.CodeVersioning = false;
  return O;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

std::vector<Metric> endToEndMetrics(const EndToEndSamples &S,
                                    const SpeedProbe &Probe) {
  return {{"update_p50_ms", median(S.UpdateMs), "ms", S.UpdateMs.size()},
          {"mips", median(S.Mips), "Minstr/s", S.Mips.size()},
          {"peak_rss_mb", peakRssMb() - Probe.tableBytes() / (1 << 20), "MB",
           1},
          {"setup_s", median(S.SetupS), "s", S.SetupS.size()}};
}

std::vector<Metric> slowdownMetrics(const SpeedProbe &Probe) {
  const std::vector<double> &C = Probe.samples(SpeedProbe::Core);
  const std::vector<double> &M = Probe.samples(SpeedProbe::Memory);
  return {{"speed.core_slowdown", median(C), "x", C.size()},
          {"speed.memory_slowdown", median(M), "x", M.size()}};
}

std::vector<Metric> perLayerMetrics(const LayerSamples &S) {
  auto M = [](const char *Name, const std::vector<double> &V,
              const char *Unit) {
    return Metric{Name, median(V), Unit, V.size()};
  };
  size_t Passes = S.TracedWorkMs.size();
  return {M("verifier.verify_ms", S.VerifyMs, "ms"),
          M("verifier.ns_per_obj", S.VerifyNsPerObj, "ns"),
          M("collector.gc_ms", S.GcMs, "ms"),
          M("collector.ns_per_obj", S.GcNsPerObj, "ns"),
          M("updater.apply_ms", S.ApplyMs, "ms"),
          M("updater.self_ms", S.SelfMs, "ms"),
          M("updater.safepoint_ticks", S.SafePointTicks, "ticks"),
          M("transformers.calls", S.TransformerCalls, "count"),
          M("transformers.callback_ms", S.CallbackMs, "ms"),
          M("lazy.pending_at_commit", S.PendingAtCommit, "count"),
          M("lazy.transformed", S.Transformed, "count"),
          M("lazy.drain_ms", S.DrainMs, "ms"),
          M("vm.run_ms", S.RunMs, "ms"),
          M("vm.ns_per_instr", S.NsPerInstr, "ns"),
          M("vm.instr_per_req", S.InstrPerReq, "count"),
          M("net.inject_us", S.InjectUs, "us"),
          M("net.responses", S.Responses, "count"),
          M("compiler.compilations", S.Compilations, "count"),
          M("upt.prepare_ms", S.PrepareMs, "ms"),
          {"trace.overhead_pct", overheadPct(S.UntracedWorkMs, S.TracedWorkMs),
           "%", Passes}};
}

double overheadPct(const std::vector<double> &UntracedWorkMs,
                   const std::vector<double> &TracedWorkMs) {
  double Base = median(UntracedWorkMs);
  if (Base <= 0 || TracedWorkMs.empty())
    return 0;
  return 100.0 * (median(TracedWorkMs) - Base) / Base;
}

} // namespace perfbench
