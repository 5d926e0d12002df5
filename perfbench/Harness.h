//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery of the repository benchmark: the span tracer that times
/// calls into the program's public functions, the pinned update options,
/// metric records, and the run outcome every workload returns.
///
/// The benchmark measures each layer from outside. It times only calls into
/// public functions (Updater::applyNow, VM::run, VM::injectConnection,
/// VM::collectGarbage, HeapVerifier::verify, Upt::prepare) and reads public
/// counters. With tracing off those timings are the end-to-end numbers; with
/// tracing on each call also leaves a span (name, start, end, parent) in
/// memory, written out when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_PERFBENCH_HARNESS_H
#define JVOLVE_PERFBENCH_HARNESS_H

#include "dsu/Updater.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans around calls into the program. Disabled, timed() costs two clock
/// reads; enabled, it also records a span whose parent is the innermost
/// open span. Time measured inside a span by other means (the transformer
/// callbacks) is charged to it through addChildNs, so a span's self time
/// is its duration minus the time its children cover.
class Tracer {
public:
  struct Span {
    const char *Name;
    int32_t Parent;
    int64_t StartNs;
    int64_t EndNs;
    int64_t ChildNs;
  };

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Runs \p Fn and returns its wall time in nanoseconds.
  template <class Fn> int64_t timed(const char *Name, Fn &&F) {
    if (!Enabled) {
      int64_t Start = nowNs();
      F();
      return nowNs() - Start;
    }
    int32_t Index = static_cast<int32_t>(Spans.size());
    Spans.push_back({Name, Open, nowNs(), 0, 0});
    Open = Index;
    F();
    Span &S = Spans[Index];
    S.EndNs = nowNs();
    Open = S.Parent;
    int64_t Ns = S.EndNs - S.StartNs;
    if (S.Parent >= 0)
      Spans[S.Parent].ChildNs += Ns;
    return Ns;
  }

  /// Runs \p Fn and returns its wall time in nanoseconds, charged to the
  /// innermost open span as child time but recorded as no span of its own.
  /// For calls made thousands of times per second, whose spans would
  /// swamp memory; the enclosing span then counts them.
  template <class Fn> int64_t timedInline(Fn &&F) {
    int64_t Start = nowNs();
    F();
    int64_t Ns = nowNs() - Start;
    addChildNs(Ns);
    return Ns;
  }

  /// Charges \p Ns of child work to the innermost open span.
  void addChildNs(int64_t Ns) {
    if (Enabled && Open >= 0)
      Spans[Open].ChildNs += Ns;
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as one JSON line. \returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int32_t Open = -1;
  bool Enabled = false;
};

/// Machine-speed probe. The machines this benchmark runs on change speed by
/// up to 2x for seconds at a time as other tenants come and go. Each
/// measured region is therefore bracketed by runs of a fixed reference loop
/// (benchmark code, never the program's), and its time is divided by the
/// mean slowdown the two runs show: the reported numbers are what the
/// region would take at the loop's nominal speed. Two loops track the two
/// kinds of slowdown: a pointer chase inside the core's own caches for
/// interpreter-bound regions, and one through a table larger than any
/// core's cache for regions that walk a large heap.
class SpeedProbe {
public:
  enum Bound { Core, Memory };

  SpeedProbe();

  /// Runs the reference loop for \p B once. \returns its time over its
  /// nominal time (1.25: the machine now runs 25% slower than nominal).
  double sample(Bound B);

  /// Runs \p Fn between two runs of the reference loop for \p B.
  /// \returns the mean slowdown the two runs show.
  template <class Fn> double around(Bound B, Fn &&F) {
    double Before = sample(B);
    F();
    double After = sample(B);
    Seen[B].push_back(After);
    return (Before + After) / 2;
  }

  /// The sample taken after each region so far.
  const std::vector<double> &samples(Bound B) const { return Seen[B]; }

  /// Resident bytes of the reference tables.
  double tableBytes() const {
    return static_cast<double>((Small.size() + Big.size()) * sizeof(uint32_t));
  }

private:
  std::vector<uint32_t> Small, Big;
  std::vector<double> Seen[2];
  uint64_t Sink = 0;
};

/// One reported number. Samples is the count the value was computed from.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  size_t Samples = 0;
};

/// What a workload run returns to main().
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Cleared when a count that must repeat exactly differs between passes.
  bool Deterministic = true;
  /// The first few failure descriptions, for the report.
  std::vector<std::string> Errors;
  /// End-to-end metrics (untraced passes) and per-layer metrics (traced
  /// passes); Info holds workload-specific end-to-end figures that are
  /// printed but not gated.
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  std::vector<Metric> Info;

  void fail(std::string What) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(std::move(What));
  }
  /// Records a count that must be identical in every pass.
  void expectSame(const char *Name, double First, double Now);
};

/// Samples behind the end-to-end metrics, taken in untraced passes.
struct EndToEndSamples {
  std::vector<double> SetupS;   ///< one per pass: all its set-up phases
  std::vector<double> UpdateMs; ///< one per measured Updater::applyNow
  std::vector<double> Mips;     ///< one per steady VM::run window
};

/// Samples behind the per-layer metrics, taken in traced passes. A layer
/// that does no work on a workload keeps its samples empty and reports 0.
struct LayerSamples {
  std::vector<double> VerifyMs, VerifyNsPerObj;    ///< heap/HeapVerifier
  std::vector<double> GcMs, GcNsPerObj;            ///< heap/Collector
  std::vector<double> ApplyMs, SelfMs;             ///< dsu/Updater
  std::vector<double> SafePointTicks;              ///< dsu/Updater
  std::vector<double> TransformerCalls, CallbackMs; ///< dsu/Transformers
  std::vector<double> PendingAtCommit, Transformed, DrainMs; ///< dsu/LazyTransform
  std::vector<double> RunMs, NsPerInstr, InstrPerReq; ///< vm/VM
  std::vector<double> InjectUs, Responses;         ///< vm/Network
  std::vector<double> Compilations;                ///< exec/Compiler
  std::vector<double> PrepareMs;                   ///< dsu/Upt
  /// Per-pass time inside the end-to-end calls, for the tracing overhead.
  std::vector<double> UntracedWorkMs, TracedWorkMs;
};

/// The end-to-end metrics, in BENCHMARK.json order. peak_rss_mb leaves
/// out the speed probe's own tables.
std::vector<Metric> endToEndMetrics(const EndToEndSamples &S,
                                    const SpeedProbe &Probe);
/// The medians of both probes' slowdowns, for the report.
std::vector<Metric> slowdownMetrics(const SpeedProbe &Probe);
/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> perLayerMetrics(const LayerSamples &S);

/// Traced passes only: times a standalone HeapVerifier::verify and a full
/// VM::collectGarbage of the current heap, scaled by the memory probe, and
/// records them per live object. A verifier complaint is a failed op of
/// \p Workload.
void probeHeap(jvolve::VM &TheVM, Tracer &Tr, SpeedProbe &Probe,
               LayerSamples &L, Outcome &Out, const char *Workload);

/// Options every workload receives.
struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// Decides pass by pass whether a run goes on and whether the pass is
/// traced. A traced run alternates untraced and traced passes so that it
/// can compare the two (the tracing overhead); \p MinPasses >= 2 gives it
/// at least one of each.
class PassPlan {
public:
  PassPlan(const RunOptions &Opts, int MinPasses);
  bool more(int PassesDone) const;
  bool traced(int Pass) const { return Trace && Pass % 2 == 1; }

private:
  int64_t DeadlineNs;
  int MinPasses;
  bool Trace;
};

/// Every UpdateOptions field the workloads rely on, set explicitly so that
/// changing a library default cannot pass as a gain.
jvolve::UpdateOptions pinnedOptions(bool Lazy);

/// \returns the process's peak resident set (VmHWM) in MB.
double peakRssMb();

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Tracing cost: traced minus untraced per-pass work, as a percentage.
double overheadPct(const std::vector<double> &UntracedWorkMs,
                   const std::vector<double> &TracedWorkMs);

} // namespace perfbench

#endif // JVOLVE_PERFBENCH_HARNESS_H
