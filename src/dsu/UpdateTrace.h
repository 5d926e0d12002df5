//===----------------------------------------------------------------------===//
///
/// \file
/// Update tracing: a structured event log of one update's lifecycle.
///
/// The paper narrates updates in prose ("we installed a return barrier on
/// PoolThread.run(), but this barrier is never triggered…", §4.2); a
/// production DSU VM needs that narrative as data. The updater appends an
/// event per protocol step — schedule, safe-point attempt, frame
/// classification counts, barrier arm/fire, OSR, active-frame remap,
/// install phases, transformation totals, and the final outcome — and one
/// span per pause phase, timed against the single pause clock. The trace
/// rides in UpdateResult for logging, tests, and the pause benches, and it
/// is the one place update records enter the telemetry pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef JVOLVE_DSU_UPDATETRACE_H
#define JVOLVE_DSU_UPDATETRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace jvolve {

/// Kinds of update-lifecycle events.
enum class UpdateEventKind : uint8_t {
  Scheduled,        ///< update signaled to the VM
  Rejected,         ///< failed validation (verification / hierarchy)
  SafePointAttempt, ///< all threads parked; stacks scanned
  BarrierArmed,     ///< return barrier installed on a restricted frame
  BarrierFired,     ///< a barriered frame returned; protocol restarts
  OsrReplaced,      ///< category-(2) frame replaced on-stack
  ActiveRemapped,   ///< changed frame replaced via an ActiveMethodMapping
  ClassesInstalled, ///< rename + load + invalidate finished
  GcCompleted,      ///< DSU collection finished
  Transformed,      ///< class + object transformers finished
  InstallFailed,    ///< a step of the install transaction threw UpdateError
  RolledBack,       ///< snapshot restored; VM serves the old version again
  Certified,        ///< post-update heap + registry certification ran
  RetryScheduled,   ///< safe-point timeout; retrying with a longer deadline
  Applied,          ///< update complete
  TimedOut,         ///< safe point never reached
  WatchdogExpired,  ///< quiescence watchdog fired; threads diagnosed
  Rescued,          ///< rescue rung: forced yields / synthesized remaps
  Degraded,         ///< method-body subset applied; remainder deferred
  DeferredResumed,  ///< a degraded update's full bundle rescheduled
  DrainStarted,     ///< network drain began for the pending update
  DrainEnded,       ///< network drain lifted after the update resolved
  LazyCommitted,    ///< lazy mode: committed with untransformed shells
  CanaryArmed,      ///< post-commit observation window opened
  CanaryBreached,   ///< a health monitor crossed its SLO threshold
  CanaryRetired,    ///< window closed healthy; undo log released
  CanarySettled,    ///< window closed early (stacked update superseded it)
  RevertStarted,    ///< reverse update scheduled through the pipeline
  Reverted,         ///< old versions reinstalled; heap converged
  RevertFailed,     ///< the reverse update could not be applied
  CodeVersionInstalled, ///< body set installed via version chains, no pause
  CodeVersionSwitched,  ///< active-version switch committed (epoch bumped)
  CodeVersionReverted,  ///< chains popped to the prior active versions
};

/// Total number of UpdateEventKind values (for exhaustive round-trip tests).
inline constexpr size_t NumUpdateEventKinds =
    static_cast<size_t>(UpdateEventKind::CodeVersionReverted) + 1;

const char *updateEventKindName(UpdateEventKind K);

/// Phases of the update pause, in pipeline order (the order of
/// metrics::DsuUpdatePhases, which holds their names).
enum class UpdatePhase : uint8_t {
  Snapshot,    ///< registry, heap and root snapshots taken
  ClassLoad,   ///< old versions renamed, new classes loaded, code invalidated
  StackRepair, ///< OSR and active-method remaps
  Gc,          ///< DSU collection
  Transform,   ///< class and object transformers
  Rollback,    ///< snapshots restored after a failed install
  CodeVersion, ///< versioned body-only commit (no safe point, no collection)
  Certify,     ///< post-update heap and registry certification
};

inline constexpr size_t NumUpdatePhases =
    static_cast<size_t>(UpdatePhase::Certify) + 1;

const char *updatePhaseName(UpdatePhase P);

/// One phase of an update pause. Consecutive spans tile the pause: each
/// runs from the previous mark to its own on one clock.
struct PhaseSpan {
  UpdatePhase Phase = UpdatePhase::Snapshot;
  double Ms = 0;        ///< wall-clock duration
  uint64_t Objects = 0; ///< units handled: classes renamed (classload),
                        ///< frames repaired (stack_repair), objects
                        ///< remapped (gc), transformed (transform) or
                        ///< verified (certify), method bodies (codeversion)
  uint64_t Bytes = 0;   ///< heap bytes copied (gc) or walked (certify)
  std::string Detail;
};

/// One trace event.
struct UpdateEvent {
  UpdateEventKind Kind;
  uint64_t Tick = 0;   ///< virtual time of the event
  int64_t Value = 0;   ///< kind-specific count (frames, objects, ...)
  std::string Detail;  ///< kind-specific text (method name, message)

  std::string str() const;
};

/// The whole trace of one update.
class UpdateTrace {
public:
  /// Appends an event. Also forwards it into the streaming telemetry
  /// pipeline (as a "dsu.update.event" point event) while any session is
  /// open: the event lands in the emitting thread's lock-free buffer —
  /// stamped with its per-thread sequence number — and the background
  /// writer streams it to every session, so the JSONL trace carries the
  /// full update narrative alongside phase spans (see
  /// support/TelemetryStream.h for buffering and drop semantics).
  void record(UpdateEventKind Kind, uint64_t Tick, int64_t Value = 0,
              std::string Detail = "") {
    forwardToSink(Kind, Tick, Value, Detail);
    Events.push_back({Kind, Tick, Value, std::move(Detail)});
  }

  /// Appends a pause-phase span. While telemetry is enabled it also
  /// records the span's `dsu.update.phase_ms{phase=...}` histogram sample
  /// and emits it as a "dsu.update.phase" span event (value = Objects).
  void span(PhaseSpan S, uint64_t Tick);

  /// Records the whole pause (the clock the spans tile) once its outcome
  /// is known: the `phase=total` histogram and span, detail \p Outcome.
  static void total(double Ms, uint64_t Tick, const char *Outcome);

  const std::vector<UpdateEvent> &events() const { return Events; }
  const std::vector<PhaseSpan> &spans() const { return Spans; }

  /// Number of events of kind \p K.
  int count(UpdateEventKind K) const {
    int N = 0;
    for (const UpdateEvent &E : Events)
      N += E.Kind == K;
    return N;
  }

  /// Renders the trace: one event per line, then one line per span.
  std::string str() const;

private:
  static void forwardToSink(UpdateEventKind Kind, uint64_t Tick,
                            int64_t Value, const std::string &Detail);

  std::vector<UpdateEvent> Events;
  std::vector<PhaseSpan> Spans;
};

} // namespace jvolve

#endif // JVOLVE_DSU_UPDATETRACE_H
