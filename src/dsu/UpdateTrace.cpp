#include "dsu/UpdateTrace.h"

#include "support/Error.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <iterator>

using namespace jvolve;

static_assert(std::size(metrics::DsuUpdatePhases) == NumUpdatePhases,
              "one name per UpdatePhase");

void UpdateTrace::forwardToSink(UpdateEventKind Kind, uint64_t Tick,
                                int64_t Value, const std::string &Detail) {
  Telemetry &Tel = Telemetry::global();
  if (!Tel.tracing())
    return;
  Tel.emit({"dsu.update.event", updateEventKindName(Kind), Tick, Tick, 0,
            Value, Detail});
}

void UpdateTrace::span(PhaseSpan S, uint64_t Tick) {
  if (Telemetry::isEnabled()) {
    Telemetry &Tel = Telemetry::global();
    const char *Name = updatePhaseName(S.Phase);
    Tel.histogram(metrics::dsuPhaseMs(Name)).record(S.Ms);
    // Virtual time stands still while the world is stopped, so the span's
    // tick interval collapses; Ms carries the wall-clock duration.
    Tel.emit({"dsu.update.phase", Name, Tick, Tick, S.Ms,
              static_cast<int64_t>(S.Objects), S.Detail});
  }
  Spans.push_back(std::move(S));
}

void UpdateTrace::total(double Ms, uint64_t Tick, const char *Outcome) {
  if (!Telemetry::isEnabled())
    return;
  Telemetry &Tel = Telemetry::global();
  Tel.histogram(metrics::DsuTotalPauseMs).record(Ms);
  Tel.emit({"dsu.update.phase", "total", Tick, Tick, Ms, 0, Outcome});
}

const char *jvolve::updatePhaseName(UpdatePhase P) {
  return metrics::DsuUpdatePhases[static_cast<size_t>(P)];
}

const char *jvolve::updateEventKindName(UpdateEventKind K) {
  switch (K) {
  case UpdateEventKind::Scheduled: return "scheduled";
  case UpdateEventKind::Rejected: return "rejected";
  case UpdateEventKind::SafePointAttempt: return "safe-point-attempt";
  case UpdateEventKind::BarrierArmed: return "barrier-armed";
  case UpdateEventKind::BarrierFired: return "barrier-fired";
  case UpdateEventKind::OsrReplaced: return "osr-replaced";
  case UpdateEventKind::ActiveRemapped: return "active-remapped";
  case UpdateEventKind::ClassesInstalled: return "classes-installed";
  case UpdateEventKind::GcCompleted: return "gc-completed";
  case UpdateEventKind::Transformed: return "transformed";
  case UpdateEventKind::InstallFailed: return "install-failed";
  case UpdateEventKind::RolledBack: return "rolled-back";
  case UpdateEventKind::Certified: return "certified";
  case UpdateEventKind::RetryScheduled: return "retry-scheduled";
  case UpdateEventKind::Applied: return "applied";
  case UpdateEventKind::TimedOut: return "timed-out";
  case UpdateEventKind::WatchdogExpired: return "watchdog-expired";
  case UpdateEventKind::Rescued: return "rescued";
  case UpdateEventKind::Degraded: return "degraded";
  case UpdateEventKind::DeferredResumed: return "deferred-resumed";
  case UpdateEventKind::DrainStarted: return "drain-started";
  case UpdateEventKind::DrainEnded: return "drain-ended";
  case UpdateEventKind::LazyCommitted: return "lazy-committed";
  case UpdateEventKind::CanaryArmed: return "canary-armed";
  case UpdateEventKind::CanaryBreached: return "canary-breached";
  case UpdateEventKind::CanaryRetired: return "canary-retired";
  case UpdateEventKind::CanarySettled: return "canary-settled";
  case UpdateEventKind::RevertStarted: return "revert-started";
  case UpdateEventKind::Reverted: return "reverted";
  case UpdateEventKind::RevertFailed: return "revert-failed";
  case UpdateEventKind::CodeVersionInstalled: return "codeversion-installed";
  case UpdateEventKind::CodeVersionSwitched: return "codeversion-switched";
  case UpdateEventKind::CodeVersionReverted: return "codeversion-reverted";
  }
  unreachable("bad update event kind");
}

std::string UpdateEvent::str() const {
  std::string Out =
      "[" + std::to_string(Tick) + "] " + updateEventKindName(Kind);
  if (Value != 0)
    Out += " (" + std::to_string(Value) + ")";
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

std::string UpdateTrace::str() const {
  std::string Out;
  for (const UpdateEvent &E : Events)
    Out += E.str() + '\n';
  for (const PhaseSpan &S : Spans) {
    char Line[96];
    std::snprintf(Line, sizeof(Line), "phase %s: %.3f ms, n=%llu, %llu bytes",
                  updatePhaseName(S.Phase), S.Ms,
                  static_cast<unsigned long long>(S.Objects),
                  static_cast<unsigned long long>(S.Bytes));
    Out += Line + (S.Detail.empty() ? "" : " (" + S.Detail + ")") + '\n';
  }
  return Out;
}
