//===----------------------------------------------------------------------===//
///
/// \file
/// serve_jetty: the Jetty model runs the 5.1.3 -> 5.1.10 chain, seven
/// releases that all apply. Each pass boots a fresh VM at 5.1.3. Before
/// every update and after the last one it serves a fixed open-loop load in
/// virtual time: one connection of five requests every 290 ticks, with
/// seeded inter-arrival jitter (the Fig. 5 setting). Idle virtual time is
/// fast-forwarded, so wall time counts only service work, and only the
/// calls into VM::run and VM::injectConnection are timed.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "apps/JettyApp.h"
#include "dsu/Upt.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <algorithm>
#include <map>
#include <string>

using namespace jvolve;

namespace perfbench {

void ResponseChecker::expect(int Conn, const std::vector<int64_t> &Requests,
                             int64_t Salt, int64_t AltSalt) {
  Conns[Conn] = {Requests, 0, Salt, AltSalt};
  Outstanding += Requests.size();
}

void ResponseChecker::onResponse(int Conn, int64_t Value, Outcome &Out) {
  auto It = Conns.find(Conn);
  if (It == Conns.end() || It->second.Next == It->second.Requests.size()) {
    Out.fail("serve_jetty: unexpected response " + std::to_string(Value) +
             " on connection " + std::to_string(Conn));
    return;
  }
  Expected &E = It->second;
  int64_t Req = E.Requests[E.Next++];
  --Outstanding;
  if (Value != 2 * Req + E.Salt && Value != 2 * Req + E.AltSalt)
    Out.fail("serve_jetty: connection " + std::to_string(Conn) +
             " answered " + std::to_string(Req) + " with " +
             std::to_string(Value) + ", expected " +
             std::to_string(2 * Req + E.Salt));
  if (E.Next == E.Requests.size())
    Conns.erase(It);
}

void ResponseChecker::finish(Outcome &Out) {
  for (auto &[Conn, E] : Conns)
    for (size_t I = E.Next; I < E.Requests.size(); ++I)
      Out.fail("serve_jetty: request " + std::to_string(E.Requests[I]) +
               " on connection " + std::to_string(Conn) + " never answered");
  Conns.clear();
  Outstanding = 0;
}

int64_t responseSalt(const ClassSet &Program) {
  const MethodDef *Make =
      Program.find("HttpResponse")->findMethod("make", "(I)I");
  int64_t Salt = 0;
  for (const Instr &I : Make->Code)
    if (I.Op == Opcode::IConst)
      Salt = I.IVal; // the constant added last
  return Salt;
}

namespace {

constexpr size_t FirstVersion = 3; // 5.1.3
constexpr size_t LastVersion = 10; // 5.1.10
/// Open-loop batches (one connection of five requests every 290 ticks)
/// served before each update and after the last one.
constexpr int BatchesPerSegment = 2000;
constexpr uint64_t BatchTicks = 290;
constexpr int RequestsPerConn = 5;

/// One pass's serving state and its timed totals. Times are scaled to the
/// speed probe's nominal machine speed.
class Server {
public:
  Server(VM &TheVM, Tracer &Tr, SpeedProbe &Probe, Rng &Inputs, Outcome &Out)
      : TheVM(TheVM), Tr(Tr), Probe(Probe), Inputs(Inputs), Out(Out) {}

  /// Opens one seeded connection answered with \p Salt (or \p AltSalt).
  /// \returns the raw wall time of the VM::injectConnection call.
  int64_t inject(int64_t Salt, int64_t AltSalt) {
    std::vector<int64_t> Reqs;
    for (int I = 0; I < RequestsPerConn; ++I)
      Reqs.push_back(1 + static_cast<int64_t>(Inputs.nextBelow(1'000'000)));
    uint64_t Gap = 30 + Inputs.nextBelow(11);
    int Conn = -1;
    int64_t Ns = Tr.timedInline(
        [&] { Conn = TheVM.injectConnection(JettyPort, Reqs, Gap); });
    Checker.expect(Conn, Reqs, Salt, AltSalt);
    Out.Attempted += RequestsPerConn;
    return Ns;
  }

  /// Serves \p Batches batches at the current version's \p Salt, then runs
  /// until every request is answered. \returns the window's instructions
  /// per microsecond of VM::run (MIPS) and adds its responses per second.
  double segment(int Batches, int64_t Salt, std::vector<double> *ReqPerS) {
    int64_t RawRunNs = 0, RawInjectNs = 0;
    uint64_t Instrs = TheVM.stats().InstructionsExecuted;
    uint64_t Resps = TheVM.net().totalResponses();
    double Slow = Probe.around(SpeedProbe::Core, [&] {
      Tr.timed("serve.segment", [&] {
        for (int B = 0; B < Batches || Checker.outstanding(); ++B) {
          if (B < Batches)
            RawInjectNs += inject(Salt, Salt);
          else if (B > Batches + 1000)
            break; // the checker reports whatever is still unanswered
          uint64_t BatchEnd = TheVM.scheduler().ticks() + BatchTicks;
          RawRunNs += Tr.timedInline([&] { TheVM.run(BatchTicks); });
          TheVM.fastForwardTo(BatchEnd);
          collect();
        }
      });
    });
    double Ns = RawRunNs / Slow;
    Instrs = TheVM.stats().InstructionsExecuted - Instrs;
    Resps = TheVM.net().totalResponses() - Resps;
    RunNs += Ns;
    InjectNs += RawInjectNs / Slow;
    Injects += Batches;
    RunInstrs += Instrs;
    RunResponses += Resps;
    if (ReqPerS)
      ReqPerS->push_back(Resps * 1e9 / Ns);
    return Instrs * 1e3 / Ns;
  }

  void collect() {
    for (const NetResponse &R : TheVM.net().drainResponses())
      Checker.onResponse(R.Conn, R.Value, Out);
    TheVM.net().drainLatencies();
  }

  void finish() { Checker.finish(Out); }

  /// Forgets the timed totals (the checker keeps its state).
  void resetTotals() {
    RunNs = InjectNs = 0;
    RunInstrs = RunResponses = Injects = 0;
  }

  double RunNs = 0, InjectNs = 0;
  uint64_t RunInstrs = 0, RunResponses = 0, Injects = 0;

private:
  VM &TheVM;
  Tracer &Tr;
  SpeedProbe &Probe;
  Rng &Inputs;
  Outcome &Out;
  ResponseChecker Checker;
};

/// Whether percentile \p P of the pooled update times falls inside one
/// mode. Releases whose median times lie within 1.5x of each other form a
/// mode; \p P must sit more than 2% of the samples away from the edges of
/// its mode's share of the pooled samples.
bool insideOneMode(const std::map<int, std::vector<double>> &ByRelease,
                   double P) {
  std::vector<std::pair<double, size_t>> Medians; // (median, samples)
  size_t Total = 0;
  for (const auto &Entry : ByRelease) {
    Medians.push_back({median(Entry.second), Entry.second.size()});
    Total += Entry.second.size();
  }
  std::sort(Medians.begin(), Medians.end());
  double Lo = 0, Share = 0;
  for (size_t I = 0; I < Medians.size(); ++I) {
    Share += static_cast<double>(Medians[I].second) / Total;
    bool ModeEnds = I + 1 == Medians.size() ||
                    Medians[I + 1].first > 1.5 * Medians[I].first;
    if (!ModeEnds)
      continue;
    if (P / 100 < Share)
      return P / 100 > Lo + 0.02 && P / 100 < Share - 0.02;
    Lo = Share;
  }
  return false;
}

} // namespace

Outcome runServeJetty(const RunOptions &Opts, Tracer &Tr) {
  Outcome Out;
  EndToEndSamples E;
  LayerSamples L;
  SpeedProbe Probe;
  std::vector<double> ReqPerS;
  std::map<int, std::vector<double>> ByRelease; // update ms by release
  const UpdateOptions UOpts = pinnedOptions(/*Lazy=*/false);
  PassPlan Plan(Opts, 3);
  double FirstResponses = -1, FirstInstrs = -1, FirstCompiles = -1;

  for (int Pass = 0; Plan.more(Pass); ++Pass) {
    bool Traced = Plan.traced(Pass);
    Tr.setEnabled(Traced);
    // Every pass serves the same seeded inputs, so its counts repeat.
    Rng Inputs(Opts.Seed * 0x9e3779b97f4a7c15ULL + 29);

    // --- Set-up: generate the app model, prepare the chain, boot 5.1.3 and
    // warm the interpreter and compiler with one unmeasured segment.
    std::unique_ptr<AppModel> App;
    std::vector<int64_t> Salts(LastVersion + 1, 0);
    std::vector<UpdateBundle> Bundles;
    std::vector<double> PrepMs;
    std::unique_ptr<VM> TheVM;
    std::unique_ptr<Updater> Upd;
    std::unique_ptr<Server> Srv;
    int64_t SetupNs = 0;
    double SetupSlow = Probe.around(SpeedProbe::Core, [&] {
      int64_t Start = nowNs();
      App = std::make_unique<AppModel>(makeJettyApp());
      for (size_t V = FirstVersion; V <= LastVersion; ++V)
        Salts[V] = responseSalt(App->version(V));
      for (size_t V = FirstVersion; V < LastVersion; ++V)
        PrepMs.push_back(Tr.timed("upt.prepare", [&] {
                           Bundles.push_back(Upt::prepare(
                               App->version(V), App->version(V + 1),
                               "j" + std::to_string(V)));
                         }) / 1e6);
      VM::Config VCfg;
      VCfg.HeapSpaceBytes = 16u << 20;
      TheVM = std::make_unique<VM>(VCfg);
      TheVM->loadProgram(App->version(FirstVersion));
      startJettyThreads(*TheVM);
      Upd = std::make_unique<Updater>(*TheVM);
      SetupNs = nowNs() - Start;
    });
    // The warm-up segment is set-up too; it brackets itself with probes.
    Srv = std::make_unique<Server>(*TheVM, Tr, Probe, Inputs, Out);
    Srv->segment(BatchesPerSegment / 2, Salts[FirstVersion], nullptr);
    double SetupS = SetupNs / 1e9 / SetupSlow + Srv->RunNs / 1e9;
    Srv->resetTotals();

    // --- Measured: a segment before every update and after the last one.
    double ApplyMsSum = 0;
    uint64_t CompilesBefore = TheVM->compiler().compilationsPerformed();
    for (size_t V = FirstVersion; V <= LastVersion; ++V) {
      double Mips = Srv->segment(BatchesPerSegment, Salts[V],
                                 Traced ? nullptr : &ReqPerS);
      if (!Traced)
        E.Mips.push_back(Mips);
      if (V == LastVersion)
        break;
      // A connection in flight across the update may see either version.
      Srv->inject(Salts[V + 1], Salts[V]);
      ++Out.Attempted;
      UpdateResult R;
      size_t SpanIndex = Tr.spans().size();
      double ApplyMs = 0;
      double Slow = Probe.around(SpeedProbe::Core, [&] {
        ApplyMs = Tr.timed("updater.applyNow", [&] {
                    R = Upd->applyNow(std::move(Bundles[V - FirstVersion]),
                                      UOpts);
                  }) / 1e6;
      });
      ApplyMs /= Slow;
      Srv->collect();
      ApplyMsSum += ApplyMs;
      if (R.Status != UpdateStatus::Applied || !R.Certified) {
        Out.fail("serve_jetty: update to " + App->versionName(V + 1) + " " +
                 updateStatusName(R.Status) + ": " + R.Message);
        continue;
      }
      if (!Traced) {
        E.UpdateMs.push_back(ApplyMs);
        ByRelease[static_cast<int>(V + 1)].push_back(ApplyMs);
        continue;
      }
      const Tracer::Span &S = Tr.spans()[SpanIndex];
      L.ApplyMs.push_back(ApplyMs);
      L.SelfMs.push_back((S.EndNs - S.StartNs - S.ChildNs) / 1e6 / Slow);
      L.SafePointTicks.push_back(static_cast<double>(R.TicksToSafePoint));
      probeHeap(*TheVM, Tr, Probe, L, Out, "serve_jetty");
    }
    Srv->finish();

    double Compiles = static_cast<double>(
        TheVM->compiler().compilationsPerformed() - CompilesBefore);
    double Responses = static_cast<double>(Srv->RunResponses);
    double InstrPerReq = Srv->RunInstrs / std::max(Responses, 1.0);
    if (FirstResponses < 0) {
      FirstResponses = Responses;
      FirstInstrs = InstrPerReq;
      FirstCompiles = Compiles;
    }
    Out.expectSame("net.responses", FirstResponses, Responses);
    Out.expectSame("vm.instr_per_req", FirstInstrs, InstrPerReq);
    Out.expectSame("compiler.compilations", FirstCompiles, Compiles);

    double WorkMs = (Srv->RunNs + Srv->InjectNs) / 1e6 + ApplyMsSum;
    if (Traced) {
      L.TracedWorkMs.push_back(WorkMs);
      for (double Ms : PrepMs)
        L.PrepareMs.push_back(Ms / SetupSlow);
      L.RunMs.push_back(Srv->RunNs / 1e6);
      L.NsPerInstr.push_back(Srv->RunNs /
                             std::max<double>(Srv->RunInstrs, 1));
      L.InstrPerReq.push_back(InstrPerReq);
      L.InjectUs.push_back(Srv->InjectNs / 1e3 /
                           std::max<double>(Srv->Injects, 1));
      L.Responses.push_back(Responses);
      L.Compilations.push_back(Compiles / (LastVersion - FirstVersion));
    } else {
      L.UntracedWorkMs.push_back(WorkMs);
      E.SetupS.push_back(SetupS);
    }
  }
  Out.EndToEnd = endToEndMetrics(E, Probe);
  Out.PerLayer = perLayerMetrics(L);
  Out.Info = {{"req_per_s", median(ReqPerS), "1/s", ReqPerS.size()},
              {"update_p90_ms", percentile(E.UpdateMs, 90), "ms",
               E.UpdateMs.size()},
              slowdownMetrics(Probe)[0], slowdownMetrics(Probe)[1]};
  std::printf("update p50 by release (ms):");
  for (const auto &[Release, Ms] : ByRelease)
    std::printf(" 5.1.%d %.3f", Release, median(Ms));
  std::printf("\n");
  for (double P : {50.0, 90.0})
    if (!insideOneMode(ByRelease, P))
      std::printf("note: update p%.0f falls at the edge of a mode\n", P);
  return Out;
}

} // namespace perfbench
