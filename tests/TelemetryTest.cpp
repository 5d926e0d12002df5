//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the VM-wide telemetry layer: counter/gauge/histogram
/// semantics, snapshot determinism, the disabled-mode guarantee, and the
/// JSONL trace sink.
///
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"
#include "support/TelemetryStream.h"

#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <thread>

using namespace jvolve;

namespace {

/// Every test runs against the process-global registry, so each one
/// starts from zeroed instruments and leaves telemetry disabled (the
/// process default) for whatever test binary runs next.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Telemetry::global().reset();
    Telemetry::global().setEnabled(true);
  }
  void TearDown() override {
    Telemetry::global().closeTrace();
    Telemetry::global().setEnabled(false);
    Telemetry::global().reset();
  }
};

TEST_F(TelemetryTest, CounterAccumulates) {
  TelCounter &C = Telemetry::global().counter("test.counter");
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST_F(TelemetryTest, GaugeLastValueWinsAndDeltas) {
  TelGauge &G = Telemetry::global().gauge("test.gauge");
  G.set(7);
  EXPECT_EQ(G.value(), 7);
  G.set(-3);
  EXPECT_EQ(G.value(), -3);
  G.add(10);
  EXPECT_EQ(G.value(), 7);
}

TEST_F(TelemetryTest, HandleIdentityIsStable) {
  TelCounter &A = Telemetry::global().counter("test.same");
  TelCounter &B = Telemetry::global().counter("test.same");
  EXPECT_EQ(&A, &B);
}

TEST_F(TelemetryTest, HistogramStatsAndBuckets) {
  TelHistogram &H =
      Telemetry::global().histogram("test.hist", {1.0, 10.0, 100.0});
  EXPECT_EQ(H.numBuckets(), 4u); // 3 bounds + overflow
  for (double V : {0.5, 5.0, 50.0, 500.0, 5.0})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_DOUBLE_EQ(H.sum(), 560.5);
  EXPECT_DOUBLE_EQ(H.min(), 0.5);
  EXPECT_DOUBLE_EQ(H.max(), 500.0);
  EXPECT_DOUBLE_EQ(H.mean(), 112.1);
  EXPECT_EQ(H.bucketCount(0), 1u); // <= 1
  EXPECT_EQ(H.bucketCount(1), 2u); // <= 10
  EXPECT_EQ(H.bucketCount(2), 1u); // <= 100
  EXPECT_EQ(H.bucketCount(3), 1u); // overflow
  EXPECT_DOUBLE_EQ(H.percentile(0), 0.5);
  EXPECT_DOUBLE_EQ(H.percentile(100), 500.0);
  EXPECT_DOUBLE_EQ(H.percentile(50), 5.0);
}

TEST_F(TelemetryTest, HistogramBoundaryValueGoesToUpperBucket) {
  // Bucket i covers [bound_{i-1}, bound_i): a value exactly on a bound
  // belongs to the bucket that starts there.
  TelHistogram &H = Telemetry::global().histogram("test.bound", {1.0, 10.0});
  H.record(0.99);
  H.record(1.0);
  H.record(10.0);
  EXPECT_EQ(H.bucketCount(0), 1u); // < 1
  EXPECT_EQ(H.bucketCount(1), 1u); // [1, 10)
  EXPECT_EQ(H.bucketCount(2), 1u); // >= 10
}

TEST_F(TelemetryTest, HistogramRecordNeverAllocates) {
  TelHistogram &H = Telemetry::global().histogram("test.ring", {1.0});
  size_t Cap = H.sampleCapacity();
  ASSERT_GT(Cap, 0u);
  // Overfill the reservoir: retained count saturates at the preallocated
  // capacity while count() keeps rising — record() wrote into the ring
  // rather than growing anything.
  for (size_t I = 0; I < Cap + 100; ++I)
    H.record(static_cast<double>(I));
  EXPECT_EQ(H.count(), Cap + 100);
  EXPECT_EQ(H.samplesRetained(), Cap);
  EXPECT_EQ(H.sampleCapacity(), Cap);
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing) {
  TelCounter &C = Telemetry::global().counter("test.disabled.counter");
  TelGauge &G = Telemetry::global().gauge("test.disabled.gauge");
  TelHistogram &H = Telemetry::global().histogram("test.disabled.hist");
  Telemetry::global().setEnabled(false);
  C.add(5);
  G.set(5);
  H.record(5);
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.samplesRetained(), 0u);
}

TEST_F(TelemetryTest, ResetZeroesValuesButKeepsRegistrations) {
  Telemetry &Tel = Telemetry::global();
  Tel.counter("test.reset.c").add(3);
  Tel.histogram("test.reset.h").record(1.5);
  Tel.reset();
  ASSERT_NE(Tel.findCounter("test.reset.c"), nullptr);
  ASSERT_NE(Tel.findHistogram("test.reset.h"), nullptr);
  EXPECT_EQ(Tel.findCounter("test.reset.c")->value(), 0u);
  EXPECT_EQ(Tel.findHistogram("test.reset.h")->count(), 0u);
}

TEST_F(TelemetryTest, SnapshotIsDeterministic) {
  Telemetry &Tel = Telemetry::global();
  // Register in non-sorted order; snapshots must still agree byte-for-byte.
  Tel.counter("test.z").add(1);
  Tel.counter("test.a").add(2);
  Tel.gauge("test.m").set(-4);
  Tel.histogram("test.h").record(2.5);
  std::string A = Tel.snapshot().json();
  std::string B = Tel.snapshot().json();
  EXPECT_EQ(A, B);

  Telemetry::Snapshot S = Tel.snapshot();
  ASSERT_GE(S.Metrics.size(), 4u);
  for (size_t I = 1; I < S.Metrics.size(); ++I)
    EXPECT_LT(S.Metrics[I - 1].Name, S.Metrics[I].Name);
  const Telemetry::MetricSnapshot *M = S.find("test.m");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Value, -4);
  EXPECT_EQ(S.find("test.no-such-metric"), nullptr);
}

TEST_F(TelemetryTest, SnapshotTableRendersEveryMetric) {
  Telemetry &Tel = Telemetry::global();
  Tel.counter("test.table.c").add(9);
  Tel.histogram("test.table.h").record(3.0);
  std::string Table = Tel.snapshot().table();
  EXPECT_NE(Table.find("test.table.c"), std::string::npos);
  EXPECT_NE(Table.find("test.table.h"), std::string::npos);
}

TEST_F(TelemetryTest, TraceEventJsonRoundTrip) {
  TraceEvent E;
  E.Name = "dsu.update.phase";
  E.Phase = "gc";
  E.StartTick = 12345;
  E.EndTick = 12345;
  E.Ms = 1.25;
  E.Value = -7;
  E.Detail = "quotes \" backslash \\ newline \n tab \t done";
  TraceEvent Back;
  ASSERT_TRUE(TraceEvent::parseLine(E.jsonLine(), Back));
  EXPECT_EQ(Back.Name, E.Name);
  EXPECT_EQ(Back.Phase, E.Phase);
  EXPECT_EQ(Back.StartTick, E.StartTick);
  EXPECT_EQ(Back.EndTick, E.EndTick);
  EXPECT_DOUBLE_EQ(Back.Ms, E.Ms);
  EXPECT_EQ(Back.Value, E.Value);
  EXPECT_EQ(Back.Detail, E.Detail);
}

TEST_F(TelemetryTest, ParseLineRejectsMalformedInput) {
  TraceEvent Out;
  EXPECT_FALSE(TraceEvent::parseLine("", Out));
  EXPECT_FALSE(TraceEvent::parseLine("not json", Out));
  EXPECT_FALSE(TraceEvent::parseLine("{\"name\":\"x\"}", Out));
}

TEST_F(TelemetryTest, TraceSinkWritesCompleteFile) {
  std::string Path = ::testing::TempDir() + "telemetry_sink_test.jsonl";
  {
    // A buffer far smaller than the event count forces mid-stream flushes;
    // the file must still hold every event in order.
    TraceSink Sink(Path, 4);
    ASSERT_TRUE(Sink.ok());
    for (int I = 0; I < 10; ++I) {
      TraceEvent E;
      E.Name = "test.event";
      E.Phase = "p" + std::to_string(I);
      E.Value = I;
      Sink.emit(std::move(E));
    }
    EXPECT_EQ(Sink.eventsEmitted(), 10u);
  } // destructor flushes the tail

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  int N = 0;
  while (std::getline(In, Line)) {
    TraceEvent E;
    ASSERT_TRUE(TraceEvent::parseLine(Line, E)) << Line;
    EXPECT_EQ(E.Value, N);
    ++N;
  }
  EXPECT_EQ(N, 10);
  std::remove(Path.c_str());
}

TEST_F(TelemetryTest, OpenTraceEnablesTelemetryAndEmits) {
  Telemetry &Tel = Telemetry::global();
  Tel.setEnabled(false);
  std::string Path = ::testing::TempDir() + "telemetry_open_test.jsonl";
  ASSERT_TRUE(Tel.openTrace(Path));
  EXPECT_TRUE(Telemetry::isEnabled());
  EXPECT_TRUE(Tel.tracing());
  TraceEvent E;
  E.Name = "test.open";
  Tel.emit(std::move(E));
  Tel.closeTrace();
  EXPECT_FALSE(Tel.tracing());

  std::ifstream In(Path);
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  TraceEvent Back;
  ASSERT_TRUE(TraceEvent::parseLine(Line, Back));
  EXPECT_EQ(Back.Name, "test.open");
  std::remove(Path.c_str());
}

TEST_F(TelemetryTest, EnabledFlagFlipsWhileWriterPublishes) {
  // The streamer's writer thread reads the enabled flag on every pass (its
  // gauge publishes go through the record-path check) while the VM thread
  // flips the flag without taking the streamer's lock. Under
  // ThreadSanitizer that is a reported race unless the flag is atomic.
  Telemetry &Tel = Telemetry::global();
  std::string Path = ::testing::TempDir() + "telemetry_flip_test.jsonl";
  ASSERT_TRUE(Tel.openTrace(Path));
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  while (std::chrono::steady_clock::now() < Deadline) {
    Tel.setEnabled(false);
    Tel.setEnabled(true);
    std::this_thread::yield();
  }
  EXPECT_TRUE(Telemetry::isEnabled());
  Tel.closeTrace();
  std::remove(Path.c_str());
}

TEST_F(TelemetryTest, DsuMetricNameBuilders) {
  EXPECT_EQ(metrics::dsuPhaseMs("gc"), "dsu.update.phase_ms{phase=gc}");
  EXPECT_EQ(std::string(metrics::DsuTotalPauseMs), metrics::dsuPhaseMs("total"));
  EXPECT_EQ(metrics::faultFired("class-load"),
            "dsu.faults.fired{site=class-load}");
}

//===----------------------------------------------------------------------===//
// Streaming pipeline (support/TelemetryStream.h)
//===----------------------------------------------------------------------===//

TEST_F(TelemetryTest, TraceSinkCountsUnwritableEventsAsDropped) {
  // A sink that never opened its file discards events — but the loss is
  // ledgered, never silent.
  TraceSink Sink("/nonexistent-dir-for-telemetry-test/out.jsonl");
  EXPECT_FALSE(Sink.ok());
  TraceEvent E;
  E.Name = "test.lost";
  Sink.emit(std::move(E));
  EXPECT_EQ(Sink.eventsEmitted(), 0u);
  EXPECT_EQ(Sink.eventsDropped(), 1u);
}

TEST_F(TelemetryTest, ThreadBufferConsumesSeqOnDrop) {
  ThreadEventBuffer Buf(7, "seq-test", 4);
  for (int I = 0; I < 10; ++I) {
    TraceEvent E;
    E.Name = "test.seq";
    E.Value = I;
    Buf.tryWrite(std::move(E));
  }
  // Capacity 4: six writes found the ring full. Every attempt consumed a
  // sequence number, so the drained events expose the loss as a seq gap.
  EXPECT_EQ(Buf.attempted(), 10u);
  EXPECT_EQ(Buf.dropped(), 6u);
  std::vector<TraceEvent> Out;
  EXPECT_EQ(Buf.drainInto(Out, static_cast<size_t>(-1)), 4u);
  ASSERT_EQ(Out.size(), 4u);
  for (size_t I = 0; I < Out.size(); ++I) {
    EXPECT_EQ(Out[I].Tid, 7u);
    EXPECT_EQ(Out[I].Seq, I + 1);
  }
  EXPECT_TRUE(Buf.empty());
}

TEST_F(TelemetryTest, StreamSessionFiltersByPrefix) {
  Telemetry &Tel = Telemetry::global();
  TelemetrySessionConfig Cfg;
  Cfg.Name = "filter-test";
  Cfg.Prefixes = {"keepme."};
  auto S = Tel.streamer().openSession(Cfg);
  ASSERT_TRUE(S);
  TraceEvent Keep;
  Keep.Name = "keepme.event";
  Tel.emit(std::move(Keep));
  TraceEvent Drop;
  Drop.Name = "dropme.event";
  Tel.emit(std::move(Drop));
  Tel.streamer().flushAll();
  std::vector<TraceEvent> Got = S->drainBuffered();
  ASSERT_EQ(Got.size(), 1u);
  EXPECT_EQ(Got[0].Name, "keepme.event");
  EXPECT_GE(S->eventsFiltered(), 1u);
  Tel.streamer().closeSession(S);
}

TEST_F(TelemetryTest, NativeThreadStressExactDropAccounting) {
  // N OS threads hammer deliberately tiny buffers; most events drop. The
  // pipeline's contract: per-thread sequence numbers stay strictly
  // increasing across what survives, every loss surfaces as a gap record,
  // and the global ledger balances to the event.
  Telemetry &Tel = Telemetry::global();
  TelemetryStreamer &St = Tel.streamer();
  const uint64_t A0 = St.attemptedTotal();
  const uint64_t S0 = St.streamedTotal();
  const uint64_t D0 = St.droppedTotal();

  St.setThreadBufferCapacity(16);
  TelemetrySessionConfig Cfg;
  Cfg.Name = "stress";
  Cfg.Prefixes = {"stress."};
  Cfg.BufferBudgetEvents = 1u << 20;
  auto S = St.openSession(Cfg);
  ASSERT_TRUE(S);

  constexpr int NumThreads = 4;
  constexpr int PerThread = 5000;
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&Tel, T] {
      for (int I = 0; I < PerThread; ++I) {
        TraceEvent E;
        E.Name = "stress.event";
        E.Phase = "t" + std::to_string(T);
        E.Value = I;
        Tel.emit(std::move(E));
      }
    }); // thread exit retires its buffer via the streamer's TLS hook
  for (std::thread &W : Workers)
    W.join();
  St.flushAll();

  EXPECT_EQ(St.attemptedTotal() - A0,
            static_cast<uint64_t>(NumThreads) * PerThread);
  // The hard invariant: nothing leaks out of the books.
  EXPECT_EQ(St.attemptedTotal() - A0,
            (St.streamedTotal() - S0) + (St.droppedTotal() - D0));

  // Replay the session: per-tid seqs strictly monotonic, and written
  // events plus gap-record drop counts reconstruct every attempt.
  std::map<uint64_t, uint64_t> LastSeq;
  uint64_t WrittenEvents = 0, GapDrops = 0;
  for (const TraceEvent &E : S->drainBuffered()) {
    if (E.Name == "telemetry.block") {
      EXPECT_EQ(E.Phase, "gap");
      EXPECT_GT(E.Value, 0);
      GapDrops += static_cast<uint64_t>(E.Value);
      continue;
    }
    ASSERT_EQ(E.Name, "stress.event");
    EXPECT_GT(E.Seq, LastSeq[E.Tid]) << "seq regressed on tid " << E.Tid;
    LastSeq[E.Tid] = E.Seq;
    ++WrittenEvents;
  }
  EXPECT_EQ(WrittenEvents + GapDrops,
            static_cast<uint64_t>(NumThreads) * PerThread);
  EXPECT_EQ(GapDrops, St.droppedTotal() - D0);
  EXPECT_GT(GapDrops, 0u) << "capacity 16 under 5000 writes must drop";

  St.closeSession(S);
  St.setThreadBufferCapacity(2048);
}

TEST_F(TelemetryTest, WindowAggregatorRatesAndPercentiles) {
  Telemetry &Tel = Telemetry::global();
  WindowAggregator &W = Tel.windows();
  W.configure(100, 4);
  TelCounter &C = Tel.counter("wintest.counter");
  TelHistogram &H = Tel.histogram("wintest.hist");
  C.add(5);
  for (int I = 1; I <= 100; ++I)
    H.record(static_cast<double>(I));
  W.roll(100);

  WindowAggregator::CounterSeries CS;
  ASSERT_TRUE(W.counterSeries("wintest.counter", CS));
  EXPECT_EQ(CS.LastDelta, 5u);
  EXPECT_DOUBLE_EQ(CS.LastRatePerKtick, 50.0); // 5 per 100 ticks
  EXPECT_EQ(CS.Windows, 1u);

  WindowAggregator::HistSeries HS;
  ASSERT_TRUE(W.histSeries("wintest.hist", HS));
  EXPECT_EQ(HS.LastCount, 100u);
  EXPECT_DOUBLE_EQ(HS.Max, 100.0);
  EXPECT_NEAR(HS.Mean, 50.5, 1e-9);
  EXPECT_NEAR(HS.P50, 50.5, 1e-9);
  EXPECT_NEAR(HS.P99, 99.01, 1e-9);

  // Second window: only the counter moves; deltas are per-window.
  C.add(7);
  W.roll(200);
  ASSERT_TRUE(W.counterSeries("wintest.counter", CS));
  EXPECT_EQ(CS.LastDelta, 7u);
  EXPECT_EQ(CS.MinDelta, 5u);
  EXPECT_EQ(CS.MaxDelta, 7u);
  EXPECT_DOUBLE_EQ(CS.MeanDelta, 6.0);
  EXPECT_EQ(CS.Windows, 2u);
  ASSERT_TRUE(W.histSeries("wintest.hist", HS));
  EXPECT_EQ(HS.LastCount, 0u);

  std::string Table = W.table();
  EXPECT_NE(Table.find("wintest.counter"), std::string::npos);
  EXPECT_NE(Table.find("wintest.hist"), std::string::npos);
  W.configure(0);
}

TEST_F(TelemetryTest, WindowAggregatorSeesLateRegistrations) {
  // The aggregator caches instrument handles between rolls; a metric
  // registered after the first roll must still show up in the next one.
  Telemetry &Tel = Telemetry::global();
  WindowAggregator &W = Tel.windows();
  W.configure(100, 4);
  W.roll(100);
  TelCounter &C = Tel.counter("latereg.counter");
  C.add(3);
  W.roll(200);
  WindowAggregator::CounterSeries CS;
  ASSERT_TRUE(W.counterSeries("latereg.counter", CS));
  EXPECT_EQ(CS.LastDelta, 3u);
  W.configure(0);
}

} // namespace
