//===--- test_obs.cpp - Observability layer tests ---------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Pins the structural guarantees the obs subsystem documents: traces are
// valid Chrome trace_event JSON with monotone timestamps and matched B/E
// pairs per track, sharded metrics are exact after writers join, the IR
// profiler's step counts agree with the machine's own instruction
// counter, and --progress telemetry reproduces the determinism goldens
// without perturbing them.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "mc/SafetyHarness.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "obs/TracingObserver.h"
#include "support/ToolArgs.h"
#include "vmmc/EspFirmwareSource.h"

#include <map>
#include <thread>
#include <vector>

using namespace esp;
using namespace esp::test;

namespace {

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(ObsJson, RoundTrip) {
  using obs::JsonValue;
  JsonValue Root = JsonValue::object();
  Root.set("int", JsonValue::integer(-42));
  Root.set("dbl", JsonValue::number(1.5));
  Root.set("str", JsonValue::str("a \"quoted\"\nline\tand \\ slash"));
  Root.set("null", JsonValue::null());
  Root.set("flag", JsonValue::boolean(true));
  JsonValue Arr = JsonValue::array();
  Arr.push(JsonValue::integer(1));
  Arr.push(JsonValue::str("two"));
  Root.set("arr", std::move(Arr));

  for (unsigned Indent : {0u, 2u}) {
    JsonValue Back;
    std::string Error;
    ASSERT_TRUE(obs::parseJson(Root.dump(Indent), Back, Error)) << Error;
    EXPECT_EQ(Back.get("int").asInt(), -42);
    EXPECT_DOUBLE_EQ(Back.get("dbl").asDouble(), 1.5);
    EXPECT_EQ(Back.get("str").asString(),
              "a \"quoted\"\nline\tand \\ slash");
    EXPECT_TRUE(Back.get("null").isNull());
    EXPECT_TRUE(Back.get("flag").asBool());
    ASSERT_EQ(Back.get("arr").size(), 2u);
    EXPECT_EQ(Back.get("arr").at(1).asString(), "two");
  }

  // Doubles print in their shortest round-trip form.
  for (double D : {17.58, 0.1, 1e-7, 0.948676, 1.0 / 3}) {
    JsonValue Back;
    std::string Error;
    ASSERT_TRUE(obs::parseJson(JsonValue::number(D).dump(), Back, Error))
        << Error;
    EXPECT_EQ(Back.asDouble(), D);
  }
  EXPECT_EQ(JsonValue::number(17.58).dump(), "17.58");
}

TEST(ObsJson, UnsignedIntegersRoundTrip) {
  // A uint64 at or above 2^63 prints as its unsigned decimal and parses
  // back as the same unsigned value; integers int64_t holds stay Int.
  using obs::JsonValue;
  for (uint64_t U : {uint64_t(1) << 63, ~uint64_t(0)}) {
    std::string Text = JsonValue::uinteger(U).dump();
    EXPECT_EQ(Text, std::to_string(U));
    JsonValue Back;
    std::string Error;
    ASSERT_TRUE(obs::parseJson(Text, Back, Error)) << Error;
    EXPECT_TRUE(Back.isUInt()) << Text;
    EXPECT_EQ(Back.asUInt(), U);
    EXPECT_EQ(Back.dump(), Text);
  }
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(obs::parseJson("[9223372036854775807, -9223372036854775808, "
                             "18446744073709551616]",
                             V, Error))
      << Error;
  EXPECT_TRUE(V.at(0).isInt());
  EXPECT_EQ(V.at(0).asInt(), INT64_MAX);
  EXPECT_TRUE(V.at(1).isInt());
  EXPECT_EQ(V.at(1).asInt(), INT64_MIN);
  // Past uint64_t, an integer literal is read as a double.
  EXPECT_EQ(V.at(2).kind(), JsonValue::Kind::Double);
  EXPECT_EQ(V.at(2).asDouble(), 18446744073709551616.0);
}

TEST(ObsJson, RejectsMalformedInput) {
  obs::JsonValue V;
  std::string Error;
  EXPECT_FALSE(obs::parseJson("{\"a\": 1,}", V, Error));
  EXPECT_FALSE(obs::parseJson("[1, 2] trailing", V, Error));
  EXPECT_FALSE(obs::parseJson("\"unterminated", V, Error));
  EXPECT_FALSE(obs::parseJson("", V, Error));
}

TEST(ObsJson, UnicodeEscapes) {
  obs::JsonValue V;
  std::string Error;
  ASSERT_TRUE(obs::parseJson("\"\\u0041\\u00e9\"", V, Error)) << Error;
  EXPECT_EQ(V.asString(), "A\xc3\xa9"); // 'A', e-acute in UTF-8.
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(ObsMetrics, CountersExactAcrossThreads) {
  obs::MetricsRegistry Reg;
  obs::Counter &C = Reg.counter("test.count");
  obs::Histogram H;
  constexpr int Threads = 4;
  constexpr uint64_t PerThread = 50'000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&] {
      for (uint64_t I = 0; I != PerThread; ++I) {
        C.add(1);
        H.record(I & 1023);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), Threads * PerThread);
  EXPECT_EQ(H.count(), Threads * PerThread);

  // Lookup returns the same handle; the snapshot carries every name.
  EXPECT_EQ(&Reg.counter("test.count"), &C);
  std::string Report = Reg.report();
  EXPECT_NE(Report.find("test.count = 200000"), std::string::npos);
  obs::JsonValue Json = Reg.json();
  EXPECT_EQ(Json.get("counters").get("test.count").asInt(),
            static_cast<int64_t>(Threads * PerThread));
}

TEST(ObsHistogram, BucketContinuity) {
  // bucketOf is monotone and gapless: each value maps to the same bucket
  // as its predecessor or the next one, and the bucket's lower edge
  // never exceeds the value.
  using obs::Histogram;
  unsigned Prev = Histogram::bucketOf(0);
  EXPECT_EQ(Prev, 0u);
  uint64_t Probe = 1;
  for (unsigned Step = 0; Step != 4096; ++Step) {
    unsigned B = Histogram::bucketOf(Probe);
    EXPECT_GE(B, Prev);
    EXPECT_LE(B, Prev + 1);
    EXPECT_LE(Histogram::bucketLow(B), Probe);
    if (B > Prev) {
      EXPECT_EQ(Histogram::bucketLow(B), Probe);
    }
    Prev = B;
    ++Probe;
  }
  // Sparse sweep across the doubling ranges up to the top of uint64.
  for (uint64_t V = 4096; V > 2048; V <<= 1) {
    unsigned B = Histogram::bucketOf(V);
    EXPECT_LE(Histogram::bucketLow(B), V);
    EXPECT_LT(B, Histogram::kBucketCount);
    unsigned B2 = Histogram::bucketOf(V - 1);
    EXPECT_LE(B2, B);
  }
  EXPECT_LT(Histogram::bucketOf(UINT64_MAX), Histogram::kBucketCount);
}

TEST(ObsHistogram, QuantilesWithinRelativeError) {
  obs::Histogram L(4);
  // 1..100000 uniformly: pN must land within the bucketing's 1/32
  // relative error of N% of the range.
  for (uint64_t V = 1; V <= 100'000; ++V)
    L.record(V, static_cast<unsigned>(V % 4));
  EXPECT_EQ(L.count(), 100'000u);
  EXPECT_NEAR(double(L.quantile(0.50)), 50'000.0, 50'000.0 / 16);
  EXPECT_NEAR(double(L.quantile(0.99)), 99'000.0, 99'000.0 / 16);
  EXPECT_NEAR(double(L.quantile(0.999)), 99'900.0, 99'900.0 / 16);
  EXPECT_EQ(obs::Histogram(1).quantile(0.5), 0u); // Empty: 0.
}

//===----------------------------------------------------------------------===//
// Traces
//===----------------------------------------------------------------------===//

const char kPipelineSource[] = R"(
channel c1: int
channel c2: int
process producer { $i = 0; while (i < 10) { out(c1, i); i = i + 1; } }
process add5 { while (true) { in(c1, $x); out(c2, x + 5); } }
process consumer {
  $i = 0;
  while (i < 10) { in(c2, $y); assert(y == i + 5); i = i + 1; }
}
)";

/// Runs \p Source to quiescence with a TracingObserver (and optionally a
/// profiler) attached; returns the machine's final instruction count.
uint64_t runTraced(const std::string &Source, obs::TraceWriter &Trace,
                   obs::IrProfiler *Profiler = nullptr) {
  auto C = compile(Source);
  if (!C)
    return 0;
  Machine M(C->Module, MachineOptions());
  obs::TracingObserver Tracer(Trace);
  Tracer.attach(M, "test");
  obs::FanoutObserver Fanout;
  Fanout.add(&Tracer);
  if (Profiler)
    Fanout.add(Profiler);
  M.setObserver(&Fanout);
  M.start();
  M.run(1'000'000);
  EXPECT_FALSE(M.error()) << M.error().Message;
  Tracer.finishTrace(M);
  return M.stats().Instructions;
}

TEST(ObsTrace, StructurallyValidChromeTrace) {
  obs::TraceWriter Trace;
  runTraced(kPipelineSource, Trace);

  obs::JsonValue Root;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(Trace.json(), Root, Error)) << Error;
  ASSERT_TRUE(Root.isObject());
  const obs::JsonValue &Events = Root.get("traceEvents");
  ASSERT_TRUE(Events.isArray());
  ASSERT_GT(Events.size(), 0u);

  // Per-track checks: ts monotone non-decreasing, B/E stack-matched.
  std::map<std::pair<int64_t, int64_t>, uint64_t> LastTs;
  std::map<std::pair<int64_t, int64_t>, int> OpenSlices;
  std::map<int64_t, int> OpenFlows;
  size_t Slices = 0, Flows = 0;
  bool SawThreadNames = false;
  for (size_t I = 0; I != Events.size(); ++I) {
    const obs::JsonValue &E = Events.at(I);
    ASSERT_TRUE(E.isObject());
    const std::string &Ph = E.get("ph").asString();
    ASSERT_FALSE(Ph.empty());
    if (Ph == "M") {
      SawThreadNames |= E.get("name").asString() == "thread_name";
      continue; // Metadata carries no timestamp.
    }
    auto Track = std::make_pair(E.get("pid").asInt(), E.get("tid").asInt());
    ASSERT_TRUE(E.get("ts").isNumber()) << "event " << I << " has no ts";
    uint64_t Ts = static_cast<uint64_t>(E.get("ts").asInt());
    auto It = LastTs.find(Track);
    if (It != LastTs.end()) {
      EXPECT_GE(Ts, It->second) << "ts went backwards on track "
                                << Track.first << "/" << Track.second;
    }
    LastTs[Track] = Ts;
    if (Ph == "B") {
      ++OpenSlices[Track];
      ++Slices;
    } else if (Ph == "E") {
      EXPECT_GT(OpenSlices[Track], 0) << "E without B at event " << I;
      --OpenSlices[Track];
    } else if (Ph == "s") {
      ++OpenFlows[E.get("id").asInt()];
      ++Flows;
    } else if (Ph == "f") {
      EXPECT_EQ(OpenFlows[E.get("id").asInt()], 1)
          << "flow end without start at event " << I;
      --OpenFlows[E.get("id").asInt()];
    }
  }
  EXPECT_TRUE(SawThreadNames);
  EXPECT_GT(Slices, 0u) << "no scheduling slices recorded";
  // 20 internal rendezvous in the pipeline -> 20 flow arrows.
  EXPECT_EQ(Flows, 20u);
  for (const auto &[Track, Open] : OpenSlices)
    EXPECT_EQ(Open, 0) << "unclosed slice on track " << Track.first << "/"
                       << Track.second;
  for (const auto &[Id, Open] : OpenFlows)
    EXPECT_EQ(Open, 0) << "unmatched flow id " << Id;
}

TEST(ObsTrace, DeterministicAcrossRuns) {
  // Virtual-time traces must be byte-identical run to run.
  obs::TraceWriter A, B;
  runTraced(kPipelineSource, A);
  runTraced(kPipelineSource, B);
  EXPECT_EQ(A.json(), B.json());
}

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

TEST(ObsProfile, StepCountsMatchMachineStats) {
  auto C = compile(kPipelineSource);
  ASSERT_TRUE(C);
  obs::IrProfiler Profiler(C->Module);
  Machine M(C->Module, MachineOptions());
  M.setObserver(&Profiler);
  M.start();
  M.run(1'000'000);
  ASSERT_FALSE(M.error()) << M.error().Message;

  EXPECT_EQ(Profiler.totalSteps(), M.stats().Instructions);
  // Both channels committed 10 rendezvous each and someone always waits
  // at a rendezvous, so each channel accrued blocked time.
  EXPECT_GT(Profiler.blockedTime(0), 0u);
  EXPECT_GT(Profiler.blockedTime(1), 0u);
  std::string Report = Profiler.report();
  EXPECT_NE(Report.find("hotspots"), std::string::npos);
  EXPECT_NE(Report.find("producer"), std::string::npos);
  EXPECT_NE(Report.find("blocked time per channel"), std::string::npos);
}

TEST(ObsProfile, CountsAreDeterministic) {
  // The profiler observes the same deterministic schedule every run; its
  // per-PC counts are goldens in the same sense as the MC counts.
  uint64_t Steps[2];
  for (int Run = 0; Run != 2; ++Run) {
    auto C = compile(kPipelineSource);
    ASSERT_TRUE(C);
    obs::IrProfiler Profiler(C->Module);
    Machine M(C->Module, MachineOptions());
    M.setObserver(&Profiler);
    M.start();
    M.run(1'000'000);
    Steps[Run] = Profiler.totalSteps();
  }
  EXPECT_EQ(Steps[0], Steps[1]);
  EXPECT_GT(Steps[0], 0u);
}

//===----------------------------------------------------------------------===//
// Search progress telemetry
//===----------------------------------------------------------------------===//

TEST(ObsProgress, MatchesDeterminismGoldensSequential) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();

  obs::SearchProgress Progress;
  SafetyOptions Options;
  Options.Mc.Progress = &Progress;
  McResult Result = verifyProcessMemorySafety(*R.Prog, "pageTable", Options);

  // The golden counts from test_determinism.cpp, unperturbed by the
  // telemetry sink, and the final published totals agree with them.
  EXPECT_EQ(Result.Verdict, McVerdict::OK) << Result.report();
  EXPECT_EQ(Result.StatesExplored, 221u);
  EXPECT_EQ(Result.StatesStored, 45u);
  EXPECT_EQ(Result.Transitions, 220u);
  EXPECT_EQ(Progress.totalExplored(), 221u);
  EXPECT_EQ(Progress.totalStored(), 45u);
  EXPECT_EQ(Progress.totalTransitions(), 220u);
  EXPECT_EQ(Progress.Workers.load(), 1u); // One worker slot at --jobs 1.
}

TEST(ObsProgress, MatchesDeterminismGoldensParallel) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  CompileResult R =
      compileBuffer(SM, Diags, "vmmc.esp", vmmc::getVmmcEspSource());
  ASSERT_TRUE(R.Success) << Diags.renderAll();

  obs::SearchProgress Progress;
  SafetyOptions Options;
  Options.Mc.Jobs = 4;
  Options.Mc.Progress = &Progress;
  McResult Result = verifyProcessMemorySafety(*R.Prog, "pageTable", Options);

  EXPECT_EQ(Result.Verdict, McVerdict::OK) << Result.report();
  EXPECT_EQ(Result.StatesExplored, 221u);
  EXPECT_EQ(Result.StatesStored, 45u);
  EXPECT_EQ(Result.Transitions, 220u);
  // After the workers joined the published totals are exact.
  EXPECT_EQ(Progress.totalExplored(), 221u);
  EXPECT_EQ(Progress.totalStored(), 45u);
  EXPECT_EQ(Progress.totalTransitions(), 220u);
  EXPECT_EQ(Progress.Workers.load(), 4u);
  // Work-item accounting covers every queue pop.
  ASSERT_EQ(Result.WorkerItems.size(), 4u);
  uint64_t Items = 0;
  for (uint64_t N : Result.WorkerItems)
    Items += N;
  EXPECT_EQ(Items, Result.SharedWorkItems + 1); // Plus the root item.
}

TEST(ObsProgress, StatsJsonParses) {
  auto C = compile(R"(
channel c: int
process ping { $i = 0; while (i < 3) { out(c, i); i = i + 1; } }
process pong { $i = 0; while (i < 3) { in(c, $x); i = i + 1; } }
)");
  ASSERT_TRUE(C);
  McOptions Mc;
  McResult Result = checkModel(C->Module, Mc);
  obs::JsonValue V;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(Result.json(), V, Error)) << Error;
  EXPECT_EQ(V.get("verdict").asString(), "ok");
  EXPECT_EQ(static_cast<uint64_t>(V.get("states_explored").asInt()),
            Result.StatesExplored);
  EXPECT_EQ(static_cast<uint64_t>(V.get("transitions").asInt()),
            Result.Transitions);
}

//===----------------------------------------------------------------------===//
// ToolArgs extensions
//===----------------------------------------------------------------------===//

TEST(ObsToolArgs, EqualsValueSpelling) {
  const char *Argv[] = {"tool", "--max-states=123", "--name=a=b", "-o=out"};
  ToolArgs Args(4, const_cast<char **>(Argv), "tool", "usage\n");
  uint64_t N = 0;
  std::string Name, Out;
  while (Args.next()) {
    if (Args.optionUInt("--max-states", N))
      ;
    else if (Args.option("--name", Name))
      ;
    else if (Args.option("-o", Out))
      ;
    else
      Args.unknownOrBuiltin();
  }
  EXPECT_FALSE(Args.shouldExit());
  EXPECT_EQ(N, 123u);
  EXPECT_EQ(Name, "a=b"); // Only the first '=' splits.
  EXPECT_EQ(Out, "out");
}

TEST(ObsToolArgs, UnknownEqualsOptionReportsFlagOnly) {
  const char *Argv[] = {"tool", "--bogus=/some/long/path.json"};
  ToolArgs Args(2, const_cast<char **>(Argv), "tool", "usage\n");
  testing::internal::CaptureStderr();
  while (Args.next())
    Args.unknownOrBuiltin();
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(Args.shouldExit());
  EXPECT_EQ(Args.exitCode(), 2);
  EXPECT_NE(Err.find("unknown option '--bogus'"), std::string::npos) << Err;
  EXPECT_EQ(Err.find("/some/long/path.json"), std::string::npos) << Err;
}

TEST(ObsToolArgs, QuietIsABuiltin) {
  const char *Argv[] = {"tool", "--quiet", "input.esp"};
  ToolArgs Args(3, const_cast<char **>(Argv), "tool", "usage\n");
  std::string Input;
  while (Args.next()) {
    if (Args.positional())
      Input = Args.arg();
    else
      Args.unknownOrBuiltin();
  }
  EXPECT_FALSE(Args.shouldExit());
  EXPECT_TRUE(Args.quiet());
  EXPECT_EQ(Input, "input.esp");
}

//===----------------------------------------------------------------------===//
// Driver metrics
//===----------------------------------------------------------------------===//

TEST(ObsDriver, CompileMetricsGatedOnEnabled) {
  {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileResult R = compileBuffer(SM, Diags, "t.esp", kPipelineSource);
    ASSERT_TRUE(R.Success);
    EXPECT_EQ(R.Metrics, nullptr); // Off by default: no registry built.
  }
  obs::setEnabled(true);
  {
    SourceManager SM;
    DiagnosticEngine Diags(SM);
    CompileResult R = compileBuffer(SM, Diags, "t.esp", kPipelineSource);
    ASSERT_TRUE(R.Success);
    ASSERT_NE(R.Metrics, nullptr);
    EXPECT_GT(R.Metrics->counter("driver.source_bytes").value(), 0u);
    // Stage counters exist (timings may legitimately round to 0 us).
    std::string Report = R.Metrics->report();
    EXPECT_NE(Report.find("driver.parse_us"), std::string::npos);
    EXPECT_NE(Report.find("driver.sema_us"), std::string::npos);
    EXPECT_NE(Report.find("driver.lower_us"), std::string::npos);
  }
  obs::setEnabled(false);
}

} // namespace
