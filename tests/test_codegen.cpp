//===--- test_codegen.cpp - C and Promela backend tests ---------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// The C backend tests compile the generated code with the system C
// compiler and execute it, validating the full espc pipeline end to end.
//
//===----------------------------------------------------------------------===//

#include "codegen/CCodeGen.h"
#include "codegen/PromelaGen.h"
#include "TestHelpers.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace esp;
using namespace esp::test;

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output;
};

/// Writes the generated C, a driver and, when given, the generated
/// header (as gen.h, for the driver to include) into a temp dir, compiles
/// with the system cc, runs, and captures stdout.
RunResult compileAndRunC(const std::string &Generated,
                         const std::string &Driver,
                         const std::string &Header = "") {
  char Template[] = "/tmp/esp_cg_XXXXXX";
  char *Dir = mkdtemp(Template);
  if (!Dir) {
    ADD_FAILURE() << "mkdtemp failed";
    return {};
  }
  std::string Base(Dir);
  {
    std::ofstream Gen(Base + "/gen.c");
    Gen << Generated;
    std::ofstream Drv(Base + "/driver.c");
    Drv << Driver;
    if (!Header.empty())
      std::ofstream(Base + "/gen.h") << Header;
  }
  std::string Compile = "cc -std=c99 -O1 -o " + Base + "/prog " + Base +
                        "/gen.c " + Base + "/driver.c 2> " + Base +
                        "/cc.log";
  if (std::system(Compile.c_str()) != 0) {
    std::ifstream Log(Base + "/cc.log");
    std::ostringstream LogText;
    LogText << Log.rdbuf();
    ADD_FAILURE() << "cc failed:\n" << LogText.str() << "\n--- generated ---\n"
                  << Generated;
    return {};
  }
  std::string Run = Base + "/prog > " + Base + "/out.log 2>&1";
  int Status = std::system(Run.c_str());
  RunResult Result;
  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  std::ifstream Out(Base + "/out.log");
  std::ostringstream OutText;
  OutText << Out.rdbuf();
  Result.Output = OutText.str();
  std::string Cleanup = "rm -rf " + Base;
  (void)std::system(Cleanup.c_str());
  return Result;
}

const char *ClosedDriver = R"(
#include <stdio.h>
extern void esp_start(void);
extern int esp_main_loop(long max_steps);
extern long long esp_stat_live(void);
extern unsigned long long esp_stat_rendezvous(void);
int main(void) {
  esp_start();
  int r = esp_main_loop(1000000);
  printf("result=%d live=%lld rendezvous=%llu\n", r, esp_stat_live(),
         esp_stat_rendezvous());
  return r == 2 ? 0 : 1; /* 2 = ESP_RES_HALTED */
}
)";

std::string genFor(const std::string &Source, bool Optimize = true) {
  OptOptions Options = Optimize ? OptOptions::all() : OptOptions::none();
  auto C = compile(Source, &Options);
  if (!C)
    return {};
  return generateC(C->Module);
}

TEST(CCodeGen, PipelineCompilesAndHalts) {
  std::string Gen = genFor(R"(
channel c1: int
channel c2: int
process producer {
  $i = 0;
  while (i < 5) { out(c1, i); i = i + 1; }
}
process add5 {
  $n = 0;
  while (n < 5) { in(c1, $x); out(c2, x + 5); n = n + 1; }
}
process consumer {
  $n = 0;
  while (n < 5) { in(c2, $y); assert(y == n + 5); n = n + 1; }
}
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("live=0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("rendezvous=10"), std::string::npos) << R.Output;
}

TEST(CCodeGen, FailedAssertionExitsWithPanic) {
  std::string Gen = genFor(R"(
channel c: int
process a { out(c, 3); }
process b { in(c, $x); assert(x == 4); }
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 2) << R.Output; // esp_panic exits with 2.
}

TEST(CCodeGen, IntegerArithmeticWrapsLikeTheMachine) {
  // scripts/check.sh's overflow_run program: INT64_MIN / -1 is the one
  // overflowing division. C's own `/` traps on it (SIGFPE); ESP wraps
  // to INT64_MIN, as espc --run and espmc compute.
  const char *Source = R"(
channel c: int
process p { $x = 0 - 9223372036854775807 - 1; $m = 0 - 1; out(c, x / m); }
process q { in(c, $y); $x = 0 - 9223372036854775807 - 1; assert(y == x); }
)";
  for (bool Optimize : {false, true}) {
    std::string Gen = genFor(Source, Optimize);
    ASSERT_FALSE(Gen.empty());
    RunResult R = compileAndRunC(Gen, ClosedDriver);
    EXPECT_EQ(R.ExitCode, 0) << "optimize=" << Optimize << "\n" << R.Output;
  }

  // The rest of the operators at their overflowing edges, and a folded
  // INT64_MIN constant, which has no literal of its own in C.
  std::string Gen = genFor(R"(
const MIN = 0 - 9223372036854775807 - 1;
const MAX = 9223372036854775807;
channel c: int
process p { $m = 0 - 1; $big = MAX; $low = MIN; $two = 2; out(c, 0);
  assert(big + 1 == MIN);
  assert(low - 1 == MAX);
  assert(big * two == 0 - 2);
  assert(0 - low == MIN);
  assert(-low == MIN);
  assert(low % m == 0);
  assert(7 / (0 - 2) == 0 - 3);
  assert((0 - 7) % 2 == 0 - 1);
}
process q { in(c, $y); assert(y == 0); }
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

TEST(CCodeGen, DivisionByZeroPanics) {
  std::string Gen = genFor(R"(
channel c: int
process p { $z = 0; out(c, 1 / z); }
process q { in(c, $y); }
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 2) << R.Output; // esp_panic, not SIGFPE.
}

TEST(CCodeGen, UnionDispatchAndRefcounting) {
  std::string Gen = genFor(R"(
type dataT = array of int
type sendT = record of { dest: int, data: dataT }
type updT = record of { vAddr: int, pAddr: int }
type userT = union of { send: sendT, update: updT }
channel reqC: userT
channel ackC: int
process sender {
  in(reqC, { send |> { $dest, $data } });
  assert(data[0] == 7);
  unlink(data);
  out(ackC, dest);
}
process updater {
  in(reqC, { update |> { $v, $p } });
  out(ackC, v + p);
}
process driver {
  $payload: dataT = { 4 -> 7 };
  out(reqC, { send |> { 5, payload } });
  unlink(payload);
  out(reqC, { update |> { 20, 30 } });
  in(ackC, $a1);
  in(ackC, $a2);
  assert(a1 + a2 == 55);
}
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("live=0"), std::string::npos) << R.Output;
}

TEST(CCodeGen, GuardedAltFifo) {
  std::string Gen = genFor(R"(
const SIZE = 4;
channel chan1: int
channel chan2: int
channel stop: int
process fifo {
  $q: #array of int = #{ SIZE -> 0 };
  $hd = 0; $tl = 0; $cnt = 0; $run = true;
  while (run) {
    alt {
      case( cnt < SIZE, in( chan1, $v)) { q[tl] = v; tl = (tl + 1) % SIZE; cnt = cnt + 1; }
      case( cnt > 0, out( chan2, q[hd])) { hd = (hd + 1) % SIZE; cnt = cnt - 1; }
      case( in( stop, $s)) { run = false; }
    }
  }
  unlink(q);
}
process producer {
  $i = 0;
  while (i < 20) { out(chan1, i * 3); i = i + 1; }
}
process consumer {
  $i = 0;
  while (i < 20) { in(chan2, $v); assert(v == i * 3); i = i + 1; }
  out(stop, 1);
}
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("live=0"), std::string::npos) << R.Output;
}

/// An external writer feeds requests; an external reader consumes
/// results: the paper's IsReady/per-case C function protocol (§4.5).
const char *AdderSource = R"(
type reqT = record of { a: int, b: int }
channel reqC: reqT
channel resC: int
interface Req(out reqC) { Post( { $a, $b } ) }
interface Res(in resC) { Done( $v ) }
process adder {
  while (true) {
    in(reqC, { $a, $b });
    out(resC, a + b);
  }
}
)";

/// Posts { i, 10 * i } for i = 0..3 and checks the four sums. It includes
/// the generated header, so cc checks the interface prototypes against
/// these definitions.
const char *AdderDriver = R"(
#include <stdio.h>
#include "gen.h"
static int posted = 0;
static long long results[4];
static int nresults = 0;
int ReqIsReady(void) { return posted < 4 ? 1 : 0; }
void ReqPost(long long *a, long long *b) {
  *a = posted; *b = 10 * posted; posted++;
}
int ResIsReady(void) { return 1; }
void ResDone(long long v) { results[nresults++] = v; }
int main(void) {
  esp_start();
  int r = esp_main_loop(100000);
  if (r != 1) { printf("expected quiescent, got %d\n", r); return 1; }
  if (nresults != 4) { printf("got %d results\n", nresults); return 1; }
  for (int i = 0; i < 4; i++)
    if (results[i] != 11LL * i) { printf("bad result %d\n", i); return 1; }
  printf("ok live=%lld rendezvous=%llu ctx_switches=%llu\n", esp_stat_live(),
         esp_stat_rendezvous(), esp_stat_ctx_switches());
  return 0;
}
)";

RunResult runAdderInC() {
  OptOptions Options = OptOptions::all();
  auto C = compile(AdderSource, &Options);
  if (!C)
    return {};
  return compileAndRunC(generateC(C->Module), AdderDriver,
                        generateCHeader(C->Module));
}

TEST(CCodeGen, ExternalInterfacesRoundTrip) {
  RunResult R = runAdderInC();
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("ok live=0"), std::string::npos) << R.Output;
}

/// The adder's request source on a Machine: posts { i, 10 * i } for
/// i = 0..3, as AdderDriver does.
class AdderRequests : public ExternalWriter {
public:
  int Posted = 0;
  int isReady() override { return Posted < 4 ? 1 : 0; }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    Out.push_back(Value::makeInt(Posted));
    Out.push_back(Value::makeInt(10 * Posted));
  }
  void accepted(int) override { ++Posted; }
};

class AdderResults : public ExternalReader {
public:
  std::vector<int64_t> Got;
  bool isReady() override { return true; }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    Got.push_back(Args[0].Scalar);
  }
};

TEST(CCodeGen, CountersMatchTheMachine) {
  // The generated C keeps the rendezvous and context-switch counts that
  // the cost model charges; on the same program and inputs they must
  // equal the machine's. A hand-off to an external reader is no
  // rendezvous on either side.
  OptOptions Options = OptOptions::all();
  auto C = compile(AdderSource, &Options);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.bindWriter("Req", std::make_unique<AdderRequests>());
  auto Results = std::make_unique<AdderResults>();
  AdderResults &Got = *Results;
  M.bindReader("Res", std::move(Results));
  M.start();
  ASSERT_EQ(M.run(100000), StepResult::Quiescent);
  ASSERT_EQ(Got.Got, (std::vector<int64_t>{0, 11, 22, 33}));

  RunResult R = runAdderInC();
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  std::string Expected =
      "rendezvous=" + std::to_string(M.stats().Rendezvous) +
      " ctx_switches=" + std::to_string(M.stats().ContextSwitches) + "\n";
  EXPECT_NE(R.Output.find(Expected), std::string::npos)
      << "machine: " << Expected << "C: " << R.Output;
}

TEST(CCodeGen, ScalarExternalMessageRuns) {
  // Each tick is a bare int: the delivery has no message object to
  // unlink, and the program runs to quiescence.
  std::string Gen = genFor(R"(
channel timerC: int
channel logC: int
interface Timer(out timerC) { Tick( $t ) }
interface Log(in logC) { Print( $v ) }
process clock { while (true) { in(timerC, $t); out(logC, t + 1); } }
)");
  ASSERT_FALSE(Gen.empty());
  const char *Driver = R"(
#include <stdio.h>
extern void esp_start(void);
extern int esp_main_loop(long max_steps);
static long long ticks = 1000;
int TimerIsReady(void) { return ticks <= 1002 ? 1 : 0; }
void TimerTick(long long *t) { *t = ticks++; }
int LogIsReady(void) { return 1; }
void LogPrint(long long v) { printf("%lld\n", v); }
int main(void) {
  esp_start();
  printf("result=%d\n", esp_main_loop(100000));
  return 0;
}
)";
  RunResult R = compileAndRunC(Gen, Driver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, "1001\n1002\n1003\nresult=1\n");
}

/// Timer ticks 0-4 pass through a relay to a Log reader that refuses its
/// first 20 polls, so the relay sits blocked on logC while ticks wait.
const char *RelaySource = R"(
channel timerC: int
channel logC: int
interface Timer(out timerC) { Tick( $t ) }
interface Log(in logC) { Print( $v ) }
process relay { while (true) { in(timerC, $t); out(logC, t); } }
)";

class RelayTicks : public ExternalWriter {
public:
  int Next = 0;
  int isReady() override { return Next < 5 ? 1 : 0; }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    Out.push_back(Value::makeInt(Next));
  }
  void accepted(int) override { ++Next; }
};

class SlowLog : public ExternalReader {
public:
  int Polls = 0;
  std::string Printed;
  bool isReady() override { return ++Polls > 20; }
  void consume(int, Heap &, const std::vector<Value> &Args) override {
    Printed += std::to_string(Args[0].Scalar) + " ";
  }
};

TEST(CCodeGen, ExternalMessageWaitsForAReader) {
  // A tick that arrives while no process waits on timerC stays with the
  // device until the relay is back at its receive: the generated C, like
  // the machine, takes a message only when a reader is waiting for it.
  OptOptions Options = OptOptions::all();
  auto C = compile(RelaySource, &Options);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.bindWriter("Timer", std::make_unique<RelayTicks>());
  auto Log = std::make_unique<SlowLog>();
  SlowLog &Printed = *Log;
  M.bindReader("Log", std::move(Log));
  M.start();
  for (int Round = 0; Round != 50; ++Round)
    M.run(1000);
  EXPECT_EQ(Printed.Printed, "0 1 2 3 4 ");

  const char *Driver = R"(
#include <stdio.h>
#include "gen.h"
static long long next = 0;
static int polls = 0;
int TimerIsReady(void) { return next < 5 ? 1 : 0; }
void TimerTick(long long *t) { *t = next++; }
int LogIsReady(void) { return ++polls > 20; }
void LogPrint(long long v) { printf("%lld ", v); }
int main(void) {
  int round;
  esp_start();
  for (round = 0; round != 50; ++round)
    esp_main_loop(1000);
  return 0;
}
)";
  RunResult R = compileAndRunC(generateC(C->Module), Driver,
                               generateCHeader(C->Module));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, Printed.Printed);
}

TEST(CCodeGen, RejectedExternalMessageIsReoffered) {
  // The relay waits for tick 3 only. Tick 0 arrives first and no waiting
  // reader admits it; the machine re-offers it on every poll and never
  // accepts it, so the generated C must keep it too, not consume the
  // ticks behind it: Tick is called once.
  OptOptions Options = OptOptions::all();
  auto C = compile(R"(
channel timerC: int
channel logC: int
interface Timer(out timerC) { Tick( $t ) }
interface Log(in logC) { Print( $v ) }
process relay { while (true) { in(timerC, 3); out(logC, 3); } }
)",
                   &Options);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  auto Ticks = std::make_unique<RelayTicks>();
  RelayTicks &Offered = *Ticks;
  M.bindWriter("Timer", std::move(Ticks));
  auto Log = std::make_unique<SlowLog>();
  SlowLog &Printed = *Log;
  M.bindReader("Log", std::move(Log));
  M.start();
  for (int Round = 0; Round != 10; ++Round)
    M.run(1000);
  EXPECT_EQ(Offered.Next, 0);

  const char *Driver = R"(
#include <stdio.h>
#include "gen.h"
static long long next = 0;
static int calls = 0;
int TimerIsReady(void) { return next < 5 ? 1 : 0; }
void TimerTick(long long *t) { ++calls; *t = next++; }
int LogIsReady(void) { return 1; }
void LogPrint(long long v) { printf("%lld ", v); }
int main(void) {
  int round;
  esp_start();
  for (round = 0; round != 10; ++round)
    esp_main_loop(1000);
  printf("calls=%d", calls);
  return 0;
}
)";
  RunResult R = compileAndRunC(generateC(C->Module), Driver,
                               generateCHeader(C->Module));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output, Printed.Printed + "calls=1");
}

TEST(CCodeGen, UnoptimizedModuleAlsoRuns) {
  std::string Gen = genFor(R"(
channel c1: int
channel c2: int
process a { $i = 0; while (i < 3) { out(c1, i); i = i + 1; } }
process b { $i = 0; while (i < 3) { in(c1, $x); out(c2, x); i = i + 1; } }
process d { $i = 0; while (i < 3) { in(c2, $y); assert(y == i); i = i + 1; } }
)",
                           /*Optimize=*/false);
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

TEST(CCodeGen, HeaderDeclaresEntryPoints) {
  auto C = compile("channel c: int\nprocess a { out(c, 1); }\n"
                   "process b { in(c, $x); }");
  ASSERT_TRUE(C);
  std::string Header = generateCHeader(C->Module);
  EXPECT_NE(Header.find("esp_start"), std::string::npos);
  EXPECT_NE(Header.find("esp_main_loop"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Promela backend (structural tests; SPIN is not bundled — src/mc is the
// native verifier).
//===----------------------------------------------------------------------===//

TEST(PromelaGen, EmitsPoolsChannelsAndProcesses) {
  auto C = compile(R"(
type dataT = array of int
type msgT = record of { dest: int, data: dataT }
channel c: msgT
process sender {
  $d: dataT = { 4 -> 1 };
  out(c, { 3, d });
  unlink(d);
}
process receiver {
  in(c, { $dest, $data });
  unlink(data);
}
)");
  ASSERT_TRUE(C);
  std::string Spec = generatePromela(*C->Prog);
  // Pools with refcount arrays for each aggregate type.
  EXPECT_NE(Spec.find("dataT_pool"), std::string::npos) << Spec;
  EXPECT_NE(Spec.find("dataT_rc"), std::string::npos);
  // Rendezvous channel, flattened to two int fields.
  EXPECT_NE(Spec.find("chan c[NINST] = [0] of { int, int }"),
            std::string::npos)
      << Spec;
  // Refcount macros with liveness assertions.
  EXPECT_NE(Spec.find("#define ESP_LINK"), std::string::npos);
  EXPECT_NE(Spec.find("assert(rc[id] > 0)"), std::string::npos);
  // Both processes and the init block that instantiates NINST copies.
  EXPECT_NE(Spec.find("proctype sender"), std::string::npos);
  EXPECT_NE(Spec.find("proctype receiver"), std::string::npos);
  EXPECT_NE(Spec.find("run sender(i)"), std::string::npos);
}

TEST(PromelaGen, UnionDispatchUsesTagEval) {
  auto C = compile(R"(
type uT = union of { a: int, b: int }
channel c: uT
process p { out(c, { a |> 5 }); }
process qa { in(c, { a |> $x }); }
process qb { in(c, { b |> $y }); }
)");
  ASSERT_TRUE(C);
  std::string Spec = generatePromela(*C->Prog);
  // Receives match on the arm tag with eval().
  EXPECT_NE(Spec.find("eval(0) /* arm a */"), std::string::npos) << Spec;
  EXPECT_NE(Spec.find("eval(1) /* arm b */"), std::string::npos);
}

TEST(PromelaGen, ReplyDispatchUsesProcessIdEval) {
  auto C = compile(R"(
channel reply: record of { ret: int, v: int }
process a { in(reply, { @, $v }); }
process b { out(reply, { 0, 7 }); }
)");
  ASSERT_TRUE(C);
  std::string Spec = generatePromela(*C->Prog);
  EXPECT_NE(Spec.find("reply[_inst]?eval(0)"), std::string::npos) << Spec;
}

TEST(PromelaGen, MultipleInstances) {
  auto C = compile("channel c: int\nprocess a { out(c, 1); }\n"
                   "process b { in(c, $x); }");
  ASSERT_TRUE(C);
  PromelaGenOptions Options;
  Options.Instances = 3;
  std::string Spec = generatePromela(*C->Prog, Options);
  EXPECT_NE(Spec.find("#define NINST 3"), std::string::npos);
}

} // namespace

//===----------------------------------------------------------------------===//
// Safety-check builds (espc --safety)
//===----------------------------------------------------------------------===//

namespace {

std::string genSafety(const std::string &Source) {
  OptOptions Options = OptOptions::all();
  auto C = esp::test::compile(Source, &Options);
  if (!C)
    return {};
  CCodeGenOptions CGOptions;
  CGOptions.EmitSafetyChecks = true;
  return generateC(C->Module, CGOptions);
}

TEST(CCodeGenSafety, CleanProgramStillRuns) {
  std::string Gen = genSafety(R"(
type dataT = array of int
type msgT = record of { dest: int, data: dataT }
channel c: msgT
channel done: int
process sender {
  $data: dataT = { 8 -> 3 };
  out(c, { 1, data });
  unlink(data);
  out(done, 1);
}
process receiver {
  in(c, { $dest, $d });
  assert(d[7] == 3);
  unlink(d);
}
process j { in(done, $x); }
)");
  ASSERT_FALSE(Gen.empty());
  EXPECT_NE(Gen.find("#define ESP_SAFETY 1"), std::string::npos);
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

TEST(CCodeGenSafety, UseAfterFreeTrapsInGeneratedC) {
  std::string Gen = genSafety(R"(
channel done: int
process p {
  $a: #array of int = #{ 4 -> 0 };
  unlink(a);
  a[0] = 1;
  out(done, 1);
}
process q { in(done, $x); }
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 2) << R.Output; // esp_panic.
}

TEST(CCodeGenSafety, IndexOutOfBoundsTraps) {
  std::string Gen = genSafety(R"(
channel done: int
process p {
  $a: #array of int = #{ 4 -> 0 };
  $i = 9;
  a[i] = 1;
  unlink(a);
  out(done, 1);
}
process q { in(done, $x); }
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
}

TEST(CCodeGenSafety, InvalidUnionArmTraps) {
  std::string Gen = genSafety(R"(
type uT = union of { a: int, b: int }
channel c: uT
channel done: int
process p { out(c, { a |> 5 }); }
process q { in(c, $u); $v = u.b; unlink(u); out(done, v); }
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
}

TEST(CCodeGenSafety, WithoutChecksNoGuardsEmitted) {
  OptOptions Options = OptOptions::all();
  auto C = esp::test::compile(
      "channel c: int\nprocess a { out(c, 1); }\nprocess b { in(c, $x); }",
      &Options);
  ASSERT_TRUE(C);
  std::string Gen = generateC(C->Module);
  EXPECT_NE(Gen.find("#define ESP_SAFETY 0"), std::string::npos);
}

TEST(CCodeGen, CastDeepCopiesInGeneratedC) {
  std::string Gen = genFor(R"(
channel done: int
process p {
  $m: #array of int = #{ 4 -> 1 };
  m[0] = 10;
  $frozen = cast(m);
  m[0] = 99;
  assert(frozen[0] == 10);
  unlink(m);
  unlink(frozen);
  out(done, 1);
}
process q { in(done, $x); }
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("live=0"), std::string::npos) << R.Output;
}

TEST(CCodeGen, ReplyDispatchByProcessIdInGeneratedC) {
  std::string Gen = genFor(R"(
channel reqC: record of { ret: int, v: int }
channel replyC: record of { ret: int, v: int }
process clientA {
  out(reqC, { @, 10 });
  in(replyC, { @, $r });
  assert(r == 20);
}
process clientB {
  out(reqC, { @, 100 });
  in(replyC, { @, $r });
  assert(r == 200);
}
process server {
  $n = 0;
  while (n < 2) {
    in(reqC, { $who, $v });
    out(replyC, { who, v * 2 });
    n = n + 1;
  }
}
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
}

TEST(CCodeGen, FifoStressManyMessages) {
  std::string Gen = genFor(R"(
const SIZE = 4;
channel chan1: int
channel chan2: int
channel stop: int
process fifo {
  $q: #array of int = #{ SIZE -> 0 };
  $hd = 0; $tl = 0; $cnt = 0; $run = true;
  while (run) {
    alt {
      case( cnt < SIZE, in( chan1, $v)) { q[tl] = v; tl = (tl + 1) % SIZE; cnt = cnt + 1; }
      case( cnt > 0, out( chan2, q[hd])) { hd = (hd + 1) % SIZE; cnt = cnt - 1; }
      case( in( stop, $s)) { run = false; }
    }
  }
  unlink(q);
}
process producer {
  $i = 0;
  while (i < 500) { out(chan1, i * 7 % 1000); i = i + 1; }
}
process consumer {
  $i = 0;
  while (i < 500) { in(chan2, $v); assert(v == i * 7 % 1000); i = i + 1; }
  out(stop, 1);
}
)");
  ASSERT_FALSE(Gen.empty());
  RunResult R = compileAndRunC(Gen, ClosedDriver);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("live=0"), std::string::npos) << R.Output;
}

} // namespace
