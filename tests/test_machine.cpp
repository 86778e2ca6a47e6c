//===--- test_machine.cpp - Interpreter and scheduler tests -----------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

using namespace esp;
using namespace esp::test;

namespace {

/// A three-stage pipeline exercising rendezvous, while loops, and
/// assertions (the paper's add5 example, §4.3, made self-checking).
const char *PipelineSource = R"(
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
)";

TEST(Machine, PipelineRunsToCompletion) {
  auto C = compile(PipelineSource);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  ASSERT_FALSE(M.error()) << M.error().Message;
  StepResult R = M.run(10000);
  EXPECT_EQ(R, StepResult::Halted) << M.error().Message;
  EXPECT_TRUE(M.allDone());
  EXPECT_GE(M.stats().Rendezvous, 10u); // 5 messages on each channel.
}

TEST(Machine, AssertionFailureIsReported) {
  auto C = compile(R"(
channel c: int
process a { out(c, 3); }
process b { in(c, $x); assert(x == 4); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  M.run(1000);
  EXPECT_EQ(M.error().Kind, RuntimeErrorKind::AssertFailed);
}

TEST(Machine, PatternDispatchRoutesToCorrectProcess) {
  // The paper's core dispatch idea: two processes receive from one
  // channel, selected by the union arm (§4.2).
  auto C = compile(R"(
type sendT = record of { dest: int, size: int }
type updateT = record of { vAddr: int, pAddr: int }
type userT = union of { send: sendT, update: updateT }
channel reqC: userT
channel sendDoneC: int
channel updateDoneC: int
process sender {
  in(reqC, { send |> { $dest, $size } });
  out(sendDoneC, dest + size);
}
process updater {
  in(reqC, { update |> { $vAddr, $pAddr } });
  out(updateDoneC, vAddr * 1000 + pAddr);
}
process driver {
  out(reqC, { update |> { 7, 99 } });
  out(reqC, { send |> { 3, 64 } });
  in(sendDoneC, $a);
  assert(a == 67);
  in(updateDoneC, $b);
  assert(b == 7099);
}
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  StepResult R = M.run(10000);
  EXPECT_EQ(R, StepResult::Halted) << M.error().Message;
}

TEST(Machine, ReplyDispatchByProcessId) {
  // `@` dispatch: two clients use one server; replies routed by id.
  auto C = compile(R"(
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
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  StepResult R = M.run(10000);
  EXPECT_EQ(R, StepResult::Halted) << M.error().Message;
}

TEST(Machine, FifoQueueWithGuards) {
  // The paper's guarded-alt FIFO queue (§4.2).
  auto C = compile(R"(
const SIZE = 4;
channel chan1: int
channel chan2: int
process fifo {
  $q: #array of int = #{ SIZE -> 0 };
  $hd = 0; $tl = 0; $cnt = 0;
  while (true) {
    alt {
      case( cnt < SIZE, in( chan1, $v)) { q[tl] = v; tl = (tl + 1) % SIZE; cnt = cnt + 1; }
      case( cnt > 0, out( chan2, q[hd])) { hd = (hd + 1) % SIZE; cnt = cnt - 1; }
    }
  }
}
process producer {
  $i = 0;
  while (i < 20) { out(chan1, i * 3); i = i + 1; }
}
process consumer {
  $i = 0;
  while (i < 20) { in(chan2, $v); assert(v == i * 3); i = i + 1; }
}
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  // The fifo process loops forever; producer and consumer finish. The
  // machine becomes quiescent with fifo blocked on an empty queue.
  StepResult R = M.run(100000);
  EXPECT_EQ(R, StepResult::Quiescent) << M.error().Message;
  EXPECT_FALSE(M.error());
}

TEST(Machine, MutableArrayUpdatesVisibleThroughAlias) {
  auto C = compile(R"(
channel done: int
process p {
  $a1: #array of int = #{ 8 -> 0 };
  $a2 = a1;
  a2[3] = 7;
  assert(a1[3] == 7);
  out(done, 1);
}
process q { in(done, $x); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

TEST(Machine, UseAfterFreeDetected) {
  auto C = compile(R"(
channel done: int
process p {
  $a: #array of int = #{ 4 -> 0 };
  unlink(a);
  a[0] = 1;
  out(done, 1);
}
process q { in(done, $x); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  M.run(1000);
  EXPECT_EQ(M.error().Kind, RuntimeErrorKind::UseAfterFree);
}

TEST(Machine, DoubleUnlinkDetected) {
  auto C = compile(R"(
channel done: int
process p {
  $a: #array of int = #{ 4 -> 0 };
  unlink(a);
  unlink(a);
  out(done, 1);
}
process q { in(done, $x); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  M.run(1000);
  EXPECT_EQ(M.error().Kind, RuntimeErrorKind::UseAfterFree);
}

TEST(Machine, LinkKeepsObjectAlive) {
  auto C = compile(R"(
channel done: int
process p {
  $a: #array of int = #{ 4 -> 5 };
  link(a);
  unlink(a);
  assert(a[2] == 5);
  unlink(a);
  out(done, 1);
}
process q { in(done, $x); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

TEST(Machine, SendSharesThenExplicitUnlinkFrees) {
  // The paper's SM1 idiom: send a record containing data, then unlink the
  // local reference (Appendix B).
  auto C = compile(R"(
type dataT = array of int
type msgT = record of { dest: int, data: dataT }
channel c: msgT
channel done: int
process sender {
  $data: dataT = { 16 -> 42 };
  out(c, { 9, data });
  unlink(data);
  out(done, 1);
}
process receiver {
  in(c, { $dest, $d });
  assert(dest == 9);
  assert(d[15] == 42);
  unlink(d);
}
process j { in(done, $x); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(10000), StepResult::Halted) << M.error().Message;
  // Everything should be freed: the record shell and the array.
  EXPECT_EQ(M.heap().getLiveCount(), 0u);
}

TEST(Machine, DeepCopyTransfersBehaveIdentically) {
  // Verification mode (deep copies) must produce the same observable
  // behaviour as the refcount-sharing execution mode.
  auto C = compile(R"(
type dataT = array of int
type msgT = record of { dest: int, data: dataT }
channel c: msgT
channel done: int
process sender {
  $data: dataT = { 16 -> 42 };
  out(c, { 9, data });
  unlink(data);
  out(done, 1);
}
process receiver {
  in(c, { $dest, $d });
  assert(dest == 9);
  assert(d[15] == 42);
  unlink(d);
}
process j { in(done, $x); }
)");
  ASSERT_TRUE(C);
  MachineOptions Options;
  Options.DeepCopyTransfers = true;
  Machine M(C->Module, Options);
  M.start();
  EXPECT_EQ(M.run(10000), StepResult::Halted) << M.error().Message;
  EXPECT_EQ(M.heap().getLiveCount(), 0u);
}

TEST(Machine, BoundedHeapExhaustionDetectsLeak) {
  // Leaking in a loop exhausts a bounded object table (§5.2's leak
  // detection through objectId exhaustion).
  auto C = compile(R"(
channel done: int
process leaky {
  $i = 0;
  while (i < 100) {
    $a: #array of int = #{ 4 -> 0 };
    i = i + 1;
  }
  out(done, 1);
}
process j { in(done, $x); }
)");
  ASSERT_TRUE(C);
  MachineOptions Options;
  Options.MaxObjects = 16;
  Machine M(C->Module, Options);
  M.start();
  M.run(10000);
  EXPECT_EQ(M.error().Kind, RuntimeErrorKind::OutOfObjects);
}

TEST(Machine, CastProducesIndependentCopy) {
  auto C = compile(R"(
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
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
  EXPECT_EQ(M.heap().getLiveCount(), 0u);
}

TEST(Machine, DivisionByZeroDetected) {
  auto C = compile(R"(
channel c: int
process p { $x = 0; out(c, 10 / x); }
process q { in(c, $y); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  M.run(1000);
  EXPECT_EQ(M.error().Kind, RuntimeErrorKind::DivideByZero);
}

TEST(Machine, IndexOutOfBoundsDetected) {
  auto C = compile(R"(
channel c: int
process p { $a: #array of int = #{ 4 -> 0 }; out(c, a[9]); }
process q { in(c, $y); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  M.run(1000);
  EXPECT_EQ(M.error().Kind, RuntimeErrorKind::IndexOutOfBounds);
}

TEST(Machine, InvalidUnionFieldAccessDetected) {
  auto C = compile(R"(
type uT = union of { a: int, b: int }
channel c: uT
process p { out(c, { a |> 5 }); }
process q { in(c, $u); assert(u.b == 5); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  M.run(1000);
  EXPECT_EQ(M.error().Kind, RuntimeErrorKind::InvalidUnionField);
}

TEST(Machine, QuiescentWhenNoPartnerExists) {
  auto C = compile(R"(
channel c: int
channel d: int
process p { in(c, $x); out(d, x); }
process q { in(d, $y); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Quiescent);
  EXPECT_FALSE(M.error());
}

TEST(Machine, StatsCountContextSwitches) {
  auto C = compile(PipelineSource);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  M.run(10000);
  EXPECT_GT(M.stats().ContextSwitches, 0u);
  EXPECT_GT(M.stats().Instructions, 0u);
}

TEST(Machine, OptimizedModuleProducesSameResult) {
  OptOptions Options = OptOptions::all();
  auto C = compile(PipelineSource, &Options);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(10000), StepResult::Halted) << M.error().Message;
}

/// Records every observer callback for assertion.
struct CountingObserver : MachineObserver {
  uint64_t Steps = 0;
  uint64_t Sends = 0;
  uint64_t Recvs = 0;
  uint64_t Allocs = 0;
  StepResult Last = StepResult::Progress;

  void onStep(const Machine &, StepResult Result) override {
    ++Steps;
    Last = Result;
  }
  void onSend(const Machine &, uint32_t, int) override { ++Sends; }
  void onRecv(const Machine &, uint32_t, int) override { ++Recvs; }
  void onAlloc(const Machine &, const Value &) override { ++Allocs; }
};

TEST(Machine, ObserverSeesStepsAndRendezvous) {
  auto C = compile(PipelineSource);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  CountingObserver Obs;
  M.setObserver(&Obs);
  M.start();
  EXPECT_EQ(M.run(10000), StepResult::Halted);
  EXPECT_GT(Obs.Steps, 0u);
  EXPECT_EQ(Obs.Last, StepResult::Halted);
  // Ten rendezvous: five on c1, five on c2; each fires both callbacks.
  EXPECT_EQ(Obs.Sends, M.stats().Rendezvous);
  EXPECT_EQ(Obs.Recvs, M.stats().Rendezvous);
  EXPECT_EQ(Obs.Sends, 10u);
}

TEST(Machine, ObserverSeesAllocations) {
  const char *Source = R"(
type msgT = record of { a: int, b: int }
channel c: msgT
process w {
  $i = 0;
  while (i < 4) { out(c, { i, i }); i = i + 1; }
}
process r {
  $n = 0;
  while (n < 4) { in(c, { $a, $b }); n = n + 1; }
}
)";
  auto C = compile(Source);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  CountingObserver Obs;
  M.setObserver(&Obs);
  M.start();
  EXPECT_EQ(M.run(10000), StepResult::Halted) << M.error().Message;
  EXPECT_EQ(Obs.Allocs, M.heap().getTotalAllocations());
  EXPECT_GT(Obs.Allocs, 0u);
}

TEST(Machine, StepResultIsTheNamespaceScopeEnum) {
  auto C = compile(PipelineSource);
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  esp::StepResult R = M.step();
  EXPECT_TRUE(R == StepResult::Progress || R == StepResult::Quiescent);
}

TEST(Machine, AmbiguousDispatchWhicheverSideStartsThePairing) {
  // Sema cannot prove `{ a, $x }` and `{ b, $y }` disjoint, so it defers
  // the check to run time, and `{ 1, 5 }` matches both readers. With the
  // readers declared first, a reader starts the pairing.
  const std::string Chan = "channel c: record of { k: int, v: int }\n";
  const std::string Readers = "process ra { $a = 1; in(c, { a, $x }); }\n"
                              "process rb { $b = 1; in(c, { b, $y }); }\n";
  const std::string Writer = "process w { out(c, { 1, 5 }); }\n";
  for (bool ReadersFirst : {true, false}) {
    auto C = compile(Chan + (ReadersFirst ? Readers + Writer
                                          : Writer + Readers));
    ASSERT_TRUE(C);
    Machine M(C->Module, MachineOptions());
    M.start();
    EXPECT_EQ(M.run(1000), StepResult::Errored);
    EXPECT_EQ(M.error().Kind, RuntimeErrorKind::AmbiguousDispatch)
        << (ReadersFirst ? "readers first" : "writer first");
  }
}

TEST(Machine, IdleScanFindsEveryInitialPair) {
  // After start() two rendezvous are enabled at once (a-b and c-d); the
  // idle scan pairs only the first it finds, so it must scan again while
  // a scan pairs. b-e is enabled only by a-b and pairs from b's own
  // tryPair.
  auto C = compile(R"(
channel ab: int
channel cd: int
channel be: int
process a { out(ab, 1); }
process b { in(ab, $x); out(be, x + 1); }
process c { out(cd, 3); }
process d { in(cd, $y); assert(y == 3); }
process e { in(be, $z); assert(z == 2); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  ASSERT_FALSE(M.error()) << M.error().Message;
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
  for (unsigned P = 0; P != M.numProcesses(); ++P)
    EXPECT_EQ(M.proc(P).St, ProcState::Status::Done) << "process " << P;
  const ExecStats &S = M.stats();
  EXPECT_EQ(S.Instructions, 19u);
  EXPECT_EQ(S.ContextSwitches, 5u);
  EXPECT_EQ(S.Rendezvous, 3u);
  EXPECT_EQ(S.ExternalDeliveries, 0u);
  EXPECT_EQ(S.ExternalConsumes, 0u);
  EXPECT_EQ(S.PollRounds, 0u);
  EXPECT_EQ(S.PatternMatchesTried, 9u);
}

/// An always-ready external writer that logs \p Tag each time a message
/// of its is delivered.
class TaggedWriter : public ExternalWriter {
public:
  TaggedWriter(std::vector<int> &Log, int Tag) : Log(Log), Tag(Tag) {}
  int isReady() override { return 1; }
  void produce(int, Heap &, std::vector<Value> &Out) override {
    Out.push_back(Value::makeInt(Tag));
  }
  void accepted(int) override { Log.push_back(Tag); }

private:
  std::vector<int> &Log;
  int Tag;
};

TEST(Machine, ExternalPollOrderFollowsRotor) {
  // Channel ids are declaration indices: the bound writers sit on ids 1
  // and 3 of five, around id 2, whose interface stays unbound. Polling
  // starts at the first bound id at or after the rotor (modulo five) and
  // wraps.
  auto C = compile(R"(
channel c0: int
channel xa: int
interface XA(out xa) { Msg( $v ) }
channel c2: int
interface XC(out c2) { Msg( $v ) }
channel xb: int
interface XB(out xb) { Msg( $v ) }
channel c4: int
process ra { while (true) { in(xa, $v); } }
process rb { while (true) { in(xb, $v); } }
process idle {
  alt {
    case( in(c0, $a)) { }
    case( in(c2, $b)) { }
    case( in(c4, $d)) { }
  }
}
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  std::vector<int> Log;
  M.bindWriter("XA", std::make_unique<TaggedWriter>(Log, 1));
  M.bindWriter("XB", std::make_unique<TaggedWriter>(Log, 3));
  M.start();
  for (unsigned I = 0; I != 20; ++I)
    ASSERT_EQ(M.step(), StepResult::Progress) << "step " << I;
  // Every step is an idle poll that delivers, so the rotor (1, 2, 3, ...
  // at the successive polls) picks the channel: ids 1, 3, 3, then a wrap
  // to 1 from rotor 4 and 0.
  EXPECT_EQ(Log, (std::vector<int>{1, 3, 3, 1, 1, 1, 3, 3, 1, 1,
                                   1, 3, 3, 1, 1, 1, 3, 3, 1, 1}));
  EXPECT_EQ(M.stats().PollRounds, 20u);
}

/// An external reader that logs \p Tag for each message it takes, and
/// takes messages only while Open.
class GatedReader : public ExternalReader {
public:
  GatedReader(std::vector<int> &Log, int Tag) : Log(Log), Tag(Tag) {}
  bool Open = false;
  bool isReady() override { return Open; }
  void consume(int, Heap &, const std::vector<Value> &) override {
    Log.push_back(Tag);
  }

private:
  std::vector<int> &Log;
  int Tag;
};

TEST(Machine, ReadyExternalReaderPrecedesWriterPoll) {
  // src stays blocked on its external reader while that reader is
  // closed. Once it opens, the idle loop hands src's message over before
  // it polls the always-ready writer, and that costs no poll round.
  auto C = compile(R"(
channel xi: int
interface XI(out xi) { Msg( $v ) }
channel xo: int
interface XO(in xo) { Msg( $v ) }
process sink { while (true) { in(xi, $v); } }
process src {
  $i = 0;
  while (true) { out(xo, i); i = i + 1; }
}
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  std::vector<int> Log;
  M.bindWriter("XI", std::make_unique<TaggedWriter>(Log, 1));
  auto Reader = std::make_unique<GatedReader>(Log, 2);
  GatedReader &Gate = *Reader;
  M.bindReader("XO", std::move(Reader));
  M.start();
  for (unsigned I = 0; I != 3; ++I)
    ASSERT_EQ(M.step(), StepResult::Progress) << "step " << I;
  Gate.Open = true;
  for (unsigned I = 0; I != 4; ++I)
    ASSERT_EQ(M.step(), StepResult::Progress) << "step " << I;
  // Three writer deliveries (tag 1) while the reader is closed. Then src
  // feeds the reader (tag 2) from the idle loop and, being ready again
  // at once, from its own tryPair at every later step.
  EXPECT_EQ(Log, (std::vector<int>{1, 1, 1, 2, 2, 2, 2, 2}));
  EXPECT_EQ(M.stats().PollRounds, 3u);
}

//===----------------------------------------------------------------------===//
// Expression evaluation: fused ops, the fixed stack, integer overflow
//===----------------------------------------------------------------------===//

/// A runtime fault as a test compares it: kind, message, decoded position.
struct FaultSite {
  RuntimeErrorKind Kind = RuntimeErrorKind::None;
  std::string Message;
  unsigned Line = 0;
  unsigned Column = 0;

  friend bool operator==(const FaultSite &, const FaultSite &) = default;
  friend std::ostream &operator<<(std::ostream &OS, const FaultSite &F) {
    return OS << runtimeErrorKindName(F.Kind) << " '" << F.Message << "' at "
              << F.Line << ":" << F.Column;
  }
};

/// Runs \p Source, unoptimized and optimized, to its first fault; both
/// lowerings must fault alike.
FaultSite runToFault(const std::string &Source) {
  FaultSite Sites[2];
  for (int Optimized = 0; Optimized != 2; ++Optimized) {
    OptOptions Options = OptOptions::all();
    auto C = compile(Source, Optimized ? &Options : nullptr);
    if (!C)
      return {};
    Machine M(C->Module, MachineOptions());
    M.start();
    M.run(1000);
    DecodedLoc Loc = C->SM.decode(M.error().Loc);
    Sites[Optimized] = {M.error().Kind, M.error().Message, Loc.Line,
                        Loc.Column};
  }
  EXPECT_EQ(Sites[0], Sites[1]) << "optimized lowering faults differently";
  return Sites[0];
}

/// A reader for the single value a fault program sends, and the program
/// text around the sender's body.
std::string faultProgram(const std::string &Body) {
  return "channel c: int\nprocess q { in(c, $r); }\nprocess p {\n  $k = 0;\n" +
         Body + "}\n";
}

// Each expected fault is the one the plain, unfused ops raise (kind,
// message and location): a fused op names the operand expression that
// the plain op it replaces would have named.
TEST(MachineEval, FusedOpsFaultLikeThePlainOps) {
  // `x + 1` with x uninitialized (LoadSlot; PushInt; Add -> SlotImm).
  EXPECT_EQ(runToFault(faultProgram("  if (k == 1) { $x = 5; }\n"
                                    "  out(c, x + 1);\n")),
            (FaultSite{RuntimeErrorKind::UninitializedRead,
                       "read of uninitialized variable 'x'", 6, 10}));
  // `x < y` with y uninitialized (LoadSlot; LoadSlot; Lt -> BinSlot).
  EXPECT_EQ(runToFault(faultProgram("  $x = 1;\n"
                                    "  if (k == 1) { $y = 5; }\n"
                                    "  if (x < y) { out(c, 1); }\n")),
            (FaultSite{RuntimeErrorKind::UninitializedRead,
                       "read of uninitialized variable 'y'", 7, 11}));
  // `a[i]` with a, then i, uninitialized (-> SlotIndex).
  EXPECT_EQ(runToFault(faultProgram(
                "  if (k == 1) { $a: #array of int = #{ 4 -> 0 }; }\n"
                "  $i = 2;\n"
                "  out(c, a[i]);\n")),
            (FaultSite{RuntimeErrorKind::UninitializedRead,
                       "read of uninitialized variable 'a'", 7, 10}));
  EXPECT_EQ(runToFault(faultProgram(
                "  $a: #array of int = #{ 4 -> 0 };\n"
                "  if (k == 1) { $i = 2; }\n"
                "  out(c, a[i]);\n")),
            (FaultSite{RuntimeErrorKind::UninitializedRead,
                       "read of uninitialized variable 'i'", 7, 12}));
  // `a[i]` out of bounds.
  EXPECT_EQ(runToFault(faultProgram("  $a: #array of int = #{ 4 -> 0 };\n"
                                    "  $i = 9;\n"
                                    "  out(c, a[i]);\n")),
            (FaultSite{RuntimeErrorKind::IndexOutOfBounds,
                       "index 9 out of bounds for array of 4", 7, 11}));
  // `x / 0`: a zero divisor never fuses.
  EXPECT_EQ(runToFault(faultProgram("  $x = 7;\n"
                                    "  out(c, x / 0);\n")),
            (FaultSite{RuntimeErrorKind::DivideByZero, "division by zero", 6,
                       12}));
}

TEST(MachineEval, DeepExpressionFitsTheCompiledStackBound) {
  // 40 terms nested to the right keep 40 operands on the stack; nested to
  // the left they fold into a chain of fused ops one entry deep.
  std::string Right = "x", Left = "x";
  for (int I = 40; I >= 1; --I) {
    Right = std::to_string(I) + " + (" + Right + ")";
    Left = "(" + Left + ") + " + std::to_string(I);
  }
  auto C = compile("channel c: int\n"
                   "process p { $x = 5; out(c, " + Right + "); out(c, " +
                   Left + "); }\n"
                   "process q { in(c, $a); in(c, $b);\n"
                   "  assert(a == 825); assert(b == 825); }\n");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  EXPECT_GE(M.compiled().MaxEvalDepth, 40u);
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

TEST(MachineEval, IntegerOverflowWraps) {
  // INT64_MIN / -1 and % -1 through the plain ops (divisor in a slot) and
  // the fused ones (constant divisor), and wrapping + - * and unary -.
  auto C = compile(R"(
const NEG1 = 0 - 1;
channel c: int
process p {
  $x = 0 - 9223372036854775807 - 1;
  $m = 0 - 1;
  out(c, x / m);
}
process q {
  in(c, $y);
  $x = 0 - 9223372036854775807 - 1;
  $m = NEG1;
  $big = 9223372036854775807;
  assert(y == x);
  assert(x % m == 0);
  assert(x / NEG1 == x);
  assert(x % NEG1 == 0);
  assert(-x == x);
  assert(big + 1 == x);
  assert(x - 1 == big);
  assert(big * 2 == 0 - 2);
}
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

} // namespace
