//===--- test_analysis.cpp - esplint static analyzer tests -----------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
// Each detector is exercised on a minimal seeded-defect program and on a
// corrected variant; the deadlock and leak detectors are cross-validated
// against the model checker on the same sources. The suite also covers
// the AbsPattern three-valued overlap edge cases the analyses rely on,
// and checks the built-in VMMC firmware stays finding-free.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "analysis/Analysis.h"
#include "analysis/CommGraph.h"
#include "frontend/PatternAnalysis.h"
#include "mc/ModelChecker.h"
#include "obs/Json.h"
#include "vmmc/EspFirmwareSource.h"

using namespace esp;
using namespace esp::test;

namespace {

AnalysisResult analyze(Compilation &C, AnalysisOptions Options = {}) {
  return analyzeProgram(*C.Prog, C.Module, Options);
}

bool hasFinding(const AnalysisResult &R, AnalysisKind Kind,
                AnalysisSeverity Severity, const std::string &Fragment) {
  for (const AnalysisFinding &F : R.Findings)
    if (F.Kind == Kind && F.Severity == Severity &&
        F.Message.find(Fragment) != std::string::npos)
      return true;
  return false;
}

std::string allMessages(const AnalysisResult &R) {
  std::string Out;
  for (const AnalysisFinding &F : R.Findings) {
    Out += analysisKindName(F.Kind);
    Out += ": ";
    Out += F.Message;
    Out += "\n";
  }
  return Out;
}

// A two-process rendezvous cycle: both start with `in`, each waiting for
// the value only the other's (never-reached) `out` would send.
const char *DeadlockSource = R"(
channel a: int
channel b: int
process p { in( a, $x); out( b, x); }
process q { in( b, $y); out( a, y); }
)";

// The corrected variant: q sends first, so the rendezvous chain runs to
// completion and both processes halt.
const char *DeadlockFixedSource = R"(
channel a: int
channel b: int
process p { in( a, $x); out( b, x); }
process q { out( a, 7); in( b, $y); }
)";

// p allocates a record, sends a copy, and halts still holding its
// reference: a static leak.
const char *LeakSource = R"(
type t = record of { v: int }
channel c: t
process p { $m: t = { 1 }; out( c, m); }
process q { in( c, $x); unlink(x); }
)";

const char *LeakFixedSource = R"(
type t = record of { v: int }
channel c: t
process p { $m: t = { 1 }; out( c, m); unlink(m); }
process q { in( c, $x); unlink(x); }
)";

} // namespace

//===----------------------------------------------------------------------===//
// Deadlock detection
//===----------------------------------------------------------------------===//

TEST(AnalysisDeadlock, TwoProcessInCycleIsReported) {
  auto C = compile(DeadlockSource);
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.numErrors(), 1u) << allMessages(R);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::Deadlock, AnalysisSeverity::Error,
                         "possible deadlock"))
      << allMessages(R);
  // The witness names the wait cycle and each blocked process.
  const AnalysisFinding *F = nullptr;
  for (const AnalysisFinding &Finding : R.Findings)
    if (Finding.Kind == AnalysisKind::Deadlock)
      F = &Finding;
  ASSERT_NE(F, nullptr);
  bool SawCycle = false, SawBlockedP = false;
  for (const AnalysisFinding::Note &N : F->Notes) {
    SawCycle |= N.Message.find("wait cycle") != std::string::npos;
    SawBlockedP |= N.Message.find("'p' is blocked") != std::string::npos;
  }
  EXPECT_TRUE(SawCycle);
  EXPECT_TRUE(SawBlockedP);
}

TEST(AnalysisDeadlock, CorrectedVariantIsClean) {
  auto C = compile(DeadlockFixedSource);
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.Findings.size(), 0u) << allMessages(R);
  EXPECT_FALSE(R.DeadlockSearchIncomplete);
}

TEST(AnalysisDeadlock, AgreesWithModelChecker) {
  // The static verdicts match SPIN-style exhaustive exploration on both
  // variants (the analyses aim at the same defects, §5, without a
  // harness).
  {
    auto C = compile(DeadlockSource);
    ASSERT_TRUE(C);
    McResult Mc = checkModel(C->Module, McOptions());
    EXPECT_TRUE(Mc.foundViolation());
    EXPECT_TRUE(Mc.Deadlock);
  }
  {
    auto C = compile(DeadlockFixedSource);
    ASSERT_TRUE(C);
    McResult Mc = checkModel(C->Module, McOptions());
    EXPECT_EQ(Mc.Verdict, McVerdict::OK) << Mc.report();
  }
}

TEST(AnalysisDeadlock, TerminationIsNotDeadlock) {
  // One side halts while the other still listens: quiescence, not a wait
  // cycle — the producer/consumer shape of examples/quickstart.
  auto C = compile(R"(
channel c: int
process producer {
  $i = 0;
  while (i < 3) { out( c, i); i = i + 1; }
}
process consumer {
  while (true) { in( c, $v); }
}
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.Findings.size(), 0u) << allMessages(R);
}

TEST(AnalysisDeadlock, ExternalInterfaceKeepsProcessLive) {
  // A server blocked on an external request channel is not deadlocked:
  // the environment is always willing to send (§4.5).
  auto C = compile(R"(
channel reqC: int
interface Req(out reqC) { Request( $v ) }
process server {
  while (true) { in( reqC, $r); }
}
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.Findings.size(), 0u) << allMessages(R);
}

TEST(AnalysisDeadlock, DisjointPatternsCannotRendezvous) {
  // Reader and writer use provably disjoint values: the pattern-aware
  // pairing sees the rendezvous can never fire, so both block forever.
  auto C = compile(R"(
channel c: int
channel d: int
process p { out( c, 1); }
process q { in( c, 2); out( d, 0); }
process r { in( d, $x); }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::Deadlock, AnalysisSeverity::Error,
                         "possible deadlock"))
      << allMessages(R);
}

TEST(AnalysisDeadlock, ConfigCapMarksSearchIncomplete) {
  auto C = compile(DeadlockFixedSource);
  ASSERT_TRUE(C);
  AnalysisOptions Options;
  Options.MaxConfigs = 1;
  AnalysisResult R = analyze(*C, Options);
  EXPECT_TRUE(R.DeadlockSearchIncomplete);
}

//===----------------------------------------------------------------------===//
// Link/unlink balance
//===----------------------------------------------------------------------===//

TEST(AnalysisLinkBalance, MissingUnlinkIsLeak) {
  auto C = compile(LeakSource);
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::LinkBalance, AnalysisSeverity::Error,
                         "never unlinked"))
      << allMessages(R);
}

TEST(AnalysisLinkBalance, CorrectedVariantIsClean) {
  auto C = compile(LeakFixedSource);
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.Findings.size(), 0u) << allMessages(R);
}

TEST(AnalysisLinkBalance, AgreesWithModelCheckerOnLeak) {
  {
    auto C = compile(LeakSource);
    ASSERT_TRUE(C);
    McResult Mc = checkModel(C->Module, McOptions());
    EXPECT_TRUE(Mc.foundViolation()) << Mc.report();
    EXPECT_GT(Mc.LeakedObjects, 0u) << Mc.report();
  }
  {
    auto C = compile(LeakFixedSource);
    ASSERT_TRUE(C);
    McResult Mc = checkModel(C->Module, McOptions());
    EXPECT_EQ(Mc.Verdict, McVerdict::OK) << Mc.report();
  }
}

TEST(AnalysisLinkBalance, DoubleUnlinkIsUnderflow) {
  auto C = compile(R"(
type t = record of { v: int }
channel c: t
process p { $m: t = { 1 }; out( c, m); unlink(m); unlink(m); }
process q { in( c, $x); unlink(x); }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::LinkBalance, AnalysisSeverity::Error,
                         "refcount underflow"))
      << allMessages(R);
}

TEST(AnalysisLinkBalance, LinkBalancesAnExtraUnlink) {
  auto C = compile(R"(
type t = record of { v: int }
channel c: t
process p { $m: t = { 1 }; link(m); out( c, m); unlink(m); unlink(m); }
process q { in( c, $x); unlink(x); }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.Findings.size(), 0u) << allMessages(R);
}

TEST(AnalysisLinkBalance, PathDependentReleaseIsWarning) {
  // Only one arm of a runtime branch unlinks: a may-leak at halt and a
  // may-underflow at the second unlink, both warnings, no errors.
  auto C = compile(R"(
type t = record of { v: int }
channel c: t
channel f: int
process p {
  $m: t = { 1 };
  out( c, m);
  in( f, $flag);
  if (flag == 1) { unlink(m); }
}
process q { in( c, $x); unlink(x); out( f, 1); }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.numErrors(), 0u) << allMessages(R);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::LinkBalance,
                         AnalysisSeverity::Warning, "may not be unlinked"))
      << allMessages(R);
}

TEST(AnalysisLinkBalance, ConstantGuardedUnlinkIsClean) {
  // The sliding-window idiom: a `const`-guarded release. The pruned CFG
  // keeps only the live arm, so KEEP = 1 balances exactly.
  auto C = compile(R"(
const KEEP = 1;
type t = record of { v: int }
channel c: t
process p {
  $m: t = { 1 };
  out( c, m);
  if (KEEP == 1) { unlink(m); }
}
process q { in( c, $x); unlink(x); }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.Findings.size(), 0u) << allMessages(R);
}

TEST(AnalysisLinkBalance, ReceiveBinderMustBeReleased) {
  // The receiver owns what it binds; re-receiving into the binder drops
  // the previous message. Back-to-back receives make the drop definite.
  auto C = compile(R"(
type t = record of { v: int }
channel c: t
process p {
  out( c, { 1 });
  out( c, { 2 });
}
process q {
  in( c, $x);
  in( c, $x);
  unlink(x);
}
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::LinkBalance,
                         AnalysisSeverity::Error, "drops the last reference"))
      << allMessages(R);
}

TEST(AnalysisLinkBalance, ReceiveInLoopIsMayDrop) {
  // In a loop the binder is empty on the first iteration and full on the
  // rest; the path-insensitive join makes the drop a warning, not an
  // error.
  auto C = compile(R"(
type t = record of { v: int }
channel c: t
process p {
  $i = 0;
  while (i < 2) { out( c, { i }); i = i + 1; }
}
process q {
  $j = 0;
  while (j < 2) { in( c, $x); j = j + 1; }
}
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::LinkBalance,
                         AnalysisSeverity::Warning, "drop"))
      << allMessages(R);
  EXPECT_EQ(R.numErrors(), 0u) << allMessages(R);
}

TEST(AnalysisLinkBalance, AliasedVariablesAreNotTracked) {
  // `n = m` makes the ownership ambiguous; the analysis gives up on both
  // rather than guess (path-insensitive, alias-free tracking only).
  auto C = compile(R"(
type t = record of { v: int }
channel c: t
process p {
  $m: t = { 1 };
  $n: t = m;
  out( c, n);
  unlink(m);
}
process q { in( c, $x); unlink(x); }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.Findings.size(), 0u) << allMessages(R);
}

//===----------------------------------------------------------------------===//
// Reachability / usefulness
//===----------------------------------------------------------------------===//

TEST(AnalysisReachability, CodeAfterInfiniteLoopIsUnreachable) {
  auto C = compile(R"(
channel c: int
process p { while (true) { out( c, 1); } out( c, 2); }
process q { while (true) { in( c, $x); } }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::Reachability,
                         AnalysisSeverity::Warning, "unreachable"))
      << allMessages(R);
  EXPECT_EQ(R.numErrors(), 0u);
}

TEST(AnalysisReachability, StaticallyFalseGuardIsReported) {
  auto C = compile(R"(
const ENABLE = 0;
channel c: int
process p {
  while (true) {
    alt {
      case( in( c, $x)) { }
      case( ENABLE == 1, in( c, 5)) { }
    }
  }
}
process q { while (true) { out( c, 1); } }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::Reachability,
                         AnalysisSeverity::Warning, "statically false"))
      << allMessages(R);
}

TEST(AnalysisReachability, ReceiveNoWriterEverMatchesIsDead) {
  // Writers exist but all send values disjoint from the receive pattern:
  // the dispatch case is dead (the pattern-dispatch view of §4.2).
  auto C = compile(R"(
channel c: int
process p { while (true) { out( c, 1); } }
process q {
  while (true) {
    alt {
      case( in( c, 1)) { }
      case( in( c, 3)) { }
    }
  }
}
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::Reachability,
                         AnalysisSeverity::Warning, "can never fire"))
      << allMessages(R);
}

TEST(AnalysisReachability, ChannelWithOnlyUnreachableReadersIsReported) {
  auto C = compile(R"(
channel c: int
channel d: int
process p { while (true) { out( c, 1); } }
process q { while (true) { in( c, $x); } in( d, $y); }
process r { while (true) { out( d, 2); } }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::Reachability,
                         AnalysisSeverity::Warning,
                         "all of its receives are unreachable"))
      << allMessages(R);
}

//===----------------------------------------------------------------------===//
// AbsPattern three-valued overlap edge cases
//===----------------------------------------------------------------------===//

TEST(AbsPatternOverlap, UnknownLeafYieldsUnknown) {
  AbsPattern Unknown;
  Unknown.K = AbsPattern::Unknown;
  AbsPattern Five;
  Five.K = AbsPattern::Const;
  Five.Value = 5;
  EXPECT_EQ(AbsPattern::overlap(Unknown, Five),
            AbsPattern::Overlap::Unknown);
}

TEST(AbsPatternOverlap, UnionArmsDiscriminate) {
  // Same arm with Unknown payloads: three-valued Unknown. Different
  // arms: definitely disjoint, regardless of payload.
  AbsPattern PayloadA;
  PayloadA.K = AbsPattern::Unknown;
  AbsPattern ArmA;
  ArmA.K = AbsPattern::Union;
  ArmA.Arm = 0;
  ArmA.Kids.push_back(PayloadA);

  AbsPattern ArmASame = ArmA;
  EXPECT_EQ(AbsPattern::overlap(ArmA, ArmASame),
            AbsPattern::Overlap::Unknown);

  AbsPattern ArmB = ArmA;
  ArmB.Arm = 1;
  EXPECT_EQ(AbsPattern::overlap(ArmA, ArmB), AbsPattern::Overlap::Disjoint);
}

TEST(AbsPatternOverlap, RecordsCombineChildVerdicts) {
  auto constPat = [](int64_t V) {
    AbsPattern P;
    P.K = AbsPattern::Const;
    P.Value = V;
    return P;
  };
  AbsPattern R1;
  R1.K = AbsPattern::Record;
  R1.Kids = {constPat(1), constPat(2)};
  AbsPattern R2;
  R2.K = AbsPattern::Record;
  R2.Kids = {constPat(1), constPat(3)};
  // One provably-disjoint component makes the whole record disjoint.
  EXPECT_EQ(AbsPattern::overlap(R1, R2), AbsPattern::Overlap::Disjoint);
  AbsPattern R3 = R1;
  EXPECT_EQ(AbsPattern::overlap(R1, R3),
            AbsPattern::Overlap::Overlapping);
}

TEST(AbsPatternOverlap, BindersCoverEverything) {
  auto C = compile(R"(
type u = union of { a: int, b: int }
channel c: u
process p { out( c, { a |> 1 }); }
process q { in( c, $x); unlink(x); }
)");
  ASSERT_TRUE(C);
  std::vector<ChannelReader> Readers =
      collectChannelReaders(*C->Prog, C->Prog->Channels[0].get());
  ASSERT_EQ(Readers.size(), 1u);
  EXPECT_TRUE(Readers[0].Abs.coversAll());
}

TEST(PatternAnalysisDiagnostics, ZeroReaderChannelWarns) {
  expectDiagnostic(R"(
channel c: int
process p { out( c, 1); }
)",
                   "never read");
}

//===----------------------------------------------------------------------===//
// Corpus: the analyses stay quiet on known-good programs
//===----------------------------------------------------------------------===//

TEST(AnalysisCorpus, VmmcFirmwareIsClean) {
  auto C = compile(vmmc::getVmmcEspSource());
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_EQ(R.numErrors(), 0u) << allMessages(R);
  EXPECT_EQ(R.numWarnings(), 0u) << allMessages(R);
  EXPECT_FALSE(R.DeadlockSearchIncomplete);
}

//===----------------------------------------------------------------------===//
// Interference (independence analysis)
//===----------------------------------------------------------------------===//

TEST(AnalysisInterference, SelfRendezvousChannelWarns) {
  // Both endpoints of `a` live in one process: rendezvous requires two
  // parties, so the send can never complete.
  auto C = compile(R"(
channel a: int
process p { out( a, 1); in( a, $x); }
)");
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::Interference,
                         AnalysisSeverity::Warning,
                         "self-rendezvous deadlock"))
      << allMessages(R);
}

TEST(AnalysisInterference, TwoPartyChannelIsClean) {
  auto C = compile(DeadlockFixedSource);
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  for (const AnalysisFinding &F : R.Findings)
    EXPECT_NE(F.Kind, AnalysisKind::Interference) << allMessages(R);
}

TEST(AnalysisInterference, ReportSummarizesConflictClasses) {
  auto C = compile(DeadlockFixedSource);
  ASSERT_TRUE(C);
  AnalysisOptions Options;
  Options.ReportInterference = true;
  AnalysisResult R = analyze(*C, Options);
  EXPECT_TRUE(hasFinding(R, AnalysisKind::Interference, AnalysisSeverity::Note,
                         "statically commuting"))
      << allMessages(R);
}

//===----------------------------------------------------------------------===//
// Reporting and rendering
//===----------------------------------------------------------------------===//

TEST(AnalysisReporting, DemoteErrorsReportsWarnings) {
  auto C = compile(LeakSource);
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  ASSERT_GT(R.numErrors(), 0u);
  reportFindings(R, *C->Diags, /*DemoteErrors=*/true);
  EXPECT_EQ(C->Diags->getNumErrors(), 0u);
  EXPECT_GT(C->Diags->getNumWarnings(), 0u);
  EXPECT_TRUE(C->Diags->containsMessage("[link-balance]"));
}

TEST(AnalysisReporting, TextRenderingNamesDetector) {
  auto C = compile(DeadlockSource);
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  std::string Text = renderFindingsText(R, C->SM);
  EXPECT_NE(Text.find("error: [deadlock]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("test.esp:"), std::string::npos) << Text;
}

TEST(AnalysisReporting, JsonRenderingIsStructured) {
  auto C = compile(LeakSource);
  ASSERT_TRUE(C);
  AnalysisResult R = analyze(*C);
  std::string Json = renderFindingsJson(R, C->SM).dump(2);
  obs::JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(obs::parseJson(Json, Doc, Error)) << Error << "\n" << Json;
  const obs::JsonValue &Findings = Doc.get("findings");
  ASSERT_TRUE(Findings.isArray()) << Json;
  bool SawLeak = false;
  for (size_t I = 0; I != Findings.size(); ++I) {
    const obs::JsonValue &F = Findings.at(I);
    SawLeak |= F.get("detector").asString() == "link-balance" &&
               F.get("severity").asString() == "error" &&
               F.get("location").get("line").asInt() > 0;
  }
  EXPECT_TRUE(SawLeak) << Json;
}
