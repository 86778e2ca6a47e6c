//===--- test_sema.cpp - Semantic checker unit tests --------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <limits>

using namespace esp;
using namespace esp::test;

namespace {

//===----------------------------------------------------------------------===//
// Constants
//===----------------------------------------------------------------------===//

TEST(Sema, ConstEvaluation) {
  auto C = compile(R"(
const A = 4;
const B = A * 3 + 2;
const FLAG = A < B;
channel c: int
process p { out(c, B); }
process q { in(c, $x); assert(x == 14); assert(FLAG); }
)");
  ASSERT_TRUE(C);
  EXPECT_EQ(C->Prog->findConst("B")->Value, 14);
  EXPECT_EQ(C->Prog->findConst("FLAG")->Value, 1);
}

TEST(Sema, ConstArithmeticWraps) {
  // Two's-complement wrap, as the machine computes at run time; the
  // division used to trap (SIGFPE) in the folder.
  auto C = compile(R"(
const MIN = 0 - 9223372036854775807 - 1;
const QUOT = MIN / (0 - 1);
const REM = MIN % (0 - 1);
const SUM = 9223372036854775807 + 1;
const PROD = 9223372036854775807 * 2;
const NEG = -MIN;
channel c: int
process p { out(c, QUOT); }
process q { in(c, $x); assert(x == MIN); }
)");
  ASSERT_TRUE(C);
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(C->Prog->findConst("QUOT")->Value, Min);
  EXPECT_EQ(C->Prog->findConst("REM")->Value, 0);
  EXPECT_EQ(C->Prog->findConst("SUM")->Value, Min);
  EXPECT_EQ(C->Prog->findConst("PROD")->Value, -2);
  EXPECT_EQ(C->Prog->findConst("NEG")->Value, Min);
}

TEST(Sema, NonConstantInitializerRejected) {
  expectDiagnostic("const N = 1 / 0;\nchannel c: int\n"
                   "process p { out(c, 1); }\nprocess q { in(c, $x); }",
                   "not a compile-time constant");
}

TEST(Sema, AggregateConstantRejected) {
  expectDiagnostic("const A = { 4 -> 0 };\nchannel c: int\n"
                   "process p { out(c, 1); }\nprocess q { in(c, $x); }",
                   "must be int or bool");
}

//===----------------------------------------------------------------------===//
// Statement-level type inference (§4.1)
//===----------------------------------------------------------------------===//

TEST(Sema, TypeInferenceFromInitializer) {
  auto C = compile(R"(
channel c: int
process p {
  $i = 45;
  $b = true;
  $a = { 4 -> i };
  out(c, a[0]);
  unlink(a);
}
process q { in(c, $x); }
)");
  ASSERT_TRUE(C);
  const ProcessDecl *P = C->Prog->findProcess("p");
  ASSERT_TRUE(P);
  EXPECT_TRUE(P->Vars[0]->VarType->isInt());
  EXPECT_TRUE(P->Vars[1]->VarType->isBool());
  EXPECT_TRUE(P->Vars[2]->VarType->isArray());
}

TEST(Sema, AnnotationMismatchRejected) {
  expectDiagnostic("channel c: int\nprocess p { $i: bool = 7; out(c, 1); }\n"
                   "process q { in(c, $x); }",
                   "does not match the declared type");
}

TEST(Sema, RecordLiteralNeedsExpectedType) {
  expectDiagnostic("channel c: int\nprocess p { $r = { 1, 2 }; out(c, 1); }\n"
                   "process q { in(c, $x); }",
                   "cannot infer the type of this record literal");
}

TEST(Sema, RecordLiteralArityChecked) {
  expectDiagnostic(R"(
type rT = record of { a: int, b: int }
channel c: rT
process p { out(c, { 1, 2, 3 }); }
process q { in(c, $r); }
)",
                   "3 values but type has 2 fields");
}

TEST(Sema, UnionLiteralUnknownFieldRejected) {
  expectDiagnostic(R"(
type uT = union of { a: int }
channel c: uT
process p { out(c, { nope |> 1 }); }
process q { in(c, $u); }
)",
                   "no field named 'nope'");
}

TEST(Sema, UndeclaredNameRejected) {
  expectDiagnostic("channel c: int\nprocess p { out(c, ghost); }\n"
                   "process q { in(c, $x); }",
                   "use of undeclared name 'ghost'");
}

TEST(Sema, SlotSharingRequiresConsistentTypes) {
  // All uses of a name in one process share a storage slot (§4.3);
  // conflicting types are rejected.
  expectDiagnostic(R"(
channel c: int
channel b: bool
process p {
  alt {
    case( in( c, $v)) { }
    case( in( b, $v)) { }
  }
}
process w { out(c, 1); out(b, true); }
)",
                   "must agree");
}

TEST(Sema, SlotSharingAcrossAltCasesWorks) {
  // pageTable binds $vAddr in two different alt cases (Appendix B).
  auto C = compile(R"(
channel a: int
channel b: int
channel r: int
process p {
  while (true) {
    alt {
      case( in( a, $v)) { out(r, v); }
      case( in( b, $v)) { out(r, v + 100); }
    }
  }
}
process w { out(a, 1); out(b, 2); in(r, $x); in(r, $y); }
)");
  ASSERT_TRUE(C);
  // One shared slot for $v.
  EXPECT_EQ(C->Prog->findProcess("p")->NumSlots, 1u);
}

//===----------------------------------------------------------------------===//
// Mutability (§4.1/§4.2)
//===----------------------------------------------------------------------===//

TEST(Sema, StoreIntoImmutableArrayRejected) {
  expectDiagnostic(R"(
channel c: int
process p {
  $a: array of int = { 4 -> 0 };
  a[0] = 1;
  out(c, 1);
}
process q { in(c, $x); }
)",
                   "immutable");
}

TEST(Sema, StoreIntoImmutableRecordFieldRejected) {
  expectDiagnostic(R"(
type rT = record of { a: int }
channel c: rT
process p {
  in(c, $r);
  r.a = 5;
}
process w { out(c, { 1 }); }
)",
                   "immutable");
}

TEST(Sema, MutableStoresAccepted) {
  auto C = compile(R"(
channel c: int
type mrT = #record of { a: int }
process p {
  $a: #array of int = #{ 4 -> 0 };
  a[0] = 1;
  $r: mrT = #{ 5 };
  r.a = 6;
  out(c, a[0] + r.a);
  unlink(a);
  unlink(r);
}
process q { in(c, $x); assert(x == 7); }
)");
  ASSERT_TRUE(C);
}

TEST(Sema, ChannelOfMutableTypeRejected) {
  expectDiagnostic("channel c: #array of int\n"
                   "process p { $a: #array of int = #{ 1 -> 0 }; out(c, a); }\n"
                   "process q { in(c, $x); }",
                   "only immutable objects can be sent");
}

TEST(Sema, ChannelOfNestedMutableTypeRejected) {
  expectDiagnostic(R"(
type innerT = #array of int
type outerT = record of { data: innerT }
channel c: outerT
process p { in(c, $x); }
process q { in(c, $y); }
)",
                   "only immutable objects can be sent");
}

TEST(Sema, CastFlipsDeepMutability) {
  auto C = compile(R"(
type rT = record of { data: array of int }
channel c: rT
process p {
  $m: #record of { data: #array of int } = #{ #{ 2 -> 7 } };
  $frozen = cast(m);
  out(c, frozen);
  unlink(m);
  unlink(frozen);
}
process q { in(c, $r); assert(r.data[0] == 7); unlink(r); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, MachineOptions());
  M.start();
  EXPECT_EQ(M.run(1000), StepResult::Halted) << M.error().Message;
}

TEST(Sema, CastOfScalarRejected) {
  expectDiagnostic("channel c: int\nprocess p { out(c, cast(3)); }\n"
                   "process q { in(c, $x); }",
                   "scalar casts are meaningless");
}

TEST(Sema, LinkOfScalarRejected) {
  expectDiagnostic("channel c: int\nprocess p { $i = 1; link(i); out(c, 1); }\n"
                   "process q { in(c, $x); }",
                   "link/unlink operates on heap objects");
}

//===----------------------------------------------------------------------===//
// Channels, directions, guards
//===----------------------------------------------------------------------===//

TEST(Sema, UnknownChannelRejected) {
  expectDiagnostic("process p { out(ghostC, 1); }", "unknown channel");
}

TEST(Sema, ProcessCannotReadExternalReaderChannel) {
  expectDiagnostic(R"(
channel c: int
interface I(in c) { Got( $v ) }
process p { in(c, $x); }
)",
                   "has an external reader");
}

TEST(Sema, ProcessCannotWriteExternalWriterChannel) {
  expectDiagnostic(R"(
channel c: int
interface I(out c) { Put( $v ) }
process p { out(c, 1); }
process q { in(c, $x); }
)",
                   "has an external writer");
}

TEST(Sema, ChannelCannotHaveTwoInterfaces) {
  expectDiagnostic(R"(
channel c: int
interface A(out c) { Put( $v ) }
interface B(in c) { Got( $v ) }
process p { in(c, $x); }
)",
                   "external reader or writer but not both");
}

TEST(Sema, GuardMustBeBool) {
  expectDiagnostic(R"(
channel c: int
process p {
  alt { case( 1 + 1, in( c, $v)) { } }
}
process w { out(c, 1); }
)",
                   "guard must be bool");
}

TEST(Sema, GuardMayNotAllocate) {
  expectDiagnostic(R"(
channel c: int
process p {
  $a: array of int = { 1 -> 0 };
  alt { case( cast(a)[0] == 0, in( c, $v)) { } }
}
process w { out(c, 1); }
)",
                   "must not allocate");
}

TEST(Sema, OutTypeMustMatchChannel) {
  expectDiagnostic("channel c: int\nprocess p { out(c, true); }\n"
                   "process q { in(c, $x); }",
                   "sending");
}

//===----------------------------------------------------------------------===//
// Patterns
//===----------------------------------------------------------------------===//

TEST(Sema, PatternArityMismatchRejected) {
  expectDiagnostic(R"(
type rT = record of { a: int, b: int }
channel c: rT
process p { in(c, { $a }); }
process w { out(c, { 1, 2 }); }
)",
                   "type has 2 fields");
}

TEST(Sema, AggregateEqualityMatchRejected) {
  expectDiagnostic(R"(
type rT = record of { data: array of int }
channel c: rT
process p {
  $d: array of int = { 1 -> 0 };
  in(c, { d });
}
process w { out(c, { { 1 -> 0 } }); }
)",
                   "must be scalar");
}

TEST(Sema, SelfIdOutsideProcessRejected) {
  expectDiagnostic("const X = @;\nchannel c: int\nprocess p { out(c, 1); }\n"
                   "process q { in(c, $x); }",
                   "may only appear inside a process");
}

TEST(Sema, InterfacePatternConstantsMustBeStatic) {
  expectDiagnostic(R"(
type rT = record of { tag: int, v: int }
channel c: rT
interface I(out c) { Put( { @, $v } ) }
process p { in(c, { $tag, $v }); }
)",
                   "compile-time constants");
}

//===----------------------------------------------------------------------===//
// Pattern-dispatch analysis (§4.2)
//===----------------------------------------------------------------------===//

TEST(PatternDispatch, OverlappingReadersRejected) {
  expectDiagnostic(R"(
channel c: int
process a { in(c, $x); }
process b { in(c, $y); }
process w { out(c, 1); }
)",
                   "must be disjoint");
}

TEST(PatternDispatch, DisjointConstantsAccepted) {
  auto C = compile(R"(
type rT = record of { tag: int, v: int }
channel c: rT
channel d: int
process a { in(c, { 0, $v }); out(d, v); }
process b { in(c, { 1, $v }); out(d, v); }
process w { out(c, { 0, 10 }); out(c, { 1, 20 }); in(d, $r1); in(d, $r2); }
)");
  EXPECT_TRUE(C != nullptr);
}

TEST(PatternDispatch, DisjointUnionArmsAccepted) {
  auto C = compile(R"(
type uT = union of { a: int, b: int }
channel c: uT
channel d: int
process pa { in(c, { a |> $x }); out(d, x); }
process pb { in(c, { b |> $y }); out(d, y); }
process w { out(c, { a |> 1 }); out(c, { b |> 2 }); in(d, $r); in(d, $s); }
)");
  EXPECT_TRUE(C != nullptr);
}

TEST(PatternDispatch, OverlappingUnionArmsRejected) {
  expectDiagnostic(R"(
type uT = union of { a: int, b: int }
channel c: uT
process pa { in(c, { a |> $x }); }
process pb { in(c, { a |> $y }); }
process w { out(c, { a |> 1 }); }
)",
                   "must be disjoint");
}

TEST(PatternDispatch, SelfIdPatternsAreDisjointPerProcess) {
  auto C = compile(R"(
type rT = record of { ret: int, v: int }
channel reply: rT
channel done: int
process a { in(reply, { @, $v }); out(done, v); }
process b { in(reply, { @, $v }); out(done, v); }
process server { out(reply, { 0, 10 }); out(reply, { 1, 20 });
                 in(done, $x); in(done, $y); }
)");
  EXPECT_TRUE(C != nullptr);
}

TEST(PatternDispatch, SameProcessMayReuseItsPattern) {
  auto C = compile(R"(
channel c: int
channel d: int
process a {
  in(c, $x);
  out(d, x);
  in(c, $y);
  out(d, y);
}
process w { out(c, 1); out(c, 2); in(d, $p); in(d, $q); }
)");
  EXPECT_TRUE(C != nullptr);
}

TEST(PatternDispatch, NonExhaustivePatternsWarn) {
  Compilation C;
  C.Prog = Parser::parse(C.SM, *C.Diags, "warn.esp", R"(
type uT = union of { a: int, b: int }
channel c: uT
channel d: int
process pa { in(c, { a |> $x }); out(d, x); }
process w { out(c, { a |> 1 }); in(d, $r); }
)");
  ASSERT_TRUE(C.Prog);
  EXPECT_TRUE(checkProgram(*C.Prog, *C.Diags)); // Warning, not error.
  EXPECT_TRUE(C.Diags->containsMessage("may not be exhaustive"));
}

TEST(PatternDispatch, UnreadChannelWarns) {
  Compilation C;
  C.Prog = Parser::parse(C.SM, *C.Diags, "warn.esp", R"(
channel c: int
channel d: int
process p { out(c, 1); }
process q { in(d, $x); }
process w { out(d, 2); }
)");
  ASSERT_TRUE(C.Prog);
  EXPECT_TRUE(checkProgram(*C.Prog, *C.Diags));
  EXPECT_TRUE(C.Diags->containsMessage("written but never read"));
}

TEST(PatternDispatch, EmptyProgramRejected) {
  expectDiagnostic("channel c: int", "declares no processes");
}

} // namespace
