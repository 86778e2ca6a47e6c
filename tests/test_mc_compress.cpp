//===--- test_mc_compress.cpp - State storage tests -------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the model checker's state-storage layer: canonical
/// serialization and the visited-set backends (exact, hash compaction,
/// bit-state).
///
//===----------------------------------------------------------------------===//

#include "mc/ModelChecker.h"
#include "mc/StateStore.h"
#include "support/StringExtras.h"
#include "vmmc/EspFirmwareSource.h"
#include "TestHelpers.h"

#include <algorithm>
#include <random>

using namespace esp;
using namespace esp::test;

namespace {

MachineOptions verifyOptions() {
  MachineOptions O;
  O.MaxObjects = 256;
  O.ReuseObjectIds = true;
  O.DeepCopyTransfers = true;
  return O;
}

//===----------------------------------------------------------------------===//
// Visited set (VisitedSet.*) unit tests, single-threaded;
// test_mc_parallel.cpp races them.
//===----------------------------------------------------------------------===//

TEST(VisitedSet, ExactDetectsDuplicates) {
  ConcurrentVisitedSet V = ConcurrentVisitedSet::exact();
  EXPECT_TRUE(V.insert("s1"));
  EXPECT_TRUE(V.insert("s2"));
  EXPECT_FALSE(V.insert("s1"));
  EXPECT_EQ(V.size(), 2u);
  EXPECT_GT(V.bytes(), 0u);
}

TEST(VisitedSet, HashCompactionDistinguishesDistinctKeys) {
  ConcurrentVisitedSet V = ConcurrentVisitedSet::hashCompact();
  for (int I = 0; I != 1000; ++I) {
    std::string Key = "state-" + std::to_string(I);
    EXPECT_TRUE(V.insert(Key)) << "i=" << I;
    EXPECT_FALSE(V.insert(Key)) << "i=" << I;
  }
  EXPECT_EQ(V.size(), 1000u);
  // Fingerprints are fixed-size: far cheaper than the full keys.
  EXPECT_LT(V.bytes(), ConcurrentVisitedSet::exact().bytes() + 1000 * 64);
}

TEST(VisitedSet, BitStateUsesFixedTable) {
  ConcurrentVisitedSet V =
      ConcurrentVisitedSet::bitState(clampedBitStateBits(10));
  size_t TableBytes = V.bytes();
  EXPECT_EQ(TableBytes, (1u << 10) / 8);
  uint64_t Inserted = 0;
  for (int I = 0; I != 200; ++I)
    if (V.insert("state-" + std::to_string(I)))
      ++Inserted;
  // Tiny table: most states insert, a few may collide, memory is flat.
  EXPECT_GT(Inserted, 150u);
  EXPECT_EQ(V.bytes(), TableBytes);
}

//===----------------------------------------------------------------------===//
// Canonical serialization
//===----------------------------------------------------------------------===//

TEST(StateSerialization, ScratchOverloadMatchesValueReturn) {
  auto C = compile(R"(
channel c: array of int
process p { $d: array of int = { 3 -> 9 }; out(c, d); unlink(d); }
process q { in(c, $x); unlink(x); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, verifyOptions());
  M.start();
  std::string Scratch = "stale-contents";
  M.serializeState(Scratch);
  EXPECT_EQ(Scratch, M.serializeState());
}

TEST(StateSerialization, ComponentsTrackStateIdentity) {
  auto C = compile(R"(
channel c: array of int
process p { $d: array of int = { 3 -> 9 }; out(c, d); unlink(d); }
process q { in(c, $x); in(c, $y); }
)");
  ASSERT_TRUE(C);
  Machine M(C->Module, verifyOptions());
  M.start();

  // The vector covers every component of the state: process control
  // data and the reachable heap objects.
  std::string Vec1, Vec2;
  size_t N1 = M.serializeState(Vec1);
  EXPECT_GE(N1, 1u) << "p holds a live array at its block point";

  // Serialization is a pure observation: repeating it is identical.
  size_t N2 = M.serializeState(Vec2);
  EXPECT_EQ(N1, N2);
  EXPECT_EQ(Vec1, Vec2);

  // Advancing the machine changes the vector; restoring the snapshot
  // restores it exactly.
  Machine::Snapshot Snap = M.snapshot();
  std::vector<Move> Moves = M.enumerateMoves();
  ASSERT_FALSE(Moves.empty());
  M.applyMove(Moves[0]);
  EXPECT_NE(M.serializeState(), Vec1);

  M.restore(Snap);
  std::string VecBack;
  EXPECT_EQ(M.serializeState(VecBack), N1);
  EXPECT_EQ(VecBack, Vec1);
}

TEST(StateSerialization, AllocationOrderDoesNotChangeIdentity) {
  // Two independent transfers commute: applying them in either order
  // reaches the same semantic state, but deep-copy allocation happens in
  // a different order, so raw objectIds differ. The canonical
  // serialization must coincide.
  auto C = compile(R"(
channel c1: array of int
channel c2: array of int
channel hold1: int
channel hold2: int
process p1 { $d: array of int = { 2 -> 7 }; out(c1, d); unlink(d); }
process p2 { $d: array of int = { 2 -> 9 }; out(c2, d); unlink(d); }
process q1 { in(c1, $x); in(hold1, $h); unlink(x); }
process q2 { in(c2, $x); in(hold2, $h); unlink(x); }
)");
  ASSERT_TRUE(C);

  Machine A(C->Module, verifyOptions());
  Machine B(C->Module, verifyOptions());
  A.start();
  B.start();

  std::vector<Move> MovesA = A.enumerateMoves();
  ASSERT_EQ(MovesA.size(), 2u) << "the two transfers are independent";
  std::vector<Move> MovesB = B.enumerateMoves();
  ASSERT_EQ(MovesB.size(), 2u);
  ASSERT_TRUE(MovesA[0] == MovesB[0]);
  ASSERT_TRUE(MovesA[1] == MovesB[1]);

  // A: first then second; B: second then first.
  A.applyMove(MovesA[0]);
  A.applyMove(MovesA[1]);
  B.applyMove(MovesB[1]);
  B.applyMove(MovesB[0]);

  EXPECT_EQ(A.serializeState(), B.serializeState());
}

TEST(StateSerialization, EnumerateMovesIsCanonicallyPure) {
  // With sunk allocations (§6.1 lazy-out), enumerating moves prepares
  // out values — allocating probe objects. The wrapper must undo them:
  // the snapshot-free DFS replays moves from checkpoints and relies on
  // enumeration not perturbing the canonical state.
  OptOptions Opts = OptOptions::all();
  auto C = compile(R"(
channel c: array of int
process p {
  $i = 0;
  while (i < 2) {
    out(c, { 2 -> i });
    i = i + 1;
  }
}
process q {
  $i = 0;
  while (i < 2) { in(c, $x); unlink(x); i = i + 1; }
}
)",
                   &Opts);
  ASSERT_TRUE(C);
  bool SawLazyOut = false;
  for (const ProcIR &P : C->Module.Procs)
    for (const Inst &I : P.Insts)
      for (const IRCase &Case : I.Cases)
        SawLazyOut |= Case.LazyOut;
  EXPECT_TRUE(SawLazyOut) << "model must exercise the lazy-out path";

  Machine M(C->Module, verifyOptions());
  M.start();
  uint32_t LiveBefore = M.heap().getLiveCount();
  std::string Before = M.serializeState();
  std::vector<Move> Moves = M.enumerateMoves();
  EXPECT_FALSE(Moves.empty());
  EXPECT_EQ(M.serializeState(), Before);
  EXPECT_EQ(M.heap().getLiveCount(), LiveBefore);
  // And enumeration stays repeatable after the cleanup.
  std::vector<Move> Again = M.enumerateMoves();
  ASSERT_EQ(Again.size(), Moves.size());
  for (size_t I = 0; I != Moves.size(); ++I)
    EXPECT_TRUE(Again[I] == Moves[I]);
  EXPECT_EQ(M.serializeState(), Before);
}

/// The `verify` harness: `espmc vmmc.esp --process pageTable,deliver
/// --env-budget 4`.
struct VerifyHarness {
  std::unique_ptr<Compilation> Compiled = compile(vmmc::getVmmcEspSource());
  Harness H = makeHarness(*Compiled->Prog, {"pageTable", "deliver"});
};

MachineOptions verifyHarnessOptions() {
  MachineOptions O = verifyOptions();
  O.EnvSendBudget = 4;
  return O;
}

/// Pins of the `verify` harness's state vectors (see the two tests
/// below). The root holds two heap objects, a 64-entry and a 4-entry
/// array, both of type id 16 (bytes 4 and 146).
constexpr size_t kRootReached = 2;
constexpr size_t kRootBytes = 224;
const char *const kRootHex =
    "0101050010010140010001000100010001000100010001000100010001000100"
    "0100010001000100010001000100010001000100010001000100010001000100"
    "0100010001000100010001000100010001000100010001000100010001000100"
    "0100010001000100010001000100010001000100010001000100010001000100"
    "0100010001000100000000000000010105011001010401000100010001000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000";
constexpr uint64_t kWalkDigest = 5280302495173717825ULL;

std::string hex(const std::string &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (unsigned char C : Bytes) {
    Out += Digits[C >> 4];
    Out += Digits[C & 15];
  }
  return Out;
}

// Byte-level oracle for the state encoder. Heap objects carry their
// type's dense id, not its address, so the vector is the same in every
// process and can be pinned: any change to the encoding shows up here
// even when it keeps every search count.
TEST(StateSerialization, VerifyHarnessRootVectorIsPinned) {
  VerifyHarness V;
  Machine M(V.H.Module, verifyHarnessOptions());
  M.setEnvModel(V.H.Env.get());
  M.start();
  std::string Vec;
  size_t Reached = M.serializeState(Vec);
  EXPECT_EQ(Reached, kRootReached);
  EXPECT_EQ(Vec.size(), kRootBytes);
  EXPECT_EQ(hex(Vec), kRootHex);
}

TEST(StateSerialization, SeededWalkDigestIsPinned) {
  // A 200-step seeded walk over the same harness, back to the root at a
  // dead end; every state vector and reached-object count is folded
  // into one xxHash64 digest.
  VerifyHarness V;
  Machine M(V.H.Module, verifyHarnessOptions());
  M.setEnvModel(V.H.Env.get());
  M.start();
  Machine::Snapshot Root = M.snapshot();
  std::mt19937_64 Rng(22);
  std::string Vec;
  uint64_t Digest = 0;
  for (unsigned Step = 0; Step != 200; ++Step) {
    uint64_t Reached = M.serializeState(Vec);
    Digest = xxHash64(Vec.data(), Vec.size(), Digest);
    Digest = xxHash64(&Reached, sizeof(Reached), Digest);
    ASSERT_FALSE(M.error()) << M.error().Message;
    std::vector<Move> Moves = M.enumerateMoves();
    if (Moves.empty()) {
      M.restore(Root);
      continue;
    }
    M.applyMove(Moves[Rng() % Moves.size()]);
  }
  EXPECT_EQ(Digest, kWalkDigest) << std::hex << Digest;
}

//===----------------------------------------------------------------------===//
// End-to-end memory accounting
//===----------------------------------------------------------------------===//

TEST(ModelChecker, HashCompactionShrinksStoredStates) {
  // A model with real heap payloads: hash compaction stores only
  // fingerprints, so it must undercut exact storage of full vectors.
  auto C = compile(R"(
channel c: array of int
process p {
  $i = 0;
  while (i < 4) {
    $data: array of int = { 8 -> 3 };
    out(c, data);
    unlink(data);
    i = i + 1;
  }
}
process q {
  $i = 0;
  while (i < 4) { in(c, $x); unlink(x); i = i + 1; }
}
)");
  ASSERT_TRUE(C);

  McOptions Exact;
  Exact.Visited = VisitedKind::Exact;
  McResult RExact = checkModel(C->Module, Exact);
  EXPECT_EQ(RExact.Verdict, McVerdict::OK) << RExact.report();

  McOptions Hash;
  Hash.Visited = VisitedKind::Hash64;
  McResult RHash = checkModel(C->Module, Hash);
  EXPECT_EQ(RHash.Verdict, McVerdict::OK) << RHash.report();
  EXPECT_EQ(RHash.StatesStored, RExact.StatesStored);
  EXPECT_LT(RHash.MemoryBytes, RExact.MemoryBytes);
}

} // namespace
