//===--- test_support.cpp - Support library unit tests -------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/IntArith.h"
#include "support/RingQueue.h"
#include "support/SourceManager.h"
#include "support/StringExtras.h"
#include "support/ToolArgs.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <limits>
#include <set>
#include <vector>

using namespace esp;

namespace {

/// Builds a mutable argv for ToolArgs from string literals.
struct ArgvFixture {
  std::vector<std::string> Store;
  std::vector<char *> Ptrs;

  explicit ArgvFixture(std::vector<std::string> Args)
      : Store(std::move(Args)) {
    for (std::string &A : Store)
      Ptrs.push_back(A.data());
  }
  int argc() const { return static_cast<int>(Ptrs.size()); }
  char **argv() { return Ptrs.data(); }
};

TEST(ToolArgs, RepeatedOptionLastValueWins) {
  // Scripted invocations append overrides: the last occurrence must win,
  // in both spellings, without becoming an error.
  ArgvFixture Args({"tool", "--out", "first", "--out=second", "--n", "3",
                    "--n", "7"});
  ToolArgs TA(Args.argc(), Args.argv(), "tool", "usage\n");
  std::string Out;
  uint64_t N = 0;
  while (TA.next()) {
    if (TA.option("--out", Out))
      ;
    else if (TA.optionUInt("--n", N))
      ;
    else
      TA.unknownOrBuiltin();
  }
  EXPECT_FALSE(TA.shouldExit());
  EXPECT_EQ(Out, "second");
  EXPECT_EQ(N, 7u);
}

TEST(ToolArgs, SingleOccurrencesStillParse) {
  ArgvFixture Args({"tool", "--out=only", "--n", "5"});
  ToolArgs TA(Args.argc(), Args.argv(), "tool", "usage\n");
  std::string Out;
  uint64_t N = 0;
  while (TA.next()) {
    if (TA.option("--out", Out))
      ;
    else if (TA.optionUInt("--n", N))
      ;
    else
      TA.unknownOrBuiltin();
  }
  EXPECT_FALSE(TA.shouldExit());
  EXPECT_EQ(Out, "only");
  EXPECT_EQ(N, 5u);
}

/// Parses `--n <Text>` into a \p T bounded by [\p Min, \p Max]; returns
/// the exit code (0 = accepted) and leaves the value in \p Out.
template <typename T>
int parseUInt(const std::string &Text, T &Out, uint64_t Min = 0,
              uint64_t Max = std::numeric_limits<T>::max()) {
  ArgvFixture Args({"tool", "--n", Text});
  ToolArgs TA(Args.argc(), Args.argv(), "tool", "usage\n");
  while (TA.next())
    if (!TA.optionUInt("--n", Out, Min, Max))
      TA.unknownOrBuiltin();
  return TA.exitCode();
}

TEST(ToolArgs, NumericOptionsRejectSignsAndOutOfRange) {
  // strtoull reads "-1" as 2^64 - 1; a 32-bit destination used to keep
  // the low bits of whatever was given. Each is a usage error now, and
  // the destination keeps its value.
  uint32_t Narrow = 7;
  for (const char *Bad : {"-1", "+1", " 1", "", "4294967296", "1x"}) {
    EXPECT_EQ(parseUInt(Bad, Narrow), 2) << "'" << Bad << "'";
    EXPECT_EQ(Narrow, 7u) << "'" << Bad << "'";
  }
  EXPECT_EQ(parseUInt("4294967295", Narrow), 0);
  EXPECT_EQ(Narrow, 4294967295u);

  uint64_t Wide = 7;
  EXPECT_EQ(parseUInt("-1", Wide), 2);
  EXPECT_EQ(parseUInt("18446744073709551616", Wide), 2); // 2^64.
  EXPECT_EQ(Wide, 7u);
  EXPECT_EQ(parseUInt("18446744073709551615", Wide), 0);
  EXPECT_EQ(Wide, UINT64_MAX);

  // The tools' --jobs ceiling, and a minimum.
  unsigned Jobs = 1;
  EXPECT_EQ(parseUInt("1025", Jobs, 1, MaxToolJobs), 2);
  EXPECT_EQ(parseUInt("4294967295", Jobs, 1, MaxToolJobs), 2);
  EXPECT_EQ(parseUInt("0", Jobs, 1, MaxToolJobs), 2);
  EXPECT_EQ(Jobs, 1u);
  EXPECT_EQ(parseUInt("1024", Jobs, 1, MaxToolJobs), 0);
  EXPECT_EQ(Jobs, 1024u);
}

/// Parses `--list <Text>`; returns the exit code (0 = accepted) and
/// leaves the list in \p Out.
int parseIntList(const std::string &Text, std::vector<int64_t> &Out) {
  ArgvFixture Args({"tool", "--list", Text});
  ToolArgs TA(Args.argc(), Args.argv(), "tool", "usage\n");
  while (TA.next())
    if (!TA.optionIntList("--list", Out))
      TA.unknownOrBuiltin();
  return TA.exitCode();
}

TEST(ToolArgs, IntListAcceptsSignedDecimalsOnly) {
  std::vector<int64_t> List;
  EXPECT_EQ(parseIntList("-1,0,1", List), 0);
  EXPECT_EQ(List, (std::vector<int64_t>{-1, 0, 1}));
  EXPECT_EQ(parseIntList("-9223372036854775808,9223372036854775807", List),
            0);
  EXPECT_EQ(List, (std::vector<int64_t>{INT64_MIN, INT64_MAX}));

  // atoll read each of these as some list of zeros and INT64_MAX.
  std::vector<int64_t> Kept = {7};
  for (const char *Bad : {"foo", "1,,2", "", "9223372036854775808",
                          "-9223372036854775809", "1,", "-", "+1", " 1",
                          "1x"}) {
    List = Kept;
    EXPECT_EQ(parseIntList(Bad, List), 2) << "'" << Bad << "'";
    EXPECT_EQ(List, Kept) << "'" << Bad << "'";
  }
}

TEST(SourceManager, DecodeLinesAndColumns) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("a.esp", "one\ntwo\nthree\n");
  DecodedLoc L0 = SM.decode(SourceLoc(Id, 0));
  EXPECT_EQ(L0.Line, 1u);
  EXPECT_EQ(L0.Column, 1u);
  DecodedLoc L5 = SM.decode(SourceLoc(Id, 5)); // 'w' of two.
  EXPECT_EQ(L5.Line, 2u);
  EXPECT_EQ(L5.Column, 2u);
  DecodedLoc L8 = SM.decode(SourceLoc(Id, 8)); // 't' of three.
  EXPECT_EQ(L8.Line, 3u);
  EXPECT_EQ(L8.Column, 1u);
}

TEST(SourceManager, InvalidLocationDecodesToUnknown) {
  SourceManager SM;
  DecodedLoc L = SM.decode(SourceLoc());
  EXPECT_EQ(L.FileName, "<unknown>");
  EXPECT_EQ(L.Line, 0u);
}

TEST(SourceManager, LineTextExtraction) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("a.esp", "first\nsecond line\nlast");
  EXPECT_EQ(SM.getLineText(SourceLoc(Id, 7)), "second line");
  EXPECT_EQ(SM.getLineText(SourceLoc(Id, 19)), "last"); // No newline at EOF.
}

TEST(SourceManager, MultipleBuffers) {
  SourceManager SM;
  uint32_t A = SM.addBuffer("a.esp", "aaa");
  uint32_t B = SM.addBuffer("b.esp", "bbb");
  EXPECT_NE(A, B);
  EXPECT_EQ(SM.getBufferName(A), "a.esp");
  EXPECT_EQ(SM.getBuffer(B), "bbb");
  EXPECT_EQ(SM.getNumBuffers(), 2u);
}

TEST(SourceManager, MissingFileReturnsSentinel) {
  SourceManager SM;
  EXPECT_EQ(SM.addFile("/nonexistent/path.esp"), UINT32_MAX);
}

TEST(Diagnostics, CountsAndRendering) {
  SourceManager SM;
  uint32_t Id = SM.addBuffer("d.esp", "x\ny\n");
  DiagnosticEngine Diags(SM);
  Diags.error(SourceLoc(Id, 2), "bad thing");
  Diags.warning(SourceLoc(Id, 0), "iffy thing");
  Diags.note(SourceLoc(Id, 0), "context");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.getNumErrors(), 1u);
  EXPECT_EQ(Diags.getNumWarnings(), 1u);
  std::string All = Diags.renderAll();
  EXPECT_NE(All.find("d.esp:2:1: error: bad thing"), std::string::npos);
  EXPECT_NE(All.find("warning: iffy thing"), std::string::npos);
  EXPECT_NE(All.find("note: context"), std::string::npos);
  EXPECT_TRUE(Diags.containsMessage("bad"));
  EXPECT_FALSE(Diags.containsMessage("missing"));
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(StringExtras, Split) {
  std::vector<std::string_view> Parts = split("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringExtras, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringExtras, XxHash64IsStableAndMixesEveryBit) {
  // Known answers of the reference xxHash64.
  EXPECT_EQ(xxHash64("", 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(xxHash64("a", 1), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(xxHash64("abc", 3), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(xxHash64("xxhash", 6), 0x32dd38952c4bc720ULL);
  EXPECT_EQ(xxHash64("xxhash", 6, 20141025), 0xb559b98d844e0635ULL);
  const char *Long = "Nobody inspects the spammish repetition"; // 4 lanes.
  EXPECT_EQ(xxHash64(Long, std::strlen(Long)), 0xfbcea83c8a378bf1ULL);

  // Every length 0-64 of the same zero bytes hashes differently: the
  // lane loop, the 8-, 4- and 1-byte tails all fold in the length.
  std::vector<unsigned char> Zeros(64, 0);
  std::set<uint64_t> ByLength;
  for (size_t Len = 0; Len <= 64; ++Len)
    ByLength.insert(xxHash64(Zeros.data(), Len));
  EXPECT_EQ(ByLength.size(), 65u);

  // A single-bit flip anywhere in a state-vector-sized key changes the
  // fingerprint, and across flips each of the 6 high bits that pick a
  // visited-set stripe flips about half the time.
  std::vector<unsigned char> Key(236);
  for (size_t I = 0; I != Key.size(); ++I)
    Key[I] = static_cast<unsigned char>(I * 37 + 11);
  const uint64_t Base = xxHash64(Key.data(), Key.size());
  const unsigned Flips = static_cast<unsigned>(Key.size() * 8);
  unsigned ShardMoved = 0;
  unsigned HighBitFlips[6] = {};
  for (unsigned Bit = 0; Bit != Flips; ++Bit) {
    Key[Bit / 8] ^= static_cast<unsigned char>(1u << (Bit % 8));
    const uint64_t Flipped = xxHash64(Key.data(), Key.size());
    Key[Bit / 8] ^= static_cast<unsigned char>(1u << (Bit % 8));
    ASSERT_NE(Flipped, Base) << "bit " << Bit;
    const uint64_t Diff = Base ^ Flipped;
    ShardMoved += (Diff >> 58) != 0;
    for (unsigned H = 0; H != 6; ++H)
      HighBitFlips[H] += (Diff >> (58 + H)) & 1;
  }
  EXPECT_GE(ShardMoved, Flips * 95 / 100); // 1/64 stay by chance.
  for (unsigned H = 0; H != 6; ++H) {
    EXPECT_GT(HighBitFlips[H], Flips * 2 / 5) << "high bit " << H;
    EXPECT_LT(HighBitFlips[H], Flips * 3 / 5) << "high bit " << H;
  }

  // Seeds give independent functions (bit-state probes and swarm seeds).
  std::set<uint64_t> BySeed;
  for (uint64_t Seed = 0; Seed != 64; ++Seed)
    BySeed.insert(xxHash64(Key.data(), Key.size(), Seed));
  EXPECT_EQ(BySeed.size(), 64u);
}

TEST(StringExtras, CountEffectiveLines) {
  EXPECT_EQ(countEffectiveLines(""), 0u);
  EXPECT_EQ(countEffectiveLines("code();\n"), 1u);
  EXPECT_EQ(countEffectiveLines("// only a comment\n"), 0u);
  EXPECT_EQ(countEffectiveLines("   \n\t\n"), 0u);
  EXPECT_EQ(countEffectiveLines("a(); // trailing comment\nb();\n"), 2u);
  EXPECT_EQ(countEffectiveLines("/* multi\nline\ncomment */\ncode();\n"),
            1u);
  EXPECT_EQ(countEffectiveLines("x(); /* inline */ y();\n"), 1u);
  EXPECT_EQ(countEffectiveLines("/* a */ code(); /* b\n still b */\n"), 1u);
}

/// Pops every element of \p Q, front first.
std::vector<int> drain(RingQueue<int> &Q) {
  std::vector<int> Out;
  while (!Q.empty()) {
    Out.push_back(Q.front());
    Q.pop_front();
  }
  return Out;
}

TEST(RingQueue, EmptyQueueAllocatesNothing) {
  RingQueue<int> Q;
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.capacity(), 0u);
  Q.clear();
  EXPECT_EQ(Q.capacity(), 0u);
}

TEST(RingQueue, MixedPushFrontAndBackKeepDequeOrder) {
  RingQueue<int> Q;
  std::deque<int> Ref;
  for (int I = 0; I != 40; ++I) {
    if (I % 3 == 0) {
      Q.push_front(I);
      Ref.push_front(I);
    } else {
      Q.push_back(I);
      Ref.push_back(I);
    }
  }
  EXPECT_EQ(Q.size(), Ref.size());
  EXPECT_EQ(drain(Q), std::vector<int>(Ref.begin(), Ref.end()));
}

TEST(RingQueue, WrapAroundKeepsFifoOrder) {
  RingQueue<int> Q;
  Q.push_back(0);
  const size_t Cap = Q.capacity();
  // Slide a window of Cap - 1 elements around the ring several times
  // without ever filling it, so the buffer never grows.
  int Next = 1, Expect = 0;
  for (size_t I = 0; I + 2 < Cap; ++I)
    Q.push_back(Next++);
  for (int Round = 0; Round != 5 * static_cast<int>(Cap); ++Round) {
    EXPECT_EQ(Q.front(), Expect++);
    Q.pop_front();
    Q.push_back(Next++);
  }
  EXPECT_EQ(Q.capacity(), Cap);
  std::vector<int> Rest = drain(Q);
  ASSERT_EQ(Rest.size(), Cap - 1);
  for (int V : Rest)
    EXPECT_EQ(V, Expect++);
}

TEST(RingQueue, GrowthWhileWrappedKeepsOrder) {
  RingQueue<int> Q;
  Q.push_back(0);
  const size_t Cap = Q.capacity();
  // Wrap the ring (head in the middle, both ends in use), then overfill
  // it from both ends.
  for (size_t I = 1; I != Cap; ++I)
    Q.push_back(static_cast<int>(I));
  for (size_t I = 0; I != Cap / 2; ++I)
    Q.pop_front();
  std::deque<int> Ref;
  for (size_t I = Cap / 2; I != Cap; ++I)
    Ref.push_back(static_cast<int>(I));
  for (int I = 0; I != 3 * static_cast<int>(Cap); ++I) {
    Q.push_back(100 + I);
    Ref.push_back(100 + I);
    Q.push_front(-1 - I);
    Ref.push_front(-1 - I);
  }
  EXPECT_GT(Q.capacity(), Cap);
  EXPECT_EQ(Q.capacity() & (Q.capacity() - 1), 0u) << "power of two";
  EXPECT_EQ(drain(Q), std::vector<int>(Ref.begin(), Ref.end()));
}

TEST(RingQueue, ClearKeepsCapacity) {
  RingQueue<int> Q;
  for (int I = 0; I != 100; ++I)
    Q.push_back(I);
  const size_t Cap = Q.capacity();
  ASSERT_GE(Cap, 100u);
  Q.clear();
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.capacity(), Cap);
  for (int I = 0; I != 100; ++I)
    Q.push_front(I);
  EXPECT_EQ(Q.capacity(), Cap);
  EXPECT_EQ(Q.front(), 99);
}

TEST(IntArith, WrapsInsteadOfOverflowing) {
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(intOp(IntOp::Div, Min, -1), Min);
  EXPECT_EQ(intOp(IntOp::Mod, Min, -1), 0);
  EXPECT_EQ(intOp(IntOp::Add, Max, 1), Min);
  EXPECT_EQ(intOp(IntOp::Sub, Min, 1), Max);
  EXPECT_EQ(intOp(IntOp::Mul, Max, 2), -2);
  EXPECT_EQ(wrapNeg(Min), Min);
  // The ordinary cases are C++'s: truncating division, sign of the
  // dividend for the remainder, 0/1 comparisons.
  EXPECT_EQ(intOp(IntOp::Div, -7, 2), -3);
  EXPECT_EQ(intOp(IntOp::Mod, -7, 2), -1);
  EXPECT_EQ(intOp(IntOp::Div, 7, -1), -7);
  EXPECT_EQ(intOp(IntOp::Le, 3, 3), 1);
  EXPECT_EQ(intOp(IntOp::Ne, 3, 3), 0);
  EXPECT_TRUE(isCompare(IntOp::Lt));
  EXPECT_FALSE(isCompare(IntOp::Mod));
}

} // namespace
