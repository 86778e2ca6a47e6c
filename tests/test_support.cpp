//===--- test_support.cpp - Support library unit tests -------------------------==//
//
// Part of the esplang project (ESP, PLDI 2001 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringExtras.h"
#include "support/ToolArgs.h"

#include <gtest/gtest.h>

#include <cstring>
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

} // namespace
