//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support module: diagnostics, string utilities, RNG,
/// and the shared numeric flag parser.
///
//===----------------------------------------------------------------------===//
#include "support/Diagnostics.h"
#include "support/RNG.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace grift;

TEST(SourceLoc, DefaultIsInvalid) {
  SourceLoc Loc;
  EXPECT_FALSE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "?");
}

TEST(SourceLoc, Formats) {
  SourceLoc Loc(3, 14);
  EXPECT_TRUE(Loc.isValid());
  EXPECT_EQ(Loc.str(), "3:14");
}

TEST(Diagnostics, CountsErrorsOnly) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 1), "w");
  Diags.note(SourceLoc(1, 2), "n");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(2, 1), "e");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
}

TEST(Diagnostics, RendersSeverityAndLocation) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(7, 2), "bad type");
  EXPECT_EQ(Diags.diagnostics()[0].str(), "error: 7:2: bad type");
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(1, 1), "e");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(StringUtil, ParseInt64) {
  int64_t Value = 0;
  EXPECT_TRUE(parseInt64("42", Value));
  EXPECT_EQ(Value, 42);
  EXPECT_TRUE(parseInt64("-17", Value));
  EXPECT_EQ(Value, -17);
  EXPECT_FALSE(parseInt64("", Value));
  EXPECT_FALSE(parseInt64("12x", Value));
  EXPECT_FALSE(parseInt64("1.5", Value));
  EXPECT_FALSE(parseInt64("999999999999999999999999", Value));
}

TEST(StringUtil, ParseDouble) {
  double Value = 0;
  EXPECT_TRUE(parseDouble("3.5", Value));
  EXPECT_DOUBLE_EQ(Value, 3.5);
  EXPECT_TRUE(parseDouble("-2e3", Value));
  EXPECT_DOUBLE_EQ(Value, -2000.0);
  EXPECT_FALSE(parseDouble("abc", Value));
  EXPECT_FALSE(parseDouble("1.5q", Value));
}

TEST(StringUtil, FormatDoubleRoundTrips) {
  for (double Value : {0.0, 1.0, -1.5, 3.141592653589793, 1e-9, 1e300}) {
    double Back = 0;
    ASSERT_TRUE(parseDouble(formatDouble(Value), Back));
    EXPECT_EQ(Back, Value);
  }
}

TEST(StringUtil, FormatDoubleIntegralHasPoint) {
  EXPECT_EQ(formatDouble(2.0), "2.0");
  EXPECT_EQ(formatDouble(0.0), "0.0");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtil, HashBytesDiffers) {
  uint64_t HashA = hashBytes("hello", 5);
  uint64_t HashB = hashBytes("hellp", 5);
  EXPECT_NE(HashA, HashB);
  EXPECT_EQ(HashA, hashBytes("hello", 5));
}

TEST(RNG, Deterministic) {
  RNG A(12345), B(12345);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, BelowInRange) {
  RNG Gen(7);
  for (int I = 0; I != 1000; ++I) {
    uint64_t Draw = Gen.below(10);
    EXPECT_LT(Draw, 10u);
  }
}

TEST(RNG, UnitInRange) {
  RNG Gen(11);
  for (int I = 0; I != 1000; ++I) {
    double Draw = Gen.unit();
    EXPECT_GE(Draw, 0.0);
    EXPECT_LT(Draw, 1.0);
  }
}

TEST(RNG, BelowCoversValues) {
  RNG Gen(3);
  bool Seen[4] = {false, false, false, false};
  for (int I = 0; I != 200; ++I)
    Seen[Gen.below(4)] = true;
  EXPECT_TRUE(Seen[0] && Seen[1] && Seen[2] && Seen[3]);
}

//===----------------------------------------------------------------------===//
// The shared numeric flag parser (griftc, griftd, griftfuzz, griftload).
//===----------------------------------------------------------------------===//

TEST(FlagParser, PlainAndSuffixedCounts) {
  uint64_t V = 0;
  EXPECT_TRUE(parseCount("0", UINT64_MAX, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseCount("42", UINT64_MAX, V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(parseCount("4k", UINT64_MAX, V));
  EXPECT_EQ(V, 4096u);
  EXPECT_TRUE(parseCount("256m", UINT64_MAX, V));
  EXPECT_EQ(V, 256ull << 20);
  EXPECT_TRUE(parseCount("2G", UINT64_MAX, V));
  EXPECT_EQ(V, 2ull << 30);
  EXPECT_TRUE(parseCount("18446744073709551615", UINT64_MAX, V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(FlagParser, RejectsSignsEmptyAndJunk) {
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "k", "1x", "1kk",
                          "0x10", "1.5", "1e3", "--1"}) {
    uint64_t V = 7;
    EXPECT_FALSE(parseCount(Bad, UINT64_MAX, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 7u) << "output written on failure for '" << Bad << "'";
  }
}

TEST(FlagParser, RejectsOutOfRange) {
  uint64_t V = 0;
  EXPECT_FALSE(parseCount("18446744073709551616", UINT64_MAX, V));
  EXPECT_FALSE(parseCount("99999999999999999999999", UINT64_MAX, V));
  EXPECT_TRUE(parseCount("17179869183g", UINT64_MAX, V)); // (2^34-1)·2^30
  EXPECT_FALSE(parseCount("17179869184g", UINT64_MAX, V)); // 2^34 · 2^30
  EXPECT_TRUE(parseCount("255", 255, V));
  EXPECT_FALSE(parseCount("256", 255, V));
  EXPECT_FALSE(parseCount("1k", 1023, V));
}

TEST(FlagParser, DestinationWidthBoundsTheValue) {
  unsigned Threads = 3;
  EXPECT_FALSE(parseFlag("--threads=-1", "--threads=", Threads));
  EXPECT_FALSE(parseFlag("--threads=4294967296", "--threads=", Threads));
  EXPECT_FALSE(parseFlag("--threads=", "--threads=", Threads));
  EXPECT_EQ(Threads, 3u);
  EXPECT_TRUE(parseFlag("--threads=8", "--threads=", Threads));
  EXPECT_EQ(Threads, 8u);
  // An explicit ceiling below the type's width (griftd's --threads).
  EXPECT_TRUE(parseFlag("--threads=256", "--threads=", Threads, 256));
  EXPECT_EQ(Threads, 256u);
  EXPECT_FALSE(parseFlag("--threads=257", "--threads=", Threads, 256));
  EXPECT_FALSE(parseFlag("--threads=1k", "--threads=", Threads, 256));
  EXPECT_EQ(Threads, 256u);

  uint16_t Port = 0;
  EXPECT_TRUE(parseFlag("--port=65535", "--port=", Port));
  EXPECT_EQ(Port, 65535u);
  EXPECT_FALSE(parseFlag("--port=65536", "--port=", Port));
  EXPECT_FALSE(parseFlag("--port=64k", "--port=", Port));

  uint64_t Bytes = 0;
  EXPECT_TRUE(parseFlag("--cache-max-bytes=256m", "--cache-max-bytes=",
                        Bytes));
  EXPECT_EQ(Bytes, 256ull << 20);
}

TEST(FlagParser, PrefixMustMatch) {
  uint64_t V = 5;
  EXPECT_FALSE(parseFlag("--seed=1", "--iters=", V));
  EXPECT_FALSE(parseFlag("--iter=1", "--iters=", V));
  EXPECT_FALSE(parseFlag("--iters", "--iters=", V));
  EXPECT_EQ(V, 5u);
}

TEST(FlagParser, MillisecondsBecomeNanoseconds) {
  int64_t Nanos = 0;
  EXPECT_TRUE(parseMillisFlag("--deadline-ms=250", "--deadline-ms=", Nanos));
  EXPECT_EQ(Nanos, 250000000);
  EXPECT_FALSE(parseMillisFlag("--deadline-ms=-5", "--deadline-ms=", Nanos));
  // The largest count whose nanoseconds still fit int64_t, and one more.
  EXPECT_TRUE(
      parseMillisFlag("--deadline-ms=9223372036854", "--deadline-ms=", Nanos));
  EXPECT_EQ(Nanos, 9223372036854000000);
  EXPECT_FALSE(
      parseMillisFlag("--deadline-ms=9223372036855", "--deadline-ms=", Nanos));
}

TEST(FlagParser, RatesAreNonNegativeFiniteDecimals) {
  double Rate = 1.0;
  EXPECT_TRUE(parseFlag("--tenant-rps=2.5", "--tenant-rps=", Rate));
  EXPECT_DOUBLE_EQ(Rate, 2.5);
  EXPECT_TRUE(parseFlag("--tenant-rps=.5", "--tenant-rps=", Rate));
  EXPECT_DOUBLE_EQ(Rate, 0.5);
  for (const char *Bad : {"--tenant-rps=", "--tenant-rps=-1",
                          "--tenant-rps=+1", "--tenant-rps=inf",
                          "--tenant-rps=nan", "--tenant-rps=0x10",
                          "--tenant-rps=1e999", "--tenant-rps=2k",
                          "--tenant-rps= 1"})
    EXPECT_FALSE(parseFlag(Bad, "--tenant-rps=", Rate)) << Bad;
  EXPECT_DOUBLE_EQ(Rate, 0.5);
}
