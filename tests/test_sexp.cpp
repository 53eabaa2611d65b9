//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the s-expression reader.
///
//===----------------------------------------------------------------------===//
#include "sexp/Reader.h"

#include <gtest/gtest.h>

#include <limits>

using namespace grift;

namespace {

SexpDocument readOk(std::string_view Source) {
  DiagnosticEngine Diags;
  SexpDocument Data = readSexps(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Data;
}

void expectReadError(std::string_view Source) {
  DiagnosticEngine Diags;
  readSexps(Source, Diags);
  EXPECT_TRUE(Diags.hasErrors()) << "expected a read error for: " << Source;
}

} // namespace

TEST(Reader, EmptyInput) {
  EXPECT_TRUE(readOk("").empty());
  EXPECT_TRUE(readOk("   \n\t ").empty());
  EXPECT_TRUE(readOk("; just a comment\n").empty());
}

TEST(Reader, Integers) {
  // Exactly what strtoll accepts whole: one optional sign, leading zeros.
  auto Data = readOk("42 -7 0 +5 -000 -9223372036854775808");
  ASSERT_EQ(Data.size(), 6u);
  EXPECT_EQ(Data[0].intValue(), 42);
  EXPECT_EQ(Data[1].intValue(), -7);
  EXPECT_EQ(Data[2].intValue(), 0);
  EXPECT_EQ(Data[3].intValue(), 5);
  EXPECT_EQ(Data[4].intValue(), 0);
  EXPECT_EQ(Data[5].intValue(), std::numeric_limits<int64_t>::min());
  for (size_t I = 0; I != Data.size(); ++I)
    EXPECT_EQ(Data[I].kind(), SexpKind::Int) << I;
}

TEST(Reader, Floats) {
  // What strtod accepts whole, short of overflow: an integer too wide for
  // int64, hex (strtoll stops at the 'x'), and denormals.
  auto Data = readOk("3.5 -0.25 1e3 2. 9223372036854775808 0x10 5e-324");
  ASSERT_EQ(Data.size(), 7u);
  for (size_t I = 0; I != Data.size(); ++I)
    ASSERT_EQ(Data[I].kind(), SexpKind::Float) << I;
  EXPECT_DOUBLE_EQ(Data[0].floatValue(), 3.5);
  EXPECT_DOUBLE_EQ(Data[1].floatValue(), -0.25);
  EXPECT_DOUBLE_EQ(Data[2].floatValue(), 1000.0);
  EXPECT_DOUBLE_EQ(Data[3].floatValue(), 2.0);
  EXPECT_DOUBLE_EQ(Data[4].floatValue(), 9223372036854775808.0);
  EXPECT_DOUBLE_EQ(Data[5].floatValue(), 16.0);
  EXPECT_EQ(Data[6].floatValue(), std::numeric_limits<double>::denorm_min());
}

TEST(Reader, Booleans) {
  auto Data = readOk("#t #f");
  ASSERT_EQ(Data.size(), 2u);
  EXPECT_TRUE(Data[0].boolValue());
  EXPECT_FALSE(Data[1].boolValue());
}

TEST(Reader, Characters) {
  auto Data = readOk("#\\a #\\newline #\\space #\\0");
  ASSERT_EQ(Data.size(), 4u);
  EXPECT_EQ(Data[0].charValue(), 'a');
  EXPECT_EQ(Data[1].charValue(), '\n');
  EXPECT_EQ(Data[2].charValue(), ' ');
  EXPECT_EQ(Data[3].charValue(), '0');
}

TEST(Reader, Symbols) {
  // Read from a temporary: the data must not point into the source. An
  // atom that overflows a double, or that strtod accepts only in part
  // (or without a digit), is a symbol.
  auto Data = readOk(
      std::string("vector-ref fl+ -> even? - ... 1e400 +inf.0 -nan.0 inf 1/2"));
  ASSERT_EQ(Data.size(), 11u);
  const char *Expected[] = {"vector-ref", "fl+", "->",     "even?",
                            "-",          "...", "1e400",  "+inf.0",
                            "-nan.0",     "inf", "1/2"};
  for (size_t I = 0; I != Data.size(); ++I) {
    ASSERT_TRUE(Data[I].isSymbol()) << Expected[I];
    EXPECT_EQ(Data[I].symbol(), Expected[I]);
  }
  // One id per spelling; the spellings of Symbols.def have fixed ids.
  auto Ids = readOk("f g f Tuple tuple");
  EXPECT_EQ(Ids[0].sym(), Ids[2].sym());
  EXPECT_NE(Ids[0].sym(), Ids[1].sym());
  EXPECT_GE(Ids[0].sym(), Sym::FirstInterned);
  EXPECT_EQ(Ids[3].sym(), Sym::TupleType);
  EXPECT_EQ(Ids[4].sym(), Sym::Tuple);
}

TEST(Reader, Strings) {
  auto Data = readOk("\"hello\" \"a\\nb\" \"q\\\"q\"");
  ASSERT_EQ(Data.size(), 3u);
  EXPECT_EQ(Data[0].string(), "hello");
  EXPECT_EQ(Data[1].string(), "a\nb");
  EXPECT_EQ(Data[2].string(), "q\"q");
}

TEST(Reader, NestedLists) {
  auto Data = readOk("(define (f [x : Int]) : Int (+ x 1))");
  ASSERT_EQ(Data.size(), 1u);
  SexpRef Define = Data[0];
  ASSERT_TRUE(Define.isList());
  ASSERT_EQ(Define.size(), 5u);
  EXPECT_TRUE(Define[0].isSymbol(Sym::Define));
  EXPECT_TRUE(Define[1].isList());
  EXPECT_TRUE(Define[1][1].isList());
  EXPECT_EQ(Define[1][1][0].symbol(), "x");
}

TEST(Reader, BracketsAreParens) {
  auto Data = readOk("[let ([x 1]) x]");
  ASSERT_EQ(Data.size(), 1u);
  EXPECT_TRUE(Data[0][0].isSymbol(Sym::Let));
}

TEST(Reader, MismatchedBracketFails) {
  expectReadError("(let [x 1)]");
  expectReadError("(a b");
  expectReadError(")");
}

TEST(Reader, EmptyListIsUnit) {
  auto Data = readOk("()");
  ASSERT_EQ(Data.size(), 1u);
  EXPECT_TRUE(Data[0].isEmptyList());
}

TEST(Reader, LineComments) {
  auto Data = readOk("1 ; ignored (2 3\n4");
  ASSERT_EQ(Data.size(), 2u);
  EXPECT_EQ(Data[0].intValue(), 1);
  EXPECT_EQ(Data[1].intValue(), 4);
}

TEST(Reader, BlockComments) {
  auto Data = readOk("1 #| a #| nested |# b |# 2");
  ASSERT_EQ(Data.size(), 2u);
  EXPECT_EQ(Data[1].intValue(), 2);
  expectReadError("#| unterminated");
}

TEST(Reader, SourceLocations) {
  auto Data = readOk("\n  (f 1)");
  ASSERT_EQ(Data.size(), 1u);
  EXPECT_EQ(Data[0].loc().Line, 2u);
  EXPECT_EQ(Data[0].loc().Column, 3u);
  EXPECT_EQ(Data[0][1].loc().Column, 6u);
}

TEST(Reader, StrRoundTrip) {
  const char *Source = "(define x (tuple 1 2.5 #t #\\a \"s\" ()))";
  auto Data = readOk(Source);
  ASSERT_EQ(Data.size(), 1u);
  auto Again = readOk(Data[0].str());
  ASSERT_EQ(Again.size(), 1u);
  EXPECT_EQ(Again[0].str(), Data[0].str());
}

TEST(Reader, UnknownHashSyntaxFails) {
  expectReadError("#q");
  expectReadError("#\\bogusname");
}
