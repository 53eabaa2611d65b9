#include "support/StringUtil.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace grift;

bool grift::parseInt64(std::string_view Text, int64_t &Out) {
  // Exactly strtoll's base-10 accept set over the whole of \p Text:
  // leading white space, one optional sign, at least one digit, and a
  // value that fits; but without copying the text.
  size_t I = 0;
  while (I != Text.size() && std::isspace(static_cast<unsigned char>(Text[I])))
    ++I;
  bool Negative = I != Text.size() && Text[I] == '-';
  if (I != Text.size() && (Text[I] == '-' || Text[I] == '+'))
    ++I;
  if (I == Text.size())
    return false;
  uint64_t Limit = static_cast<uint64_t>(INT64_MAX) + (Negative ? 1 : 0);
  uint64_t Magnitude = 0;
  for (; I != Text.size(); ++I) {
    unsigned Digit = static_cast<unsigned char>(Text[I]) - '0';
    if (Digit > 9 || Magnitude > (Limit - Digit) / 10)
      return false;
    Magnitude = Magnitude * 10 + Digit;
  }
  Out = Negative ? static_cast<int64_t>(0 - Magnitude)
                 : static_cast<int64_t>(Magnitude);
  return true;
}

bool grift::parseDouble(std::string_view Text, double &Out) {
  if (Text.empty())
    return false;
  // strtod wants a NUL-terminated string; literals fit the stack buffer.
  char Small[64];
  std::string Large;
  const char *Buf = Small;
  if (Text.size() < sizeof(Small)) {
    std::memcpy(Small, Text.data(), Text.size());
    Small[Text.size()] = '\0';
  } else {
    Large.assign(Text);
    Buf = Large.c_str();
  }
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Buf, &End);
  if (End != Buf + Text.size())
    return false;
  // ERANGE covers both overflow (result is ±HUGE_VAL) and underflow
  // (result is a representable denormal, or zero). Denormals like
  // 5e-324 are perfectly good doubles — only reject overflow.
  if (errno == ERANGE && std::isinf(Value))
    return false;
  Out = Value;
  return true;
}

bool grift::parseCount(std::string_view Text, uint64_t Max, uint64_t &Out) {
  size_t Suffix = Text.empty() ? std::string_view::npos
                               : std::string_view("kmgKMG").find(Text.back());
  unsigned Shift = Suffix == std::string_view::npos ? 0 : 10 * (Suffix % 3 + 1);
  if (Shift)
    Text.remove_suffix(1);
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    unsigned Digit = static_cast<unsigned>(C - '0');
    if (Value > (Max - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  if (Value > Max >> Shift)
    return false;
  Out = Value << Shift;
  return true;
}

bool grift::parseMillisFlag(std::string_view Arg, std::string_view Prefix,
                            int64_t &Nanos) {
  constexpr uint64_t NanosPerMs = 1000000;
  uint64_t Ms;
  if (Arg.substr(0, Prefix.size()) != Prefix ||
      !parseCount(Arg.substr(Prefix.size()),
                  std::numeric_limits<int64_t>::max() / NanosPerMs, Ms))
    return false;
  Nanos = static_cast<int64_t>(Ms * NanosPerMs);
  return true;
}

bool grift::parseFlag(std::string_view Arg, std::string_view Prefix,
                      double &Out) {
  if (Arg.substr(0, Prefix.size()) != Prefix)
    return false;
  std::string_view Text = Arg.substr(Prefix.size());
  double Value;
  // strtod also takes signs, whitespace, "inf", "nan" and hex floats.
  if (Text.empty() || Text[0] == '-' || Text[0] == '+' ||
      Text.find_first_not_of("0123456789.eE+-") != std::string_view::npos ||
      !parseDouble(Text, Value))
    return false;
  Out = Value;
  return true;
}

std::string grift::formatDouble(double Value) {
  if (std::isnan(Value))
    return "+nan.0";
  if (std::isinf(Value))
    return Value > 0 ? "+inf.0" : "-inf.0";
  char Buf[64];
  // %.17g round-trips; try shorter representations first for readability.
  for (int Precision = 1; Precision <= 17; ++Precision) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, Value);
    double Back = 0;
    if (parseDouble(Buf, Back) && Back == Value)
      break;
  }
  std::string Out(Buf);
  if (Out.find('.') == std::string::npos &&
      Out.find('e') == std::string::npos &&
      Out.find("inf") == std::string::npos &&
      Out.find("nan") == std::string::npos)
    Out += ".0";
  return Out;
}

std::string grift::join(const std::vector<std::string> &Parts,
                        std::string_view Sep) {
  std::string Out;
  for (size_t I = 0; I != Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

uint64_t grift::hashBytes(const void *Data, size_t Size, uint64_t Seed) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = Seed;
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 1099511628211ULL;
  }
  return Hash;
}
