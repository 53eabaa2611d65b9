//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared across modules.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SUPPORT_STRINGUTIL_H
#define GRIFT_SUPPORT_STRINGUTIL_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace grift {

/// Returns true if \p Text parses completely as a signed 64-bit integer.
bool parseInt64(std::string_view Text, int64_t &Out);

/// Returns true if \p Text parses completely as a double.
bool parseDouble(std::string_view Text, double &Out);

/// Parses a non-negative decimal count with an optional k/m/g suffix
/// (either case; ×2^10, ×2^20, ×2^30). Rejects an empty value, a sign,
/// whitespace, any other trailing character, and a scaled value above
/// \p Max. \p Out is untouched on failure.
bool parseCount(std::string_view Text, uint64_t Max, uint64_t &Out);

/// The numeric command-line flag parser every tool shares: true when
/// \p Arg is \p Prefix (e.g. "--threads=") followed by a parseCount
/// value that fits \p Out's type and is at most \p Max.
template <typename T>
bool parseFlag(std::string_view Arg, std::string_view Prefix, T &Out,
               uint64_t Max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>, "count flags are unsigned");
  uint64_t Value;
  if (Arg.substr(0, Prefix.size()) != Prefix ||
      !parseCount(Arg.substr(Prefix.size()),
                  std::min<uint64_t>(Max, std::numeric_limits<T>::max()),
                  Value))
    return false;
  Out = static_cast<T>(Value);
  return true;
}

/// A "-ms" flag stored as nanoseconds: a count small enough that the
/// nanosecond value fits int64_t.
bool parseMillisFlag(std::string_view Arg, std::string_view Prefix,
                     int64_t &Nanos);

/// A non-negative finite decimal rate ("--tenant-rps=2.5"); no suffix.
bool parseFlag(std::string_view Arg, std::string_view Prefix, double &Out);

/// Renders a double the way the runtime prints Float values: shortest
/// round-trip representation with a trailing ".0" when integral.
std::string formatDouble(double Value);

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts, std::string_view Sep);

/// 64-bit FNV-1a hash, used for structural hashing of types and coercions.
uint64_t hashBytes(const void *Data, size_t Size, uint64_t Seed = 14695981039346656037ULL);

/// Combines two hashes (boost-style mix).
inline uint64_t hashCombine(uint64_t A, uint64_t B) {
  A ^= B + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2);
  return A;
}

} // namespace grift

#endif // GRIFT_SUPPORT_STRINGUTIL_H
