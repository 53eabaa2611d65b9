//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime value representation (paper Section 3.1, and the companion
/// report's section on bit-level value encodings). A Value is one 64-bit
/// word, NaN-boxed: every IEEE-754 double is stored directly, and all
/// non-float values live in the *negative* quiet-NaN space, which no
/// canonical arithmetic result ever occupies.
///
///   bit 63                                                    bit 0
///   ┌─┬───────────┬────────────────────────────────────────────────┐
///   │s│ exponent  │                  mantissa                      │
///   └─┴───────────┴────────────────────────────────────────────────┘
///
///   float   any word < 0xFFF8'0000'0000'0000 (all doubles incl. +qNaN;
///           NaN results are canonicalized to 0x7FF8'0000'0000'0000)
///   tagged  0xFFF8'0000'0000'0000 | tag<<48 | payload(48 bits)
///
///   tag 0  fixnum        — 48-bit signed integer (sign-extended on read)
///   tag 1  heap pointer  — plain heap object (closure, tuple, box,
///                          vector, DynBox)
///   tag 2  proxy pointer — proxy closure or proxied reference; paper:
///                          "the lowest bit of the pointer indicates
///                          which kind" — we spend a whole tag instead,
///                          and call sites / reference operations branch
///                          on it exactly the same way
///   tag 3  immediate     — unit, #t, #f, characters (subtag in payload
///                          bits 0-1, character code in bits 2-9)
///
/// The scheme relies on two facts: (1) user-space pointers fit in 48
/// bits on every supported platform, and (2) the hardware's default
/// quiet NaN on x86 is 0xFFF8'0000'0000'0000 — exactly the base of our
/// tag space — so fromFloat() canonicalizes any NaN to the positive
/// quiet NaN before storing. All tag tests are one compare; floats are
/// the no-tag fast path (isFloat() is a single unsigned compare).
///
/// Values of type Dyn are self-describing: fixnums, immediates and
/// floats carry their type in the encoding (floats need no box at all),
/// while injected tuples, functions and references are wrapped in a
/// DynBox holding the value and its source type (paper: "for types with
/// larger values, the bits are a pointer to a pair of the injected value
/// and its type").
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_RUNTIME_VALUE_H
#define GRIFT_RUNTIME_VALUE_H

#include <cassert>
#include <cstdint>
#include <cstring>

namespace grift {

class HeapObject;

/// Tag field of a non-float value word (bits 48-50).
enum class ValueTag : uint64_t {
  Fixnum = 0,
  Heap = 1,
  Proxy = 2,
  Imm = 3,
};

/// Subtags for immediates (payload bits 0-1).
enum class ImmKind : uint64_t {
  Unit = 0,
  False = 1,
  True = 2,
  Char = 3,
};

/// A 64-bit NaN-boxed value word.
struct Value {
  /// Base of the tag space: the negative quiet-NaN encodings. Everything
  /// >= TagBase is a tagged non-float; everything below is a double.
  static constexpr uint64_t TagBase = UINT64_C(0xFFF8000000000000);
  static constexpr uint64_t PayloadMask = UINT64_C(0x0000FFFFFFFFFFFF);
  /// The canonical (positive) quiet NaN every NaN float is normalized to.
  static constexpr uint64_t CanonicalNaN = UINT64_C(0x7FF8000000000000);
  static constexpr int TagShift = 48;

  static constexpr int64_t FixnumMax = (INT64_C(1) << 47) - 1;
  static constexpr int64_t FixnumMin = -(INT64_C(1) << 47);

  /// Int arithmetic wraps two's-complement at the 48-bit payload: \p I
  /// reduced to its low 48 bits, sign-extended. The reference
  /// interpreter applies the same reduction, so both engines agree past
  /// FixnumMax.
  static constexpr int64_t wrapFixnum(int64_t I) {
    return static_cast<int64_t>(static_cast<uint64_t>(I) << 16) >> 16;
  }

  uint64_t Bits = TagBase | (static_cast<uint64_t>(ValueTag::Imm) << TagShift);
  // default-constructed Value is Unit (ImmKind::Unit payload == 0)

  /// Tag of a non-float word. Meaningless for floats (isFloat() first).
  ValueTag tag() const {
    assert(!isFloat() && "floats carry no tag");
    return static_cast<ValueTag>((Bits >> TagShift) & 0x7);
  }

  bool isFloat() const { return Bits < TagBase; }
  bool isFixnum() const {
    return (Bits >> TagShift) ==
           (TagBase >> TagShift | static_cast<uint64_t>(ValueTag::Fixnum));
  }
  bool isHeap() const {
    return (Bits >> TagShift) ==
           (TagBase >> TagShift | static_cast<uint64_t>(ValueTag::Heap));
  }
  bool isProxy() const {
    return (Bits >> TagShift) ==
           (TagBase >> TagShift | static_cast<uint64_t>(ValueTag::Proxy));
  }
  bool isImm() const {
    return (Bits >> TagShift) ==
           (TagBase >> TagShift | static_cast<uint64_t>(ValueTag::Imm));
  }
  bool isPointer() const { return isHeap() || isProxy(); }

  ImmKind immKind() const {
    assert(isImm() && "not an immediate");
    return static_cast<ImmKind>(Bits & 0b11);
  }
  bool isUnit() const { return isImm() && immKind() == ImmKind::Unit; }
  bool isBool() const {
    return isImm() &&
           (immKind() == ImmKind::False || immKind() == ImmKind::True);
  }
  bool isChar() const { return isImm() && immKind() == ImmKind::Char; }

  //===--------------------------------------------------------------------===//
  // Constructors
  //===--------------------------------------------------------------------===//

  static Value fromFloat(double D) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    Value V;
    // Canonicalize NaNs: x86 arithmetic produces the *negative* quiet NaN
    // 0xFFF8... — the base of the tag space. One branch keeps every NaN
    // payload out of tagged territory.
    V.Bits = D == D ? Bits : CanonicalNaN;
    return V;
  }

  static Value fromFixnum(int64_t I) {
    assert(I >= FixnumMin && I <= FixnumMax && "fixnum overflow");
    Value V;
    V.Bits = TagBase | (static_cast<uint64_t>(I) & PayloadMask);
    return V;
  }

  static Value unit() { return Value(); }

  static Value fromBool(bool B) {
    Value V;
    V.Bits = TagBase | (static_cast<uint64_t>(ValueTag::Imm) << TagShift) |
             static_cast<uint64_t>(B ? ImmKind::True : ImmKind::False);
    return V;
  }

  static Value fromChar(char C) {
    Value V;
    V.Bits = TagBase | (static_cast<uint64_t>(ValueTag::Imm) << TagShift) |
             (static_cast<uint64_t>(static_cast<unsigned char>(C)) << 2) |
             static_cast<uint64_t>(ImmKind::Char);
    return V;
  }

  static Value fromHeap(HeapObject *Object) {
    assert((reinterpret_cast<uint64_t>(Object) & ~PayloadMask) == 0 &&
           "pointer exceeds 48 bits");
    Value V;
    V.Bits = TagBase | (static_cast<uint64_t>(ValueTag::Heap) << TagShift) |
             reinterpret_cast<uint64_t>(Object);
    return V;
  }

  static Value fromProxy(HeapObject *Object) {
    assert((reinterpret_cast<uint64_t>(Object) & ~PayloadMask) == 0 &&
           "pointer exceeds 48 bits");
    Value V;
    V.Bits = TagBase | (static_cast<uint64_t>(ValueTag::Proxy) << TagShift) |
             reinterpret_cast<uint64_t>(Object);
    return V;
  }

  //===--------------------------------------------------------------------===//
  // Accessors
  //===--------------------------------------------------------------------===//

  double asFloat() const {
    assert(isFloat() && "not a float");
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    return D;
  }

  int64_t asFixnum() const {
    assert(isFixnum() && "not a fixnum");
    // Sign-extend the 48-bit payload.
    return static_cast<int64_t>(Bits << 16) >> 16;
  }

  bool asBool() const {
    assert(isBool() && "not a boolean");
    return immKind() == ImmKind::True;
  }

  char asChar() const {
    assert(isChar() && "not a character");
    return static_cast<char>((Bits >> 2) & 0xFF);
  }

  /// The heap object behind a Heap- or Proxy-tagged value. This is the
  /// paper's "clear the tag bits of the pointer" step in the shared
  /// closure calling convention.
  HeapObject *object() const {
    assert(isPointer() && "not a pointer value");
    return reinterpret_cast<HeapObject *>(Bits & PayloadMask);
  }

  /// Bitwise equality. Correct for floats too because fromFloat
  /// canonicalizes NaNs — but note it makes distinct NaNs equal and
  /// 0.0 != -0.0, which is why numeric `=` goes through asFloat.
  bool operator==(const Value &Other) const { return Bits == Other.Bits; }
};

} // namespace grift

#endif // GRIFT_RUNTIME_VALUE_H
