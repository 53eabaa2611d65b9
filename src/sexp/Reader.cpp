#include "sexp/Reader.h"

#include "support/StringUtil.h"

#include <array>
#include <cassert>

using namespace grift;

namespace {

enum CharClass : uint8_t { Space = 1, Delimiter = 2, Digit = 4 };

constexpr uint32_t NumFixed = static_cast<uint32_t>(Sym::FirstInterned);

/// Character classes of the C locale (the reader never sets a locale):
/// white space is `isspace`, a delimiter ends an atom.
constexpr std::array<uint8_t, 256> CharClasses = [] {
  std::array<uint8_t, 256> Table{};
  for (unsigned char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    Table[C] = Space | Delimiter;
  for (unsigned char C : {'(', ')', '[', ']', '"', ';'})
    Table[C] = Delimiter;
  for (unsigned char C = '0'; C <= '9'; ++C)
    Table[C] = Digit;
  return Table;
}();

bool hasClass(char C, CharClass Class) {
  return CharClasses[static_cast<unsigned char>(C)] & Class;
}

uint32_t hashName(std::string_view Name) {
  uint32_t H = 2166136261u; // FNV-1a
  for (char C : Name)
    H = (H ^ static_cast<unsigned char>(C)) * 16777619u;
  return H;
}

/// One open-addressed slot of a symbol table; Id1 is the id plus one, so
/// zero marks an empty slot.
struct Slot {
  uint32_t Hash = 0;
  uint32_t Id1 = 0;
};

/// Puts \p S in the first free slot from its hash on.
void insertSlot(std::vector<Slot> &Table, Slot S) {
  size_t Mask = Table.size() - 1;
  size_t I = S.Hash & Mask;
  while (Table[I].Id1)
    I = (I + 1) & Mask;
  Table[I] = S;
}

/// A symbol table holding the fixed ids of Symbols.def; every document's
/// table starts as a copy. Built once, read-only afterwards.
const std::vector<Slot> &fixedSlots() {
  static const std::vector<Slot> Table = [] {
    std::vector<Slot> T(128);
    for (uint32_t Id = 0; Id != NumFixed; ++Id)
      insertSlot(T, {hashName(fixedSpelling(static_cast<Sym>(Id))), Id + 1});
    return T;
  }();
  return Table;
}

} // namespace

namespace grift {

/// Recursive-descent s-expression reader that fills one SexpDocument.
class SexpReader {
public:
  SexpReader(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags), Slots(fixedSlots()) {
    // Rough sizes for typical source, to spare most regrowth.
    Doc.Nodes.reserve(Source.size() / 3 + 4);
    Doc.Children.reserve(Source.size() / 3 + 4);
    Doc.Text.reserve(Source.size() / 8 + 16);
    Doc.Names.reserve(Source.size() / 32 + 4);
    Pending.reserve(64);
  }

  SexpDocument readAll() {
    size_t Mark = Pending.size();
    for (;;) {
      skipTrivia();
      if (atEnd())
        break;
      uint32_t Datum = readDatum();
      if (Failed)
        break;
      Pending.push_back(Datum);
    }
    Doc.Roots = closeSpan(Mark);
    return std::move(Doc);
  }

private:
  using Node = SexpRef::Node;

  std::string_view Source;
  DiagnosticEngine &Diags;
  SexpDocument Doc;
  /// Child indices of the lists still open, innermost last.
  std::vector<uint32_t> Pending;
  std::vector<Slot> Slots; ///< the document's symbol table
  size_t NumSlotsUsed = NumFixed;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Column = 1;
  bool Failed = false;

  bool atEnd() const { return Pos >= Source.size(); }
  char peek() const { return Source[Pos]; }

  char advance() {
    char C = Source[Pos++];
    if (C == '\n') {
      ++Line;
      Column = 1;
    } else {
      ++Column;
    }
    return C;
  }

  SourceLoc here() const { return SourceLoc(Line, Column); }

  void fail(SourceLoc Loc, std::string Message) {
    if (!Failed)
      Diags.error(Loc, std::move(Message));
    Failed = true;
  }

  uint32_t addNode(SexpKind Kind, SourceLoc Loc) {
    Node N;
    N.Kind = Kind;
    N.Loc = Loc;
    N.Int = 0;
    Doc.Nodes.push_back(N);
    return static_cast<uint32_t>(Doc.Nodes.size() - 1);
  }

  uint32_t addInt(SexpKind Kind, int64_t Value, SourceLoc Loc) {
    uint32_t Index = addNode(Kind, Loc);
    Doc.Nodes[Index].Int = Value;
    return Index;
  }

  uint32_t addSpan(SexpKind Kind, SexpRef::Extent Span, SourceLoc Loc) {
    uint32_t Index = addNode(Kind, Loc);
    Doc.Nodes[Index].Span = Span;
    return Index;
  }

  /// Moves the child indices pushed since \p Mark into one contiguous
  /// span of the document's child array.
  SexpRef::Extent closeSpan(size_t Mark) {
    SexpRef::Extent Span{static_cast<uint32_t>(Doc.Children.size()),
                         static_cast<uint32_t>(Pending.size() - Mark)};
    Doc.Children.insert(Doc.Children.end(), Pending.begin() + Mark,
                        Pending.end());
    Pending.resize(Mark);
    return Span;
  }

  /// The id of \p Name: a fixed id or one this document gave it before,
  /// else the next free one (copying the spelling).
  Sym intern(std::string_view Name) {
    uint32_t Hash = hashName(Name);
    size_t Mask = Slots.size() - 1;
    size_t I = Hash & Mask;
    for (; Slots[I].Id1; I = (I + 1) & Mask)
      if (Slots[I].Hash == Hash &&
          Doc.spelling(static_cast<Sym>(Slots[I].Id1 - 1)) == Name)
        return static_cast<Sym>(Slots[I].Id1 - 1);
    uint32_t Id = static_cast<uint32_t>(Doc.numSymbols());
    Doc.Names.push_back({static_cast<uint32_t>(Doc.Text.size()),
                         static_cast<uint32_t>(Name.size())});
    Doc.Text.append(Name);
    Slots[I] = {Hash, Id + 1};
    if (++NumSlotsUsed * 2 > Slots.size()) {
      std::vector<Slot> Old(Slots.size() * 2);
      Old.swap(Slots);
      for (const Slot &S : Old)
        if (S.Id1)
          insertSlot(Slots, S);
    }
    return static_cast<Sym>(Id);
  }

  void skipTrivia() {
    while (!atEnd()) {
      char C = peek();
      if (hasClass(C, Space)) {
        advance();
        continue;
      }
      if (C == ';') {
        while (!atEnd() && peek() != '\n')
          advance();
        continue;
      }
      if (C == '#' && Pos + 1 < Source.size() && Source[Pos + 1] == '|') {
        SourceLoc Start = here();
        advance();
        advance();
        unsigned Depth = 1;
        while (!atEnd() && Depth != 0) {
          char D = advance();
          if (D == '#' && !atEnd() && peek() == '|') {
            advance();
            ++Depth;
          } else if (D == '|' && !atEnd() && peek() == '#') {
            advance();
            --Depth;
          }
        }
        if (Depth != 0)
          fail(Start, "unterminated block comment");
        continue;
      }
      break;
    }
  }

  uint32_t emptyList(SourceLoc Loc) {
    return addSpan(SexpKind::List, {0, 0}, Loc);
  }

  uint32_t readDatum() {
    SourceLoc Loc = here();
    char C = peek();
    if (C == '(' || C == '[')
      return readList(C == '(' ? ')' : ']');
    if (C == ')' || C == ']') {
      fail(Loc, "unexpected closing parenthesis");
      advance();
      return emptyList(Loc);
    }
    if (C == '"')
      return readString();
    if (C == '#')
      return readHash();
    return readAtom();
  }

  uint32_t readList(char Close) {
    SourceLoc Loc = here();
    advance(); // consume the opener
    uint32_t List = emptyList(Loc);
    size_t Mark = Pending.size();
    for (;;) {
      skipTrivia();
      if (atEnd()) {
        fail(Loc, "unterminated list");
        break;
      }
      char C = peek();
      if (C == ')' || C == ']') {
        if (C != Close)
          fail(here(), "mismatched closing parenthesis");
        advance();
        break;
      }
      uint32_t Datum = readDatum();
      if (Failed)
        break;
      Pending.push_back(Datum);
    }
    Doc.Nodes[List].Span = closeSpan(Mark);
    return List;
  }

  uint32_t readString() {
    SourceLoc Loc = here();
    advance(); // consume the quote
    size_t Start = Doc.Text.size();
    for (;;) {
      if (atEnd()) {
        fail(Loc, "unterminated string literal");
        break;
      }
      char C = advance();
      if (C == '"')
        break;
      if (C == '\\') {
        if (atEnd()) {
          fail(Loc, "unterminated string escape");
          break;
        }
        char E = advance();
        switch (E) {
        case 'n':
          Doc.Text += '\n';
          break;
        case 't':
          Doc.Text += '\t';
          break;
        case '\\':
        case '"':
          Doc.Text += E;
          break;
        default:
          fail(Loc, std::string("unknown string escape '\\") + E + "'");
          break;
        }
        continue;
      }
      Doc.Text += C;
    }
    return addSpan(SexpKind::String,
                   {static_cast<uint32_t>(Start),
                    static_cast<uint32_t>(Doc.Text.size() - Start)},
                   Loc);
  }

  uint32_t readHash() {
    SourceLoc Loc = here();
    advance(); // consume '#'
    if (atEnd()) {
      fail(Loc, "dangling '#'");
      return emptyList(Loc);
    }
    char C = advance();
    if (C == 't' || C == 'f') {
      if (!atEnd() && !hasClass(peek(), Delimiter))
        fail(Loc, "junk after boolean literal");
      return addInt(SexpKind::Bool, C == 't', Loc);
    }
    if (C == '\\')
      return readChar(Loc);
    fail(Loc, std::string("unknown '#' syntax '#") + C + "'");
    return emptyList(Loc);
  }

  uint32_t addChar(char C, SourceLoc Loc) {
    return addInt(SexpKind::Char, static_cast<unsigned char>(C), Loc);
  }

  uint32_t readChar(SourceLoc Loc) {
    if (atEnd()) {
      fail(Loc, "dangling character literal");
      return addChar('?', Loc);
    }
    size_t Start = Pos;
    advance();
    while (!atEnd() && !hasClass(peek(), Delimiter))
      advance();
    std::string_view Name = Source.substr(Start, Pos - Start);
    if (Name.size() == 1)
      return addChar(Name[0], Loc);
    if (Name == "newline")
      return addChar('\n', Loc);
    if (Name == "space")
      return addChar(' ', Loc);
    if (Name == "tab")
      return addChar('\t', Loc);
    if (Name == "nul")
      return addChar('\0', Loc);
    fail(Loc, "unknown character name '#\\" + std::string(Name) + "'");
    return addChar('?', Loc);
  }

  /// An atom is an Int if strtoll accepts all of it, else a Float if it
  /// holds a digit and strtod accepts all of it without overflowing, else
  /// a Symbol. Atoms hold no white space or newline, so the column moves
  /// by the atom's length.
  uint32_t readAtom() {
    SourceLoc Loc = here();
    size_t Start = Pos;
    while (!atEnd() && !hasClass(peek(), Delimiter))
      ++Pos;
    Column += static_cast<uint32_t>(Pos - Start);
    std::string_view Text = Source.substr(Start, Pos - Start);
    assert(!Text.empty() && "empty atom");
    if (mayBeNumber(Text)) {
      int64_t IntValue = 0;
      if (parseInt64(Text, IntValue))
        return addInt(SexpKind::Int, IntValue, Loc);
      bool HasDigit = false;
      for (char C : Text)
        HasDigit |= hasClass(C, Digit);
      double FloatValue = 0;
      if (HasDigit && parseDouble(Text, FloatValue)) {
        uint32_t Index = addNode(SexpKind::Float, Loc);
        Doc.Nodes[Index].Float = FloatValue;
        return Index;
      }
    }
    return addSpan(SexpKind::Symbol, {static_cast<uint32_t>(intern(Text)), 0},
                   Loc);
  }

  /// False only for atoms neither strtoll nor strtod accepts whole with a
  /// digit in them: both need a sign, digit or point up front, except
  /// strtod's `inf`, `infinity` and `nan`, which hold no digit (and
  /// `nan(...)` cannot be an atom).
  static bool mayBeNumber(std::string_view Text) {
    size_t I = Text[0] == '+' || Text[0] == '-';
    return I < Text.size() && (hasClass(Text[I], Digit) || Text[I] == '.');
  }
};

} // namespace grift

SexpDocument grift::readSexps(std::string_view Source,
                              DiagnosticEngine &Diags) {
  return SexpReader(Source, Diags).readAll();
}
