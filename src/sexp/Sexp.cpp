#include "sexp/Sexp.h"

#include "support/StringUtil.h"

#include <iterator>

using namespace grift;

std::string_view grift::fixedSpelling(Sym S) {
  static constexpr std::string_view Spellings[] = {
#define GRIFT_KEYWORD(Id, Spelling) Spelling,
#include "sexp/Symbols.def"
#define GRIFT_NAME(Id, Spelling) Spelling,
#include "sexp/Symbols.def"
  };
  static_assert(std::size(Spellings) ==
                static_cast<size_t>(Sym::FirstInterned));
  assert(S < Sym::FirstInterned && "not a fixed symbol id");
  return Spellings[static_cast<uint32_t>(S)];
}

std::string SexpRef::str() const {
  switch (kind()) {
  case SexpKind::Symbol:
    return std::string(symbol());
  case SexpKind::Int:
    return std::to_string(intValue());
  case SexpKind::Float:
    return formatDouble(floatValue());
  case SexpKind::Bool:
    return boolValue() ? "#t" : "#f";
  case SexpKind::Char: {
    char C = charValue();
    if (C == '\n')
      return "#\\newline";
    if (C == ' ')
      return "#\\space";
    if (C == '\t')
      return "#\\tab";
    return std::string("#\\") + C;
  }
  case SexpKind::String: {
    std::string Out = "\"";
    for (char C : string()) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    Out += '"';
    return Out;
  }
  case SexpKind::List: {
    std::string Out = "(";
    for (size_t I = 0; I != size(); ++I) {
      if (I != 0)
        Out += ' ';
      Out += (*this)[I].str();
    }
    Out += ')';
    return Out;
  }
  }
  return "<?>";
}
