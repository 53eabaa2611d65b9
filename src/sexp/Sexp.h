//===----------------------------------------------------------------------===//
///
/// \file
/// S-expression data produced by the Reader. GTLC+ surface syntax (paper
/// Figure 5) is Lisp-style, so the front end first reads generic
/// s-expressions and then parses them into the AST.
///
/// A read produces one flat SexpDocument that owns every node, one array
/// of child indices (each list is a contiguous [First, First + Count)
/// span of it) and one text buffer holding string contents and interned
/// symbol spellings. A SexpRef is a (document, node) handle; it never
/// points into the caller's source text.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SEXP_SEXP_H
#define GRIFT_SEXP_SEXP_H

#include "support/SourceLoc.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace grift {

enum class SexpKind : uint8_t {
  Symbol, ///< identifier, e.g. `vector-ref`
  Int,    ///< integer literal
  Float,  ///< floating point literal
  Bool,   ///< `#t` / `#f`
  Char,   ///< `#\a`, `#\newline`, ...
  String, ///< double-quoted string (used for blame labels in tests)
  List,   ///< `(...)` — the empty list doubles as the unit literal
};

/// An interned symbol. The spellings of Symbols.def have fixed ids, the
/// reserved keywords first; a document numbers every other symbol from
/// FirstInterned up, in order of first occurrence. Ids from two documents
/// are comparable only below FirstInterned.
enum class Sym : uint32_t {
#define GRIFT_KEYWORD(Id, Spelling) Id,
#include "sexp/Symbols.def"
#define GRIFT_NAME(Id, Spelling) Id,
#include "sexp/Symbols.def"
  FirstInterned
};

constexpr uint32_t NumKeywords = 0
#define GRIFT_KEYWORD(Id, Spelling) +1
#include "sexp/Symbols.def"
    ;

/// True for the reserved words that head special forms.
inline bool isKeyword(Sym S) { return static_cast<uint32_t>(S) < NumKeywords; }

/// The spelling of a fixed id (one below Sym::FirstInterned).
std::string_view fixedSpelling(Sym S);

class SexpDocument;

/// One datum of a SexpDocument: an atom or a (possibly empty) list. A
/// cheap handle, valid while its document lives.
class SexpRef {
public:
  SexpKind kind() const { return node().Kind; }
  SourceLoc loc() const { return node().Loc; }

  bool isSymbol() const { return kind() == SexpKind::Symbol; }
  /// True if this is the symbol \p S.
  bool isSymbol(Sym S) const {
    return isSymbol() && node().Span.First == static_cast<uint32_t>(S);
  }
  bool isList() const { return kind() == SexpKind::List; }
  bool isEmptyList() const { return isList() && node().Span.Count == 0; }

  Sym sym() const {
    assert(isSymbol() && "not a symbol");
    return static_cast<Sym>(node().Span.First);
  }
  std::string_view symbol() const;
  std::string_view string() const;
  int64_t intValue() const {
    assert(kind() == SexpKind::Int && "not an int");
    return node().Int;
  }
  double floatValue() const {
    assert(kind() == SexpKind::Float && "not a float");
    return node().Float;
  }
  bool boolValue() const {
    assert(kind() == SexpKind::Bool && "not a bool");
    return node().Int != 0;
  }
  char charValue() const {
    assert(kind() == SexpKind::Char && "not a char");
    return static_cast<char>(node().Int);
  }

  size_t size() const {
    assert(isList() && "not a list");
    return node().Span.Count;
  }
  SexpRef operator[](size_t Index) const;

  /// Renders the datum back to text (for diagnostics and round-trip tests).
  std::string str() const;

private:
  friend class SexpDocument;
  friend class SexpReader;

  /// A [First, First + Count) span of the child array (List) or the text
  /// buffer (String); a Symbol keeps its id in First.
  struct Extent {
    uint32_t First;
    uint32_t Count;
  };
  struct Node {
    SexpKind Kind;
    SourceLoc Loc;
    union {
      int64_t Int; ///< Int; Bool as 0/1; Char as its unsigned code
      double Float;
      Extent Span;
    };
  };

  SexpRef(const SexpDocument *Doc, uint32_t Index) : Doc(Doc), Index(Index) {}
  const Node &node() const;

  const SexpDocument *Doc;
  uint32_t Index;
};

/// Every datum read from one source text; indexing the document visits
/// its top-level data in order.
class SexpDocument {
public:
  size_t size() const { return Roots.Count; }
  bool empty() const { return Roots.Count == 0; }
  SexpRef operator[](size_t Index) const {
    assert(Index < Roots.Count && "datum index out of range");
    return SexpRef(this, Children[Roots.First + Index]);
  }

  /// The spelling of \p S, a fixed id or one interned by this document.
  std::string_view spelling(Sym S) const;
  /// One more than the largest symbol id in this document.
  size_t numSymbols() const {
    return static_cast<size_t>(Sym::FirstInterned) + Names.size();
  }

private:
  friend class SexpRef;
  friend class SexpReader;

  std::vector<SexpRef::Node> Nodes;
  std::vector<uint32_t> Children;
  std::string Text;
  std::vector<SexpRef::Extent> Names; ///< interned spellings, in Text
  SexpRef::Extent Roots{0, 0};        ///< the top-level data, in Children
};

inline const SexpRef::Node &SexpRef::node() const { return Doc->Nodes[Index]; }

inline std::string_view SexpRef::symbol() const { return Doc->spelling(sym()); }

inline std::string_view SexpRef::string() const {
  assert(kind() == SexpKind::String && "not a string");
  return std::string_view(Doc->Text).substr(node().Span.First,
                                            node().Span.Count);
}

inline SexpRef SexpRef::operator[](size_t I) const {
  assert(I < size() && "sexp index out of range");
  return SexpRef(Doc, Doc->Children[node().Span.First + I]);
}

inline std::string_view SexpDocument::spelling(Sym S) const {
  if (S < Sym::FirstInterned)
    return fixedSpelling(S);
  const SexpRef::Extent &Name =
      Names[static_cast<size_t>(S) - static_cast<size_t>(Sym::FirstInterned)];
  return std::string_view(Text).substr(Name.First, Name.Count);
}

} // namespace grift

#endif // GRIFT_SEXP_SEXP_H
