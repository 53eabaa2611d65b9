#include "types/TypeParser.h"

#include <vector>

using namespace grift;

namespace {

class TypeParser {
public:
  TypeParser(TypeContext &Ctx, DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags) {}

  const Type *parse(SexpRef Datum) {
    if (Datum.isSymbol())
      return parseName(Datum);
    if (Datum.isList())
      return parseList(Datum);
    Diags.error(Datum.loc(), "expected a type, found '" + Datum.str() + "'");
    return nullptr;
  }

private:
  TypeContext &Ctx;
  DiagnosticEngine &Diags;
  std::vector<Sym> RecVars; // innermost binder last

  const Type *parseName(SexpRef Datum) {
    switch (Datum.sym()) {
    case Sym::DynType:
      return Ctx.dyn();
    case Sym::UnitType:
      return Ctx.unit();
    case Sym::BoolType:
      return Ctx.boolean();
    case Sym::IntType:
      return Ctx.integer();
    case Sym::CharType:
      return Ctx.character();
    case Sym::FloatType:
      return Ctx.floating();
    default:
      break;
    }
    // A Rec-bound variable: innermost binder has de Bruijn index 0.
    for (size_t I = RecVars.size(); I-- > 0;)
      if (RecVars[I] == Datum.sym())
        return Ctx.var(static_cast<uint32_t>(RecVars.size() - 1 - I));
    Diags.error(Datum.loc(),
                "unknown type name '" + std::string(Datum.symbol()) + "'");
    return nullptr;
  }

  const Type *parseList(SexpRef Datum) {
    size_t Size = Datum.size();
    if (Size == 0)
      return Ctx.unit(); // `()` — the Unit type, as in `-> ()`.
    // Function types contain a `->` in the second-to-last position.
    if (Size >= 2 && Datum[Size - 2].isSymbol(Sym::Arrow))
      return parseFunction(Datum);
    SexpRef Head = Datum[0];
    if (Head.isSymbol(Sym::TupleType)) {
      std::vector<const Type *> Members;
      for (size_t I = 1; I != Size; ++I) {
        const Type *T = parse(Datum[I]);
        if (!T)
          return nullptr;
        Members.push_back(T);
      }
      if (Members.empty()) {
        Diags.error(Datum.loc(), "tuple type needs at least one element");
        return nullptr;
      }
      return Ctx.tuple(std::move(Members));
    }
    if (Head.isSymbol(Sym::RefType) || Head.isSymbol(Sym::VectType)) {
      if (Size != 2) {
        Diags.error(Datum.loc(), std::string(Head.symbol()) +
                                     " type takes exactly one element type");
        return nullptr;
      }
      const Type *Element = parse(Datum[1]);
      if (!Element)
        return nullptr;
      return Head.isSymbol(Sym::RefType) ? Ctx.box(Element)
                                         : Ctx.vect(Element);
    }
    if (Head.isSymbol(Sym::RecType)) {
      if (Size != 3 || !Datum[1].isSymbol()) {
        Diags.error(Datum.loc(), "expected (Rec x T)");
        return nullptr;
      }
      RecVars.push_back(Datum[1].sym());
      const Type *Body = parse(Datum[2]);
      RecVars.pop_back();
      if (!Body)
        return nullptr;
      return Ctx.rec(Body);
    }
    Diags.error(Datum.loc(), "malformed type '" + Datum.str() + "'");
    return nullptr;
  }

  const Type *parseFunction(SexpRef Datum) {
    std::vector<const Type *> Params;
    for (size_t I = 0; I + 2 < Datum.size(); ++I) {
      const Type *P = parse(Datum[I]);
      if (!P)
        return nullptr;
      Params.push_back(P);
    }
    const Type *Result = parse(Datum[Datum.size() - 1]);
    if (!Result)
      return nullptr;
    return Ctx.function(std::move(Params), Result);
  }
};

} // namespace

const Type *grift::parseType(TypeContext &Ctx, SexpRef Datum,
                             DiagnosticEngine &Diags) {
  return TypeParser(Ctx, Diags).parse(Datum);
}
