#include "frontend/Parser.h"

#include "runtime/Value.h"
#include "sexp/Reader.h"
#include "types/TypeParser.h"

#include <cassert>

using namespace grift;

namespace {

class Parser {
public:
  Parser(TypeContext &Ctx, const SexpDocument &Doc, DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags), PrimOf(Doc.numSymbols(), UnknownPrim) {}

  std::optional<Program> parseProgram(const SexpDocument &Data) {
    Program Prog;
    for (size_t I = 0; I != Data.size(); ++I) {
      SexpRef Datum = Data[I];
      if (Datum.isList() && Datum.size() >= 1 &&
          Datum[0].isSymbol(Sym::Define)) {
        std::optional<Define> D = parseDefine(Datum);
        if (!D)
          return std::nullopt;
        Prog.Defines.push_back(std::move(*D));
        continue;
      }
      ExprPtr E = parse(Datum);
      if (!E)
        return std::nullopt;
      Define Stmt;
      Stmt.Body = std::move(E);
      Stmt.Loc = Datum.loc();
      Prog.Defines.push_back(std::move(Stmt));
    }
    return Prog;
  }

  ExprPtr parse(SexpRef Datum) {
    switch (Datum.kind()) {
    case SexpKind::Int:
      // Fixnums are 48-bit payloads under NaN-boxing; reject literals the
      // runtime cannot represent rather than silently truncating them.
      if (Datum.intValue() > Value::FixnumMax ||
          Datum.intValue() < Value::FixnumMin)
        return error(Datum.loc(),
                     "integer literal " + std::to_string(Datum.intValue()) +
                         " is outside the fixnum range [-2^47, 2^47)");
      return makeLitInt(Datum.intValue(), Datum.loc());
    case SexpKind::Float:
      return makeLitFloat(Datum.floatValue(), Datum.loc());
    case SexpKind::Bool:
      return makeLitBool(Datum.boolValue(), Datum.loc());
    case SexpKind::Char:
      return makeLitChar(Datum.charValue(), Datum.loc());
    case SexpKind::String:
      return error(Datum.loc(), "string literals are not GTLC+ expressions");
    case SexpKind::Symbol: {
      if (isKeyword(Datum.sym()) || primOf(Datum))
        return error(Datum.loc(), std::string("'").append(Datum.symbol()) +
                                      "' used as a variable");
      return makeVar(std::string(Datum.symbol()), Datum.loc());
    }
    case SexpKind::List:
      if (Datum.isEmptyList())
        return makeLitUnit(Datum.loc());
      return parseForm(Datum);
    }
    return nullptr;
  }

private:
  TypeContext &Ctx;
  DiagnosticEngine &Diags;
  /// The primitive each symbol id names, looked up on first use.
  static constexpr int16_t UnknownPrim = -2, NoPrim = -1;
  std::vector<int16_t> PrimOf;

  std::optional<PrimOp> primOf(SexpRef Symbol) {
    int16_t &Cached = PrimOf[static_cast<size_t>(Symbol.sym())];
    if (Cached == UnknownPrim) {
      std::optional<PrimOp> Op = lookupPrim(Symbol.symbol());
      Cached = Op ? static_cast<int16_t>(*Op) : NoPrim;
    }
    if (Cached == NoPrim)
      return std::nullopt;
    return static_cast<PrimOp>(Cached);
  }

  ExprPtr error(SourceLoc Loc, std::string Message) {
    Diags.error(Loc, std::move(Message));
    return nullptr;
  }

  const Type *parseTypeAt(SexpRef Datum) {
    return parseType(Ctx, Datum, Diags);
  }

  /// Parses `elems[I] == ':'` followed by a type; on success advances \p I
  /// past both and returns the type. Returns nullptr without error if no
  /// colon is present; sets \p Bad on malformed annotation.
  const Type *parseOptionalAnnot(SexpRef List, size_t &I, bool &Bad) {
    if (I >= List.size() || !List[I].isSymbol(Sym::Colon))
      return nullptr;
    if (I + 1 >= List.size()) {
      Diags.error(List.loc(), "':' must be followed by a type");
      Bad = true;
      return nullptr;
    }
    const Type *T = parseTypeAt(List[I + 1]);
    if (!T) {
      Bad = true;
      return nullptr;
    }
    I += 2;
    return T;
  }

  std::optional<Param> parseParam(SexpRef Datum) {
    if (Datum.isSymbol()) {
      if (isKeyword(Datum.sym()))
        Diags.error(Datum.loc(), "keyword used as parameter name");
      return Param{std::string(Datum.symbol()), nullptr, Datum.loc()};
    }
    // [x : T]
    if (Datum.isList() && Datum.size() == 3 && Datum[0].isSymbol() &&
        Datum[1].isSymbol(Sym::Colon)) {
      const Type *T = parseTypeAt(Datum[2]);
      if (!T)
        return std::nullopt;
      return Param{std::string(Datum[0].symbol()), T, Datum.loc()};
    }
    Diags.error(Datum.loc(), "malformed parameter, expected x or [x : T]");
    return std::nullopt;
  }

  /// Parses a body sequence starting at \p Start; wraps multiple
  /// expressions in an implicit begin.
  ExprPtr parseBody(SexpRef List, size_t Start) {
    if (Start >= List.size())
      return error(List.loc(), "empty body");
    if (Start + 1 == List.size())
      return parse(List[Start]);
    std::vector<ExprPtr> Seq;
    for (size_t I = Start; I != List.size(); ++I) {
      ExprPtr E = parse(List[I]);
      if (!E)
        return nullptr;
      Seq.push_back(std::move(E));
    }
    return makeNode(ExprKind::Begin, std::move(Seq), List.loc());
  }

  std::optional<Define> parseDefine(SexpRef Datum) {
    // (define x : T E) | (define x E) | (define (f P...) (: T)? E...)
    if (Datum.size() < 3) {
      Diags.error(Datum.loc(), "malformed define");
      return std::nullopt;
    }
    Define D;
    D.Loc = Datum.loc();
    if (Datum[1].isSymbol()) {
      D.Name = std::string(Datum[1].symbol());
      size_t I = 2;
      bool Bad = false;
      D.Annot = parseOptionalAnnot(Datum, I, Bad);
      if (Bad)
        return std::nullopt;
      if (I + 1 != Datum.size()) {
        Diags.error(Datum.loc(), "define takes exactly one body expression");
        return std::nullopt;
      }
      D.Body = parse(Datum[I]);
      if (!D.Body)
        return std::nullopt;
      return D;
    }
    if (!Datum[1].isList() || Datum[1].size() < 1 || !Datum[1][0].isSymbol()) {
      Diags.error(Datum.loc(), "malformed define header");
      return std::nullopt;
    }
    // Function form: desugar to a lambda.
    SexpRef Header = Datum[1];
    D.Name = std::string(Header[0].symbol());
    auto Lambda = std::make_unique<Expr>();
    Lambda->Kind = ExprKind::Lambda;
    Lambda->Loc = Datum.loc();
    for (size_t I = 1; I != Header.size(); ++I) {
      std::optional<Param> P = parseParam(Header[I]);
      if (!P)
        return std::nullopt;
      Lambda->Params.push_back(std::move(*P));
    }
    size_t I = 2;
    bool Bad = false;
    Lambda->ReturnAnnot = parseOptionalAnnot(Datum, I, Bad);
    if (Bad)
      return std::nullopt;
    ExprPtr Body = parseBody(Datum, I);
    if (!Body)
      return std::nullopt;
    Lambda->SubExprs.push_back(std::move(Body));
    D.Body = std::move(Lambda);
    return D;
  }

  ExprPtr parseForm(SexpRef Datum) {
    SexpRef Head = Datum[0];
    if (!Head.isSymbol())
      return parseApp(Datum);
    if (std::optional<PrimOp> Op = primOf(Head))
      return parsePrim(Datum, *Op);
    switch (Head.sym()) {
    case Sym::If:
      return parseIf(Datum);
    case Sym::Lambda:
      return parseLambda(Datum);
    case Sym::Let:
      return parseLet(Datum, false);
    case Sym::Letrec:
      return parseLet(Datum, true);
    case Sym::Begin:
      return parseBegin(Datum);
    case Sym::Repeat:
      return parseRepeat(Datum);
    case Sym::Time:
      return parseUnary(Datum, ExprKind::Time);
    case Sym::Tuple:
      return parseTuple(Datum);
    case Sym::TupleProj:
      return parseTupleProj(Datum);
    case Sym::Box:
      return parseUnary(Datum, ExprKind::BoxE);
    case Sym::Unbox:
      return parseUnary(Datum, ExprKind::Unbox);
    case Sym::BoxSet:
      return parseNary(Datum, ExprKind::BoxSet, 2);
    case Sym::MakeVector:
      return parseNary(Datum, ExprKind::MakeVect, 2);
    case Sym::VectorRef:
      return parseNary(Datum, ExprKind::VectRef, 2);
    case Sym::VectorSet:
      return parseNary(Datum, ExprKind::VectSet, 3);
    case Sym::VectorLength:
      return parseUnary(Datum, ExprKind::VectLen);
    case Sym::Ann:
      return parseAnn(Datum);
    case Sym::And:
      return parseAndOr(Datum, true);
    case Sym::Or:
      return parseAndOr(Datum, false);
    case Sym::When:
      return parseWhen(Datum, false);
    case Sym::Unless:
      return parseWhen(Datum, true);
    case Sym::Cond:
      return parseCond(Datum);
    case Sym::Define:
      return error(Datum.loc(), "define is only allowed at the top level");
    default:
      break;
    }
    return parseApp(Datum);
  }

  ExprPtr parseApp(SexpRef Datum) {
    std::vector<ExprPtr> Parts;
    Parts.reserve(Datum.size());
    for (size_t I = 0; I != Datum.size(); ++I) {
      ExprPtr E = parse(Datum[I]);
      if (!E)
        return nullptr;
      Parts.push_back(std::move(E));
    }
    return makeNode(ExprKind::App, std::move(Parts), Datum.loc());
  }

  ExprPtr parsePrim(SexpRef Datum, PrimOp Op) {
    unsigned Arity = primArity(Op);
    if (Datum.size() != Arity + 1)
      return error(Datum.loc(), std::string(primName(Op)) + " expects " +
                                    std::to_string(Arity) + " arguments, got " +
                                    std::to_string(Datum.size() - 1));
    std::vector<ExprPtr> Args;
    for (size_t I = 1; I != Datum.size(); ++I) {
      ExprPtr E = parse(Datum[I]);
      if (!E)
        return nullptr;
      Args.push_back(std::move(E));
    }
    ExprPtr Node = makeNode(ExprKind::PrimApp, std::move(Args), Datum.loc());
    Node->Prim = Op;
    return Node;
  }

  ExprPtr parseIf(SexpRef Datum) {
    if (Datum.size() != 4)
      return error(Datum.loc(), "if takes exactly three sub-expressions");
    return parseNary(Datum, ExprKind::If, 3);
  }

  ExprPtr parseNary(SexpRef Datum, ExprKind Kind, size_t Arity) {
    if (Datum.size() != Arity + 1)
      return error(Datum.loc(), "form expects " + std::to_string(Arity) +
                                    " sub-expressions");
    std::vector<ExprPtr> Subs;
    for (size_t I = 1; I != Datum.size(); ++I) {
      ExprPtr E = parse(Datum[I]);
      if (!E)
        return nullptr;
      Subs.push_back(std::move(E));
    }
    return makeNode(Kind, std::move(Subs), Datum.loc());
  }

  ExprPtr parseUnary(SexpRef Datum, ExprKind Kind) {
    return parseNary(Datum, Kind, 1);
  }

  ExprPtr parseLambda(SexpRef Datum) {
    if (Datum.size() < 3 || !Datum[1].isList())
      return error(Datum.loc(), "malformed lambda");
    auto Lambda = std::make_unique<Expr>();
    Lambda->Kind = ExprKind::Lambda;
    Lambda->Loc = Datum.loc();
    for (size_t I = 0; I != Datum[1].size(); ++I) {
      std::optional<Param> Parsed = parseParam(Datum[1][I]);
      if (!Parsed)
        return nullptr;
      Lambda->Params.push_back(std::move(*Parsed));
    }
    size_t I = 2;
    bool Bad = false;
    Lambda->ReturnAnnot = parseOptionalAnnot(Datum, I, Bad);
    if (Bad)
      return nullptr;
    ExprPtr Body = parseBody(Datum, I);
    if (!Body)
      return nullptr;
    Lambda->SubExprs.push_back(std::move(Body));
    return Lambda;
  }

  ExprPtr parseLet(SexpRef Datum, bool IsRec) {
    if (Datum.size() < 3 || !Datum[1].isList())
      return error(Datum.loc(), "malformed let");
    auto Node = std::make_unique<Expr>();
    Node->Kind = IsRec ? ExprKind::Letrec : ExprKind::Let;
    Node->Loc = Datum.loc();
    for (size_t K = 0; K != Datum[1].size(); ++K) {
      SexpRef BindDatum = Datum[1][K];
      if (!BindDatum.isList() || BindDatum.size() < 2 ||
          !BindDatum[0].isSymbol())
        return error(BindDatum.loc(), "malformed binding, expected [x (: T)? E]");
      Binding B;
      B.Name = std::string(BindDatum[0].symbol());
      B.Loc = BindDatum.loc();
      size_t I = 1;
      bool Bad = false;
      B.Annot = parseOptionalAnnot(BindDatum, I, Bad);
      if (Bad)
        return nullptr;
      if (I + 1 != BindDatum.size())
        return error(BindDatum.loc(), "binding takes exactly one initializer");
      B.Init = parse(BindDatum[I]);
      if (!B.Init)
        return nullptr;
      Node->Bindings.push_back(std::move(B));
    }
    ExprPtr Body = parseBody(Datum, 2);
    if (!Body)
      return nullptr;
    Node->SubExprs.push_back(std::move(Body));
    return Node;
  }

  ExprPtr parseBegin(SexpRef Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "begin needs at least one expression");
    std::vector<ExprPtr> Seq;
    for (size_t I = 1; I != Datum.size(); ++I) {
      ExprPtr E = parse(Datum[I]);
      if (!E)
        return nullptr;
      Seq.push_back(std::move(E));
    }
    return makeNode(ExprKind::Begin, std::move(Seq), Datum.loc());
  }

  ExprPtr parseRepeat(SexpRef Datum) {
    // (repeat (x lo hi) [(acc (: T)? init)] body)
    if (Datum.size() < 3 || Datum.size() > 4 || !Datum[1].isList() ||
        Datum[1].size() != 3 || !Datum[1][0].isSymbol())
      return error(Datum.loc(), "malformed repeat, expected "
                                "(repeat (x lo hi) [(acc init)] body)");
    auto Node = std::make_unique<Expr>();
    Node->Kind = ExprKind::Repeat;
    Node->Loc = Datum.loc();
    Node->Name = std::string(Datum[1][0].symbol());
    ExprPtr Lo = parse(Datum[1][1]);
    ExprPtr Hi = parse(Datum[1][2]);
    if (!Lo || !Hi)
      return nullptr;
    Node->SubExprs.push_back(std::move(Lo));
    Node->SubExprs.push_back(std::move(Hi));
    size_t BodyIndex = 2;
    if (Datum.size() == 4) {
      SexpRef AccDatum = Datum[2];
      if (!AccDatum.isList() || AccDatum.size() < 2 || !AccDatum[0].isSymbol())
        return error(AccDatum.loc(), "malformed repeat accumulator");
      Node->HasAcc = true;
      Node->AccName = std::string(AccDatum[0].symbol());
      size_t I = 1;
      bool Bad = false;
      Node->AccAnnot = parseOptionalAnnot(AccDatum, I, Bad);
      if (Bad)
        return nullptr;
      if (I + 1 != AccDatum.size())
        return error(AccDatum.loc(), "repeat accumulator takes one initializer");
      ExprPtr Init = parse(AccDatum[I]);
      if (!Init)
        return nullptr;
      Node->SubExprs.push_back(std::move(Init));
      BodyIndex = 3;
    }
    ExprPtr Body = parse(Datum[BodyIndex]);
    if (!Body)
      return nullptr;
    Node->SubExprs.push_back(std::move(Body));
    return Node;
  }

  ExprPtr parseTuple(SexpRef Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "tuple needs at least one element");
    std::vector<ExprPtr> Elements;
    for (size_t I = 1; I != Datum.size(); ++I) {
      ExprPtr E = parse(Datum[I]);
      if (!E)
        return nullptr;
      Elements.push_back(std::move(E));
    }
    return makeNode(ExprKind::Tuple, std::move(Elements), Datum.loc());
  }

  ExprPtr parseTupleProj(SexpRef Datum) {
    if (Datum.size() != 3 || Datum[2].kind() != SexpKind::Int)
      return error(Datum.loc(), "expected (tuple-proj E i) with literal index");
    ExprPtr Target = parse(Datum[1]);
    if (!Target)
      return nullptr;
    int64_t Index = Datum[2].intValue();
    if (Index < 0)
      return error(Datum.loc(), "tuple index must be non-negative");
    std::vector<ExprPtr> Subs;
    Subs.push_back(std::move(Target));
    ExprPtr Node = makeNode(ExprKind::TupleProj, std::move(Subs), Datum.loc());
    Node->Index = static_cast<uint32_t>(Index);
    return Node;
  }

  ExprPtr parseAnn(SexpRef Datum) {
    if (Datum.size() != 3)
      return error(Datum.loc(), "expected (ann E T)");
    ExprPtr Body = parse(Datum[1]);
    if (!Body)
      return nullptr;
    const Type *T = parseTypeAt(Datum[2]);
    if (!T)
      return nullptr;
    std::vector<ExprPtr> Subs;
    Subs.push_back(std::move(Body));
    ExprPtr Node = makeNode(ExprKind::Ascribe, std::move(Subs), Datum.loc());
    Node->Annot = T;
    return Node;
  }

  /// (and a b ...) => (if a (and b ...) #f); (or a b ...) dually.
  ExprPtr parseAndOr(SexpRef Datum, bool IsAnd) {
    if (Datum.size() < 3)
      return error(Datum.loc(), "and/or need at least two operands");
    return buildAndOr(Datum, 1, IsAnd);
  }

  ExprPtr buildAndOr(SexpRef Datum, size_t Index, bool IsAnd) {
    ExprPtr First = parse(Datum[Index]);
    if (!First)
      return nullptr;
    if (Index + 1 == Datum.size())
      return First;
    ExprPtr Rest = buildAndOr(Datum, Index + 1, IsAnd);
    if (!Rest)
      return nullptr;
    std::vector<ExprPtr> Subs;
    Subs.push_back(std::move(First));
    if (IsAnd) {
      Subs.push_back(std::move(Rest));
      Subs.push_back(makeLitBool(false, Datum.loc()));
    } else {
      Subs.push_back(makeLitBool(true, Datum.loc()));
      Subs.push_back(std::move(Rest));
    }
    return makeNode(ExprKind::If, std::move(Subs), Datum.loc());
  }

  /// (when c e...) => (if c (begin e...) ()); unless negates.
  ExprPtr parseWhen(SexpRef Datum, bool Negate) {
    if (Datum.size() < 3)
      return error(Datum.loc(), "when/unless need a condition and a body");
    ExprPtr Cond = parse(Datum[1]);
    if (!Cond)
      return nullptr;
    ExprPtr Body = parseBody(Datum, 2);
    if (!Body)
      return nullptr;
    std::vector<ExprPtr> Subs;
    Subs.push_back(std::move(Cond));
    if (Negate) {
      Subs.push_back(makeLitUnit(Datum.loc()));
      Subs.push_back(std::move(Body));
    } else {
      Subs.push_back(std::move(Body));
      Subs.push_back(makeLitUnit(Datum.loc()));
    }
    return makeNode(ExprKind::If, std::move(Subs), Datum.loc());
  }

  /// (cond [c e...] ... [else e...]) => nested ifs; a missing else arm
  /// defaults to ().
  ExprPtr parseCond(SexpRef Datum) {
    if (Datum.size() < 2)
      return error(Datum.loc(), "cond needs at least one clause");
    return buildCond(Datum, 1);
  }

  ExprPtr buildCond(SexpRef Datum, size_t Index) {
    if (Index == Datum.size())
      return makeLitUnit(Datum.loc());
    SexpRef Clause = Datum[Index];
    if (!Clause.isList() || Clause.size() < 2)
      return error(Clause.loc(), "malformed cond clause");
    if (Clause[0].isSymbol(Sym::Else)) {
      if (Index + 1 != Datum.size())
        return error(Clause.loc(), "else must be the last cond clause");
      return parseBody(Clause, 1);
    }
    ExprPtr Cond = parse(Clause[0]);
    if (!Cond)
      return nullptr;
    ExprPtr Then = parseBody(Clause, 1);
    if (!Then)
      return nullptr;
    ExprPtr Else = buildCond(Datum, Index + 1);
    if (!Else)
      return nullptr;
    std::vector<ExprPtr> Subs;
    Subs.push_back(std::move(Cond));
    Subs.push_back(std::move(Then));
    Subs.push_back(std::move(Else));
    return makeNode(ExprKind::If, std::move(Subs), Clause.loc());
  }
};

} // namespace

std::optional<Program> grift::parseProgram(TypeContext &Ctx,
                                           std::string_view Source,
                                           DiagnosticEngine &Diags) {
  SexpDocument Data = readSexps(Source, Diags);
  if (Diags.hasErrors())
    return std::nullopt;
  return Parser(Ctx, Data, Diags).parseProgram(Data);
}

ExprPtr grift::parseExpr(TypeContext &Ctx, std::string_view Source,
                         DiagnosticEngine &Diags) {
  SexpDocument Data = readSexps(Source, Diags);
  if (Diags.hasErrors())
    return nullptr;
  if (Data.size() != 1) {
    Diags.error(SourceLoc(), "expected exactly one expression");
    return nullptr;
  }
  return Parser(Ctx, Data, Diags).parse(Data[0]);
}
