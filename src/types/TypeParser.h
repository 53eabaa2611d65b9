//===----------------------------------------------------------------------===//
///
/// \file
/// Parses GTLC+ type syntax from s-expressions:
///
///   Dyn Unit Bool Int Char Float
///   (T ... -> T)  (Tuple T ...)  (Ref T)  (Vect T)  (Rec x T)
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_TYPES_TYPEPARSER_H
#define GRIFT_TYPES_TYPEPARSER_H

#include "sexp/Sexp.h"
#include "support/Diagnostics.h"
#include "types/TypeContext.h"

namespace grift {

/// Parses \p Datum as a type. Returns nullptr and reports a diagnostic on
/// malformed syntax (including unbound Rec variables).
const Type *parseType(TypeContext &Ctx, SexpRef Datum, DiagnosticEngine &Diags);

} // namespace grift

#endif // GRIFT_TYPES_TYPEPARSER_H
