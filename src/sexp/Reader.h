//===----------------------------------------------------------------------===//
///
/// \file
/// The s-expression reader: turns GTLC+ source text into a SexpDocument
/// of top-level data. Handles `;` line comments, `#|...|#` block
/// comments, `[` / `]` as parenthesis synonyms (Grift style), and the
/// literal syntaxes of Figure 5.
///
//===----------------------------------------------------------------------===//
#ifndef GRIFT_SEXP_READER_H
#define GRIFT_SEXP_READER_H

#include "sexp/Sexp.h"
#include "support/Diagnostics.h"

#include <string_view>

namespace grift {

/// Reads every top-level datum in \p Source. Errors are reported through
/// \p Diags; on error the returned document holds the data read so far.
/// The document copies what it keeps, so \p Source may die first.
SexpDocument readSexps(std::string_view Source, DiagnosticEngine &Diags);

} // namespace grift

#endif // GRIFT_SEXP_READER_H
