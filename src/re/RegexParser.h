//===- re/RegexParser.h - Textual regex syntax ------------------------------===//
///
/// \file
/// Parser for the extended regex surface syntax used by the paper's examples
/// and benchmarks. Grammar (loosest to tightest binding):
///
///   union   ::= inter ('|' inter)*
///   inter   ::= concat ('&' concat)*
///   concat  ::= unary+
///   unary   ::= '~' unary | postfix
///   postfix ::= atom ('*' | '+' | '?' | '{' n (',' n?)? '}')*
///   atom    ::= '(' union ')' | '()' | '.' | class | escape | literal
///   class   ::= '[' '^'? item* ']'           ('[]' is ⊥, '[^]' is '.')
///
/// Escapes: \d \D \w \W \s \S \t \n \r \f \v \0 \xHH \uHHHH \U{H+}, and
/// backslash before any metacharacter. Input is interpreted as UTF-8.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_RE_REGEXPARSER_H
#define SBD_RE_REGEXPARSER_H

#include "re/Regex.h"

#include <string>

namespace sbd {

/// Deepest nesting of '(' groups and '~' complements the parser accepts;
/// deeper input is a parse error, not a stack overflow. The parser recurses
/// once per level, as do the recursive walks over the parsed term (δ, the
/// printers). The cap is about 60% of the depth at which the ASan+UBSan
/// Debug build overflows an 8 MiB stack.
constexpr size_t MaxRegexNesting = 1000;

/// Outcome of a parse; on failure `Error` describes the problem and
/// `ErrorPos` is the code-point offset where it was detected.
struct RegexParseResult {
  bool Ok = false;
  Re Value{};
  std::string Error;
  size_t ErrorPos = 0;
};

/// Parses \p Pattern into an interned regex of \p Manager.
RegexParseResult parseRegex(RegexManager &Manager, const std::string &Pattern);

/// Convenience for tests and examples: parses or aborts with a diagnostic.
Re parseRegexOrDie(RegexManager &Manager, const std::string &Pattern);

} // namespace sbd

#endif // SBD_RE_REGEXPARSER_H
