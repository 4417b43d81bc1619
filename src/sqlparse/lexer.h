// SQL lexer producing byte-accurate token spans.
//
// The lexer is the foundation of both inference components: NTI's
// whole-token rule and PTI's single-fragment containment rule are defined
// over the critical tokens this lexer yields.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sqlparse/token.h"

namespace joza::sql {

// Tokenizes `query`. Never fails: unterminated constructs yield kError
// tokens covering the rest of the input. Whitespace is skipped (not
// emitted); the trailing kEndOfInput token is NOT included.
//
// Token::text views point into `query`, which must outlive the result.
std::vector<Token> Lex(std::string_view query);

// Process-wide count of Lex() calls (relaxed, monotonically increasing).
// Test instrumentation for the single-pass analysis contract: the engine
// lexes each checked query at most once, and only when a cache miss or an
// NTI marking needs tokens.
std::uint64_t LexCallsForTest();

}  // namespace joza::sql
