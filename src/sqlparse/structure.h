// Query-structure fingerprinting for Joza's structure cache (Section VI-A).
//
// A query's shape is its token skeleton: every token's kind, plus its
// verbatim text unless it is a number or string literal. Two queries that
// differ only in those data values (or in whitespace, which is no token)
// have the same structure hash. Injected SQL adds, drops or changes a
// keyword, operator, identifier, parenthesis or comment, each with its
// exact text and case as PTI's byte-for-byte fragment match sees it, so it
// changes the hash: a cache hit on a previously-safe shape is itself safe.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sqlparse/token.h"
#include "util/status.h"

namespace joza::sql {

// Convenience: lex + hash.
StatusOr<std::uint64_t> StructureHashOf(std::string_view query);

// Same, over an already-lexed token stream (`tokens` must be the lex of
// `query`) — the hot path's variant, which never re-lexes. A stream
// holding a kError token (an unterminated string or comment, a stray
// byte) has no shape: the result is an error.
StatusOr<std::uint64_t> StructureHashOf(std::string_view query,
                                        const std::vector<Token>& tokens);

}  // namespace joza::sql
