// Query-structure fingerprinting for Joza's structure cache (Section VI-A).
//
// Two queries that differ only in the *contents* of data nodes (number and
// string literals) have the same structure hash. Any injected SQL changes
// the token skeleton — additional keywords, operators or comments alter the
// parse tree — and therefore changes the hash, so a cache hit on a
// previously-safe structure is itself safe.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sqlparse/ast.h"
#include "sqlparse/token.h"
#include "util/status.h"

namespace joza::sql {

// Hash of the statement's shape with literal values blanked.
std::uint64_t StructureHash(const Statement& stmt);

// Convenience: parse + hash. Fails if the query does not parse.
StatusOr<std::uint64_t> StructureHashOf(std::string_view query);

// Same, over an already-lexed token stream (`tokens` must be the lex of
// `query`) — the hot path's variant, which never re-lexes.
StatusOr<std::uint64_t> StructureHashOf(std::string_view query,
                                        const std::vector<Token>& tokens);

}  // namespace joza::sql
