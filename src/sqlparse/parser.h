// Recursive-descent SQL parser over the token stream from lexer.h.
#pragma once

#include <string_view>

#include "sqlparse/ast.h"
#include "util/status.h"

namespace joza::sql {

// Parses a single SQL statement (optionally terminated by ';').
StatusOr<Statement> Parse(std::string_view query);

// Parses just an expression (used by tests and the database engine).
StatusOr<ExprPtr> ParseExpression(std::string_view text);

}  // namespace joza::sql
