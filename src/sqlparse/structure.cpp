#include "sqlparse/structure.h"

#include "sqlparse/lexer.h"
#include "util/hash.h"

namespace joza::sql {

StatusOr<std::uint64_t> StructureHashOf(std::string_view query) {
  return StructureHashOf(query, Lex(query));
}

StatusOr<std::uint64_t> StructureHashOf(std::string_view /*query*/,
                                        const std::vector<Token>& tokens) {
  std::uint64_t h = kFnvOffset;
  for (const Token& t : tokens) {
    h = HashCombine(h, static_cast<std::uint64_t>(t.kind));
    switch (t.kind) {
      case TokenKind::kError:
        return Status::ParseError("query does not lex: no shape");
      case TokenKind::kNumber:
      case TokenKind::kString:
        break;  // data value: deliberately NOT hashed
      default:
        h = HashCombine(h, Fnv1a64(t.text));
    }
  }
  return h;
}

}  // namespace joza::sql
