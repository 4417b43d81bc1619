// Robustness sweeps: random and adversarial byte soup must never crash the
// lexer, parser, analyzers or engine — they fail closed or degrade to
// token-level analysis instead.
#include <gtest/gtest.h>

#include "core/joza.h"
#include "db/database.h"
#include "nti/nti.h"
#include "phpsrc/fragments.h"
#include "phpsrc/php_lexer.h"
#include "resilience/snapshot.h"
#include "sqlparse/lexer.h"
#include "sqlparse/parser.h"
#include "sqlparse/structure.h"
#include "util/hash.h"
#include "util/rng.h"

namespace joza {
namespace {

std::string RandomBytes(Rng& rng, std::size_t max_len) {
  std::string s;
  std::size_t len = rng.NextBelow(max_len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return s;
}

// SQL-ish soup: random tokens glued together, likelier to reach deep
// parser paths than raw bytes.
std::string RandomSqlSoup(Rng& rng, std::size_t max_tokens) {
  static const char* kPieces[] = {
      "SELECT", "FROM",  "WHERE",  "UNION", "OR",    "AND",  "(",
      ")",      ",",     "'",      "\"",    "--",    "/*",   "*/",
      "1",      "id",    "=",      "<",     ">",     "*",    ";",
      "NULL",   "LIKE",  "IN",     "NOT",   "LIMIT", "BY",   "ORDER",
      "`t`",    "0x1F",  "?",      ":p",    "\\",    "#",    ".",
  };
  std::string s;
  std::size_t n = rng.NextBelow(max_tokens);
  for (std::size_t i = 0; i < n; ++i) {
    s += kPieces[rng.NextBelow(std::size(kPieces))];
    if (rng.NextBool(0.7)) s.push_back(' ');
  }
  return s;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, LexerTotalOnRandomBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    std::string s = RandomBytes(rng, 200);
    auto tokens = sql::Lex(s);
    // Spans must be within bounds, non-overlapping and ordered.
    std::size_t prev_end = 0;
    for (const auto& t : tokens) {
      EXPECT_LE(t.span.begin, t.span.end);
      EXPECT_LE(t.span.end, s.size());
      EXPECT_GE(t.span.begin, prev_end);
      prev_end = t.span.end;
    }
  }
}

TEST_P(FuzzTest, ParserNeverCrashesOnSoup) {
  Rng rng(GetParam() * 3 + 1);
  for (int i = 0; i < 300; ++i) {
    std::string s = RandomSqlSoup(rng, 40);
    (void)sql::Parse(s);            // ok() or error, never UB
    (void)sql::StructureHashOf(s);  // same
  }
}

TEST_P(FuzzTest, DatabaseRejectsGarbageGracefully) {
  Rng rng(GetParam() * 7 + 2);
  db::Database db;
  db.Execute("CREATE TABLE t (a INT, s TEXT)");
  db.Execute("INSERT INTO t VALUES (1, 'x')");
  for (int i = 0; i < 150; ++i) {
    (void)db.Execute(RandomSqlSoup(rng, 30));
  }
  // The engine survives and original data is intact.
  auto r = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->rows[0][0].as_int(), 1);
}

TEST_P(FuzzTest, JozaTotalOnAdversarialQueries) {
  Rng rng(GetParam() * 31 + 3);
  php::FragmentSet set;
  set.AddRaw("SELECT * FROM t WHERE a = ");
  core::Joza joza(std::move(set));
  for (int i = 0; i < 150; ++i) {
    std::string q = RandomSqlSoup(rng, 30);
    std::vector<http::Input> inputs = {
        {http::InputKind::kGet, "x", RandomBytes(rng, 40)}};
    (void)joza.Check(q, inputs);  // must not crash or hang
  }
}

TEST_P(FuzzTest, PhpLexerTotalOnRandomBytes) {
  Rng rng(GetParam() * 131 + 5);
  for (int i = 0; i < 300; ++i) {
    (void)php::ExtractStringLiterals(RandomBytes(rng, 300));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 5, 8));

// Hand-picked adversarial inputs that exercised past bugs or likely
// corner cases.
TEST(FuzzRegression, NastyQueries) {
  const char* nasties[] = {
      "",
      " ",
      "'",
      "''",
      "'''",
      "\\",
      "/*",
      "*/",
      "/*/",
      "--",
      "#",
      "SELECT '",
      "SELECT /*",
      "SELECT 'a'' ",
      "0x",
      "1e",
      "1e+",
      ". . .",
      "(((((((((()))))))))",
      "SELECT 1 FROM t WHERE a = :",
      "?:?:?",
      "`unclosed",
      "SELECT \xff\xfe\x00\x01 FROM t",
  };
  php::FragmentSet set;
  set.AddRaw("SELECT 1");
  core::Joza joza(std::move(set));
  for (const char* q : nasties) {
    (void)sql::Lex(q);
    (void)sql::Parse(q);
    (void)joza.Check(q, {});
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Crash-durable snapshot loader: any mangled image must load fail-closed
// (an error Status, never a crash, never a partially-trusted vocabulary).
// ---------------------------------------------------------------------------

std::string ValidSnapshotImage() {
  php::FragmentSet set;
  set.AddRaw("SELECT * FROM posts WHERE id=", "app/post.php", 12);
  set.AddRaw("INSERT INTO comments VALUES (", "app/comment.php", 40);
  set.AddRaw("SELECT name FROM users WHERE uid=", "plugins/events.php", 7);
  return resilience::EncodeRulesetSnapshot(set, 99);
}

// Re-stamps the trailing checksum so deliberate field corruption tests the
// decoder's own guards rather than tripping the checksum first.
void RestampChecksum(std::string& image) {
  const std::string_view body(image.data(), image.size() - 8);
  const std::uint64_t sum = Fnv1a64(body);
  for (int i = 0; i < 8; ++i) {
    image[image.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
}

TEST(SnapshotFuzz, ZeroLengthAndTinyImagesFailClosed) {
  EXPECT_FALSE(resilience::ParseRulesetSnapshot("").ok());
  const std::string valid = ValidSnapshotImage();
  for (std::size_t len = 1; len < 32 && len < valid.size(); ++len) {
    auto parsed = resilience::ParseRulesetSnapshot(valid.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "tiny image of " << len << " bytes";
  }
}

TEST(SnapshotFuzz, EveryTruncationFailsClosed) {
  const std::string valid = ValidSnapshotImage();
  ASSERT_TRUE(resilience::ParseRulesetSnapshot(valid).ok());
  for (std::size_t len = 0; len < valid.size(); ++len) {
    auto parsed = resilience::ParseRulesetSnapshot(valid.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "truncated to " << len << " of "
                              << valid.size() << " bytes";
  }
}

TEST(SnapshotFuzz, EverySingleBitFlipFailsClosed) {
  const std::string valid = ValidSnapshotImage();
  for (std::size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = valid;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      auto parsed = resilience::ParseRulesetSnapshot(flipped);
      EXPECT_FALSE(parsed.ok())
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
}

TEST(SnapshotFuzz, FormatVersionSkewFailsClosedEvenWithValidChecksum) {
  // A snapshot written by a future/other format revision: same layout, a
  // different magic tag, checksum recomputed so only the tag distinguishes
  // it. The loader must refuse instead of guessing at the layout.
  for (const char skewed_tag : {'0', '2', '9', 'X'}) {
    std::string image = ValidSnapshotImage();
    image[7] = skewed_tag;  // "JZSNAP01" -> "JZSNAP0?"
    RestampChecksum(image);
    auto parsed = resilience::ParseRulesetSnapshot(image);
    EXPECT_FALSE(parsed.ok()) << "format tag '" << skewed_tag << "'";
  }
}

TEST(SnapshotFuzz, ImplausibleCountWithValidChecksumFailsClosed) {
  // Maliciously constructed image: huge fragment count, checksum valid.
  // The count-plausibility guard must refuse before the decode loop trusts
  // it for allocation sizing.
  std::string image = ValidSnapshotImage();
  for (int i = 0; i < 8; ++i) {
    image[16 + static_cast<std::size_t>(i)] = static_cast<char>(0xff);
  }
  RestampChecksum(image);
  auto parsed = resilience::ParseRulesetSnapshot(image);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(SnapshotFuzz, TrailingGarbageWithValidChecksumFailsClosed) {
  std::string image = ValidSnapshotImage();
  image.insert(image.size() - 8, "extra bytes after the last fragment");
  RestampChecksum(image);
  EXPECT_FALSE(resilience::ParseRulesetSnapshot(image).ok());
}

TEST_P(FuzzTest, SnapshotLoaderTotalOnRandomBytes) {
  Rng rng(GetParam() * 257 + 11);
  for (int i = 0; i < 500; ++i) {
    std::string image = RandomBytes(rng, 512);
    // Random soup virtually never carries a valid checksum; the invariant
    // under test is totality — no crash, no hang, no fail-open — so a
    // freak success only has to be internally consistent.
    auto parsed = resilience::ParseRulesetSnapshot(image);
    if (parsed.ok()) {
      EXPECT_LE(parsed->fragments.size(), image.size());
    }
  }
}

TEST_P(FuzzTest, SnapshotLoaderTotalOnMangledValidImages) {
  Rng rng(GetParam() * 509 + 13);
  const std::string valid = ValidSnapshotImage();
  for (int i = 0; i < 500; ++i) {
    std::string image = valid;
    // A burst of random edits: overwrites, truncation, growth.
    const std::size_t edits = 1 + rng.NextBelow(8);
    for (std::size_t e = 0; e < edits; ++e) {
      switch (rng.NextBelow(3)) {
        case 0:
          if (!image.empty()) {
            image[rng.NextBelow(image.size())] =
                static_cast<char>(rng.NextBelow(256));
          }
          break;
        case 1:
          image.resize(rng.NextBelow(image.size() + 1));
          break;
        default:
          image.push_back(static_cast<char>(rng.NextBelow(256)));
          break;
      }
    }
    (void)resilience::ParseRulesetSnapshot(image);  // must not crash
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// The staged tier is an optimization, never a policy change: on SQL soup
// with 1-8 inputs that sometimes occur verbatim in the query (exercising
// the exact stage both ways) it must stay verdict-identical to the
// reference tier.
// ---------------------------------------------------------------------------

TEST_P(FuzzTest, StagedMatchesReferenceOnSqlSoup) {
  nti::NtiConfig reference;
  reference.tier = nti::MatchTier::kReference;
  const nti::NtiAnalyzer ref(reference);
  const nti::NtiAnalyzer staged{nti::NtiConfig{}};

  Rng rng(GetParam() * 977 + 23);
  for (int i = 0; i < 120; ++i) {
    std::string query = RandomSqlSoup(rng, 25);
    std::vector<http::Input> inputs;
    const std::size_t n = 1 + rng.NextBelow(8);
    for (std::size_t k = 0; k < n; ++k) {
      std::string value = rng.NextBool(0.5) ? RandomBytes(rng, 24)
                                            : RandomSqlSoup(rng, 4);
      if (rng.NextBool(0.5) && !value.empty()) query += " " + value;
      inputs.push_back({http::InputKind::kGet, "p" + std::to_string(k),
                        std::move(value)});
    }
    const nti::NtiResult want = ref.Analyze(query, inputs);
    const nti::NtiResult got = staged.Analyze(query, inputs);
    ASSERT_EQ(got.attack_detected, want.attack_detected) << "query: " << query;
    ASSERT_EQ(got.tainted_critical_tokens.size(),
              want.tainted_critical_tokens.size());
    ASSERT_EQ(got.markings.size(), want.markings.size());
    for (std::size_t m = 0; m < want.markings.size(); ++m) {
      EXPECT_EQ(got.markings[m].span.begin, want.markings[m].span.begin);
      EXPECT_EQ(got.markings[m].span.end, want.markings[m].span.end);
      EXPECT_EQ(got.markings[m].input_name, want.markings[m].input_name);
    }
  }
}

}  // namespace
}  // namespace joza
