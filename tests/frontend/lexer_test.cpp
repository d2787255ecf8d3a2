// Lexer unit tests: token kinds, literals, comments, locations, errors.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "frontend/lexer.hpp"

namespace cash::frontend {
namespace {

std::vector<Token> lex_ok(std::string_view source) {
  DiagnosticSink diagnostics;
  Lexer lexer(source, diagnostics);
  std::vector<Token> tokens = lexer.lex();
  EXPECT_FALSE(diagnostics.has_errors()) << diagnostics.to_string();
  return tokens;
}

TEST(Lexer, KeywordsAndIdentifiers) {
  const auto tokens = lex_ok("int foo while whilex _bar");
  ASSERT_EQ(tokens.size(), 6U); // incl. EOF
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwInt);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[1].text, "foo");
  EXPECT_EQ(tokens[2].kind, TokenKind::kKwWhile);
  EXPECT_EQ(tokens[3].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[3].text, "whilex");
  EXPECT_EQ(tokens[4].text, "_bar");
  EXPECT_EQ(tokens[5].kind, TokenKind::kEof);
}

TEST(Lexer, IntegerLiterals) {
  const auto tokens = lex_ok("0 42 0x1F 0XFF");
  EXPECT_EQ(tokens[0].int_value, 0);
  EXPECT_EQ(tokens[1].int_value, 42);
  EXPECT_EQ(tokens[2].int_value, 0x1F);
  EXPECT_EQ(tokens[3].int_value, 0xFF);
}

TEST(Lexer, IntegerLiteralsPastThirtyTwoBitsAreErrors) {
  // Without the range check these wrapped silently: 4294967297 became 1,
  // so `int a[4294967297];` declared a one-element array.
  for (const char* source :
       {"4294967297", "0x100000000", "99999999999999999999999",
        "0xFFFFFFFFFFFFFFFFFFFF"}) {
    DiagnosticSink diagnostics;
    Lexer lexer(source, diagnostics);
    lexer.lex();
    ASSERT_EQ(diagnostics.error_count(), 1) << source;
    EXPECT_NE(diagnostics.to_string().find("does not fit in 32 bits"),
              std::string::npos)
        << diagnostics.to_string();
  }
}

TEST(Lexer, ThirtyTwoBitLiteralsKeepTwosComplementWrap) {
  const auto tokens = lex_ok("4294967295 0xFFFFFFFF 2147483648 -2147483648");
  EXPECT_EQ(tokens[0].int_value, -1);
  EXPECT_EQ(tokens[1].int_value, -1);
  EXPECT_EQ(tokens[2].int_value, std::numeric_limits<std::int32_t>::min());
  // Unary minus is a separate token; its operand wraps to INT_MIN, which
  // negates back to INT_MIN.
  EXPECT_EQ(tokens[3].kind, TokenKind::kMinus);
  EXPECT_EQ(tokens[4].int_value, std::numeric_limits<std::int32_t>::min());
}

TEST(Lexer, FloatLiterals) {
  const auto tokens = lex_ok("1.5 0.25 2e3 1.5e-2");
  EXPECT_EQ(tokens[0].kind, TokenKind::kFloatLit);
  EXPECT_FLOAT_EQ(tokens[0].float_value, 1.5F);
  EXPECT_FLOAT_EQ(tokens[1].float_value, 0.25F);
  EXPECT_EQ(tokens[2].kind, TokenKind::kFloatLit);
  EXPECT_FLOAT_EQ(tokens[2].float_value, 2000.0F);
  EXPECT_FLOAT_EQ(tokens[3].float_value, 0.015F);
}

TEST(Lexer, IntFollowedByMemberLikeDotIsNotFloat) {
  // "1." without a digit after the dot stays an int plus an error later —
  // MiniC has no member access, but the lexer must not consume the dot.
  DiagnosticSink diagnostics;
  Lexer lexer("x = 1 . 5", diagnostics);
  auto tokens = lexer.lex();
  EXPECT_TRUE(diagnostics.has_errors()); // '.' is not a MiniC token
  EXPECT_EQ(tokens[2].kind, TokenKind::kIntLit);
}

TEST(Lexer, MultiCharOperators) {
  const auto tokens =
      lex_ok("== != <= >= << >> && || ++ -- += -= *= /= %=");
  const TokenKind expected[] = {
      TokenKind::kEq,         TokenKind::kNe,         TokenKind::kLe,
      TokenKind::kGe,         TokenKind::kShl,        TokenKind::kShr,
      TokenKind::kAmpAmp,     TokenKind::kPipePipe,   TokenKind::kPlusPlus,
      TokenKind::kMinusMinus, TokenKind::kPlusAssign, TokenKind::kMinusAssign,
      TokenKind::kStarAssign, TokenKind::kSlashAssign,
      TokenKind::kPercentAssign};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
  }
}

TEST(Lexer, CommentsAreSkipped) {
  const auto tokens = lex_ok(R"(
    a // line comment with * and /
    /* block
       comment */ b
  )");
  ASSERT_EQ(tokens.size(), 3U);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, UnterminatedBlockCommentIsAnError) {
  DiagnosticSink diagnostics;
  Lexer lexer("a /* never closed", diagnostics);
  (void)lexer.lex();
  EXPECT_TRUE(diagnostics.has_errors());
}

TEST(Lexer, SourceLocationsTrackLinesAndColumns) {
  const auto tokens = lex_ok("a\n  b");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[0].loc.column, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[1].loc.column, 3);
}

TEST(Lexer, UnknownCharacterIsAnError) {
  DiagnosticSink diagnostics;
  Lexer lexer("a @ b", diagnostics);
  (void)lexer.lex();
  EXPECT_TRUE(diagnostics.has_errors());
}

} // namespace
} // namespace cash::frontend
