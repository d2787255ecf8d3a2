#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "frontend/token.hpp"

namespace cash::frontend {

// Hand-written MiniC lexer. Supports // and /* */ comments, decimal and hex
// integer literals, and float literals with optional exponent.
class Lexer {
 public:
  Lexer(std::string_view source, DiagnosticSink& diagnostics)
      : source_(source), diagnostics_(&diagnostics) {}

  // Tokenizes the whole buffer; always ends with a kEof token.
  std::vector<Token> lex();

 private:
  char peek(int ahead = 0) const noexcept;
  char advance() noexcept;
  bool match(char expected) noexcept;
  SourceLoc loc() const noexcept { return {line_, column_}; }

  void lex_number(std::vector<Token>& out);
  // Value of a decimal or hex literal, wrapped to 32-bit two's complement;
  // reports a diagnostic (and yields 0) when it exceeds 0xFFFFFFFF.
  std::int32_t int_literal(const std::string& digits, int base, SourceLoc at);
  void lex_ident(std::vector<Token>& out);

  std::string_view source_;
  DiagnosticSink* diagnostics_;
  std::size_t pos_{0};
  int line_{1};
  int column_{1};
};

} // namespace cash::frontend
