#pragma once

#include <memory>
#include <vector>

#include "common/diagnostics.hpp"
#include "frontend/ast.hpp"
#include "frontend/token.hpp"

namespace cash::frontend {

// Recursive-descent parser for MiniC (see docs/MINIC.md for the grammar).
// Error recovery is statement-level: on a parse error the parser skips to
// the next ';' or '}' and continues, so one mistake yields one diagnostic.
// AST nesting is capped at kMaxNestingDepth: a construct nested deeper is
// diagnosed and skipped, because every later stage (irgen, the AST's own
// destructor) recurses over the tree on the host stack.
class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticSink& diagnostics)
      : tokens_(std::move(tokens)), diagnostics_(&diagnostics) {}

  TranslationUnit parse();

 private:
  const Token& peek(int ahead = 0) const noexcept;
  const Token& advance() noexcept;
  bool check(TokenKind kind) const noexcept { return peek().kind == kind; }
  bool match(TokenKind kind) noexcept;
  const Token* expect(TokenKind kind, const char* context);
  void synchronize() noexcept;

  bool at_type_keyword() const noexcept;
  Type parse_type();

  void parse_top_level(TranslationUnit& unit);
  std::unique_ptr<FunctionDecl> parse_function(Type return_type,
                                               std::string name,
                                               SourceLoc loc);
  std::unique_ptr<Stmt> parse_stmt();
  std::unique_ptr<Stmt> parse_block();
  std::unique_ptr<Stmt> parse_var_decl();
  std::unique_ptr<Stmt> parse_if();
  std::unique_ptr<Stmt> parse_while();
  std::unique_ptr<Stmt> parse_for();

  std::unique_ptr<Expr> parse_expr();       // assignment level
  std::unique_ptr<Expr> parse_binary(int min_precedence);
  std::unique_ptr<Expr> parse_unary();
  std::unique_ptr<Expr> parse_postfix();
  std::unique_ptr<Expr> parse_primary();

  // Takes the AST one level deeper. Past kMaxNestingDepth it reports (once
  // per parse: the enclosing constructs are at the limit too), skips the
  // rest of the too-deep statement or expression, and returns false.
  bool deeper(bool statement);

  std::vector<Token> tokens_;
  DiagnosticSink* diagnostics_;
  std::size_t pos_{0};
  int depth_{0};
  bool too_deep_reported_{false};
};

} // namespace cash::frontend
