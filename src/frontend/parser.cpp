#include "frontend/parser.hpp"

#include <string>

namespace cash::frontend {

namespace {

// Binary operator precedence, C-style. Higher binds tighter.
int precedence(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPipePipe: return 1;
    case TokenKind::kAmpAmp:   return 2;
    case TokenKind::kPipe:     return 3;
    case TokenKind::kCaret:    return 4;
    case TokenKind::kAmp:      return 5;
    case TokenKind::kEq:
    case TokenKind::kNe:       return 6;
    case TokenKind::kLt:
    case TokenKind::kLe:
    case TokenKind::kGt:
    case TokenKind::kGe:       return 7;
    case TokenKind::kShl:
    case TokenKind::kShr:      return 8;
    case TokenKind::kPlus:
    case TokenKind::kMinus:    return 9;
    case TokenKind::kStar:
    case TokenKind::kSlash:
    case TokenKind::kPercent:  return 10;
    default:                   return -1;
  }
}

BinaryOp to_binary_op(TokenKind kind) {
  switch (kind) {
    case TokenKind::kPipePipe: return BinaryOp::kLogicalOr;
    case TokenKind::kAmpAmp:   return BinaryOp::kLogicalAnd;
    case TokenKind::kPipe:     return BinaryOp::kOr;
    case TokenKind::kCaret:    return BinaryOp::kXor;
    case TokenKind::kAmp:      return BinaryOp::kAnd;
    case TokenKind::kEq:       return BinaryOp::kEq;
    case TokenKind::kNe:       return BinaryOp::kNe;
    case TokenKind::kLt:       return BinaryOp::kLt;
    case TokenKind::kLe:       return BinaryOp::kLe;
    case TokenKind::kGt:       return BinaryOp::kGt;
    case TokenKind::kGe:       return BinaryOp::kGe;
    case TokenKind::kShl:      return BinaryOp::kShl;
    case TokenKind::kShr:      return BinaryOp::kShr;
    case TokenKind::kPlus:     return BinaryOp::kAdd;
    case TokenKind::kMinus:    return BinaryOp::kSub;
    case TokenKind::kStar:     return BinaryOp::kMul;
    case TokenKind::kSlash:    return BinaryOp::kDiv;
    case TokenKind::kPercent:  return BinaryOp::kRem;
    default:                   return BinaryOp::kAdd;
  }
}

} // namespace

const Token& Parser::peek(int ahead) const noexcept {
  const std::size_t at = pos_ + static_cast<std::size_t>(ahead);
  return at < tokens_.size() ? tokens_[at] : tokens_.back();
}

const Token& Parser::advance() noexcept {
  const Token& t = peek();
  if (pos_ + 1 < tokens_.size()) {
    ++pos_;
  }
  return t;
}

bool Parser::match(TokenKind kind) noexcept {
  if (!check(kind)) {
    return false;
  }
  advance();
  return true;
}

const Token* Parser::expect(TokenKind kind, const char* context) {
  if (check(kind)) {
    return &advance();
  }
  diagnostics_->error(peek().loc, std::string("expected ") + to_string(kind) +
                                      " " + context + ", found " +
                                      to_string(peek().kind));
  return nullptr;
}

void Parser::synchronize() noexcept {
  while (!check(TokenKind::kEof)) {
    if (match(TokenKind::kSemicolon)) {
      return;
    }
    if (check(TokenKind::kRBrace)) {
      return;
    }
    advance();
  }
}

bool Parser::at_type_keyword() const noexcept {
  return check(TokenKind::kKwInt) || check(TokenKind::kKwFloat) ||
         check(TokenKind::kKwVoid);
}

Type Parser::parse_type() {
  Type base = Type::kVoid;
  if (match(TokenKind::kKwInt)) {
    base = Type::kInt;
  } else if (match(TokenKind::kKwFloat)) {
    base = Type::kFloat;
  } else if (match(TokenKind::kKwVoid)) {
    base = Type::kVoid;
  } else {
    diagnostics_->error(peek().loc, "expected type");
    advance();
  }
  if (match(TokenKind::kStar)) {
    if (base == Type::kVoid) {
      diagnostics_->error(peek().loc, "void* is not supported in MiniC");
    } else {
      base = ir::pointer_to(base);
    }
  }
  return base;
}

TranslationUnit Parser::parse() {
  TranslationUnit unit;
  while (!check(TokenKind::kEof)) {
    parse_top_level(unit);
  }
  return unit;
}

void Parser::parse_top_level(TranslationUnit& unit) {
  const SourceLoc loc = peek().loc;
  if (!at_type_keyword()) {
    diagnostics_->error(loc, "expected declaration at top level");
    // synchronize() stops at `}` for the enclosing block; at top level
    // there is none, so consume the stray brace or parse() makes no
    // progress.
    synchronize();
    match(TokenKind::kRBrace);
    return;
  }
  const Type type = parse_type();
  const Token* name = expect(TokenKind::kIdent, "in declaration");
  if (name == nullptr) {
    synchronize();
    return;
  }

  if (check(TokenKind::kLParen)) {
    auto function = parse_function(type, name->text, loc);
    if (function != nullptr) {
      unit.functions.push_back(std::move(function));
    }
    return;
  }

  GlobalDecl global;
  global.type = type;
  global.name = name->text;
  global.loc = loc;
  if (match(TokenKind::kLBracket)) {
    const Token* size = expect(TokenKind::kIntLit, "as array size");
    if (size != nullptr) {
      if (size->int_value <= 0) {
        diagnostics_->error(size->loc, "array size must be positive");
      } else {
        global.is_array = true;
        global.elem_count = static_cast<std::uint32_t>(size->int_value);
      }
    }
    expect(TokenKind::kRBracket, "after array size");
  }
  expect(TokenKind::kSemicolon, "after global declaration");
  if (global.type == Type::kVoid) {
    diagnostics_->error(loc, "global of type void");
    return;
  }
  unit.globals.push_back(std::move(global));
}

std::unique_ptr<FunctionDecl> Parser::parse_function(Type return_type,
                                                     std::string name,
                                                     SourceLoc loc) {
  auto function = std::make_unique<FunctionDecl>();
  function->return_type = return_type;
  function->name = std::move(name);
  function->loc = loc;

  expect(TokenKind::kLParen, "after function name");
  if (!check(TokenKind::kRParen)) {
    do {
      ParamDecl param;
      param.loc = peek().loc;
      param.type = parse_type();
      if (param.type == Type::kVoid) {
        // `void` alone as the parameter list, C style.
        if (function->params.empty() && check(TokenKind::kRParen)) {
          break;
        }
        diagnostics_->error(param.loc, "parameter of type void");
      }
      const Token* pname = expect(TokenKind::kIdent, "as parameter name");
      if (pname != nullptr) {
        param.name = pname->text;
      }
      function->params.push_back(std::move(param));
    } while (match(TokenKind::kComma));
  }
  expect(TokenKind::kRParen, "after parameters");
  if (!check(TokenKind::kLBrace)) {
    diagnostics_->error(peek().loc,
                        "expected function body ('{'); "
                        "forward declarations are not needed in MiniC");
    synchronize();
    return nullptr;
  }
  function->body = parse_block();
  return function;
}

std::unique_ptr<Stmt> Parser::parse_block() {
  auto block = std::make_unique<Stmt>();
  block->kind = StmtKind::kBlock;
  block->loc = peek().loc;
  expect(TokenKind::kLBrace, "to open block");
  while (!check(TokenKind::kRBrace) && !check(TokenKind::kEof)) {
    auto stmt = parse_stmt();
    if (stmt != nullptr) {
      block->body.push_back(std::move(stmt));
    }
  }
  expect(TokenKind::kRBrace, "to close block");
  return block;
}

std::unique_ptr<Stmt> Parser::parse_stmt() {
  if (at_type_keyword()) {
    return parse_var_decl();
  }
  switch (peek().kind) {
    case TokenKind::kLBrace:     return parse_block();
    case TokenKind::kKwIf:       return parse_if();
    case TokenKind::kKwWhile:    return parse_while();
    case TokenKind::kKwFor:      return parse_for();
    case TokenKind::kKwReturn: {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kReturn;
      stmt->loc = advance().loc;
      if (!check(TokenKind::kSemicolon)) {
        stmt->expr = parse_expr();
      }
      expect(TokenKind::kSemicolon, "after return");
      return stmt;
    }
    case TokenKind::kKwBreak: {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kBreak;
      stmt->loc = advance().loc;
      expect(TokenKind::kSemicolon, "after break");
      return stmt;
    }
    case TokenKind::kKwContinue: {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kContinue;
      stmt->loc = advance().loc;
      expect(TokenKind::kSemicolon, "after continue");
      return stmt;
    }
    default: {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kExpr;
      stmt->loc = peek().loc;
      stmt->expr = parse_expr();
      if (expect(TokenKind::kSemicolon, "after expression") == nullptr) {
        synchronize();
      }
      return stmt;
    }
  }
}

std::unique_ptr<Stmt> Parser::parse_var_decl() {
  auto stmt = std::make_unique<Stmt>();
  stmt->kind = StmtKind::kVarDecl;
  stmt->loc = peek().loc;
  stmt->decl_type = parse_type();
  if (stmt->decl_type == Type::kVoid) {
    diagnostics_->error(stmt->loc, "variable of type void");
  }
  const Token* name = expect(TokenKind::kIdent, "in variable declaration");
  if (name != nullptr) {
    stmt->decl_name = name->text;
  }
  if (match(TokenKind::kLBracket)) {
    const Token* size = expect(TokenKind::kIntLit, "as array size");
    if (size != nullptr) {
      if (size->int_value <= 0) {
        diagnostics_->error(size->loc, "array size must be positive");
      } else {
        stmt->decl_is_array = true;
        stmt->decl_elem_count = static_cast<std::uint32_t>(size->int_value);
      }
    }
    expect(TokenKind::kRBracket, "after array size");
    if (ir::is_pointer(stmt->decl_type)) {
      diagnostics_->error(stmt->loc, "arrays of pointers are not supported");
    }
  }
  if (match(TokenKind::kAssign)) {
    if (stmt->decl_is_array) {
      diagnostics_->error(peek().loc, "array initialisers are not supported");
    }
    stmt->expr = parse_expr();
  }
  expect(TokenKind::kSemicolon, "after variable declaration");
  return stmt;
}

std::unique_ptr<Stmt> Parser::parse_if() {
  auto stmt = std::make_unique<Stmt>();
  stmt->kind = StmtKind::kIf;
  stmt->loc = advance().loc; // 'if'
  expect(TokenKind::kLParen, "after 'if'");
  stmt->cond = parse_expr();
  expect(TokenKind::kRParen, "after condition");
  stmt->then_branch = parse_stmt();
  if (match(TokenKind::kKwElse)) {
    stmt->else_branch = parse_stmt();
  }
  return stmt;
}

std::unique_ptr<Stmt> Parser::parse_while() {
  auto stmt = std::make_unique<Stmt>();
  stmt->kind = StmtKind::kWhile;
  stmt->loc = advance().loc; // 'while'
  expect(TokenKind::kLParen, "after 'while'");
  stmt->cond = parse_expr();
  expect(TokenKind::kRParen, "after condition");
  stmt->then_branch = parse_stmt();
  return stmt;
}

std::unique_ptr<Stmt> Parser::parse_for() {
  auto stmt = std::make_unique<Stmt>();
  stmt->kind = StmtKind::kFor;
  stmt->loc = advance().loc; // 'for'
  expect(TokenKind::kLParen, "after 'for'");
  if (!check(TokenKind::kSemicolon)) {
    stmt->for_init = parse_expr();
  }
  expect(TokenKind::kSemicolon, "after for-initialiser");
  if (!check(TokenKind::kSemicolon)) {
    stmt->cond = parse_expr();
  }
  expect(TokenKind::kSemicolon, "after for-condition");
  if (!check(TokenKind::kRParen)) {
    stmt->for_step = parse_expr();
  }
  expect(TokenKind::kRParen, "after for-step");
  stmt->then_branch = parse_stmt();
  return stmt;
}

std::unique_ptr<Expr> Parser::parse_expr() {
  auto lhs = parse_binary(0);

  AssignOp op = AssignOp::kNone;
  bool is_assign = true;
  switch (peek().kind) {
    case TokenKind::kAssign:        op = AssignOp::kNone; break;
    case TokenKind::kPlusAssign:    op = AssignOp::kAdd; break;
    case TokenKind::kMinusAssign:   op = AssignOp::kSub; break;
    case TokenKind::kStarAssign:    op = AssignOp::kMul; break;
    case TokenKind::kSlashAssign:   op = AssignOp::kDiv; break;
    case TokenKind::kPercentAssign: op = AssignOp::kRem; break;
    default:                        is_assign = false; break;
  }
  if (!is_assign) {
    return lhs;
  }
  const SourceLoc loc = advance().loc;
  auto assign = std::make_unique<Expr>();
  assign->kind = ExprKind::kAssign;
  assign->loc = loc;
  assign->assign_op = op;
  assign->lhs = std::move(lhs);
  assign->rhs = parse_expr(); // right-associative
  return assign;
}

std::unique_ptr<Expr> Parser::parse_binary(int min_precedence) {
  auto lhs = parse_unary();
  while (true) {
    const int prec = precedence(peek().kind);
    if (prec < 0 || prec < min_precedence) {
      return lhs;
    }
    const Token& op_token = advance();
    auto rhs = parse_binary(prec + 1);
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kBinary;
    node->loc = op_token.loc;
    node->binary_op = to_binary_op(op_token.kind);
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    lhs = std::move(node);
  }
}

std::unique_ptr<Expr> Parser::parse_unary() {
  const SourceLoc loc = peek().loc;
  if (match(TokenKind::kMinus)) {
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kUnary;
    node->loc = loc;
    node->unary_op = UnaryOp::kNeg;
    node->lhs = parse_unary();
    return node;
  }
  if (match(TokenKind::kBang)) {
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kUnary;
    node->loc = loc;
    node->unary_op = UnaryOp::kNot;
    node->lhs = parse_unary();
    return node;
  }
  if (match(TokenKind::kTilde)) {
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kUnary;
    node->loc = loc;
    node->unary_op = UnaryOp::kBitNot;
    node->lhs = parse_unary();
    return node;
  }
  if (match(TokenKind::kStar)) {
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kDeref;
    node->loc = loc;
    node->lhs = parse_unary();
    return node;
  }
  if (check(TokenKind::kPlusPlus) || check(TokenKind::kMinusMinus)) {
    const bool increment = check(TokenKind::kPlusPlus);
    advance();
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kIncDec;
    node->loc = loc;
    node->is_prefix = true;
    node->is_increment = increment;
    node->lhs = parse_unary();
    return node;
  }
  return parse_postfix();
}

std::unique_ptr<Expr> Parser::parse_postfix() {
  auto expr = parse_primary();
  while (true) {
    if (match(TokenKind::kLBracket)) {
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kIndex;
      node->loc = peek().loc;
      node->lhs = std::move(expr);
      node->rhs = parse_expr();
      expect(TokenKind::kRBracket, "after index");
      expr = std::move(node);
      continue;
    }
    if (check(TokenKind::kPlusPlus) || check(TokenKind::kMinusMinus)) {
      const bool increment = check(TokenKind::kPlusPlus);
      const SourceLoc loc = advance().loc;
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kIncDec;
      node->loc = loc;
      node->is_prefix = false;
      node->is_increment = increment;
      node->lhs = std::move(expr);
      expr = std::move(node);
      continue;
    }
    return expr;
  }
}

std::unique_ptr<Expr> Parser::parse_primary() {
  const Token& token = peek();
  switch (token.kind) {
    case TokenKind::kIntLit: {
      advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kIntLit;
      node->loc = token.loc;
      node->int_value = token.int_value;
      return node;
    }
    case TokenKind::kFloatLit: {
      advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kFloatLit;
      node->loc = token.loc;
      node->float_value = token.float_value;
      return node;
    }
    case TokenKind::kLParen: {
      advance();
      auto inner = parse_expr();
      expect(TokenKind::kRParen, "after parenthesised expression");
      return inner;
    }
    case TokenKind::kIdent: {
      advance();
      if (match(TokenKind::kLParen)) {
        auto node = std::make_unique<Expr>();
        node->kind = ExprKind::kCall;
        node->loc = token.loc;
        node->name = token.text;
        if (!check(TokenKind::kRParen)) {
          do {
            node->args.push_back(parse_expr());
          } while (match(TokenKind::kComma));
        }
        expect(TokenKind::kRParen, "after call arguments");
        return node;
      }
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kVarRef;
      node->loc = token.loc;
      node->name = token.text;
      return node;
    }
    default: {
      diagnostics_->error(token.loc, std::string("unexpected token ") +
                                         to_string(token.kind) +
                                         " in expression");
      advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kIntLit;
      node->loc = token.loc;
      return node;
    }
  }
}

} // namespace cash::frontend
