// Parser unit tests: AST shapes, operator precedence and associativity
// (validated through evaluation), and statement-level error recovery.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/cash.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"

namespace cash::frontend {
namespace {

TranslationUnit parse_ok(std::string_view source) {
  DiagnosticSink diagnostics;
  Lexer lexer(source, diagnostics);
  Parser parser(lexer.lex(), diagnostics);
  TranslationUnit unit = parser.parse();
  EXPECT_FALSE(diagnostics.has_errors()) << diagnostics.to_string();
  return unit;
}

int parse_error_count(std::string_view source) {
  DiagnosticSink diagnostics;
  Lexer lexer(source, diagnostics);
  Parser parser(lexer.lex(), diagnostics);
  (void)parser.parse();
  return diagnostics.error_count();
}

TEST(Parser, TopLevelShapes) {
  const TranslationUnit unit = parse_ok(R"(
int counter;
float samples[256];
void reset() { counter = 0; }
int get(int *p, float scale) { return p[0]; }
int main() { return 0; }
)");
  ASSERT_EQ(unit.globals.size(), 2U);
  EXPECT_FALSE(unit.globals[0].is_array);
  EXPECT_TRUE(unit.globals[1].is_array);
  EXPECT_EQ(unit.globals[1].elem_count, 256U);
  ASSERT_EQ(unit.functions.size(), 3U);
  EXPECT_EQ(unit.functions[0]->return_type, ir::Type::kVoid);
  ASSERT_EQ(unit.functions[1]->params.size(), 2U);
  EXPECT_EQ(unit.functions[1]->params[0].type, ir::Type::kIntPtr);
  EXPECT_EQ(unit.functions[1]->params[1].type, ir::Type::kFloat);
}

TEST(Parser, StatementShapes) {
  const TranslationUnit unit = parse_ok(R"(
int main() {
  int i;
  if (i) { i = 1; } else { i = 2; }
  while (i < 10) { i++; }
  for (i = 0; i < 4; i++) { continue; }
  { break; }
  return i;
}
)");
  const auto& body = unit.functions[0]->body->body;
  ASSERT_EQ(body.size(), 6U);
  EXPECT_EQ(body[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(body[1]->kind, StmtKind::kIf);
  EXPECT_NE(body[1]->else_branch, nullptr);
  EXPECT_EQ(body[2]->kind, StmtKind::kWhile);
  EXPECT_EQ(body[3]->kind, StmtKind::kFor);
  EXPECT_EQ(body[4]->kind, StmtKind::kBlock);
  EXPECT_EQ(body[5]->kind, StmtKind::kReturn);
}

TEST(Parser, DanglingElseBindsToNearestIf) {
  const TranslationUnit unit = parse_ok(R"(
int main() {
  int a;
  if (1)
    if (0) a = 1;
    else a = 2;
  return a;
}
)");
  const Stmt& outer = *unit.functions[0]->body->body[1];
  ASSERT_EQ(outer.kind, StmtKind::kIf);
  EXPECT_EQ(outer.else_branch, nullptr);
  ASSERT_EQ(outer.then_branch->kind, StmtKind::kIf);
  EXPECT_NE(outer.then_branch->else_branch, nullptr);
}

// Precedence and associativity validated by actually evaluating.
struct PrecedenceCase {
  const char* expr;
  int expected;
};

// Names each case by its fields; gtest's default byte dump would put the
// string's address into the test name.
void PrintTo(const PrecedenceCase& c, std::ostream* os) {
  *os << c.expr << " -> " << c.expected;
}

class Precedence : public testing::TestWithParam<PrecedenceCase> {};

TEST_P(Precedence, EvaluatesLikeC) {
  const std::string source = std::string("int main() { return ") +
                             GetParam().expr + "; }";
  CompileResult compiled = compile(source);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const vm::RunResult run = compiled.program->run();
  ASSERT_TRUE(run.ok);
  EXPECT_EQ(run.exit_code, GetParam().expected) << GetParam().expr;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Precedence,
    testing::Values(PrecedenceCase{"2 + 3 * 4", 14},
                    PrecedenceCase{"(2 + 3) * 4", 20},
                    PrecedenceCase{"20 - 8 - 4", 8},       // left assoc
                    PrecedenceCase{"100 / 10 / 2", 5},     // left assoc
                    PrecedenceCase{"1 << 2 + 1", 8},       // shift < add
                    PrecedenceCase{"7 & 3 == 3", 1},       // cmp > bitand
                    PrecedenceCase{"1 | 2 ^ 2", 1},
                    PrecedenceCase{"0 || 2 && 0", 0},      // && > ||
                    PrecedenceCase{"1 + (2 < 3)", 2},
                    PrecedenceCase{"-3 + 5", 2},
                    PrecedenceCase{"~0 + 2", 1},
                    PrecedenceCase{"10 % 4 * 2", 4}));

TEST(Parser, AssignmentIsRightAssociative) {
  CompileResult compiled = compile(R"(
int main() {
  int a; int b; int c;
  a = b = c = 7;
  return a + b + c;
}
)");
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  EXPECT_EQ(compiled.program->run().exit_code, 21);
}

TEST(Parser, PostfixAndPrefixIncrement) {
  CompileResult compiled = compile(R"(
int main() {
  int a = 5;
  int b;
  b = a++;
  b = b * 100 + ++a;
  return b;  // 5*100 + 7
}
)");
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  EXPECT_EQ(compiled.program->run().exit_code, 507);
}

TEST(Parser, RecoversAtStatementBoundary) {
  // One bad statement yields one error; the next statement still parses
  // (so the next error is also found).
  const int errors = parse_error_count(R"(
int main() {
  int a = ) 3;
  int b = ( 4;
  return 0;
}
)");
  EXPECT_GE(errors, 2);
}

TEST(Parser, MissingSemicolonIsDiagnosed) {
  EXPECT_GE(parse_error_count("int main() { int a = 3 return a; }"), 1);
}

TEST(Parser, StrayTopLevelBraceIsDiagnosedNotLooped) {
  // Top-level recovery must consume the `}` that statement recovery stops
  // at; otherwise each input below never reaches end of file.
  for (const char* source :
       {"}", "int main() { return 0; }\n}\n",
        "int main() { 3 if (1) { } return 0; }"}) {
    SCOPED_TRACE(source);
    EXPECT_GE(parse_error_count(source), 1);
    const CompileResult compiled = compile(source);
    EXPECT_FALSE(compiled.ok());
    EXPECT_FALSE(compiled.error.empty());
  }
}

// `int main() { ... }` whose body nests `depth` levels of one construct.
std::string nested_program(const std::string& shape, int depth) {
  std::string body;
  auto repeat = [&](const std::string& piece) {
    for (int i = 0; i < depth; ++i) {
      body += piece;
    }
  };
  if (shape == "parens") {
    body = "return ";
    repeat("(");
    body += "7";
    repeat(")");
    body += ";";
  } else if (shape == "blocks") {
    body = "int x; x = 7; ";
    repeat("{ ");
    repeat("} ");
    body += "return x;";
  } else if (shape == "negations") {
    body = "return ";
    repeat("- ");
    body += "7;";
  } else if (shape == "sum") {
    body = "return 0";
    repeat(" + 1");
    body += ";";
  } else if (shape == "else-if") {
    body = "int x; x = 7; ";
    repeat("if (x < 0) { x = 0; } else ");
    body += "x = x + 0; return x;";
  } else if (shape == "assignments") {
    body = "int x; ";
    repeat("x = ");
    body += "7; return x;";
  } else if (shape == "calls") {
    body = "return ";
    repeat("id(");
    body += "7";
    repeat(")");
    body += ";";
  }
  return "int id(int v) { return v; }\nint main() { " + body + " }\n";
}

const char* const kNestingShapes[] = {"parens",  "blocks",      "negations",
                                      "sum",     "else-if",     "assignments",
                                      "calls"};

TEST(Parser, NestingPastTheLimitIsDiagnosedNotOverflowed) {
  // 20,000 levels of any construct used to recurse the parser (or, for a
  // left-associative sum, irgen) off the end of an 8 MB host stack.
  for (const char* shape : kNestingShapes) {
    SCOPED_TRACE(shape);
    const std::string source = nested_program(shape, 20000);
    DiagnosticSink diagnostics;
    Lexer lexer(source, diagnostics);
    Parser parser(lexer.lex(), diagnostics);
    (void)parser.parse();
    // One diagnostic: the rest of the too-deep construct is skipped.
    ASSERT_EQ(diagnostics.error_count(), 1) << diagnostics.to_string();
    EXPECT_NE(diagnostics.to_string().find("nesting is deeper than"),
              std::string::npos)
        << diagnostics.to_string();
    const CompileResult compiled = compile(source);
    EXPECT_FALSE(compiled.ok());
    EXPECT_NE(compiled.error.find("nesting is deeper than"),
              std::string::npos)
        << compiled.error;
  }
}

TEST(Parser, HundredsOfNestingLevelsCompileAndRun) {
  // Well under the limit every shape goes through irgen, the optimiser,
  // elision and lowering, and runs.
  CompileOptions options;
  options.lower.mode = passes::CheckMode::kCash;
  for (const char* shape : kNestingShapes) {
    SCOPED_TRACE(shape);
    const std::string source = nested_program(shape, 400);
    const CompileResult compiled = compile(source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const int expected = std::string(shape) == "sum" ? 400 : 7;
    EXPECT_EQ(compiled.program->run().exit_code, expected);
  }
}

TEST(Parser, ArraySizeMustBePositiveConstant) {
  EXPECT_GE(parse_error_count("int a[0]; int main() { return 0; }"), 1);
  EXPECT_GE(parse_error_count("int main() { int n; int a[n]; return 0; }"),
            1);
}

TEST(Parser, ForHeaderPartsAreOptional) {
  const TranslationUnit unit = parse_ok(R"(
int main() {
  int i = 0;
  for (;;) { break; }
  for (; i < 3;) { i++; }
  return i;
}
)");
  const Stmt& bare = *unit.functions[0]->body->body[1];
  EXPECT_EQ(bare.for_init, nullptr);
  EXPECT_EQ(bare.cond, nullptr);
  EXPECT_EQ(bare.for_step, nullptr);
}

} // namespace
} // namespace cash::frontend
