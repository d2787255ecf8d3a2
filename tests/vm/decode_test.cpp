// Bit-transparency of the pre-decoded micro-op engine (vm/decode.hpp):
// for every program, check mode and failure flavour, the fast engine and
// the reference interpreter must produce *identical* RunResults — cycles,
// breakdowns, shadow cycles, every counter, segment/heap/kernel stats,
// per-function profiles, fault details and printed output. Host-side TLB
// statistics are the one documented exemption.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/cash.hpp"
#include "vm/decode.hpp"
#include "workloads/workloads.hpp"

#include "run_result_compare.hpp"

namespace cash {
namespace {

using passes::CheckMode;

constexpr CheckMode kAllModes[] = {CheckMode::kNoCheck,   CheckMode::kBcc,
                                   CheckMode::kCash,      CheckMode::kBoundInsn,
                                   CheckMode::kEfence,    CheckMode::kShadow};

const char* mode_name(CheckMode mode) {
  switch (mode) {
    case CheckMode::kNoCheck:   return "nocheck";
    case CheckMode::kBcc:       return "bcc";
    case CheckMode::kCash:      return "cash";
    case CheckMode::kBoundInsn: return "boundinsn";
    case CheckMode::kEfence:    return "efence";
    case CheckMode::kShadow:    return "shadow";
  }
  return "?";
}

using vm::expect_identical; // run_result_compare.hpp

// Compiles `source` for `mode` and runs it on all three engines — fused
// micro-op stream (the default), unfused plain stream, and the reference
// interpreter — comparing the complete RunResult pairwise. `entry` selects
// run_function (nullptr = run main).
void run_both(const std::string& source, CheckMode mode,
              std::uint64_t max_instructions = 0,
              const char* entry = nullptr) {
  CompileOptions options;
  options.lower.mode = mode;
  if (max_instructions != 0) {
    options.machine.max_instructions = max_instructions;
  }
  CompileResult compiled = compile(source, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  ASSERT_NE(compiled.program->decoded(), nullptr);
  EXPECT_TRUE(compiled.program->decoded()->ok());

  vm::MachineConfig unfused_cfg = compiled.program->options().machine;
  unfused_cfg.enable_fusion = false;
  vm::MachineConfig slow_cfg = compiled.program->options().machine;
  slow_cfg.enable_predecode = false;
  std::unique_ptr<vm::Machine> fast = compiled.program->make_machine();
  std::unique_ptr<vm::Machine> unfused =
      compiled.program->make_machine(unfused_cfg);
  std::unique_ptr<vm::Machine> slow =
      compiled.program->make_machine(slow_cfg);
  const vm::RunResult rf =
      entry != nullptr ? fast->run_function(entry) : fast->run();
  const vm::RunResult ru =
      entry != nullptr ? unfused->run_function(entry) : unfused->run();
  const vm::RunResult rs =
      entry != nullptr ? slow->run_function(entry) : slow->run();
  std::string ctx = std::string("mode=") + mode_name(mode);
  if (entry != nullptr) {
    ctx += std::string(" entry=") + entry;
  }
  if (max_instructions != 0) {
    ctx += " max=" + std::to_string(max_instructions);
  }
  expect_identical(rs, rf, ctx + " [fused vs interp]");
  expect_identical(rs, ru, ctx + " [unfused vs interp]");
}

void run_all_modes(const std::string& source,
                   std::uint64_t max_instructions = 0,
                   const char* entry = nullptr) {
  for (CheckMode mode : kAllModes) {
    run_both(source, mode, max_instructions, entry);
  }
}

// Exercises every IR opcode the decoder lowers: integer and float
// constants, every binary and unary operator, global scalars and arrays,
// local scalars and arrays, heap pointers parked in memory, nested and
// recursive calls, branches, loops, and all the statically-costed builtins.
constexpr const char* kEveryOpcode = R"(
int gtable[32];
int gscalar;
int *stash;
float accum;
int fill(int n) {
  int i;
  for (i = 0; i < n; i++) {
    gtable[i] = i * 3 - (i % 5) + (i / 2);
  }
  return n;
}
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int bits(int x) {
  return ((x & 5) | (x ^ 3)) + (x << 2) + (x >> 1) + ~x + !x;
}
float mathy(float x) {
  return sqrt(x) + fabs(0.0 - x) + sin(x) + cos(x) + exp(x / 8.0) +
         log(x + 1.0) + floor(x * 1.5) + pow(x, 2.0);
}
int locals(int n) {
  int buf[16];
  int i; int s;
  s = 0;
  for (i = 0; i < 16; i++) {
    buf[i] = gtable[(i + n) % 32] + bits(i);
    s = s + buf[i];
  }
  return s;
}
int heapwork(int n) {
  int *p;
  int i; int s;
  p = malloc(64);
  stash = p;
  p = stash;
  for (i = 0; i < 16; i++) {
    p[i] = i * n;
  }
  s = 0;
  for (i = 0; i < 16; i++) {
    s = s + p[i];
  }
  free(p);
  return s;
}
int main() {
  int i; int s;
  srand(99);
  fill(32);
  gscalar = bits(rand() % 100);
  accum = mathy(2.5);
  s = 0;
  for (i = 0; i < 4; i++) {
    s = s + locals(i) + heapwork(i) + fib(9);
  }
  print_int(s);
  print_int(gscalar);
  print_float(accum);
  print_int(abs(0 - s));
  if (s > 0 && gscalar < 100000) { print_int(1); } else { print_int(0); }
  if (s < 0 || gscalar > 0 - 100000) { print_int(2); }
  return s % 251;
}
)";

// The six Table-1 kernels at smoke sizes, each under its own check mode so
// together they cover every lowering.
struct KernelInput {
  const char* name;
  std::string source;
  CheckMode mode;
};

std::vector<KernelInput> table1_kernels() {
  return {
      {"matmul", workloads::matmul_source(16), CheckMode::kCash},
      {"gauss", workloads::gauss_source(16), CheckMode::kBcc},
      {"fft2d", workloads::fft2d_source(8), CheckMode::kNoCheck},
      {"edge", workloads::edge_source(48, 32), CheckMode::kShadow},
      {"volren", workloads::volren_source(12, 24), CheckMode::kBoundInsn},
      {"svd", workloads::svd_source(16, 12, 3), CheckMode::kEfence},
  };
}

TEST(DecodeTransparency, EveryOpcodeEveryMode) {
  run_all_modes(kEveryOpcode);
}

TEST(DecodeTransparency, Table1KernelsEveryEngine) {
  for (const KernelInput& kernel : table1_kernels()) {
    SCOPED_TRACE(kernel.name);
    run_both(kernel.source, kernel.mode);
  }
}

TEST(DecodeTransparency, GlobalArrayOverflowEveryMode) {
  // In checked modes the fault fires (same kind, detail, partial charges);
  // in kNoCheck the write lands and both engines see the same final state.
  run_all_modes(R"(
int buf[8];
int smash(int n) {
  int i;
  for (i = 0; i < n; i++) {
    buf[i] = i;
  }
  return buf[0];
}
int main() { return smash(20); }
)");
}

TEST(DecodeTransparency, LocalArrayOverflowEveryMode) {
  run_all_modes(R"(
int smash(int n) {
  int buf[4];
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i] = i;
    s = s + buf[i];
  }
  return s;
}
int main() { return smash(9); }
)");
}

TEST(DecodeTransparency, HeapOverflowThroughStoredPointerEveryMode) {
  run_all_modes(R"(
int *stash;
int main() {
  int *p;
  int i;
  p = malloc(32);
  stash = p;
  p = stash;
  for (i = 0; i < 20; i++) {
    p[i] = i;
  }
  return 0;
}
)");
}

TEST(DecodeTransparency, DivideByZeroFault) {
  // #DE is raised mid-group: the engine must charge the group prefix plus
  // the faulting op in full, exactly like the interpreter's per-op path.
  run_all_modes(R"(
int main() {
  int d; int i; int s;
  d = 0;
  s = 0;
  for (i = 0; i < 3; i++) { s = s + i; }
  return s / d;
}
)");
  run_all_modes(R"(
int main() {
  int d;
  d = 0;
  return 7 % d;
}
)");
}

TEST(DecodeTransparency, InstructionBudgetSweep) {
  // The budget must abort at the *same* instruction with the same partial
  // cycle charges whether the stream is folded or itemized. Sweep the cap
  // across group boundaries, call sites and the entry prologue.
  constexpr const char* kProgram = R"(
int work(int n) {
  int buf[8];
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 8] = i;
    s = s + buf[i % 8];
  }
  return s;
}
int main() {
  int t;
  t = work(6) + work(3);
  print_int(t);
  return t;
}
)";
  for (std::uint64_t max = 1; max <= 40; ++max) {
    run_both(kProgram, CheckMode::kCash, max);
    run_both(kProgram, CheckMode::kNoCheck, max);
  }
  run_both(kProgram, CheckMode::kBcc, 13);
  run_both(kProgram, CheckMode::kShadow, 17);
}

TEST(DecodeTransparency, BudgetInsideInfiniteLoop) {
  run_all_modes("int main() { while (1) {} return 0; }", 10000);
}

TEST(DecodeTransparency, StackOverflowFromDeepRecursion) {
  // Each frame carries a 16 KB local array; the 64 MB simulated stack
  // overflows a few thousand frames down, in the prologue — both engines
  // must report the identical error at the identical depth.
  run_both(R"(
int deep(int n) {
  int pad[4096];
  pad[0] = n;
  if (n == 0) { return 0; }
  return deep(n - 1) + pad[0];
}
int main() { return deep(1000000); }
)",
           CheckMode::kNoCheck);
}

TEST(DecodeTransparency, RunFunctionEntryPoints) {
  constexpr const char* kServer = R"(
int table[16];
int server_init() {
  int i;
  for (i = 0; i < 16; i++) { table[i] = i * 7; }
  return 0;
}
int handle_request() {
  int i; int s;
  s = 0;
  for (i = 0; i < 16; i++) { s = s + table[i] + rand() % 5; }
  return s;
}
int main() { server_init(); return handle_request(); }
)";
  run_all_modes(kServer, 0, "server_init");
  run_all_modes(kServer, 0, "handle_request");
}

TEST(DecodeTransparency, UnknownEntryFunction) {
  run_both("int main() { return 0; }", CheckMode::kCash, 0, "no_such_fn");
}

TEST(DecodeTransparency, RepeatedRunsAccumulateIdentically) {
  // Globals and the heap persist across runs of one machine; the engines
  // must agree run after run, not just on a fresh machine.
  constexpr const char* kCounter = R"(
int counter;
int main() {
  counter = counter + 1;
  print_int(counter);
  return counter;
}
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(kCounter, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  vm::MachineConfig slow_cfg = compiled.program->options().machine;
  slow_cfg.enable_predecode = false;
  std::unique_ptr<vm::Machine> fast = compiled.program->make_machine();
  std::unique_ptr<vm::Machine> slow =
      compiled.program->make_machine(slow_cfg);
  for (int i = 0; i < 3; ++i) {
    expect_identical(slow->run(), fast->run(),
                     "run " + std::to_string(i));
  }
}

TEST(DecodeTransparency, EnvVarForcesInterpreter) {
  // $CASH_NO_PREDECODE must win over config.enable_predecode — and, being
  // a host-side toggle, must not change results either.
  constexpr const char* kSmall = "int main() { return 41 + 1; }";
  CompileOptions options;
  CompileResult compiled = compile(kSmall, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const vm::RunResult fast = compiled.program->make_machine()->run();
  ::setenv("CASH_NO_PREDECODE", "1", 1);
  const vm::RunResult forced = compiled.program->make_machine()->run();
  ::unsetenv("CASH_NO_PREDECODE");
  expect_identical(forced, fast, "env toggle");
  EXPECT_EQ(fast.exit_code, 42);
}

TEST(DecodeTransparency, DirectMachineHasNoDecodedImage) {
  // A Machine constructed straight from the Module never runs fast — that
  // keeps differential coverage of the reference interpreter alive even
  // where callers forget to thread the decoded image through.
  constexpr const char* kSmall = "int main() { return 7; }";
  CompileResult compiled = compile(kSmall, {});
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  vm::Machine direct(compiled.program->module(),
                     compiled.program->options().machine);
  const vm::RunResult r = direct.run();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.exit_code, 7);
}

TEST(DecodeTransparency, DecodedImageIsWellFormed) {
  // Checks one member stream: every group header's member count covers
  // in-bounds micro-ops, the header maps to a FoldedGroup whose count equals
  // the sum of the members' IR widths, and a terminator appears only as the
  // last member of its group.
  const auto check_stream = [](const vm::DecodedFunction& fn,
                               const vm::UopStream& stream, bool fused) {
    for (std::size_t i = 0; i < stream.uops.size(); ++i) {
      const vm::MicroInstr& u = stream.uops[i];
      if (u.op != vm::UOp::kGroup) {
        continue;
      }
      ASSERT_LE(i + 1 + u.imm, stream.uops.size());
      ASSERT_LT(u.aux, stream.groups.size());
      const vm::FoldedGroup& grp = stream.groups[u.aux];
      std::uint32_t ir_width = 0;
      for (std::uint32_t m = 0; m < u.imm; ++m) {
        const vm::MicroInstr& member = stream.uops[i + 1 + m];
        ir_width += vm::uop_width(member.op);
        const bool terminator = member.op == vm::UOp::kJump ||
                                member.op == vm::UOp::kBranch ||
                                member.op == vm::UOp::kFusedCmpBranch;
        if (terminator) {
          EXPECT_EQ(m, u.imm - 1)
              << "terminator mid-group in " << fn.fn->name;
        }
        if (!fused) {
          EXPECT_EQ(vm::uop_width(member.op), 1u)
              << "fused micro-op in the plain stream of " << fn.fn->name;
        }
      }
      // Group headers of both streams describe the same IR instructions.
      EXPECT_EQ(ir_width, grp.count) << "stream=" << (fused ? "fused" : "plain")
                                     << " fn=" << fn.fn->name;
    }
  };
  // The every-opcode corpus and each Table-1 kernel must exercise the
  // fusion pass.
  std::vector<KernelInput> inputs = table1_kernels();
  inputs.insert(inputs.begin(),
                KernelInput{"every-opcode", kEveryOpcode, CheckMode::kCash});
  for (const KernelInput& input : inputs) {
    SCOPED_TRACE(std::string(input.name) + " mode=" + mode_name(input.mode));
    CompileOptions options;
    options.lower.mode = input.mode;
    CompileResult compiled = compile(input.source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.error;
    const vm::DecodedProgram* decoded = compiled.program->decoded();
    ASSERT_NE(decoded, nullptr);
    ASSERT_TRUE(decoded->ok());
    bool any_fused = false;
    for (const vm::DecodedFunction& fn : decoded->functions()) {
      ASSERT_TRUE(fn.ok);
      ASSERT_NE(fn.fn, nullptr);
      check_stream(fn, fn.plain, /*fused=*/false);
      check_stream(fn, fn.fused, /*fused=*/true);
      // The two streams agree on group metadata (the cold fault path
      // relies on plain_first no matter which stream was hot).
      ASSERT_EQ(fn.plain.groups.size(), fn.fused.groups.size());
      for (std::size_t g = 0; g < fn.plain.groups.size(); ++g) {
        EXPECT_EQ(fn.plain.groups[g].count, fn.fused.groups[g].count);
        EXPECT_EQ(fn.plain.groups[g].plain_first,
                  fn.fused.groups[g].plain_first);
      }
      EXPECT_LE(fn.fused.uops.size(), fn.plain.uops.size());
      EXPECT_LE(fn.stats.fused_instrs, fn.stats.foldable_instrs);
      any_fused |= fn.stats.fused_uops > 0;
    }
    EXPECT_TRUE(any_fused);
    EXPECT_GT(decoded->fusion_stats().hit_rate(), 0.0);
  }
}

// ---------------------------------------------------------------------------
// Fusion-boundary sweep (superinstruction stream vs plain stream vs
// interpreter). run_both already compares all three engines, so these cases
// focus on sources whose hot paths sit *inside* fused pairs/triples.

// Array walk whose inner loop is ptr-add + bound + load/store — the
// three-wide fusion patterns — with an out-of-bounds final iteration so the
// fault fires mid-fused-group.
constexpr const char* kFusedOverflow = R"(
int a[8];
int main() {
  int i;
  for (i = 0; i <= 8; i = i + 1) {
    a[i] = i * 3;
  }
  return a[7];
}
)";

// In-bounds variant: same shapes, runs to completion.
constexpr const char* kFusedClean = R"(
int a[16];
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 16; i = i + 1) {
    a[i] = i * 2 + 1;
  }
  for (i = 0; i < 16; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
)";

// Divide inside a const+bin fused pair faults on the last iteration.
constexpr const char* kFusedDivFault = R"(
int main() {
  int i;
  int s;
  s = 0;
  for (i = 3; i >= 0; i = i - 1) {
    s = s + 100 / i;
  }
  return s;
}
)";

TEST(DecodeFusion, FaultInsideFusedGroupEveryMode) {
  run_all_modes(kFusedOverflow);
}

TEST(DecodeFusion, CleanFusedKernelsEveryMode) {
  run_all_modes(kFusedClean);
}

TEST(DecodeFusion, DivideFaultInsideFusedPair) {
  for (CheckMode mode : kAllModes) {
    run_both(kFusedDivFault, mode);
  }
}

TEST(DecodeFusion, BudgetExpiresMidFusion) {
  // Sweep the instruction budget one IR instruction at a time across fused
  // kernels: every cut point — including ones that land between the
  // constituents of a fused pair/triple — must truncate identically to the
  // interpreter (fault detail, partial charges, instruction count).
  for (std::uint64_t max = 1; max <= 60; ++max) {
    run_both(kFusedClean, CheckMode::kCash, max);
    run_both(kFusedOverflow, CheckMode::kBoundInsn, max);
  }
  for (std::uint64_t max = 1; max <= 30; ++max) {
    run_both(kFusedDivFault, CheckMode::kShadow, max);
  }
}

TEST(DecodeFusion, PtrEventsScaleAcrossModes) {
  // Fat-pointer word copies are charged per mode (Cash = 1, Bcc/BoundInsn =
  // 2, others 0) at run time from mode-neutral ptr_events — fused ops must
  // preserve that scaling. Checked implicitly by run_both's three-way
  // comparison; here also pin the relative counter relationship.
  const auto count_copies = [](CheckMode mode) {
    CompileOptions options;
    options.lower.mode = mode;
    CompileResult compiled = compile(kFusedClean, options);
    EXPECT_TRUE(compiled.ok()) << compiled.error;
    const vm::RunResult r = compiled.program->make_machine()->run();
    EXPECT_TRUE(r.ok) << r.error;
    return r.counters.ptr_word_copies;
  };
  const std::uint64_t cash = count_copies(CheckMode::kCash);
  const std::uint64_t bcc = count_copies(CheckMode::kBcc);
  const std::uint64_t none = count_copies(CheckMode::kNoCheck);
  EXPECT_EQ(none, 0u);
  EXPECT_EQ(bcc, 2 * cash);
}

TEST(DecodeFusion, EnvVarDisablesFusion) {
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(kFusedClean, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const vm::RunResult fused = compiled.program->make_machine()->run();
  ::setenv("CASH_NO_FUSION", "1", 1);
  const vm::RunResult plain = compiled.program->make_machine()->run();
  ::unsetenv("CASH_NO_FUSION");
  expect_identical(plain, fused, "CASH_NO_FUSION toggle");
}

TEST(DecodeFusion, HitRateGuardsEmptyDenominator) {
  // hit_rate() must be a plain 0.0 — never NaN — when fusion has nothing
  // to work with, both for a default-constructed FusionStats and for a
  // program whose only loop body is a single instruction (no adjacent
  // pair for the fusion pass to merge).
  const vm::FusionStats empty;
  EXPECT_EQ(empty.hit_rate(), 0.0);

  constexpr const char* kOneInstrLoop = R"(
int main() {
  int i;
  for (i = 9; i; i = i - 1) { }
  return i;
}
)";
  CompileOptions options;
  options.lower.mode = CheckMode::kNoCheck;
  CompileResult compiled = compile(kOneInstrLoop, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  ASSERT_NE(compiled.program->decoded(), nullptr);
  const double rate = compiled.program->decoded()->fusion_stats().hit_rate();
  EXPECT_FALSE(std::isnan(rate));
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  for (CheckMode mode : kAllModes) {
    run_both(kOneInstrLoop, mode);
  }
}

// ---------------------------------------------------------------------------
// Hot-trace superblock sweeps (DESIGN.md §11). run_both's fast machine
// runs with the default config — traces on, threshold 16 — so every case
// here compares the trace engine against the plain stream and the
// interpreter.

// A 30-iteration loop whose body is ~6 statements; statement `fault_stmt`
// (if >= 0) faults on iteration 24 — past the formation threshold, so the
// fault lands *inside* the formed superblock, at a different micro-op
// offset (including inside trace-time peephole superinstructions) for
// each position. `bound_flavor` swaps the divide-by-zero for an
// out-of-bounds store, exercising the checked-store fault paths instead.
std::string superblock_fault_source(int fault_stmt, bool bound_flavor) {
  std::string body;
  for (int j = 0; j < 6; ++j) {
    if (j == fault_stmt) {
      body += bound_flavor
                  ? "    buf[(i / 24) * 99] = s;\n"
                  : "    d = i - 24;\n    s = s + 100 / d;\n";
    } else {
      body += "    buf[(i + " + std::to_string(j) + ") % 16] = s + " +
              std::to_string(j) + ";\n    s = s + buf[(i * " +
              std::to_string(j + 2) + ") % 16];\n";
    }
  }
  return "int buf[16];\nint main() {\n  int i; int s; int d;\n  s = 1;\n"
         "  for (i = 0; i < 30; i = i + 1) {\n" +
         body + "  }\n  return s;\n}\n";
}

vm::TraceStats trace_stats_of(const std::string& source, CheckMode mode) {
  CompileOptions options;
  options.lower.mode = mode;
  CompileResult compiled = compile(source, options);
  EXPECT_TRUE(compiled.ok()) << compiled.error;
  return compiled.program->make_machine()->run().trace_stats;
}

TEST(DecodeTrace, FaultAtEveryUopOffsetInsideSuperblock) {
  for (int flavor = 0; flavor < 2; ++flavor) {
    for (int k = 0; k < 6; ++k) {
      const std::string src =
          superblock_fault_source(k, /*bound_flavor=*/flavor == 1);
      for (CheckMode mode : kAllModes) {
        run_both(src, mode);
      }
      // The fault really lands mid-trace: the superblock formed and ran
      // before iteration 24 reached the poisoned statement.
      const vm::TraceStats stats = trace_stats_of(src, CheckMode::kCash);
      EXPECT_GT(stats.traces_formed, 0u) << "stmt=" << k;
      EXPECT_GT(stats.trace_execs, 0u) << "stmt=" << k;
    }
  }
}

TEST(DecodeTrace, BudgetExpiresInsideSuperblock) {
  // Budget cut points swept across the region where the superblock is hot:
  // truncation must land on the exact same IR instruction, with the same
  // partial charges, whether the engine was mid-trace or not.
  const std::string clean = superblock_fault_source(-1, false);
  const vm::TraceStats stats = trace_stats_of(clean, CheckMode::kCash);
  ASSERT_GT(stats.trace_execs, 0u);
  for (std::uint64_t max = 300; max <= 420; ++max) {
    run_both(clean, CheckMode::kCash, max);
  }
  for (std::uint64_t max = 300; max <= 360; ++max) {
    run_both(clean, CheckMode::kBoundInsn, max);
    run_both(clean, CheckMode::kShadow, max);
  }
}

TEST(DecodeTrace, EnvVarDisablesTraces) {
  const std::string src = superblock_fault_source(-1, false);
  CompileOptions options;
  options.lower.mode = CheckMode::kCash;
  CompileResult compiled = compile(src, options);
  ASSERT_TRUE(compiled.ok()) << compiled.error;

  vm::MachineConfig off_cfg = compiled.program->options().machine;
  off_cfg.enable_trace = false;
  const vm::RunResult traced = compiled.program->make_machine()->run();
  const vm::RunResult config_off =
      compiled.program->make_machine(off_cfg)->run();
  ::setenv("CASH_NO_TRACE", "1", 1);
  const vm::RunResult env_off = compiled.program->make_machine()->run();
  ::unsetenv("CASH_NO_TRACE");

  EXPECT_GT(traced.trace_stats.traces_formed, 0u);
  EXPECT_EQ(config_off.trace_stats.traces_formed, 0u);
  EXPECT_EQ(env_off.trace_stats.traces_formed, 0u);
  EXPECT_EQ(env_off.trace_stats.trace_execs, 0u);
  expect_identical(config_off, traced, "trace on vs enable_trace=false");
  expect_identical(config_off, env_off, "enable_trace=false vs CASH_NO_TRACE");
}

} // namespace
} // namespace cash
