#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/cash.hpp"
#include "exec/executor.hpp"
#include "vm/snapshot.hpp"
#include "workloads/workloads.hpp"

// Shared helpers for the table-reproduction benches. Each bench binary
// regenerates one table or figure of the paper and prints the measured
// values next to the paper's, so shape deviations are visible at a glance.
//
// Grid cells ((workload x mode) pairs, sweep points, ...) are independent
// simulations, so the benches evaluate them through run_cells(), which
// shards them across host threads ($CASH_JOBS, default all cores) and
// returns results in cell order — the printed tables and every simulated
// number are bit-identical for any thread count (see DESIGN.md §7).
namespace cash::bench {

struct ModeResult {
  vm::RunResult run;
  passes::LowerStats stats;
  passes::CodeSize size;
};

inline ModeResult compile_and_run(const std::string& source,
                                  passes::CheckMode mode, int seg_regs = 3,
                                  bool execute = true) {
  CompileOptions options;
  options.lower.mode = mode;
  options.lower.num_seg_regs = seg_regs;
  CompileResult compiled = compile(source, options);
  if (!compiled.ok()) {
    throw std::runtime_error("compile failed: " + compiled.error);
  }
  ModeResult out;
  out.stats = compiled.program->lower_stats();
  out.size = compiled.program->code_size();
  if (execute) {
    out.run = compiled.program->run();
    if (!out.run.ok) {
      throw std::runtime_error(
          "run failed: " +
          (out.run.fault ? out.run.fault->detail : out.run.error));
    }
  }
  return out;
}

// Snapshot-aware grid-cell runner: builds the machine and performs the
// one-time program load (globals placement + per-array set-up) once per
// (program, config), captures the post-load image, and rewinds to it before
// every run() instead of constructing a fresh Machine per repetition.
// Bit-identical to fresh machines — prepare() keeps the set-up cycles
// pending, so restore() + run() charges exactly what a fresh machine's
// first run would (tests/vm/snapshot_test.cpp pins this). Not thread-safe:
// give each run_cells() cell its own runner.
class SnapshotRunner {
 public:
  SnapshotRunner(const CompiledProgram& program, vm::MachineConfig config)
      : machine_(program.make_machine(std::move(config))) {
    machine_->prepare();
    snap_ = machine_->capture();
  }

  explicit SnapshotRunner(const CompiledProgram& program)
      : SnapshotRunner(program, program.options().machine) {}

  // Rewinds to the post-load image and runs main().
  vm::RunResult run() {
    machine_->restore(*snap_);
    return machine_->run();
  }

  vm::Machine& machine() noexcept { return *machine_; }

 private:
  std::unique_ptr<vm::Machine> machine_;
  std::unique_ptr<vm::MachineSnapshot> snap_;
};

// Worker threads for this bench process: $CASH_JOBS, default all cores.
inline int bench_jobs() { return exec::resolve_jobs(); }

// Evaluates `n` independent grid cells with fn(index) across bench_jobs()
// threads and returns the results in index order.
template <typename Fn>
inline auto run_cells(std::size_t n, Fn&& fn) {
  return exec::parallel_map(n, bench_jobs(), fn);
}

inline double overhead_pct(double base, double measured) {
  return base == 0 ? 0 : (measured - base) / base * 100.0;
}

// Host wall clock for the whole bench run, started at the first
// print_title() call (every bench prints its title before computing).
inline std::chrono::steady_clock::time_point& bench_start() {
  static std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

inline double bench_elapsed_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       bench_start())
      .count();
}

inline void print_title(const char* title) {
  (void)bench_start();
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void print_note(const char* note) { std::printf("%s\n", note); }

// Compiler identity of this bench binary ("gcc 13.2.0", "clang 17.0.6"),
// stamped into every BENCH_*.json so trajectory entries produced in
// different environments are comparable.
inline const char* bench_compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// Build flags the bench binary was compiled with (injected by
// bench/CMakeLists.txt from CMAKE_CXX_FLAGS + the active configuration).
inline const char* bench_build_flags() {
#if defined(CASH_BUILD_FLAGS)
  return CASH_BUILD_FLAGS;
#else
  return "";
#endif
}

// Opens BENCH_<name>.json and stamps it with the host wall time so far,
// the jobs count used, and the compiler/flags that produced the binary, so
// every result file records how it was produced. The caller appends its
// own fields (no leading comma needed after this) and closes with
// close_bench_json().
inline std::FILE* open_bench_json(const char* filename, int jobs = 0) {
  std::FILE* json = std::fopen(filename, "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"host_wall_s\": %.3f,\n  \"jobs\": %d,\n"
                 "  \"compiler\": \"%s\",\n  \"build_flags\": \"%s\",\n",
                 bench_elapsed_s(), jobs > 0 ? jobs : bench_jobs(),
                 bench_compiler_id(), bench_build_flags());
  }
  return json;
}

inline void close_bench_json(std::FILE* json, const char* filename) {
  if (json == nullptr) {
    return;
  }
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote %s (host wall %.2fs, %d jobs)\n", filename,
              bench_elapsed_s(), bench_jobs());
}

// Honour CASH_BENCH_REQUESTS / CASH_BENCH_QUICK for time-constrained runs.
inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

} // namespace cash::bench
