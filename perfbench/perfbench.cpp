// The repository's benchmark: drives the public API (cash::compile,
// CompiledProgram::make_machine, vm::Machine, netsim::serve_requests) from
// outside on four workloads and reports end-to-end metrics (untraced run)
// or per-layer metrics (traced run). See README.md for the workloads, the
// metric definitions and how to run it; run.py builds and invokes it.
//
//   perfbench --workload kernels|compile|serve|fork --seed N --seconds S
//             --trace 0|1 --expected expected.txt [--out-dir DIR]
//   perfbench --record      print freshly recorded expected values
//   perfbench --selftest    check the percentile helper
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/run_result_compare.hpp"
#include "core/cash.hpp"
#include "exec/executor.hpp"
#include "frontend/irgen.hpp"
#include "harness.hpp"
#include "ir/verifier.hpp"
#include "netsim/netsim.hpp"
#include "passes/optimize.hpp"
#include "vm/decode.hpp"
#include "vm/snapshot.hpp"
#include "workloads/fuzz.hpp"
#include "workloads/reference.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

using cash::CompiledProgram;
using cash::CompileOptions;
using cash::passes::CheckMode;
using cash::vm::RunResult;

// Set-ups per run; setup_s is their median. Set-up takes milliseconds while
// the host's speed drifts over seconds, so most set-ups are spread evenly
// through the timed phase rather than all made before it.
constexpr int kSetupRepsBefore = 9;
constexpr int kSetupRepsDuring = 40;
// Serving: requests per serve_requests call and the stored batch pool a
// run draws its batches from. Pool batch j has the size sizes[j % count].
// fork's sizes average bench_serve's serving-grid batch (400 requests) and
// vary so that its call latencies spread out: with one size, every call
// took the same time and op_ms_p50 flipped between the host's fast and
// slow phases (spread 0.29 over ten seeds against 0.16 for ops_per_s).
const std::vector<int> kServeBatches = {128};
const std::vector<int> kForkBatches = {64, 160, 256, 352, 448, 544, 640, 736};
constexpr int kPoolBatches = 32;
constexpr int kRunBatches = 8;
// compile: programs whose NoCheck cycles define sim_overhead_pct; the timed
// loop always completes at least this many so the metric is exact.
constexpr std::size_t kOverheadPrograms = 1024;

// Host jobs per serve_requests call. serve uses two, so exec's threaded
// path runs, but never more than the host's cores. fork uses one: with two,
// its call latency tail followed how often a worker waited for a core, and
// op_ms_p90 spread 0.33 over five seeds against 0.06 at one job.
int host_jobs(unsigned wanted) {
  return static_cast<int>(std::min(wanted, std::max(1u, std::thread::hardware_concurrency())));
}
constexpr unsigned kServeJobs = 2;
constexpr unsigned kForkJobs = 1;

struct Options {
  std::string workload;
  std::uint32_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string expected_path;
  std::string out_dir;
};

// Counts taken at the layer boundaries during a traced phase.
struct LayerCounts {
  std::uint64_t runs{0};
  std::uint64_t instructions{0};
  std::uint64_t traces_formed{0};
  std::uint64_t trace_execs{0};
  std::uint64_t guard_exits{0};
  std::uint64_t trace_instructions{0};
  std::uint64_t tlb_hits{0};
  std::uint64_t tlb_misses{0};
  std::uint64_t seg_allocs{0};
  std::uint64_t seg_hits{0};
  std::uint64_t global_fallbacks{0};
  std::uint64_t malloc_calls{0};
  std::uint64_t call_gate_calls{0};
  std::uint64_t kernel_cycles{0};

  std::uint64_t compiles{0};
  std::uint64_t frontend_instrs{0};
  std::uint64_t opt_instrs{0};
  std::uint64_t static_checks{0};
  std::uint64_t checks_removed{0};
  std::uint64_t static_checks_without_elision{0};
  std::uint64_t fused_instrs{0};
  std::uint64_t foldable_instrs{0};

  std::uint64_t serve_calls{0};
  std::uint64_t pool_restores{0};
  std::uint64_t pool_machines_built{0};
  double serve_wall_s{0};
  double serve_cpu_s{0};
  double covered_s{0}; // replayed per-request restore+run time / jobs
};

// Adds one run's counts. `base` holds the machine's counters before the
// run for the statistics that accumulate across runs of one machine.
void count_run(const RunResult& run, const RunResult* base, LayerCounts& c) {
  auto delta = [](std::uint64_t now, std::uint64_t before) {
    return now >= before ? now - before : 0;
  };
  const RunResult zero;
  const RunResult& b = base != nullptr ? *base : zero;
  ++c.runs;
  c.instructions += run.counters.instructions;
  c.traces_formed += delta(run.trace_stats.traces_formed, b.trace_stats.traces_formed);
  c.trace_execs += delta(run.trace_stats.trace_execs, b.trace_stats.trace_execs);
  c.guard_exits += delta(run.trace_stats.guard_exits, b.trace_stats.guard_exits);
  c.trace_instructions += delta(run.trace_stats.trace_instructions,
                                b.trace_stats.trace_instructions);
  c.tlb_hits += delta(run.tlb_stats.hits, b.tlb_stats.hits);
  c.tlb_misses += delta(run.tlb_stats.misses, b.tlb_stats.misses);
  c.seg_allocs += delta(run.segment_stats.alloc_requests, b.segment_stats.alloc_requests);
  c.seg_hits += delta(run.segment_stats.cache_hits, b.segment_stats.cache_hits);
  c.global_fallbacks += delta(run.segment_stats.global_fallbacks,
                              b.segment_stats.global_fallbacks);
  c.malloc_calls += run.counters.malloc_calls;
  c.call_gate_calls += delta(run.kernel_account.call_gate_calls,
                             b.kernel_account.call_gate_calls);
  c.kernel_cycles += delta(run.kernel_account.kernel_cycles,
                           b.kernel_account.kernel_cycles);
}

// One timed phase: per timed API call, its latency, the operations it
// completed (serving: requests) and the simulated IR instructions retired.
struct Phase {
  std::vector<double> op_ms;
  std::vector<double> op_ops;
  std::vector<double> op_instructions;
  // Traced run only: latencies of the untraced rounds.
  std::vector<double> baseline_ms;
  LayerCounts layers;
  // Peak resident memory once the workload has been through all its
  // inputs (compile: its first kOverheadPrograms programs, so the figure
  // does not depend on how many programs the host gets through).
  double peak_rss_mb{0};

  // In a traced run, rounds alternate between untraced (the baseline of
  // trace.overhead_pct, interleaved so both see the same host speed) and
  // traced. Returns the tracer for round `r` (null when untraced).
  static Tracer* round_tracer(Tracer* tracing, std::size_t r) {
    return r % 2 == 1 ? tracing : nullptr;
  }

  void add(bool baseline, double ms, std::uint64_t ops, std::uint64_t instructions) {
    if (baseline) {
      baseline_ms.push_back(ms);
      return;
    }
    op_ms.push_back(ms);
    op_ops.push_back(static_cast<double>(ops));
    op_instructions.push_back(static_cast<double>(instructions));
  }
  // Amount per second of timed-call time, over the whole phase.
  double rate(const std::vector<double>& amount) const {
    double seconds = 0, total = 0;
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
      seconds += op_ms[i] / 1e3;
      total += amount[i];
    }
    return seconds > 0 ? total / seconds : 0;
  }
};

std::string fault_text(const RunResult& run) {
  return run.fault ? run.fault->detail : run.error;
}

// A stored field's value, or 0 when the record or field is missing.
std::uint64_t stored_value(const std::map<std::string, std::uint64_t>* record,
                           const char* name) {
  if (record == nullptr) return 0;
  const auto it = record->find(name);
  return it == record->end() ? 0 : it->second;
}

// --- the compile pipeline, span by span ----------------------------------

std::uint64_t count_ir_instrs(const cash::ir::Module& module) {
  std::uint64_t n = 0;
  for (const auto& f : module.functions) {
    for (const auto& b : f->blocks) {
      n += b->instrs.size();
    }
  }
  return n;
}

// cash::compile's steps in its order, each under its own span, so the
// traced run can split compile time by layer. Returns null and sets
// `error` where cash::compile would fail.
std::unique_ptr<CompiledProgram> traced_compile(std::string_view source,
                                                const CompileOptions& options,
                                                Tracer* tracer,
                                                LayerCounts& counts,
                                                std::string* error) {
  cash::DiagnosticSink diagnostics;
  std::unique_ptr<cash::ir::Module> module;
  {
    ScopedSpan span(tracer, "frontend");
    module = cash::frontend::compile_to_ir(source, diagnostics);
  }
  if (module == nullptr) {
    *error = diagnostics.to_string();
    return nullptr;
  }
  auto verify = [&]() {
    if (!options.run_verifier) {
      return true;
    }
    ScopedSpan span(tracer, "ir.verify");
    return cash::ir::verify(*module).empty();
  };
  ++counts.compiles;
  counts.frontend_instrs += count_ir_instrs(*module);
  if (!verify()) {
    *error = "IR verification failed after IR generation";
    return nullptr;
  }
  if (options.optimize) {
    {
      ScopedSpan span(tracer, "passes.optimize");
      cash::passes::optimize_module(*module);
    }
    if (!verify()) {
      *error = "IR verification failed after optimisation";
      return nullptr;
    }
  }
  counts.opt_instrs += count_ir_instrs(*module);
  CompileOptions effective = options;
  effective.machine.mode = options.lower.mode;
  if (effective.lower.elide_checks && std::getenv("CASH_NO_ELIDE") != nullptr) {
    effective.lower.elide_checks = false;
  }
  cash::passes::ElideStats elide_stats;
  if (effective.lower.elide_checks) {
    {
      ScopedSpan span(tracer, "passes.elide");
      elide_stats = cash::passes::elide_module(*module, effective.lower);
    }
    if (!verify()) {
      *error = "IR verification failed after check elision";
      return nullptr;
    }
  }
  cash::passes::LowerStats stats;
  {
    ScopedSpan span(tracer, "passes.lower");
    stats = cash::passes::lower_module(*module, effective.lower);
  }
  if (!verify()) {
    *error = "IR verification failed after lowering";
    return nullptr;
  }
  counts.static_checks += stats.hw_checks + stats.sw_checks;
  counts.checks_removed += elide_stats.checks_removed();
  std::unique_ptr<CompiledProgram> program;
  {
    // The CompiledProgram constructor builds the DecodedProgram image.
    ScopedSpan span(tracer, "vm.decode");
    program = std::make_unique<CompiledProgram>(
        std::move(module), effective, std::string(source), stats, elide_stats);
  }
  if (program->decoded() != nullptr) {
    const cash::vm::FusionStats fusion = program->decoded()->fusion_stats();
    counts.fused_instrs += fusion.fused_instrs;
    counts.foldable_instrs += fusion.foldable_instrs;
  }
  return program;
}

std::unique_ptr<CompiledProgram> compile_or_throw(const std::string& source,
                                                  const CompileOptions& options,
                                                  const char* what) {
  cash::CompileResult compiled = cash::compile(source, options);
  if (!compiled.ok()) {
    throw std::runtime_error(std::string(what) + " failed to compile: " +
                             compiled.error);
  }
  return std::move(compiled.program);
}

// --- workloads ------------------------------------------------------------

class Workload {
 public:
  explicit Workload(const Expected& expected) : expected_(expected) {}
  virtual ~Workload() = default;

  // Compiles what the workload needs and loads it once. Called several
  // times per run; the last call's state is what the timed phase uses.
  virtual void setup(Tracer* tracer, RunReport& report) = 0;
  // Runs timed operations for at least `seconds`, checking each result,
  // and calls `between_calls` after each timed call, outside its timing.
  // With a tracer, alternate rounds are traced (Phase::round_tracer).
  virtual Phase run(double seconds, Tracer* tracing, RunReport& report,
                    const std::function<void()>& between_calls) = 0;
  // One untimed pass over the workload's operations after set-up, so the
  // first timed operation does not pay first-touch costs.
  virtual void warm_up() {}
  // Host jobs per serve_requests call (1 for workloads that do not serve).
  virtual int jobs() const { return 1; }
  // Untimed checks after the phases, plus the simulated overhead (percent)
  // of Cash over NoCheck on this run's inputs.
  virtual double verify(RunReport& report) = 0;

  // Counts from the traced set-up's compiles.
  const LayerCounts& setup_counts() const { return setup_counts_; }

 protected:
  const Expected& expected_;
  LayerCounts setup_counts_;
};

// kernels: the six Table-1 kernels under gcc, bcc and cash, compiled in
// set-up, each (kernel, mode) cell re-run through make_machine() + run().
class KernelsWorkload : public Workload {
 public:
  struct Kernel {
    const char* name;
    std::string source;
    double reference; // native checksum
    double rel_tol;
  };
  struct Cell {
    const Kernel* kernel;
    const char* mode_name;
    CheckMode mode;
    std::unique_ptr<CompiledProgram> program;
  };

  static std::vector<Kernel> kernels() {
    namespace w = cash::workloads;
    return {
        {"matmul", w::matmul_source(72), w::reference::matmul(72), 1e-4},
        {"gauss", w::gauss_source(96), w::reference::gauss(96), 1e-4},
        {"fft2d", w::fft2d_source(128), w::reference::fft2d(128), 1e-3},
        {"edge", w::edge_source(320, 240),
         static_cast<double>(w::reference::edge(320, 240)), 0},
        {"volren", w::volren_source(40, 80), w::reference::volren(40, 80), 1e-4},
        {"svd", w::svd_source(160, 96, 8), w::reference::svd(160, 96, 8), 1e-3},
    };
  }
  static constexpr std::pair<const char*, CheckMode> kModes[] = {
      {"gcc", CheckMode::kNoCheck}, {"bcc", CheckMode::kBcc}, {"cash", CheckMode::kCash}};

  // The simulated results stored per cell.
  static std::vector<std::pair<const char*, std::uint64_t>> simulated_fields(
      const RunResult& r) {
    return {{"cycles", r.cycles},
            {"base", r.breakdown.base},
            {"checking", r.breakdown.checking},
            {"runtime", r.breakdown.runtime},
            {"shadow", r.shadow_cycles},
            {"instructions", r.counters.instructions},
            {"hw_checked", r.counters.hw_checked_accesses},
            {"sw_checks", r.counters.sw_checks},
            {"seg_reg_loads", r.counters.seg_reg_loads},
            {"ptr_word_copies", r.counters.ptr_word_copies},
            {"calls", r.counters.calls},
            {"malloc_calls", r.counters.malloc_calls},
            {"exit", static_cast<std::uint32_t>(r.exit_code)},
            {"output", fnv1a(r.output)}};
  }

  KernelsWorkload(const Expected& expected, std::uint32_t seed)
      : Workload(expected), kernels_(kernels()) {
    for (const Kernel& k : kernels_) {
      for (const auto& [mode_name, mode] : kModes) {
        cells_.push_back({&k, mode_name, mode, nullptr});
      }
    }
    order_.resize(cells_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::mt19937 rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  void setup(Tracer* tracer, RunReport& report) override {
    for (Cell& cell : cells_) {
      CompileOptions options;
      options.lower.mode = cell.mode;
      if (tracer == nullptr) {
        cell.program = compile_or_throw(cell.kernel->source, options, cell.kernel->name);
      } else {
        std::string error;
        cell.program =
            traced_compile(cell.kernel->source, options, tracer, setup_counts_, &error);
        if (cell.program == nullptr) {
          throw std::runtime_error(std::string(cell.kernel->name) + ": " + error);
        }
        // Cross-check: the replicated pipeline must match cash::compile.
        const RunResult mine = cell.program->run();
        const RunResult theirs =
            compile_or_throw(cell.kernel->source, options, cell.kernel->name)->run();
        const std::string diff = cash::vm::first_run_result_difference(mine, theirs);
        if (!diff.empty()) {
          report.cross_check_failures.push_back(
              std::string("kernels ") + cell.kernel->name + "." + cell.mode_name +
              ": traced compile pipeline differs from cash::compile on " + diff);
        }
      }
      // First load: build the machine and place the program.
      std::unique_ptr<cash::vm::Machine> machine;
      {
        ScopedSpan span(tracer, "vm.make_machine");
        machine = cell.program->make_machine();
      }
      ScopedSpan span(tracer, "vm.prepare");
      machine->prepare();
    }
  }

  Phase run(double seconds, Tracer* tracing, RunReport& report,
            const std::function<void()>& between_calls) override {
    Phase phase;
    const double start = now_s();
    std::uint32_t op = 0;
    // Whole rounds only, so every cell is timed equally often.
    for (std::size_t round = 0; round == 0 || now_s() - start < seconds; ++round) {
      Tracer* tracer = Phase::round_tracer(tracing, round);
      for (std::size_t index : order_) {
        Cell& cell = cells_[index];
        if (tracer != nullptr) tracer->begin_op(op);
        ++op;
        const double t0 = now_s();
        RunResult result;
        {
          ScopedSpan op_span(tracer, "op");
          std::unique_ptr<cash::vm::Machine> machine;
          {
            ScopedSpan span(tracer, "vm.make_machine");
            machine = cell.program->make_machine();
          }
          ScopedSpan span(tracer, "vm.run");
          result = machine->run();
        }
        phase.add(tracing != nullptr && tracer == nullptr, (now_s() - t0) * 1e3, 1,
                  result.counters.instructions);
        ++report.attempted;
        if (tracer != nullptr) count_run(result, nullptr, phase.layers);
        check(cell, result, report);
        if (first_round_cycles_.size() < cells_.size()) {
          first_round_cycles_.push_back({&cell, result.cycles});
        }
        between_calls();
      }
    }
    phase.peak_rss_mb = perfbench::peak_rss_mb();
    return phase;
  }

  double verify(RunReport&) override {
    // Cash cycles over gcc cycles on the same kernels, from the first round.
    double cash = 0, gcc = 0;
    for (const auto& [cell, cycles] : first_round_cycles_) {
      if (cell->mode == CheckMode::kCash) cash += static_cast<double>(cycles);
      if (cell->mode == CheckMode::kNoCheck) gcc += static_cast<double>(cycles);
    }
    return gcc > 0 ? (cash / gcc - 1.0) * 100.0 : 0;
  }

  void warm_up() override {
    for (Cell& cell : cells_) cell.program->make_machine()->run();
  }

  // Records the expected values with the reference interpreter.
  static void record(std::FILE* out) {
    for (const Kernel& k : kernels()) {
      for (const auto& [mode_name, mode] : kModes) {
        CompileOptions options;
        options.lower.mode = mode;
        options.machine.enable_predecode = false;
        const RunResult r = compile_or_throw(k.source, options, k.name)->run();
        if (!r.ok) throw std::runtime_error(std::string(k.name) + " failed: " + fault_text(r));
        std::fprintf(out, "kernel %s.%s", k.name, mode_name);
        for (const auto& [name, value] : simulated_fields(r)) {
          std::fprintf(out, " %s=%llu", name, static_cast<unsigned long long>(value));
        }
        std::fprintf(out, "\n");
      }
    }
  }

 private:
  void check(const Cell& cell, const RunResult& r, RunReport& report) {
    const std::string key = std::string(cell.kernel->name) + "." + cell.mode_name;
    if (!r.ok) {
      report.fail("kernels " + key + " faulted: " + fault_text(r));
      return;
    }
    const double got = std::strtod(r.output.c_str(), nullptr);
    const double want = cell.kernel->reference;
    const double tol =
        cell.kernel->rel_tol * std::max(1.0, std::max(std::abs(want), std::abs(got)));
    if (!(std::abs(got - want) <= tol)) {
      report.fail("kernels " + key + " checksum " + std::to_string(got) +
                  " differs from the native reference " + std::to_string(want));
      return;
    }
    const auto* stored = expected_.find("kernel", key);
    if (stored == nullptr) {
      report.fail("kernels " + key + ": no stored expected values");
      return;
    }
    for (const auto& [name, value] : simulated_fields(r)) {
      const auto it = stored->find(name);
      if (it == stored->end() || it->second != value) {
        report.fail("kernels " + key + ": simulated " + name + " " + std::to_string(value) +
                    " differs from the stored value");
        return;
      }
    }
  }

  std::vector<Kernel> kernels_;
  std::vector<Cell> cells_;
  std::vector<std::size_t> order_;
  std::vector<std::pair<const Cell*, std::uint64_t>> first_round_cycles_;
};

// compile: distinct generated programs, each compiled in Cash mode with
// the optimiser and check elision on, then run once.
class CompileWorkload : public Workload {
 public:
  CompileWorkload(const Expected& expected, std::uint32_t seed)
      : Workload(expected), seed_(seed) {}

  static CompileOptions cash_options() {
    CompileOptions options;
    options.lower.mode = CheckMode::kCash;
    options.optimize = true;
    options.lower.elide_checks = true;
    return options;
  }

  void setup(Tracer* tracer, RunReport&) override {
    // The tool chain's first load: compile and run a few warm-up programs
    // that are not among the timed ones.
    for (std::uint32_t i = 0; i < 8; ++i) {
      const std::string source = cash::workloads::generate_fuzz_program(~program_seed(i));
      std::string error;
      std::unique_ptr<CompiledProgram> program =
          tracer == nullptr ? compile_or_throw(source, cash_options(), "warm-up program")
                            : traced_compile(source, cash_options(), tracer, setup_counts_, &error);
      if (program == nullptr) throw std::runtime_error("warm-up program: " + error);
      program->run();
    }
  }

  Phase run(double seconds, Tracer* tracing, RunReport& report,
            const std::function<void()>& between_calls) override {
    Phase phase;
    const double start = now_s();
    std::size_t i = results_.size();
    const std::size_t first = i;
    while (now_s() - start < seconds || i - first < kOverheadPrograms) {
      Tracer* tracer = Phase::round_tracer(tracing, i);
      const std::string source = cash::workloads::generate_fuzz_program(program_seed(i));
      Result result;
      std::string compile_error;
      RunResult run;
      if (tracer != nullptr) tracer->begin_op(static_cast<std::uint32_t>(i));
      const double t0 = now_s();
      std::unique_ptr<CompiledProgram> program;
      {
        ScopedSpan op_span(tracer, "op");
        if (tracer == nullptr) {
          cash::CompileResult compiled = cash::compile(source, cash_options());
          program = std::move(compiled.program);
        } else {
          program = traced_compile(source, cash_options(), tracer, phase.layers, &compile_error);
        }
        if (program != nullptr) {
          std::unique_ptr<cash::vm::Machine> machine;
          {
            ScopedSpan span(tracer, "vm.make_machine");
            machine = program->make_machine();
          }
          ScopedSpan span(tracer, "vm.run");
          run = machine->run();
        }
      }
      phase.add(tracing != nullptr && tracer == nullptr, (now_s() - t0) * 1e3, 1,
                run.counters.instructions);
      ++report.attempted;
      if (program != nullptr) {
        result = Result::of(run);
        if (tracer != nullptr) {
          count_run(run, nullptr, phase.layers);
          cross_check(source, i, run, phase.layers, report);
        }
      }
      results_.push_back(result);
      ++i;
      between_calls();
      if (i - first == kOverheadPrograms) phase.peak_rss_mb = perfbench::peak_rss_mb();
    }
    if (overhead_first_ == SIZE_MAX) overhead_first_ = first; // the first phase
    return phase;
  }

  double verify(RunReport& report) override {
    // Each program against the NoCheck, unoptimised, reference-interpreter
    // cell; the first kOverheadPrograms also against NoCheck with the same
    // optimisation, for the overhead. Untimed, so spread over the cores.
    struct Check {
      std::string error;
      std::uint64_t nocheck_cycles{0};
    };
    const std::size_t first = overhead_first_ == SIZE_MAX ? 0 : overhead_first_;
    auto in_overhead_set = [&](std::size_t k) {
      return k >= first && k < first + kOverheadPrograms;
    };
    const std::vector<Check> checks = cash::exec::parallel_map(
        results_.size(), static_cast<int>(std::max(1u, std::thread::hardware_concurrency())),
        [&](std::size_t k) {
          Check c;
          const std::string source = cash::workloads::generate_fuzz_program(program_seed(k));
          CompileOptions ref;
          ref.lower.mode = CheckMode::kNoCheck;
          ref.optimize = false;
          ref.machine.enable_predecode = false;
          cash::CompileResult want = cash::compile(source, ref);
          if (!want.ok()) {
            c.error = "reference cell failed to compile: " + want.error;
            return c;
          }
          const Result expect = Result::of(want.program->run());
          const Result& got = results_[k];
          if (!got.compiled) {
            c.error = "failed to compile";
          } else if (got.ok != expect.ok || got.faulted != expect.faulted ||
                     got.exit_code != expect.exit_code || got.output != expect.output) {
            c.error = "result differs from the reference cell (ok " + std::to_string(got.ok) +
                      " vs " + std::to_string(expect.ok) + ", exit " +
                      std::to_string(got.exit_code) + " vs " + std::to_string(expect.exit_code) +
                      ")";
          }
          if (in_overhead_set(k)) {
            CompileOptions nocheck = cash_options();
            nocheck.lower.mode = CheckMode::kNoCheck;
            cash::CompileResult base = cash::compile(source, nocheck);
            if (base.ok()) c.nocheck_cycles = base.program->run().cycles;
          }
          return c;
        });
    double cash_cycles = 0, nocheck_cycles = 0;
    for (std::size_t k = 0; k < checks.size(); ++k) {
      if (!checks[k].error.empty()) {
        report.fail("compile program " + std::to_string(k) + ": " + checks[k].error);
      }
      if (in_overhead_set(k)) {
        cash_cycles += static_cast<double>(results_[k].cycles);
        nocheck_cycles += static_cast<double>(checks[k].nocheck_cycles);
      }
    }
    return nocheck_cycles > 0 ? (cash_cycles / nocheck_cycles - 1.0) * 100.0 : 0;
  }

 private:
  // What the reference cell is compared on, kept small so memory does not
  // grow with the number of programs a run gets through.
  struct Result {
    bool compiled{false};
    bool ok{false};
    bool faulted{false};
    std::int32_t exit_code{0};
    std::uint64_t output{0}; // hash
    std::uint64_t cycles{0};

    static Result of(const RunResult& run) {
      return {true, run.ok, run.fault.has_value(), run.exit_code, fnv1a(run.output),
              run.cycles};
    }
  };

  // Program k of this run; distinct seeds give distinct programs.
  std::uint32_t program_seed(std::size_t k) const {
    return seed_ * 1000003U + static_cast<std::uint32_t>(k);
  }

  // Traced run: the replicated pipeline must give the RunResult
  // cash::compile gives; also lowers without elision for removed_ratio.
  void cross_check(const std::string& source, std::size_t i, const RunResult& mine,
                   LayerCounts& counts, RunReport& report) {
    cash::CompileResult theirs = cash::compile(source, cash_options());
    if (!theirs.ok()) {
      report.cross_check_failures.push_back("compile program " + std::to_string(i) +
                                            ": cash::compile failed where the traced "
                                            "pipeline succeeded");
      return;
    }
    const std::string diff =
        cash::vm::first_run_result_difference(mine, theirs.program->make_machine()->run());
    if (!diff.empty()) {
      report.cross_check_failures.push_back(
          "compile program " + std::to_string(i) +
          ": traced compile pipeline differs from cash::compile on " + diff);
    }
    CompileOptions no_elide = cash_options();
    no_elide.lower.elide_checks = false;
    cash::CompileResult plain = cash::compile(source, no_elide);
    if (plain.ok()) {
      counts.static_checks_without_elision +=
          plain.program->lower_stats().hw_checks + plain.program->lower_stats().sw_checks;
    }
  }

  std::uint32_t seed_;
  std::vector<Result> results_;
  std::size_t overhead_first_{SIZE_MAX};
};

// --- serving ----------------------------------------------------------------

// netsim's request-class draw (netsim.cpp, assign_classes): a weighted draw
// on (seed_base, index). Replicated so the traced replay can run each
// request's handler; the replay's cycle cross-check fails if it drifts.
std::uint32_t mix32(std::uint32_t a, std::uint32_t b) {
  std::uint32_t x = a ^ (b * 0x9E3779B9U) ^ 0x85EBCA6BU;
  x ^= x >> 16;
  x *= 0x7FEB352DU;
  x ^= x >> 15;
  return x == 0 ? 1 : x;
}

std::vector<std::size_t> request_classes(const cash::netsim::ServeOptions& serve,
                                         int requests, std::uint32_t seed_base) {
  std::vector<std::size_t> idx(static_cast<std::size_t>(requests), 0);
  if (serve.classes.size() < 2) return idx;
  std::uint32_t total = 0;
  for (const auto& c : serve.classes) total += static_cast<std::uint32_t>(std::max(c.weight, 0));
  for (std::size_t i = 0; i < idx.size() && total > 0; ++i) {
    std::uint32_t draw = mix32(seed_base, static_cast<std::uint32_t>(i)) % total;
    for (std::size_t c = 0; c < serve.classes.size(); ++c) {
      const std::uint32_t w = static_cast<std::uint32_t>(std::max(serve.classes[c].weight, 0));
      if (draw < w) {
        idx[i] = c;
        break;
      }
      draw -= w;
    }
  }
  return idx;
}

// Every simulated ServerMetrics field, canonically printed and hashed.
std::uint64_t metrics_digest(const cash::netsim::ServerMetrics& m) {
  std::ostringstream out;
  out.precision(17);
  out << m.requests << ' ' << m.total_cpu_cycles << ' ' << m.total_busy_cycles << ' '
      << m.mean_latency_cycles << ' ' << m.mean_latency_us << ' ' << m.throughput_rps << ' '
      << m.sw_checks << ' ' << m.hw_checks << ' ' << m.checking_cycles << ' '
      << m.segment_allocs << ' ' << m.cache_hits << ' ' << m.context_switches << ' '
      << m.context_switch_cycles << ' ' << m.retries << ' ' << m.timeouts << ' '
      << m.degraded_requests << ' ' << m.failed_requests << ' ' << m.faults_injected << ' '
      << m.first_failure << '|' << m.total_latency_cycles << ' ' << m.p50_latency_cycles << ' '
      << m.p90_latency_cycles << ' ' << m.p99_latency_cycles << ' ' << m.max_latency_cycles
      << ' ' << m.queue_wait_cycles << ' ' << m.peak_queue_depth << ' ' << m.rejected_requests
      << ' ' << m.connects;
  for (const auto& c : m.classes) {
    out << '|' << c.name << ' ' << c.requests << ' ' << c.total_cpu_cycles << ' '
        << c.checking_cycles << ' ' << c.context_switches_in << ' ' << c.p50_latency_cycles
        << ' ' << c.p90_latency_cycles << ' ' << c.p99_latency_cycles << ' '
        << c.max_latency_cycles << ' ' << c.degraded_requests << ' ' << c.failed_requests;
  }
  return fnv1a(out.str());
}

struct Replay {
  std::uint64_t handler_cycles{0};
  std::uint64_t instructions{0};
  double covered_s{0};       // per-request restore+run wall time
  std::string verdict_error; // a request whose fault verdict was unexpected
};

// Single-thread replay of serve_requests' snapshot path through the public
// calls: init check, make_machine, server_init, capture, then per request
// restore / reseed / run_function. `expect_fault` names handlers that must
// end in a bound fault.
Replay replay_serving(const CompiledProgram& program, int requests, std::uint32_t seed_base,
                      const cash::netsim::ServeOptions& serve, bool predecode,
                      const std::string& expect_fault, Tracer* tracer,
                      LayerCounts& counts) {
  cash::vm::MachineConfig cfg = program.options().machine;
  cfg.enable_predecode = cfg.enable_predecode && serve.enable_predecode && predecode;
  cfg.enable_trace = cfg.enable_trace && serve.enable_trace;
  cfg.fault_plan = {};
  Replay out;
  {
    ScopedSpan span(tracer, "netsim.init_check");
    cash::vm::Machine parent(program.module(), cfg);
    parent.run_function("server_init");
  }
  std::unique_ptr<cash::vm::Machine> child;
  RunResult init;
  {
    ScopedSpan span(tracer, "netsim.chunk_init");
    {
      ScopedSpan make(tracer, "vm.make_machine");
      child = program.make_machine(cfg);
    }
    init = child->run_function("server_init");
  }
  std::unique_ptr<cash::vm::MachineSnapshot> snap;
  {
    ScopedSpan span(tracer, "vm.capture");
    snap = child->capture();
  }
  const std::vector<std::size_t> cls = request_classes(serve, requests, seed_base);
  RunResult host_base = init; // host-side stats keep accumulating
  for (int i = 0; i < requests; ++i) {
    const double t0 = now_s();
    if (i > 0) {
      ScopedSpan span(tracer, "vm.restore");
      child->restore(*snap);
    }
    child->reseed(seed_base + static_cast<std::uint32_t>(i));
    const std::string& handler =
        serve.classes.empty() ? std::string("handle_request") : serve.classes[cls[i]].handler;
    RunResult run;
    {
      ScopedSpan span(tracer, "vm.run");
      run = child->run_function(handler);
    }
    out.covered_s += now_s() - t0;
    out.handler_cycles += run.cycles;
    out.instructions += run.counters.instructions;
    // Simulated statistics rewind with restore (deltas over the post-init
    // image); the host-side TLB counters do not.
    RunResult base = init;
    base.tlb_stats = host_base.tlb_stats;
    count_run(run, &base, counts);
    host_base = run;
    const bool must_fault = handler == expect_fault;
    if (must_fault != !run.ok || (must_fault && !run.bound_violation())) {
      if (out.verdict_error.empty()) {
        out.verdict_error = "request " + std::to_string(i) + " (" + handler + "): " +
                            (run.ok ? "completed" : "faulted: " + fault_text(run));
      }
    }
  }
  return out;
}

// A serving workload: one or more Cash-mode servers, each served in
// batches drawn from a stored pool of (request seed, size) pairs.
class ServingWorkload : public Workload {
 public:
  struct Server {
    std::string name;
    std::string source;
    std::unique_ptr<CompiledProgram> program;
  };
  struct Batch {
    std::uint32_t seed_base;
    int requests;
  };

  ServingWorkload(const Expected& expected, std::uint32_t seed, std::string kind,
                  std::vector<Server> servers, std::vector<int> sizes, int jobs,
                  cash::netsim::ServeOptions serve, std::string faulting_handler)
      : Workload(expected),
        kind_(std::move(kind)),
        servers_(std::move(servers)),
        sizes_(std::move(sizes)),
        jobs_(jobs),
        serve_(std::move(serve)),
        faulting_handler_(std::move(faulting_handler)) {
    // The seed picks which batches of each size a run serves, and their
    // order; every run serves the same number of batches of each size.
    std::vector<Batch> pool = this->pool();
    std::mt19937 rng(seed);
    std::shuffle(pool.begin(), pool.end(), rng);
    std::map<int, std::size_t> taken;
    for (const Batch& b : pool) {
      if (taken[b.requests]++ < kRunBatches / sizes_.size()) batches_.push_back(b);
    }
  }

  std::vector<Batch> pool() const {
    std::vector<Batch> batches;
    for (std::uint32_t j = 0; j < kPoolBatches; ++j) {
      batches.push_back({1 + j * 4096, sizes_[j % sizes_.size()]});
    }
    return batches;
  }

  void setup(Tracer* tracer, RunReport&) override {
    for (Server& s : servers_) {
      CompileOptions options;
      options.lower.mode = CheckMode::kCash;
      std::string error;
      s.program = tracer == nullptr
                      ? compile_or_throw(s.source, options, s.name.c_str())
                      : traced_compile(s.source, options, tracer, setup_counts_, &error);
      if (s.program == nullptr) throw std::runtime_error(s.name + ": " + error);
      std::unique_ptr<cash::vm::Machine> machine;
      {
        ScopedSpan span(tracer, "vm.make_machine");
        machine = s.program->make_machine();
      }
      ScopedSpan span(tracer, "setup.server_init");
      machine->run_function("server_init");
    }
  }

  int jobs() const override { return jobs_; }

  void warm_up() override {
    for (Server& s : servers_) {
      try {
        cash::netsim::serve_requests(*s.program, batches_[0].requests, batches_[0].seed_base,
                                     {jobs_}, {}, serve_);
      } catch (const std::exception&) {
        // Counted when the timed phase serves the same batch.
      }
    }
  }

  Phase run(double seconds, Tracer* tracing, RunReport& report,
            const std::function<void()>& between_calls) override {
    Phase phase;
    const double start = now_s();
    std::uint32_t op = 0;
    std::size_t call = 0;
    // A round serves every batch on every server, so traced and untraced
    // rounds, and every run, weigh each batch size alike.
    const std::size_t round = servers_.size() * batches_.size();
    do {
      Tracer* tracer = Phase::round_tracer(tracing, call / round);
      Server& server = servers_[call % servers_.size()];
      const Batch& batch = batches_[(call / servers_.size()) % batches_.size()];
      const std::uint32_t seed_base = batch.seed_base;
      ++call;
      if (tracer != nullptr) tracer->begin_op(op++);
      cash::netsim::ServerMetrics metrics;
      std::string error;
      const double cpu0 = process_cpu_s();
      const double t0 = now_s();
      {
        ScopedSpan op_span(tracer, "op");
        ScopedSpan span(tracer, "netsim.serve");
        try {
          metrics = cash::netsim::serve_requests(*server.program, batch.requests, seed_base,
                                                 {jobs_}, {}, serve_);
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      const double wall = now_s() - t0;
      const double cpu = process_cpu_s() - cpu0;
      report.attempted += static_cast<std::uint64_t>(batch.requests);
      const auto* stored = expected_.find(kind_, key(server, seed_base));
      // serve_requests does not return instructions retired; a batch whose
      // metrics match the stored ones retired the stored count.
      const bool matched = check(server, batch, metrics, error, stored, report);
      phase.add(tracing != nullptr && tracer == nullptr, wall * 1e3,
                static_cast<std::uint64_t>(batch.requests),
                matched ? stored_value(stored, "instructions") : 0);
      if (error.empty()) clean_cycles_.emplace(key(server, seed_base), clean_cycles(metrics));
      if (tracer != nullptr) {
        LayerCounts& c = phase.layers;
        ++c.serve_calls;
        c.serve_wall_s += wall;
        c.serve_cpu_s += cpu;
        c.pool_restores += metrics.pool.restores;
        c.pool_machines_built += metrics.pool.machines_built;
        // Replayed right after the call, so both see the same host speed.
        // The replay also warms caches for the next traced call, which
        // trace.overhead_pct then shows.
        const Replay replay = replay_serving(*server.program, batch.requests, seed_base, serve_,
                                             true,
                                             faulting_handler_, tracer, c);
        c.covered_s += replay.covered_s / jobs_;
        if (error.empty() && replay.handler_cycles != metrics.total_cpu_cycles) {
          report.cross_check_failures.push_back(
              kind_ + " " + key(server, seed_base) + ": replayed handler cycles " +
              std::to_string(replay.handler_cycles) + " differ from total_cpu_cycles " +
              std::to_string(metrics.total_cpu_cycles));
        }
        if (!replay.verdict_error.empty()) {
          report.fail(kind_ + " " + key(server, seed_base) + " replay " + replay.verdict_error);
        }
      }
      between_calls();
    } while (now_s() - start < seconds || call % round != 0);
    phase.peak_rss_mb = perfbench::peak_rss_mb();
    return phase;
  }

  double verify(RunReport& report) override {
    // Cash over NoCheck on this run's batches (the clean class only, when
    // the server has a faulting one); the Cash cycles come from the timed
    // calls.
    double cash = 0, nocheck = 0;
    for (Server& s : servers_) {
      CompileOptions options;
      options.lower.mode = CheckMode::kNoCheck;
      const std::unique_ptr<CompiledProgram> base =
          compile_or_throw(s.source, options, s.name.c_str());
      for (const Batch& b : batches_) {
        const auto served = clean_cycles_.find(key(s, b.seed_base));
        if (served == clean_cycles_.end()) continue; // already counted as failed
        try {
          const auto without = cash::netsim::serve_requests(*base, b.requests, b.seed_base,
                                                            {jobs_}, {}, serve_);
          cash += static_cast<double>(served->second);
          nocheck += static_cast<double>(clean_cycles(without));
        } catch (const std::exception& e) {
          report.fail(kind_ + " " + key(s, b.seed_base) + " NoCheck run failed: " + e.what());
        }
      }
    }
    return nocheck > 0 ? (cash / nocheck - 1.0) * 100.0 : 0;
  }

  // Records the expected values with rebuild-and-replay on the reference
  // interpreter, cross-checked against a single-thread replay.
  void record(std::FILE* out) {
    cash::netsim::ServeOptions reference = serve_;
    reference.enable_snapshot = false;
    reference.enable_predecode = false;
    const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    for (Server& s : servers_) {
      CompileOptions options;
      options.lower.mode = CheckMode::kCash;
      s.program = compile_or_throw(s.source, options, s.name.c_str());
      for (const Batch& b : pool()) {
        const std::uint32_t seed_base = b.seed_base;
        const auto m =
            cash::netsim::serve_requests(*s.program, b.requests, seed_base, {hw}, {}, reference);
        LayerCounts unused;
        const Replay replay = replay_serving(*s.program, b.requests, seed_base, serve_, false,
                                             faulting_handler_, nullptr, unused);
        if (replay.handler_cycles != m.total_cpu_cycles || !replay.verdict_error.empty()) {
          throw std::runtime_error(kind_ + " " + key(s, seed_base) +
                                   ": replay disagrees with serve_requests " +
                                   replay.verdict_error);
        }
        std::fprintf(out, "%s %s digest=%llu cpu=%llu failed=%llu instructions=%llu\n",
                     kind_.c_str(), key(s, seed_base).c_str(),
                     static_cast<unsigned long long>(metrics_digest(m)),
                     static_cast<unsigned long long>(m.total_cpu_cycles),
                     static_cast<unsigned long long>(m.failed_requests),
                     static_cast<unsigned long long>(replay.instructions));
      }
    }
  }

 private:
  static std::string key(const Server& s, std::uint32_t seed_base) {
    return s.name + "/" + std::to_string(seed_base);
  }

  std::uint64_t clean_cycles(const cash::netsim::ServerMetrics& m) const {
    if (faulting_handler_.empty()) return m.total_cpu_cycles;
    std::uint64_t cycles = 0;
    for (std::size_t c = 0; c < serve_.classes.size(); ++c) {
      if (serve_.classes[c].handler != faulting_handler_) cycles += m.classes[c].total_cpu_cycles;
    }
    return cycles;
  }

  // Returns whether the batch's metrics equal the stored ones.
  bool check(const Server& server, const Batch& batch, const cash::netsim::ServerMetrics& m,
             const std::string& error, const std::map<std::string, std::uint64_t>* stored,
             RunReport& report) {
    const std::string where = kind_ + " " + key(server, batch.seed_base);
    const auto requests = static_cast<std::uint64_t>(batch.requests);
    if (!error.empty()) {
      report.failed += requests;
      if (report.errors.size() < 8) report.errors.push_back(where + ": " + error);
      return false;
    }
    if (stored == nullptr) {
      report.failed += requests;
      if (report.errors.size() < 8) report.errors.push_back(where + ": no stored values");
      return false;
    }
    // Each faulting-class request must fail and no other request may; the
    // stored digest (whose faults the recording replay checked to be bound
    // faults) covers the failure text. A digest mismatch fails the batch.
    std::uint64_t wrong = 0;
    for (std::size_t c = 0; c < m.classes.size(); ++c) {
      const bool must_fault = !serve_.classes.empty() &&
                              serve_.classes[c].handler == faulting_handler_;
      wrong += must_fault ? m.classes[c].requests - m.classes[c].failed_requests
                          : m.classes[c].failed_requests;
    }
    const bool matched =
        stored->count("digest") != 0 && metrics_digest(m) == stored->at("digest");
    if (!matched) wrong = requests;
    if (wrong > 0) {
      report.failed += wrong;
      if (report.errors.size() < 8) {
        report.errors.push_back(where + ": ServerMetrics differ from the stored values (" +
                                std::to_string(wrong) + " requests)");
      }
    }
    return matched && wrong == 0;
  }

  std::string kind_;
  std::vector<Server> servers_;
  std::vector<int> sizes_;
  int jobs_;
  cash::netsim::ServeOptions serve_;
  std::string faulting_handler_;
  std::vector<Batch> batches_;
  std::map<std::string, std::uint64_t> clean_cycles_; // per served batch
};

std::unique_ptr<ServingWorkload> make_serve(const Expected& expected, std::uint32_t seed) {
  std::vector<ServingWorkload::Server> servers;
  for (const cash::workloads::Workload& w : cash::workloads::network_suite()) {
    servers.push_back({w.name, w.source, nullptr});
  }
  return std::make_unique<ServingWorkload>(expected, seed, "serve", std::move(servers),
                                           kServeBatches, host_jobs(kServeJobs),
                                           cash::netsim::ServeOptions{}, "");
}

// bench_serve's server: short handlers behind a heavy server_init, the
// shape of a fork-per-request server whose fixed per-call costs show;
// handle_bad writes past a stack array and must be caught by Cash.
constexpr const char* kForkServer = R"(
int table[2048];
int *pool;
int server_init() {
  int i; int pass;
  for (pass = 0; pass < 24; pass++) {
    for (i = 0; i < 2048; i++) {
      table[i] = table[i] + i % 17 + pass;
    }
  }
  pool = malloc(1024);
  for (i = 0; i < 256; i++) {
    pool[i] = table[i * 8] + i;
  }
  return 0;
}
int handle_request() {
  int buf[128];
  int i; int n; int s;
  n = rand() % 96 + 32;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 128] = table[(i * 7) % 2048] + pool[i % 256];
    s = s + buf[i % 128];
  }
  return s;
}
int handle_large() {
  int buf[128];
  int i; int n; int s;
  n = rand() % 128 + 256;
  s = 0;
  for (i = 0; i < n; i++) {
    buf[i % 128] = table[(i * 13) % 2048] + pool[(i * 3) % 256];
    s = s + buf[i % 128];
  }
  return s;
}
int handle_bad() {
  int small[8];
  int i;
  i = rand() % 4 + 9;
  while (i <= 12) {
    small[i] = i;
    i = i + 1;
  }
  return small[0];
}
int main() { server_init(); return handle_request(); }
)";

// The traffic of bench_serve's sustained load: its class mix, simulated
// servers, arrival rate and connection churn. Its admission limit is left
// off so that every request runs and has its verdict checked.
std::unique_ptr<ServingWorkload> make_fork(const Expected& expected, std::uint32_t seed) {
  std::vector<ServingWorkload::Server> servers;
  servers.push_back({"forksrv", kForkServer, nullptr});
  cash::netsim::ServeOptions serve;
  serve.classes = {{"small", "handle_request", 6},
                   {"large", "handle_large", 2},
                   {"faulty", "handle_bad", 1}};
  serve.sim_servers = 4;
  serve.mean_interarrival_cycles = 2500;
  serve.churn_period = 32;
  return std::make_unique<ServingWorkload>(expected, seed, "fork", std::move(servers),
                                           kForkBatches, host_jobs(kForkJobs), serve,
                                           "handle_bad");
}

// --- reporting ----------------------------------------------------------------

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

void add_end_to_end(RunReport& report, const std::vector<double>& setups, const Phase& phase,
                    double overhead_pct, double rss_mb) {
  const std::uint64_t calls = phase.op_ms.size();
  report.add("setup_s", "s", percentile(setups, 50), setups.size());
  report.add("sim_mips", "Minstr/s", phase.rate(phase.op_instructions) / 1e6, calls);
  report.add("ops_per_s", "1/s", phase.rate(phase.op_ops), calls);
  report.add("op_ms_p50", "ms", percentile(phase.op_ms, 50), calls);
  report.add("op_ms_p90", "ms", percentile(phase.op_ms, 90), calls);
  report.add("sim_overhead_pct", "%", overhead_pct, 1);
  report.add("peak_rss_mb", "MB", rss_mb, 1);
}

void add_per_layer(RunReport& report, const Tracer& tracer, const LayerCounts& c,
                   const Phase& traced) {
  const auto self = tracer.self_times();
  auto ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() || it->second.count == 0
               ? std::pair<double, std::uint64_t>{0, 0}
               : std::pair<double, std::uint64_t>{it->second.total_s / it->second.count * 1e3,
                                                  it->second.count};
  };
  auto add_ms = [&](const char* metric, const char* span) {
    const auto [value, n] = ms(span);
    report.add(metric, "ms", value, n);
  };
  const double base_p50 = percentile(traced.baseline_ms, 50);
  const double traced_p50 = percentile(traced.op_ms, 50);
  report.add("trace.overhead_pct", "%", base_p50 > 0 ? (traced_p50 / base_p50 - 1) * 100 : 0,
             traced.op_ms.size());
  report.add("error_rate", "ratio", ratio(report.failed, report.attempted), report.attempted);
  add_ms("frontend.ms", "frontend");
  report.add("frontend.ir_instrs", "count", ratio(c.frontend_instrs, c.compiles), c.compiles);
  add_ms("ir.verify.ms", "ir.verify");
  add_ms("passes.optimize.ms", "passes.optimize");
  add_ms("passes.elide.ms", "passes.elide");
  add_ms("passes.lower.ms", "passes.lower");
  report.add("passes.ir_instrs_after_opt", "count", ratio(c.opt_instrs, c.compiles), c.compiles);
  report.add("passes.lower.static_checks", "count", ratio(c.static_checks, c.compiles),
             c.compiles);
  report.add("passes.elide.removed_ratio", "ratio",
             ratio(c.checks_removed, c.static_checks_without_elision), c.compiles);
  add_ms("vm.decode.ms", "vm.decode");
  report.add("vm.decode.fusion_hit_rate", "ratio", ratio(c.fused_instrs, c.foldable_instrs),
             c.compiles);
  add_ms("vm.make_machine.ms", "vm.make_machine");
  add_ms("vm.prepare.ms", "vm.prepare");
  add_ms("vm.run.ms", "vm.run");
  report.add("vm.instructions", "count", ratio(c.instructions, c.runs), c.runs);
  report.add("vm.trace.formed", "count", ratio(c.traces_formed, c.runs), c.runs);
  report.add("vm.trace.coverage", "ratio", ratio(c.trace_instructions, c.instructions), c.runs);
  report.add("vm.trace.guard_exit_ratio", "ratio", ratio(c.guard_exits, c.trace_execs), c.runs);
  add_ms("vm.capture.ms", "vm.capture");
  add_ms("vm.restore.ms", "vm.restore");
  report.add("paging.tlb_hit_ratio", "ratio", ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses),
             c.runs);
  report.add("runtime.seg_cache_hit_ratio", "ratio", ratio(c.seg_hits, c.seg_allocs), c.runs);
  report.add("runtime.global_fallbacks", "count", ratio(c.global_fallbacks, c.runs), c.runs);
  report.add("runtime.heap.malloc_calls", "count", ratio(c.malloc_calls, c.runs), c.runs);
  report.add("kernel.call_gate_calls", "count", ratio(c.call_gate_calls, c.runs), c.runs);
  report.add("kernel.kernel_cycles", "cycles", ratio(c.kernel_cycles, c.runs), c.runs);
  add_ms("netsim.serve.ms", "netsim.serve");
  add_ms("netsim.init_check.ms", "netsim.init_check");
  add_ms("netsim.chunk_init.ms", "netsim.chunk_init");
  report.add("netsim.fixed_share", "ratio",
             c.serve_wall_s > 0 ? 1.0 - c.covered_s / c.serve_wall_s : 0, c.serve_calls);
  report.add("netsim.pool.restores", "count", ratio(c.pool_restores, c.serve_calls),
             c.serve_calls);
  report.add("netsim.pool.machines_built", "count", ratio(c.pool_machines_built, c.serve_calls),
             c.serve_calls);
  report.add("exec.cpu_per_wall", "ratio", c.serve_wall_s > 0 ? c.serve_cpu_s / c.serve_wall_s : 0,
             c.serve_calls);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_line(const RunReport& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

bool write_report(const std::string& path, const Options& opt, const Stamp& stamp,
                  const RunReport& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %u,\n  \"seconds\": %s,\n",
               opt.workload.c_str(), opt.seed, json_number(opt.seconds).c_str());
  std::fprintf(f, "  \"traced\": %s,\n  \"stamp\": %s,\n", opt.trace ? "true" : "false",
               stamp.to_json().c_str());
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n  \"error_rate\": %s,\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               json_number(ratio(report.failed, report.attempted)).c_str());
  std::fprintf(f, "  \"errors\": [");
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    std::string e = report.errors[i];
    std::replace(e.begin(), e.end(), '"', '\'');
    std::replace(e.begin(), e.end(), '\n', ' ');
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", e.c_str());
  }
  std::fprintf(f, "],\n  \"metrics\": [\n");
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"unit\": \"%s\", \"value\": %s, \"samples\": %llu}%s\n",
                 m.name.c_str(), m.unit.c_str(), json_number(m.value).c_str(),
                 static_cast<unsigned long long>(m.samples),
                 i + 1 < report.metrics.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest failed: %s\n", what);
      ++failures;
    }
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  expect(percentile(hundred, 90) == 90, "p90 of 1..100 is 90");
  expect(percentile(hundred, 100) == 100, "p100 of 1..100 is 100");
  expect(percentile({7}, 50) == 7 && percentile({7}, 90) == 7, "single sample");
  expect(percentile({}, 50) == 0, "no samples gives 0");
  expect(percentile({1, 2, 3, 4}, 50) == 2, "p50 of four samples is the 2nd");
  expect(percentile({1, 2, 3, 4}, 90) == 4, "p90 of four samples is the 4th");
  RunReport report;
  report.add("op_ms_p90", "ms", percentile(hundred, 90), hundred.size());
  expect(report.metrics[0].samples == 100, "sample count is kept with the metric");
  std::printf("selftest %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int record() {
  const Expected none;
  KernelsWorkload::record(stdout);
  make_serve(none, 1)->record(stdout);
  make_fork(none, 1)->record(stdout);
  return 0;
}

std::unique_ptr<Workload> make_workload(const Options& opt, const Expected& expected) {
  if (opt.workload == "kernels") return std::make_unique<KernelsWorkload>(expected, opt.seed);
  if (opt.workload == "compile") return std::make_unique<CompileWorkload>(expected, opt.seed);
  if (opt.workload == "serve") return make_serve(expected, opt.seed);
  if (opt.workload == "fork") return make_fork(expected, opt.seed);
  return nullptr;
}

int run(const Options& opt) {
  Expected expected;
  std::string error;
  if (!expected.load(opt.expected_path, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(opt, expected);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Stamp stamp = Stamp::resolve(workload->jobs());
  std::printf("perfbench %s seed=%u seconds=%g trace=%d layers=%s\n", opt.workload.c_str(),
              opt.seed, opt.seconds, opt.trace ? 1 : 0, stamp.to_json().c_str());

  RunReport report;
  Tracer tracer;
  std::vector<double> setups;
  auto set_up = [&](Tracer* traced) {
    const double t0 = now_s();
    workload->setup(traced, report);
    setups.push_back(now_s() - t0);
  };
  for (int rep = 0; rep + 1 < kSetupRepsBefore; ++rep) set_up(nullptr);
  tracer.begin_op(UINT32_MAX);
  set_up(opt.trace ? &tracer : nullptr);
  workload->warm_up();
  if (!opt.trace) {
    // The set-ups during the timed phase go to a spare instance, so the
    // timed one keeps the state its last set-up left.
    const std::unique_ptr<Workload> spare = make_workload(opt, expected);
    const double start = now_s();
    auto set_up_on_schedule = [&]() {
      const std::size_t due = static_cast<std::size_t>(
          (now_s() - start) / opt.seconds * (kSetupRepsDuring + 1));
      if (setups.size() < kSetupRepsBefore + std::min<std::size_t>(due, kSetupRepsDuring)) {
        const double t0 = now_s();
        spare->setup(nullptr, report);
        setups.push_back(now_s() - t0);
      }
    };
    const Phase phase = workload->run(opt.seconds, nullptr, report, set_up_on_schedule);
    const double rss = phase.peak_rss_mb;
    const double overhead = workload->verify(report);
    add_end_to_end(report, setups, phase, overhead, rss);
    std::printf("error_rate %.6g (%llu of %llu operations)\n",
                ratio(report.failed, report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
  } else {
    const Phase traced = workload->run(opt.seconds, &tracer, report, [] {});
    workload->verify(report);
    // Programs compiled in set-up count towards the compile layers.
    LayerCounts counts = traced.layers;
    const LayerCounts& s = workload->setup_counts();
    counts.compiles += s.compiles;
    counts.frontend_instrs += s.frontend_instrs;
    counts.opt_instrs += s.opt_instrs;
    counts.static_checks += s.static_checks;
    counts.fused_instrs += s.fused_instrs;
    counts.foldable_instrs += s.foldable_instrs;
    add_per_layer(report, tracer, counts, traced);
    if (!report.cross_check_failures.empty()) {
      for (const std::string& f : report.cross_check_failures) {
        std::fprintf(stderr, "perfbench: cross-check failed: %s\n", f.c_str());
      }
      return 1;
    }
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("  %-28s %16.6g %-6s (n=%llu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  if (!opt.out_dir.empty()) {
    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + (opt.trace ? "-traced" : "");
    if (!write_report(stem + ".json", opt, stamp, report) ||
        (opt.trace && !tracer.write_json(stem + "-spans.json"))) {
      std::fprintf(stderr, "perfbench: cannot write the report under %s\n", opt.out_dir.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result_line(report).c_str());
  return 0;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool record = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--record") {
      record = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--expected" && has_value) {
      opt.expected_path = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  try {
    if (selftest) return perfbench::selftest();
    if (record) return perfbench::record();
    if (opt.workload.empty() || opt.expected_path.empty() || !(opt.seconds > 0)) {
      std::fprintf(stderr, "perfbench: --workload, --expected and --seconds > 0 are required\n");
      return 2;
    }
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
