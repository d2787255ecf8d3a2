#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace cash::exec {

// Host-side parallel execution engine (DESIGN.md §7). Everything here is
// about how fast the *simulator* runs on the development machine; it must
// never change what is simulated. The determinism contract:
//
//   * The index space [0, n) is split into fixed contiguous chunks — no
//     work stealing, no dynamic scheduling — so which worker runs which
//     index is a pure function of (n, jobs).
//   * Each index is processed exactly once and writes only to its own
//     pre-sized result slot; the caller reduces the slots in index order.
//     Aggregates therefore cannot depend on thread interleaving.
//   * jobs == 1 runs inline on the calling thread: the exact serial path,
//     no threads created.
//
// Consequently a body that is itself deterministic per index (simulated
// Machines are: they share only the immutable ir::Module) yields
// bit-identical aggregates for every jobs value — enforced by
// tests/exec/parallel_invariance_test.
struct ExecutorConfig {
  // Worker threads. 0 = auto: $CASH_JOBS if set and positive, otherwise
  // std::thread::hardware_concurrency(). 1 = the serial path.
  int jobs{0};
};

// Resolves the effective worker count for `config` (always >= 1).
int resolve_jobs(const ExecutorConfig& config = {});

// Runs body(i) for every i in [0, n), sharded over `jobs` fixed contiguous
// chunks (jobs <= 0 resolves as ExecutorConfig{jobs}). If bodies throw, all
// workers still join and the exception thrown at the lowest index is
// rethrown — the same exception the serial loop would surface — but unlike
// the serial loop, bodies at higher indices may already have run.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& body);

// Runs body(begin, end) once per fixed contiguous chunk, with exactly the
// chunk boundaries parallel_for would use for (n, jobs) — chunk t of w
// workers is [n*t/w, n*(t+1)/w). For callers that keep per-worker state
// alive across the indices of a chunk (netsim's fork-from-snapshot machine
// reuse): the chunking is a pure function of (n, jobs), and a body whose
// per-index results do not depend on chunk membership stays bit-identical
// for every jobs value. jobs resolution and clamping match parallel_for;
// the serial path is one inline body(0, n) call. If bodies throw, all
// workers still join and the exception from the lowest-begin chunk is
// rethrown — a body that processes its chunk in index order and throws at
// the first failure therefore surfaces the globally lowest failing index,
// same as parallel_for.
void parallel_chunks(std::size_t n, int jobs,
                     const std::function<void(std::size_t, std::size_t)>& body);

// Convenience: maps [0, n) through `fn` into an index-ordered vector of
// results. fn must be callable concurrently from different threads for
// distinct indices.
template <typename Fn>
auto parallel_map(std::size_t n, int jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  std::vector<Result> slots(n);
  parallel_for(n, jobs,
               [&](std::size_t i) { slots[i] = fn(i); });
  return slots;
}

} // namespace cash::exec
