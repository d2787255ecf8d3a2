#pragma once

#include <cstdint>

#include <string>
#include <vector>

#include "core/cash.hpp"
#include "exec/executor.hpp"
#include "faultinject/faultinject.hpp"

namespace cash::netsim {

// Production serving loop over the paper's network measurement methodology
// (Section 4.4): client machines send `requests` requests to a server that
// forks one process per request. The loop models sustained load — a
// deterministic arrival process with FCFS queueing over a fixed set of
// simulated server processes, connection churn, and mixed request classes —
// and reports a full latency distribution (p50/p90/p99/max), not just the
// mean, the way a wrk-style load generator would.

// Per-class slice of the aggregate metrics. Classes are declared in
// ServeOptions::classes; each request is assigned a class by a
// deterministic weighted draw on (seed_base, index), so the per-class
// split is a pure function of the inputs and bit-identical at any host
// thread count.
struct ClassMetrics {
  std::string name;
  std::uint64_t requests{0};          // admitted requests of this class
  std::uint64_t total_cpu_cycles{0};  // handler cycles (incl. penalties)
  std::uint64_t checking_cycles{0};   // bound-check slice of the CPU cycles
  // Tenant-mode context switches charged *to* this class (the incoming
  // tenant pays, as in KernelSim). Zero unless ServeOptions::
  // tenant_processes is on.
  std::uint64_t context_switches_in{0};
  // Exact nearest-rank order statistics over this class's per-request
  // latency (see ServerMetrics for the latency definition).
  std::uint64_t p50_latency_cycles{0};
  std::uint64_t p90_latency_cycles{0};
  std::uint64_t p99_latency_cycles{0};
  std::uint64_t max_latency_cycles{0};
  std::uint64_t degraded_requests{0};
  std::uint64_t failed_requests{0};

  bool operator==(const ClassMetrics&) const = default;
};

// Host-side snapshot-pool accounting: how the serving loop materialised
// the per-request parent images. Purely diagnostic — the counts depend on
// the host thread count and serving strategy (a snapshot worker builds one
// machine per chunk; replay builds one per attempt), so this struct is the
// one ServerMetrics member exempt from the bit-identity contract (like
// RunResult::tlb_stats) and excluded from first_metrics_difference().
struct PoolStats {
  std::uint64_t machines_built{0}; // Machine constructions (children only)
  std::uint64_t captures{0};       // Machine::capture() calls
  std::uint64_t restores{0};       // Machine::restore() calls
  std::uint64_t init_replays{0};   // server_init executions in workers
};

struct ServerMetrics {
  int requests{0};
  // Integer aggregates, summed in request-index order, so the values are
  // exact and cannot drift with sharding or summation order. The doubles
  // below are derived from these once, at the end.
  std::uint64_t total_cpu_cycles{0};  // sum of per-request handler cycles
  std::uint64_t total_busy_cycles{0}; // total_cpu_cycles + fork/connect costs
  double mean_latency_cycles{0};  // mean per-process CPU cycles
  double mean_latency_us{0};      // at the simulated 1.1 GHz clock
  double throughput_rps{0};       // requests per second
  std::uint64_t sw_checks{0};     // aggregate dynamic counters
  std::uint64_t hw_checks{0};
  std::uint64_t checking_cycles{0}; // bound-check slice of the CPU cycles
  std::uint64_t segment_allocs{0};
  std::uint64_t cache_hits{0};
  // Multi-tenant scheduling (zero unless ServeOptions::tenant_processes):
  // a simulated server that hands the CPU from one tenant's process to
  // another's charges costs::kContextSwitch to the incoming request.
  std::uint64_t context_switches{0};
  std::uint64_t context_switch_cycles{0};
  // Fault-injection aggregates (all zero when serve_requests runs without a
  // plan — the unarmed path is bit-transparent). A request is `degraded`
  // when it completed correctly but took a slow path (a retried timeout or
  // an unchecked global-fallback segment); `failed` when it exhausted the
  // retry budget or its machine faulted. Both are counted, never thrown.
  std::uint64_t retries{0};           // re-forks after an injected timeout
  std::uint64_t timeouts{0};          // injected timeouts (incl. retried)
  std::uint64_t degraded_requests{0}; // completed, but on a degraded path
  std::uint64_t failed_requests{0};   // budget exhausted or machine fault
  std::uint64_t faults_injected{0};   // machine-level + network-level fires
  std::string first_failure;          // lowest-index failure detail, if any
  // Latency distribution. Per-request latency is defined as
  //   handler CPU cycles (incl. timeout penalties)
  //   + connection set-up cycles (when churn opens a fresh connection)
  //   + queue wait (when the arrival model is on),
  // so with default ServeOptions it is exactly the per-request CPU cycles.
  // The percentiles are exact nearest-rank order statistics computed once,
  // serially, from the integer per-request values — they cannot drift with
  // sharding or thread count. Failed requests are included (their latency
  // is what the client observed before giving up).
  std::uint64_t total_latency_cycles{0};
  std::uint64_t p50_latency_cycles{0};
  std::uint64_t p90_latency_cycles{0};
  std::uint64_t p99_latency_cycles{0};
  std::uint64_t max_latency_cycles{0};
  // Admission/queueing aggregates (all zero when the arrival model is off).
  std::uint64_t queue_wait_cycles{0}; // total FCFS wait across requests
  std::uint64_t peak_queue_depth{0};  // max simultaneously-waiting requests
  std::uint64_t rejected_requests{0}; // admission-control drops (never ran)
  // Connections opened by churn (0 when ServeOptions::churn_period is 0).
  std::uint64_t connects{0};
  // Per-class breakdowns, one entry per ServeOptions::classes entry (a
  // single "default" entry when no classes are configured).
  std::vector<ClassMetrics> classes;
  // Host-side pool accounting — exempt from the bit-identity contract.
  PoolStats pool;
};

// Field-by-field comparison over every simulated ServerMetrics field
// (PoolStats is the documented host-side exemption). Returns the name of
// the first differing field, or an empty string when identical. The bench
// divergence gates and invariance tests are built on this, so adding a
// ServerMetrics field here is what puts it under the bit-identity contract.
std::string first_metrics_difference(const ServerMetrics& a,
                                     const ServerMetrics& b);
inline bool operator==(const ServerMetrics& a, const ServerMetrics& b) {
  return first_metrics_difference(a, b).empty();
}

// Simulated clock frequency (the paper's server is a 1.1 GHz Pentium III).
inline constexpr double kClockHz = 1.1e9;

// Effective (non-overlapped) cost of forking a server child. Forks overlap
// with client think time and network latency, so only a small slice lands
// on the measured interval.
inline constexpr std::uint64_t kForkCycles = 2500;

// Server-side cost of an injected request timeout: the child's work was
// wasted and the client's retransmission timer expires before the re-fork.
inline constexpr std::uint64_t kTimeoutPenaltyCycles = 25000;

// One class of requests in a mixed workload: a handler function plus a
// selection weight. Handlers are zero-argument functions of the compiled
// server program ("handle_request"-shaped); a class whose handler faults
// is recorded per request (failed_requests), never thrown, so "faulty"
// classes can be mixed into a load test deliberately.
struct RequestClass {
  std::string name;
  std::string handler{"handle_request"};
  int weight{1};
};

// Host-side serving strategy plus the simulated load model. The three
// `enable_*` switches are fast-path toggles only: every ServerMetrics
// field is bit-identical whichever way they are set
// (tests/exec/parallel_invariance_test, bench/bench_serve, bench/bench_trace).
// The load-model knobs (classes, arrival process, churn) *do* change what
// is simulated — but deterministically, and identically for both serving
// strategies and any thread count.
struct ServeOptions {
  // Fork each request from a machine snapshot instead of rebuilding the
  // machine per request. Unarmed runs capture the post-server_init parent
  // image once per worker and restore it before every request. Armed runs
  // (non-empty FaultPlan) capture the same parent image *before* arming:
  // after each restore the injector is re-armed from scratch with the
  // request's seed (plan.seed + i) and only the per-request seeding is
  // replayed — bit-identical to rebuild-and-replay, which materialises the
  // parent image fresh and then arms at the same fork point. Forced off
  // when $CASH_NO_SNAPSHOT is set (armed and unarmed alike).
  bool enable_snapshot{true};
  // Run the children on the pre-decoded micro-op engine (vm/decode.hpp).
  // false forces the reference interpreter regardless of the compiled
  // program's MachineConfig (the replay reference in
  // ParallelInvariance.SnapshotServingMatchesReplayAtEveryThreadCount).
  bool enable_predecode{true};
  // Run the children with the hot-trace superblock engine (DESIGN.md §11).
  // Like enable_predecode, this can only turn the layer *off* relative to
  // the compiled program's MachineConfig — an A/B lever for the
  // bench_trace serving leg. ServerMetrics are bit-identical either way.
  bool enable_trace{true};
  // Mixed request classes. Empty = one implicit class
  // {"default", "handle_request", 1} (the legacy single-handler behaviour,
  // where a failing request throws). With explicit classes the loop is a
  // production server: per-request failures are recorded in the metrics,
  // never thrown.
  std::vector<RequestClass> classes;
  // Arrival/queueing model, active when both sim_servers and
  // mean_interarrival_cycles are non-zero: requests arrive in index order
  // separated by deterministic pseudo-random gaps (uniform in
  // [0, 2*mean], seeded from seed_base), and are served FCFS by
  // `sim_servers` simulated server processes. Queue wait lands on the
  // latency distribution; CPU aggregates are unchanged.
  int sim_servers{0};
  std::uint64_t mean_interarrival_cycles{0};
  // Admission control: with the arrival model on and max_queue_depth > 0,
  // an arrival finding this many requests already waiting is rejected —
  // it never runs and contributes to no aggregate but rejected_requests.
  int max_queue_depth{0};
  // Connection churn: every churn_period-th request (index 0, P, 2P, ...)
  // opens a fresh connection costing connect_cycles, modelling keep-alive
  // connections recycled every P requests. 0 = no churn.
  std::uint32_t churn_period{0};
  std::uint64_t connect_cycles{1500};
  // Multi-tenant serving: each request class is one tenant process on the
  // simulated kernel, so consecutive requests of different classes on the
  // same simulated server pay a costs::kContextSwitch address-space + LDTR
  // switch (charged to the incoming request's latency and the server's
  // busy interval). With the arrival model off the whole run is one
  // sequential request stream. A single-class workload never switches, so
  // this is bit-transparent for homogeneous traffic. Forced off when
  // $CASH_NO_MULTIPROC is set.
  bool tenant_processes{false};
};

// Runs `requests` simulated forked processes of the compiled server program.
// Each request is one fork of the post-`server_init` parent image, and then
// handles exactly one request of its class with its own RNG seed (request i
// gets seed `seed_base + i`). Only the handler cycles (plus queue wait and
// connection churn, when those models are enabled) land on the request's
// latency. The parent image is materialised one of two ways — bit-identical
// by construction, selected by `serve` (see ServeOptions): restoring a
// per-worker machine snapshot of the post-init state (the default), or
// building a fresh Machine and replaying `server_init` per request
// (deterministic, so every child sees the identical inherited image).
//
// Requests are independent, so they are sharded across host threads per
// `executor` ($CASH_JOBS / ExecutorConfig::jobs; jobs=1 is the serial
// path). Per-request results are written to index-ordered slots and
// reduced in request order — and the queueing simulation and latency
// percentiles are computed serially from those integer slots — making
// every ServerMetrics field bit-identical for any thread count
// (tests/exec/parallel_invariance_test).
//
// With a non-empty `plan`, each child is armed at the fork point: the
// parent builds and initialises unarmed (a parent's init is not subject to
// per-child chaos), and each forked child gets a freshly seeded injector
// (plan.seed + i, so the fault pattern varies per request but replays
// identically for a fixed (seed_base, plan) at any thread count) before its
// handler runs. A separate network-level injector drives
// FaultSite::kNetRequestTimeout: a fired timeout wastes the attempt
// (cycles + kTimeoutPenaltyCycles) and re-forks — restore + re-arm on the
// snapshot path, rebuild on the replay path — up to plan.net_retry_budget
// retries. Outcomes are recorded in the metrics; a faulted or
// budget-exhausted request never throws. An empty plan takes the exact
// unarmed path (bit-transparent).
ServerMetrics serve_requests(const CompiledProgram& program, int requests,
                             std::uint32_t seed_base = 1,
                             const exec::ExecutorConfig& executor = {},
                             const faultinject::FaultPlan& plan = {},
                             const ServeOptions& serve = {});

// Convenience: penalty of `measured` relative to `baseline`, in percent.
double penalty_pct(double baseline, double measured);

} // namespace cash::netsim
