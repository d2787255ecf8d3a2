#pragma once

// Measurement plumbing shared by the four workloads: the metric list a run
// reports, the percentile helper, the span recorder of the traced run, the
// layer stamp, and the stored expected values.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

double now_s();
double process_cpu_s();
double peak_rss_mb();

// Exact nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

// FNV-1a, used to fingerprint outputs and simulated results.
std::uint64_t fnv1a(const std::string& text);

struct Metric {
  std::string name;
  std::string unit;
  double value{0};
  std::uint64_t samples{0}; // values the metric was computed from
};

// One run's outcome. `attempted` counts operations; `failed` counts those
// whose output, simulated result or fault verdict differed from the
// expected value (so error_rate = failed / attempted).
struct RunReport {
  std::vector<Metric> metrics;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors; // first few error messages
  // Traced-run cross-checks that failed; any one fails the traced run.
  std::vector<std::string> cross_check_failures;

  void add(std::string name, std::string unit, double value,
           std::uint64_t samples) {
    metrics.push_back({std::move(name), std::move(unit), value, samples});
  }
  void fail(const std::string& message) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(message);
    }
  }
};

// Span recorder of the traced run. Spans are kept in memory and written
// out once, at the end. A span's parent is whichever span was open when it
// started; spans of one operation share `op`.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t op;
    std::int32_t parent; // index into spans(), -1 for a root
    double start;
    double end;
  };

  void begin_op(std::uint32_t op) { op_ = op; }
  std::int32_t open(const char* name) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, op_, parent, now_s(), 0});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end = now_s();
    stack_.pop_back();
  }

  struct SelfTime {
    double total_s{0};
    std::uint64_t count{0};
  };
  // Per span name: summed self time (duration minus the part covered by
  // child spans) and number of spans.
  std::map<std::string, SelfTime> self_times() const;

  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t op_{0};
};

// Opens a span on `tracer` for the enclosing scope; does nothing when the
// tracer is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

// Which layers produced a result: every CASH_NO_* kill switch and CASH_JOBS
// that is set, the serving jobs, the VM's dispatch, and the build.
struct Stamp {
  std::vector<std::string> kill_switches;
  std::string cash_jobs; // empty when unset
  int jobs{1};
  bool threaded_dispatch{false};
  std::string compiler;
  std::string build_flags;

  static Stamp resolve(int jobs);
  // "default" when no kill switch is set, else "ablation:<switches>".
  std::string layer_label() const;
  std::string to_json() const;
};

// Stored expected values, one record per line of expected.txt:
//   <kind> <key> <field>=<value> ...
// Values are unsigned decimal integers.
class Expected {
 public:
  bool load(const std::string& path, std::string* error);
  // The record for (kind, key), or null when none is stored.
  const std::map<std::string, std::uint64_t>* find(
      const std::string& kind, const std::string& key) const;

 private:
  std::map<std::string, std::map<std::string, std::uint64_t>> records_;
};

} // namespace perfbench
