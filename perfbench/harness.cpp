#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include "vm/decode.hpp"

extern char** environ;

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM is this process image's own peak. ru_maxrss would also carry the
  // peak of whatever process exec'ed it (the Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  std::vector<double> child_s(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& t = out[spans_[i].name];
    t.total_s += spans_[i].end - spans_[i].start - child_s[i];
    ++t.count;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"op\": %u, \"parent\": %d, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 i, s.name, s.op, s.parent, (s.start - origin) * 1e6,
                 (s.end - origin) * 1e6, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

Stamp Stamp::resolve(int jobs) {
  Stamp stamp;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("CASH_NO_", 0) == 0) {
      stamp.kill_switches.push_back(entry.substr(0, entry.find('=')));
    }
  }
  std::sort(stamp.kill_switches.begin(), stamp.kill_switches.end());
  if (const char* value = std::getenv("CASH_JOBS")) {
    stamp.cash_jobs = value;
  }
  stamp.jobs = jobs;
  stamp.threaded_dispatch = cash::vm::threaded_dispatch_enabled();
  stamp.compiler = PERFBENCH_COMPILER;
  stamp.build_flags = PERFBENCH_BUILD_FLAGS;
  return stamp;
}

std::string Stamp::layer_label() const {
  if (kill_switches.empty()) {
    return "default";
  }
  std::string label = "ablation:";
  for (std::size_t i = 0; i < kill_switches.size(); ++i) {
    label += (i ? "," : "") + kill_switches[i];
  }
  return label;
}

std::string Stamp::to_json() const {
  std::ostringstream out;
  out << "{\"layers\": \"" << layer_label() << "\", \"kill_switches\": [";
  for (std::size_t i = 0; i < kill_switches.size(); ++i) {
    out << (i ? ", " : "") << '"' << kill_switches[i] << '"';
  }
  out << "], \"CASH_JOBS\": " << (cash_jobs.empty() ? "null" : '"' + cash_jobs + '"')
      << ", \"jobs\": " << jobs
      << ", \"threaded_dispatch\": " << (threaded_dispatch ? "true" : "false")
      << ", \"compiler\": \"" << compiler << "\", \"build_flags\": \""
      << build_flags << "\"}";
  return out.str();
}

bool Expected::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read expected values from " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string kind, key, field;
    if (!(fields >> kind >> key)) {
      *error = path + ":" + std::to_string(line_no) + ": malformed record";
      return false;
    }
    const std::string id = kind + ' ' + key;
    std::map<std::string, std::uint64_t>& record = records_[id];
    while (fields >> field) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) {
        *error = path + ":" + std::to_string(line_no) + ": bad field " + field;
        return false;
      }
      record[field.substr(0, eq)] =
          std::strtoull(field.c_str() + eq + 1, nullptr, 10);
    }
  }
  return true;
}

const std::map<std::string, std::uint64_t>* Expected::find(
    const std::string& kind, const std::string& key) const {
  const auto it = records_.find(kind + ' ' + key);
  return it == records_.end() ? nullptr : &it->second;
}

} // namespace perfbench
