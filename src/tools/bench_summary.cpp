// bench_summary: aggregate every BENCH_*.json in a directory into one
// BENCH_trajectory.json. Each bench binary writes its own result file;
// this tool folds them into a single artifact with (a) a "headline"
// section of the top-level numeric fields per bench (host wall time,
// speedup ratios, ...) for trend tracking across CI runs, and (b) the
// verbatim per-bench documents for drill-down.
//
//   bench_summary [dir] [-o output.json]
//
// Defaults: dir = ".", output = <dir>/BENCH_trajectory.json. Exits
// non-zero if the directory holds no bench results.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct BenchFile {
  std::string name; // "trace" for BENCH_trace.json
  std::string body; // verbatim JSON document
};

// One top-level headline scalar. Booleans carry their own representation
// instead of riding the verbatim-number channel: flags like
// "threaded_dispatch" land in the trajectory file as the JSON integers
// 0/1 — never as a number that could pick up a fractional part — while
// genuine numbers are passed through exactly as the bench printed them.
struct HeadlineField {
  std::string key;
  std::string number; // verbatim numeric text; empty for booleans
  int boolean{-1};    // 0 or 1 when the source value was false/true

  std::string render() const {
    return boolean >= 0 ? std::to_string(boolean) : number;
  }
};

// Pulls top-level `"key": <number|bool>` fields (the two-space-indent
// scalar lines every bench emits) without needing a JSON library.
std::vector<HeadlineField> headline_fields(const std::string& body) {
  std::vector<HeadlineField> fields;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  \"", 0) != 0) {
      continue; // nested or structural line
    }
    const std::size_t key_end = line.find('"', 3);
    if (key_end == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(3, key_end - 3);
    std::size_t pos = line.find(':', key_end);
    if (pos == std::string::npos) {
      continue;
    }
    ++pos;
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    if (line.compare(pos, 4, "true") == 0 ||
        line.compare(pos, 5, "false") == 0) {
      fields.push_back({key, {}, line[pos] == 't' ? 1 : 0});
      continue;
    }
    std::size_t end = pos;
    while (end < line.size() &&
           (std::isdigit(static_cast<unsigned char>(line[end])) != 0 ||
            line[end] == '-' || line[end] == '.' || line[end] == 'e' ||
            line[end] == '+')) {
      ++end;
    }
    if (end == pos) {
      continue; // value is a string/array/object, not a bare number
    }
    const std::string rest = line.substr(end);
    if (!rest.empty() && rest != "," && rest != "\r") {
      continue;
    }
    fields.push_back({key, line.substr(pos, end - pos), -1});
  }
  return fields;
}

// Re-indents a verbatim document so it nests under "results" legibly.
std::string indent_document(const std::string& body, const char* pad) {
  std::string out;
  std::istringstream lines(body);
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (!first) {
      out += '\n';
      out += pad;
    }
    out += line;
    first = false;
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  fs::path dir = ".";
  fs::path output;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: bench_summary [dir] [-o output.json]\n");
      return 0;
    } else {
      dir = arg;
    }
  }
  if (output.empty()) {
    output = dir / "BENCH_trajectory.json";
  }

  std::vector<BenchFile> benches;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string filename = entry.path().filename().string();
    if (filename.rfind("BENCH_", 0) != 0 ||
        entry.path().extension() != ".json" ||
        filename == "BENCH_trajectory.json") {
      continue;
    }
    std::ifstream in(entry.path());
    if (!in) {
      std::fprintf(stderr, "bench_summary: cannot read %s\n",
                   filename.c_str());
      return 1;
    }
    std::ostringstream contents;
    contents << in.rdbuf();
    std::string name = filename.substr(6);
    name.resize(name.size() - 5); // strip ".json"
    benches.push_back({name, contents.str()});
  }
  if (ec) {
    std::fprintf(stderr, "bench_summary: cannot scan %s: %s\n",
                 dir.string().c_str(), ec.message().c_str());
    return 1;
  }
  if (benches.empty()) {
    std::fprintf(stderr, "bench_summary: no BENCH_*.json in %s\n",
                 dir.string().c_str());
    return 1;
  }
  std::sort(benches.begin(), benches.end(),
            [](const BenchFile& a, const BenchFile& b) {
              return a.name < b.name;
            });

  std::ofstream out(output);
  if (!out) {
    std::fprintf(stderr, "bench_summary: cannot write %s\n",
                 output.string().c_str());
    return 1;
  }
  // North-star metrics promoted to the very top of the trajectory file:
  // the serving loop's armed-snapshot speedup plus sustained-load p99
  // latency, the elision bench's checking-cycle reduction and static-check
  // removal ratio, the tenant bench's budgeted-cell LDT thrash ratio and
  // matrix context-switch overhead, and the trace bench's speedup and
  // coverage. CI trend lines read these without digging through the
  // per-bench documents.
  const std::pair<const char*, const char*> kKeyMetrics[] = {
      {"serve", "armed_snapshot_speedup"},
      {"serve", "p99_latency_cycles"},
      {"elide", "check_cycle_reduction"},
      {"elide", "checks_removed_ratio"},
      {"tenants", "tenant_ldt_thrash_ratio"},
      {"tenants", "context_switch_overhead"},
      {"trace", "trace_speedup"},
      {"trace", "trace_coverage"},
  };

  out << "{\n  \"benches\": " << benches.size() << ",\n";
  out << "  \"key_metrics\": {";
  bool first_metric = true;
  for (const auto& [bench_name, key] : kKeyMetrics) {
    for (const BenchFile& bench : benches) {
      if (bench.name != bench_name) {
        continue;
      }
      for (const HeadlineField& field : headline_fields(bench.body)) {
        if (field.key == key) {
          out << (first_metric ? "" : ", ") << "\"" << bench_name << "_"
              << key << "\": " << field.render();
          first_metric = false;
        }
      }
    }
  }
  out << "},\n";
  out << "  \"headline\": {\n";
  for (std::size_t i = 0; i < benches.size(); ++i) {
    out << "    \"" << benches[i].name << "\": {";
    const std::vector<HeadlineField> fields =
        headline_fields(benches[i].body);
    for (std::size_t f = 0; f < fields.size(); ++f) {
      out << "\"" << fields[f].key << "\": " << fields[f].render()
          << (f + 1 < fields.size() ? ", " : "");
    }
    out << "}" << (i + 1 < benches.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"results\": {\n";
  for (std::size_t i = 0; i < benches.size(); ++i) {
    out << "    \"" << benches[i].name
        << "\": " << indent_document(benches[i].body, "    ")
        << (i + 1 < benches.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";

  std::printf("bench_summary: %zu bench results -> %s\n", benches.size(),
              output.string().c_str());
  return 0;
}
