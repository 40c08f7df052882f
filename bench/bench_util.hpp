// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench prints the rows/series of one table or figure from the paper
// next to the values the paper reports, so the output is self-contained
// evidence of how well the shape reproduces.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/testbed.hpp"

namespace neat::bench {

using namespace neat::harness;

inline constexpr sim::SimTime kWarmup = 200 * sim::kMillisecond;
inline constexpr sim::SimTime kMeasure = 300 * sim::kMillisecond;

/// Parse `--trace-out=FILE` (or `--trace-out FILE`) from the command line;
/// returns the empty string when the flag is absent. Every bench binary
/// accepts this flag and dumps its flow trace as chrome://tracing JSON.
inline std::string trace_out_arg(int argc, char** argv) {
  const std::string flag = "--trace-out";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(flag + "=", 0) == 0) return a.substr(flag.size() + 1);
    if (a == flag && i + 1 < argc) return argv[i + 1];
  }
  return {};
}

/// Write the simulator's flow trace to `path` (chrome://tracing JSON,
/// loadable in chrome://tracing or ui.perfetto.dev). No-op on empty path.
inline bool write_trace(sim::Simulator& sim, const std::string& path) {
  if (path.empty()) return false;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open trace output %s\n", path.c_str());
    return false;
  }
  sim.tracer().write_chrome_json(f);
  std::printf("wrote %s (%llu events, %llu emitted)\n", path.c_str(),
              static_cast<unsigned long long>(sim.tracer().size()),
              static_cast<unsigned long long>(sim.tracer().emitted()));
  return true;
}

/// One full NEaT experiment: server machine + configuration -> the client
/// rig's aggregate over the measurement window.
struct NeatRun {
  sim::MachineParams machine = sim::amd_opteron_6168();
  bool multi{false};
  int replicas{1};
  int webs{1};
  bool xeon_ht{false};          ///< use the HT placements (Xeon only)
  bool use_xeon_placement{false};
  int requests_per_conn{100};
  std::size_t concurrency_per_gen{24};
  int generators{12};
  std::string path{"/file20"};
  std::vector<std::pair<std::string, std::size_t>> files{{"/file20", 20}};
  std::uint64_t seed{12345};
  sim::SimTime warmup{kWarmup};
  sim::SimTime measure{kMeasure};
  /// When non-empty, the run's flow trace is written here (chrome JSON).
  std::string trace_out;
};

inline ClientRig::Aggregate run_neat(const NeatRun& r) {
  Testbed::Config cfg;
  cfg.seed = r.seed;
  cfg.server_machine = r.machine;
  Testbed tb(cfg);
  NeatServerOptions so;
  so.multi_component = r.multi;
  so.replicas = r.replicas;
  so.webs = r.webs;
  so.files = r.files;
  if (r.use_xeon_placement) {
    so.placement = xeon_placement(r.multi, r.replicas, r.webs, r.xeon_ht);
  }
  ServerRig server = build_neat_server(tb, so);
  ClientOptions co;
  co.generators = r.generators > r.webs ? r.generators : r.webs;
  co.concurrency_per_gen = r.concurrency_per_gen;
  co.requests_per_conn = r.requests_per_conn;
  co.path = r.path;
  ClientRig client = build_client(tb, co, r.webs);
  prepopulate_arp(server, client);
  ClientRig::Aggregate res = run_window(tb, client, r.warmup, r.measure);
  write_trace(tb.sim, r.trace_out);
  return res;
}

struct LinuxRun {
  sim::MachineParams machine = sim::amd_opteron_6168();
  baseline::LinuxTuning tuning = baseline::LinuxTuning::best();
  int webs{12};
  int requests_per_conn{100};
  std::size_t concurrency_per_gen{24};
  int generators{12};
  std::string path{"/file20"};
  std::vector<std::pair<std::string, std::size_t>> files{{"/file20", 20}};
  std::uint64_t seed{12345};
  sim::SimTime warmup{kWarmup};
  sim::SimTime measure{kMeasure};
  std::string trace_out;
};

inline ClientRig::Aggregate run_linux(const LinuxRun& r) {
  Testbed::Config cfg;
  cfg.seed = r.seed;
  cfg.server_machine = r.machine;
  Testbed tb(cfg);
  LinuxServerOptions so;
  so.tuning = r.tuning;
  so.webs = r.webs;
  so.files = r.files;
  ServerRig server = build_linux_server(tb, so);
  ClientOptions co;
  co.generators = r.generators > r.webs ? r.generators : r.webs;
  co.concurrency_per_gen = r.concurrency_per_gen;
  co.requests_per_conn = r.requests_per_conn;
  co.path = r.path;
  ClientRig client = build_client(tb, co, r.webs);
  prepopulate_arp(server, client);
  ClientRig::Aggregate res = run_window(tb, client, r.warmup, r.measure);
  write_trace(tb.sim, r.trace_out);
  return res;
}

/// `s` as a JSON string literal, quotes included.
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// `v` as a JSON number (null when not finite).
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// A gate's bound (or target): a number, or why there is none — a
/// committed file or key that is missing, or a value that is not a number.
struct Operand {
  Operand(double v) : value(v) {}  // NOLINT: a plain number is an operand
  Operand(double v, std::string why) : value(v), error(std::move(why)) {}
  [[nodiscard]] Operand scaled(double k) const { return {value * k, error}; }

  double value{0.0};
  std::string error;  ///< non-empty: the operand could not be read
};

/// The number stored under `key` in a JSON object in the layout
/// JsonWriter writes (`"key": value`).
inline Operand json_number(const std::string& path, const std::string& key) {
  std::ifstream f(path);
  if (!f) return {0.0, "cannot read " + path};
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const std::string pattern = json_quote(key) + ":";
  const std::size_t at = text.find(pattern);
  if (at == std::string::npos) return {0.0, "no key " + key + " in " + path};
  const char* start = text.c_str() + at + pattern.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (end == start || (*end != ',' && *end != '}') || !std::isfinite(v)) {
    return {0.0, key + " in " + path + " is not a number"};
  }
  return v;
}

/// The committed value of `key` in BENCH_<bench>.json at the source root,
/// which holds the bench's full-length run at its default seed.
inline Operand committed(const std::string& bench, const std::string& key) {
  return json_number(std::string(NEAT_SOURCE_DIR) + "/BENCH_" + bench + ".json",
                     key);
}

/// A bench's contracts. Each gate compares one value against a bound,
/// prints one `GATE <name> <value> <op> <bound> PASS|FAIL` line, and lands
/// in the bench's JSON (JsonWriter::add); exit_code() is the bench's exit
/// status.
class Gates {
 public:
  struct Gate {
    std::string name;
    double value;
    std::string op;     ///< ">=", "<=", ">", "<" or "within"
    double bound;       ///< for "within": the target
    double tol;         ///< for "within": the allowed |value - target|
    std::string error;  ///< why the bound could not be read
    bool passed;
  };

  /// `value op bound`, op one of ">=", "<=", ">", "<".
  bool check(const std::string& name, double value, std::string_view op,
             const Operand& bound) {
    const double b = bound.value;
    const bool known = op == ">=" || op == "<=" || op == ">" || op == "<";
    const bool ok = op == ">=" ? value >= b
                    : op == "<=" ? value <= b
                    : op == ">"  ? value > b
                                 : op == "<" && value < b;
    return record({name, value, std::string(op), b, 0.0,
                   known ? bound.error : "unknown op " + std::string(op), ok});
  }

  /// |value - target| <= max(rel * max(|value|, |target|), abs): a
  /// two-sided tolerance, relative to the larger side, with a floor.
  bool within(const std::string& name, double value, const Operand& target,
              double rel, double abs) {
    const double t = target.value;
    const double tol = std::max(rel * std::max(std::fabs(value), std::fabs(t)), abs);
    return record({name, value, "within", t, tol, target.error,
                   std::fabs(value - t) <= tol});
  }

  [[nodiscard]] bool passed() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const Gate& g) { return g.passed; });
  }
  [[nodiscard]] int exit_code() const { return passed() ? 0 : 1; }
  [[nodiscard]] const std::vector<Gate>& all() const { return gates_; }

 private:
  bool record(Gate g) {
    g.passed = g.passed && g.error.empty();
    const std::string bound =
        !g.error.empty()   ? "null"
        : g.op == "within" ? json_num(g.bound) + "+-" + json_num(g.tol)
                           : json_num(g.bound);
    std::printf("GATE %s %s %s %s %s%s%s\n", g.name.c_str(),
                json_num(g.value).c_str(), g.op.c_str(), bound.c_str(),
                g.passed ? "PASS" : "FAIL", g.error.empty() ? "" : " : ",
                g.error.c_str());
    std::fflush(stdout);
    gates_.push_back(std::move(g));
    return gates_.back().passed;
  }

  std::vector<Gate> gates_;
};

/// Tiny machine-readable sidecar: accumulates key/value pairs and writes
/// them as one flat JSON object to BENCH_<name>.json in the working
/// directory, so CI can track counters without scraping stdout.
class JsonWriter {
 public:
  void add(const std::string& key, double v) {
    kv_.emplace_back(key, json_num(v));
  }
  void add(const std::string& key, std::uint64_t v) {
    kv_.emplace_back(key, std::to_string(v));
  }
  void add(const std::string& key, int v) {
    kv_.emplace_back(key, std::to_string(v));
  }
  void add(const std::string& key, bool v) {
    kv_.emplace_back(key, v ? "true" : "false");
  }
  void add(const std::string& key, const std::string& v) {
    kv_.emplace_back(key, json_quote(v));
  }
  /// Every gate as one `gates` array entry, plus `gates_passed`.
  void add(const Gates& gates) {
    std::string arr;
    for (const Gates::Gate& g : gates.all()) {
      arr += (arr.empty() ? "[\n" : ",\n") + std::string("    {\"name\": ") +
             json_quote(g.name) + ", \"value\": " + json_num(g.value) +
             ", \"op\": " + json_quote(g.op) + ", \"bound\": " +
             (g.error.empty() ? json_num(g.bound) : "null");
      if (g.op == "within") arr += ", \"tol\": " + json_num(g.tol);
      if (!g.error.empty()) arr += ", \"error\": " + json_quote(g.error);
      arr += std::string(", \"passed\": ") + (g.passed ? "true}" : "false}");
    }
    kv_.emplace_back("gates", arr.empty() ? "[]" : arr + "\n  ]");
    add("gates_passed", gates.passed());
  }

  bool write(const std::string& bench_name) const {
    const std::string path = "BENCH_" + bench_name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\n", f);
    for (std::size_t i = 0; i < kv_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", kv_[i].first.c_str(),
                   kv_[i].second.c_str(), i + 1 < kv_.size() ? "," : "");
    }
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Append the standard latency-percentile columns for one run under
/// `prefix` (e.g. "neat3x_"). Every bench JSON carries these for its key
/// runs so latency regressions are machine-visible, not just rate ones.
inline void add_latency(JsonWriter& j, const std::string& prefix,
                        const ClientRig::Aggregate& r) {
  j.add(prefix + "krps", r.krps);
  j.add(prefix + "requests", r.requests);
  j.add(prefix + "error_conns", r.error_conns);
  j.add(prefix + "latency_mean_ms", r.mean_latency_ms);
  j.add(prefix + "latency_p50_ms", r.p50_latency_ms);
  j.add(prefix + "latency_p95_ms", r.p95_latency_ms);
  j.add(prefix + "latency_p99_ms", r.p99_latency_ms);
  j.add(prefix + "latency_p999_ms", r.p999_latency_ms);
}

/// Summarize a host's recovery log: detection, restart-complete and
/// first-service latencies (ms percentiles). For benches that inject
/// faults.
inline void add_recovery(JsonWriter& j, const std::vector<RecoveryEvent>& log) {
  obs::Histogram detect;
  obs::Histogram recover;
  obs::Histogram first;
  for (const auto& ev : log) {
    if (ev.detected_at > 0) detect.record(ev.detection_latency());
    if (ev.recovered_at > 0) recover.record(ev.recovery_latency());
    if (ev.first_service_at > 0) first.record(ev.first_service_latency());
  }
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  j.add("recovery_events", static_cast<std::uint64_t>(log.size()));
  j.add("recovery_detect_p50_ms", ms(detect.quantile(0.5)));
  j.add("recovery_detect_p99_ms", ms(detect.quantile(0.99)));
  j.add("recovery_restart_p50_ms", ms(recover.quantile(0.5)));
  j.add("recovery_restart_p99_ms", ms(recover.quantile(0.99)));
  j.add("recovery_first_service_observed", first.count());
  j.add("recovery_first_service_p50_ms", ms(first.quantile(0.5)));
  j.add("recovery_first_service_p99_ms", ms(first.quantile(0.99)));
}

/// The process's current resident set in bytes (Linux /proc/self/statm;
/// 0 where unavailable). Unlike getrusage's peak, it can be sampled before
/// and after a phase to measure what that phase kept resident.
inline std::uint64_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

inline void header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
  std::fflush(stdout);
}

}  // namespace neat::bench
